import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sibsonmi.oracles import GRID_POINT_CAP, simplex_grid

STEPS = (1, 0.5, 0.3, 0.25, 0.1, 0.05, 0.02, 0.01, 1e-3)
REFERENCE_WALK_CAP = 10**7  # (m+1)^(dim-1) tuples the reference may walk


def _reference_grid(dim, step):
    """The per-dimension enumeration the single lexicographic one replaced."""
    m = max(1, round(1.0 / step))
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        k = np.arange(m + 1)
        return np.column_stack([k, m - k]) / m
    if dim == 3:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        i, j = i[keep], j[keep]
        return np.column_stack([i, j, m - i - j]) / m
    pts = [
        (*c, m - sum(c))
        for c in itertools.product(range(m + 1), repeat=dim - 1)
        if sum(c) <= m
    ]
    return np.asarray(pts, dtype=float) / m


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_simplex_grid_matches_reference(dim):
    checked = 0
    for step in STEPS:
        m = max(1, round(1.0 / step))
        if math.comb(m + dim - 1, dim - 1) > GRID_POINT_CAP:
            continue
        if (m + 1) ** (dim - 1) > REFERENCE_WALK_CAP:
            continue
        want, got = _reference_grid(dim, step), simplex_grid(dim, step)
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want), step
        checked += 1
    assert checked >= 6


def test_simplex_grid_peak_memory():
    # 176,851 points of 4 coordinates take 5.7 MB
    tracemalloc.start()
    try:
        g = simplex_grid(4, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (176_851, 4)
    assert peak < 20e6
