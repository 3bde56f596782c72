import ast
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import sibsonmi.oracles as oracles
from sibsonmi.oracles import (
    _LINE_ROUNDS,
    _POLISH_PASSES,
    GRID_POINT_CAP,
    _power_sums,
    minimize_on_simplex,
    simplex_grid,
)

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


@pytest.mark.parametrize("av", [0.3, 0.5, 2.0, 4.0])
def test_power_sums_match_per_cell_loop(av):
    rng = np.random.default_rng(int(av * 10))
    p = rng.random(12) * (rng.random(12) < 0.7)
    ms = rng.random((40, 12)) * (rng.random((40, 12)) < 0.8)
    got = _power_sums(p, ms, av)
    for row, m in enumerate(ms):
        total, poisoned = 0.0, False
        for pc, mc in zip(p, m):
            if pc == 0:
                continue
            if mc == 0:
                poisoned = poisoned or av > 1
                continue
            total += pc**av * mc ** (1.0 - av)
        if poisoned:
            assert got[row] == math.inf
        else:
            assert math.isfinite(got[row])
            assert abs(got[row] - total) <= 1e-12 * max(1.0, total)
    blocked = ((p > 0) & (ms == 0)).any(axis=1)
    assert blocked.any() and not blocked.all()
    assert np.array_equal(np.isinf(got), blocked if av > 1 else np.zeros(40, bool))


def _counting_quadratic(target):
    calls = []

    def f(qs):
        calls.append(len(qs))
        return ((qs - target) ** 2).sum(axis=1)

    return f, calls


def test_line_search_calls_per_round():
    # the minimum sits on the step-0.05 grid, so one pass of three line
    # searches finds nothing to accept: every call after the grid scan
    # belongs to a line search
    f, calls = _counting_quadratic(np.array([0.25, 0.25, 0.5]))
    q, val = minimize_on_simplex(f, 3, step=0.05)
    assert val == 0.0 and np.array_equal(q, [0.25, 0.25, 0.5])
    assert calls[0] == len(simplex_grid(3, 0.05))
    assert len(calls) - 1 == 3 * _LINE_ROUNDS
    # off the grid the polish accepts moves, each re-priced by one call
    target = np.array([0.2123, 0.3345, 0.4532])
    f, calls = _counting_quadratic(target)
    q, val = minimize_on_simplex(f, 3, step=0.05)
    # moves gaining under 1e-15 are refused, so q stops ~sqrt(1e-15) short
    assert np.max(np.abs(q - target)) <= 1e-7 and val <= 1e-15
    assert len(calls) - 1 <= _POLISH_PASSES * 3 * (_LINE_ROUNDS + 1)


def test_oracles_import_only_core_and_errors():
    # independence from the closed forms is what lets the oracles certify them
    tree = ast.parse(open(oracles.__file__).read())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 or not node.module.startswith("sibsonmi")
            if node.level:
                local.add(node.module)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("sibsonmi") for a in node.names)
    assert local == {"core", "errors"}
