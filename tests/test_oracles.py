import ast
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sibsonmi.oracles as oracles
from sibsonmi.core import Joint3
from sibsonmi.errors import ValidationError
from sibsonmi.instances import random_joint3
from sibsonmi.oracles import (
    _LINE_POINTS,
    _LINE_ROUNDS,
    _POLISH_PASSES,
    GRID_POINT_CAP,
    _line_searches,
    _power_sums,
    cond_ygz_oracle,
    cond_ygz_oracles,
    cond_z_oracle,
    cond_z_oracles,
    minimize_on_simplex,
    minimize_on_simplexes,
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


@pytest.mark.parametrize("module", ["sibson", "divergences", "bounds", "exponents"])
def test_closed_forms_import_nothing_from_oracles(module):
    # the other side of the same independence
    path = pathlib.Path(oracles.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            assert not any(n.endswith("oracles") for n in names)


def _scalar_line_search(f_batch, q, d, lo, hi):
    """The one-problem line search that the lockstep rounds replaced."""
    best_t, best_f = lo, math.inf
    for _ in range(_LINE_ROUNDS):
        ts = np.linspace(lo, hi, _LINE_POINTS)
        vals = np.asarray(f_batch(q + ts[:, None] * d), dtype=float)
        k = int(np.argmin(vals))
        if vals[k] < best_f:
            best_t, best_f = float(ts[k]), float(vals[k])
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, _LINE_POINTS - 1)]
    return best_t, best_f


def _scalar_minimize(f_batch, dim, step):
    """The one-problem grid scan and polish that the lockstep minimiser
    replaced, kept as the reference it must reproduce bit for bit."""
    grid = simplex_grid(dim, step)
    vals = np.asarray(f_batch(grid), dtype=float)
    best = int(np.argmin(vals))
    q, fq = grid[best].copy(), float(vals[best])
    if dim == 1:
        return q, fq
    window = 2.0 * step
    for _ in range(_POLISH_PASSES):
        improved = False
        for i in range(dim):
            for jx in range(i + 1, dim):
                d = np.zeros(dim)
                d[i], d[jx] = 1.0, -1.0
                lo, hi = max(-q[i], -window), min(q[jx], window)
                if hi - lo < 1e-15:
                    continue
                t, ft = _scalar_line_search(f_batch, q, d, lo, hi)
                if ft < fq - 1e-15:
                    q = q + t * d
                    np.clip(q, 0.0, None, out=q)
                    q /= q.sum()
                    fq = float(f_batch(q[None, :])[0])
                    improved = True
        if not improved:
            break
    return q, fq


@st.composite
def _quadratics(draw, dims=(1, 2, 3, 4)):
    """Weighted quadratics sum_c w_c (q_c - t_c)^2, one per problem.

    Targets sit on the step lattice, off it, or outside the simplex (a
    boundary minimum), and the weights vary, so the polish of different
    problems accepts different moves and stops after different passes.
    """
    dim = draw(st.sampled_from(dims))
    step = draw(st.sampled_from((0.5, 0.1, 0.05) if dim == 4 else (0.5, 0.1, 0.05, 0.02)))
    m = round(1 / step)
    n = draw(st.integers(1, 6))
    targets, weights = np.empty((n, dim)), np.empty((n, dim))
    for r in range(n):
        kind = draw(st.sampled_from(("lattice", "inside", "outside")))
        if kind == "lattice":
            ks = draw(st.lists(st.integers(0, m), min_size=dim, max_size=dim))
            targets[r] = np.asarray(ks, dtype=float) / max(1, sum(ks))
        else:
            lo = 0.0 if kind == "inside" else -0.3
            ts = draw(st.lists(st.floats(lo, 1.0), min_size=dim, max_size=dim))
            targets[r] = ts
        weights[r] = draw(st.lists(st.sampled_from((1.0, 0.5, 3.0, 40.0)),
                                   min_size=dim, max_size=dim))
    return dim, step, targets, weights


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=_quadratics())
@example(problem=(3, 0.05, np.array([[0.25, 0.25, 0.5], [0.2123, 0.3345, 0.4532]]),
                  np.ones((2, 3))))
def test_lockstep_minimiser_matches_single_calls(problem):
    dim, step, targets, weights = problem
    n = len(targets)
    seen = np.zeros(n, dtype=int)  # f_stack calls that priced each problem

    def f_stack(rows, qs):
        seen[rows] += 1
        return (weights[rows][:, None] * (qs - targets[rows][:, None]) ** 2).sum(axis=-1)

    qs, vals = minimize_on_simplexes(f_stack, n, dim, step)
    assert qs.shape == (n, dim) and vals.shape == (n,)
    for r in range(n):
        calls = []

        def f_batch(q, r=r):
            calls.append(len(q))
            return (weights[r] * (q - targets[r]) ** 2).sum(axis=1)

        q, val = minimize_on_simplex(f_batch, dim, step)
        assert q.tobytes() == qs[r].tobytes()
        assert np.float64(val).tobytes() == vals[r].tobytes()
        # the same number of objective calls: no extra round or pass
        assert seen[r] == len(calls)
        want_q, want_val = _scalar_minimize(f_batch, dim, step)
        assert q.tobytes() == want_q.tobytes() and val == want_val


@pytest.mark.parametrize("scan_points", [1, 7, 64])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_grid_scan_in_slices_matches_whole_grid(monkeypatch, dim, scan_points):
    # a grid larger than _SCAN_POINTS is priced over several calls
    rng = np.random.default_rng(dim)
    targets = rng.dirichlet(np.ones(dim), size=3)
    monkeypatch.setattr(oracles, "_SCAN_POINTS", scan_points)
    qs, vals = minimize_on_simplexes(
        lambda rows, q: ((q - targets[rows][:, None]) ** 2).sum(axis=-1), 3, dim, 0.1
    )
    for r in range(3):
        want_q, want_val = _scalar_minimize(
            lambda q: ((q - targets[r]) ** 2).sum(axis=1), dim, 0.1
        )
        assert qs[r].tobytes() == want_q.tobytes() and vals[r] == want_val


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.integers(2, 4), data=st.data())
def test_line_searches_match_scalar_rows(dim, data):
    # rows with a zero-width bracket share the call with ordinary rows;
    # every row must still see the points of its own np.linspace
    i, jx = data.draw(st.sampled_from(list(itertools.combinations(range(dim), 2))))
    d = np.zeros(dim)
    d[i], d[jx] = 1.0, -1.0
    n = data.draw(st.integers(1, 5))
    unit = st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)
    q = np.array([data.draw(unit) for _ in range(n)]) + 1e-3
    q /= q.sum(axis=1, keepdims=True)
    target = np.array([data.draw(unit) for _ in range(n)])
    width = st.sampled_from((0.0, 1e-15, 1e-9, 0.04, 0.5))
    lo = -np.array([data.draw(width) for _ in range(n)])
    hi = np.array([data.draw(width) for _ in range(n)])

    def f_stack(rows, qs):
        return ((qs - target[rows][:, None]) ** 2).sum(axis=-1)

    t, f = _line_searches(f_stack, np.arange(n), q, d, lo, hi)
    for r in range(n):
        want = _scalar_line_search(
            lambda qs, r=r: ((qs - target[r]) ** 2).sum(axis=1), q[r], d, lo[r], hi[r]
        )
        assert (t[r], f[r]) == want


def _joint(shape, seed, zero_cells, dead_z):
    """A random joint with ``zero_cells`` zeroed cells and ``dead_z``
    unreachable z values (at least one z keeps its mass)."""
    rng = np.random.default_rng(seed)
    probs = random_joint3(rng, shape, zero_cells=zero_cells).probs.copy()
    nz = shape[2]
    dead = rng.choice(nz, size=min(dead_z, nz - 1), replace=False)
    probs[:, :, dead] = 0.0
    if not probs.sum() > 0:
        probs[0, 0, np.setdiff1d(np.arange(nz), dead)[0]] = 1.0
    probs /= probs.sum()
    labels = [tuple(str(v) for v in range(k)) for k in shape]
    return Joint3(*labels, probs)


@st.composite
def _joint_batches(draw):
    shape = draw(st.sampled_from(((2, 2, 2), (3, 2, 2), (2, 3, 3))))
    n = draw(st.integers(1, 4))
    joints = [
        _joint(shape, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 5)),
               draw(st.integers(0, 2)))
        for _ in range(n)
    ]
    # the default step runs a 501,501-point grid on three coordinates
    steps = (0.1, 0.05) if shape == (2, 3, 3) else (None, 0.1, 0.05)
    return joints, draw(st.sampled_from(steps))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=_joint_batches(), a=st.sampled_from((0.5, 1.5, 2.0, 4.0)))
# 3, 2, 1 and 2 reachable z: three lockstep groups in one cond_z_oracles call
@example(batch=([_joint((2, 3, 3), 7, 0, dead) for dead in (0, 1, 2, 1)], 0.05), a=2.0)
def test_batched_oracles_match_single_calls(batch, a):
    joints, step = batch
    for batched, single in ((cond_z_oracles, cond_z_oracle),
                            (cond_ygz_oracles, cond_ygz_oracle)):
        got = batched(joints, a, step)
        assert len(got) == len(joints)
        for j, (val, arg) in zip(joints, got):
            want_val, want_arg = single(j, a, step)
            assert np.float64(val).tobytes() == np.float64(want_val).tobytes()
            assert arg.tobytes() == want_arg.tobytes()


@pytest.mark.parametrize("batched", [cond_z_oracles, cond_ygz_oracles])
def test_batched_oracles_reject_mixed_shapes_and_empty_lists(batched):
    rng = np.random.default_rng(3)
    mixed = [random_joint3(rng, (2, 2, 2)), random_joint3(rng, (3, 2, 2))]
    with pytest.raises(ValidationError, match="one shape"):
        batched(mixed, 2.0)
    with pytest.raises(ValidationError, match="at least one joint"):
        batched([], 2.0)


@pytest.mark.parametrize("scan_points", [1, 5, 64])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_slice_scan_matches_full_grid_argmin(monkeypatch, dim, scan_points):
    # ties and NaN included: each row keeps np.argmin's first minimum, or
    # its first NaN; the one-point grid of dim 1 is never sliced
    step = {1: 0.5, 2: 0.05, 3: 0.1, 4: 0.2, 5: 0.25, 6: 0.5}[dim]
    grid = simplex_grid(dim, step)
    rng = np.random.default_rng(dim)
    targets = rng.dirichlet(np.ones(dim), size=4)
    nan_at = rng.integers(0, len(grid), size=2)

    def f_stack(rows, qs):
        # coarse rounding makes ties; problem 3 has two NaN points
        vals = np.round(((qs - targets[rows][:, None]) ** 2).sum(axis=-1), 2)
        for r, row in enumerate(rows):
            if row == 3:
                hit = (qs[r][:, None] == grid[nan_at][None]).all(axis=-1).any(axis=1)
                vals[r, hit] = math.nan
        return vals

    monkeypatch.setattr(oracles, "_SCAN_POINTS", scan_points)
    m = round(1 / step)
    if len(grid) > scan_points:
        q, fq = oracles._scan_slices(f_stack, 4, dim, m)
    else:
        q, fq = oracles._scan_whole(f_stack, 4, grid)
    whole = f_stack(np.arange(4), np.broadcast_to(grid, (4, *grid.shape)))
    best = np.argmin(whole, axis=1)
    assert q.tobytes() == grid[best].tobytes()
    assert fq.tobytes() == whole[np.arange(4), best].tobytes()


def test_large_grid_scan_peak_memory():
    # the 501,501 x 3 grid of step 1e-3 alone takes 12 MB; scanned in
    # slices of _SCAN_POINTS points the whole minimisation stays far below
    target = np.array([0.2, 0.3, 0.5])
    tracemalloc.start()
    try:
        q, _ = minimize_on_simplex(lambda qs: ((qs - target) ** 2).sum(axis=1), 3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(q - target)) <= 1e-9
    assert peak < 8e6
