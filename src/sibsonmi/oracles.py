"""Brute-force simplex minimisers used as independent cross-checks.

Everything here evaluates divergence objectives directly from their
defining sums (one linear-space power-sum kernel, ``_power_sums``) on a
dense probability-simplex grid and then polishes the best grid point
with batched line searches along coordinate exchange directions; the
grid and the polish go through the same batch objective.  None of it
touches the closed forms in the measures module; agreement between the
two paths is what the test suite certifies, so keeping them disjoint is
the whole point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import Alpha, Joint2, Joint3
from .errors import ResourceLimitError, ValidationError

GRID_POINT_CAP = 5_000_000
_POLISH_PASSES = 12
# each line-search round evaluates _LINE_POINTS evenly spaced points in
# one batch and keeps the two intervals around the best, so the bracket
# shrinks 16x per round and 16^10 ~ 1e12-fold over a search
_LINE_POINTS = 33
_LINE_ROUNDS = 10


def simplex_grid(dim: int, step: float = 1e-3) -> np.ndarray:
    """All points of the (dim-1)-simplex with coordinates on a step lattice.

    Rows sum to 1 exactly up to float rounding; the vertices are always
    included.  The point count grows like (1/step)^(dim-1), so larger
    alphabets need a coarser step; the cap fails fast instead of
    exhausting memory.
    """
    if dim < 1:
        raise ValidationError("simplex dimension must be at least 1")
    if not 0 < step <= 1:
        raise ValidationError(f"simplex grid step must lie in (0, 1], got {step}")
    m = max(1, round(1.0 / step))
    points = math.comb(m + dim - 1, dim - 1)
    if points > GRID_POINT_CAP:
        raise ResourceLimitError(
            f"simplex grid would hold {points} points (cap {GRID_POINT_CAP});"
            " use a coarser step"
        )
    # lexicographic in the leading coordinates: each step repeats every
    # point built so far once per value its next coordinate can take;
    # the last coordinate is the mass left over
    out = np.empty((points, dim))
    left = np.full(1, float(m))  # lattice mass not yet placed, per point
    for c in range(dim - 1):
        reps = left.astype(np.int64) + 1
        size = int(reps.sum())
        out[:size, :c] = np.repeat(out[: len(left), :c], reps, axis=0)
        coord = np.arange(size, dtype=float)
        coord -= np.repeat(np.cumsum(reps) - reps, reps)
        out[:size, c] = coord
        left = np.repeat(left, reps)
        left -= coord
    out[:, -1] = left
    out /= m
    return out


def _line_search(f_batch: Callable[[np.ndarray], np.ndarray], q, d, lo, hi):
    """Minimise t -> f(q + t d) on [lo, hi] by batched bracketing.

    Returns the best ``(t, value)`` among all points evaluated.
    """
    best_t, best_f = lo, math.inf
    for _ in range(_LINE_ROUNDS):
        ts = np.linspace(lo, hi, _LINE_POINTS)
        vals = np.asarray(f_batch(q + ts[:, None] * d), dtype=float)
        k = int(np.argmin(vals))
        if vals[k] < best_f:
            best_t, best_f = float(ts[k]), float(vals[k])
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, _LINE_POINTS - 1)]
    return best_t, best_f


def minimize_on_simplex(
    f_batch: Callable[[np.ndarray], np.ndarray],
    dim: int,
    step: float = 1e-3,
):
    """Grid scan of the simplex followed by line-search polishing.

    ``f_batch`` maps an (k, dim) array of simplex points to k objective
    values.  Returns ``(argmin, min_value)``.  Polishing moves mass
    between coordinate pairs inside a window around the best grid point,
    so the grid supplies the global picture and the line searches the
    final digits: at most ``_POLISH_PASSES`` sweeps over the pairs, each
    move within two grid steps of the current point.  Every line search
    calls ``f_batch`` ``_LINE_ROUNDS`` times, plus once more to re-price
    an accepted move.
    """
    grid = simplex_grid(dim, step)
    vals = np.asarray(f_batch(grid), dtype=float)
    best = int(np.argmin(vals))
    q = grid[best].copy()
    fq = float(vals[best])
    if dim == 1:
        return q, fq
    window = 2.0 * step
    for _ in range(_POLISH_PASSES):
        improved = False
        for i in range(dim):
            for jx in range(i + 1, dim):
                d = np.zeros(dim)
                d[i], d[jx] = 1.0, -1.0
                lo = max(-q[i], -window)
                hi = min(q[jx], window)
                if hi - lo < 1e-15:
                    continue
                t, ft = _line_search(f_batch, q, d, lo, hi)
                if ft < fq - 1e-15:
                    q = q + t * d
                    np.clip(q, 0.0, None, out=q)
                    q /= q.sum()
                    fq = float(f_batch(q[None, :])[0])
                    improved = True
        if not improved:
            break
    return q, fq


def _power_sums(p: np.ndarray, ms: np.ndarray, av: float) -> np.ndarray:
    """Row sums of p^a m^(1-a) over the cells, straight from the definition.

    The rows of ``ms`` are measures on the cells; ``p`` is one measure
    on the same cells, or a stack with one row per row of ``ms`` (the
    paired Hellinger integrals of ``sdpi.contraction_search``).  A p = 0
    cell adds nothing; an m = 0 cell against p > 0 adds nothing below
    order 1 and makes its row +inf above it.
    """
    pos = p > 0
    hit = pos & (ms > 0)
    # in place: a grid of candidate rows is the largest array in the oracles
    terms = np.where(hit, ms, 1.0)
    terms **= 1.0 - av
    terms *= p**av
    terms[~hit] = 0.0
    sums = terms.sum(axis=1)
    if av > 1:
        sums[(pos & ~hit).any(axis=1)] = math.inf
    return sums


def _renyi_from_sums(sums: np.ndarray, av: float) -> np.ndarray:
    """(1/(a-1)) log of power sums; an empty (zero) sum is +inf."""
    out = np.full(sums.shape[0], math.inf)
    ok = sums > 0
    out[ok] = np.log(sums[ok]) / (av - 1.0)
    return out


def batch_renyi_from_defs(p_flat: np.ndarray, ms: np.ndarray, av: float):
    """Order-av divergence of a fixed p against a batch of measures.

    Plain power sums straight from the definition (no log-space tricks,
    no closed forms): rows of ``ms`` are candidate measures on the same
    cells as ``p_flat``.
    """
    p_flat = np.asarray(p_flat, dtype=float)
    ms = np.asarray(ms, dtype=float)
    return _renyi_from_sums(_power_sums(p_flat, ms, av), av)


def _finite_alpha(a) -> float:
    a = Alpha.coerce(a)
    if not a.is_finite:
        raise ValidationError("the grid oracle handles finite orders only")
    return a.value


def _auto_step(dim: int, step: float | None) -> float:
    """1e-3 for simplexes of up to 3 coordinates, coarser above (the
    polish pass recovers the lost digits)."""
    if step is not None:
        return step
    if dim <= 3:
        return 1e-3
    return 0.02 if dim <= 5 else 0.05


def sibson_mi_oracle(jxy: Joint2, a, step: float | None = None):
    """min over output pmfs Q of D_a(P_XY || P_X x Q), definitionally.

    Returns ``(value, argmin_q)``.
    """
    av = _finite_alpha(a)
    p = jxy.probs.ravel()
    px = jxy.probs.sum(axis=1)
    ny = jxy.probs.shape[1]
    step = _auto_step(ny, step)

    def f_batch(qs: np.ndarray) -> np.ndarray:
        ms = (px[None, :, None] * qs[:, None, :]).reshape(qs.shape[0], -1)
        return batch_renyi_from_defs(p, ms, av)

    q, val = minimize_on_simplex(f_batch, ny, step=step)
    return val, q


def cond_z_oracle(j: Joint3, a, step: float | None = None):
    """min over pmfs Q on Z of D_a(P_XYZ || P_X|Z P_Y|Z x Q).

    The grid runs over the reachable-z simplex (a Q that weights an
    unreachable z can only increase the divergence for orders above 1
    and never decreases it below); returns ``(value, argmin_q)`` with
    the argmin embedded over the full Z alphabet.
    """
    av = _finite_alpha(a)
    pz, reach, _, cx, cy = j.conditionals_given_z()
    nz = j.shape[2]
    cond_prod = np.einsum("zx,zy->xyz", cx, cy)
    p = j.probs.ravel()
    idx = np.flatnonzero(reach)
    step = _auto_step(len(idx), step)

    def f_batch(qs: np.ndarray) -> np.ndarray:
        full = np.zeros((qs.shape[0], nz))
        full[:, idx] = qs
        ms = (cond_prod[None, :, :, :] * full[:, None, None, :]).reshape(
            qs.shape[0], -1
        )
        return batch_renyi_from_defs(p, ms, av)

    q_r, val = minimize_on_simplex(f_batch, len(idx), step=step)
    q = np.zeros(nz)
    q[idx] = q_r
    return val, q


def cond_ygz_oracle(j: Joint3, a, step: float | None = None):
    """min over kernels Q(.|z) of D_a(P_XYZ || P_X|Z Q_Y|Z P_Z).

    The defining sum splits as (1/(a-1)) log of a sum of nonnegative
    per-z blocks, each depending only on its own row Q(.|z), so the rows
    can be optimised independently: minimise each block for orders above
    1, maximise for orders below 1.  Returns ``(value, rows)``.
    """
    av = _finite_alpha(a)
    pz, reach, _, cx, _ = j.conditionals_given_z()
    nx, ny, nz = j.shape
    step = _auto_step(ny, step)
    sign = 1.0 if av > 1 else -1.0
    rows = np.zeros((nz, ny))
    block_sums = np.zeros(nz)
    for z in range(nz):
        if not reach[z]:
            continue
        p_slice = j.probs[:, :, z].ravel()
        base = cx[z][:, None] * pz[z]  # P(x|z) P_Z(z), broadcast over y

        def block(qs: np.ndarray, p_slice=p_slice, base=base) -> np.ndarray:
            ms = (base[None, :, :] * qs[:, None, :]).reshape(qs.shape[0], -1)
            return sign * _power_sums(p_slice, ms, av)

        q, s = minimize_on_simplex(block, ny, step=step)
        rows[z] = q
        block_sums[z] = sign * s
    total = block_sums[reach].sum()
    if not total > 0:
        return math.inf, rows
    return math.log(total) / (av - 1.0), rows


def min_weighted_radius(measures, weights, a, step: float | None = None):
    """min over pmfs nu of (1/(a-1)) log sum_i w_i sum_j mu_i^a nu^(1-a).

    The inner sum is exp((a-1) D_a(mu_i || nu)) written out; this is the
    numeric minimisation behind the information radius.  Returns
    ``(value, argmin_nu)``.
    """
    av = _finite_alpha(a)
    mus = np.asarray([_as_probs(m) for m in measures], dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != (mus.shape[0],):
        raise ValidationError("one weight per measure is required")
    if np.any(w < 0) or not w.sum() > 0:
        raise ValidationError("weights must be nonnegative with positive sum")
    dim = mus.shape[1]
    step = _auto_step(dim, step)
    active = w > 0  # zero-weight measures drop out before any inf arithmetic
    mus_a, w_a = mus[active], w[active]

    def f_batch(nus: np.ndarray) -> np.ndarray:
        totals = sum(wt * _power_sums(mu, nus, av) for mu, wt in zip(mus_a, w_a))
        return _renyi_from_sums(totals, av)

    nu, val = minimize_on_simplex(f_batch, dim, step=step)
    return val, nu


def _as_probs(m) -> np.ndarray:
    return np.asarray(m.probs if hasattr(m, "probs") else m, dtype=float)
