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
# the grid scan prices at most this many points per objective call:
# whole grids of several problems, or slices of one large grid, so the
# objective's temporaries stay bounded however many problems or points
_SCAN_POINTS = 1 << 16


def _lattice_size(dim: int, step: float) -> tuple[int, int]:
    """The lattice denominator m of a simplex grid and its point count,
    after checking the arguments and the point cap."""
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
    return m, points


def _lattice(head: np.ndarray, left: np.ndarray, dim: int, points: int) -> np.ndarray:
    """Integer lattice points of ``dim`` coordinates, as floats, extending
    each row of ``head`` (its leading coordinates) by every split of its
    entry of ``left`` over the remaining coordinates, ``points`` in all.

    Lexicographic: each step repeats every point built so far once per
    value its next coordinate can take; the last coordinate is the mass
    left over.
    """
    c0 = head.shape[1]
    out = np.empty((points, dim))
    out[: len(head), :c0] = head
    left = left.astype(float)  # lattice mass not yet placed, per point
    for c in range(c0, dim - 1):
        reps = left.astype(np.int64) + 1
        size = int(reps.sum())
        out[:size, :c] = np.repeat(out[: len(left), :c], reps, axis=0)
        coord = np.arange(size, dtype=float)
        coord -= np.repeat(np.cumsum(reps) - reps, reps)
        out[:size, c] = coord
        left = np.repeat(left, reps)
        left -= coord
    out[:, -1] = left
    return out


def simplex_grid(dim: int, step: float = 1e-3) -> np.ndarray:
    """All points of the (dim-1)-simplex with coordinates on a step lattice.

    Rows sum to 1 exactly up to float rounding; the vertices are always
    included.  The point count grows like (1/step)^(dim-1), so larger
    alphabets need a coarser step; the cap fails fast instead of
    exhausting memory.
    """
    m, points = _lattice_size(dim, step)
    out = _lattice(np.empty((1, 0)), np.full(1, m), dim, points)
    out /= m
    return out


def _grid_slices(dim: int, m: int, cap: int, head=()):
    """The rows of ``simplex_grid(dim, 1/m)`` in order, as consecutive
    slices of at most ``cap`` points (the lattice points with leading
    coordinates ``head`` when given).

    A slice is a run of values of the next coordinate whose points fit
    the cap together; a value whose points alone pass it is split on
    the coordinate after.  Integer coordinates over m are bit-identical
    to the whole grid's rows.
    """
    left, rest = m - sum(head), dim - len(head)
    counts = [math.comb(left - v + rest - 2, rest - 2) for v in range(left + 1)]
    v = 0
    while v <= left:
        if counts[v] > cap:  # only with rest > 2: one value holds one point at rest == 2
            yield from _grid_slices(dim, m, cap, (*head, v))
            v += 1
            continue
        w, size = v, 0
        while w <= left and size + counts[w] <= cap:
            size += counts[w]
            w += 1
        values = np.arange(v, w)
        lead = np.empty((len(values), len(head) + 1))
        lead[:, :-1] = head
        lead[:, -1] = values
        out = _lattice(lead, left - values, dim, size)
        out /= m
        yield out
        v = w


def _line_searches(f_stack, rows, q, d, lo, hi):
    """Minimise t -> f_r(q_r + t d) on [lo_r, hi_r] for each problem r
    in ``rows``, all in lockstep by batched bracketing.

    Returns each row's best ``(t, value)`` among the points it evaluated.
    """
    pick = np.arange(len(rows))
    offsets = np.arange(_LINE_POINTS, dtype=float)
    best_t, best_f = lo.copy(), np.full(len(rows), math.inf)
    for _ in range(_LINE_ROUNDS):
        # np.linspace(lo_r, hi_r, _LINE_POINTS) per row, written out:
        # given array endpoints, linspace switches every row to another
        # formula as soon as any row has a zero step
        ts = offsets * ((hi - lo) / (_LINE_POINTS - 1))[:, None] + lo[:, None]
        ts[:, -1] = hi
        vals = np.asarray(f_stack(rows, q[:, None, :] + ts[:, :, None] * d), dtype=float)
        k = np.argmin(vals, axis=1)
        vk = vals[pick, k]
        better = vk < best_f
        best_t[better] = ts[pick, k][better]
        best_f[better] = vk[better]
        lo = ts[pick, np.maximum(k - 1, 0)]
        hi = ts[pick, np.minimum(k + 1, _LINE_POINTS - 1)]
    return best_t, best_f


def minimize_on_simplexes(
    f_stack: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    dim: int,
    step: float = 1e-3,
):
    """Minimise n objectives on the (dim-1)-simplex in lockstep.

    ``f_stack(rows, qs)`` takes an int array of problem indices and an
    (len(rows), k, dim) array of simplex points, k per problem, and
    returns the (len(rows), k) objective values; a problem's values
    must not depend on which other rows share the call.  Every problem
    takes exactly the steps of its own ``minimize_on_simplex`` run, so
    its argmin and value are bit-identical to that run's:

    - the grid scan prices every problem on the whole grid, at most
      ``_SCAN_POINTS`` points per call (a larger grid in lattice slices,
      never built whole), and keeps each row's first minimum;
    - each coordinate pair's line search runs only on the live rows
      whose window is at least 1e-15 wide, each row narrowing its own
      bracket;
    - a row moves when its search gains more than 1e-15; moved points
      are clipped, renormalised and re-priced in one call;
    - a row stops after a pass without a move (after the grid scan for
      dim == 1).

    Returns ``(argmins, values)``, arrays of shapes (n, dim) and (n,).
    """
    m, points = _lattice_size(dim, step)
    if points > _SCAN_POINTS:
        q, fq = _scan_slices(f_stack, n, dim, m)
    else:
        q, fq = _scan_whole(f_stack, n, simplex_grid(dim, step))
    if dim == 1:
        return q, fq
    window = 2.0 * step
    live = np.arange(n)
    for _ in range(_POLISH_PASSES):
        improved = np.zeros(n, dtype=bool)
        for i in range(dim):
            for jx in range(i + 1, dim):
                d = np.zeros(dim)
                d[i], d[jx] = 1.0, -1.0
                lo = np.maximum(-q[live, i], -window)
                hi = np.minimum(q[live, jx], window)
                wide = ~(hi - lo < 1e-15)
                rows = live[wide]
                if not len(rows):
                    continue
                t, ft = _line_searches(f_stack, rows, q[rows], d, lo[wide], hi[wide])
                take = ft < fq[rows] - 1e-15
                if not take.any():
                    continue
                rows = rows[take]
                moved = q[rows] + t[take, None] * d
                np.clip(moved, 0.0, None, out=moved)
                moved /= moved.sum(axis=1, keepdims=True)
                q[rows] = moved
                fq[rows] = np.asarray(f_stack(rows, moved[:, None, :]), dtype=float)[:, 0]
                improved[rows] = True
        live = live[improved[live]]
        if not len(live):
            break
    return q, fq


def _scan_whole(f_stack, n: int, grid: np.ndarray):
    """Each problem's first grid minimum over a grid of at most
    ``_SCAN_POINTS`` points, pricing as many problems per call as fit."""
    vals = np.empty((n, len(grid)))
    per_call = max(1, _SCAN_POINTS // len(grid))
    for first in range(0, n, per_call):
        rows = np.arange(first, min(first + per_call, n))
        vals[rows] = f_stack(rows, np.broadcast_to(grid, (len(rows), *grid.shape)))
    best = np.argmin(vals, axis=1)
    return grid[best], vals[np.arange(n), best]


def _scan_slices(f_stack, n: int, dim: int, m: int):
    """Each problem's first grid minimum over a grid too large to price
    whole, slice by slice; NaN wins as in ``np.argmin``."""
    q, fq = np.empty((n, dim)), np.empty(n)
    for s, points in enumerate(_grid_slices(dim, m, _SCAN_POINTS)):
        for r in range(n):
            vals = np.asarray(f_stack(np.array([r]), points[None]), dtype=float)[0]
            k = int(np.argmin(vals))
            if s == 0 or (not math.isnan(fq[r])
                          and (math.isnan(vals[k]) or vals[k] < fq[r])):
                q[r], fq[r] = points[k], vals[k]
    return q, fq


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
    move within two grid steps of the current point.  This is the
    one-problem call of ``minimize_on_simplexes``: ``f_batch`` is called
    once for the grid scan (once per lattice slice of at most
    ``_SCAN_POINTS`` points of a larger grid), once per line-search round (``_LINE_ROUNDS`` per search) and
    once more to re-price an accepted move.  It must price each point
    on its own, as every oracle objective does, and leave its input
    unchanged.
    """
    q, fq = minimize_on_simplexes(
        lambda rows, qs: np.asarray(f_batch(qs[0]), dtype=float)[None, :],
        1, dim, step,
    )
    return q[0], float(fq[0])


def _power_sums(p: np.ndarray, ms: np.ndarray, av: float) -> np.ndarray:
    """Sums of p^a m^(1-a) over the cells (the last axis), straight from
    the definition.

    The rows of ``ms`` are measures on the cells; ``p`` is one measure
    on the same cells, or a stack that broadcasts against ``ms`` (one
    row per row of ``ms`` in the paired Hellinger integrals of
    ``sdpi.contraction_search``, one per problem in a stacked oracle).
    A p = 0 cell adds nothing; an m = 0 cell against p > 0 adds nothing
    below order 1 and makes its row +inf above it.
    """
    pos = p > 0
    hit = pos & (ms > 0)
    # in place: a grid of candidate rows is the largest array in the oracles
    terms = np.where(hit, ms, 1.0)
    terms **= 1.0 - av
    terms *= p**av
    terms[~hit] = 0.0
    sums = terms.sum(axis=-1)
    if av > 1:
        sums[(pos & ~hit).any(axis=-1)] = math.inf
    return sums


def _renyi_from_sums(sums: np.ndarray, av: float) -> np.ndarray:
    """(1/(a-1)) log of power sums; an empty (zero) sum is +inf."""
    out = np.full(sums.shape, math.inf)
    ok = sums > 0
    out[ok] = np.log(sums[ok]) / (av - 1.0)
    return out


def batch_renyi_from_defs(p_flat: np.ndarray, ms: np.ndarray, av: float):
    """Order-av divergence of a fixed p against a batch of measures.

    Plain power sums straight from the definition (no log-space tricks,
    no closed forms): rows of ``ms`` (along its last axis) are candidate
    measures on the same cells as ``p_flat``, which may also be a stack
    that broadcasts against ``ms``.
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


def _one_shape(joints) -> tuple[list[Joint3], tuple[int, int, int]]:
    joints = list(joints)
    if not joints:
        raise ValidationError("the batched oracles need at least one joint")
    shapes = sorted({j.shape for j in joints})
    if len(shapes) > 1:
        # stacks of one cell count keep each row's sum in the order of a
        # single call: numpy's pairwise summation regroups padded rows
        raise ValidationError(f"the batched oracles need joints of one shape, got {shapes}")
    return joints, shapes[0]


def cond_z_oracles(joints, a, step: float | None = None):
    """``cond_z_oracle`` of every joint, minimised in lockstep.

    The joints must share one shape.  Joints with the same number of
    reachable z form one ``minimize_on_simplexes`` call, so each result
    is bit-identical to the single call.  Returns one
    ``(value, argmin_q)`` per joint, in order.
    """
    av = _finite_alpha(a)
    joints, (_, _, nz) = _one_shape(joints)
    probs, conds, idxs = [], [], []
    for j in joints:
        _, reach, _, cx, cy = j.conditionals_given_z()
        probs.append(j.probs.ravel())
        conds.append(np.einsum("zx,zy->xyz", cx, cy))
        idxs.append(np.flatnonzero(reach))
    groups: dict[int, list[int]] = {}
    for m, idx in enumerate(idxs):
        groups.setdefault(len(idx), []).append(m)
    out: list = [None] * len(joints)
    for dim, members in groups.items():
        p = np.stack([probs[m] for m in members])[:, None, :]
        cond_prod = np.stack([conds[m] for m in members])[:, None]
        idx = np.stack([idxs[m] for m in members])[:, None, :]

        def f_stack(rows, qs, p=p, cond_prod=cond_prod, idx=idx):
            full = np.zeros((*qs.shape[:2], nz))
            np.put_along_axis(full, np.broadcast_to(idx[rows], qs.shape), qs, axis=2)
            ms = cond_prod[rows] * full[:, :, None, None, :]
            return batch_renyi_from_defs(p[rows], ms.reshape(*qs.shape[:2], -1), av)

        q_r, vals = minimize_on_simplexes(
            f_stack, len(members), dim, step=_auto_step(dim, step)
        )
        for g, m in enumerate(members):
            q = np.zeros(nz)
            q[idxs[m]] = q_r[g]
            out[m] = (float(vals[g]), q)
    return out


def cond_z_oracle(j: Joint3, a, step: float | None = None):
    """min over pmfs Q on Z of D_a(P_XYZ || P_X|Z P_Y|Z x Q).

    The grid runs over the reachable-z simplex (a Q that weights an
    unreachable z can only increase the divergence for orders above 1
    and never decreases it below); returns ``(value, argmin_q)`` with
    the argmin embedded over the full Z alphabet.  The one-joint call of
    ``cond_z_oracles``.
    """
    return cond_z_oracles([j], a, step)[0]


def cond_ygz_oracles(joints, a, step: float | None = None):
    """``cond_ygz_oracle`` of every joint, minimised in lockstep.

    The joints must share one shape.  Every reachable (joint, z) block
    is one problem of a single ``minimize_on_simplexes`` call, so each
    result is bit-identical to the single call.  Returns one
    ``(value, rows)`` per joint, in order.
    """
    av = _finite_alpha(a)
    joints, (_, ny, nz) = _one_shape(joints)
    sign = 1.0 if av > 1 else -1.0
    p_blocks, bases, reaches = [], [], []
    for j in joints:
        pz, reach, _, cx, _ = j.conditionals_given_z()
        reaches.append(reach)
        for z in np.flatnonzero(reach):
            p_blocks.append(j.probs[:, :, z].ravel())
            bases.append(cx[z][:, None] * pz[z])  # P(x|z) P_Z(z), broadcast over y
    p = np.stack(p_blocks)[:, None, :]
    base = np.stack(bases)[:, None]

    def f_stack(rows, qs):
        ms = base[rows] * qs[:, :, None, :]
        return sign * _power_sums(p[rows], ms.reshape(*qs.shape[:2], -1), av)

    q_b, s_b = minimize_on_simplexes(f_stack, len(p_blocks), ny, step=_auto_step(ny, step))
    out, first = [], 0
    for reach in reaches:
        idx = np.flatnonzero(reach)
        kernel_rows = np.zeros((nz, ny))
        block_sums = np.zeros(nz)
        kernel_rows[idx] = q_b[first:first + len(idx)]
        block_sums[idx] = sign * s_b[first:first + len(idx)]
        first += len(idx)
        total = block_sums[reach].sum()
        value = math.log(total) / (av - 1.0) if total > 0 else math.inf
        out.append((value, kernel_rows))
    return out


def cond_ygz_oracle(j: Joint3, a, step: float | None = None):
    """min over kernels Q(.|z) of D_a(P_XYZ || P_X|Z Q_Y|Z P_Z).

    The defining sum splits as (1/(a-1)) log of a sum of nonnegative
    per-z blocks, each depending only on its own row Q(.|z), so the rows
    can be optimised independently: minimise each block for orders above
    1, maximise for orders below 1.  Returns ``(value, rows)``.  The
    one-joint call of ``cond_ygz_oracles``, so its z blocks are already
    minimised in lockstep.
    """
    return cond_ygz_oracles([j], a, step)[0]


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
