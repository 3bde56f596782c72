"""Composite hypothesis testing: iid triples from the joint (null)
against iid triples from Q_Z P(x|z) P(y|z) with Q_Z arbitrary
(alternative).

The per-symbol statistic is log(P(x,y|z) / (P(x|z) P(y|z))): it is free
of Q_Z, so one deterministic threshold test covers the whole composite
alternative.  The test decides the alternative when the score sum falls
below n tau.  Small n is exact by the method of types over z: given the
z-type m of a sequence its score sum is free of Q_Z, so an error
probability is sum_m Mult(n; m) prod_z Q_Z(z)^m_z g(m), with one tail
table g per test from per-z convolution powers and one matrix product
per Q_Z grid.  Score sums merge on a 1e-9 lattice but keep unquantised
representatives, which decide their side of n tau.  Larger n is seeded
Monte Carlo.  The worst-case type-2 rate is certified on a Q_Z grid
(plus the point P_Z) over the reachable-z simplex; a grid can only
over-state the rate, so the certified claim keeps a 1e-3 margin below
the grid minimum, labelled per fixed n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CHECK_TOL,
    DEFAULT_CELL_CAP,
    Alpha,
    Joint3,
    _alphabet,
    _as_array,
    _check_mass,
    _order,
    _same_alphabet,
)
from .errors import (
    InequalityViolation,
    ResourceLimitError,
    ShapeMismatchError,
    ValidationError,
)
from .oracles import simplex_grid
from .sibson import cond_sibson_z, cond_sibson_z_values

SCORE_QUANT = 1e-9  # scores are pooled on this lattice before convolution
STATE_CAP = 10**6
_LOG_MULT_CAP = 700.0  # n log k >= log Mult(n; m); float max is e^709.78
EXACT_DP = "EXACT_DP"
MONTE_CARLO = "MONTE_CARLO"
RATE_MARGIN = 1e-3
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True, eq=False)
class ThresholdTest:
    """Per-triple score table with an acceptance threshold.

    Decides the alternative exactly when the n-symbol score sum is
    below n * tau.  Scores are -inf off the support of P(.,.|z), which
    is where only the alternative can put mass.
    """

    scores: np.ndarray  # (nx, ny, nz), read-only, -inf allowed
    tau: float
    n: int


def threshold_test(j: Joint3, tau: float, n: int) -> ThresholdTest:
    """Build the Q_Z-free log-ratio test for a joint."""
    if n < 1:
        raise ValidationError(f"sample length must be >= 1, got {n}")
    if math.isnan(tau):
        raise ValidationError("threshold tau must be a number or +-inf, got nan")
    s = j._z_structure()
    scores = np.empty(j.shape)
    for b in s.blocks():
        cxy = s.cxy_block(b)
        by_z = s.ratio_block(b, cxy, log=True)
        by_z[cxy == 0] = -math.inf
        scores[:, :, b] = np.moveaxis(by_z, 0, 2)
    scores.flags.writeable = False
    return ThresholdTest(scores=scores, tau=float(tau), n=int(n))


@dataclass(frozen=True)
class QzRow:
    """Type-2 behaviour of one alternative on the grid."""

    qz: tuple[float, ...]
    type2: float
    rate: float
    halfwidth: float = 0.0


@dataclass(frozen=True, eq=False)
class ErrorReport:
    p1: float
    p2_worst: float
    rate_R: float
    method: str
    n: int
    seed: int | None = None
    p1_halfwidth: float = 0.0
    qz_table: tuple[QzRow, ...] = ()
    tie_mass: float = 0.0  # exact path: mass within n SCORE_QUANT of n tau


def _add(a, b, cap: int):
    """Sum of two independent score sums; a lattice key's first state leads."""
    if a[0].size * b[0].size > cap:
        raise ResourceLimitError("score-sum tables exceeded the state cap")
    keys = (a[0][:, None] + b[0]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = (a[1][:, None] + b[1]).ravel()[order][first]
    mass = np.add.reduceat((a[2][:, None] * b[2]).reshape(-1, 2)[order], first)
    return keys[first], sums, mass


def _type_tails(j: Joint3, test: ThresholdTest, cap: int):
    """The z-types m of n symbols and their tails g(m): alternative
    P(x|z) P(y|z) mass at or above n tau and within n SCORE_QUANT of it,
    null P(x,y|z) mass below n tau and within n SCORE_QUANT of it."""
    if np.any((j.probs > 0) & ~np.isfinite(test.scores)):
        raise ValidationError("null distribution puts mass off its own product support")
    g = j._z_structure()
    n, k = test.n, int(np.count_nonzero(g.reach))
    if math.comb(n + k - 1, k - 1) > cap or n * math.log(k) > _LOG_MULT_CAP:
        raise ResourceLimitError(f"n={n} passes the {cap}-type or float-weight cap")
    powers, budget = [], cap  # the power tables of all z share one cap
    for z in np.flatnonzero(g.reach):
        s = test.scores[:, :, z]
        cxy = g.cxy_block(slice(z, z + 1))[0]
        mass = np.stack([cxy, np.outer(g.cx[z], g.cy[z])], axis=-1)
        cell = np.isfinite(s) & (mass > 0).any(axis=-1)
        base = (np.round(s[cell] / SCORE_QUANT).astype(np.int64), s[cell], mass[cell])
        table = [(np.zeros(1, np.int64), np.zeros(1), np.ones((1, 2)))]
        for _ in range(n):
            table.append(_add(table[-1], base, budget))
            budget -= table[-1][0].size
        powers.append(table)
    combos = itertools.combinations_with_replacement(range(k), n)
    types = np.array([np.bincount(c, minlength=k) for c in combos])
    tails = np.empty((len(types), 4))
    for t, m in enumerate(types):
        parts = [powers[i][c] for i, c in enumerate(m) if c]
        _, sums, mass = functools.reduce(lambda a, b: _add(a, b, cap), parts)
        gap = sums - n * test.tau
        tie = np.abs(gap) <= n * SCORE_QUANT
        tails[t] = (mass[gap >= 0, 1].sum(), mass[tie, 1].sum(),
                    mass[gap < 0, 0].sum(), mass[tie, 0].sum())
    return types, tails


def _type_weights(qz: np.ndarray, types: np.ndarray) -> np.ndarray:
    """Mult(n; m) prod_z qz(z)^m_z for every row of qz and every type m."""
    fact = [math.factorial(c) for c in range(int(types[0].sum()) + 1)]
    mult = [fact[-1] // math.prod(fact[c] for c in m) for m in types.tolist()]
    return np.array(mult, dtype=float) * np.prod(qz[:, None, :] ** types, axis=2)


def _qz_grid(j: Joint3, step: float):
    """Grid over the reachable-z simplex, embedded, plus the point P_Z."""
    s = j._z_structure()
    idx = np.flatnonzero(s.reach)
    grid_r = simplex_grid(len(idx), step)
    grid = np.zeros((grid_r.shape[0] + 1, j.shape[2]))
    grid[:-1, idx] = grid_r
    grid[-1] = s.pz
    return grid


def _alternative(j: Joint3, qz) -> np.ndarray:
    """``qz`` as a Q_Z of ``j``'s alternative: one entry per z symbol, on
    ``j``'s z labels if it carries labels (else ``ShapeMismatchError``), a
    pmf with no mass on an unreachable z (else ``ValidationError``)."""
    q, nz = _as_array(qz), j.shape[2]
    if q.shape != (nz,):
        raise ShapeMismatchError(f"Q_Z needs {nz} entries, one per z symbol, got {q.shape}")
    _same_alphabet(_alphabet(qz), (j.z_labels,))
    _check_mass(q, "Q_Z")
    if np.any((q > 0) & ~j._z_structure().reach):
        raise ValidationError(
            "alternative weights a z symbol with no conditional structure"
        )
    return q


def _check_test(j: Joint3, test: ThresholdTest) -> None:
    if test.scores.shape != j.shape:
        raise ShapeMismatchError("score table does not match the joint shape")


def exact_errors(
    j: Joint3,
    test: ThresholdTest,
    qz_grid_step: float = 0.01,
    state_cap: int = STATE_CAP,
) -> ErrorReport:
    """Exact error probabilities by the method of types over z.

    ``p1`` is the null mass of score sums below n tau, at Q_Z = P_Z; each
    grid row's type-2 error is the alternative mass at or above n tau (a
    symbol off the null support scores -inf and is always rejected).
    ``rate_R`` is the grid minimum of -(1/n) log type2.  ``tie_mass`` is
    the largest mass, null or any row, within n SCORE_QUANT of n tau.
    ``state_cap`` bounds the z-types, the per-z power tables together and
    each sum table, checked before allocating; past it ResourceLimitError.
    """
    _check_test(j, test)
    n, tau = test.n, test.tau
    typed = None if math.isinf(tau) else _type_tails(j, test, state_cap)
    grid = _qz_grid(j, qz_grid_step)
    if typed is None:
        p1, tie_mass = float(tau > 0), 0.0
        type2 = np.full(len(grid), 1.0 - p1)
    else:
        types, tails = typed
        qz = grid[:, j._z_structure().reach]
        cols = max(1, state_cap // qz.size)
        out = sum(_type_weights(qz, types[s : s + cols]) @ tails[s : s + cols]
                  for s in range(0, len(types), cols))
        # P_Z is the last grid row
        p1, tie_mass = min(out[-1, 2], 1.0), max(out[:, 1].max(), out[-1, 3])
        type2 = np.clip(out[:, 0], 0.0, 1.0)
    rows = [QzRow(qz=tuple(float(v) for v in qz), type2=t2, rate=_rate(t2, n))
            for qz, t2 in zip(grid, type2.tolist())]
    return ErrorReport(
        p1=float(p1),
        p2_worst=max(r.type2 for r in rows),
        rate_R=min(r.rate for r in rows),
        method=EXACT_DP,
        n=n,
        qz_table=tuple(rows),
        tie_mass=float(tie_mass),
    )


def _rate(type2: float, n: int) -> float:
    """-(1/n) log type2: 0 (never -0) for a type-2 error of 1, +inf for 0."""
    return 0.0 if type2 >= 1.0 else (math.inf if type2 <= 0 else -math.log(type2) / n)


def _agresti_coull_halfwidth(successes: float, trials: int) -> float:
    z2 = _Z95 * _Z95
    n_t = trials + z2
    p_t = (successes + z2 / 2.0) / n_t
    return _Z95 * math.sqrt(p_t * (1.0 - p_t) / n_t)


def monte_carlo_errors(
    j: Joint3,
    test: ThresholdTest,
    qz_list,
    trials: int,
    seed: int,
) -> ErrorReport:
    """Seeded sampling estimate of the same quantities at larger n.

    Reports point estimates with 95% binomial (Agresti-Coull)
    half-widths; identical seeds give identical reports.  Every Q_Z of
    ``qz_list`` passes ``_alternative`` and trials * n above
    DEFAULT_CELL_CAP raises ResourceLimitError, both before sampling.
    """
    _check_test(j, test)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    qzs = [_alternative(j, qz) for qz in qz_list]
    n, tau = test.n, test.tau
    if trials * n > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"{trials} trials of length {n} pass the {DEFAULT_CELL_CAP}-cell cap"
        )
    s = j._z_structure()
    rng = np.random.default_rng(seed)
    values = np.where(np.isfinite(test.scores), test.scores, -math.inf).ravel()
    cells = values.shape[0]

    def sample_sums(flat_probs: np.ndarray) -> np.ndarray:
        idx = rng.choice(cells, size=(trials, n), p=flat_probs / flat_probs.sum())
        return values[idx].sum(axis=1)

    null_sums = sample_sums(j.probs.ravel())
    p1_hits = int(np.count_nonzero(null_sums < n * tau))
    p1 = p1_hits / trials
    rows = []
    for qz_arr in qzs:
        alt_sums = sample_sums(np.einsum("zx,zy,z->xyz", s.cx, s.cy, qz_arr).ravel())
        hits = int(np.count_nonzero(alt_sums >= n * tau))
        type2 = hits / trials
        rows.append(
            QzRow(
                qz=tuple(float(v) for v in qz_arr),
                type2=type2,
                rate=_rate(type2, n),
                halfwidth=_agresti_coull_halfwidth(hits, trials),
            )
        )
    return ErrorReport(
        p1=p1,
        p2_worst=max((r.type2 for r in rows), default=0.0),
        rate_R=min((r.rate for r in rows), default=math.inf),
        method=MONTE_CARLO,
        n=n,
        seed=seed,
        p1_halfwidth=_agresti_coull_halfwidth(p1_hits, trials),
        qz_table=tuple(rows),
    )


@dataclass(frozen=True, eq=False)
class Theorem6Report:
    """Premise-conditioned decay bound on the null acceptance mass."""

    lhs: float  # 1 - p1, exact
    rhs: float  # exp(-((a-1)/a) n (R - I^Z))
    claimed_rate: float
    grid_rate: float
    certified: bool
    alpha: Alpha
    n: int
    i_alpha_z: float
    exact: ErrorReport

    @property
    def empirical_exponent(self) -> float:
        """(1/n) log(1 - p1); -inf when the null is never accepted."""
        if self.lhs <= 0:
            return -math.inf
        return math.log(self.lhs) / self.n

    @property
    def bound_exponent(self) -> float:
        """-((a-1)/a) (R - I^Z); -inf for an infinite claim."""
        if math.isinf(self.claimed_rate):
            return -math.inf
        return -_alpha_frac(self.alpha) * (self.claimed_rate - self.i_alpha_z)


def _alpha_frac(a: Alpha) -> float:
    return 1.0 if a.is_inf else (a.value - 1.0) / a.value


def _structurally_silent(test: ThresholdTest) -> bool:
    # with every finite score below tau no sequence can reach the
    # threshold, so the type-2 error is exactly 0 for every alternative
    finite = test.scores[np.isfinite(test.scores)]
    return finite.size == 0 or float(finite.max()) < test.tau


def _checked_claim(claimed_rate) -> float | None:
    """The claimed rate as a float (None stays None); NaN raises
    ValidationError."""
    if claimed_rate is None:
        return None
    claimed = float(claimed_rate)
    if math.isnan(claimed):
        raise ValidationError("the claimed rate must be a number, got nan")
    return claimed


def _decay_report(
    test: ThresholdTest, a: Alpha, er: ErrorReport, i_z: float, claimed_rate
) -> Theorem6Report:
    """The decay bound at one order from the exact errors and I^Z.

    Without a claim, the claim is the grid rate minus the margin, or
    +inf when the grid rate is infinite.  A structurally silent test is
    always certified; an infinite grid rate without that proof never
    is, since exact zeros on the grid do not extrapolate off it.  A NaN
    claim raises ValidationError.
    """
    silent = _structurally_silent(test)
    grid_rate = er.rate_R
    unbounded = silent or math.isinf(grid_rate)
    claimed = _checked_claim(claimed_rate)
    if claimed is None:
        claimed = math.inf if unbounded else grid_rate - RATE_MARGIN
    if unbounded:
        certified = silent
    else:
        certified = claimed > 0 and grid_rate >= claimed + RATE_MARGIN - 1e-15
    frac = _alpha_frac(a)
    try:
        rhs = 0.0 if math.isinf(claimed) else math.exp(-frac * test.n * (claimed - i_z))
    except OverflowError:  # a claim far below I^Z: the bound is vacuous
        rhs = math.inf
    return Theorem6Report(
        lhs=1.0 - er.p1,
        rhs=rhs,
        claimed_rate=claimed,
        grid_rate=grid_rate,
        certified=certified,
        alpha=a,
        n=test.n,
        i_alpha_z=i_z,
        exact=er,
    )


def _cond_z_at(j: Joint3, alphas: list[Alpha]) -> list[float]:
    """I^Z at each order, the finite ones priced in one grid call."""
    finite = iter(cond_sibson_z_values(j, [a for a in alphas if a.is_finite]).tolist())
    return [next(finite) if a.is_finite else cond_sibson_z(j, a).value_nats
            for a in alphas]


def theorem6_check(
    j: Joint3,
    test: ThresholdTest,
    a,
    qz_grid_step: float = 0.01,
    claimed_rate: float | None = None,
) -> Theorem6Report:
    """Check 1 - p1 <= exp(-((a-1)/a) n (R - I^Z(X,Y|Z))) at one order:
    the one-order call of ``theorem6_checks``.

    The premise (type-2 error <= exp(-nR) for every alternative) is
    certified only when the grid minimum rate exceeds the claimed R by
    the 1e-3 margin, or when no finite score reaches the threshold at
    all (then the type-2 error vanishes identically).  Uncertified
    reports carry no assertion.  With ``claimed_rate=None`` the claim is
    the grid rate minus the margin.  Raises InequalityViolation if a
    certified check fails beyond 1e-9, or has a NaN side.
    """
    return theorem6_checks(j, test, [a], qz_grid_step, claimed_rate)[1][0]


def theorem6_checks(
    j: Joint3,
    test: ThresholdTest,
    alphas,
    qz_grid_step: float = 0.01,
    claimed_rate: float | None = None,
) -> tuple[ErrorReport, list[Theorem6Report]]:
    """The decay check of ``theorem6_check`` at several orders from one
    exact-error table; return that table and one report per order.

    Every order (above 1, or the sup order) and the claim (not NaN) are
    validated before anything is priced, so a bad argument raises
    ValidationError without running ``exact_errors``, which then runs
    once for all the orders, even for none; I^Z at the finite orders
    comes from one grid call.  Raises InequalityViolation at the first
    certified order whose check fails beyond 1e-9 or has a NaN side.
    """
    alphas = [_order(a, "theorem6_checks", above_one=True, sup=True) for a in alphas]
    _checked_claim(claimed_rate)
    er = exact_errors(j, test, qz_grid_step=qz_grid_step)
    reports = []
    for a, i_z in zip(alphas, _cond_z_at(j, alphas)):
        report = _decay_report(test, a, er, i_z, claimed_rate)
        if report.certified and not report.lhs <= report.rhs + CHECK_TOL:
            raise InequalityViolation(
                f"decay bound failed at n={test.n}, order {a}: "
                f"{report.lhs!r} > {report.rhs!r}"
            )
        reports.append(report)
    return er, reports


@dataclass(frozen=True)
class SweepRow:
    n: int
    alpha: Alpha
    empirical: float  # (1/n) log(1 - p1)
    bound: float  # -((a-1)/a) (R - I^Z)
    certified: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best_bound: tuple[tuple[int, float], ...]  # per n, min over the order grid


def exponent_sweep(
    j: Joint3,
    test: ThresholdTest,
    a_grid,
    n_grid,
    qz_grid_step: float = 0.01,
    claimed_rate: float | None = None,
) -> SweepResult:
    """Tabulate empirical decay exponents against the per-order bounds.

    One exact-error computation per n and one I^Z per order, the finite
    orders priced in one grid call; the order grid (finite orders above 1
    and the sup order) then prices the bound exponent
    -((a-1)/a)(R - I^Z) without asserting it.
    ``best_bound`` optimises over the grid for each n, so it is at most
    every single-order bound.
    """
    alphas = [_order(a, "exponent_sweep", above_one=True, sup=True) for a in a_grid]
    i_z = _cond_z_at(j, alphas)
    rows = []
    best = []
    for n in n_grid:
        t_n = replace(test, n=int(n))
        er = exact_errors(j, t_n, qz_grid_step=qz_grid_step)
        reports = [_decay_report(t_n, a, er, i, claimed_rate)
                   for a, i in zip(alphas, i_z)]
        rows += [SweepRow(t_n.n, r.alpha, r.empirical_exponent, r.bound_exponent,
                          r.certified) for r in reports]
        bounds = [r.bound_exponent for r in reports]
        best.append((t_n.n, min(bounds, default=math.inf)))
    return SweepResult(rows=tuple(rows), best_bound=tuple(best))
