"""Contraction behaviour of the order-a Hellinger integral under a
Markov kernel, and the additive strong-data-processing checks it feeds.

Two ratio functionals are tracked.  The literal ratio
H_a(K mu || K nu) / H_a(mu || nu) has supremum exactly 1 for every
kernel: for a > 1 the Hellinger integral is an f-divergence with f
convex, so H_a(K mu || K nu) <= H_a(mu || nu) by data processing, and
both sides tend to 1 (the integral of two equal measures) as mu -> nu.
The normalised variant subtracts that baseline from numerator and
denominator and is the usual f-divergence contraction coefficient.  Both
are reported.

The additive inequalities below consume the searched *lower* bound of
the literal ratio, so log(eta)/(a-1) <= 0 and they test plain data
processing made stricter by the search shortfall 1 - eta.  A pass
certifies the inequality on the instance; a failure can be that
shortfall rather than a violated inequality (``sdpi.unconditional_chain``
in the selftest battery fails this way at seeds 8, 26, 92, 202 and
400).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CELL_CAP, MARKOV_TOL, Alpha, Joint2, Joint4, Kernel
from .errors import (
    InequalityViolation,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .oracles import _power_sums
from .sibson import cond_sibson_z, sibson_mi

CHECK_TOL = 1e-9
_ASCENT_FLOOR = 1e-9  # keep ascent iterates strictly inside the simplex


@dataclass(frozen=True, eq=False)
class ContractionEstimate:
    """Best ratio values found by seeded search (lower bounds on the sups)."""

    alpha: Alpha
    eta_normalized: float
    eta_ratio_lower: float
    witness_normalized: tuple[np.ndarray, np.ndarray]
    witness_ratio: tuple[np.ndarray, np.ndarray]
    budget: int
    seed: int
    ascent_sweeps: int = 0  # lockstep ascent iterations run
    discarded: int = 0  # sampled pairs dropped as not distinct


def _pair_values(rows: np.ndarray, mus, nus, av):
    # a cell whose m^(1-a) overflows against an underflowing p^a makes
    # its sum NaN; _scored then counts the pair as unscored
    with np.errstate(over="ignore", invalid="ignore"):
        d_in = _power_sums(mus, nus, av)
        d_out = _power_sums(mus @ rows, nus @ rows, av)
    return d_in, d_out


def _literal(d_in, d_out):
    with np.errstate(invalid="ignore"):
        r = np.where(np.isinf(d_in), 0.0, d_out / d_in)
    return r


def _normalized(d_in, d_out):
    # numerators below 1e-13 are float junk (the integrals are O(1) sums),
    # and denominators below 1e-6 would let that junk masquerade as
    # contraction; both cutoffs only ever shrink the reported lower bound
    num = np.maximum(d_out - 1.0, 0.0)
    num = np.where(num < 1e-13, 0.0, num)
    den = d_in - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(den > 1e-6, num / den, -math.inf)
    return r


def _scored(r):
    # a NaN score (see _pair_values) is unscored: below every scored pair
    r[np.isnan(r)] = -math.inf
    return r


def _sampled_starts(k: Kernel, av: float, budget: int, seed: int):
    """One kernel's sampling pass, reduced to what the ascent needs.

    Returns the ascent starts as ``mu`` and ``nu`` rows (the ten best
    pairs of the literal ratio, then the ten best of the normalised
    one), a mask of the literal-ratio starts, both sampled maxima and
    the discarded count; the ``budget`` sampled pairs themselves are
    dropped on return.
    """
    d = len(k.in_labels)
    rng = np.random.default_rng(seed)
    mus = rng.dirichlet(np.ones(d), size=budget)
    nus = rng.dirichlet(np.ones(d), size=budget)
    distinct = np.max(np.abs(mus - nus), axis=1) > 1e-12
    mus, nus = mus[distinct], nus[distinct]
    d_in, d_out = _pair_values(k.rows, mus, nus, av)
    lit = _scored(_literal(d_in, d_out))
    norm = _scored(_normalized(d_in, d_out))
    top_lit, top_norm = np.argsort(lit)[-10:], np.argsort(norm)[-10:]
    top = np.concatenate((top_lit, top_norm))
    return (
        mus[top],
        nus[top],
        np.arange(len(top)) < len(top_lit),
        float(np.max(lit, initial=0.0)),
        float(np.max(norm, initial=0.0)),
        budget - len(mus),
    )


def contraction_search(
    k: Kernel, a, budget: int = 10_000, seed: int = 0
) -> ContractionEstimate:
    """Seeded random search plus coordinate ascent over input pairs.

    Maximises both ratio functionals over (mu, nu) on the input simplex
    and returns the best values found together with the witness pairs.
    The results are lower bounds on the respective suprema and are
    bit-for-bit reproducible for a given seed and budget.  This is
    ``contraction_searches`` on one kernel; see there for the method.
    """
    return contraction_searches([k], a, budget, [seed])[0]


def contraction_searches(
    kernels, a, budget: int, seeds
) -> list[ContractionEstimate]:
    """``contraction_search`` on several kernels of one (d, m) shape at once.

    Estimate i is bit-identical in every field to
    ``contraction_search(kernels[i], a, budget, seeds[i])``.  Each kernel
    has its own sampling pass: ``budget`` Dirichlet pairs seeded by its
    seed, scored in one vectorised pass, of which only the ten best
    pairs of each functional (the ascent starts), the two sampled maxima
    and the discarded count are kept, so memory stays at one search's
    worth.  All kernels' starts then run one coordinate ascent in
    lockstep: every move (side mu then nu, coordinate, sign + then -) is
    one array evaluation, and each start takes it only where it improves
    its own value by more than 1e-15, so every start follows the moves
    it would follow alone.  Each start pushes its inputs through its own
    kernel as a stacked (1, d) @ (d, m) product, since a (B, d) @ (d, m)
    product can round differently and the witnesses must not depend on
    the batch.
    A kernel's ``ascent_sweeps`` counts the sweeps in which it still had
    a live start (one that improved in every sweep before).
    budget * max(d, m) above DEFAULT_CELL_CAP raises ResourceLimitError
    before sampling, so neither the sampled inputs nor their images pass
    the cap.
    """
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("contraction search needs a finite order > 1")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    kernels, seeds = list(kernels), list(seeds)
    if len(seeds) != len(kernels):
        raise ValidationError(
            f"{len(kernels)} kernels need as many seeds, got {len(seeds)}"
        )
    if not kernels:
        return []
    shape = kernels[0].rows.shape
    if any(k.rows.shape != shape for k in kernels):
        raise ValidationError("batched contraction searches need one kernel shape")
    if not all(np.all(k.reachable) for k in kernels):
        raise ValidationError("contraction search needs fully reachable rows")
    av = a.value
    d, m = shape
    if budget * max(d, m) > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"budget {budget} over {d} inputs and {m} outputs passes the "
            f"{DEFAULT_CELL_CAP}-cell cap"
        )
    mus, nus, lit_rows, lit_maxes, norm_maxes, discards = zip(
        *(_sampled_starts(k, av, budget, s) for k, s in zip(kernels, seeds))
    )
    mu, nu, lit_row = map(np.concatenate, (mus, nus, lit_rows))
    owner = np.repeat(np.arange(len(kernels)), [len(r) for r in lit_rows])
    per_row = np.stack([k.rows for k in kernels])[owner]

    def through(rows, x):
        return (x[:, None] @ per_row[rows])[:, 0]

    def score(rows, mu_b, nu_b):
        # stacked matrix-vector products, not one matrix product (see above)
        d_i = _power_sums(mu_b, nu_b, av)
        d_o = _power_sums(through(rows, mu_b), through(rows, nu_b), av)
        return np.where(lit_row[rows], _literal(d_i, d_o), _normalized(d_i, d_o))

    # NaN scores count as unscored (see _pair_values), so the warnings
    # that come with them are noise.  A NaN trial is never taken, like a
    # -inf one, so only the starting values need the mask.
    with np.errstate(over="ignore", invalid="ignore"):
        val = _scored(score(slice(None), mu, nu))
        live = np.ones(len(val), dtype=bool)
        sweeps = np.zeros(len(kernels), dtype=int)
        sweep = 0
        while sweep < 100 and live.any():
            delta = (0.1, 0.03, 0.01, 0.003, 0.001)[min(sweep // 20, 4)]
            sweep += 1
            rows = np.flatnonzero(live)
            sweeps[owner[rows]] = sweep  # live now means live in every sweep before
            improved = np.zeros(len(rows), dtype=bool)
            for side in (mu, nu):
                for i in range(d):
                    for step in (delta, -delta):
                        cand = side[rows]
                        cand[:, i] = np.maximum(cand[:, i] + step, _ASCENT_FLOOR)
                        cand /= cand.sum(axis=1, keepdims=True)
                        if side is mu:
                            trial = score(rows, cand, nu[rows])
                        else:
                            trial = score(rows, mu[rows], cand)
                        take = trial > val[rows] + 1e-15
                        side[rows[take]] = cand[take]
                        val[rows[take]] = trial[take]
                        improved |= take
            live[rows] = improved

    def best(rows):
        best_val, best_pair = -math.inf, None
        for r in rows:
            if val[r] > best_val:
                best_val, best_pair = float(val[r]), (mu[r].copy(), nu[r].copy())
        return best_val, best_pair

    out = []
    for i, (seed, lit_max, norm_max, discarded) in enumerate(
        zip(seeds, lit_maxes, norm_maxes, discards)
    ):
        mine = owner == i
        lit_best, lit_wit = best(np.flatnonzero(mine & lit_row))
        norm_best, norm_wit = best(np.flatnonzero(mine & ~lit_row))
        out.append(
            ContractionEstimate(
                alpha=a,
                eta_normalized=max(norm_best, norm_max, 0.0),
                eta_ratio_lower=max(lit_best, lit_max),
                witness_normalized=norm_wit,
                witness_ratio=lit_wit,
                budget=budget,
                seed=seed,
                ascent_sweeps=int(sweeps[i]),
                discarded=discarded,
            )
        )
    return out


def _log_eta(est: ContractionEstimate, a: Alpha) -> float:
    # at a large enough order the sampled integrals overflow and leave
    # no usable estimate (0 or +inf); say so instead of failing in math.log
    eta = est.eta_ratio_lower
    if not 0.0 < eta < math.inf:
        raise ValidationError(
            f"the contraction estimate at order {a} is {eta!r}, not a "
            "positive finite number; the order is too large for the search"
        )
    return math.log(eta)


def _additive_check(what: str, a, est: ContractionEstimate, measure, joints):
    """The shared body of the two additive checks: ``joints()`` checks the
    caller's preconditions after the order check and returns the joints
    whose measures make lhs and rhs."""
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("the additive inequality needs a finite order > 1")
    smaller, larger = joints()
    log_eta = _log_eta(est, a)
    lhs = measure(smaller, a).value_nats
    rhs = log_eta / (a.value - 1.0) + measure(larger, a).value_nats
    if lhs > rhs + CHECK_TOL:
        raise InequalityViolation(
            f"{what} contraction check failed: {lhs!r} > {rhs!r} + {CHECK_TOL}"
        )
    return lhs, rhs


def sdpi_conditional_check(
    j4: Joint4, a, est: ContractionEstimate
) -> tuple[float, float]:
    """Additive contraction inequality on a (Z,W) - X - Y chain.

    Checks I^Z(W,Y|Z) <= log(eta)/(a-1) + I^Z(W,X|Z) with eta the
    searched lower bound for the X -> Y channel's literal ratio (so data
    processing tightened by the search shortfall; see the module notes).
    Raises InequalityViolation beyond 1e-9, else returns ``(lhs, rhs)``.
    """

    def joints():
        if not j4.is_markov_zw_x_y():
            raise PreconditionError(
                f"joint does not factor as P(w,x,z) P(y|x) within {MARKOV_TOL}"
            )
        return j4.marginal_wyz(), j4.marginal_wxz()

    return _additive_check("conditional", a, est, cond_sibson_z, joints)


def sdpi_unconditional_check(
    jxy: Joint2, channel_wx: Kernel, a, est: ContractionEstimate
) -> tuple[float, float]:
    """Additive contraction inequality along the chain W - X - Y.

    W is generated from X through ``channel_wx`` (so the chain holds by
    construction); checks I_a(W,Y) <= log(eta)/(a-1) + I_a(X,Y) with
    eta the searched lower bound for that channel's literal ratio, like
    ``sdpi_conditional_check``.
    """

    def joints():
        if channel_wx.in_labels != jxy.x_labels:
            raise PreconditionError("channel input alphabet must be the X axis")
        px = jxy.probs.sum(axis=1)
        if np.any((px > 0) & ~channel_wx.reachable):
            raise ValidationError("joint puts mass on an unreachable channel row")
        p_wy = np.einsum("xy,xw->wy", jxy.probs, channel_wx.rows)
        return Joint2(channel_wx.out_labels, jxy.y_labels, p_wy), jxy

    return _additive_check("unconditional", a, est, sibson_mi, joints)
