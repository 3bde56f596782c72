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
in the selftest battery fails this way at seeds 8, 202 and 400).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CELL_CAP, Alpha, Joint2, Joint4, Kernel
from .errors import (
    InequalityViolation,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
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


def _hellinger_rows(ps: np.ndarray, qs: np.ndarray, av: float) -> np.ndarray:
    """Row-wise sum p^a q^(1-a) with the usual zero conventions."""
    pos = ps > 0
    bad = pos & (qs <= 0)
    safe = np.where(qs > 0, qs, 1.0)
    terms = np.where(pos, ps**av * safe ** (1.0 - av), 0.0)
    terms = np.where(bad, 0.0, terms)
    out = terms.sum(axis=1)
    if av > 1:
        out[bad.any(axis=1)] = math.inf
    return out


def _pair_values(rows: np.ndarray, mus, nus, av):
    d_in = _hellinger_rows(mus, nus, av)
    d_out = _hellinger_rows(mus @ rows, nus @ rows, av)
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


def contraction_search(
    k: Kernel, a, budget: int = 10_000, seed: int = 0
) -> ContractionEstimate:
    """Seeded random search plus coordinate ascent over input pairs.

    Maximises both ratio functionals over (mu, nu) on the input simplex
    and returns the best values found together with the witness pairs.
    The results are lower bounds on the respective suprema and are
    bit-for-bit reproducible for a given seed and budget.  ``budget``
    Dirichlet pairs are scored in one vectorised pass; the ten best
    pairs of each functional then start a coordinate ascent.  All starts
    run as one batch in lockstep: every move (side mu then nu,
    coordinate, sign + then -) is one array evaluation, and each start
    takes it only where it improves its own value by more than 1e-15, so
    every start follows the moves it would follow alone.  The batch
    pushes each input through the kernel as a stacked (1, d) @ (d, m)
    product, since a (B, d) @ (d, m) product can round differently and
    the witnesses must not depend on the batch.  budget * max(d, m)
    above DEFAULT_CELL_CAP raises ResourceLimitError before sampling, so
    neither the sampled inputs nor their images pass the cap.
    """
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("contraction search needs a finite order > 1")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    if not np.all(k.reachable):
        raise ValidationError("contraction search needs fully reachable rows")
    av = a.value
    d, m = len(k.in_labels), len(k.out_labels)
    if budget * max(d, m) > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"budget {budget} over {d} inputs and {m} outputs passes the "
            f"{DEFAULT_CELL_CAP}-cell cap"
        )
    rng = np.random.default_rng(seed)
    mus = rng.dirichlet(np.ones(d), size=budget)
    nus = rng.dirichlet(np.ones(d), size=budget)
    distinct = np.max(np.abs(mus - nus), axis=1) > 1e-12
    mus, nus = mus[distinct], nus[distinct]
    d_in, d_out = _pair_values(k.rows, mus, nus, av)
    lit = _literal(d_in, d_out)
    norm = _normalized(d_in, d_out)

    top_lit, top_norm = np.argsort(lit)[-10:], np.argsort(norm)[-10:]
    top = np.concatenate((top_lit, top_norm))
    lit_row = np.arange(len(top)) < len(top_lit)
    mu, nu = mus[top], nus[top]

    def score(rows, mu_b, nu_b):
        # stacked matrix-vector products, not one matrix product (see above)
        d_i = _hellinger_rows(mu_b, nu_b, av)
        d_o = _hellinger_rows(
            (mu_b[:, None] @ k.rows)[:, 0], (nu_b[:, None] @ k.rows)[:, 0], av
        )
        return np.where(lit_row[rows], _literal(d_i, d_o), _normalized(d_i, d_o))

    val = score(slice(None), mu, nu)
    live = np.ones(len(val), dtype=bool)
    sweeps = 0
    while sweeps < 100 and live.any():
        delta = (0.1, 0.03, 0.01, 0.003, 0.001)[min(sweeps // 20, 4)]
        sweeps += 1
        rows = np.flatnonzero(live)
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

    lit_best, lit_wit = best(np.flatnonzero(lit_row))
    norm_best, norm_wit = best(np.flatnonzero(~lit_row))
    lit_best = max(lit_best, float(np.max(lit, initial=0.0)))
    norm_best = max(norm_best, float(np.max(norm, initial=0.0)), 0.0)
    return ContractionEstimate(
        alpha=a,
        eta_normalized=norm_best,
        eta_ratio_lower=lit_best,
        witness_normalized=norm_wit,
        witness_ratio=lit_wit,
        budget=budget,
        seed=seed,
        ascent_sweeps=sweeps,
        discarded=int(np.count_nonzero(~distinct)),
    )


def sdpi_conditional_check(
    j4: Joint4, a, est: ContractionEstimate
) -> tuple[float, float]:
    """Additive contraction inequality on a (Z,W) - X - Y chain.

    Checks I^Z(W,Y|Z) <= log(eta)/(a-1) + I^Z(W,X|Z) with eta the
    searched lower bound for the X -> Y channel's literal ratio.  That
    ratio's supremum is 1, so this is data processing tightened by the
    search shortfall, not a strong data-processing inequality.  Raises
    InequalityViolation beyond 1e-9, otherwise returns ``(lhs, rhs)``.
    """
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("the additive inequality needs a finite order > 1")
    if not j4.is_markov_zw_x_y(1e-10):
        raise PreconditionError(
            "joint does not factor as P(w,x,z) P(y|x) within 1e-10"
        )
    lhs = cond_sibson_z(j4.marginal_wyz(), a).value_nats
    rhs = math.log(est.eta_ratio_lower) / (a.value - 1.0) + cond_sibson_z(
        j4.marginal_wxz(), a
    ).value_nats
    if lhs > rhs + CHECK_TOL:
        raise InequalityViolation(
            f"conditional contraction check failed: {lhs!r} > {rhs!r} + {CHECK_TOL}"
        )
    return lhs, rhs


def sdpi_unconditional_check(
    jxy: Joint2, channel_wx: Kernel, a, est: ContractionEstimate
) -> tuple[float, float]:
    """Additive contraction inequality along the chain W - X - Y.

    W is generated from X through ``channel_wx`` (so the chain holds by
    construction); checks I_a(W,Y) <= log(eta)/(a-1) + I_a(X,Y) with
    eta the searched lower bound for that channel's literal ratio.  That
    ratio's supremum is 1, so this is data processing tightened by the
    search shortfall, not a strong data-processing inequality.  Raises
    InequalityViolation beyond 1e-9, otherwise returns ``(lhs, rhs)``.
    """
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("the additive inequality needs a finite order > 1")
    if channel_wx.in_labels != jxy.x_labels:
        raise PreconditionError("channel input alphabet must be the X axis")
    px = jxy.probs.sum(axis=1)
    if np.any((px > 0) & ~channel_wx.reachable):
        raise ValidationError("joint puts mass on an unreachable channel row")
    p_wy = np.einsum("xy,xw->wy", jxy.probs, channel_wx.rows)
    jwy = Joint2(channel_wx.out_labels, jxy.y_labels, p_wy)
    lhs = sibson_mi(jwy, a).value_nats
    rhs = math.log(est.eta_ratio_lower) / (a.value - 1.0) + sibson_mi(
        jxy, a
    ).value_nats
    if lhs > rhs + CHECK_TOL:
        raise InequalityViolation(
            f"unconditional contraction check failed: {lhs!r} > {rhs!r} + {CHECK_TOL}"
        )
    return lhs, rhs
