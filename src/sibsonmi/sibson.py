"""Sibson's alpha-mutual information, the information radius, maximal
leakage, and the two conditional variants obtained by minimising the
order-alpha divergence from the joint to a Markov-product factorisation
over Q_Z or over Q_{Y|Z}.

Closed forms are evaluated in log space with max subtraction.  Each
report carries the minimising distribution, and plugging that optimiser
back into the defining divergence reproduces the reported value (the
test suite checks this to 1e-8).  Sup-order values always come from
dedicated max-based formulas, never from a large finite order, so the
limit claims stay testable instead of circular.

The measures of a ``Joint2`` are the constant-Z case of the kernel-
minimised measure, priced by its kernels on ``_one_z(jxy)``, so each
closed form is written once.  ``info_radius`` keeps a log-space form:
w_i mu_i(x) as a joint could underflow, or overflow in its total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Alpha,
    Joint2,
    Joint3,
    Kernel,
    Pmf,
    _GivenZ,
    _log,
    _order,
    _weights,
    tensor_power,
)
from .divergences import _exp, _log_hellinger_rows, _log_power_sum, _logsumexp
from .errors import ShapeMismatchError, ValidationError

UNCOND = "UNCOND"
COND_Z = "COND_Z"
COND_YGZ = "COND_YGZ"
INFO_RADIUS = "INFO_RADIUS"
LEAKAGE = "LEAKAGE"
COND_LEAKAGE = "COND_LEAKAGE"


@dataclass(frozen=True, eq=False)
class MiReport:
    """Value of one mutual-information variant plus its minimiser."""

    alpha: Alpha
    value_nats: float
    variant: str
    optimizer: Pmf | Kernel | None = None


def _finite_top(logits: np.ndarray) -> np.ndarray:
    """The maxima of ``logits`` along the last axis, which must be finite."""
    top = logits.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValidationError("cannot normalise an all-zero optimiser")
    return top


def _softmax(logits: np.ndarray) -> np.ndarray:
    """exp(logits) normalised along the last axis; -inf gets weight 0."""
    w = np.exp(logits - _finite_top(logits))
    return w / w.sum(axis=-1, keepdims=True)


def _one_z(jxy: Joint2) -> _GivenZ:
    """The structure given z of ``jxy`` read as a joint with one z symbol:
    each unconditional measure is its conditional one at constant Z."""
    return _GivenZ(jxy.probs[:, :, None])


def _cmi(s: _GivenZ) -> float:
    """I(X;Y|Z) of the structure ``s``, priced once and kept on it."""
    if s.cmi is None:

        def mi_terms(b):
            # one log-ratio array per block, then the terms in place
            cxy = s.cxy_block(b)
            terms = s.ratio_block(b, cxy, log=True)
            terms *= cxy
            return np.sum(terms, axis=(1, 2))

        s.cmi = float(np.sum(s.pz * s.per_z(mi_terms)))
    return s.cmi


def shannon_mi(jxy: Joint2) -> float:
    """Shannon mutual information of a two-way joint, in nats."""
    return _cmi(_one_z(jxy))


def conditional_mi(j: Joint3) -> float:
    """Shannon conditional mutual information I(X;Y|Z), in nats; priced
    once per joint and kept on its structure given z."""
    return _cmi(j._z_structure())


def sibson_mi(jxy: Joint2, a) -> MiReport:
    """Sibson mutual information of order a for a two-way joint.

    Finite orders use the factored form
    (a/(a-1)) log sum_y (sum_x P_X(x) P(y|x)^a)^(1/a),
    whose minimiser over output pmfs is Q(y) prop. to the inner sum to
    the power 1/a.  Order one is Shannon MI (minimiser P_Y), the sup
    order is maximal leakage.  Each is ``cond_sibson_ygz`` at constant Z.
    """
    a = Alpha.coerce(a)
    s = _one_z(jxy)
    if a.is_one:
        return MiReport(a, _cmi(s), UNCOND, Pmf(jxy.y_labels, s.cy[0]))
    if a.is_inf:
        value, rows = _leakage_parts(s)
        return MiReport(a, value, LEAKAGE, Pmf(jxy.y_labels, rows[0]))
    value, log_b = _ygz_parts(s, a.value)
    return MiReport(a, value, UNCOND, Pmf(jxy.y_labels, _softmax(log_b)[0]))


def maximal_leakage(jxy: Joint2) -> float:
    """log sum_y max over supported x of P(y|x); the sup-order limit."""
    value, _ = _leakage_parts(_one_z(jxy))
    return value


def info_radius(measures, weights, a) -> float:
    """Weighted divergence radius of a family of measures, order a > 1.

    (1/(a-1)) min over centres nu of
    log sum_i w_i exp((a-1) D_a(mu_i || nu)), in closed form by
    Sibson's identity: (a/(a-1)) log sum_x (sum_i w_i mu_i(x)^a)^(1/a),
    attained at nu prop. to the inner sum to the power 1/a.  For weights
    summing to 1 this is ``sibson_mi`` of the joint w_i mu_i(x); a total
    W adds log(W)/(a-1).  Measures are pmfs or arrays on one alphabet;
    weights pass the weights gate of ``min_weighted_radius`` too.
    """
    av = _order(a, "info_radius", above_one=True).value
    mus, w = _radius_family(measures, weights)
    log_b = _logsumexp(_log(w)[:, None] + av * _log(mus), axis=0)
    return av / (av - 1.0) * _logsumexp(log_b / av)


def _radius_family(measures, weights) -> tuple[np.ndarray, np.ndarray]:
    """The measures, each validated as a pmf, as one (n, k) array, and
    the weights."""
    pmfs = [m if isinstance(m, Pmf) else Pmf(range(np.size(m)), m) for m in measures]
    labelled = {m.labels for m in measures if isinstance(m, Pmf)}
    if len(labelled) > 1 or len({len(m) for m in pmfs}) > 1:
        raise ShapeMismatchError("need measures on one alphabet")
    return np.stack([m.probs for m in pmfs]), _weights(weights, len(pmfs))


def cond_sibson_z(j: Joint3, a) -> MiReport:
    """Conditional Sibson information minimised over the Z marginal.

    Finite orders use
    (a/(a-1)) log sum_z P_Z(z) (sum_xy P(x,y|z)^a (P(x|z)P(y|z))^(1-a))^(1/a),
    with unreachable z skipped; order one is I(X;Y|Z) with minimiser
    P_Z; the sup order is log sum_z P_Z(z) max_xy P(x,y|z)/(P(x|z)P(y|z)).
    This variant is symmetric in X and Y.
    """
    a = Alpha.coerce(a)
    s = j._z_structure()
    if a.is_one:
        return MiReport(a, conditional_mi(j), COND_Z, Pmf(j.z_labels, s.pz))
    if a.is_inf:

        def max_ratio(b):
            # max over (x, y) of P(x,y|z) / (P(x|z) P(y|z)); 0 if z is unreachable
            return s.ratio_block(b, s.cxy_block(b), log=False).max(axis=(1, 2))

        m = s.per_z(max_ratio)
        over = np.flatnonzero(np.isinf(m))
        if not len(over):
            value = float(np.log(np.dot(s.pz, m)))
            q = s.pz * m
            return MiReport(a, value, COND_Z, Pmf(j.z_labels, q / q.sum()))
        # a ratio past the float range: the sum in log space, with those
        # z's maxima taken over their log-ratios on the support of P(.,.|z)
        logits = s.lpz + _log(m)
        cxy = s.cxy_block(over)
        lr = s.ratio_block(over, cxy, log=True)
        logits[over] = s.lpz[over] + lr.max(axis=(1, 2), initial=-math.inf, where=cxy > 0)
        return MiReport(a, _logsumexp(logits), COND_Z, Pmf(j.z_labels, _softmax(logits)))
    logits, values = _cond_z_grid(s, np.array([a.value]))
    return MiReport(a, float(values[0]), COND_Z, Pmf(j.z_labels, _softmax(logits[0])))


def _cond_z_grid(s, avs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finite-order closed form of ``cond_sibson_z`` at every order
    of ``avs``: the (orders, z) optimiser logits and the values.

    z goes in the blocks of ``s.per_z``, each block's log P(.,.|z) taken
    once, and within a block the orders go in chunks of
    ``s.orders_per_chunk``. Every operation is elementwise or reduces one
    order's slice for one z, so each order's row is bit-identical to its
    one-order call.
    """

    def block(b):
        # cells off the support of P(.,.|z), and all of an unreachable
        # z, are -inf through the log and drop out of the sums; each
        # chunk's terms are built and reduced in one temporary
        lcxy = _log(s.cxy_block(b))
        per = s.orders_per_chunk(lcxy.size)
        sums = np.empty((len(avs), len(lcxy)))
        for lo in range(0, len(avs), per):
            av = avs[lo:lo + per, None, None, None]
            terms = np.empty((len(av), *lcxy.shape))
            np.add(s.lcx[b, :, None], s.lcy[b, None, :], out=terms)
            terms *= 1.0 - av
            terms += av * lcxy
            sums[lo:lo + per] = _logsumexp(terms, axis=(2, 3), overwrite=True)
        return sums

    logits = s.lpz + s.per_z(block, axis=1) / avs[:, None]
    return logits, avs / (avs - 1.0) * _logsumexp(logits, axis=-1)


def cond_sibson_z_values(j: Joint3, alphas) -> np.ndarray:
    """``cond_sibson_z(j, a).value_nats`` for every finite order a != 1
    of ``alphas``, in one pass over the order grid.

    Each value is bit-identical to its one-order call, and an order at
    which that call raises makes this call raise the same error.
    """
    avs = np.array([_finite_order(a) for a in alphas], dtype=float)
    logits, values = _cond_z_grid(j._z_structure(), avs)
    _finite_top(logits)
    return values


def _finite_order(a) -> float:
    """A finite order != 1 as a float, read as ``Alpha.coerce`` reads it;
    order 1 and the sup order raise the error ``Alpha`` gives for them."""
    a = Alpha.coerce(a)
    if not a.is_finite:
        Alpha(a.value)
    return a.value


def cond_sibson_ygz(j: Joint3, a) -> MiReport:
    """Conditional Sibson information minimised over kernels Q_{Y|Z}.

    The minimisation splits per z, giving
    (1/(a-1)) log sum_z P_Z(z) (sum_y (sum_x P(x,y|z)^a P(x|z)^(1-a))^(1/a))^a
    with row minimisers Q(y|z) prop. to the inner sum to the power 1/a.
    Setting Z constant recovers the unconditional measure; the sup order
    is the conditional maximal leakage.  Order one degenerates to
    I(X;Y|Z) with minimiser P_{Y|Z}.
    """
    a = Alpha.coerce(a)
    s = j._z_structure()
    if a.is_one:
        opt = Kernel(j.z_labels, j.y_labels, s.cy, s.reach)
        return MiReport(a, conditional_mi(j), COND_YGZ, opt)
    if a.is_inf:
        value, rows = _leakage_parts(s)
        opt = Kernel(j.z_labels, j.y_labels, rows, s.reach)
        return MiReport(a, value, COND_LEAKAGE, opt)
    value, log_b = _ygz_parts(s, a.value)
    rows = np.zeros(log_b.shape)
    rows[s.reach] = _softmax(log_b[s.reach])
    opt = Kernel(j.z_labels, j.y_labels, rows, s.reach)
    return MiReport(a, value, COND_YGZ, opt)


def _ygz_parts(s: _GivenZ, av: float) -> tuple[float, np.ndarray]:
    """The finite-order closed form of ``cond_sibson_ygz`` on the
    structure ``s``: the value, and the (z, y) logits of the row
    minimisers (-inf rows for an unreachable z)."""
    log_b = s.per_z(
        lambda b: _log_power_sum(_log(s.cxy_block(b)), s.lcx[b, :, None], av, axis=1)
    )
    log_b /= av
    l_z = av * _logsumexp(log_b, axis=1)
    return _logsumexp(s.lpz + l_z) / (av - 1.0), log_b


def _leakage_parts(s: _GivenZ):
    """The largest per-z log leakage sum and the rows attaining the
    sup-order minimum of the structure ``s``; priced once and kept, rows
    read-only, on it."""
    if s.leakage is None:

        def col_max(b):
            # max over supported x of P(y | x, z); an unsupported x row is
            # all zero in P(.,.|z) and stays so
            cxy, cx = s.cxy_block(b), s.cx[b, :, None]
            return np.divide(cxy, cx, out=cxy, where=cx > 0).max(axis=1)

        m = s.per_z(col_max)
        sums = m.sum(axis=1)
        rows = np.zeros(m.shape)
        rows[s.reach] = m[s.reach] / sums[s.reach, None]
        rows.flags.writeable = False
        s.leakage = float(np.log(sums[s.reach].max())), rows
    return s.leakage


def cond_maximal_leakage(j: Joint3) -> float:
    """max over reachable z of log sum_y max over supported x of P(y|x,z).

    The sup-order limit of the kernel-minimised conditional measure.
    """
    value, _ = _leakage_parts(j._z_structure())
    return value


def lmgf_representation(j: Joint3, a) -> tuple[float, float, float]:
    """Three routes to the Z-minimised measure that must coincide.

    Returns the closed form, the route through per-z divergences
    (a/(a-1)) log E_Z[exp(((a-1)/a) D_a(P_XY|Z || P_X|Z P_Y|Z))], and
    the route through per-z Hellinger integrals
    (a/(a-1)) log E_Z[(E_prod[(dP/dprod)^a])^(1/a)].  The second and
    third come from one call of the divergence module's row kernel over
    the reachable z, not from the closed form.  Orders must exceed 1.
    """
    a = _order(a, "lmgf_representation", above_one=True)
    av = a.value
    lhs = cond_sibson_z(j, a).value_nats
    s = j._z_structure()
    ridx = np.flatnonzero(s.reach)
    prod = s.cx[ridx, :, None] * s.cy[ridx, None, :]
    n = len(ridx)
    lps = _log_hellinger_rows(s.cxy_block(ridx).reshape(n, -1), prod.reshape(n, -1), av)
    d = lps / (av - 1.0)  # per-z divergences
    h = np.array([_exp(v) for v in lps.tolist()])  # per-z Hellinger integrals
    if not (np.all(np.isfinite(lps)) and np.all(np.isfinite(h))):
        return lhs, math.inf, math.inf
    lpz = np.log(s.pz[ridx])
    rhs1 = av / (av - 1.0) * _logsumexp(lpz + (av - 1.0) / av * d)
    rhs2 = av / (av - 1.0) * _logsumexp(lpz + np.log(h) / av)
    return lhs, rhs1, rhs2


def additivity_check(j: Joint3, a, n: int):
    """Tensorisation probe: the Z-minimised measure of the n-fold power
    against n times the single-letter value.  Returns ``(lhs, rhs)``.
    The order must be finite.
    """
    a = _order(a, "additivity_check")
    lhs = cond_sibson_z(tensor_power(j, n), a).value_nats
    rhs = n * cond_sibson_z(j, a).value_nats
    return lhs, rhs
