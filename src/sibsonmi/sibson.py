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
    _log,
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


# the largest (orders x cells) block the order-grid kernel evaluates at
# once; a joint with more cells goes one order at a time
_GRID_CELLS = 1 << 16


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


def shannon_mi(jxy: Joint2) -> float:
    """Shannon mutual information of a two-way joint, in nats."""
    p = jxy.probs
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    pos = p > 0
    ratio = p[pos] / (np.outer(px, py)[pos])
    return float(np.sum(p[pos] * np.log(ratio)))


def conditional_mi(j: Joint3) -> float:
    """Shannon conditional mutual information I(X;Y|Z), in nats."""
    pz, _, cxy, cx, cy = j.conditionals_given_z()
    # one ratio array, then its log and the terms in place: at 64x64x256
    # three more temporaries would set the peak RSS of `measure`
    terms = np.ones(cxy.shape)
    np.divide(cxy, cx[:, :, None] * cy[:, None, :], out=terms, where=cxy > 0)
    np.log(terms, out=terms)
    terms *= cxy
    return float(np.sum(pz * np.sum(terms, axis=(1, 2))))


def sibson_mi(jxy: Joint2, a) -> MiReport:
    """Sibson mutual information of order a for a two-way joint.

    Finite orders use the factored form
    (a/(a-1)) log sum_y (sum_x P_X(x) P(y|x)^a)^(1/a),
    whose minimiser over output pmfs is Q(y) prop. to the inner sum to
    the power 1/a.  Order one is Shannon MI (minimiser P_Y), the sup
    order is maximal leakage.
    """
    a = Alpha.coerce(a)
    p = jxy.probs
    px = p.sum(axis=1)
    if a.is_one:
        return MiReport(a, shannon_mi(jxy), UNCOND, Pmf(jxy.y_labels, p.sum(axis=0)))
    if a.is_inf:
        value, q = _leakage_parts(jxy)
        return MiReport(a, value, LEAKAGE, Pmf(jxy.y_labels, q))
    av = a.value
    sup = px > 0  # unsupported x rows carry no mass and no kernel row
    log_px = _log(px[sup])
    log_b = _log_power_sum(_log(p[sup]), log_px[:, None], av, axis=0)
    value = av / (av - 1.0) * _logsumexp(log_b / av)
    q = _softmax(log_b / av)
    return MiReport(a, value, UNCOND, Pmf(jxy.y_labels, q))


def _leakage_parts(jxy: Joint2):
    """The leakage sum's log and the output pmf attaining the sup-order
    minimum, both from the column maxima of P(y|x) over supported x."""
    p = jxy.probs
    px = p.sum(axis=1)
    sup = px > 0
    col_max = (p[sup] / px[sup, None]).max(axis=0)
    total = col_max.sum()
    return float(np.log(total)), col_max / total


def maximal_leakage(jxy: Joint2) -> float:
    """log sum_y max over supported x of P(y|x); the sup-order limit."""
    value, _ = _leakage_parts(jxy)
    return value


def info_radius(measures, weights, a) -> float:
    """Weighted divergence radius of a family of measures, order a > 1.

    (1/(a-1)) min over centres nu of
    log sum_i w_i exp((a-1) D_a(mu_i || nu)), in closed form by
    Sibson's identity: (a/(a-1)) log sum_x (sum_i w_i mu_i(x)^a)^(1/a),
    attained at nu prop. to the inner sum to the power 1/a.  For weights
    summing to 1 this is ``sibson_mi`` of the joint w_i mu_i(x); a total
    W adds log(W)/(a-1).  Measures are pmfs or arrays on one alphabet,
    weights nonnegative with a positive sum.
    """
    a = Alpha.coerce(a)
    if not (a.is_finite and a.value > 1):
        raise ValidationError("the information radius needs a finite order > 1")
    mus, w = _radius_family(measures, weights)
    av = a.value
    log_b = _logsumexp(_log(w)[:, None] + av * _log(mus), axis=0)
    return av / (av - 1.0) * _logsumexp(log_b / av)


def _radius_family(measures, weights) -> tuple[np.ndarray, np.ndarray]:
    """The measures, each validated as a pmf, as one (n, k) array, and
    the weights."""
    pmfs = [m if isinstance(m, Pmf) else Pmf(range(np.size(m)), m) for m in measures]
    w = np.array(weights, dtype=float)
    labelled = {m.labels for m in measures if isinstance(m, Pmf)}
    if len(labelled) > 1 or len({len(m) for m in pmfs}) > 1 or w.shape != (len(pmfs),):
        raise ShapeMismatchError("need measures on one alphabet and one weight each")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
        raise ValidationError("weights must be finite and nonnegative with a positive sum")
    return np.stack([m.probs for m in pmfs]), w


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
        prod = s.cx[:, :, None] * s.cy[:, None, :]
        ratio = np.divide(s.cxy, prod, out=np.zeros_like(prod), where=s.cxy > 0)
        m = ratio.max(axis=(1, 2))
        value = float(np.log(np.dot(s.pz, m)))
        q = s.pz * m
        return MiReport(a, value, COND_Z, Pmf(j.z_labels, q / q.sum()))
    logits, values = _cond_z_grid(s, np.array([a.value]))
    return MiReport(a, float(values[0]), COND_Z, Pmf(j.z_labels, _softmax(logits[0])))


def _cond_z_grid(s, avs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finite-order closed form of ``cond_sibson_z`` at every order
    of ``avs``: the (orders, z) optimiser logits and the values.

    Orders go through in chunks of at most ``_GRID_CELLS`` (orders x
    cells) elements, one order at a time past that, and every
    operation is elementwise or reduces one order's own slice, so each
    order's row is bit-identical to its one-order call.
    """
    nz, nx, ny = s.cxy.shape
    per = max(1, _GRID_CELLS // s.cxy.size)
    logits = np.empty((len(avs), nz))
    for lo in range(0, len(avs), per):
        av = avs[lo:lo + per, None, None, None]
        # cells off the support of P(.,.|z), and all of an unreachable z,
        # are -inf through lcxy and drop out of the sums
        # in place, not _log_power_sum: its temporary adds 1.8 MB peak RSS at 64x64x256
        terms = np.empty((len(av), nz, nx, ny))
        np.add(s.lcx[:, :, None], s.lcy[:, None, :], out=terms)
        terms *= 1.0 - av
        terms += av * s.lcxy
        logits[lo:lo + per] = s.lpz + _logsumexp(terms, axis=(2, 3)) / av[:, :, 0, 0]
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
        value, rows = _cond_leakage_parts(j)
        opt = Kernel(j.z_labels, j.y_labels, rows, s.reach)
        return MiReport(a, value, COND_LEAKAGE, opt)
    av = a.value
    log_b = _log_power_sum(s.lcxy, s.lcx[:, :, None], av, axis=1) / av
    l_z = av * _logsumexp(log_b, axis=1)
    value = _logsumexp(s.lpz + l_z) / (av - 1.0)
    rows = np.zeros(log_b.shape)
    rows[s.reach] = _softmax(log_b[s.reach])
    opt = Kernel(j.z_labels, j.y_labels, rows, s.reach)
    return MiReport(a, value, COND_YGZ, opt)


def _cond_leakage_parts(j: Joint3):
    """Per-z leakage sums and the rows attaining the sup-order minimum."""
    _, reach, cxy, cx, _ = j.conditionals_given_z()
    sup = cx[:, :, None] > 0
    # max over supported x of P(y | x, z); unsupported x rows read 0
    m = np.divide(cxy, cx[:, :, None], out=np.zeros_like(cxy), where=sup).max(axis=1)
    sums = m.sum(axis=1)
    rows = np.zeros(m.shape)
    rows[reach] = m[reach] / sums[reach, None]
    return float(np.log(sums[reach].max())), rows


def cond_maximal_leakage(j: Joint3) -> float:
    """max over reachable z of log sum_y max over supported x of P(y|x,z).

    The sup-order limit of the kernel-minimised conditional measure.
    """
    value, _ = _cond_leakage_parts(j)
    return value


def lmgf_representation(j: Joint3, a) -> tuple[float, float, float]:
    """Three routes to the Z-minimised measure that must coincide.

    Returns the closed form, the route through per-z divergences
    (a/(a-1)) log E_Z[exp(((a-1)/a) D_a(P_XY|Z || P_X|Z P_Y|Z))], and
    the route through per-z Hellinger integrals
    (a/(a-1)) log E_Z[(E_prod[(dP/dprod)^a])^(1/a)].  The second and
    third come from one call of the divergence module's row kernel over
    the reachable z, not from the closed form.
    """
    a = Alpha.coerce(a)
    if not (a.is_finite and a.value > 1):
        raise ValidationError("the representation identity needs a finite order > 1")
    av = a.value
    lhs = cond_sibson_z(j, a).value_nats
    pz, reach, cxy, cx, cy = j.conditionals_given_z()
    ridx = np.flatnonzero(reach)
    prod = cx[ridx, :, None] * cy[ridx, None, :]
    n = len(ridx)
    lps = _log_hellinger_rows(cxy[ridx].reshape(n, -1), prod.reshape(n, -1), av)
    d = lps / (av - 1.0)  # per-z divergences
    h = np.array([_exp(v) for v in lps.tolist()])  # per-z Hellinger integrals
    if not (np.all(np.isfinite(lps)) and np.all(np.isfinite(h))):
        return lhs, math.inf, math.inf
    lpz = np.log(pz[ridx])
    rhs1 = av / (av - 1.0) * _logsumexp(lpz + (av - 1.0) / av * d)
    rhs2 = av / (av - 1.0) * _logsumexp(lpz + np.log(h) / av)
    return lhs, rhs1, rhs2


def additivity_check(j: Joint3, a, n: int):
    """Tensorisation probe: the Z-minimised measure of the n-fold power
    against n times the single-letter value.  Returns ``(lhs, rhs)``.
    """
    a = Alpha.coerce(a)
    if not a.is_finite:
        raise ValidationError("the additivity probe needs a finite order")
    lhs = cond_sibson_z(tensor_power(j, n), a).value_nats
    rhs = n * cond_sibson_z(j, a).value_nats
    return lhs, rhs
