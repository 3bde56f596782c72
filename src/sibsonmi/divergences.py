"""Renyi divergence, its order-1 and sup-order limits, and the Hellinger
integral of a given order.

All values are in nats.  Zero-probability conventions follow the
density-based definition: a cell with p = 0 contributes nothing for any
positive order; a cell with q = 0 against p > 0 forces +inf for orders
above 1 and contributes nothing for orders below 1.  Sums are taken in
log space with max subtraction, so orders up to ~100 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Alpha, _log
from .errors import PreconditionError, ShapeMismatchError, ValidationError

_NEG_CLAMP = 1e-12


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` with max subtraction.

    A slice whose max is not finite is shifted by 0 instead, so all
    -inf input, like an empty sum, gives -inf; a slice holding +inf
    gives +inf without exponentiating its other terms unshifted, which
    could overflow.
    """
    a = np.asarray(a, dtype=float)
    top = a.max(axis=axis, keepdims=True, initial=-math.inf)
    if np.isfinite(top).all():
        # the max term is exp(0) = 1, so no sum is 0
        e = a - top
        np.exp(e, out=e)
        out = np.log(e.sum(axis=axis, keepdims=True)) + top
    else:
        hot = top == math.inf
        top[~np.isfinite(top)] = 0.0
        e = a - top
        e[np.broadcast_to(hot, e.shape)] = -math.inf
        np.exp(e, out=e)
        with np.errstate(divide="ignore"):
            out = np.log(e.sum(axis=axis, keepdims=True)) + top
        out[hot] = math.inf
    return out.squeeze(axis) if axis is not None else float(out.reshape(()))


def _log_power_sum(lp, lq, av: float, axis=None):
    """log sum p^a q^(1-a) from the logs of p and q, along ``axis``.

    A term with lp = -inf drops out as long as lq is finite there.  A
    term with lq = -inf against a finite lp is +inf above order 1 and
    drops out below it, which is the domination convention.  The empty
    sum is -inf.
    """
    return _logsumexp(av * lp + (1.0 - av) * lq, axis=axis)


def _flat(measure) -> np.ndarray:
    """Flatten a Pmf / Joint2 / Joint3 / array into a 1-d mass vector."""
    a = measure.probs if hasattr(measure, "probs") else measure
    return np.asarray(a, dtype=float).ravel()


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    pa, qa = _flat(p), _flat(q)
    if pa.shape != qa.shape:
        raise ShapeMismatchError(
            f"measures live on different alphabets: {pa.shape} vs {qa.shape}"
        )
    return pa, qa


def _equal_rows(p: np.ndarray, q: np.ndarray):
    # measures equal to within the mass tolerance have divergence 0 by
    # contract; short-circuiting keeps the value exact instead of a few
    # ulps of log-sum noise
    return (np.abs(p - q) <= _NEG_CLAMP).all(axis=-1)


def _clamp(v):
    # log-space rounding can leave a divergence of two equal measures a
    # few ulps below zero; snap those (and -0.0) to the exact boundary value
    return np.where((-_NEG_CLAMP < v) & (v <= 0.0), 0.0, v)


def _log_hellinger_rows(p, q, av) -> np.ndarray:
    """log sum p^a q^(1-a) along the last axis of two stacks of measures
    at the finite order av, with the conventions above (no common support
    gives -inf): the one finite-order kernel.  Rows equal within the mass
    tolerance give exactly 0.  ``av`` is one order, or an array of orders
    shaped to broadcast along a leading axis of the result.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # off the support of p, lp = -inf meets lq = 0: the cell drops out
    # whatever q is, never as 0 * inf
    sup = p > 0
    lp, lq = np.full(p.shape, -math.inf), np.zeros(q.shape)
    lp[sup], lq[sup] = np.log(p[sup]), _log(q[sup])
    out = _log_power_sum(lp, lq, av, axis=-1)
    out[..., _equal_rows(p, q)] = 0.0
    return out


def _exp(v: float) -> float:
    # math.exp, as numpy's exp can round differently; overflow reads +inf
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _hellinger_rows(p, q, av: float) -> np.ndarray:
    """Row-wise Hellinger integrals of two (n, k) stacks at the finite order av."""
    return np.array([_exp(v) for v in _log_hellinger_rows(p, q, av).tolist()])


def renyi_divergence(p, q, a) -> float:
    """Divergence of order ``a`` between two measures on one alphabet.

    Finite orders evaluate (1/(a-1)) log sum p^a q^(1-a); ``Alpha.ONE``
    is the Kullback-Leibler sum and ``Alpha.INFINITY`` the log of the
    largest density ratio on the support of p.  Returns +inf when the
    order exceeds 1 and q fails to dominate p.
    """
    a = Alpha.coerce(a)
    if a.is_finite:
        return float(_renyi_orders(p, q, np.array([a.value]))[0])
    pa, qa = _pair(p, q)
    if _equal_rows(pa, qa):
        return 0.0
    sup = pa > 0
    if np.any(sup & (qa <= 0)):
        return math.inf
    ratio = pa[sup] / qa[sup]
    if a.is_one:
        return float(_clamp(np.sum(pa[sup] * np.log(ratio))))
    return float(_clamp(np.log(np.max(ratio))))


def _renyi_orders(p, q, avs: np.ndarray) -> np.ndarray:
    """``renyi_divergence(p, q, a)`` at every finite order of the vector
    ``avs``, each bit-identical to its one-order call."""
    pa, qa = _pair(p, q)
    lps = _log_hellinger_rows(pa[None], qa[None], avs[:, None, None])[:, 0]
    # an empty sum means no common support: +inf for every order
    return np.where(lps == -math.inf, math.inf, _clamp(lps / (avs - 1.0)))


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence (the order-1 point)."""
    return renyi_divergence(p, q, Alpha.ONE)


def hellinger_integral(p, q, a) -> float:
    """E_q[(p/q)^a] for a finite order a > 0, a != 1.

    Equals exp((a-1) * renyi_divergence(p, q, a)); above order 1 it is
    >= 1 by Jensen, below order 1 the same argument flips it to <= 1.
    """
    a = Alpha.coerce(a)
    if not a.is_finite:
        raise ValidationError("the Hellinger integral needs a finite order")
    pa, qa = _pair(p, q)
    return _exp(float(_log_hellinger_rows(pa[None], qa[None], a.value)[0]))


@dataclass(frozen=True)
class LimitRow:
    eps: float
    below: float  # divergence at order 1 - eps
    above: float  # divergence at order 1 + eps
    deviation: float  # max distance of the two from the KL value


@dataclass(frozen=True)
class LimitCheckReport:
    kl: float
    rows: tuple[LimitRow, ...]
    monotone: bool

    @property
    def final_deviation(self) -> float:
        return self.rows[-1].deviation if self.rows else 0.0


def renyi_limit_check(p, q, eps_grid) -> LimitCheckReport:
    """Probe the order -> 1 limit against the Kullback-Leibler value.

    Evaluates the divergence at orders 1 +/- eps for each eps (sorted
    descending) and reports the deviation from KL; ``monotone`` states
    whether deviations shrink as eps does (1e-12 slack).  Requires q to
    dominate p so the limit holds unconditionally.
    """
    pa, qa = _pair(p, q)
    if np.any((pa > 0) & (qa <= 0)):
        raise PreconditionError("limit check needs q to dominate p")
    kl = kl_divergence(pa, qa)
    rows = []
    for eps in sorted((float(e) for e in eps_grid), reverse=True):
        if not 0 < eps < 1:
            raise ValidationError(f"eps values must be in (0, 1), got {eps}")
        below = renyi_divergence(pa, qa, Alpha(1.0 - eps))
        above = renyi_divergence(pa, qa, Alpha(1.0 + eps))
        dev = max(abs(below - kl), abs(above - kl))
        rows.append(LimitRow(eps, below, above, dev))
    devs = [r.deviation for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    return LimitCheckReport(kl=kl, rows=tuple(rows), monotone=monotone)
