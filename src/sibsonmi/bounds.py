"""Probability bounds relating the mass of an event under a joint to
its mass under the induced Markov-product factorisation, scaled by an
exponential of a conditional Sibson measure.

The two finite-order bounds pair an essential-supremum factor with the
matching conditional measure: the Z-minimised variant goes with the
per-z product-measure mass, the kernel-minimised variant with the
Z-expectation of a per-(z, y) slice mass.  The exponent (a-1)/a sits
outside the Z-expectation in the latter (that placement is what the
underlying three-fold Hoelder step with exponents (a, 1, dual) pins
down).  Essential suprema reduce to maxima over positive-mass atoms on
finite alphabets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    Alpha,
    EventMask,
    Joint3,
    Joint4,
    _order,
    _zw_x_y_chain,
    require_conformal,
)
from .errors import ValidationError
from .sibson import cond_maximal_leakage, cond_sibson_ygz, cond_sibson_z

THM1 = "THM1"
THM3 = "THM3"
COR_LEAK = "COR_LEAK"
COR_SDPI = "COR_SDPI"

# below this distance from order 1 the exponent (a-1)/a is so close to 0
# that the bound degenerates to "P(E) <= ~1"; flagged, not extrapolated
UNINFORMATIVE_GAP = 1e-6


@dataclass(frozen=True)
class BoundReport:
    which: str
    alpha: Alpha
    lhs: float
    rhs: float
    slack: float
    vacuous: bool = False  # domination failed, rhs forced to +inf
    uninformative: bool = False  # order within 1e-6 of 1

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-12


def event_probability(j, e: EventMask) -> float:
    """Mass of the event under the joint (direct masked sum)."""
    require_conformal(e, j)
    return float(j.probs[e.mask].sum())


def _report(which, a, lhs, rhs, vacuous=False, uninformative=False):
    return BoundReport(
        which=which,
        alpha=a,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        vacuous=vacuous,
        uninformative=uninformative,
    )


def _holder_bound(which, j: Joint3, e: EventMask, a, slice_mass, measure):
    """P(E) against slice_mass(j, e)^((a-1)/a) e^((a-1)/a measure(j, a)).

    The shared body of ``bound_thm1`` and ``bound_thm3`` (by ``which``),
    which differ only in the slice-mass factor and the matching
    conditional measure.  Orders must be finite and above 1.
    """
    a = _order(a, f"bound_{which.lower()}", above_one=True)
    require_conformal(e, j)
    av = a.value
    uninformative = av <= 1.0 + UNINFORMATIVE_GAP
    lhs = event_probability(j, e)
    if not _product_dominates(j):
        return _report(which, a, lhs, math.inf, vacuous=True, uninformative=uninformative)
    frac = (av - 1.0) / av
    rhs = slice_mass(j, e) ** frac * math.exp(frac * measure(j, a).value_nats)
    return _report(which, a, lhs, rhs, uninformative=uninformative)


def _product_dominates(j: Joint3) -> bool:
    """True iff the Markov product P_Z(z) P(x|z) P(y|z) vanishes on no
    cell where ``j`` has mass: ``markov_product(j)``'s values, priced from
    the cached structure given z one z-block at a time."""
    s = j._z_structure()

    def escapes(b):
        prod = np.einsum("z,zx,zy->xyz", s.pz[b], s.cx[b], s.cy[b])
        return np.any((prod <= 0) & (j.probs[:, :, b] > 0), axis=(0, 1))

    return not s.per_z(escapes).any()


def bound_thm3(j: Joint3, e: EventMask, a) -> BoundReport:
    """P(E) against (max_z product-mass of E_z)^((a-1)/a) e^((a-1)/a I^Z).

    The sup runs over reachable z of the mass the product measure
    P(x|z) P(y|z) assigns to the slice E_z.
    """
    return _holder_bound(THM3, j, e, a, _max_product_mass, cond_sibson_z)


def _max_product_mass(j: Joint3, e: EventMask) -> float:
    """max over z of the mass P(x|z) P(y|z) puts on the slice E_z."""
    s = j._z_structure()
    where = np.moveaxis(e.mask, 2, 0)

    def mass(b):
        prod = s.cx[b, :, None] * s.cy[b, None, :]  # all zero for unreachable z
        return np.sum(prod, axis=(1, 2), where=where[b])

    return float(s.per_z(mass).max(initial=0.0))


def _expected_slice_mass(j: Joint3, e: EventMask) -> float:
    """E_Z of the max over supported y of P_{X|Z}(E_{Z,y})."""
    s = j._z_structure()
    where = np.moveaxis(e.mask, 2, 0)
    # (z, y)
    mass = s.per_z(lambda b: np.sum(s.cx[b, :, None] * where[b], axis=1))
    best = np.where(s.cy > 0, mass, 0.0).max(axis=1, initial=0.0)
    return float(np.sum(s.pz * best))


def bound_thm1(j: Joint3, e: EventMask, a) -> BoundReport:
    """P(E) against (E_Z[max_y P_{X|Z}(E_{Z,y})])^((a-1)/a) e^((a-1)/a I^{Y|Z}).

    The inner max runs over y with positive conditional mass given z.
    """
    return _holder_bound(THM1, j, e, a, _expected_slice_mass, cond_sibson_ygz)


def bound_cor_leakage(j: Joint3, e: EventMask) -> BoundReport:
    """The sup-order version: P(E) <= E_Z[max_y P_{X|Z}(E_{Z,y})] e^leakage.

    No (a-1)/a exponent survives the limit, so this never divides by the
    order; reported with the symbolic infinite order.
    """
    require_conformal(e, j)
    lhs = event_probability(j, e)
    rhs = _expected_slice_mass(j, e) * math.exp(cond_maximal_leakage(j))
    return _report(COR_LEAK, Alpha.INFINITY, lhs, rhs)


def bound_cor_sdpi(j4: Joint4, e: EventMask, a, eta: float) -> BoundReport:
    """Contraction-sharpened bound for a (Z,W) - X - Y chain.

    ``e`` masks the (W, Y, Z) marginal; ``eta`` must upper-bound the
    order-a Hellinger contraction of the X -> Y channel for the slack
    guarantee to apply.  The measure in the exponent is the Z-minimised
    one of the (W, X, Z) marginal, so the event side never sees X.
    Orders must be finite and above 1.
    """
    a = _order(a, "bound_cor_sdpi", above_one=True)
    if not 0.0 < eta <= 1.0 + CHECK_TOL:
        raise ValidationError(f"eta must lie in (0, 1], got {eta!r}")
    wyz = _zw_x_y_chain(j4).marginal_wyz()
    require_conformal(e, wyz)
    av = a.value
    lhs = event_probability(wyz, e)
    ess = _max_product_mass(wyz, e)
    frac = (av - 1.0) / av
    i_wx = cond_sibson_z(j4.marginal_wxz(), a).value_nats
    rhs = ess**frac * eta ** (1.0 / av) * math.exp(frac * i_wx)
    return _report(COR_SDPI, a, lhs, rhs)
