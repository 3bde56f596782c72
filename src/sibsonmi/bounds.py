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
    Alpha,
    EventMask,
    Joint3,
    Joint4,
    absolutely_continuous,
    markov_product,
    require_conformal,
)
from .errors import PreconditionError, ValidationError
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


def _finite_at_least_one(a) -> Alpha:
    a = Alpha.coerce(a)
    if not a.is_finite or a.value < 1.0:
        raise ValidationError("this bound needs a finite order >= 1")
    return a


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


def bound_thm3(j: Joint3, e: EventMask, a) -> BoundReport:
    """P(E) against (max_z product-mass of E_z)^((a-1)/a) e^((a-1)/a I^Z).

    The sup runs over reachable z of the mass the product measure
    P(x|z) P(y|z) assigns to the slice E_z.
    """
    a = _finite_at_least_one(a)
    require_conformal(e, j)
    av = a.value
    uninformative = av <= 1.0 + UNINFORMATIVE_GAP
    lhs = event_probability(j, e)
    if av > 1 and not absolutely_continuous(j, markov_product(j)):
        return _report(THM3, a, lhs, math.inf, vacuous=True, uninformative=uninformative)
    ess = _max_product_mass(j, e)
    frac = (av - 1.0) / av
    rhs = ess**frac * math.exp(frac * cond_sibson_z(j, a).value_nats)
    return _report(THM3, a, lhs, rhs, uninformative=uninformative)


def _max_product_mass(j: Joint3, e: EventMask) -> float:
    """max over z of the mass P(x|z) P(y|z) puts on the slice E_z."""
    _, _, _, cx, cy = j.conditionals_given_z()
    prod = cx[:, :, None] * cy[:, None, :]  # all zero for unreachable z
    where = np.moveaxis(e.mask, 2, 0)
    return float(np.sum(prod, axis=(1, 2), where=where).max(initial=0.0))


def _expected_slice_mass(j: Joint3, e: EventMask) -> float:
    """E_Z of the max over supported y of P_{X|Z}(E_{Z,y})."""
    pz, _, _, cx, cy = j.conditionals_given_z()
    where = np.moveaxis(e.mask, 2, 0)
    mass = np.sum(cx[:, :, None] * where, axis=1)  # (z, y)
    best = np.where(cy > 0, mass, 0.0).max(axis=1, initial=0.0)
    return float(np.sum(pz * best))


def bound_thm1(j: Joint3, e: EventMask, a) -> BoundReport:
    """P(E) against (E_Z[max_y P_{X|Z}(E_{Z,y})])^((a-1)/a) e^((a-1)/a I^{Y|Z}).

    The inner max runs over y with positive conditional mass given z.
    """
    a = _finite_at_least_one(a)
    require_conformal(e, j)
    av = a.value
    uninformative = av <= 1.0 + UNINFORMATIVE_GAP
    lhs = event_probability(j, e)
    if av > 1 and not absolutely_continuous(j, markov_product(j)):
        return _report(THM1, a, lhs, math.inf, vacuous=True, uninformative=uninformative)
    frac = (av - 1.0) / av
    factor = _expected_slice_mass(j, e)
    rhs = factor**frac * math.exp(frac * cond_sibson_ygz(j, a).value_nats)
    return _report(THM1, a, lhs, rhs, uninformative=uninformative)


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
    """
    a = Alpha.coerce(a)
    if not a.is_finite or a.value <= 1.0:
        raise ValidationError("the contraction bound needs a finite order > 1")
    if not 0.0 < eta <= 1.0 + 1e-9:
        raise ValidationError(f"eta must lie in (0, 1], got {eta!r}")
    if not j4.is_markov_zw_x_y(1e-10):
        raise PreconditionError(
            "joint does not factor as P(w,x,z) P(y|x) within 1e-10"
        )
    wyz = j4.marginal_wyz()
    require_conformal(e, wyz)
    av = a.value
    lhs = event_probability(wyz, e)
    ess = _max_product_mass(wyz, e)
    frac = (av - 1.0) / av
    i_wx = cond_sibson_z(j4.marginal_wxz(), a).value_nats
    rhs = ess**frac * eta ** (1.0 / av) * math.exp(frac * i_wx)
    return _report(COR_SDPI, a, lhs, rhs)
