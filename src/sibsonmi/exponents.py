"""Convex-conjugate machinery for the testing problem's error exponents.

The conjugate of the type-1 exponent function has a closed form: +inf
for positive arguments and lambda * I^Z at order 1/(1-lambda) otherwise,
which puts the orders in (0, 1).  Conjugating again yields grid-supremum
formulas over orders in (0, 1]; only these conjugates are computed (the
achievable-exponent frontier itself is out of reach of a biconjugate,
which is merely its convex lower envelope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Alpha, Joint3
from .errors import ValidationError
from .sibson import cond_sibson_z


@dataclass(frozen=True)
class ConvexConjugate:
    """Sampled conjugate values; exact for the sampled restriction."""

    sample_grid: tuple[tuple[float, float], ...]  # (argument, value)
    closed_form: str | None = None

    def max_convexity_violation(self) -> float:
        """Largest midpoint-convexity defect along the grid (0 if convex)."""
        pts = sorted(self.sample_grid)
        worst = 0.0
        for (x0, v0), (x1, v1), (x2, v2) in zip(pts, pts[1:], pts[2:]):
            if x2 == x0 or not all(map(math.isfinite, (v0, v1, v2))):
                continue
            chord = v0 + (v2 - v0) * (x1 - x0) / (x2 - x0)
            worst = max(worst, v1 - chord)
        return worst


def numeric_conjugate(samples, lambda_grid) -> ConvexConjugate:
    """sup_x (lambda x - f(x)) over the sampled restriction of f.

    ``samples`` is an iterable of (x, f(x)) pairs with finite values
    (pairs with f = +inf can never attain the sup and are dropped).
    """
    xs, fs = [], []
    for x, f in samples:
        if math.isinf(f) and f > 0:
            continue
        xs.append(float(x))
        fs.append(float(f))
    if not xs:
        raise ValidationError("conjugation needs at least one finite sample")
    xs = np.asarray(xs)
    fs = np.asarray(fs)
    grid = tuple(
        (float(lam), float(np.max(lam * xs - fs))) for lam in lambda_grid
    )
    return ConvexConjugate(sample_grid=grid)


def lambda_of_alpha(alpha: float) -> float:
    """The order -> slope substitution; maps (0, 1] onto (-inf, 0]."""
    return 1.0 - 1.0 / float(alpha)


def alpha_of_lambda(lam: float) -> float:
    """Inverse substitution; maps nonpositive slopes into (0, 1]."""
    return 1.0 / (1.0 - float(lam))


def ep_star(j: Joint3, lam: float) -> float:
    """Conjugate of the type-1 exponent function at slope ``lam``.

    +inf for lam > 0, zero at the origin, and
    lam * I^Z(X,Y|Z) at order 1/(1-lam) for lam < 0 (an order in (0,1)).
    Convex and nonpositive on the closed negative axis.
    """
    lam = float(lam)
    if lam > 0:
        return math.inf
    if lam == 0:
        return 0.0
    return lam * cond_sibson_z(j, Alpha(alpha_of_lambda(lam))).value_nats


def ep_star_grid(j: Joint3, lambdas) -> ConvexConjugate:
    """Sample ``ep_star`` on a slope grid (for convexity and round trips)."""
    grid = tuple((float(l), ep_star(j, l)) for l in lambdas)
    return ConvexConjugate(sample_grid=grid, closed_form="ep_star")


DEFAULT_GRID_SIZE = 200
DEFAULT_GRID_LO = 0.005


def default_alpha_grid() -> np.ndarray:
    """200 log-spaced orders in [0.005, 1]; the sup can concentrate at
    either end, which linear spacing would miss near zero."""
    return np.geomspace(DEFAULT_GRID_LO, 1.0, DEFAULT_GRID_SIZE)


@dataclass(frozen=True)
class GridMax:
    value: float
    alpha: float  # grid point attaining the max


def _check_grid(alpha_grid) -> np.ndarray:
    grid = default_alpha_grid() if alpha_grid is None else np.asarray(
        list(alpha_grid), dtype=float
    )
    if grid.size == 0:
        raise ValidationError("the order grid must be nonempty")
    if np.any(grid <= 0) or np.any(grid > 1):
        raise ValidationError("grid orders must lie in (0, 1]")
    return grid


def _grid_max(grid, value_at) -> GridMax:
    """The first strict maximum of ``value_at`` over the order grid.

    A point valued -inf never wins, so a grid with no better point
    gives ``(-inf, nan)``.
    """
    best_v, best_a = -math.inf, float("nan")
    for av in grid:
        v = value_at(av)
        if v > best_v:
            best_v, best_a = v, float(av)
    return GridMax(value=best_v, alpha=best_a)


def ep_biconjugate(j: Joint3, e_q: float, alpha_grid=None) -> GridMax:
    """max over the order grid of ((1-a)/a) (I^Z - E_Q).

    The a = 1 point contributes exactly 0 (its factor vanishes);
    nonincreasing in ``e_q``.
    """

    def value_at(av):
        if av == 1.0:
            return 0.0
        i = cond_sibson_z(j, Alpha(av)).value_nats
        return (1.0 - av) / av * (i - e_q)

    return _grid_max(_check_grid(alpha_grid), value_at)


def eq_biconjugate(j: Joint3, e_p: float, alpha_grid=None) -> GridMax:
    """max over the order grid of I^Z - (a/(1-a)) E_P.

    At a = 1 the coefficient blows up, so that point enters only when
    E_P = 0, where it contributes the order-1 value I(X;Y|Z);
    nonincreasing in ``e_p``.
    """

    def value_at(av):
        if av == 1.0:
            return cond_sibson_z(j, Alpha.ONE).value_nats if e_p == 0.0 else -math.inf
        i = cond_sibson_z(j, Alpha(av)).value_nats
        return i - av / (1.0 - av) * e_p

    return _grid_max(_check_grid(alpha_grid), value_at)
