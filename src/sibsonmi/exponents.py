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
from .sibson import cond_sibson_z, cond_sibson_z_values


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
    Convex and nonpositive on the closed negative axis.  The one-slope
    call of ``ep_star_grid``.
    """
    return ep_star_grid(j, [lam]).sample_grid[0][1]


def ep_star_grid(j: Joint3, lambdas) -> ConvexConjugate:
    """Sample ``ep_star`` on a slope grid (for convexity and round trips),
    with every negative slope priced in one order-grid call."""
    lams = np.array([float(l) for l in lambdas])
    values = np.where(lams > 0, math.inf, 0.0)
    # slopes neither positive nor zero, NaN included, go to the measure,
    # which raises for them
    rest = ~((lams > 0) | (lams == 0))
    orders = [alpha_of_lambda(l) for l in lams[rest]]
    values[rest] = lams[rest] * cond_sibson_z_values(j, orders)
    grid = tuple(zip(lams.tolist(), values.tolist()))
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


def _grid_max(grid: np.ndarray, values: np.ndarray) -> GridMax:
    """The first strict maximum of ``values`` over the order grid.

    Neither -inf nor NaN ever wins, so a grid with no other value
    gives ``(-inf, nan)``.
    """
    ok = np.flatnonzero(values > -math.inf)
    if not len(ok):
        return GridMax(value=-math.inf, alpha=float("nan"))
    k = ok[np.argmax(values[ok])]
    return GridMax(value=float(values[k]), alpha=float(grid[k]))


def ep_biconjugate(j: Joint3, e_q: float, alpha_grid=None) -> GridMax:
    """max over the order grid of ((1-a)/a) (I^Z - E_Q).

    The a = 1 point contributes exactly 0 (its factor vanishes);
    nonincreasing in ``e_q``.
    """
    grid = _check_grid(alpha_grid)
    values = np.zeros(len(grid))
    inner = grid != 1.0
    av = grid[inner]
    values[inner] = (1.0 - av) / av * (cond_sibson_z_values(j, av) - e_q)
    return _grid_max(grid, values)


def eq_biconjugate(j: Joint3, e_p: float, alpha_grid=None) -> GridMax:
    """max over the order grid of I^Z - (a/(1-a)) E_P.

    At a = 1 the coefficient blows up, so that point enters only when
    E_P = 0, where it contributes the order-1 value I(X;Y|Z);
    nonincreasing in ``e_p``.
    """
    grid = _check_grid(alpha_grid)
    inner = grid != 1.0
    values = np.full(len(grid), -math.inf)
    if e_p == 0.0 and not inner.all():
        values[~inner] = cond_sibson_z(j, Alpha.ONE).value_nats
    av = grid[inner]
    values[inner] = cond_sibson_z_values(j, av) - av / (1.0 - av) * e_p
    return _grid_max(grid, values)
