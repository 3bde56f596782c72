import math

import numpy as np
import pytest

from sibsonmi.core import Alpha
from sibsonmi.errors import ValidationError
from sibsonmi.exponents import (
    ConvexConjugate,
    alpha_of_lambda,
    default_alpha_grid,
    ep_biconjugate,
    ep_star,
    ep_star_grid,
    eq_biconjugate,
    lambda_of_alpha,
    numeric_conjugate,
)
from sibsonmi.instances import random_joint3, random_markov_joint, reference_joint
from sibsonmi.oracles import cond_z_oracle
from sibsonmi.sibson import cond_sibson_z, conditional_mi

EP_STAR_REF_AT_MINUS_ONE = -0.2876820724517809  # -(-log 0.75) times -1


class TestNumericConjugate:
    def test_zero_function(self):
        cc = numeric_conjugate([(-1, 0.0), (0, 0.0), (1, 0.0)], [2.0])
        assert cc.sample_grid == ((2.0, 2.0),)

    def test_square_function(self):
        xs = np.linspace(-3, 3, 6001)
        cc = numeric_conjugate([(x, x * x) for x in xs], [2.0, -1.0])
        assert abs(dict(cc.sample_grid)[2.0] - 1.0) <= 1e-5
        assert abs(dict(cc.sample_grid)[-1.0] - 0.25) <= 1e-5

    def test_biconjugate_round_trip(self):
        xs = np.linspace(-2, 2, 2001)
        lams = np.linspace(-5, 5, 2001)
        conj = numeric_conjugate([(x, x * x) for x in xs], lams)
        back = numeric_conjugate(conj.sample_grid, xs)
        for x, v in back.sample_grid:
            assert abs(v - x * x) <= 1e-2

    def test_needs_finite_sample(self):
        with pytest.raises(ValidationError):
            numeric_conjugate([(0.0, math.inf)], [1.0])

    def test_conjugate_is_convex(self, rng):
        samples = [(x, float(v)) for x, v in zip(np.linspace(-1, 1, 30), rng.random(30))]
        cc = numeric_conjugate(samples, np.linspace(-4, 4, 101))
        assert cc.max_convexity_violation() <= 1e-9


class TestEpStar:
    def test_positive_slope_infinite(self, ref):
        assert ep_star(ref, 0.5) == math.inf
        assert ep_star(ref, 1e-12) == math.inf

    def test_zero_slope(self, ref):
        assert ep_star(ref, 0.0) == 0.0

    def test_reference_at_minus_one(self, ref):
        got = ep_star(ref, -1.0)
        assert abs(got - EP_STAR_REF_AT_MINUS_ONE) <= 1e-6
        # the slope maps to order 1/2; the grid oracle prices the same point
        val, _ = cond_z_oracle(ref, 0.5)
        assert abs(got + val) <= 1e-5

    def test_convex_and_nonpositive(self, ref):
        lams = np.append(-np.geomspace(1e-3, 30, 99)[::-1], 0.0)
        cc = ep_star_grid(ref, lams)
        assert cc.max_convexity_violation() <= 1e-9
        assert all(v <= 0 for _, v in cc.sample_grid)
        assert cc.closed_form == "ep_star"


class TestSubstitution:
    def test_bijection_round_trip(self):
        for lam in (-1e-6, -0.5, -1.0, -42.0, 0.0):
            a = alpha_of_lambda(lam)
            assert 0 < a <= 1
            assert abs(lambda_of_alpha(a) - lam) <= 1e-12 * max(1.0, abs(lam))
        for a in (0.005, 0.3, 0.999, 1.0):
            lam = lambda_of_alpha(a)
            assert lam <= 0
            assert abs(alpha_of_lambda(lam) - a) <= 1e-12


class TestEpBiconjugate:
    def test_grid_of_one_is_zero(self, ref):
        assert ep_biconjugate(ref, 123.4, [1.0]).value == 0.0

    def test_matches_double_conjugation(self, rng):
        agrid = default_alpha_grid()
        lgrid = [lambda_of_alpha(a) for a in agrid]
        for _ in range(10):
            j = random_joint3(rng, (2, 2, 2))
            samples = [(l, ep_star(j, l)) for l in lgrid]
            for e_q in (0.0, 0.1, 0.5):
                direct = ep_biconjugate(j, e_q, agrid).value
                double = numeric_conjugate(samples, [e_q]).sample_grid[0][1]
                assert abs(direct - double) <= 1e-4

    def test_large_argument_nonpositive(self, ref):
        r = ep_biconjugate(ref, 10.0)
        assert r.value <= 0.0
        assert r.alpha >= 0.9  # attained at the top of the grid

    def test_nonincreasing_in_argument(self, ref):
        vals = [ep_biconjugate(ref, e).value for e in (0.0, 0.2, 0.5, 1.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_grid(self, ref):
        with pytest.raises(ValidationError):
            ep_biconjugate(ref, 0.0, [1.5])
        with pytest.raises(ValidationError):
            ep_biconjugate(ref, 0.0, [])


class TestEqBiconjugate:
    def test_zero_argument_hits_order_one(self, ref):
        r = eq_biconjugate(ref, 0.0)
        assert abs(r.value - 0.5 * math.log(2)) <= 1e-9
        assert r.alpha == 1.0
        # independent oracle for the order-1 value: the divergence of the
        # joint from its own Markov product
        from sibsonmi.core import markov_product
        from sibsonmi.divergences import kl_divergence

        want = kl_divergence(ref, markov_product(ref))
        assert abs(r.value - want) <= 1e-12

    def test_large_argument(self, ref):
        r = eq_biconjugate(ref, 10.0)
        assert r.value < 0

    def test_markov_nonpositive(self, rng):
        j = random_markov_joint(rng, (2, 2, 2))
        for e_p in (0.0, 0.1, 1.0):
            assert eq_biconjugate(j, e_p).value <= 1e-10

    def test_nonincreasing_in_argument(self, ref):
        vals = [eq_biconjugate(ref, e).value for e in (0.0, 0.1, 0.4)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_default_grid_shape():
    g = default_alpha_grid()
    assert len(g) == 200
    assert g[0] == 0.005 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)


def _loop_grid_max(grid, value_at):
    """The per-order loop the grid calls replaced: the first strict
    maximum, which -inf and NaN never are."""
    best_v, best_a = -math.inf, float("nan")
    for av in grid:
        v = value_at(av)
        if v > best_v:
            best_v, best_a = v, float(av)
    return best_v, best_a


def _loop_ep_biconjugate(j, e_q, grid):
    def value_at(av):
        if av == 1.0:
            return 0.0
        return (1.0 - av) / av * (cond_sibson_z(j, Alpha(av)).value_nats - e_q)

    return _loop_grid_max(grid, value_at)


def _loop_eq_biconjugate(j, e_p, grid):
    def value_at(av):
        if av == 1.0:
            return cond_sibson_z(j, Alpha.ONE).value_nats if e_p == 0.0 else -math.inf
        return cond_sibson_z(j, Alpha(av)).value_nats - av / (1.0 - av) * e_p

    return _loop_grid_max(grid, value_at)


def _loop_ep_star(j, lam):
    """The one-slope formula the grid call replaced."""
    lam = float(lam)
    if lam > 0:
        return math.inf
    if lam == 0:
        return 0.0
    return lam * cond_sibson_z(j, Alpha(alpha_of_lambda(lam))).value_nats


def _same(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestGridCallsMatchPerOrderLoops:
    GRIDS = (None, [1.0], [0.3], [1.0, 0.5, 1.0], [0.2, 0.2, 0.9],
             np.geomspace(0.01, 1.0, 17))
    ARGS = (0.0, 0.3, 1e-9, 5.0, math.inf, -math.inf, math.nan)

    def test_biconjugates(self, rng):
        for t in range(6):
            j = random_joint3(rng, (2, 3, 2) if t % 2 else (2, 2, 2),
                              zero_cells=t % 3)
            for grid in self.GRIDS:
                full = default_alpha_grid() if grid is None else np.asarray(grid, float)
                for e in self.ARGS:
                    for f, loop in ((ep_biconjugate, _loop_ep_biconjugate),
                                    (eq_biconjugate, _loop_eq_biconjugate)):
                        got = f(j, e, grid)
                        want_v, want_a = loop(j, e, full)
                        assert _same(got.value, want_v), (f.__name__, e, grid)
                        assert _same(got.alpha, want_a), (f.__name__, e, grid)

    def test_ep_star_grid(self, rng):
        lams = [lambda_of_alpha(a) for a in default_alpha_grid()]
        lams += [0.5, 0.0, -0.0, -1.0, 3.0, -1e3]
        for t in range(8):
            j = random_joint3(rng, (2, 2, 3), zero_cells=t % 3)
            got = ep_star_grid(j, lams).sample_grid
            assert got == tuple((float(l), _loop_ep_star(j, l)) for l in lams)
            assert all(type(l) is float and type(v) is float for l, v in got)
            assert [ep_star(j, l) for l in lams] == [v for _, v in got]

    @pytest.mark.parametrize("lam", [math.nan, -1e-17, -math.inf])
    def test_ep_star_grid_raises_as_ep_star(self, ref, lam):
        with pytest.raises(ValidationError) as single:
            _loop_ep_star(ref, lam)
        with pytest.raises(ValidationError) as grid:
            ep_star_grid(ref, [-1.0, lam, 0.0])
        with pytest.raises(ValidationError) as one:
            ep_star(ref, lam)
        assert str(grid.value) == str(one.value) == str(single.value)

    @pytest.mark.parametrize("a", [1e-310, 5e-324])
    def test_biconjugates_raise_as_loops_at_tiny_orders(self, ref, a):
        # the order overflows its division: a RuntimeWarning under the
        # suite's filter, in the grid call as in the loop
        for f, loop in ((ep_biconjugate, _loop_ep_biconjugate),
                        (eq_biconjugate, _loop_eq_biconjugate)):
            with pytest.raises(RuntimeWarning) as single:
                loop(ref, 0.1, [0.5, a])
            with pytest.raises(RuntimeWarning) as grid:
                f(ref, 0.1, [0.5, a])
            assert str(grid.value) == str(single.value)
