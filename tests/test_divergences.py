import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sibsonmi.core import Alpha
from sibsonmi.divergences import (
    _hellinger_rows,
    _logsumexp,
    _renyi_orders,
    hellinger_integral,
    kl_divergence,
    renyi_divergence,
    renyi_limit_check,
)
from sibsonmi.errors import (
    PreconditionError,
    ShapeMismatchError,
    ValidationError,
)
from sibsonmi.instances import random_kernel, random_pmf

BERN_HALF = np.array([0.5, 0.5])
BERN_QUARTER = np.array([0.25, 0.75])
KL_HALF_QUARTER = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)


@st.composite
def integer_pmfs(draw, size):
    weights = draw(
        st.lists(st.integers(1, 60), min_size=size, max_size=size)
    )
    return np.asarray(weights, dtype=float) / sum(weights)


def fsum_logsumexp(values) -> float:
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


class TestLogsumexp:
    def test_all_neg_inf(self):
        assert _logsumexp([-math.inf, -math.inf]) == -math.inf
        rows = np.array([[-math.inf, -math.inf], [0.0, -math.inf]])
        assert _logsumexp(rows, axis=1).tolist() == [-math.inf, 0.0]
        assert _logsumexp(rows, axis=0).tolist() == [0.0, -math.inf]

    def test_any_pos_inf(self):
        assert _logsumexp([1.0, math.inf, -math.inf]) == math.inf
        rows = np.array([[math.inf, 3.0], [-math.inf, 3.0]])
        assert _logsumexp(rows, axis=1).tolist() == [math.inf, 3.0]

    def test_pos_inf_beside_a_term_past_the_exp_range(self):
        # the finite terms of a slice that holds +inf are never
        # exponentiated, so nothing overflows (Tier-1 makes a warning fail)
        assert _logsumexp([800.0, math.inf]) == math.inf
        rows = np.array([[800.0, math.inf], [800.0, -math.inf], [-math.inf, -math.inf]])
        assert _logsumexp(rows, axis=1).tolist() == [math.inf, 800.0, -math.inf]
        assert _logsumexp(rows, axis=0).tolist() == [800.0 + math.log(2.0), math.inf]
        p, q = [0.5, 0.25, 0.25], [0.0, 1e-30, 1 - 1e-30]
        assert hellinger_integral(p, q, 30.0) == math.inf

    @pytest.mark.parametrize("centre", [-700.0, 0.0, 700.0])
    def test_against_fsum(self, centre):
        rng = np.random.default_rng(5)
        a = centre + rng.uniform(-9.0, 9.0, size=(3, 5))
        a[0, 2] = -math.inf
        whole = _logsumexp(a)
        assert isinstance(whole, float)
        assert whole == pytest.approx(fsum_logsumexp(a.ravel().tolist()), rel=1e-14)
        for axis in (0, 1):
            got = _logsumexp(a, axis=axis)
            lines = a.T if axis == 0 else a
            assert got.shape == (a.shape[1 - axis],)
            want = [fsum_logsumexp(line.tolist()) for line in lines]
            assert got == pytest.approx(want, rel=1e-14)


class TestRenyi:
    @pytest.mark.parametrize("a", [0.5, 2.0, 7.0, Alpha.ONE, Alpha.INFINITY])
    def test_zero_at_equal(self, a):
        assert renyi_divergence(BERN_QUARTER, BERN_QUARTER, a) == 0.0

    def test_bern_order_two(self):
        got = renyi_divergence(BERN_HALF, BERN_QUARTER, 2)
        # term-by-term oracle: sum p^2 / q
        oracle = math.log(0.25 / 0.25 + 0.25 / 0.75)
        assert abs(got - math.log(4 / 3)) <= 1e-12
        assert abs(got - oracle) <= 1e-12

    def test_infinite_without_domination(self):
        assert renyi_divergence(BERN_HALF, [1.0, 0.0], 2) == math.inf
        assert renyi_divergence(BERN_HALF, [1.0, 0.0], Alpha.ONE) == math.inf
        assert renyi_divergence(BERN_HALF, [1.0, 0.0], Alpha.INFINITY) == math.inf

    def test_order_below_one_ignores_q_gaps(self):
        got = renyi_divergence(BERN_HALF, [1.0, 0.0], 0.5)
        # only the overlapping atom survives: (1/(a-1)) log p^a q^(1-a)
        assert abs(got - (math.log(0.5**0.5) / -0.5)) <= 1e-12

    def test_disjoint_supports_infinite_below_one(self):
        assert renyi_divergence([1.0, 0.0], [0.0, 1.0], 0.5) == math.inf

    def test_kl_value(self):
        assert abs(kl_divergence(BERN_HALF, BERN_QUARTER) - KL_HALF_QUARTER) <= 1e-12

    def test_sup_order_value(self):
        got = renyi_divergence(BERN_HALF, BERN_QUARTER, Alpha.INFINITY)
        assert abs(got - math.log(2.0)) <= 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            renyi_divergence(BERN_HALF, np.ones(3) / 3, 2)

    def test_large_order_stable(self):
        p = np.array([0.9, 0.05, 0.05])
        q = np.array([0.05, 0.05, 0.9])
        v = renyi_divergence(p, q, 100.0)
        assert math.isfinite(v)
        assert abs(v - renyi_divergence(p, q, Alpha.INFINITY)) < 0.1


class TestHellinger:
    def test_one_at_equal(self):
        assert abs(hellinger_integral(BERN_QUARTER, BERN_QUARTER, 2) - 1.0) <= 1e-12

    def test_bern_value(self):
        got = hellinger_integral(BERN_HALF, BERN_QUARTER, 2)
        # oracle: exp((a-1) D_a)
        oracle = math.exp(renyi_divergence(BERN_HALF, BERN_QUARTER, 2))
        assert abs(got - 4 / 3) <= 1e-12
        assert abs(got - oracle) <= 1e-9

    def test_infinite_without_domination(self):
        assert hellinger_integral(BERN_HALF, [1.0, 0.0], 2) == math.inf

    def test_needs_finite_order(self):
        with pytest.raises(ValidationError):
            hellinger_integral(BERN_HALF, BERN_QUARTER, Alpha.ONE)

    def test_sides_of_one(self, rng):
        for _ in range(50):
            p = random_pmf(rng, 4).probs
            q = random_pmf(rng, 4).probs
            assert hellinger_integral(p, q, 2.5) >= 1.0 - 1e-12
            assert hellinger_integral(p, q, 0.5) <= 1.0 + 1e-12


class TestConsistency:
    def test_renyi_vs_hellinger(self, rng):
        for _ in range(100):
            p = random_pmf(rng, 5).probs
            q = random_pmf(rng, 5).probs
            for a in (0.5, 1.5, 2.0, 4.0):
                d = renyi_divergence(p, q, a)
                h = hellinger_integral(p, q, a)
                assert abs(d - math.log(h) / (a - 1.0)) <= 1e-9

    def test_alpha_monotonicity(self, rng):
        grid = np.geomspace(0.1, 50, 20)
        grid = grid[np.abs(grid - 1.0) > 1e-9]
        for _ in range(100):
            p = random_pmf(rng, 3).probs
            q = random_pmf(rng, 3).probs
            vals = [renyi_divergence(p, q, Alpha(a)) for a in grid]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-10

    def test_reference_measure_free_form(self, rng):
        # the defining sum does not depend on which side carries the
        # densities: p^a q^(1-a) summed everywhere equals p (q/p)^(1-a)
        # summed over the support of p
        for _ in range(60):
            p = random_pmf(rng, 4).probs
            q = random_pmf(rng, 4).probs
            for a in (0.3, 0.7, 2.0, 4.0):
                lhs = float(np.sum(p**a * q ** (1 - a)))
                sup = p > 0
                rhs = float(np.sum(p[sup] * (q[sup] / p[sup]) ** (1 - a)))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestDataProcessing:
    def test_hellinger_dpi(self, rng):
        for _ in range(500):
            k = random_kernel(rng, 3, 3)
            mu = random_pmf(rng, 3).probs
            nu = random_pmf(rng, 3).probs
            for a in (1.5, 2.0, 4.0):
                assert (
                    hellinger_integral(mu @ k.rows, nu @ k.rows, a)
                    <= hellinger_integral(mu, nu, a) + 1e-12
                )


class TestLimitCheck:
    def test_equal_measures_zero_deviation(self):
        rep = renyi_limit_check(BERN_HALF, BERN_HALF, (1e-1, 1e-2, 1e-3))
        assert all(r.deviation <= 1e-12 for r in rep.rows)
        assert rep.monotone

    def test_bern_within_tolerance(self):
        rep = renyi_limit_check(BERN_HALF, BERN_QUARTER, (1e-4,))
        assert abs(rep.kl - KL_HALF_QUARTER) <= 1e-12
        assert rep.final_deviation <= 1e-4

    def test_deviations_shrink(self):
        rep = renyi_limit_check(
            [0.9, 0.1], [0.1, 0.9], (1e-1, 1e-2, 1e-3, 1e-4)
        )
        assert rep.monotone
        devs = [r.deviation for r in rep.rows]
        assert devs == sorted(devs, reverse=True)

    def test_requires_domination(self):
        with pytest.raises(PreconditionError):
            renyi_limit_check(BERN_HALF, [1.0, 0.0], (1e-2,))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=integer_pmfs(4), q=integer_pmfs(4), a=st.sampled_from([0.5, 1.5, 2.0, 8.0]))
def test_nonnegativity_property(p, q, a):
    assert renyi_divergence(p, q, a) >= 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=integer_pmfs(4), q=integer_pmfs(4))
def test_zero_iff_equal_property(p, q):
    d = renyi_divergence(p, q, 2.0)
    if np.max(np.abs(p - q)) > 1e-6:
        assert d > 0.0
    else:
        assert d <= 1e-10


class TestPowerSumConventions:
    """Zero-mass conventions that the shared log-space power sum carries."""

    def test_empty_sum(self):
        assert _logsumexp(np.array([])) == -math.inf

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_empty_support_of_p(self, a):
        zero = np.zeros(2)
        assert renyi_divergence(zero, BERN_HALF, a) == math.inf
        assert hellinger_integral(zero, BERN_HALF, a) == 0.0

    def test_disjoint_supports_below_one(self):
        assert hellinger_integral([1.0, 0.0], [0.0, 1.0], 0.5) == 0.0
        got = hellinger_integral(BERN_HALF, [1.0, 0.0], 0.5)
        assert got == pytest.approx(0.5**0.5, rel=1e-15)


@st.composite
def _row_stacks(draw):
    """Two (n, k) stacks of pmf rows, k < 8: zero cells, rows with q equal
    to p, q = 0 against p > 0, and 1e-60 cells that overflow at order 8."""
    k, n = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    cell = st.sampled_from((0.0, 0.0, 1.0, 2.0, 3.0, 7.0, 1e-60))

    def row():
        w = np.array(draw(st.lists(cell, min_size=k, max_size=k).filter(any)))
        return w / w.sum()

    p = np.array([row() for _ in range(n)])
    q = np.array([p[i] if draw(st.booleans()) else row() for i in range(n)])
    return p, q


class TestHellingerRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pq=_row_stacks(), a=st.sampled_from((0.3, 0.5, 1.5, 2.0, 4.0, 8.0)))
    def test_rows_match_scalar_bitwise(self, pq, a):
        p, q = pq
        rows = _hellinger_rows(p, q, a)
        each = np.array([hellinger_integral(pi, qi, a) for pi, qi in zip(p, q)])
        assert rows.tobytes() == each.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pq=_row_stacks(), a=st.sampled_from((0.3, 0.5, 1.5, 2.0, 4.0, 8.0)))
    def test_rows_match_linear_definition(self, pq, a):
        # sum over p > 0 of p (p/q)^(a-1) in linear space, written out: a
        # q = 0 cell is +inf above order 1 and 0 below it; rows equal
        # within the mass tolerance are 1 by contract
        p, q = pq
        sup = p > 0
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.where(sup, p, 1.0) / np.where(sup, q, 1.0)
            want = np.where(sup, p * ratio ** (a - 1.0), 0.0).sum(axis=1)
        want[np.all(np.abs(p - q) <= 1e-12, axis=1)] = 1.0
        got = _hellinger_rows(p, q, a)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)

    def test_conventions(self):
        p = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [1 - 1e-60, 1e-60, 0.0]])
        q = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [1e-60, 1 - 1e-60, 0.0]])
        # equal rows, q = 0 against p > 0, and a sum past the float range
        assert _hellinger_rows(p, q, 8.0).tolist() == [1.0, math.inf, math.inf]
        below = _hellinger_rows(p, q, 0.5)
        assert below[0] == 1.0
        assert below[1] == hellinger_integral(p[1], q[1], 0.5)
        assert below[1] == pytest.approx(0.5**0.5, rel=1e-15)


class TestRenyiOrders:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pq=_row_stacks(), orders=st.lists(
        st.sampled_from((1e-6, 0.3, 1 - 1e-4, 1 + 1e-4, 2.0, 8.0, 50.0))
        | st.floats(0.01, 60.0).filter(lambda a: a != 1.0),
        min_size=1, max_size=10,
    ))
    def test_orders_match_single_calls_bitwise(self, pq, orders):
        # equal rows, zero cells and q = 0 against p > 0 come from the rows
        p, q = pq[0][0], pq[1][0]
        with np.errstate(over="ignore"):
            got = _renyi_orders(p, q, np.array(orders))
            each = np.array([renyi_divergence(p, q, a) for a in orders])
        assert got.tobytes() == each.tobytes()

    def test_conventions(self):
        orders = np.array([0.5, 2.0])
        assert _renyi_orders(BERN_HALF, BERN_HALF, orders).tolist() == [0.0, 0.0]
        # q = 0 against p > 0: +inf above order 1, finite below it
        below, above = _renyi_orders(BERN_HALF, [1.0, 0.0], orders).tolist()
        assert above == math.inf and below == renyi_divergence(BERN_HALF, [1.0, 0.0], 0.5)
        assert _renyi_orders([1.0, 0.0], [0.0, 1.0], orders).tolist() == [math.inf] * 2

    @pytest.mark.parametrize("a", [1e-310, 5e-324, 1.7e308])
    def test_extreme_orders_warn_as_single_calls(self, a):
        p, q = np.array([0.2, 0.8]), np.array([0.6, 0.4])

        def outcome(f):
            try:
                return np.float64(f()).tobytes()
            except RuntimeWarning as exc:
                return str(exc)

        want = outcome(lambda: renyi_divergence(p, q, a))
        assert outcome(lambda: _renyi_orders(p, q, np.array([0.5, a]))[1]) == want
