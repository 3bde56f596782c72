import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sibsonmi.core import Alpha, Joint3, Pmf
from sibsonmi.errors import (
    InequalityViolation,
    ResourceLimitError,
    ShapeMismatchError,
    ValidationError,
)
from sibsonmi.hyptest import (
    EXACT_DP,
    MONTE_CARLO,
    SCORE_QUANT,
    _qz_grid,
    exact_errors,
    exponent_sweep,
    monte_carlo_errors,
    theorem6_check,
    theorem6_checks,
    threshold_test,
)
from sibsonmi.instances import random_joint3, random_markov_joint, reference_joint
from sibsonmi.sibson import additivity_check, cond_sibson_z

LOG2 = math.log(2)
TAUS = (-math.inf, 0.0, 0.25, 0.5, 0.7, math.inf)


def _reference_exact(j, test, step=0.01):
    """The dict convolution over all cells, once per grid row.

    Decides sides of n tau on the quantised lattice, so it can differ
    from the method of types only by mass inside the tie band.
    """
    n, tau = test.n, test.tau
    finite = np.isfinite(test.scores).ravel()
    q = np.zeros(finite.shape, dtype=np.int64)
    q[finite] = np.round(test.scores.ravel()[finite] / SCORE_QUANT)

    def base(flat):
        dist = {}
        for p, s, ok in zip(flat, q, finite):
            if p > 0 and ok:
                dist[int(s)] = dist.get(int(s), 0.0) + float(p)
        return dist

    def convolve(b):
        dist = {0: 1.0}
        for _ in range(n):
            nxt = {}
            for s1, p1 in dist.items():
                for s2, p2 in b.items():
                    nxt[s1 + s2] = nxt.get(s1 + s2, 0.0) + p1 * p2
            dist = nxt
        return dist

    def below(dist):
        return sum(p for s, p in dist.items() if s * SCORE_QUANT < n * tau)

    if math.isinf(tau):
        p1 = float(tau > 0)
    else:
        p1 = below(convolve(base(j.probs.ravel())))
    _, _, _, cx, cy = j.conditionals_given_z()
    type2 = []
    for qz in _qz_grid(j, step):
        if math.isinf(tau):
            type2.append(float(tau < 0))
            continue
        alt = convolve(base(np.einsum("zx,zy,z->xyz", cx, cy, qz).ravel()))
        type2.append(min(max(sum(alt.values()) - below(alt), 0.0), 1.0))
    return p1, type2


class TestThresholdTest:
    def test_reference_score_table(self, ref):
        t = threshold_test(ref, 0.0, 1)
        # z = '0': log 2 on the diagonal, -inf off it; z = '1': zero
        assert np.allclose(np.diag(t.scores[:, :, 0]), LOG2)
        assert np.all(np.isneginf(t.scores[[0, 1], [1, 0], 0]))
        assert np.allclose(t.scores[:, :, 1], 0.0)

    def test_finite_on_null_support(self, rng):
        for _ in range(10):
            j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
            t = threshold_test(j, 0.3, 2)
            assert np.all(np.isfinite(t.scores[j.probs > 0]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(*[st.integers(1, 4)] * 3),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.integers(0, 8),
        concentration=st.sampled_from([0.1, 1.0, 5.0]),
    )
    def test_score_table_matches_the_plain_log_ratio(self, shape, seed, zeros, concentration):
        # where no P(x|z) P(y|z) underflows under a positive P(x,y|z), the
        # table is log(P(x,y|z) / (P(x|z) P(y|z))) bit for bit, -inf off it
        j = random_joint3(np.random.default_rng(seed), shape, zeros, concentration)
        _, _, cxy, cx, cy = j.conditionals_given_z()
        pos = cxy > 0
        prod = cx[:, :, None] * cy[:, None, :]
        assume(np.all(prod[pos] > 0))
        by_z = np.full(cxy.shape, -math.inf)
        by_z[pos] = np.log(cxy[pos] / prod[pos])
        assert threshold_test(j, 0.3, 2).scores.tobytes() == np.moveaxis(by_z, 0, 2).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_where_the_product_underflows(self):
        # P(x|z) P(y|z) = 1e-600 is 0 in float64 under the cell of mass 1e-300
        j = Joint3(["0", "1"], ["0", "1"], ["0"], np.array([1e-300, 0, 0, 1]).reshape(2, 2, 1))
        t = threshold_test(j, 0.5, 2)
        assert t.scores[0, 0, 0] == math.log(1e-300) - 2 * math.log(1e-300)
        assert t.scores[1, 1, 0] == 0.0

    def test_rejects_bad_n(self, ref):
        with pytest.raises(ValidationError):
            threshold_test(ref, 0.0, 0)

    def test_rejects_nan_tau(self, ref):
        with pytest.raises(ValidationError):
            threshold_test(ref, math.nan, 2)


class TestExactErrors:
    def test_always_accept(self, ref):
        er = exact_errors(ref, threshold_test(ref, -math.inf, 2))
        assert er.p1 == 0.0 and er.p2_worst == 1.0
        assert er.method == EXACT_DP

    def test_always_reject(self, ref):
        er = exact_errors(ref, threshold_test(ref, math.inf, 2))
        assert er.p1 == 1.0 and er.p2_worst == 0.0

    def test_reference_n1_tau0(self, ref):
        # full enumeration oracle over all 8 triples: the null never scores
        # below zero, and the alternative concentrated on z='1' always
        # scores exactly zero
        er = exact_errors(ref, threshold_test(ref, 0.0, 1))
        assert er.p1 == 0.0
        assert er.p2_worst == 1.0

    def test_reference_rates_match_binomial_form(self, ref):
        # for tau in (0, log2) the type-2 mass under q = Q_Z('0') is
        # sum_{m >= ceil(n tau / log 2)} C(n,m) (q/2)^m (1-q)^(n-m)
        tau, n = 0.5, 4
        er = exact_errors(ref, threshold_test(ref, tau, n), qz_grid_step=0.01)
        t = math.ceil(n * tau / LOG2)
        for row in er.qz_table:
            q = row.qz[0]
            want = sum(
                math.comb(n, m) * (q / 2) ** m * (1 - q) ** (n - m)
                for m in range(t, n + 1)
            )
            assert abs(row.type2 - want) <= 1e-12

    def test_worst_alternative_dominates_pz(self, ref, rng):
        for _ in range(5):
            j = random_joint3(rng, (2, 2, 2))
            er = exact_errors(j, threshold_test(j, 0.2, 2))
            pz = tuple(j.probs.sum(axis=(0, 1)))
            at_pz = [
                r.type2
                for r in er.qz_table
                if max(abs(a - b) for a, b in zip(r.qz, pz)) <= 1e-12
            ]
            assert at_pz and er.p2_worst >= at_pz[0] - 1e-12

    def test_state_cap(self, ref):
        with pytest.raises(ResourceLimitError):
            exact_errors(ref, threshold_test(ref, 0.5, 8), state_cap=3)

    def test_threshold_monotonicity(self, ref):
        p1s, p2s = [], []
        for tau in TAUS:
            er = exact_errors(ref, threshold_test(ref, tau, 3))
            p1s.append(er.p1)
            p2s.append(er.p2_worst)
        assert all(b >= a - 1e-12 for a, b in zip(p1s, p1s[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(p2s, p2s[1:]))

    def test_matches_dict_convolution(self):
        rng = np.random.default_rng(7)
        shapes = ((2, 2, 2), (2, 3, 2), (3, 2, 3))
        for case in range(6):
            j = random_joint3(rng, shapes[case % 3], zero_cells=case % 3)
            if case == 5:  # z='1' unreachable
                p = j.probs.copy()
                p[:, :, 1] = 0.0
                j = Joint3(j.x_labels, j.y_labels, j.z_labels, p / p.sum())
            for n in (1, 2, 3, 4):
                for tau in TAUS:
                    t = threshold_test(j, tau, n)
                    er = exact_errors(j, t, qz_grid_step=0.25)
                    p1, type2 = _reference_exact(j, t, 0.25)
                    assert er.tie_mass == 0.0
                    assert abs(er.p1 - p1) <= 1e-12
                    assert len(er.qz_table) == len(type2)
                    for row, want in zip(er.qz_table, type2):
                        assert abs(row.type2 - want) <= 1e-12

    def test_exact_at_threshold(self, ref):
        # each quantised log 2 overshoots by 4.4e-10, which used to put
        # the all-diagonal sequences at or above n tau
        tau = LOG2 + 4e-10
        t = threshold_test(ref, tau, 3)
        er = exact_errors(ref, t)
        assert er.p1 == 1.0
        assert er.tie_mass > 0
        pz = ref.probs.sum(axis=(0, 1))
        assert monte_carlo_errors(ref, t, [pz], 2000, seed=0).p1 == 1.0

    def test_tie_mass_covers_alternatives(self, ref):
        # at tau = 0 the null ties only on z='1' (mass 1/2), the
        # alternative concentrated on z='1' always ties
        assert exact_errors(ref, threshold_test(ref, 0.0, 1)).tie_mass == 1.0

    @pytest.mark.parametrize("shape, n", [((2, 2, 3), 10**6), ((2, 2, 4), 200)])
    def test_type_count_capped_before_allocating(self, shape, n):
        # the second case stays inside the float range of the weights
        j = random_joint3(np.random.default_rng(3), shape)
        t = threshold_test(j, 0.5, n)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                exact_errors(j, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_power_tables_share_the_cap(self):
        # one z with four distinct scores: every sum table of n=22 has at
        # most 2024 * 4 pairs, but its 22 powers hold C(26, 4) - 1 = 14949
        j = random_joint3(np.random.default_rng(5), (2, 2, 1))
        with pytest.raises(ResourceLimitError):
            exact_errors(j, threshold_test(j, 0.5, 22), state_cap=10**4)
        exact_errors(j, threshold_test(j, 0.5, 17), state_cap=10**4)

    def test_float_weight_cap(self, ref):
        # 2^1100 bounds Mult(1100; m) but no float does
        with pytest.raises(ResourceLimitError):
            exact_errors(ref, threshold_test(ref, 0.5, 1100))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_exact_errors_bounded_and_monotone_property(seed, n):
    rng = np.random.default_rng(seed)
    j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
    p1s, p2s = [], []
    for tau in TAUS:
        er = exact_errors(j, threshold_test(j, tau, n), qz_grid_step=0.1)
        values = [er.p1, er.p2_worst] + [r.type2 for r in er.qz_table]
        assert all(0.0 <= v <= 1.0 for v in values)
        p1s.append(er.p1)
        p2s.append(er.p2_worst)
    assert all(b >= a - 1e-12 for a, b in zip(p1s, p1s[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(p2s, p2s[1:]))


class TestMonteCarlo:
    def test_agrees_with_exact(self, ref):
        t = threshold_test(ref, 0.5, 3)
        er = exact_errors(ref, t)
        pz = ref.probs.sum(axis=(0, 1))
        mc = monte_carlo_errors(
            ref, t, [pz, np.array([1.0, 0.0]), np.array([0.3, 0.7])],
            trials=100_000, seed=5,
        )
        assert mc.method == MONTE_CARLO
        assert abs(mc.p1 - er.p1) <= 3 * mc.p1_halfwidth
        for row in mc.qz_table:
            exact_row = min(
                er.qz_table,
                key=lambda r: max(abs(a - b) for a, b in zip(r.qz, row.qz)),
            )
            assert abs(row.type2 - exact_row.type2) <= 3 * row.halfwidth

    def test_always_accept_estimate(self, ref):
        t = threshold_test(ref, -math.inf, 2)
        mc = monte_carlo_errors(ref, t, [np.array([0.5, 0.5])], 1000, seed=0)
        assert mc.p1 == 0.0
        assert mc.p2_worst == 1.0

    def test_type2_of_one_has_the_exact_rate(self, ref):
        # the sampled rate of a type-2 error of 1 used to be -log(1)/n = -0.0
        t = threshold_test(ref, -math.inf, 2)
        mc = monte_carlo_errors(ref, t, [np.array([0.5, 0.5])], 1000, seed=0)
        er = exact_errors(ref, t)
        assert math.copysign(1.0, mc.rate_R) == math.copysign(1.0, er.rate_R) == 1.0
        assert mc.rate_R == er.rate_R == 0.0

    def test_deterministic(self, ref):
        t = threshold_test(ref, 0.4, 2)
        qz = [np.array([0.6, 0.4])]
        a = monte_carlo_errors(ref, t, qz, 5000, seed=9)
        b = monte_carlo_errors(ref, t, qz, 5000, seed=9)
        assert a.p1 == b.p1 and a.qz_table == b.qz_table

    @pytest.mark.parametrize("qz, error, message", [
        # one entry used to broadcast as the uniform Q_Z, reported as (1.0,)
        ([1.0], ShapeMismatchError, "Q_Z needs 2 entries, one per z symbol, got (1,)"),
        ([1, 0, 0], ShapeMismatchError, "Q_Z needs 2 entries, one per z symbol, got (3,)"),
        ([-0.5, 1.5], ValidationError, "Q_Z violates nonnegativity: entry (0,) = -0.5"),
        ([math.nan, 1], ValidationError, "Q_Z has a non-finite entry (0,) = nan"),
        ([0, 0], ValidationError,
         "Q_Z violates normalisation: total mass 0.0 differs from 1 by more than 1e-12"),
        # used to be priced as (0.5, 0.5) and reported as (2.0, 2.0)
        ([2, 2], ValidationError,
         "Q_Z violates normalisation: total mass 4.0 differs from 1 by more than 1e-12"),
    ], ids=["short", "long", "negative", "nan", "zero", "unnormalised"])
    def test_each_qz_is_checked_before_sampling(self, ref, qz, error, message):
        t = threshold_test(ref, 0.5, 3)
        with pytest.raises(error) as info:
            monte_carlo_errors(ref, t, [[0.5, 0.5], qz], 100, seed=0)
        assert str(info.value) == message

    @pytest.mark.parametrize("labels", [("1", "0"), ("a", "b")], ids=["reordered", "foreign"])
    def test_labelled_qz_must_carry_the_z_labels(self, ref, labels):
        # a labelled Q_Z used to be read by position: ("1", "0") with
        # (0.1, 0.9) was priced as Q_Z(z="0") = 0.1
        t = threshold_test(ref, 0.5, 3)
        message = f"labelled inputs live on different alphabets: ({labels!r},) vs (('0', '1'),)"
        with pytest.raises(ShapeMismatchError) as info:
            monte_carlo_errors(ref, t, [Pmf(labels, [0.1, 0.9])], 100, seed=0)
        assert str(info.value) == message
        on_z = monte_carlo_errors(ref, t, [Pmf(ref.z_labels, [0.9, 0.1])], 2000, seed=0)
        bare = monte_carlo_errors(ref, t, [np.array([0.9, 0.1])], 2000, seed=0)
        assert on_z.qz_table == bare.qz_table

    def test_qz_on_an_unreachable_z_is_rejected(self):
        probs = np.zeros((2, 2, 2))
        probs[:, :, 0] = 0.25
        j = Joint3(("0", "1"), ("0", "1"), ("0", "1"), probs)
        with pytest.raises(ValidationError, match="^alternative weights a z symbol with no "
                                                   "conditional structure$"):
            monte_carlo_errors(j, threshold_test(j, 0.5, 2), [[0.5, 0.5]], 100, seed=0)


class TestTestGates:
    def test_score_table_of_another_shape(self, ref):
        t = threshold_test(random_joint3(np.random.default_rng(0), (2, 3, 2)), 0.5, 2)
        for call in (lambda: exact_errors(ref, t),
                     lambda: monte_carlo_errors(ref, t, [[0.5, 0.5]], 100, seed=0)):
            with pytest.raises(ShapeMismatchError,
                               match="^score table does not match the joint shape$"):
                call()

    def test_score_table_of_another_joint_of_the_shape(self, ref):
        # ref has zero cells, so its scores are -inf where the uniform joint has mass
        uniform = Joint3(("0", "1"), ("0", "1"), ("0", "1"), np.full((2, 2, 2), 0.125))
        with pytest.raises(ValidationError,
                           match="^null distribution puts mass off its own product support$"):
            exact_errors(uniform, threshold_test(ref, 0.5, 2))


class TestTheorem6:
    def test_vacuous_when_rate_below_measure(self, ref):
        t = threshold_test(ref, 0.5, 2)
        rep = theorem6_check(ref, t, 2, claimed_rate=0.1)
        assert rep.certified
        assert rep.rhs >= 1.0  # R below the measure: true but vacuous
        assert rep.lhs <= rep.rhs + 1e-9

    def test_reference_sweep(self, ref):
        for n in range(1, 9):
            t = threshold_test(ref, 0.5, n)
            for a in (1.5, 2.0, 4.0, 16.0):
                rep = theorem6_check(ref, t, a, claimed_rate=0.5)
                assert rep.certified
                assert rep.lhs <= rep.rhs + 1e-9
                assert rep.claimed_rate > rep.i_alpha_z

    def test_markov_joint_certifies_structurally(self, rng):
        j = random_markov_joint(rng, (2, 2, 2))
        t = threshold_test(j, 0.5, 3)
        rep = theorem6_check(j, t, 2, claimed_rate=0.5)
        assert rep.certified
        assert rep.lhs <= rep.rhs + 1e-9
        assert math.isinf(rep.grid_rate)

    def test_auto_claim_default(self, ref):
        t = threshold_test(ref, 0.5, 3)
        rep = theorem6_check(ref, t, 2)
        assert rep.certified
        assert abs(rep.claimed_rate - (rep.grid_rate - 1e-3)) <= 1e-15

    def test_uncertified_when_claim_too_high(self, ref):
        t = threshold_test(ref, 0.5, 1)
        rep = theorem6_check(ref, t, 2, claimed_rate=10.0)
        assert not rep.certified

    def test_uncertified_at_zero_rate(self, ref):
        # tau = 0 lets the all-z1 alternative match the threshold exactly
        t = threshold_test(ref, 0.0, 2)
        rep = theorem6_check(ref, t, 2)
        assert not rep.certified

    def test_rejects_low_order(self, ref):
        with pytest.raises(ValidationError):
            theorem6_check(ref, threshold_test(ref, 0.5, 1), 0.5)

    def test_sup_order_allowed(self, ref):
        t = threshold_test(ref, 0.5, 2)
        rep = theorem6_check(ref, t, Alpha.INFINITY, claimed_rate=0.5)
        assert rep.certified and rep.lhs <= rep.rhs + 1e-9

    def test_rejects_nan_claim(self, ref):
        with pytest.raises(ValidationError, match="claimed rate"):
            theorem6_check(ref, threshold_test(ref, 0.5, 3), 2, claimed_rate=math.nan)

    def test_tensorization_consistency(self, ref):
        # the n-fold measure used implicitly by the bound equals n times
        # the single-letter value
        for n in (1, 2, 3):
            lhs, rhs = additivity_check(ref, 2, n)
            assert abs(lhs - rhs) <= 1e-8


class TestExponentSweep:
    def test_reference_sweep_rows_hold(self, ref):
        sw = exponent_sweep(
            ref,
            threshold_test(ref, 0.5, 1),
            (1.5, 2.0, 4.0, 16.0),
            range(1, 9),
            claimed_rate=0.5,
        )
        assert len(sw.rows) == 32
        for row in sw.rows:
            assert row.certified
            assert row.empirical <= row.bound + 1e-9

    def test_best_bound_dominates_singles(self, ref):
        sw = exponent_sweep(
            ref, threshold_test(ref, 0.5, 1), (1.5, 2.0, Alpha.INFINITY), (1, 2, 3)
        )
        for n, best in sw.best_bound:
            singles = [r.bound for r in sw.rows if r.n == n]
            assert all(best <= s + 1e-15 for s in singles)

    def test_reproducible(self, ref):
        args = (ref, threshold_test(ref, 0.5, 1), (2.0,), (1, 2))
        assert exponent_sweep(*args).rows == exponent_sweep(*args).rows

    def test_rejects_small_orders(self, ref):
        with pytest.raises(ValidationError):
            exponent_sweep(ref, threshold_test(ref, 0.5, 1), (0.5,), (1,))

    def test_rejects_nan_claim(self, ref):
        with pytest.raises(ValidationError, match="claimed rate"):
            exponent_sweep(ref, threshold_test(ref, 0.5, 1), (2.0,), (1, 2),
                           claimed_rate=math.nan)


def _count_calls(monkeypatch, name, fn=None):
    """Record the positional arguments of every call to ``hyptest.<name>``,
    which runs ``fn`` (default: the function itself)."""
    import sibsonmi.hyptest as hyptest

    calls = []
    fn = fn or getattr(hyptest, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(hyptest, name, counted)
    return calls


class TestSweepSharesDecayReport:
    def test_one_exact_errors_per_n_and_one_measure_per_order(self, ref, monkeypatch):
        exact = _count_calls(monkeypatch, "exact_errors")
        measure = _count_calls(monkeypatch, "cond_sibson_z")
        grid = _count_calls(monkeypatch, "cond_sibson_z_values")
        orders = (1.5, 2.0, 4.0, Alpha.INFINITY)
        exponent_sweep(ref, threshold_test(ref, 0.5, 1), orders, (1, 2, 3))
        assert [args[1].n for args in exact] == [1, 2, 3]
        # the finite orders in one grid call, the sup order on its own
        assert [list(args[1]) for args in grid] == [[Alpha.coerce(a) for a in orders[:3]]]
        assert [args[1] for args in measure] == [Alpha.INFINITY]

    @pytest.mark.parametrize("tau, claimed", [(0.5, 0.5), (0.5, None), (9.0, None)])
    def test_rows_are_decay_check_exponents(self, ref, tau, claimed):
        # tau = 9 is above every score: a silent test with an infinite claim
        test = threshold_test(ref, tau, 1)
        sw = exponent_sweep(ref, test, (1.5, 2.0, Alpha.INFINITY), (1, 2, 3),
                            claimed_rate=claimed)
        assert len(sw.rows) == 9
        for row in sw.rows:
            t6 = theorem6_check(ref, threshold_test(ref, tau, row.n), row.alpha,
                                claimed_rate=claimed)
            assert row.empirical == t6.empirical_exponent
            assert row.bound == t6.bound_exponent
            assert row.certified == t6.certified
        if tau == 9.0:
            assert all(r.bound == -math.inf for r in sw.rows)


def _report_fields(report):
    """Every field of a dataclass report, nested reports as their fields."""
    return {
        f.name: _report_fields(v) if dataclasses.is_dataclass(v) else v
        for f in dataclasses.fields(report)
        for v in [getattr(report, f.name)]
    }


class TestTheorem6Checks:
    @pytest.mark.parametrize(
        "tau, claimed", [(0.5, 0.5), (0.5, None), (0.0, None), (9.0, None), (0.5, 0.1)]
    )
    def test_one_table_matches_one_order_checks(self, ref, monkeypatch, tau, claimed):
        orders = (1.5, 2.0, 4.0, Alpha.INFINITY)
        test = threshold_test(ref, tau, 3)
        singles = [theorem6_check(ref, test, a, 0.05, claimed) for a in orders]
        exact = _count_calls(monkeypatch, "exact_errors")
        er, reports = theorem6_checks(ref, test, orders, 0.05, claimed)
        assert len(exact) == 1
        assert [r.exact for r in reports] == [er] * len(orders)
        assert [_report_fields(r) for r in reports] == [
            _report_fields(t6) for t6 in singles
        ]

    def test_no_orders_still_prices_the_table(self, ref):
        test = threshold_test(ref, 0.5, 2)
        er, reports = theorem6_checks(ref, test, ())
        assert reports == []
        assert _report_fields(er) == _report_fields(exact_errors(ref, test))

    @pytest.mark.parametrize(
        "orders, claimed, message",
        [((), math.nan, "claimed rate"), ((2.0, 0.5), 0.5, "order above 1"),
         ((2.0,), math.nan, "claimed rate")],
    )
    def test_arguments_checked_before_pricing(self, ref, monkeypatch, orders,
                                              claimed, message):
        exact = _count_calls(monkeypatch, "exact_errors")
        with pytest.raises(ValidationError, match=message):
            theorem6_checks(ref, threshold_test(ref, 0.5, 3), orders,
                            claimed_rate=claimed)
        assert exact == []

    def test_raises_at_the_first_failing_order(self, ref, monkeypatch):
        # a measure far below the claim makes the certified bound fail
        def measure(j, alphas):
            return np.array([-100.0 if a == Alpha(4.0) else cond_sibson_z(j, a).value_nats
                             for a in alphas])

        _count_calls(monkeypatch, "cond_sibson_z_values", measure)
        test = threshold_test(ref, 0.5, 3)
        with pytest.raises(InequalityViolation, match="order 4:"):
            theorem6_checks(ref, test, (2.0, 4.0, 8.0), claimed_rate=0.5)

    def test_a_nan_side_fails_the_check(self, ref, monkeypatch):
        # a NaN I^Z makes the rhs NaN, which used to pass the check
        def measure(j, alphas):
            return np.array([math.nan if a == Alpha(4.0) else cond_sibson_z(j, a).value_nats
                             for a in alphas])

        _count_calls(monkeypatch, "cond_sibson_z_values", measure)
        test = threshold_test(ref, 0.5, 3)
        with pytest.raises(InequalityViolation, match="order 4: .* > nan$"):
            theorem6_checks(ref, test, (2.0, 4.0, 8.0), claimed_rate=0.5)
