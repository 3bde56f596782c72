import itertools
import math

import numpy as np
import pytest
from conftest import compose
from hypothesis import given, settings
from hypothesis import strategies as st

from sibsonmi import sdpi
from sibsonmi.core import Alpha, Kernel
from sibsonmi.errors import (
    InequalityViolation,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from sibsonmi.instances import (
    random_joint2,
    random_kernel,
    random_markov_joint4,
)
from sibsonmi.sdpi import (
    contraction_search,
    contraction_searches,
    sdpi_conditional_check,
    sdpi_unconditional_check,
)
from sibsonmi.sibson import sibson_mi


def binary_kernel(rows):
    return Kernel(("0", "1"), ("0", "1"), rows)


def scalar_contraction_search(k, a, budget, seed):
    """The per-start coordinate ascent, one pair per evaluation; the
    reference the lockstep batch must match bit for bit.  Returns both
    etas, both witnesses, the most sweeps any start ran and the
    discarded count."""
    av = Alpha.coerce(a).value
    d = len(k.in_labels)
    rng = np.random.default_rng(seed)
    mus = rng.dirichlet(np.ones(d), size=budget)
    nus = rng.dirichlet(np.ones(d), size=budget)
    distinct = np.max(np.abs(mus - nus), axis=1) > 1e-12
    mus, nus = mus[distinct], nus[distinct]
    d_in, d_out = sdpi._pair_values(k.rows, mus, nus, av)
    lit = sdpi._scored(sdpi._literal(d_in, d_out))
    norm = sdpi._scored(sdpi._normalized(d_in, d_out))

    def ascend(ratio, order_scores):
        def score(mu, nu):
            pair = sdpi._pair_values(k.rows, mu[None], nu[None], av)
            return float(sdpi._scored(ratio(*pair))[0])

        best_val, best_pair = -math.inf, None
        for idx in np.argsort(order_scores)[-10:]:
            mu, nu = mus[idx].copy(), nus[idx].copy()
            val = score(mu, nu)
            for it in range(100):
                sweeps[0] = max(sweeps[0], it + 1)
                delta = (0.1, 0.03, 0.01, 0.003, 0.001)[min(it // 20, 4)]
                improved = False
                for vec in (mu, nu):
                    for i in range(d):
                        for sign in (1.0, -1.0):
                            cand = vec.copy()
                            cand[i] = max(cand[i] + sign * delta, sdpi._ASCENT_FLOOR)
                            cand /= cand.sum()
                            old = vec.copy()
                            vec[:] = cand
                            trial = score(mu, nu)
                            if trial > val + 1e-15:
                                val = trial
                                improved = True
                            else:
                                vec[:] = old
                if not improved:
                    break
            if val > best_val:
                best_val, best_pair = val, (mu.copy(), nu.copy())
        return best_val, best_pair

    sweeps = [0]
    lit_best, lit_wit = ascend(sdpi._literal, lit)
    norm_best, norm_wit = ascend(sdpi._normalized, norm)
    lit_best = max(lit_best, float(np.max(lit, initial=0.0)))
    norm_best = max(norm_best, float(np.max(norm, initial=0.0)), 0.0)
    return norm_best, lit_best, norm_wit, lit_wit, sweeps[0], budget - len(mus)


def _labels(n):
    return tuple(str(i) for i in range(n))


def _search_cases():
    orders = (1.01, 1.5, 2.0, 4.0, 7.3)
    budgets = (1, 2, 10, 300, 1000, 2000)
    for idx, (d, m) in enumerate(itertools.product((2, 3, 4, 8), (2, 3, 8))):
        k = random_kernel(np.random.default_rng(idx), d, m)
        yield f"random-{d}x{m}", k, orders[idx % 5], budgets[idx % 6], idx
    yield "identity-3", Kernel(_labels(3), _labels(3), np.eye(3)), 4.0, 300, 1
    yield "identity-8", Kernel(_labels(8), _labels(8), np.eye(8)), 1.5, 10, 2
    const = Kernel(_labels(4), _labels(3), np.tile([0.2, 0.3, 0.5], (4, 1)))
    yield "constant-4x3", const, 2.0, 1000, 3
    # at this order every input divergence stays below the 1e-6
    # denominator cutoff, so every normalised value is -inf
    flat = binary_kernel([[0.3, 0.7], [0.3, 0.7]])
    yield "constant-all-inf", flat, 1.0 + 1e-8, 2, 4
    yield "single-input", Kernel(_labels(1), _labels(2), [[0.4, 0.6]]), 2.0, 5, 5


def _same_pair(p, q):
    if p is None or q is None:
        return p is None and q is None
    return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(p, q))


def _fields(est):
    """Every searched field of an estimate, witnesses as raw bytes."""

    def raw(pair):
        return None if pair is None else tuple(
            (x.dtype.str, x.tobytes()) for x in pair
        )

    return (
        est.eta_normalized,
        est.eta_ratio_lower,
        raw(est.witness_normalized),
        raw(est.witness_ratio),
        est.ascent_sweeps,
        est.discarded,
    )


def _scalar_fields(k, a, budget, seed):
    norm, lit, norm_wit, lit_wit, sweeps, discarded = scalar_contraction_search(
        k, a, budget, seed
    )
    est = sdpi.ContractionEstimate(
        Alpha.coerce(a), norm, lit, norm_wit, lit_wit, budget, seed, sweeps, discarded
    )
    return _fields(est)


@st.composite
def _kernel_batches(draw):
    """1-4 kernels of one random (d, m) shape with d, m in 1..4: random
    rows from small integer weights (zero cells included), identity
    kernels and constant kernels; d = 1 discards every sampled pair."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def row():
        w = draw(
            st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any)
        )
        return np.array(w, dtype=float) / sum(w)

    kernels = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("random", "identity", "constant")))
        if kind == "identity" and d == m:
            rows = np.eye(d)
        elif kind == "constant":
            rows = np.tile(row(), (d, 1))
        else:
            rows = np.array([row() for _ in range(d)])
        kernels.append(Kernel(_labels(d), _labels(m), rows))
    seeds = draw(
        st.lists(st.integers(0, 2**16), min_size=len(kernels), max_size=len(kernels))
    )
    return kernels, seeds


class TestContractionSearch:
    def test_identity_kernel(self):
        est = contraction_search(binary_kernel(np.eye(2)), 2, budget=500, seed=0)
        assert est.eta_normalized == 1.0
        assert est.eta_ratio_lower == 1.0

    def test_constant_kernel(self):
        est = contraction_search(
            binary_kernel([[0.5, 0.5], [0.5, 0.5]]), 2, budget=500, seed=0
        )
        assert est.eta_normalized == 0.0
        assert est.eta_ratio_lower <= 1.0 + 1e-9

    def test_bsc_half_is_constant(self):
        est = contraction_search(
            binary_kernel([[0.5, 0.5], [0.5, 0.5]]), 2, budget=500, seed=3
        )
        assert est.eta_normalized == 0.0

    def test_bsc_known_order_two_value(self):
        # order-2 normalised contraction of a binary symmetric channel is
        # (1 - 2 eps)^2 (the chi-square contraction)
        est = contraction_search(
            binary_kernel([[0.9, 0.1], [0.1, 0.9]]), 2, budget=10_000, seed=1
        )
        assert abs(est.eta_normalized - 0.64) <= 1e-4

    def test_bounds_in_unit_interval(self, rng):
        for i in range(10):
            k = random_kernel(rng, 3, 2)
            est = contraction_search(k, 2, budget=1000, seed=i)
            assert 0.0 <= est.eta_normalized <= 1.0 + 1e-9
            assert 0.0 < est.eta_ratio_lower <= 1.0 + 1e-9

    def test_deterministic_given_seed(self, rng):
        k = random_kernel(rng, 2, 3)
        a = contraction_search(k, 2, budget=1500, seed=7)
        b = contraction_search(k, 2, budget=1500, seed=7)
        assert a.eta_normalized == b.eta_normalized
        assert a.eta_ratio_lower == b.eta_ratio_lower
        assert np.array_equal(a.witness_normalized[0], b.witness_normalized[0])
        assert np.array_equal(a.witness_ratio[1], b.witness_ratio[1])

    def test_seed_changes_search_path(self, rng):
        k = random_kernel(rng, 2, 2)
        a = contraction_search(k, 2, budget=300, seed=0)
        b = contraction_search(k, 2, budget=300, seed=1)
        # same kernel, same target; witnesses may differ but both stay valid
        assert a.eta_normalized <= 1 + 1e-9 and b.eta_normalized <= 1 + 1e-9

    def test_composition_nonincreasing(self, rng):
        for i in range(20):
            k1 = random_kernel(rng, 2, 2)
            k2 = random_kernel(rng, 2, 2)
            e1 = contraction_search(k1, 2, budget=2000, seed=i).eta_normalized
            e2 = contraction_search(k2, 2, budget=2000, seed=i).eta_normalized
            e12 = contraction_search(
                compose(k1, k2), 2, budget=2000, seed=i
            ).eta_normalized
            assert e12 <= min(e1, e2) + 1e-3

    def test_requires_order_above_one(self):
        with pytest.raises(ValidationError):
            contraction_search(binary_kernel(np.eye(2)), 0.5, budget=10, seed=0)

    def test_requires_positive_budget(self):
        with pytest.raises(ValidationError):
            contraction_search(binary_kernel(np.eye(2)), 2, budget=0, seed=0)

    @pytest.mark.parametrize(
        "k, a, budget, seed",
        [case[1:] for case in _search_cases()],
        ids=[case[0] for case in _search_cases()],
    )
    def test_lockstep_matches_scalar_ascent(self, k, a, budget, seed):
        est = contraction_search(k, a, budget=budget, seed=seed)
        assert _fields(est) == _scalar_fields(k, a, budget, seed)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        batch=_kernel_batches(),
        a=st.sampled_from((1.01, 1.5, 2.0, 4.0, 7.3)),
        budget=st.sampled_from((1, 3, 9, 1500)),
    )
    def test_batched_searches_match_single_and_scalar(self, batch, a, budget):
        # every estimate against its own single search, and the first
        # against the scalar reference too (the slow part, so only one)
        kernels, seeds = batch
        ests = contraction_searches(kernels, a, budget, seeds)
        assert len(ests) == len(kernels)
        for k, seed, est in zip(kernels, seeds, ests):
            single = contraction_search(k, a, budget, seed)
            assert _fields(est) == _fields(single)
            assert (est.alpha, est.budget, est.seed) == (single.alpha, budget, seed)
        assert _fields(ests[0]) == _scalar_fields(kernels[0], a, budget, seeds[0])

    def test_batched_searches_reject_mixed_shapes(self):
        k2 = random_kernel(np.random.default_rng(0), 2, 2)
        k3 = random_kernel(np.random.default_rng(1), 2, 3)
        with pytest.raises(ValidationError, match="one kernel shape"):
            contraction_searches([k2, k3], 2, 10, [0, 1])

    def test_batched_searches_need_one_seed_per_kernel(self):
        k = random_kernel(np.random.default_rng(0), 2, 2)
        with pytest.raises(ValidationError, match="2 kernels need as many seeds"):
            contraction_searches([k, k], 2, 10, [0])
        assert contraction_searches([], 2, 10, []) == []

    def test_nan_scored_pairs_are_unscored(self):
        d_in = np.array([math.nan, 2.0, 2.0, math.inf])
        d_out = np.array([1.5, math.nan, 1.5, 1.5])
        lit = sdpi._scored(sdpi._literal(d_in, d_out))
        norm = sdpi._scored(sdpi._normalized(d_in, d_out))
        assert lit.tolist() == [-math.inf, -math.inf, 0.75, 0.0]
        assert norm.tolist() == [-math.inf, -math.inf, 0.5, 0.0]

    def test_all_inf_normalised_values_leave_no_witness(self):
        flat = binary_kernel([[0.3, 0.7], [0.3, 0.7]])
        est = contraction_search(flat, 1.0 + 1e-8, budget=2, seed=4)
        assert est.witness_normalized is None
        assert est.eta_normalized == 0.0
        assert est.witness_ratio is not None

    def test_one_evaluation_per_move_for_all_starts(self, monkeypatch):
        calls = []
        fn = sdpi._power_sums

        def counted(*args):
            calls.append(args[0].shape)
            return fn(*args)

        monkeypatch.setattr(sdpi, "_power_sums", counted)
        k = random_kernel(np.random.default_rng(11), 3, 3)
        d = 3
        est = contraction_search(k, 2, budget=2000, seed=0)
        assert 1 <= est.ascent_sweeps <= 100
        # sampling pass, first scores, then one pair of calls per move
        assert len(calls) == 2 + 2 * (1 + 4 * d * est.ascent_sweeps)
        assert len(calls) <= 2 + 2 * (1 + 100 * 4 * d)

    def test_wide_output_passes_cell_cap_before_sampling(self):
        # 5001 pairs fit the cap on 2 inputs, but their 2000-symbol images do not
        wide = Kernel(_labels(2), _labels(2000), np.full((2, 2000), 1 / 2000))
        with pytest.raises(ResourceLimitError):
            contraction_search(wide, 2, budget=5001, seed=0)

    def test_search_diagnostics(self, rng):
        k = random_kernel(rng, 3, 2)
        est = contraction_search(k, 2, budget=1000, seed=0)
        assert 1 <= est.ascent_sweeps <= 100
        assert est.discarded == 0
        single = Kernel(_labels(1), _labels(2), [[0.4, 0.6]])
        est = contraction_search(single, 2, budget=50, seed=0)
        assert est.discarded == 50
        assert est.ascent_sweeps == 0
        assert est.witness_ratio is None and est.witness_normalized is None


class TestConditionalCheck:
    def test_identity_channel_equality(self, rng):
        from sibsonmi.core import markov_extend
        from sibsonmi.instances import random_joint3
        from sibsonmi.sibson import cond_sibson_z

        base = random_joint3(rng, (2, 2, 2))
        ident = Kernel(base.y_labels, base.y_labels, np.eye(2))
        j4 = markov_extend(base, ident)
        est = contraction_search(ident, 2, budget=200, seed=0)
        lhs, rhs = sdpi_conditional_check(j4, 2, est)
        # identity channel: eta = 1 exactly, so the log term vanishes
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - cond_sibson_z(base, 2).value_nats) <= 1e-12

    def test_constant_channel_zero_lhs(self, rng):
        from sibsonmi.core import markov_extend
        from sibsonmi.instances import random_joint3

        base = random_joint3(rng, (2, 2, 2))
        const = Kernel(base.y_labels, ("0", "1"), np.tile([0.3, 0.7], (2, 1)))
        j4 = markov_extend(base, const)
        est = contraction_search(const, 2, budget=500, seed=0)
        lhs, rhs = sdpi_conditional_check(j4, 2, est)
        assert abs(lhs) <= 1e-10
        assert lhs <= rhs + 1e-9

    def test_random_instances(self, rng):
        for i in range(40):
            j4, channel = random_markov_joint4(rng, (2, 2, 2, 2))
            for a in (1.5, 2.0, 4.0):
                est = contraction_search(channel, a, budget=1000, seed=i)
                lhs, rhs = sdpi_conditional_check(j4, a, est)
                assert lhs <= rhs + 1e-9

    def test_markov_violation_rejected(self, rng):
        from sibsonmi.core import Joint4

        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        j4 = Joint4(("0", "1"), ("0", "1"), ("0", "1"), ("0", "1"), probs)
        est = contraction_search(binary_kernel(np.eye(2)), 2, budget=10, seed=0)
        with pytest.raises(PreconditionError):
            sdpi_conditional_check(j4, 2, est)


class TestUnconditionalCheck:
    def test_identity_channel_equality(self, rng):
        jxy = random_joint2(rng, 2, 2)
        ident = Kernel(jxy.x_labels, ("w0", "w1"), np.eye(2))
        est = contraction_search(ident, 2, budget=200, seed=0)
        lhs, rhs = sdpi_unconditional_check(jxy, ident, 2, est)
        assert abs(lhs - sibson_mi(jxy, 2).value_nats) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12

    def test_constant_channel_zero_lhs(self, rng):
        jxy = random_joint2(rng, 2, 3)
        const = Kernel(jxy.x_labels, ("w0", "w1"), np.tile([0.5, 0.5], (2, 1)))
        est = contraction_search(const, 2, budget=500, seed=0)
        lhs, rhs = sdpi_unconditional_check(jxy, const, 2, est)
        assert abs(lhs) <= 1e-10

    def test_random_instances(self, rng):
        for i in range(50):
            jxy = random_joint2(rng, 2, 2)
            channel = random_kernel(rng, 2, 2)
            est = contraction_search(channel, 2, budget=1000, seed=i)
            lhs, rhs = sdpi_unconditional_check(jxy, channel, 2, est)
            assert lhs <= rhs + 1e-9

    @pytest.mark.xfail(
        raises=InequalityViolation,
        strict=True,
        reason="known defect: the check subtracts log(eta)/(a-1) with eta the "
        "searched lower bound of a ratio whose sup is 1, so a search that stops "
        "short reads as a violated inequality",
    )
    def test_selftest_seed_8_unconditional_chain_instance(self):
        # instance i = 13 of the selftest's sdpi.unconditional_chain loop at
        # battery seed 8, which fails by 1.811e-07 > -4.503e-07 + 1e-09
        rng = np.random.default_rng([8, 21])
        for _ in range(13):
            random_joint2(rng, 2, 2)
            random_kernel(rng, 2, 2)
        jxy = random_joint2(rng, 2, 2)
        channel = random_kernel(rng, 2, 2)
        est = contraction_search(channel, 2, budget=2000, seed=8 + 13)
        sdpi_unconditional_check(jxy, channel, 2, est)
