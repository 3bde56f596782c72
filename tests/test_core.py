import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import copy_joint, event_slice, event_slice_zy
from hypothesis import given, settings
from hypothesis import strategies as st

import sibsonmi.core as core
from sibsonmi.core import (
    Alpha,
    EventMask,
    Joint2,
    Joint3,
    Joint4,
    Kernel,
    Pmf,
    _log,
    absolutely_continuous,
    conditional,
    marginal,
    markov_extend,
    markov_product,
    tensor_power,
)
from sibsonmi.errors import (
    ResourceLimitError,
    ShapeMismatchError,
    ValidationError,
)
from sibsonmi.bounds import bound_cor_sdpi, bound_thm1, bound_thm3
from sibsonmi.divergences import hellinger_integral
from sibsonmi.hyptest import exponent_sweep, theorem6_checks, threshold_test
from sibsonmi.instances import random_joint3, random_markov_joint
from sibsonmi.oracles import cond_ygz_oracle, cond_z_oracle, min_weighted_radius
from sibsonmi.sdpi import contraction_search, sdpi_conditional_check
from sibsonmi.sibson import additivity_check, info_radius, lmgf_representation


def uniform_joint(shape=(2, 2, 2)):
    n = np.prod(shape)
    return Joint3(
        tuple(map(str, range(shape[0]))),
        tuple(map(str, range(shape[1]))),
        tuple(map(str, range(shape[2]))),
        np.full(shape, 1.0 / n),
    )


@st.composite
def integer_pmfs(draw, size):
    weights = draw(
        st.lists(st.integers(0, 100), min_size=size, max_size=size).filter(
            lambda w: sum(w) > 0
        )
    )
    return np.asarray(weights, dtype=float) / sum(weights)


class TestValidation:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegativity"):
            Pmf(("a", "b"), (-0.1, 1.1))

    def test_negative_entry_message_prints_python_numbers(self):
        # no numpy scalar reprs, so the text is the same under numpy 1 and 2
        with pytest.raises(ValidationError) as info:
            Pmf(["a", "b"], [-0.1, 1.1])
        assert str(info.value) == "pmf violates nonnegativity: entry (0,) = -0.1"

    def test_pmf_rejects_bad_mass(self):
        with pytest.raises(ValidationError, match="normalisation"):
            Pmf(("a", "b"), (0.6, 0.6))

    def test_pmf_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Pmf(("a", "a"), (0.5, 0.5))

    def test_joint3_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Joint3(("0",), ("0", "1"), ("0",), np.ones((2, 1, 1)))

    def test_arrays_frozen(self, ref):
        with pytest.raises(ValueError):
            ref.probs[0, 0, 0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructors_reject_non_finite(self, bad):
        cells = np.full((2, 2, 2), 0.125)
        cells[1, 0, 1] = bad
        builders = (
            lambda: Pmf(("a", "b"), (bad, 1.0)),
            lambda: Joint2(("0", "1"), ("0", "1"), cells[:, :, 1] * 2),
            lambda: Joint3(("0", "1"), ("0", "1"), ("0", "1"), cells),
            lambda: Joint4(("0",), ("0", "1"), ("0", "1"), ("0", "1"), cells[None]),
            lambda: Kernel(("0", "1"), ("0", "1"), [[0.5, 0.5], [bad, 1.0]]),
        )
        for build in builders:
            with pytest.raises(ValidationError, match="non-finite"):
                build()

    def test_kernel_rows_are_checked_as_measures(self):
        with pytest.raises(ValidationError) as info:
            Kernel(("0", "1"), ("0", "1"), [[0.5, 0.5], [1.5, -0.5]])
        assert str(info.value) == "kernel violates nonnegativity: entry (1, 1) = -0.5"

    def test_event_mask_must_be_boolean(self, ref):
        # a float mask used to be cast, every nonzero cell counted in
        with pytest.raises(ValidationError,
                           match="^event mask must be boolean, got dtype float64$"):
            bound_thm3(ref, EventMask(np.full(ref.shape, 0.5)), 2)
        with pytest.raises(ValidationError, match="dtype int64"):
            EventMask(np.ones(ref.shape, dtype=np.int64))

    def test_kernel_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            Kernel(("0",), ("0", "1"), [[0.5, 0.6]])

    def test_kernel_unreachable_rows_zero(self):
        k = Kernel(("0", "1"), ("0", "1"), [[0.5, 0.5], [0, 0]], (True, False))
        assert not k.reachable[1]


class TestAlpha:
    def test_finite(self):
        assert Alpha(2.0).value == 2.0
        assert Alpha(0.5).is_finite

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.0, math.inf, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            Alpha(bad)

    def test_coerce(self):
        assert Alpha.coerce("one") is Alpha.ONE
        assert Alpha.coerce("inf") is Alpha.INFINITY
        assert Alpha.coerce(1.0) == Alpha.ONE
        assert Alpha.coerce(math.inf) == Alpha.INFINITY
        assert Alpha.coerce(Alpha(3)).value == 3.0
        assert Alpha.coerce("2.5").value == 2.5
        assert Alpha.coerce("1.0") is Alpha.ONE
        assert Alpha.coerce("1") is Alpha.ONE
        assert Alpha.coerce("Infinity") is Alpha.INFINITY

    @pytest.mark.parametrize("bad", ["abc", "", "nan", "-inf", "0"])
    def test_coerce_rejects_bad_strings(self, bad):
        with pytest.raises(ValidationError):
            Alpha.coerce(bad)

    def test_symbolic_flags(self):
        assert Alpha.ONE.is_one and not Alpha.ONE.is_finite
        assert Alpha.INFINITY.is_inf and not Alpha.INFINITY.is_finite

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        v=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
            lambda v: v != 1.0
        )
    )
    def test_label_reads_back_as_the_order(self, v):
        assert float(str(Alpha(v))) == v

    def test_short_labels_kept_where_they_read_back(self):
        assert [str(Alpha(v)) for v in (2.0, 0.5, 1e-05, 1e20, 1.0000001)] == [
            "2", "0.5", "1e-05", "1e+20", "1.0000001"
        ]
        assert str(Alpha(1 / 3)) == "0.3333333333333333"

    def test_recorded_report_labels_unchanged(self):
        expected = pathlib.Path(__file__).parent.parent / "perfbench" / "expected"
        labels = set()
        for path in expected.glob("*/*.txt"):
            head, _, table = path.read_text().partition("\n\n")
            for line in head.splitlines():
                if line.startswith("alpha: "):
                    labels.update(line[len("alpha: "):].split(","))
            lines = table.splitlines()
            if lines and "alpha" in lines[0].split("\t"):
                col = lines[0].split("\t").index("alpha")
                labels.update(line.split("\t")[col] for line in lines[1:])
        labels.discard("")  # rows that take no order
        assert len(labels) >= 4
        assert all(str(Alpha.coerce(label)) == label for label in labels)


def whole_array_structure(probs):
    """``(pz, reach, cxy, cx, cy)`` from whole-array operations: the
    formula the structure's z-blocks must reproduce bit for bit."""
    pz = probs.sum(axis=(0, 1))
    reach = pz > 0
    cxy = np.zeros((probs.shape[2], *probs.shape[:2]))
    np.divide(np.moveaxis(probs, 2, 0), pz[:, None, None], out=cxy,
              where=reach[:, None, None])
    return pz, reach, cxy, cxy.sum(axis=2), cxy.sum(axis=1)


@st.composite
def sparse_probs(draw):
    """Joint arrays of up to 5x5x9 with zero cells and unreachable z."""
    shape = tuple(draw(st.integers(1, n)) for n in (5, 5, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.random(shape) * (rng.random(shape) < 0.7)
    for z in range(shape[2]):
        if draw(st.integers(0, 3)) == 0:
            w[:, :, z] = 0.0
    if w.sum() == 0:
        w[(0, 0, 0)] = 1.0
    return w / w.sum()


class TestConditionalsGivenZ:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(probs=sparse_probs(), block_cells=st.sampled_from((1, 5, 12, 1 << 16)))
    def test_blocks_match_the_whole_array_formula(self, probs, block_cells):
        # z-blocks of one z up to the whole joint, each its own structure
        with mock.patch.object(core, "_BLOCK_CELLS", block_cells):
            j = Joint3(*[tuple(map(str, range(n))) for n in probs.shape], probs)
            s = j._z_structure()
            got = j.conditionals_given_z()
        want = whole_array_structure(j.probs)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        cxy = want[2]
        for b in s.blocks():
            assert s.cxy_block(b).tobytes() == cxy[b].tobytes()
        ridx = np.flatnonzero(s.reach)
        assert s.cxy_block(ridx).tobytes() == cxy[ridx].tobytes()

    def test_whole_array_is_built_on_first_call_only(self, rng):
        j = random_joint3(rng, (2, 3, 4))
        s = j._z_structure()
        assert s.cxy is None
        cxy = j.conditionals_given_z()[2]
        assert s.cxy is cxy and j.conditionals_given_z()[2] is cxy

    def test_structure_holds_no_copy_of_the_joint(self, rng):
        j = random_joint3(rng, (3, 4, 5))
        s = j._z_structure()
        assert s.probs is j.probs
        for name in ("pz", "reach", "cx", "cy", "lpz", "lcx", "lcy"):
            assert getattr(s, name).size < j.probs.size

    def test_arrays_read_only_and_shared(self, rng):
        j = random_joint3(rng, (2, 3, 4))
        first = j.conditionals_given_z()
        second = j.conditionals_given_z()
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_swap_xy_builds_its_own(self, rng):
        j = random_joint3(rng, (2, 3, 4))
        pz, reach, cxy, cx, cy = j.conditionals_given_z()
        spz, sreach, scxy, scx, scy = j.swap_xy().conditionals_given_z()
        assert scxy is not cxy
        assert np.array_equal(scxy, np.transpose(cxy, (0, 2, 1)))
        assert np.array_equal(scx, cy) and np.array_equal(scy, cx)
        assert np.array_equal(spz, pz) and np.array_equal(sreach, reach)

    def test_constructor_copies_its_input(self):
        probs = np.full((2, 2, 2), 0.125)
        j = Joint3(("0", "1"), ("0", "1"), ("0", "1"), probs)
        probs[0, 0, 0] = 0.5
        assert not np.shares_memory(j.probs, probs)
        assert np.all(j.probs == 0.125) and not j.probs.flags.writeable
        assert probs.flags.writeable

    def test_unreachable_z_has_zero_slices(self):
        probs = np.zeros((2, 2, 3))
        probs[:, :, 0] = 0.25
        j = Joint3(("0", "1"), ("0", "1"), ("a", "b", "c"), probs)
        pz, reach, cxy, cx, cy = j.conditionals_given_z()
        assert reach.tolist() == [True, False, False]
        assert not cxy[1:].any() and not cx[1:].any() and not cy[1:].any()
        assert np.allclose(cxy[0], 0.25)


class TestMarginal:
    def test_uniform_z(self):
        got = marginal(uniform_joint(), {"z"})
        assert np.allclose(got.probs, [0.5, 0.5])

    def test_reference_z_by_triple_loop(self, ref):
        got = marginal(ref, {"z"})
        # independent oracle: direct triple-loop summation
        expect = [0.0, 0.0]
        for ix in range(2):
            for iy in range(2):
                for iz in range(2):
                    expect[iz] += ref.probs[ix, iy, iz]
        assert np.allclose(got.probs, expect, atol=1e-12)
        assert np.allclose(got.probs, [0.5, 0.5], atol=1e-12)

    def test_all_axes_total_mass(self, ref):
        got = marginal(ref, {"x", "y", "z"})
        assert abs(got.probs.sum() - 1.0) <= 1e-12

    def test_two_axes(self, ref):
        jxy = marginal(ref, {"x", "y"})
        assert isinstance(jxy, Joint2)
        assert np.allclose(jxy.probs, [[0.375, 0.125], [0.125, 0.375]])

    def test_empty_axes_rejected(self, ref):
        with pytest.raises(ShapeMismatchError):
            marginal(ref, set())


class TestConditional:
    def test_reference_x_given_z(self, ref):
        k = conditional(ref, "x", "z")
        assert np.allclose(k.rows, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_copy_joint_identity_rows(self):
        k = conditional(copy_joint(2), "x", "z")
        assert np.allclose(k.rows, np.eye(2))

    def test_zero_mass_row_flagged(self):
        probs = np.zeros((2, 2, 2))
        probs[:, :, 0] = 0.25
        j = Joint3(("0", "1"), ("0", "1"), ("0", "1"), probs)
        k = conditional(j, "x", "z")
        assert k.reachable[0] and not k.reachable[1]
        assert np.all(k.rows[1] == 0)


class TestMarkovProduct:
    def test_reference_is_uniform(self, ref):
        assert np.allclose(markov_product(ref).probs, 0.125, atol=1e-12)

    def test_idempotent_on_markov_joint(self, rng):
        j = random_markov_joint(rng, (2, 3, 2))
        assert np.allclose(markov_product(j).probs, j.probs, atol=1e-12)

    def test_copy_joint(self):
        mp = markov_product(copy_joint(2))
        # per z slice: both conditionals are point masses at z
        for z in range(2):
            expect = np.zeros((2, 2))
            expect[z, z] = 0.5
            assert np.allclose(mp.probs[:, :, z], expect)

    def test_double_application_fixed_point(self, rng):
        for _ in range(25):
            j = random_joint3(rng, (2, 2, 3), zero_cells=int(rng.integers(0, 4)))
            m = markov_product(j)
            assert np.allclose(markov_product(m).probs, m.probs, atol=1e-12)


def _full(j):
    return EventMask.full(j.shape)


# every order gate is core._order, whose message names the function and
# the order it got
ORDER_GATES = [
    (lambda j: info_radius([[0.5, 0.5]], [1.0], 0.5),
     "info_radius needs a finite order above 1, got order 0.5"),
    (lambda j: lmgf_representation(j, "one"),
     "lmgf_representation needs a finite order above 1, got order one"),
    (lambda j: additivity_check(j, "inf", 2),
     "additivity_check needs a finite order, got order inf"),
    (lambda j: contraction_search(Kernel(("0",), ("0",), [[1.0]]), 0.5),
     "contraction_searches needs a finite order above 1, got order 0.5"),
    (lambda j: sdpi_conditional_check(None, "inf", None),
     "sdpi_conditional_check needs a finite order above 1, got order inf"),
    (lambda j: bound_thm1(j, _full(j), 1.0),
     "bound_thm1 needs a finite order above 1, got order one"),
    (lambda j: bound_thm3(j, _full(j), 0.5),
     "bound_thm3 needs a finite order above 1, got order 0.5"),
    (lambda j: bound_cor_sdpi(None, None, 0.25, 1.0),
     "bound_cor_sdpi needs a finite order above 1, got order 0.25"),
    (lambda j: hellinger_integral([0.5, 0.5], [0.5, 0.5], "inf"),
     "hellinger_integral needs a finite order, got order inf"),
    (lambda j: cond_z_oracle(j, "one"),
     "cond_z_oracles needs a finite order, got order one"),
    (lambda j: cond_ygz_oracle(j, "inf"),
     "cond_ygz_oracles needs a finite order, got order inf"),
    (lambda j: min_weighted_radius([[0.5, 0.5]], [1.0], 1.0),
     "min_weighted_radius needs a finite order, got order one"),
    (lambda j: theorem6_checks(j, threshold_test(j, 0.5, 2), [2.0, 0.5]),
     "theorem6_checks needs an order above 1, got order 0.5"),
    (lambda j: exponent_sweep(j, threshold_test(j, 0.5, 2), ["inf", "one"], [2]),
     "exponent_sweep needs an order above 1, got order one"),
]


# the structure gates of core that no other test reaches
STRUCTURE_GATES = [
    (lambda j: Kernel(("0", "1"), ("0",), [[1.0], [1.0], [1.0]]),
     ShapeMismatchError, "kernel needs shape (2, 1), got (3, 1)"),
    (lambda j: Kernel(("0", "1"), ("0",), [[1.0], [1.0]], [True]),
     ShapeMismatchError, "reachable flag has wrong length"),
    (lambda j: Kernel(("0", "1"), ("0",), [[1.0], [1.0]], [True, False]),
     ValidationError, "unreachable kernel rows must be all zero"),
    (lambda j: EventMask(np.ones((2, 2), dtype=bool)),
     ShapeMismatchError, "event mask must be 3-dimensional, got 2"),
    (lambda j: tensor_power(j, 0), ValidationError, "tensor power needs n >= 1, got 0"),
    (lambda j: Pmf((), []), ValidationError, "pmf labels must not be empty"),
    (lambda j: marginal(j, ["w"]),
     ShapeMismatchError, "axis must be one of ('x', 'y', 'z'), got 'w'"),
    (lambda j: conditional(j, "y", "Y"),
     ShapeMismatchError, "target and conditioning axes must differ"),
]


class TestEntryGates:
    @pytest.mark.parametrize("call, error, message", STRUCTURE_GATES,
                             ids=["kernel_shape", "reach_length", "unreachable_row",
                                  "mask_ndim", "power_n", "empty_labels", "axis_name",
                                  "same_axes"])
    def test_structure_gates(self, ref, call, error, message):
        with pytest.raises(error) as info:
            call(ref)
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", ORDER_GATES,
                             ids=[m.split()[0] for _, m in ORDER_GATES])
    def test_orders_out_of_range_name_function_and_order(self, ref, call, message):
        with pytest.raises(ValidationError) as info:
            call(ref)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, error, message", [
        ([math.inf, 1.0], ValidationError, "weights has a non-finite entry (0,) = inf"),
        ([math.nan, 1.0], ValidationError, "weights has a non-finite entry (0,) = nan"),
        ([1.0, -0.5], ValidationError, "weights violates nonnegativity: entry (1,) = -0.5"),
        ([0.0, 0.0], ValidationError, "weights need a positive sum"),
        ([1.0], ShapeMismatchError, "2 measures need one weight each, got shape (1,)"),
    ], ids=["inf", "nan", "negative", "zero_sum", "count"])
    def test_radius_and_its_oracle_share_one_weights_gate(self, weights, error, message):
        # min_weighted_radius used to price an infinite weight as (inf, [0, 1])
        measures = [[0.5, 0.5], [0.2, 0.8]]
        for radius in (info_radius, min_weighted_radius):
            with pytest.raises(error) as info:
                radius(measures, weights, 2)
            assert str(info.value) == message


class TestAbsolutelyContinuous:
    def test_reflexive(self, ref):
        assert absolutely_continuous(ref, ref)

    def test_zero_cell_breaks_domination(self):
        p = uniform_joint()
        q_arr = np.full((2, 2, 2), 1 / 7)
        q_arr[0, 0, 0] = 0.0
        q = Joint3(p.x_labels, p.y_labels, p.z_labels, q_arr)
        assert not absolutely_continuous(p, q)
        assert absolutely_continuous(q, p)

    def test_reference_vs_markov_product(self, ref):
        assert absolutely_continuous(ref, markov_product(ref))

    def test_shape_mismatch(self, ref):
        with pytest.raises(ShapeMismatchError):
            absolutely_continuous(ref, np.ones(4) / 4)

    def test_labels_must_match(self, ref):
        # read by position, a z-relabelled q used to pass as dominating
        relabelled = Joint3(ref.x_labels, ref.y_labels, ("1", "0"), ref.probs)
        message = "^labelled inputs live on different alphabets"
        with pytest.raises(ShapeMismatchError, match=message):
            absolutely_continuous(ref, relabelled)
        with pytest.raises(ShapeMismatchError, match=message):
            absolutely_continuous(Pmf(("a", "b"), [1.0, 0.0]), Pmf(("b", "a"), [0.0, 1.0]))
        assert absolutely_continuous(ref, relabelled.probs)


class TestEventSlices:
    def test_full_mask_slice(self, ref):
        e = EventMask.full(ref.shape)
        assert event_slice(e, ref, "0").all()

    def test_diagonal_slice(self, ref):
        e = EventMask.from_predicate(ref, lambda x, y, z: x == y)
        got = event_slice(e, ref, "0")
        assert np.array_equal(got, np.eye(2, dtype=bool))

    def test_empty_zy_slice(self, ref):
        e = EventMask.empty(ref.shape)
        assert not event_slice_zy(e, ref, "0", "1").any()

    def test_slice_counts_compose(self, ref, rng):
        e = EventMask(rng.random(ref.shape) < 0.5)
        per_z = sum(
            int(event_slice(e, ref, z).sum()) for z in ref.z_labels
        )
        assert per_z == e.count()

    def test_conformality_enforced(self, ref):
        with pytest.raises(ShapeMismatchError):
            event_slice(EventMask.full((2, 2, 3)), ref, "0")


class TestTensorPower:
    def test_identity_at_one(self, ref):
        assert tensor_power(ref, 1) is ref

    def test_uniform_square(self):
        t = tensor_power(uniform_joint(), 2)
        assert t.shape == (4, 4, 4)
        assert np.allclose(t.probs, 1.0 / 64)

    def test_mass_preserved(self, ref):
        assert abs(tensor_power(ref, 3).probs.sum() - 1.0) <= 1e-12

    def test_block_marginals_recover_base(self, rng):
        j = random_joint3(rng, (2, 2, 2))
        t = tensor_power(j, 2)
        blocks = t.probs.reshape(2, 2, 2, 2, 2, 2)
        first = blocks.sum(axis=(1, 3, 5))
        second = blocks.sum(axis=(0, 2, 4))
        assert np.allclose(first, j.probs, atol=1e-12)
        assert np.allclose(second, j.probs, atol=1e-12)

    def test_cell_cap(self, ref):
        # 8^8 = 16,777,216 cells pass the 10^7 cap; nothing is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                tensor_power(ref, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_product_labels(self, ref):
        t = tensor_power(ref, 2)
        assert t.x_labels[0] == ("0", "0")
        assert t.x_labels[1] == ("0", "1")


class TestJoint4:
    def test_markov_extend_is_markov(self, rng):
        base = random_joint3(rng, (2, 3, 2))
        channel = Kernel(
            base.y_labels, ("a", "b"), rng.dirichlet(np.ones(2), size=3)
        )
        j4 = markov_extend(base, channel)
        assert j4.markov_defect_zw_x_y() <= 1e-12
        assert np.allclose(j4.marginal_wxz().probs, base.probs, atol=1e-12)

    def test_markov_defect_detects_violation(self, rng):
        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        from sibsonmi.core import Joint4

        j4 = Joint4(("0", "1"), ("0", "1"), ("0", "1"), ("0", "1"), probs)
        assert j4.markov_defect_zw_x_y() > 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weights=integer_pmfs(8))
def test_markov_product_idempotent_property(weights):
    j = Joint3(("0", "1"), ("0", "1"), ("0", "1"), weights.reshape(2, 2, 2))
    m = markov_product(j)
    again = markov_product(m)
    assert np.max(np.abs(again.probs - m.probs)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weights=integer_pmfs(12))
def test_z_reconstruction_property(weights):
    j = Joint3(("0", "1"), ("0", "1"), ("0", "1", "2"), weights.reshape(2, 2, 3))
    pz = j.probs.sum(axis=(0, 1))
    rebuilt = np.zeros_like(j.probs)
    for z in np.flatnonzero(pz > 0):
        rebuilt[:, :, z] = (j.probs[:, :, z] / pz[z]) * pz[z]
    assert np.max(np.abs(rebuilt - j.probs)) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.text(max_size=8) | st.sampled_from(["nan", "-inf", "1e400", "1_0", " 2 ", "0"]))
def test_alpha_coerce_text_gives_order_or_validation_error(text):
    try:
        a = Alpha.coerce(text)
    except ValidationError:
        return
    assert isinstance(a, Alpha) and a.value > 0


def _log_compress_and_scatter(a, fill=-math.inf):
    """The logs of the positive entries gathered, taken and scattered back:
    the form ``_log`` replaced with a masked in-place log."""
    out = np.full(a.shape, fill)
    pos = a > 0
    out[pos] = np.log(a[pos])
    return out


@pytest.mark.parametrize("fill", [-math.inf, 0.0])
def test_in_place_log_matches_compress_and_scatter(fill):
    # every length across the SIMD widths, zero runs at every offset,
    # subnormals, and contiguous, offset and strided views
    rng = np.random.default_rng(29)
    for n in range(1, 71):
        for _ in range(8):
            a = 10.0 ** rng.uniform(-325.0, 300.0, 2 * n + 1)
            a[rng.random(a.size) < 0.2] = rng.choice([5e-324, 1e-310, 2.2e-308])
            for _ in range(rng.integers(0, 4)):
                lo = int(rng.integers(0, a.size))
                a[lo:lo + int(rng.integers(1, 9))] = 0.0
            a[rng.random(a.size) < 0.05] = rng.choice([-1.0, math.nan, math.inf])
            for view in (a[:n], a[1:n + 1], a[::2][:n]):
                assert _log(view, fill).tobytes() == (
                    _log_compress_and_scatter(view, fill).tobytes()
                )
    cells = rng.random((4, 5, 7))
    cells[cells < 0.3] = 0.0
    cells[0, 0, :3] = 5e-324
    for view in (cells, np.moveaxis(cells, 2, 0)):
        assert _log(view, fill).tobytes() == _log_compress_and_scatter(view, fill).tobytes()
