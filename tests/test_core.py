import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from conftest import copy_joint, event_slice, event_slice_zy
from hypothesis import given, settings
from hypothesis import strategies as st

from sibsonmi.core import (
    Alpha,
    EventMask,
    Joint2,
    Joint3,
    Joint4,
    Kernel,
    Pmf,
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
from sibsonmi.instances import random_joint3, random_markov_joint


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


class TestConditionalsGivenZ:
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
