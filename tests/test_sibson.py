import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import copy_joint, independent_joint2, sibson_mi_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from sibsonmi.core import Alpha, Joint2, Joint3, Pmf
from sibsonmi.divergences import renyi_divergence
from sibsonmi.errors import ShapeMismatchError, ValidationError
from sibsonmi.instances import (
    asymmetric_joint,
    random_joint2,
    random_joint3,
    random_markov_joint,
    reference_joint,
    z_constant_joint,
)
from sibsonmi.oracles import (
    cond_ygz_oracle,
    cond_z_oracle,
    min_weighted_radius,
    simplex_grid,
)
import sibsonmi.core as core
import sibsonmi.sibson as sibson
from sibsonmi.sibson import (
    additivity_check,
    cond_maximal_leakage,
    cond_sibson_ygz,
    cond_sibson_z,
    cond_sibson_z_values,
    conditional_mi,
    info_radius,
    lmgf_representation,
    maximal_leakage,
    shannon_mi,
    sibson_mi,
)

I2Z_REF = 2 * math.log((math.sqrt(2) + 1) / 2)
I2YGZ_REF = math.log(1.5)


def product_measure_z(j, qz):
    _, _, _, cx, cy = j.conditionals_given_z()
    return np.einsum("zx,zy,z->xyz", cx, cy, qz)


def product_measure_ygz(j, rows):
    pz = j.probs.sum(axis=(0, 1))
    _, _, _, cx, _ = j.conditionals_given_z()
    return np.einsum("zx,zy,z->xyz", cx, rows, pz)


class TestSibsonMi:
    def test_independent_is_zero(self):
        j = independent_joint2((0.3, 0.7), (0.2, 0.5, 0.3))
        for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            assert abs(sibson_mi(j, a).value_nats) <= 1e-12

    def test_uniform_copy_is_log_m(self):
        j = copy_joint(4).marginal_xy()
        assert abs(sibson_mi(j, 2).value_nats - math.log(4)) <= 1e-12
        # the grid oracle agrees on the same instance (auto-coarsened grid
        # for the 4-symbol output alphabet, polished back to 1e-6)
        val, _ = sibson_mi_oracle(j, 2)
        assert abs(val - math.log(4)) <= 1e-6

    def test_order_one_is_shannon(self, rng):
        for _ in range(10):
            j = random_joint2(rng, 3, 3)
            mi = shannon_mi(j)
            for a in (1 - 1e-4, 1 + 1e-4):
                assert abs(sibson_mi(j, Alpha(a)).value_nats - mi) <= 1e-4
            assert sibson_mi(j, Alpha.ONE).value_nats == pytest.approx(mi, abs=1e-12)

    def test_minimizer_reproduces_value(self, rng):
        for _ in range(10):
            j = random_joint2(rng, 3, 2)
            for a in (0.5, 2.0, 4.0):
                rep = sibson_mi(j, a)
                px = j.marginal_x().probs
                m = np.outer(px, rep.optimizer.probs)
                assert abs(renyi_divergence(j, m, a) - rep.value_nats) <= 1e-8

    def test_oracle_agreement(self, rng):
        joints = [random_joint2(rng, 2, 2) for _ in range(10)]
        # a zero X row and a zero Y column: the grid oracle is the one check
        # of the closed form's support handling that shares none of its code
        for shape, zero in (((3, 2), np.s_[1, :]), ((2, 3), np.s_[:, 2])):
            p = rng.dirichlet(np.ones(6)).reshape(shape)
            p[zero] = 0.0
            joints.append(Joint2(range(shape[0]), range(shape[1]), p / p.sum()))
        for j in joints:
            for a in (0.5, 1.5, 2.0, 4.0):
                val, _ = sibson_mi_oracle(j, a)
                assert abs(val - sibson_mi(j, a).value_nats) <= 1e-5


def _underflow_joint():
    # z = "0" puts 1e-300 on (0, 0), where P(x|z)P(y|z) = 1e-600 is 0 in
    # float64; z = "1" is an ordinary slice
    p = np.zeros((2, 2, 2))
    p[:, :, 0] = [[1e-300, 0.0], [0.0, 0.5]]
    p[:, :, 1] = [[0.2, 0.1], [0.05, 0.15]]
    return Joint3(("0", "1"), ("0", "1"), ("0", "1"), p)


def _log_ratios(j):
    """Per-z lists of (P(x,y|z), log of P(x,y|z)/(P(x|z)P(y|z))) over
    the support, every log-ratio taken from logs."""
    out = []
    for z in range(j.shape[2]):
        c = j.probs[:, :, z] / j.probs[:, :, z].sum()
        cx, cy = c.sum(axis=1), c.sum(axis=0)
        out.append([
            (c[x, y], math.log(c[x, y]) - math.log(cx[x]) - math.log(cy[y]))
            for x in range(2) for y in range(2) if c[x, y] > 0
        ])
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnderflowingProduct:
    def test_order_one(self):
        j = _underflow_joint()
        pz = j.marginal_z().probs
        want = math.fsum(
            pz[z] * c * lr for z, cells in enumerate(_log_ratios(j)) for c, lr in cells
        )
        assert conditional_mi(j) == pytest.approx(want, rel=1e-12)
        for f in (cond_sibson_z, cond_sibson_ygz):
            assert f(j, Alpha.ONE).value_nats == pytest.approx(want, rel=1e-12)

    def test_shannon(self):
        jxy = Joint2(("0", "1"), ("0", "1"), [[1e-300, 0.0], [0.0, 1.0]])
        assert shannon_mi(jxy) == pytest.approx(1e-300 * math.log(1e300), rel=1e-12)

    def test_sup_order(self):
        j = _underflow_joint()
        pz = j.marginal_z().probs
        top = [max(math.exp(lr) for _, lr in cells) for cells in _log_ratios(j)]
        rep = cond_sibson_z(j, Alpha.INFINITY)
        assert rep.value_nats == pytest.approx(math.log(pz @ top), rel=1e-12)
        assert rep.optimizer.probs == pytest.approx(pz * top / (pz @ top), rel=1e-12)


def _overflow_joint():
    # z = "0" puts 1e-320 on (0, 0): its ratio to P(x|z)P(y|z) is about
    # 5e319, past the float range, while its log is finite
    p = np.zeros((2, 2, 2))
    p[:, :, 0] = [[1e-320, 0.0], [0.0, 0.5]]
    p[:, :, 1] = [[0.2, 0.1], [0.05, 0.15]]
    return Joint3(("0", "1"), ("0", "1"), ("0", "1"), p)


class TestOverflowingRatio:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sup_order_in_log_space(self):
        j = _overflow_joint()
        pz = j.marginal_z().probs
        logits = [math.log(pz[z]) + max(lr for _, lr in cells)
                  for z, cells in enumerate(_log_ratios(j))]
        top = max(logits)
        want = top + math.log(math.fsum(math.exp(l - top) for l in logits))
        rep = cond_sibson_z(j, Alpha.INFINITY)
        assert rep.value_nats == pytest.approx(want, rel=1e-12)
        q = [math.exp(l - want) for l in logits]
        assert rep.optimizer.probs == pytest.approx(q, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_order_is_finite(self):
        j = _overflow_joint()
        for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            for f in (cond_sibson_z, cond_sibson_ygz):
                assert math.isfinite(f(j, a).value_nats)


class TestOncePerJoint:
    def test_cached_parts_match_a_fresh_joint(self, rng, monkeypatch):
        # several z-blocks per joint; each fresh joint prices its own
        monkeypatch.setattr(core, "_BLOCK_CELLS", 7)
        joints = [sparse_joint(rng), random_joint3(rng, (3, 4, 6), zero_cells=5),
                  _underflow_joint()]
        for j in joints:
            def fresh():
                return Joint3(j.x_labels, j.y_labels, j.z_labels, j.probs)

            mi = [conditional_mi(j), cond_sibson_z(j, Alpha.ONE).value_nats,
                  cond_sibson_ygz(j, Alpha.ONE).value_nats, conditional_mi(j)]
            assert j._z_structure().cmi is not None
            leak = cond_sibson_ygz(j, Alpha.INFINITY)
            assert j._z_structure().leakage is not None
            want = np.float64(conditional_mi(fresh())).tobytes()
            assert all(np.float64(v).tobytes() == want for v in mi)
            want = cond_sibson_ygz(fresh(), Alpha.INFINITY)
            for got in (leak.value_nats, cond_maximal_leakage(j)):
                assert np.float64(got).tobytes() == np.float64(want.value_nats).tobytes()
            assert np.float64(cond_maximal_leakage(fresh())).tobytes() == (
                np.float64(want.value_nats).tobytes()
            )
            assert leak.optimizer.rows.tobytes() == want.optimizer.rows.tobytes()


class TestMaximalLeakage:
    def test_independent_is_zero(self):
        j = independent_joint2((0.3, 0.7), (0.5, 0.5))
        assert abs(maximal_leakage(j)) <= 1e-12

    def test_copy_is_log_m(self):
        assert abs(maximal_leakage(copy_joint(4).marginal_xy()) - math.log(4)) <= 1e-12

    def test_large_order_converges(self, rng):
        for _ in range(10):
            j = random_joint2(rng, 3, 3)
            gap = abs(sibson_mi(j, Alpha(1e4)).value_nats - maximal_leakage(j))
            assert gap <= 1e-3

    def test_sup_order_report_uses_dedicated_formula(self, rng):
        j = random_joint2(rng, 3, 3)
        rep = sibson_mi(j, Alpha.INFINITY)
        assert rep.value_nats == maximal_leakage(j)
        px = j.marginal_x().probs
        m = np.outer(px, rep.optimizer.probs)
        assert abs(renyi_divergence(j, m, Alpha.INFINITY) - rep.value_nats) <= 1e-8


class TestInfoRadius:
    def test_equal_measures_zero(self):
        m = Pmf(("a", "b"), (0.3, 0.7))
        assert abs(info_radius([m, m, m], (0.2, 0.5, 0.3), 2)) <= 1e-9

    def test_two_point_masses(self):
        m1 = Pmf(("a", "b"), (1.0, 0.0))
        m2 = Pmf(("a", "b"), (0.0, 1.0))
        got = info_radius([m1, m2], (0.5, 0.5), 2)
        # brute-force grid oracle on the same objective
        oracle, _ = min_weighted_radius([m1, m2], (0.5, 0.5), 2)
        assert abs(got - oracle) <= 1e-6
        assert abs(got - math.log(2)) <= 1e-6

    def test_matches_assembled_joint(self, rng):
        px = rng.dirichlet(np.ones(3))
        rows = rng.dirichlet(np.ones(2), size=3)
        measures = [Pmf(("0", "1"), r) for r in rows]
        j = Joint2(("a", "b", "c"), ("0", "1"), px[:, None] * rows)
        got = info_radius(measures, px, 2)
        assert abs(got - sibson_mi(j, 2).value_nats) <= 1e-6

    def test_rejects_small_order(self):
        m = Pmf(("a", "b"), (0.5, 0.5))
        with pytest.raises(ValidationError):
            info_radius([m, m], (0.5, 0.5), 0.5)

    def test_rejects_unnormalised_measure(self):
        with pytest.raises(ValidationError, match="normalisation"):
            info_radius([[0.5, 0.6], [0.2, 0.8]], (0.5, 0.5), 2)

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError, match="nonnegativity"):
            info_radius([[-0.1, 1.1], [0.2, 0.8]], (0.5, 0.5), 2)

    def test_rejects_nan_entry(self):
        with pytest.raises(ValidationError, match="non-finite"):
            info_radius([[math.nan, 1.0], [0.2, 0.8]], (0.5, 0.5), 2)

    def test_rejects_ragged_measures(self):
        with pytest.raises(ShapeMismatchError):
            info_radius([[0.5, 0.5], [0.2, 0.3, 0.5]], (0.5, 0.5), 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), a=st.sampled_from((1.5, 2.0, 4.0)))
    def test_closed_form_matches_grid(self, data, a):
        # Sibson's identity against the grid minimiser: 1-4 measures on
        # 2-3 cells with zero cells, and weights that need not sum to 1
        k = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 4))
        cell = st.sampled_from((0.0, 1.0, 2.0, 5.0, 0.3))
        rows = [
            data.draw(st.lists(cell, min_size=k, max_size=k).filter(any))
            for _ in range(n)
        ]
        measures = [np.array(r) / sum(r) for r in rows]
        w = data.draw(
            st.lists(st.sampled_from((0.0, 0.2, 1.0, 3.0)), min_size=n, max_size=n)
            .filter(any)
        )
        oracle, _ = min_weighted_radius(measures, w, a)
        assert abs(info_radius(measures, w, a) - oracle) <= 1e-12


class TestCondSibsonZ:
    def test_markov_joint_zero(self, rng):
        j = random_markov_joint(rng, (2, 3, 2))
        for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            assert abs(cond_sibson_z(j, a).value_nats) <= 1e-10

    def test_reference_value(self, ref):
        assert abs(cond_sibson_z(ref, 2).value_nats - I2Z_REF) <= 1e-9

    def test_reference_oracle(self, ref):
        val, _ = cond_z_oracle(ref, 2)
        assert abs(val - I2Z_REF) <= 1e-6

    def test_z_constant_reduction(self, rng):
        # single-symbol Z leaves the unminimised product divergence, which
        # on the perfectly correlated uniform pair is log 2 at every order
        pair = copy_joint(2).marginal_xy()
        zc = z_constant_joint(pair)
        for a in (0.5, 2.0, 5.0):
            assert abs(cond_sibson_z(zc, a).value_nats - math.log(2)) <= 1e-9
        jxy = random_joint2(rng, 2, 3)
        prod = np.outer(jxy.marginal_x().probs, jxy.marginal_y().probs)
        for a in (0.5, 2.0):
            want = renyi_divergence(jxy, prod, a)
            got = cond_sibson_z(z_constant_joint(jxy), a).value_nats
            assert abs(got - want) <= 1e-9

    def test_symmetric_in_xy(self, rng):
        for _ in range(20):
            j = random_joint3(rng, (3, 2, 2), zero_cells=int(rng.integers(0, 3)))
            for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
                lhs = cond_sibson_z(j, a).value_nats
                rhs = cond_sibson_z(j.swap_xy(), a).value_nats
                assert abs(lhs - rhs) <= 1e-12

    def test_order_one_limit(self, rng):
        for _ in range(10):
            j = random_joint3(rng, (2, 2, 2), concentration=2.0)
            target = conditional_mi(j)
            for a in (1 - 1e-4, 1 + 1e-4):
                assert abs(cond_sibson_z(j, Alpha(a)).value_nats - target) <= 1e-3

    def test_optimizer_reproduces_value(self, rng, ref):
        joints = [ref] + [random_joint3(rng, (2, 2, 2)) for _ in range(5)]
        for j in joints:
            for a in (0.5, 2.0, Alpha.INFINITY):
                rep = cond_sibson_z(j, a)
                m = product_measure_z(j, rep.optimizer.probs)
                assert abs(renyi_divergence(j, m, a) - rep.value_nats) <= 1e-8

    def test_optimizer_is_local_min(self, rng):
        # moving 1e-3 of mass between any two z symbols never improves the
        # objective by more than 1e-9
        for _ in range(5):
            j = random_joint3(rng, (2, 2, 3))
            for a in (0.5, 2.0):
                rep = cond_sibson_z(j, a)
                q = rep.optimizer.probs
                base = rep.value_nats
                for i in range(3):
                    for k in range(3):
                        if i == k:
                            continue
                        step = min(1e-3, q[i])
                        q2 = q.copy()
                        q2[i] -= step
                        q2[k] += step
                        moved = renyi_divergence(j, product_measure_z(j, q2), a)
                        assert moved >= base - 1e-9


def sparse_joint(rng):
    """3x3x4 joint with an unreachable z, an unsupported x and a zero cell."""
    probs = rng.random((3, 3, 4))
    probs[:, :, 1] = 0.0
    probs[0, :, 2] = 0.0
    probs[1, 2, 0] = 0.0
    labels = [tuple(map(str, range(n))) for n in probs.shape]
    return Joint3(*labels, probs / probs.sum())


def per_z_reference(j, av):
    """Finite-order closed forms and minimisers, one z at a time, in
    linear space: the reference for the vectorised log-space code."""
    pz, reach, cxy, cx, cy = j.conditionals_given_z()
    nz, nx, ny = len(pz), j.shape[0], j.shape[1]
    q, l_z, rows = np.zeros(nz), np.zeros(nz), np.zeros((nz, ny))
    for z in np.flatnonzero(reach):
        pos = cxy[z] > 0
        prod = np.outer(cx[z], cy[z])
        q[z] = pz[z] * np.sum(cxy[z][pos] ** av * prod[pos] ** (1 - av)) ** (1 / av)
        b = np.zeros((nx, ny))
        b[pos] = cxy[z][pos] ** av * np.outer(cx[z], np.ones(ny))[pos] ** (1 - av)
        b = b.sum(axis=0) ** (1 / av)
        rows[z] = b / b.sum()
        l_z[z] = b.sum() ** av
    value_z = av / (av - 1) * math.log(q.sum())
    value_ygz = math.log(np.dot(pz, l_z)) / (av - 1)
    return value_z, q / q.sum(), value_ygz, rows


class TestVectorisedOverZ:
    @pytest.mark.parametrize("av", [0.3, 0.5, 2.0, 3.5])
    def test_matches_per_z_reference(self, rng, av):
        for j in [sparse_joint(rng), random_joint3(rng, (2, 3, 5), zero_cells=4)]:
            value_z, q, value_ygz, rows = per_z_reference(j, av)
            rep_z, rep_ygz = cond_sibson_z(j, av), cond_sibson_ygz(j, av)
            assert rep_z.value_nats == pytest.approx(value_z, rel=1e-12)
            assert rep_ygz.value_nats == pytest.approx(value_ygz, rel=1e-12)
            assert np.allclose(rep_z.optimizer.probs, q, rtol=0, atol=1e-13)
            assert np.allclose(rep_ygz.optimizer.rows, rows, rtol=0, atol=1e-13)

    def test_limits_match_per_z_reference(self, rng):
        j = sparse_joint(rng)
        pz, reach, cxy, cx, cy = j.conditionals_given_z()
        mi, sup_ratio, leak = 0.0, 0.0, -math.inf
        for z in np.flatnonzero(reach):
            pos = cxy[z] > 0
            ratio = cxy[z][pos] / np.outer(cx[z], cy[z])[pos]
            mi += pz[z] * np.sum(cxy[z][pos] * np.log(ratio))
            sup_ratio += pz[z] * ratio.max()
            sup = cx[z] > 0
            best = (cxy[z][sup] / cx[z][sup, None]).max(axis=0)
            leak = max(leak, math.log(best.sum()))
        assert conditional_mi(j) == pytest.approx(mi, rel=1e-12)
        inf_z = cond_sibson_z(j, Alpha.INFINITY).value_nats
        assert inf_z == pytest.approx(math.log(sup_ratio), rel=1e-12)
        assert cond_maximal_leakage(j) == pytest.approx(leak, rel=1e-12)
        inf_ygz = cond_sibson_ygz(j, Alpha.INFINITY).value_nats
        assert inf_ygz == pytest.approx(leak, rel=1e-12)

    def test_cache_is_invisible(self, rng):
        j = sparse_joint(rng)
        orders = (0.5, 2.0, Alpha.ONE, Alpha.INFINITY)

        def everything(joint):
            out = [conditional_mi(joint), cond_maximal_leakage(joint)]
            for a in orders:
                rep_z, rep_ygz = cond_sibson_z(joint, a), cond_sibson_ygz(joint, a)
                out += [rep_z.value_nats, rep_z.optimizer.probs.tolist()]
                out += [rep_ygz.value_nats, rep_ygz.optimizer.rows.tolist()]
            return out

        cached = everything(j)
        assert everything(j) == cached
        fresh = Joint3(j.x_labels, j.y_labels, j.z_labels, j.probs)
        assert everything(fresh) == cached


class TestCondSibsonYgz:
    def test_markov_joint_zero(self, rng):
        j = random_markov_joint(rng, (2, 2, 3))
        for a in (0.5, 2.0, Alpha.INFINITY):
            assert abs(cond_sibson_ygz(j, a).value_nats) <= 1e-10

    def test_reference_value(self, ref):
        assert abs(cond_sibson_ygz(ref, 2).value_nats - I2YGZ_REF) <= 1e-9

    def test_reference_oracle(self, ref):
        val, _ = cond_ygz_oracle(ref, 2)
        assert abs(val - I2YGZ_REF) <= 1e-6

    def test_z_constant_recovers_unconditional(self, rng):
        # the unconditional measures are the constant-Z case of the
        # conditional ones, computed as such: equal to the bit, optimisers too
        for _ in range(10):
            jxy = random_joint2(rng, 3, 3)
            zc = z_constant_joint(jxy)
            for a in (0.5, 2.0, 4.0, Alpha.ONE, Alpha.INFINITY):
                rep, cond = sibson_mi(jxy, a), cond_sibson_ygz(zc, a)
                assert rep.value_nats == cond.value_nats
                assert rep.optimizer.probs.tobytes() == cond.optimizer.rows[0].tobytes()
            assert shannon_mi(jxy) == conditional_mi(zc)
            assert maximal_leakage(jxy) == cond_maximal_leakage(zc)

    def test_asymmetry_witness(self):
        j = asymmetric_joint()
        gap = abs(
            cond_sibson_ygz(j, 2).value_nats
            - cond_sibson_ygz(j.swap_xy(), 2).value_nats
        )
        assert gap > 1e-3

    def test_optimizer_reproduces_value(self, rng, ref):
        joints = [ref] + [random_joint3(rng, (2, 2, 2)) for _ in range(5)]
        for j in joints:
            for a in (0.5, 2.0, Alpha.INFINITY):
                rep = cond_sibson_ygz(j, a)
                m = product_measure_ygz(j, rep.optimizer.rows)
                assert abs(renyi_divergence(j, m, a) - rep.value_nats) <= 1e-8


class TestCondMaximalLeakage:
    def test_reference(self, ref):
        assert abs(cond_maximal_leakage(ref) - math.log(2)) <= 1e-12

    def test_markov_zero(self, rng):
        j = random_markov_joint(rng, (2, 2, 2))
        assert abs(cond_maximal_leakage(j)) <= 1e-10

    def test_z_constant_reduction(self, rng):
        jxy = random_joint2(rng, 3, 2)
        assert abs(
            cond_maximal_leakage(z_constant_joint(jxy)) - maximal_leakage(jxy)
        ) <= 1e-12

    def test_large_order_limit(self, ref, rng):
        joints = [ref] + [random_joint3(rng, (2, 2, 2)) for _ in range(10)]
        for j in joints:
            gap = abs(cond_sibson_ygz(j, Alpha(1e4)).value_nats - cond_maximal_leakage(j))
            assert gap <= 1e-3


class TestLmgfRepresentation:
    def test_markov_all_zero(self, rng):
        j = random_markov_joint(rng, (2, 2, 2))
        lhs, r1, r2 = lmgf_representation(j, 2)
        assert max(abs(lhs), abs(r1), abs(r2)) <= 1e-10

    def test_reference(self, ref):
        lhs, r1, r2 = lmgf_representation(ref, 2)
        assert abs(lhs - I2Z_REF) <= 1e-9
        assert abs(r1 - I2Z_REF) <= 1e-9
        assert abs(r2 - I2Z_REF) <= 1e-9

    def test_random_identity(self, rng):
        for _ in range(30):
            j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
            for a in (1.5, 2.0, 4.0):
                lhs, r1, r2 = lmgf_representation(j, a)
                assert max(abs(lhs - r1), abs(lhs - r2), abs(r1 - r2)) <= 1e-9

    def test_requires_order_above_one(self, ref):
        with pytest.raises(ValidationError):
            lmgf_representation(ref, 0.5)


class TestAdditivity:
    def test_exact_at_one(self, ref):
        lhs, rhs = additivity_check(ref, 2, 1)
        assert lhs == rhs

    def test_reference_doubles(self, ref):
        lhs, rhs = additivity_check(ref, 2, 2)
        assert abs(lhs - 2 * I2Z_REF) <= 1e-8
        assert abs(lhs - rhs) <= 1e-8

    def test_markov_stays_zero(self, rng):
        j = random_markov_joint(rng, (2, 2, 2))
        for n in (1, 2, 3):
            lhs, rhs = additivity_check(j, 2, n)
            assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9


class TestOracleInternals:
    def test_simplex_grid_masses(self):
        for dim in (1, 2, 3):
            g = simplex_grid(dim, 0.05)
            assert np.allclose(g.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(g >= 0)

    @pytest.mark.parametrize("step", [0.0, -1.0, 2.0, math.nan, math.inf])
    def test_simplex_grid_rejects_bad_step(self, step):
        with pytest.raises(ValidationError):
            simplex_grid(3, step)

    def test_grid_contains_vertices(self):
        g = simplex_grid(3, 0.1)
        for v in np.eye(3):
            assert any(np.allclose(row, v) for row in g)

    def test_minimizer_finds_quadratic_center(self):
        from sibsonmi.oracles import minimize_on_simplex

        target = np.array([0.2, 0.3, 0.5])

        def f(qs):
            return ((qs - target) ** 2).sum(axis=1)

        q, val = minimize_on_simplex(f, 3, step=0.05)
        assert np.max(np.abs(q - target)) <= 1e-4
        assert val <= 1e-8


@st.composite
def _grid_joints(draw):
    """Joints of 1-4 symbols per axis with zero cells and, sometimes, an
    unreachable z (a zero slice)."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    cell = st.sampled_from((0.0, 1.0, 1.0, 2.0, 5.0, 1e-9))
    w = np.array(draw(st.lists(cell, min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    if shape[2] > 1 and draw(st.booleans()):
        w[:, :, draw(st.integers(0, shape[2] - 1))] = 0.0
    if w.sum() == 0:
        w[(0, 0, 0)] = 1.0
    labels = [tuple(str(i) for i in range(n)) for n in shape]
    return Joint3(*labels, w / w.sum())


_GRID_ORDERS = st.sampled_from(
    (1 - 1e-4, 1 + 1e-4, 1 - 1e-12, 1e-6, 1e-3, 0.005, 0.5, 2.0, 8.0, 50.0, 100.0)
) | st.floats(1e-3, 60.0).filter(lambda a: a != 1.0)


class TestCondZGrid:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(j=_grid_joints(), orders=st.lists(_GRID_ORDERS, min_size=1, max_size=12),
           block_cells=st.sampled_from((1, 7, 64, 1 << 16)))
    def test_grid_matches_single_orders_bitwise(self, j, orders, block_cells):
        # chunks of every size, down to one order per chunk
        with mock.patch.object(core, "_BLOCK_CELLS", block_cells):
            got = cond_sibson_z_values(j, orders)
            logits, values = sibson._cond_z_grid(j._z_structure(), np.array(orders))
        each = [cond_sibson_z(j, a) for a in orders]
        assert got.tobytes() == values.tobytes()
        assert got.tobytes() == np.array([r.value_nats for r in each]).tobytes()
        for row, r in zip(logits, each):
            assert sibson._softmax(row).tobytes() == r.optimizer.probs.tobytes()

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, 1e-310, 5e-324, 1.7e308])
    @pytest.mark.parametrize("quiet", [True, False])
    def test_grid_raises_as_single_call(self, ref, a, quiet):
        # with warnings as errors an overflow is the error; without them
        # the order either prices quietly, the same in both calls, or
        # raises the same error
        def outcome(f):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore" if quiet else "error")
                with np.errstate(all="ignore" if quiet else "warn"):
                    try:
                        return np.float64(f()).tobytes()
                    except Exception as exc:  # noqa: BLE001
                        return type(exc), str(exc)

        want = outcome(lambda: cond_sibson_z(ref, a).value_nats)
        assert outcome(lambda: cond_sibson_z_values(ref, [0.5, a, 2.0])[1]) == want

    @pytest.mark.parametrize("a", [1.0, "one", Alpha.ONE, math.inf, "inf", Alpha.INFINITY])
    def test_grid_takes_finite_orders_only(self, ref, a):
        with pytest.raises(ValidationError, match="symbolic"):
            cond_sibson_z_values(ref, [2.0, a])

    def test_empty_grid(self, ref):
        assert cond_sibson_z_values(ref, []).shape == (0,)

    def test_chunks_bound_the_temporary(self, ref, monkeypatch):
        # 8 cells: 3 orders per chunk under a 24-element bound
        monkeypatch.setattr(core, "_BLOCK_CELLS", 24)
        sizes = []
        real = sibson._logsumexp

        def spy(a, axis=None, **kwargs):
            sizes.append(np.size(a))
            return real(a, axis, **kwargs)

        monkeypatch.setattr(sibson, "_logsumexp", spy)
        cond_sibson_z_values(ref, np.linspace(0.1, 0.9, 7))
        assert sizes[:-1] == [24, 24, 8]
        # under one order's 8 cells: one order and one z (4 cells) at a time
        sizes.clear()
        monkeypatch.setattr(core, "_BLOCK_CELLS", 5)
        cond_sibson_z_values(ref, np.linspace(0.1, 0.9, 3))
        assert sizes[:-1] == [4] * 6
