"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line, with every tolerance pinned to its stated value."""

import math
import time

import numpy as np
import pytest

from sibsonmi.bounds import (
    bound_cor_leakage,
    bound_thm1,
    bound_thm3,
)
from sibsonmi.core import Alpha, EventMask
from sibsonmi.divergences import _hellinger_rows, renyi_divergence
from sibsonmi.errors import InequalityViolation
from sibsonmi.exponents import (
    default_alpha_grid,
    ep_biconjugate,
    ep_star,
    ep_star_grid,
    lambda_of_alpha,
    numeric_conjugate,
)
from sibsonmi.hyptest import (
    exact_errors,
    monte_carlo_errors,
    theorem6_check,
    threshold_test,
)
from sibsonmi.instances import (
    random_joint2,
    random_joint3,
    random_markov_joint,
    random_markov_joint4,
    reference_joint,
    z_constant_joint,
)
from sibsonmi.oracles import (
    cond_ygz_oracle,
    cond_ygz_oracles,
    cond_z_oracle,
    cond_z_oracles,
)
from sibsonmi.sdpi import contraction_searches, sdpi_conditional_check
from sibsonmi.sibson import (
    additivity_check,
    cond_maximal_leakage,
    cond_sibson_ygz,
    cond_sibson_z,
    conditional_mi,
    lmgf_representation,
    maximal_leakage,
    sibson_mi,
)

SEED = 0


def _report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_closed_form_vs_oracle():
    start = time.time()
    rng = np.random.default_rng(SEED)
    joints = [
        random_joint3(rng, (2, 2, 2) if i % 2 == 0 else (3, 2, 2),
                      zero_cells=int(rng.integers(0, 2)))
        for i in range(200)
    ]
    # the oracles run in lockstep over joints of one shape, each result
    # bit-identical to its single call; the max does not depend on order
    worst = 0.0
    for a in (0.5, 1.5, 2.0, 4.0):
        for same_shape in (joints[0::2], joints[1::2]):
            z_vals = cond_z_oracles(same_shape, a)
            ygz_vals = cond_ygz_oracles(same_shape, a)
            for j, (vz, _), (vy, _) in zip(same_shape, z_vals, ygz_vals):
                worst = max(
                    worst,
                    abs(cond_sibson_z(j, a).value_nats - vz),
                    abs(cond_sibson_ygz(j, a).value_nats - vy),
                )
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed <= 120
    _report(
        1, ok,
        f"200 joints x 4 orders, max closed-form/oracle gap {worst:.3g} "
        f"(tol 1e-5), {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_2_reference_values():
    ref = reference_joint()
    i2z = cond_sibson_z(ref, 2).value_nats
    i2y = cond_sibson_ygz(ref, 2).value_nats
    want_z = 2 * math.log((math.sqrt(2) + 1) / 2)
    want_y = math.log(1.5)
    gap_z, gap_y = abs(i2z - want_z), abs(i2y - want_y)
    gap_oz = abs(cond_z_oracle(ref, 2)[0] - want_z)
    gap_oy = abs(cond_ygz_oracle(ref, 2)[0] - want_y)
    ok = gap_z <= 1e-9 and gap_y <= 1e-9 and gap_oz <= 1e-5 and gap_oy <= 1e-5
    _report(
        2, ok,
        f"reference-joint gaps: Z-variant {gap_z:.2e}, kernel-variant "
        f"{gap_y:.2e} (tol 1e-9); oracle gaps {gap_oz:.2e}/{gap_oy:.2e}",
    )


def test_criterion_3_bound_suites():
    rng = np.random.default_rng(SEED + 3)
    worst = {"THM1": math.inf, "THM3": math.inf, "COR_LEAK": math.inf}
    for _ in range(500):
        j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
        e = EventMask(rng.random((2, 2, 2)) < rng.uniform(0.1, 0.9))
        a = float(rng.choice([1.5, 2.0, 4.0]))
        worst["THM1"] = min(worst["THM1"], bound_thm1(j, e, a).slack)
        worst["THM3"] = min(worst["THM3"], bound_thm3(j, e, a).slack)
        worst["COR_LEAK"] = min(worst["COR_LEAK"], bound_cor_leakage(j, e).slack)
    ref = reference_joint()
    e = EventMask.from_predicate(ref, lambda x, y, z: x == y)
    b3 = bound_thm3(ref, e, 2)
    b1 = bound_thm1(ref, e, 2)
    worked = (
        abs(b3.lhs - 0.75) <= 1e-6
        and abs(b3.rhs - 0.853553390593) <= 1e-6
        and abs(b1.rhs - 0.866025403784) <= 1e-6
    )
    ok = all(v >= -1e-12 for v in worst.values()) and worked
    _report(
        3, ok,
        "500-triple slack minima "
        + ", ".join(f"{k}={v:.3g}" for k, v in worst.items())
        + f" (floor -1e-12); worked example reproduced={worked}",
    )


def test_criterion_4_representation_identity():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
        a = float(rng.choice([1.5, 2.0, 4.0]))
        lhs, r1, r2 = lmgf_representation(j, a)
        worst = max(worst, abs(lhs - r1), abs(lhs - r2), abs(r1 - r2))
    ok = worst <= 1e-9
    _report(4, ok, f"100 instances, max three-way gap {worst:.3g} (tol 1e-9)")


def test_criterion_5_limits():
    rng = np.random.default_rng(SEED + 5)
    worst_one = 0.0
    worst_inf = 0.0
    worst_zc = 0.0
    for _ in range(50):
        j = random_joint3(rng, (2, 2, 2), concentration=2.0)
        target = conditional_mi(j)
        for a in (1 - 1e-4, 1 + 1e-4):
            worst_one = max(
                worst_one, abs(cond_sibson_z(j, Alpha(a)).value_nats - target)
            )
        worst_inf = max(
            worst_inf,
            abs(cond_sibson_ygz(j, Alpha(1e4)).value_nats - cond_maximal_leakage(j)),
        )
        jxy = random_joint2(rng, 2, 3)
        zc = z_constant_joint(jxy)
        worst_zc = max(
            worst_zc,
            abs(cond_sibson_ygz(zc, 2).value_nats - sibson_mi(jxy, 2).value_nats),
        )
        prod = np.outer(jxy.marginal_x().probs, jxy.marginal_y().probs)
        worst_zc = max(
            worst_zc,
            abs(cond_sibson_z(zc, 2).value_nats - renyi_divergence(jxy, prod, 2)),
        )
    ok = worst_one <= 1e-3 and worst_inf <= 1e-3 and worst_zc <= 1e-9
    _report(
        5, ok,
        f"order-1 gap {worst_one:.3g}, sup-order gap {worst_inf:.3g} "
        f"(tol 1e-3); constant-Z reductions {worst_zc:.3g} (tol 1e-9)",
    )


def test_criterion_6_symmetry_dpi_contraction():
    rng = np.random.default_rng(SEED + 6)
    worst_sym = 0.0
    for _ in range(50):
        j = random_joint3(rng, (3, 2, 2), zero_cells=int(rng.integers(0, 3)))
        for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            worst_sym = max(
                worst_sym,
                abs(
                    cond_sibson_z(j, a).value_nats
                    - cond_sibson_z(j.swap_xy(), a).value_nats
                ),
            )
    # the draws of random_kernel(rng, 3, 3) and two random_pmf(rng, 3) per
    # tuple, in that order, as one call; the tuples are priced as one
    # batch, each value bit-identical to its hellinger_integral call
    draws = rng.dirichlet(np.ones(3), size=(2500, 5))
    ks, mus, nus = draws[:, :3], draws[:, 3], draws[:, 4]
    k_mus, k_nus = (mus[:, None] @ ks)[:, 0], (nus[:, None] @ ks)[:, 0]
    gaps = np.stack(
        [
            _hellinger_rows(k_mus, k_nus, a) - _hellinger_rows(mus, nus, a)
            for a in (1.5, 2.0, 4.0, 8.0)
        ],
        axis=1,
    )
    worst_dpi = max([-math.inf, *gaps.ravel().tolist()])
    # every chain first, in the order drawn; then one batched search per
    # order (chain i takes order i % 3 and seed SEED + i), each estimate
    # bit-identical to its contraction_search call
    chains = [random_markov_joint4(rng, (2, 2, 2, 2)) for _ in range(100)]
    failures = 0
    for first, a in enumerate((1.5, 2.0, 4.0)):
        idx = range(first, 100, 3)
        ests = contraction_searches(
            [chains[i][1] for i in idx], a, budget=10_000,
            seeds=[SEED + i for i in idx],
        )
        for i, est in zip(idx, ests):
            try:
                sdpi_conditional_check(chains[i][0], a, est)
            except InequalityViolation:
                failures += 1
    ok = worst_sym <= 1e-12 and worst_dpi <= 1e-12 and failures == 0
    _report(
        6, ok,
        f"symmetry gap {worst_sym:.3g} (tol 1e-12); DPI violation "
        f"{worst_dpi:.3g} over 10^4 tuples (tol 1e-12); additive-contraction "
        f"failures {failures}/100",
    )


def test_criterion_7_tensorization():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(20):
        j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 2)))
        a = float(rng.choice([1.5, 2.0, 4.0]))
        for n in (1, 2, 3):
            lhs, rhs = additivity_check(j, a, n)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    _report(7, ok, f"20 joints, n in 1..3, max additivity gap {worst:.3g} (tol 1e-8)")


def test_criterion_8_hypothesis_testing():
    start = time.time()
    ref = reference_joint()
    t = threshold_test(ref, 0.5, 3)
    er = exact_errors(ref, t)
    pz = ref.probs.sum(axis=(0, 1))
    mc = monte_carlo_errors(
        ref, t,
        [pz, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.3, 0.7])],
        trials=100_000, seed=SEED,
    )
    mc_ok = abs(mc.p1 - er.p1) <= 3 * mc.p1_halfwidth
    for row in mc.qz_table:
        exact_row = min(
            er.qz_table, key=lambda r: max(abs(a - b) for a, b in zip(r.qz, row.qz))
        )
        mc_ok = mc_ok and abs(row.type2 - exact_row.type2) <= 3 * row.halfwidth
    markov = random_markov_joint(np.random.default_rng(SEED + 8), (2, 2, 2))
    sweep_failures = 0
    certified = 0
    for joint in (ref, markov):
        for n in range(1, 9):
            tt = threshold_test(joint, 0.5, n)
            for a in (1.5, 2.0, 4.0, 16.0):
                try:
                    rep = theorem6_check(joint, tt, a, claimed_rate=0.5)
                    if rep.certified:
                        certified += 1
                except InequalityViolation:
                    sweep_failures += 1
    elapsed = time.time() - start
    ok = mc_ok and sweep_failures == 0 and certified == 64 and elapsed <= 300
    _report(
        8, ok,
        f"Monte Carlo within 3 half-widths={mc_ok}; decay-bound sweep "
        f"{certified}/64 certified, {sweep_failures} failures; "
        f"{elapsed:.1f}s (cap 300s)",
    )


def test_criterion_9_exponents():
    ref = reference_joint()
    pos_inf = math.isinf(ep_star(ref, 0.5)) and math.isinf(ep_star(ref, 2.0))
    point_gap = abs(ep_star(ref, -1.0) + 0.287682)
    rng = np.random.default_rng(SEED + 9)
    agrid = default_alpha_grid()
    lgrid = [lambda_of_alpha(a) for a in agrid]
    worst_bi = 0.0
    for _ in range(50):
        j = random_joint3(rng, (2, 2, 2))
        samples = ep_star_grid(j, lgrid).sample_grid
        e_q = float(rng.uniform(0.0, 0.5))
        direct = ep_biconjugate(j, e_q, agrid).value
        double = numeric_conjugate(samples, [e_q]).sample_grid[0][1]
        worst_bi = max(worst_bi, abs(direct - double))
    lam_grid = np.append(-np.geomspace(1e-3, 50, 99)[::-1], 0.0)
    defect = ep_star_grid(ref, lam_grid).max_convexity_violation()
    ok = pos_inf and point_gap <= 1e-6 and worst_bi <= 1e-4 and defect <= 1e-9
    _report(
        9, ok,
        f"positive-slope=+inf {pos_inf}; point gap {point_gap:.2e} (tol 1e-6); "
        f"double-conjugation gap {worst_bi:.3g} over 50 joints (tol 1e-4); "
        f"convexity defect {defect:.3g} on 100-point grid (tol 1e-9)",
    )


def test_criterion_10_reproducibility(tmp_path):
    from sibsonmi.cli import main, save_joint

    ref_path = str(tmp_path / "ref.json")
    save_joint(reference_joint(), ref_path)
    commands = [
        ["measure", "--input", ref_path, "--alpha", "2", "--alpha", "inf"],
        ["bound", "--input", ref_path, "--thm", "3", "--alpha", "2",
         "--event", "x==y"],
        ["bound", "--input", ref_path, "--thm", "1", "--alpha", "2",
         "--event", "x==y"],
        ["bound", "--input", ref_path, "--thm", "leak", "--event", "x==y"],
        ["sdpi", "--input", ref_path, "--alpha", "2", "--budget", "2000"],
        ["simulate", "--input", ref_path, "--n", "3", "--tau", "0.5",
         "--alpha", "2", "--budget", "20000"],
        ["exponent", "--input", ref_path],
        ["selftest"],
    ]
    mismatches = []
    for i, cmd in enumerate(commands):
        out1 = tmp_path / f"r{i}a.txt"
        out2 = tmp_path / f"r{i}b.txt"
        s1 = main(cmd + ["--seed", "11", "--output", str(out1)])
        s2 = main(cmd + ["--seed", "11", "--output", str(out2)])
        if s1 != 0 or s2 != 0:
            mismatches.append(f"{cmd[0]} exited {s1}/{s2}")
        elif out1.read_bytes() != out2.read_bytes():
            mismatches.append(f"{cmd[0]} differs")
    ok = not mismatches
    _report(
        10, ok,
        "all commands byte-identical over repeated seeded runs"
        if ok
        else "; ".join(mismatches),
    )
