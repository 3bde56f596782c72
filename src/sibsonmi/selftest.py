"""Deterministic property battery behind the ``selftest`` command.

Every check draws its instances from a generator seeded by the battery
seed plus the check index, so the whole run (and its report) is a pure
function of the seed.  Statuses are PASS / FAIL plus INFO rows for
quantities that are recorded without being asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_cor_leakage, bound_cor_sdpi, bound_thm1, bound_thm3
from .core import Alpha, EventMask, Joint2, Kernel, markov_product, tensor_power
from .divergences import (
    _hellinger_rows,
    _renyi_orders,
    hellinger_integral,
    renyi_divergence,
    renyi_limit_check,
)
from .errors import InequalityViolation
from .exponents import (
    default_alpha_grid,
    ep_biconjugate,
    ep_star_grid,
    lambda_of_alpha,
    numeric_conjugate,
)
from .hyptest import (
    exact_errors,
    exponent_sweep,
    monte_carlo_errors,
    theorem6_checks,
    threshold_test,
)
from .instances import (
    asymmetric_joint,
    random_joint2,
    random_joint3,
    random_kernel,
    random_markov_joint,
    random_markov_joint4,
    random_pmf,
    reference_joint,
    z_constant_joint,
)
from .oracles import cond_ygz_oracles, cond_z_oracles, min_weighted_radius
from .sdpi import (
    contraction_search,
    contraction_searches,
    sdpi_conditional_check,
    sdpi_unconditional_check,
)
from .sibson import (
    additivity_check,
    cond_maximal_leakage,
    cond_sibson_ygz,
    cond_sibson_z,
    conditional_mi,
    info_radius,
    lmgf_representation,
    sibson_mi,
)

PASS, FAIL, INFO = "PASS", "FAIL", "INFO"


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str
    detail: str


def _rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, idx])


def _row(name, ok, detail="") -> CheckRow:
    return CheckRow(name, PASS if ok else FAIL, detail)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def run_selftest(seed: int = 0) -> list[CheckRow]:
    rows: list[CheckRow] = []
    R = reference_joint()

    # --- core ---------------------------------------------------------
    rng = _rng(seed, 1)
    worst = 0.0
    for _ in range(20):
        j = random_joint3(rng, (2, 3, 2), zero_cells=rng.integers(0, 3))
        m = markov_product(j)
        worst = max(worst, float(np.max(np.abs(markov_product(m).probs - m.probs))))
    rows.append(_row("core.markov_idempotent", worst <= 1e-12, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(20):
        j = random_joint3(rng, (2, 2, 3), zero_cells=rng.integers(0, 4))
        pz = j.probs.sum(axis=(0, 1))
        kxy = np.zeros_like(j.probs)
        for z in np.flatnonzero(pz > 0):
            kxy[:, :, z] = j.probs[:, :, z] / pz[z] * pz[z]
        worst = max(worst, float(np.max(np.abs(kxy - j.probs))))
    rows.append(_row("core.z_reconstruction", worst <= 1e-12, f"max gap {_fmt(worst)}"))

    e = EventMask.from_predicate(R, lambda x, y, z: x == y)
    per_z = sum(int(e.mask[:, :, iz].sum()) for iz in range(R.shape[2]))
    rows.append(_row("core.event_slices_compose", per_z == e.count(), f"{per_z} vs {e.count()}"))

    j = random_joint3(_rng(seed, 3), (2, 2, 2))
    t3 = tensor_power(j, 3)
    ok = abs(t3.probs.sum() - 1.0) <= 1e-12
    block = t3.probs.reshape(2, 2, 2, 2, 2, 2, 2, 2, 2).sum(axis=(1, 2, 4, 5, 7, 8))
    ok = ok and np.max(np.abs(block - j.probs)) <= 1e-12
    rows.append(_row("core.tensor_power_marginals", ok))

    # --- divergences ---------------------------------------------------
    rng = _rng(seed, 4)
    ok = True
    detail = ""
    for _ in range(50):
        p = random_pmf(rng, 4).probs
        q = random_pmf(rng, 4).probs
        for a in (0.5, 1.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            d = renyi_divergence(p, q, a)
            if d < 0:
                ok, detail = False, f"negative value {d!r}"
        if renyi_divergence(p, p, 2.0) != 0.0 and abs(renyi_divergence(p, p, 2.0)) > 1e-12:
            ok, detail = False, "nonzero at equal measures"
    rows.append(_row("div.nonnegative", ok, detail))

    rng = _rng(seed, 5)
    grid = np.geomspace(0.1, 50, 20)
    grid = grid[np.abs(grid - 1.0) > 1e-9]
    worst = 0.0
    for _ in range(100):
        p = random_pmf(rng, 3).probs
        q = random_pmf(rng, 3).probs
        vals = _renyi_orders(p, q, grid).tolist()
        gaps = [v1 - v2 for v1, v2 in zip(vals, vals[1:])]
        worst = max(worst, max(gaps) if gaps else 0.0)
    rows.append(_row("div.alpha_monotone", worst <= 1e-10, f"max decrease {_fmt(worst)}"))

    rng = _rng(seed, 6)
    worst = 0.0
    for _ in range(100):
        p = random_pmf(rng, 4).probs
        q = random_pmf(rng, 4).probs
        for a in (0.5, 2.0, 4.0):
            d = renyi_divergence(p, q, a)
            h = hellinger_integral(p, q, a)
            worst = max(worst, abs(d - math.log(h) / (a - 1.0)))
    rows.append(_row("div.hellinger_consistent", worst <= 1e-9, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 7)
    # the draws of random_kernel(rng, 3, 3) and two random_pmf(rng, 3)
    # per instance, in that order, as one call; all instances are priced
    # as one batch
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
    # Python max in instance-major order, as one instance at a time would take it
    worst = max([-math.inf, *gaps.ravel().tolist()])
    rows.append(_row("div.hellinger_dpi", worst <= 1e-12, f"max violation {_fmt(worst)}"))

    rng = _rng(seed, 8)
    worst = 0.0
    for _ in range(50):
        p = random_pmf(rng, 4).probs
        q = random_pmf(rng, 4).probs
        for a in (0.3, 0.5, 2.0, 4.0):
            lhs = float(np.sum(p**a * q ** (1 - a)))
            sup = p > 0
            rhs = float(np.sum(p[sup] * (q[sup] / p[sup]) ** (1 - a)))
            # the sums can reach 1e8 for order 4, so compare relatively
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    rows.append(_row("div.reference_measure_free", worst <= 1e-12, f"max rel gap {_fmt(worst)}"))

    rep = renyi_limit_check(
        [0.5, 0.5], [0.25, 0.75], (1e-1, 1e-2, 1e-3, 1e-4)
    )
    ok = rep.monotone and rep.final_deviation <= 1e-4
    rows.append(_row("div.kl_limit", ok, f"final dev {_fmt(rep.final_deviation)}"))

    # --- measures vs oracle ---------------------------------------------
    rng = _rng(seed, 9)
    joints = [
        random_joint3(rng, (2, 2, 2) if i % 2 == 0 else (3, 2, 2),
                      zero_cells=int(rng.integers(0, 2)))
        for i in range(40)
    ]
    # the oracles take joints of one shape; the max of the gaps does not
    # depend on the order they are met in
    worst = 0.0
    for a in (0.5, 1.5, 2.0, 4.0):
        for same_shape in (joints[0::2], joints[1::2]):
            z_vals = cond_z_oracles(same_shape, a)
            ygz_vals = cond_ygz_oracles(same_shape, a)
            for j, (vz, _), (vy, _) in zip(same_shape, z_vals, ygz_vals):
                worst = max(worst, abs(cond_sibson_z(j, a).value_nats - vz))
                worst = max(worst, abs(cond_sibson_ygz(j, a).value_nats - vy))
    rows.append(_row("measure.closed_vs_oracle", worst <= 1e-5, f"max gap {_fmt(worst)}"))

    i2z = cond_sibson_z(R, 2).value_nats
    i2y = cond_sibson_ygz(R, 2).value_nats
    ok = (
        abs(i2z - 2 * math.log((math.sqrt(2) + 1) / 2)) <= 1e-9
        and abs(i2y - math.log(1.5)) <= 1e-9
    )
    rows.append(_row("measure.reference_values", ok, f"I2_Z={_fmt(i2z)} I2_YgZ={_fmt(i2y)}"))

    rng = _rng(seed, 10)
    worst = 0.0
    for _ in range(20):
        j = random_joint3(rng, (3, 2, 2))
        for a in (0.5, 2.0, Alpha.ONE, Alpha.INFINITY):
            worst = max(
                worst,
                abs(cond_sibson_z(j, a).value_nats - cond_sibson_z(j.swap_xy(), a).value_nats),
            )
    gap_asym = abs(
        cond_sibson_ygz(asymmetric_joint(), 2).value_nats
        - cond_sibson_ygz(asymmetric_joint().swap_xy(), 2).value_nats
    )
    rows.append(
        _row(
            "measure.symmetry",
            worst <= 1e-12 and gap_asym > 1e-3,
            f"sym gap {_fmt(worst)}, witness asymmetry {_fmt(gap_asym)}",
        )
    )

    rng = _rng(seed, 11)
    ok = True
    worst = 0.0
    for _ in range(15):
        j = random_joint3(rng, (2, 2, 2), concentration=2.0)
        target = conditional_mi(j)
        for a in (1 - 1e-4, 1 + 1e-4):
            worst = max(worst, abs(cond_sibson_z(j, Alpha(a)).value_nats - target))
        worst_inf = abs(cond_sibson_ygz(j, Alpha(1e4)).value_nats - cond_maximal_leakage(j))
        worst = max(worst, worst_inf)
        jxy = random_joint2(rng, 3, 3)
        zc = z_constant_joint(jxy)
        worst = max(worst, abs(cond_sibson_ygz(zc, 2).value_nats - sibson_mi(jxy, 2).value_nats))
        prod = np.outer(jxy.marginal_x().probs, jxy.marginal_y().probs)
        worst_zc = abs(cond_sibson_z(zc, 2).value_nats - renyi_divergence(jxy, prod, 2))
        ok = ok and worst_zc <= 1e-9
    rows.append(_row("measure.limits", ok and worst <= 1e-3, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 12)
    worst = 0.0
    for _ in range(10):
        j = random_joint3(rng, (2, 2, 2))
        for a in (0.5, 2.0):
            rep_z = cond_sibson_z(j, a)
            pz, reach, cxy, cx, cy = j.conditionals_given_z()
            m = np.einsum("zx,zy,z->xyz", cx, cy, rep_z.optimizer.probs)
            worst = max(worst, abs(renyi_divergence(j, m, a) - rep_z.value_nats))
    rows.append(_row("measure.optimizer_valid", worst <= 1e-8, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 13)
    worst = 0.0
    for _ in range(5):
        j = random_joint3(rng, (2, 2, 2))
        for n in (1, 2, 3):
            lhs, rhs = additivity_check(j, 2, n)
            worst = max(worst, abs(lhs - rhs))
    rows.append(_row("measure.additive_in_n", worst <= 1e-8, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 14)
    worst = 0.0
    for _ in range(20):
        j = random_joint3(rng, (2, 2, 2))
        for a in (1.5, 2.0, 4.0):
            lhs, r1, r2 = lmgf_representation(j, a)
            worst = max(worst, abs(lhs - r1), abs(lhs - r2), abs(r1 - r2))
    rows.append(_row("measure.lmgf_identity", worst <= 1e-9, f"max gap {_fmt(worst)}"))

    rng = _rng(seed, 15)
    meas = [random_pmf(rng, 3) for _ in range(3)]
    w = (0.2, 0.5, 0.3)
    jx = np.array([wi * m.probs for wi, m in zip(w, meas)])
    assembled = Joint2(("a", "b", "c"), meas[0].labels, jx)
    closed = info_radius(meas, w, 2)
    grid, _ = min_weighted_radius(meas, w, 2)
    gap = max(abs(closed - grid), abs(closed - sibson_mi(assembled, 2).value_nats))
    rows.append(_row("measure.radius_matches_joint", gap <= 1e-6, f"gap {_fmt(gap)}"))

    grid = np.geomspace(0.25, 16, 9)
    vals = [cond_sibson_z(R, Alpha.coerce(a)).value_nats for a in grid]
    increasing = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    rows.append(
        CheckRow(
            "measure.order_monotonicity_recorded",
            INFO,
            f"nondecreasing={increasing} values="
            + ",".join(_fmt(v) for v in vals),
        )
    )

    # --- bounds ----------------------------------------------------------
    e = EventMask.from_predicate(R, lambda x, y, z: x == y)
    b3 = bound_thm3(R, e, 2)
    b1 = bound_thm1(R, e, 2)
    bl = bound_cor_leakage(R, e)
    ok = (
        abs(b3.lhs - 0.75) <= 1e-12
        and abs(b3.rhs - (2 + math.sqrt(2)) / 4) <= 1e-6
        and abs(b1.rhs - math.sqrt(3) / 2) <= 1e-6
        and abs(bl.rhs - 1.0) <= 1e-12
    )
    rows.append(_row("bounds.worked_example", ok,
                     f"thm3 rhs {_fmt(b3.rhs)}, thm1 rhs {_fmt(b1.rhs)}"))

    rng = _rng(seed, 16)
    worst = math.inf
    for _ in range(200):
        j = random_joint3(rng, (2, 2, 2), zero_cells=int(rng.integers(0, 3)))
        mask = EventMask(rng.random((2, 2, 2)) < rng.uniform(0.2, 0.9))
        a = float(rng.choice([1.5, 2.0, 4.0]))
        for rep in (bound_thm1(j, mask, a), bound_thm3(j, mask, a), bound_cor_leakage(j, mask)):
            worst = min(worst, rep.slack)
    rows.append(_row("bounds.random_slack", worst >= -1e-12, f"min slack {_fmt(worst)}"))

    rng = _rng(seed, 17)
    ok = True
    for _ in range(20):
        j = random_joint3(rng, (2, 2, 2))
        small = rng.random((2, 2, 2)) < 0.4
        big = small | (rng.random((2, 2, 2)) < 0.4)
        for f in (bound_thm1, bound_thm3):
            rs = f(j, EventMask(small), 2.0)
            rb = f(j, EventMask(big), 2.0)
            ok = ok and rs.lhs <= rb.lhs + 1e-12 and rs.rhs <= rb.rhs + 1e-12
    rows.append(_row("bounds.event_monotone", ok))

    rng = _rng(seed, 18)
    worst = math.inf
    for _ in range(10):
        j4, _ = random_markov_joint4(rng, (2, 2, 2, 2))
        mask = EventMask(rng.random((2, 2, 2)) < 0.5)
        worst = min(worst, bound_cor_sdpi(j4, mask, 2, 1.0).slack)
    rows.append(_row("bounds.contraction_variant", worst >= -1e-12, f"min slack {_fmt(worst)}"))

    # --- contraction -----------------------------------------------------
    ident = Kernel(("0", "1"), ("0", "1"), np.eye(2))
    const = Kernel(("0", "1"), ("0", "1"), [[0.5, 0.5], [0.5, 0.5]])
    e_i = contraction_search(ident, 2, budget=500, seed=seed)
    e_c = contraction_search(const, 2, budget=500, seed=seed)
    ok = (
        e_i.eta_normalized == 1.0
        and e_i.eta_ratio_lower == 1.0
        and e_c.eta_normalized == 0.0
        and e_c.eta_ratio_lower <= 1.0 + 1e-9
    )
    rows.append(_row("sdpi.trivial_kernels", ok))

    k = random_kernel(_rng(seed, 19), 2, 2)
    r1 = contraction_search(k, 2, budget=1000, seed=seed)
    r2 = contraction_search(k, 2, budget=1000, seed=seed)
    ok = (
        r1.eta_normalized == r2.eta_normalized
        and r1.eta_ratio_lower == r2.eta_ratio_lower
    )
    rows.append(_row("sdpi.search_deterministic", ok))

    rng = _rng(seed, 20)
    chains = [random_markov_joint4(rng, (2, 2, 2, 2)) for _ in range(20)]
    seeds = [seed + i for i in range(20)]
    orders = (1.5, 2.0, 4.0)
    ests = {
        a: contraction_searches([ch for _, ch in chains], a, 1500, seeds)
        for a in orders
    }
    ok = True
    detail = ""
    try:
        for i, (j4, _) in enumerate(chains):
            for a in orders:
                sdpi_conditional_check(j4, a, ests[a][i])
    except InequalityViolation as exc:
        ok, detail = False, str(exc)
    rows.append(_row("sdpi.conditional_chain", ok, detail))

    rng = _rng(seed, 21)
    pairs = [(random_joint2(rng, 2, 2), random_kernel(rng, 2, 2)) for _ in range(30)]
    ests = contraction_searches(
        [ch for _, ch in pairs], 2, 2000, [seed + i for i in range(30)]
    )
    ok = True
    detail = ""
    try:
        for (jxy, ch), est in zip(pairs, ests):
            sdpi_unconditional_check(jxy, ch, 2, est)
    except InequalityViolation as exc:
        ok, detail = False, str(exc)
    rows.append(_row("sdpi.unconditional_chain", ok, detail))

    # --- hypothesis testing -----------------------------------------------
    t = threshold_test(R, 0.0, 1)
    er = exact_errors(R, t)
    ok = er.p1 == 0.0
    t_lo = threshold_test(R, -math.inf, 2)
    t_hi = threshold_test(R, math.inf, 2)
    e_lo = exact_errors(R, t_lo)
    e_hi = exact_errors(R, t_hi)
    ok = ok and e_lo.p1 == 0.0 and e_lo.p2_worst == 1.0
    ok = ok and e_hi.p1 == 1.0 and e_hi.p2_worst == 0.0
    rows.append(_row("hyptest.reference_and_trivial_taus", ok))

    t = threshold_test(R, 0.5, 3)
    er = exact_errors(R, t)
    pz = R.probs.sum(axis=(0, 1))
    mc = monte_carlo_errors(
        R, t, [pz, np.array([1.0, 0.0]), np.array([0.3, 0.7])], 20000, seed=seed
    )
    ok = abs(mc.p1 - er.p1) <= 3 * mc.p1_halfwidth
    for row_mc in mc.qz_table:
        exact_row = min(
            er.qz_table, key=lambda r: max(abs(a - b) for a, b in zip(r.qz, row_mc.qz))
        )
        ok = ok and abs(row_mc.type2 - exact_row.type2) <= 3 * row_mc.halfwidth
    rows.append(_row("hyptest.monte_carlo_agrees", ok))

    taus = (-math.inf, 0.0, 0.3, 0.6, math.inf)
    p1s, p2s = [], []
    for tau in taus:
        er = exact_errors(R, threshold_test(R, tau, 2))
        p1s.append(er.p1)
        p2s.append(er.p2_worst)
    ok = all(b >= a - 1e-12 for a, b in zip(p1s, p1s[1:]))
    ok = ok and all(b <= a + 1e-12 for a, b in zip(p2s, p2s[1:]))
    rows.append(_row("hyptest.threshold_monotone", ok))

    ok = True
    detail = ""
    M = random_markov_joint(_rng(seed, 22), (2, 2, 2))
    try:
        for joint in (R, M):
            for n in (1, 2, 3, 4, 5, 6):
                tt = threshold_test(joint, 0.5, n)
                theorem6_checks(joint, tt, (1.5, 2.0, 4.0), claimed_rate=0.5)
    except InequalityViolation as exc:
        ok, detail = False, str(exc)
    rows.append(_row("hyptest.decay_bound_sweep", ok, detail))

    sw = exponent_sweep(
        R, threshold_test(R, 0.5, 1), (1.5, 2.0, 4.0, 16.0), (1, 2, 3, 4),
        claimed_rate=0.5,
    )
    ok = all(r.empirical <= r.bound + 1e-9 for r in sw.rows if r.certified)
    for n, best in sw.best_bound:
        singles = [r.bound for r in sw.rows if r.n == n]
        ok = ok and all(best <= s + 1e-15 for s in singles)
    rows.append(_row("hyptest.exponent_sweep", ok))

    # --- exponents ---------------------------------------------------------
    (_, e_pos), (_, e_zero), (_, e_neg) = ep_star_grid(R, (0.5, 0.0, -1.0)).sample_grid
    ok = math.isinf(e_pos) and e_zero == 0.0
    gap = abs(e_neg + 0.2876820724517809)
    ok = ok and gap <= 1e-6
    lam_grid = np.append(-np.geomspace(1e-3, 50, 99)[::-1], 0.0)
    cc = ep_star_grid(R, lam_grid)
    viol = cc.max_convexity_violation()
    ok = ok and viol <= 1e-9 and all(v <= 0 for _, v in cc.sample_grid)
    rows.append(_row("exp.conjugate_closed_form", ok,
                     f"point gap {_fmt(gap)}, convexity defect {_fmt(viol)}"))

    rng = _rng(seed, 23)
    worst = 0.0
    agrid = default_alpha_grid()
    lgrid = [lambda_of_alpha(a) for a in agrid]
    for _ in range(6):
        j = random_joint3(rng, (2, 2, 2))
        samples = ep_star_grid(j, lgrid).sample_grid
        for e_q in (0.0, 0.3):
            direct = ep_biconjugate(j, e_q, agrid).value
            double = numeric_conjugate(samples, [e_q]).sample_grid[0][1]
            worst = max(worst, abs(direct - double))
    rows.append(_row("exp.double_conjugation", worst <= 1e-4, f"max gap {_fmt(worst)}"))

    return rows
