"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(`pytest -s` or the captured output shows them).  The stability theorems
carry unspecified absolute constants, so acceptance is property-based
(inequality directions, equality cases, oracle agreement) plus reproduction
of the predicted scaling exponents.
"""

import math
import time

import numpy as np

from conftest import (
    hausdorff,
    mc_volume,
    random_decreasing_logconcave,
    random_logconcave_pair,
    unit_square,
)
from stabgeo import bodies, experiments, fmp, pl1d, pln, polarity
from stabgeo.bodies import Ball, ConvexPolygon, revolution_ball, revolution_cylinder


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_inequality_directions():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    # 1-D midpoint deficit on 500 random log-concave pairs
    worst_pl = math.inf
    for _ in range(500):
        f, g = random_logconcave_pair(rng)
        m = pl1d.sup_convolution_midpoint(f, g)
        worst_pl = min(worst_pl, pl1d.pl_deficit(f, g, m))

    # volume-product deficit on 200 random o-symmetric bodies, n = 2..5
    worst_bs = math.inf
    for k in range(200):
        n = 2 + k % 4
        K = bodies.random_revolution_body(n, rng, samples=2049,
                                          amplitude=rng.uniform(0.0, 1.0))
        worst_bs = min(worst_bs, polarity.bs_deficit(K).bs_deficit)

    # both Brunn-Minkowski stability forms on 200 random pairs
    fmp_violations = 0
    for k in range(200):
        if k % 2 == 0:
            K = bodies.random_o_symmetric_polygon(rng)
            C = bodies.random_o_symmetric_polygon(rng)
            rep = fmp.fmp_bound_check(K, C)
        else:
            n = 2 + (k // 2) % 4
            K = bodies.random_revolution_body(n, rng, samples=513)
            C = bodies.random_revolution_body(n, rng, samples=513)
            rep = fmp.fmp_bound_check(K, C)
        if rep.lhs_additive < rep.rhs_additive - 1e-9 * rep.lhs_additive:
            fmp_violations += 1
        if rep.lhs_product < rep.rhs_product - 1e-9 * rep.lhs_product:
            fmp_violations += 1

    # Minkowski-section chain on 100 random level-stack pairs, checked on
    # every (r, s) level pair whose geometric mean lies on the output grid
    chain_violations = 0
    ndim = 3
    for _ in range(100):
        f = pln.random_log_concave_stack(ndim, rng, level_count=32, samples=129)
        g = pln.random_log_concave_stack(ndim, rng, level_count=32, samples=129)
        m = pln.minimal_midpoint_stack(f, g)
        K = len(f.levels)
        for k in range(K):
            Mk = m.volumes[k]
            for i in range(max(0, 2 * k - (K - 1)), min(K - 1, 2 * k) + 1):
                j = 2 * k - i
                Fr, Gs = f.volumes[i], g.volumes[j]
                mid = ((Fr ** (1 / ndim) + Gs ** (1 / ndim)) / 2.0) ** ndim
                if Mk < mid - 1e-7 * mid or mid < math.sqrt(Fr * Gs) - 1e-9 * mid:
                    chain_violations += 1

    elapsed = time.monotonic() - t0
    ok = (worst_pl >= -1e-8 and worst_bs >= -1e-6 and fmp_violations == 0
          and chain_violations == 0 and elapsed < 120.0)
    _report(1, ok,
            f"PL min deficit {worst_pl:.2e} (>= -1e-8), "
            f"BS min deficit {worst_bs:.2e} (>= -1e-6), "
            f"FMP violations {fmp_violations}, chain violations {chain_violations}, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_2_equality_cases():
    # Gaussian PL deficit
    x = np.linspace(-6.0, 6.0, 4097)
    f = pl1d.GridFn1D(x, np.exp(-x * x), log_concave=True)
    pl_eq = abs(pl1d.pl_deficit(f, f, f))

    # ball volume product at profile resolution 2049
    bs_eq = abs(polarity.bs_deficit(revolution_ball(3, 1.0, 2049)).bs_deficit)

    # K = C stability bound
    fmp_gaps = []
    for K in (Ball(3, 1.0), unit_square(),
              bodies.random_revolution_body(3, np.random.default_rng(5), samples=1025)):
        rep = fmp.fmp_bound_check(K, K)
        fmp_gaps.append(abs(rep.lhs_additive - rep.rhs_additive) / rep.lhs_additive)
        fmp_gaps.append(abs(rep.lhs_product - rep.rhs_product) / rep.lhs_product)

    # f = g log-concave: minimal midpoint stack reproduces f
    st = pln.gaussian_stack(3, level_count=48, samples=257)
    m = pln.minimal_midpoint_stack(st, st)
    gap = max(hausdorff(bm, bf) / float(np.max(np.hypot(bf.t, bf.radius)))
              for bf, bm in zip(st.bodies, m.bodies))

    ok = (pl_eq <= 1e-8 and bs_eq <= 1e-6 and max(fmp_gaps) <= 1e-6
          and gap <= 1e-7)
    _report(2, ok,
            f"Gaussian PL deficit {pl_eq:.2e} (<= 1e-8), ball BS deficit "
            f"{bs_eq:.2e} (<= 1e-6), K=C FMP gap {max(fmp_gaps):.2e} (<= 1e-6), "
            f"midpoint=f Hausdorff gap {gap:.2e} circumradii (<= 1e-7)")


def test_criterion_3_cap_cut_exponent():
    t0 = time.monotonic()
    grid = tuple(np.geomspace(1e-6, 1e-2, 13))
    fit3, _ = experiments.run(
        experiments.ExperimentConfig(experiment="cap-scan", dim=3, grid=grid))
    fit2, _ = experiments.run(
        experiments.ExperimentConfig(experiment="cap-scan", dim=2, grid=grid))
    elapsed = time.monotonic() - t0
    ok = (0.45 <= fit3.slope <= 0.55 and fit3.r_squared >= 0.98
          and 0.60 <= fit2.slope <= 0.73 and fit2.r_squared >= 0.98
          and elapsed < 60.0)
    _report(3, ok,
            f"n=3 slope {fit3.slope:.4f} in [0.45, 0.55] (r2 {fit3.r_squared:.4f}), "
            f"n=2 slope {fit2.slope:.4f} in [0.60, 0.73] (r2 {fit2.r_squared:.4f}), "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_known_values():
    sq = polarity.bs_deficit(unit_square()).bs_deficit
    sq_err = abs(sq - (math.pi ** 2 / 8.0 - 1.0))

    g2 = fmp.gamma_star(2)
    g3 = fmp.gamma_star(3)
    g2_ok = f"{g2:.5e}" == "8.24287e-10"
    g3_ok = f"{g3:.5e}" == "9.86659e-13"

    cyl = polarity.bm_distance_to_ball(revolution_cylinder(3, 1.0, 1.0, 2049))
    cyl_err = abs(cyl - 0.5 * math.log(2.0))

    xf = np.linspace(-1.0, 1.0, 2001)
    xg = np.linspace(-2.0, 2.0, 4001)
    fi = pl1d.GridFn1D(xf, np.ones_like(xf))
    gi = pl1d.GridFn1D(xg, np.ones_like(xg))
    ind = pl1d.pl_deficit(fi, gi, pl1d.sup_convolution_midpoint(fi, gi))
    ind_err = abs(ind - (3.0 / (2.0 * math.sqrt(2.0)) - 1.0))

    ok = sq_err <= 1e-3 and g2_ok and g3_ok and cyl_err <= 1e-4 and ind_err <= 1e-4
    _report(4, ok,
            f"square deficit err {sq_err:.2e} (<= 1e-3), gamma*(2)={g2:.6e} "
            f"gamma*(3)={g3:.6e} to 6 digits, cylinder BM err {cyl_err:.2e} "
            f"(<= 1e-4), indicator deficit err {ind_err:.2e} (<= 1e-4)")


def test_criterion_5_oracles():
    rng = np.random.default_rng(7)
    battery = [Ball(2, 1.0), Ball(3, 1.0), Ball(5, 1.0),
               revolution_cylinder(3, 1.0, 1.0, 2049),
               polarity.cap_cut_body(3, 1e-2, samples=2049),
               unit_square(), bodies.random_polygon(rng),
               bodies.random_o_symmetric_polygon(rng)]
    for n in (2, 3, 4):
        battery.append(bodies.random_revolution_body(n, rng, samples=1025,
                                                     amplitude=rng.uniform(0, 1)))
    mc_ok = True
    worst_pull = 0.0
    for i, K in enumerate(battery):
        est, se = mc_volume(K, 10 ** 6, seed=1000 + i)
        gap = abs(est - bodies.volume(K))
        # se = 0 happens when the bounding box equals the body (a box)
        pull = gap / se if se > 0 else (0.0 if gap <= 1e-12 else math.inf)
        worst_pull = max(worst_pull, pull)
        mc_ok = mc_ok and pull <= 4.0

    K = ConvexPolygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 2.0]]))
    res = polarity.santalo_point(K)
    from test_polarity import _grid_search_oracle
    z_oracle = _grid_search_oracle(K)
    diam = math.sqrt(20.0)
    santalo_err = float(np.linalg.norm(res.point - z_oracle)) / diam

    worst_inv = 0.0
    for _ in range(20):
        P = bodies.random_o_symmetric_polygon(rng)
        PP = polarity.polar(polarity.polar(P))
        diamP = float(np.ptp(P.vertices))
        worst_inv = max(worst_inv, hausdorff(PP, P) / diamP)

    ok = mc_ok and santalo_err <= 1e-3 and worst_inv <= 1e-9
    _report(5, ok,
            f"MC worst pull {worst_pull:.2f} se (<= 4), Santalo vs grid oracle "
            f"{santalo_err:.2e} diam (<= 1e-3), polar involution "
            f"{worst_inv:.2e} diam (<= 1e-9)")


def test_criterion_6_substitution_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        F = random_decreasing_logconcave(rng)
        G = random_decreasing_logconcave(rng)
        Mg = pl1d.sup_convolution_midpoint(F, G, "geometric")
        eps_geom = pl1d.pl_deficit(F, G, Mg)
        f, g = pl1d.exp_substitution(F), pl1d.exp_substitution(G)
        eps_arith = pl1d.pl_deficit(f, g, pl1d.sup_convolution_midpoint(f, g))
        worst = max(worst, abs(eps_geom - eps_arith))
    ok = worst <= 1e-6
    _report(6, ok, f"geometric vs substituted arithmetic deficit gap "
                   f"{worst:.2e} over 100 pairs (<= 1e-6)")


def test_criterion_7_tracer():
    # equality family: every trace quantity vanishes
    f = pln.gaussian_stack(3, level_count=48, samples=257)
    tr = pln.pl_trace(f, f, f)
    eq_ok = (abs(tr.eps) <= 1e-12 and abs(tr.b - 1.0) <= 1e-6
             and float(np.max(np.abs(tr.alpha - 1.0))) <= 1e-6
             and float(np.nanmax(tr.eta)) <= 1e-9
             and not tr.J_mask.any()
             and max(tr.l1_fg, tr.l1_fm, tr.l1_gm) <= 1e-12)

    # axis-dilation family: proof-chain directions and bounded ratios
    dir_ok = True
    ratios = []
    for d in np.geomspace(0.02, 0.3, 10):
        g = pln.axis_dilated_stack(f, 1.0 + d)
        m = pln.minimal_midpoint_stack(f, g)
        t = pln.pl_trace(f, g, m)
        dir_ok = dir_ok and (t.jsize_lhs <= t.jsize_rhs + 1e-12)
        dir_ok = dir_ok and (t.sectioncap_margin <= 1e-9)
        dir_ok = dir_ok and (t.b >= 1.0 - 1e-12)
        ratios.append(t.ratio_to_sqrt_omega(t.l1_fg))
    ratio_ok = bool(np.all(np.isfinite(ratios)) and max(ratios) < 100.0)

    ok = eq_ok and dir_ok and ratio_ok
    _report(7, ok,
            f"equality family vanishes: {eq_ok}; Jsize/sectioncap/b>=1 on the "
            f"dilation scan: {dir_ok}; l1/sqrt(omega) in "
            f"[{min(ratios):.3f}, {max(ratios):.3f}] bounded: {ratio_ok}")
