"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else; timing limits are asserted
directly.  Run with ``pytest -v -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from fraccert.chains import ChainId, SamplePolicy, Verdict, measure_rate, verify_chain
from fraccert.constants import choose_constants
from fraccert.dirichlet import (ANNULUS_DOMAIN, GridProblem, solve_dirichlet,
                                verify_comparison, verify_hopf_ratio, verify_kslap,
                                verify_measure_lemma, verify_qsmp)
from fraccert.hypotheses import NonlinearitySpec, Verdict as HVerdict, alpha_tilde_star, \
    builtin_g, check_f2, check_f3prime, check_f4prime
from fraccert.liouville import (CandidateFamily, default_r_grid, nonexistence_scan,
                                proof_quantity_trace)
from fraccert.operator import eval_pointwise, eval_radial, scaling_identity_check
from fraccert.params import FracParams
from fraccert.profiles import BarrierConstants, make_fundamental


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_fundamental_annihilation():
    t0 = time.time()
    worst = 0.0
    for n, s in ((1, 0.5), (1, 0.75), (2, 0.4), (3, 0.5)):
        params = FracParams(n, s)
        prof = make_fundamental(params)
        for r in np.geomspace(1.0, 100.0, 10):
            ov = eval_radial(prof, float(r), params)
            ratio = abs(ov.value) / max(1.0, abs(prof(float(r))))
            worst = max(worst, ratio)
    elapsed = time.time() - t0
    _report("1", worst <= 1e-4 and elapsed < 60.0,
            f"worst |op(Phi)|/max(1,|Phi|) = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fourier_symbol():
    worst1 = worst2 = 0.0
    for s in (0.3, 0.5, 0.7):
        params = FracParams(1, s)
        worst1 = max(worst1, abs(eval_pointwise(np.cos, 0.0, params).value - 1.0))
        target = 2.0 ** (2 * s)
        got = eval_pointwise(lambda x: np.cos(2.0 * x), 0.0, params).value
        worst2 = max(worst2, abs(got - target) / target)
    _report("2", worst1 <= 1e-3 and worst2 <= 2e-3,
            f"|cos@0 - 1| <= {worst1:.1e}, rel dev at xi=2 <= {worst2:.1e}")


def test_criterion_03_scaling_identity():
    params = FracParams(1, 0.5)
    bump = lambda x: np.exp(-np.asarray(x) ** 2)
    worst = max(scaling_identity_check(bump, lam, 0.3, params) for lam in (0.5, 2.0, 10.0))
    _report("3", worst <= 1e-3, f"worst relative deviation {worst:.2e}")


def test_criterion_04_sign_chains():
    t0 = time.time()
    presets = {
        ChainId.LVC: FracParams(1, 0.75),
        ChainId.NBBN: FracParams(1, 0.5),
        ChainId.NITU: FracParams(3, 0.5),
        ChainId.VASK: FracParams(3, 0.5),
        ChainId.RI: FracParams(3, 0.5),
    }
    policy = SamplePolicy(points=200)
    outcomes = []
    for chain, params in presets.items():
        constants = choose_constants(chain.value, params, r0=2.0, r=20.0)
        rep = verify_chain(chain, params, constants, policy)
        outcomes.append((chain.value, rep.verdict))
    elapsed = time.time() - t0
    ok = all(v is Verdict.PASS for _, v in outcomes) and elapsed < 300.0
    _report("4", ok, f"{[(c, v.value) for c, v in outcomes]}, {elapsed:.1f}s")


def test_criterion_05_rate_fits():
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    grid = [10.0, 31.6, 100.0, 316.0, 1000.0]
    fit_a = measure_rate(ChainId.CA3D, FracParams(1, 0.75), bc, grid, points_per_r=20)
    fit_b = measure_rate(ChainId.CA3Q, FracParams(3, 0.5), bc, grid, points_per_r=20)
    fit_c = measure_rate(ChainId.CAR3PP, FracParams(1, 0.5), bc, grid, points_per_r=20)
    ok = (abs(fit_a.slope + 1.0) <= 0.15 and abs(fit_b.slope + 2 * 0.5) <= 0.15
          and fit_c.ratio_spread is not None and fit_c.ratio_spread <= 2.0)
    _report("5", ok, f"slopes {fit_a.slope:.3f}/{fit_b.slope:.3f}, "
                     f"log-rate spread {fit_c.ratio_spread:.2f}")


def test_criterion_06_discrete_comparison():
    params = FracParams(1, 0.5)
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(100):
        base = rng.uniform(-1.0, 1.0, 4)
        extra = rng.uniform(-1.0, 1.0, 4)
        r1 = lambda x, c=base: np.polyval(c, np.asarray(x)) ** 2
        r2 = lambda x, c=base, d=extra: (np.polyval(c, np.asarray(x)) ** 2
                                         + np.polyval(d, np.asarray(x)) ** 2)
        rep = verify_comparison(GridProblem(((-1.0, 1.0),), 1 / 32, params, r1),
                                GridProblem(((-1.0, 1.0),), 1 / 32, params, r2))
        violations += not rep.passed
    _report("6", violations == 0, f"{violations} violations in 100 seeded ordered pairs")


def test_criterion_07_hopf_ratio():
    params = FracParams(1, 0.5)
    rhs = lambda x: ((np.abs(np.asarray(x)) < 0.1)).astype(float)
    rep = verify_hopf_ratio(GridProblem(((-1.0, 1.0),), 1 / 128, params, rhs))
    _report("7", rep.min_ratio > 0.0 and rep.stable,
            f"min ratio {rep.min_ratio:.4f}, constant {rep.c_estimate:.4f} "
            f"vs refined {rep.c_estimate_refined:.4f}")


def test_criterion_08_kslap_qsmp_constants():
    params = FracParams(1, 0.5)
    chi = lambda x: (((np.abs(np.asarray(x)) > 1.375) & (np.abs(np.asarray(x)) < 1.625))).astype(float)
    battery = [((-1.625, -1.375), (1.375, 1.625)), ((1.375, 1.625),),
               ((-1.5, -1.375), (1.375, 1.5))]
    cbar_h = verify_kslap(chi, battery, params, h=1 / 32).c_bar
    cbar_h2 = verify_kslap(chi, battery, params, h=1 / 64).c_bar
    kslap_ok = cbar_h > 0 and cbar_h2 > 0 and \
        max(cbar_h, cbar_h2) <= 2.0 * min(cbar_h, cbar_h2)

    p75 = FracParams(1, 0.75)
    reps = [verify_qsmp(((1.0, 4.0),), ((2.0, 3.0),), ((1.5, 1.8125),), p75,
                        variant=v, h=1 / 32) for v in ("I", "II")]
    qsmp_ok = all(r.c0 > 0 and r.c0_refined > 0
                  and max(r.c0, r.c0_refined) <= 2.0 * min(r.c0, r.c0_refined)
                  for r in reps)
    _report("8", kslap_ok and qsmp_ok,
            f"c_bar {cbar_h:.4f}->{cbar_h2:.4f}; c0 I {reps[0].c0:.4f}, II {reps[1].c0:.4f}")


def test_criterion_09_measure_lemma():
    params = FracParams(1, 0.5)
    chi = lambda x: (((np.abs(np.asarray(x)) > 1.375) & (np.abs(np.asarray(x)) < 1.625))).astype(float)
    c1 = verify_measure_lemma(
        solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 32, params, chi)), nu=0.5).c_bar
    c2 = verify_measure_lemma(
        solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 64, params, chi)), nu=0.5).c_bar
    steps = abs(math.log(c2 / c1) / math.log(1.25))
    _report("9", math.isfinite(c1) and steps <= 1.0 + 1e-9,
            f"C = {c1:.4f} vs refined {c2:.4f} ({steps:.1f} lattice steps apart)")


def test_criterion_10_hypothesis_suite():
    p3 = FracParams(3, 0.5)
    p1 = FracParams(1, 0.75)
    ok_a = check_f2(NonlinearitySpec(g=builtin_g("power", p=1.4)), p3).verdict is HVerdict.HOLDS
    ok_b = check_f2(NonlinearitySpec(g=builtin_g("power", p=2.0)), p3).verdict is HVerdict.FAILS
    rep_c = check_f2(NonlinearitySpec(g=builtin_g("critical_splice", p3)), p3)
    ok_c = rep_c.verdict is HVerdict.HOLDS and abs(rep_c.plateau_value - 2.5) <= 0.05

    rep_f3 = check_f3prime(NonlinearitySpec(g=builtin_g("power", p=-2.0)), p1)
    want_f3 = -1.0 + alpha_tilde_star(p1, 0.0)
    ok_d = rep_f3.verdict is HVerdict.HOLDS and abs(rep_f3.fit_slope - want_f3) <= 0.2
    rep_f4 = check_f4prime(NonlinearitySpec(g=builtin_g("power", p=1.5)), p3)
    want_f4 = -1.0 + alpha_tilde_star(p3, 0.0)
    ok_e = rep_f4.verdict is HVerdict.HOLDS and abs(rep_f4.fit_slope - want_f4) <= 0.2
    _report("10", ok_a and ok_b and ok_c and ok_d and ok_e,
            f"plateau {rep_c.plateau_value:.3f}; k-exponents "
            f"{rep_f3.fit_slope:.2f} (want {want_f3:.2f}), "
            f"{rep_f4.fit_slope:.2f} (want {want_f4:.2f})")


def test_criterion_11_nonexistence_scan():
    t0 = time.time()
    params = FracParams(3, 0.5)
    subcritical = CandidateFamily()  # 20 x 20 grid = 400 members
    scan_sub = nonexistence_scan(subcritical, lambda t, x: t**1.4, params, (10.0, 1e4))
    control = CandidateFamily(c_values=(0.5, 2.0), beta_values=(1.0, 3.0),
                              include_control=True, control_power=3.0)
    scan_sup = nonexistence_scan(control, lambda t, x: t**3.0, params, (10.0, 1e4))
    elapsed = time.time() - t0
    ok = scan_sub.certified == 0 and scan_sup.certified >= 1 and elapsed < 600.0
    _report("11", ok, f"subcritical certified {scan_sub.certified}/400, "
                      f"supercritical certified {scan_sup.certified}, {elapsed:.1f}s")


def test_criterion_12_trace_contradiction_flag():
    params = FracParams(3, 0.5)
    prof = make_fundamental(params)
    grid = default_r_grid(1.0, per_decade=6, decades=3.0)
    with_forcing = proof_quantity_trace(prof, lambda t, x: t**1.4, params, grid)
    without = proof_quantity_trace(prof, None, params, grid)
    ok = with_forcing.contradiction_radius is not None and without.contradiction_radius is None
    _report("12", ok, f"flag at r = {with_forcing.contradiction_radius}, "
                      f"none for zero forcing: {without.contradiction_radius is None}")
