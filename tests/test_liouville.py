import math
import warnings

import numpy as np
import pytest

from fraccert.chains import Verdict
from fraccert.errors import ConfigurationError, DivergenceError, DomainError
from fraccert.liouville import (CandidateFamily, MemberVerdict,
                                annulus_inf, default_r_grid, nonexistence_scan,
                                power_symbol, proof_quantity_trace,
                                supersolution_residual, verify_growth_bounds)
from fraccert.operator import QuadSpec, eval_radial_jobs
from fraccert.params import FracParams
from fraccert.profiles import BarrierConstants, RadialProfile, SignVariant, make_fundamental

P3 = FracParams(3, 0.5)
P1 = FracParams(1, 0.75)

PHI3 = make_fundamental(P3)                      # decaying power
PHI1_GROWN = make_fundamental(P1, SignVariant.NEGATED)  # growing power


def test_annulus_infimum_on_monotone_profiles():
    # increasing profiles attain the infimum at the inner radius, decreasing at the outer
    assert annulus_inf(PHI1_GROWN, 9.0) == pytest.approx(9.0**0.5, rel=1e-12)
    assert annulus_inf(PHI3, 9.0) == pytest.approx(18.0**-2.0, rel=1e-12)
    assert annulus_inf(lambda rho: 3.0 * np.ones_like(np.asarray(rho)), 5.0) == pytest.approx(3.0)


def test_annulus_ratio_matches_power_scaling():
    m1 = annulus_inf(PHI3, 7.0)
    m2 = annulus_inf(PHI3, 14.0)
    assert m2 / m1 == pytest.approx(2.0**P3.sigma_star, rel=1e-12)


def test_growth_bounds_exact_power():
    grid = list(np.geomspace(2.0, 2000.0, 8))
    rep = verify_growth_bounds(PHI1_GROWN, "SUP_GT_HALF", grid, P1)
    assert rep.passed
    assert rep.slope == pytest.approx(P1.sigma_star, abs=1e-9)
    assert rep.upper_constant == pytest.approx(1.0, rel=1e-9)


def test_growth_bounds_bounded_profile():
    one_plus = lambda rho: 1.0 + np.asarray(rho, dtype=float) ** -2.0
    rep = verify_growth_bounds(one_plus, "SUB", list(np.geomspace(2.0, 2000.0, 8)), P3)
    assert rep.passed


def test_growth_bounds_log_envelope():
    grown_log = lambda rho: 1.0 + np.log(np.asarray(rho, dtype=float))
    rep = verify_growth_bounds(grown_log, "SUP_HALF", list(np.geomspace(3.0, 3000.0, 8)),
                               FracParams(1, 0.5))
    assert rep.passed


def test_growth_bounds_on_radially_extended_discrete_solution():
    # a solver-produced positive profile, read radially, passes its envelope
    from fraccert.dirichlet import GridProblem, solve_dirichlet
    params = FracParams(1, 0.75)
    sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 128, params, 1.0))
    right = sol.nodes > 0
    nodes, values = sol.nodes[right], sol.values[right]
    radial = lambda rho: np.interp(np.asarray(rho, dtype=float), nodes, values)
    grid = list(np.geomspace(0.0025, 0.25, 8))
    rep = verify_growth_bounds(radial, "SUP_GT_HALF", grid, params, points=100)
    assert rep.passed, rep.notes


def test_growth_bounds_input_validation():
    with pytest.raises(ConfigurationError):
        verify_growth_bounds(PHI3, "SUB", [10.0, 20.0, 40.0], P3)  # too narrow
    with pytest.raises(DomainError):
        verify_growth_bounds(lambda rho: -np.ones_like(np.asarray(rho)), "SUB",
                             list(np.geomspace(2.0, 2000.0, 8)), P3)


def test_power_symbol_matches_gamma_closed_form():
    # lambda(1/2) for n=3, s=1/2 equals 1/2 exactly by the Gamma functional equation
    lam = power_symbol(0.5, P3)
    g = math.gamma
    exact = 2.0 * g(0.75) * g(1.25) / (g(0.25) * g(0.75))
    assert lam == pytest.approx(exact, abs=1e-8)
    assert lam == pytest.approx(0.5, abs=1e-8)
    # the fundamental exponent is annihilated
    assert power_symbol(P3.n - 2 * P3.s, P3) == pytest.approx(0.0, abs=1e-8)


def test_residual_of_fundamental_with_zero_forcing():
    rep = supersolution_residual(PHI3, lambda t, x: 0.0, (10.0, 1e4), P3)
    assert abs(rep.min_residual) <= 1e-8
    assert rep.verdict is not Verdict.FAIL  # never provably negative


def test_residual_with_subcritical_forcing_fails_everywhere():
    rep = supersolution_residual(PHI3, lambda t, x: t**1.4, (10.0, 1e4), P3)
    assert rep.verdict is Verdict.FAIL
    # the operator term vanishes, so the residual is minus the forcing
    r, res, _ = min(rep.samples, key=lambda row: row[0])
    u_val = float(PHI3(r))
    assert res == pytest.approx(-(u_val**1.4), rel=1e-4)


def test_supercritical_control_member_certifies():
    p = 3.0
    tau = 2 * P3.s / (p - 1.0)
    lam = power_symbol(tau, P3)
    eps = (0.5 * lam) ** (1.0 / (p - 1.0))
    control = RadialProfile((), (((eps, -tau, False),),))
    rep = supersolution_residual(control, lambda t, x: t**p, (10.0, 1e4), P3)
    assert rep.verdict is Verdict.PASS, rep


def test_scan_subcritical_certifies_nothing():
    fam = CandidateFamily(c_values=tuple(np.geomspace(0.1, 10, 4)),
                          beta_values=tuple(np.linspace(0.1, 6, 4)))
    scan = nonexistence_scan(fam, lambda t, x: t**1.4, P3, (10.0, 1e4), points=15)
    assert scan.certified == 0
    assert scan.failed == fam.size()


def test_scan_supercritical_control_is_found():
    fam = CandidateFamily(c_values=(1.0,), beta_values=(2.0,),
                          include_control=True, control_power=3.0)
    scan = nonexistence_scan(fam, lambda t, x: t**3.0, P3, (10.0, 1e4), points=15)
    assert scan.certified >= 1
    labels = {label: verdict for label, verdict, *_ in scan.members}
    control_label = next(l for l in labels if l.startswith("control"))
    assert labels[control_label] == MemberVerdict.SUPERSOLUTION


def test_scan_never_certifies_a_growth_bound_failure():
    # cross-report consistency: a certified member in the n > 2s regime with a
    # forcing passing the small-argument mass check must also sit inside the
    # growth envelope; scan members that fail growth may never be certified
    fam = CandidateFamily(c_values=(0.5, 2.0), beta_values=(0.5, 2.0, 5.0))
    scan = nonexistence_scan(fam, lambda t, x: t**1.4, P3, (10.0, 1e4), points=12)
    certified = {label for label, verdict, *_ in scan.members
                 if verdict == MemberVerdict.SUPERSOLUTION}
    assert not certified


def test_scan_bounded_family_decreasing_forcing_line_case():
    # n = 1, s = 3/4 with the inverse-square forcing: every bounded candidate
    # hits a huge forcing where it decays, so nothing certifies
    params = FracParams(1, 0.75)
    fam = CandidateFamily(c_values=(0.5, 1.0, 2.0), beta_values=(0.5, 1.5, 3.0))
    scan = nonexistence_scan(fam, lambda t, x: t**-2.0, params, (10.0, 1e4), points=12)
    assert scan.certified == 0


def test_empty_family_rejected():
    fam = CandidateFamily(c_values=(), beta_values=())
    with pytest.raises(ConfigurationError):
        nonexistence_scan(fam, lambda t, x: t**1.4, P3, (10.0, 1e4))


def test_scan_scales_one_evaluation_per_beta(monkeypatch):
    # (-Delta)^s is linear: the scan evaluates each distinct beta once and the
    # control once, and every member agrees with its own direct residual
    import fraccert.liouville as liouville

    fam = CandidateFamily(c_values=(0.1, 1.0, 10.0), beta_values=(1.0, 3.0, 1.0, 5.0),
                          include_control=True, control_power=3.0)
    f = lambda t, x: t**3.0
    quad = QuadSpec(rel_tol=1e-6, abs_tol=1e-12)
    tolerances = []

    def spy(jobs, params):
        tolerances.extend(q.abs_tol for _, _, q in jobs)
        return eval_radial_jobs(jobs, params)

    monkeypatch.setattr(liouville, "eval_radial_jobs", spy)
    scan = nonexistence_scan(fam, f, P3, (10.0, 1e4), quad, points=12, keep_curves=True)
    monkeypatch.undo()
    # three distinct betas at abs_tol / max c, then the control at abs_tol
    assert tolerances == [1e-12 / 10.0] * 3 + [1e-12]

    verdicts = {Verdict.PASS: MemberVerdict.SUPERSOLUTION, Verdict.FAIL: MemberVerdict.FAILS_AT,
                Verdict.INCONCLUSIVE: MemberVerdict.INCONCLUSIVE}
    members = list(fam.members(P3))
    assert [row[0] for row in scan.members] == [label for label, _ in members]
    for (label, member), row, (_, samples) in zip(members, scan.members, scan.curves):
        direct = supersolution_residual(member, f, (10.0, 1e4), P3, quad, points=12)
        assert row[1] == verdicts[direct.verdict], label
        assert row[2] == direct.witness_radius, label
        for (r, res, err), (r_d, res_d, err_d) in zip(samples, direct.samples):
            assert r == r_d
            assert abs(res - res_d) <= err + err_d, (label, r)
    assert {row[1] for row in scan.members} == {MemberVerdict.SUPERSOLUTION,
                                                 MemberVerdict.FAILS_AT}
    # member c carries c times the values and error estimates of its base
    errors = {label: np.asarray([err for _, _, err in samples]) for label, samples in scan.curves}
    for beta in ("1", "3", "5"):
        for c in ("0.1", "10"):
            assert np.allclose(errors[f"c={c},beta={beta}"],
                               float(c) * errors[f"c=1,beta={beta}"], rtol=1e-14, atol=0.0)


def test_scan_takes_bases_off_the_pole_rule_in_closed_form(monkeypatch):
    # beta = 0.7, 2.2 and 4.4 (n/2 - beta/2 = 1.15, 0.4, -0.7) take profiles._bubble_symbol: the engine sees only
    # the control, and every member agrees with its own direct residual
    import fraccert.liouville as liouville

    fam = CandidateFamily(c_values=(0.1, 1.0, 10.0), beta_values=(0.7, 2.2, 0.7, 4.4),
                          include_control=True, control_power=3.0)
    f = lambda t, x: t**3.0
    quad = QuadSpec(rel_tol=1e-6, abs_tol=1e-12)
    seen = []

    def spy(jobs, params):
        seen.extend((u, q.abs_tol) for u, _, q in jobs)
        return eval_radial_jobs(jobs, params)

    monkeypatch.setattr(liouville, "eval_radial_jobs", spy)
    scan = nonexistence_scan(fam, f, P3, (10.0, 1e4), quad, points=12, keep_curves=True)
    monkeypatch.undo()
    members = list(fam.members(P3))
    assert seen == [(members[-1][1], 1e-12)]
    for (label, member), row, (_, samples) in zip(members, scan.members, scan.curves):
        direct = supersolution_residual(member, f, (10.0, 1e4), P3, quad, points=12)
        assert row[1] == liouville._MEMBER_VERDICT[direct.verdict], label
        assert row[2] == direct.witness_radius, label
        for (r, res, err), (r_d, res_d, err_d) in zip(samples, direct.samples):
            assert r == r_d
            assert abs(res - res_d) <= err + err_d, (label, r)


def test_scan_rejects_a_growing_candidate_before_evaluating(monkeypatch):
    # -beta >= 2s - 0.05, the profile rule of eval_radial_jobs: at (3, 1/2), beta = -0.96 used to pass the far-field
    # probe, overflow in the tail and come back INCONCLUSIVE with worst_residual -inf and RuntimeWarnings
    import fraccert.liouville as liouville

    def evaluated(*args):
        raise AssertionError("a base was evaluated")

    monkeypatch.setattr(liouville, "eval_radial_jobs", evaluated)
    monkeypatch.setattr(liouville, "_bubble_symbol", evaluated)
    for beta in (-0.96, -0.95):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                nonexistence_scan(CandidateFamily((1.0,), (2.0, beta)), lambda t, x: t**1.4, P3, (10.0, 1e4))


@pytest.mark.parametrize("c_values,beta_values", [
    ((-1.0,), (1.0,)), ((0.0,), (1.0,)), ((1.0, math.nan), (1.0,)), ((math.inf,), (1.0,)),
    ((1.0,), (math.nan,)), ((1.0,), (2.0, -math.inf))])
def test_family_rejects_nonpositive_or_nonfinite_candidates(c_values, beta_values):
    with pytest.raises(ConfigurationError):
        CandidateFamily(c_values=c_values, beta_values=beta_values)


@pytest.mark.parametrize("points", [0, -3])
def test_residual_needs_a_sample_point(points):
    with pytest.raises(ConfigurationError):
        supersolution_residual(PHI3, lambda t, x: t**1.4, (10.0, 1e4), P3, points=points)
    fam = CandidateFamily(c_values=(1.0,), beta_values=(2.0,))
    with pytest.raises(ConfigurationError):
        nonexistence_scan(fam, lambda t, x: t**1.4, P3, (10.0, 1e4), points=points)


def test_trace_flags_contradiction_for_subcritical_forcing():
    grid = default_r_grid(1.0, per_decade=4, decades=2.5)
    rep = proof_quantity_trace(PHI3, lambda t, x: t**1.4, P3, grid)
    assert rep.contradiction_radius is not None
    assert math.isfinite(rep.contradiction_radius)


def test_trace_never_flags_without_forcing():
    grid = default_r_grid(1.0, per_decade=4, decades=2.5)
    rep = proof_quantity_trace(PHI3, None, P3, grid)
    assert rep.contradiction_radius is None
    assert all(row.forcing_lower == 0.0 for row in rep.rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_forcing_lower_with_unit_forcing(n):
    # f = 1: the bound is 0.5 c_bar r^(2s) |{r < |x| < 2r}| / r^n, the annulus measure
    # |S^(n-1)| (2^n - 1) / n being 2, 3 pi and 28 pi / 3
    params = FracParams(n, 0.25)
    grid = default_r_grid(1.0, per_decade=2, decades=1.0)
    rep = proof_quantity_trace(lambda rho: 1.0 / (1.0 + np.asarray(rho) ** 2), lambda t, x: 1.0,
                               params, grid)
    measure = {1: 2.0, 2: 3.0 * math.pi, 3: 28.0 * math.pi / 3.0}[n]
    for row in rep.rows:
        assert row.forcing_lower == pytest.approx(0.5 * rep.c_bar * row.r**0.5 * measure, rel=1e-14)


def test_trace_reports_barrier_and_exterior_ratios():
    grid = default_r_grid(1.0, per_decade=3, decades=1.5)
    rep3 = proof_quantity_trace(PHI3, None, P3, grid)
    assert all(row.rho_ratio is not None and row.rho_ratio > 0.0 for row in rep3.rows)
    rep1 = proof_quantity_trace(PHI1_GROWN, None, P1, grid)
    etas = [row.eta_ratio for row in rep1.rows]
    assert all(e is not None and e > 0.0 for e in etas)
    # the exterior ratio stays of one scale; constancy itself is not assumed
    assert max(etas) <= 4.0 * min(etas)


def test_trace_rejects_nonpositive_profiles():
    grid = default_r_grid(1.0, per_decade=3, decades=1.0)
    with pytest.raises(DomainError):
        proof_quantity_trace(lambda rho: np.cos(np.asarray(rho)), None, P3, grid)


def test_sampler_covers_the_annulus():
    # annulus_inf samples `points` geometric radii over [r, 2r], then 64 between the neighbours of the minimum
    calls = []

    def u(rho):
        calls.append(np.array(rho, dtype=float))
        return (rho - 7.0) ** 2

    assert annulus_inf(u, 5.0, points=100) == pytest.approx(0.0, abs=1e-4)
    coarse, fine = calls
    np.testing.assert_array_equal(coarse, np.geomspace(5.0, 10.0, 100))
    i = int(np.abs(coarse - 7.0).argmin())
    assert fine.size == 64 and fine[0] == coarse[i - 1] and fine[-1] == coarse[i + 1]
    calls.clear()
    annulus_inf(u, 5.0)
    assert calls[0].size == 400 and calls[0].min() == 5.0 and calls[0].max() <= 10.0 + 1e-12


def _nan_beyond(radius: float):
    """The positive candidate 1 + |x|^(1/4), NaN beyond ``radius``."""
    return lambda rho: np.where(np.asarray(rho) > radius, np.nan, 1.0 + np.asarray(rho) ** 0.25)


def test_annulus_inf_refuses_nonfinite_samples():
    with pytest.raises(DomainError):
        annulus_inf(_nan_beyond(1.5), 1.0)
    with pytest.raises(DomainError):
        annulus_inf(lambda rho: np.where(np.asarray(rho) > 1.5, -np.inf, 1.0), 1.0)


def test_growth_bounds_and_trace_refuse_nonfinite_infima():
    u = _nan_beyond(300.0)
    with pytest.raises(DomainError):
        verify_growth_bounds(u, "SUB", list(np.geomspace(2.0, 2000.0, 8)), P3)
    with pytest.raises(DomainError):
        proof_quantity_trace(u, None, P3, default_r_grid(2.0, per_decade=3, decades=2.0))


def test_trace_refuses_a_nonfinite_forcing():
    forcing = lambda t, x: t**1.4 if x <= 50.0 else math.nan
    with pytest.raises(DomainError):
        proof_quantity_trace(PHI3, forcing, P3, default_r_grid(2.0, per_decade=3, decades=2.0))


def test_trace_refuses_a_nonfinite_exterior_ratio():
    # the annuli stay below 1e4; only the exterior ratio of the growing branch reaches beyond it
    grid = default_r_grid(2.0, per_decade=3, decades=2.0)
    assert 2.0 * max(grid) < 1e4
    with pytest.raises(DomainError):
        proof_quantity_trace(_nan_beyond(1e4), None, P1, grid)


@pytest.mark.parametrize("unconverged, verdict", [(1, MemberVerdict.FAILS_AT), (2, MemberVerdict.INCONCLUSIVE)])
def test_scan_member_follows_the_chain_sign_rule(monkeypatch, unconverged, verdict):
    # one residual below zero by more than 2 err: FAILS_AT while at most 5 % of the 20 samples are
    # unconverged, INCONCLUSIVE beyond, as a sign chain judges the same samples
    import fraccert.chains as chains
    import fraccert.liouville as liouville

    values = np.ones(20)
    values[7] = -1.0
    converged = np.arange(20) >= unconverged

    def batch(sign):
        return lambda jobs, params: [(sign * values, np.full(20, 1e-3), np.ones(20, dtype=int), converged)
                                     for _ in jobs]

    monkeypatch.setattr(liouville, "eval_radial_jobs", batch(1.0))
    fam = CandidateFamily(c_values=(1.0,), beta_values=(1.0,))
    scan = nonexistence_scan(fam, lambda t, x: 0.0 * t, P3, (10.0, 1e3), points=20)
    assert [row[1] for row in scan.members] == [verdict]
    failed = verdict == MemberVerdict.FAILS_AT
    assert (scan.certified, scan.failed, scan.inconclusive) == (0, int(failed), int(not failed))
    direct = supersolution_residual(lambda rho: np.ones_like(rho), lambda t, x: 0.0 * t, (10.0, 1e3), P3, points=20)
    assert direct.verdict is (Verdict.FAIL if failed else Verdict.INCONCLUSIVE)
    # a sign chain needs negative values: the same samples, negated
    monkeypatch.setattr(chains, "eval_radial_jobs", batch(-1.0))
    rep = chains.verify_chain("CA1_00", FracParams(1, 0.5), BarrierConstants(2.0, 20.0), chains.SamplePolicy(points=20))
    assert rep.verdict is (chains.Verdict.FAIL if failed else chains.Verdict.INCONCLUSIVE)
