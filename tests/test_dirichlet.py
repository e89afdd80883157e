import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve, solve_toeplitz, toeplitz

import fraccert
from dense_dirichlet import DenseAssembly
from fraccert.dirichlet import (ANNULUS_DOMAIN, ExteriorData, GridProblem, _Assembly, _assembly,
                                _fundamental_tail, _pair_weights, _toeplitz_first_column, apply_operator,
                                solve_dirichlet, verify_comparison, verify_hopf_ratio,
                                verify_kslap, verify_measure_lemma, verify_qsmp)
from fraccert.errors import (ConfigurationError, DegenerateInputError, DomainError,
                             FraccertError, NumericalError)
from fraccert.operator import QuadSpec, eval_pointwise, eval_radial
from fraccert.params import FracParams
from fraccert.profiles import positive_fundamental

P_HALF = FracParams(1, 0.5)
P_75 = FracParams(1, 0.75)

INDICATOR = lambda a, b: (lambda x: ((np.asarray(x) > a) & (np.asarray(x) < b)).astype(float))
ANNULUS_CHI = lambda x: (((np.abs(np.asarray(x)) > 1.375) & (np.abs(np.asarray(x)) < 1.625))).astype(float)


def test_zero_problem_has_zero_solution():
    sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 0.0))
    assert np.abs(sol.values).max() <= 1e-12


def test_solution_is_linear_in_the_forcing():
    prob1 = GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 1.0)
    prob2 = GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 2.0)
    v1 = solve_dirichlet(prob1).values
    v2 = solve_dirichlet(prob2).values
    np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-10)


def test_candidate_profile_oracle_at_fine_grid():
    # rhs 1 on (-1,1), s=1/2: candidate c (1-x^2)^s with c fixed by applying
    # the quadrature engine to the candidate and matching the forcing
    u_cand = lambda rho: np.sqrt(np.maximum(1.0 - np.minimum(np.asarray(rho), 1.0) ** 2, 0.0))
    K = eval_radial(u_cand, 0.3, P_HALF, QuadSpec(kink_radii=(1.0,))).value
    sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 512, P_HALF, 1.0))
    exact = (1.0 / K) * np.sqrt(1.0 - sol.nodes**2)
    assert np.abs(sol.values - exact).max() <= 5e-3


def test_observable_order_on_resolvable_solution():
    # manufactured smooth solution: forcing from the quadrature engine
    bump = lambda x: np.where(np.abs(x) < 0.5,
                              np.exp(4.0 - 1.0 / np.maximum(0.25 - np.asarray(x) ** 2, 1e-300)), 0.0)
    errors = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        shell = GridProblem(((-1.0, 1.0),), h, P_HALF, 0.0)
        x = shell.nodes()
        rhs = np.array([eval_pointwise(bump, float(xi), P_HALF, QuadSpec(rel_tol=1e-9)).value
                        for xi in x])
        sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), h, P_HALF, rhs))
        errors.append(np.abs(sol.values - bump(x)).max())
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 1.0


def test_maximum_principle_randomized():
    rng = np.random.default_rng(3)
    for _ in range(100):
        coefs = rng.uniform(-1.0, 1.0, 4)
        rhs = lambda x, c=coefs: np.polyval(c, np.asarray(x)) ** 2
        sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, rhs))
        assert sol.values.min() >= -1e-12


def test_comparison_ordered_pairs_battery():
    rng = np.random.default_rng(11)
    for _ in range(25):
        base = rng.uniform(-1.0, 1.0, 4)
        extra = rng.uniform(-1.0, 1.0, 4)
        r1 = lambda x, c=base: np.polyval(c, np.asarray(x)) ** 2
        r2 = lambda x, c=base, d=extra: np.polyval(c, np.asarray(x)) ** 2 + np.polyval(d, np.asarray(x)) ** 2
        rep = verify_comparison(
            GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, r1),
            GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, r2),
        )
        assert rep.passed


def test_comparison_equal_problems_equal_solutions():
    p = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0)
    twin = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0)
    v1 = solve_dirichlet(p).values
    v2 = solve_dirichlet(twin).values
    np.testing.assert_array_equal(v1, v2)
    rep = verify_comparison(p, twin)
    assert rep.passed and rep.max_violation == 0.0


def test_comparison_grid_mismatch_rejected():
    p1 = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 0.0)
    p2 = GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 1.0)
    with pytest.raises(ConfigurationError):
        verify_comparison(p1, p2)


def test_comparison_with_ordered_exterior_data():
    p1 = GridProblem(((1.0, 4.0),), 1 / 32, P_75, 0.0)
    p2 = GridProblem(((1.0, 4.0),), 1 / 32, P_75, 0.0, ExteriorData("fundamental"))
    rep = verify_comparison(p1, p2)
    assert rep.passed


def test_hopf_ratio_positive_and_stable():
    prob = GridProblem(((-1.0, 1.0),), 1 / 128, P_HALF, INDICATOR(-0.1, 0.1))
    rep = verify_hopf_ratio(prob)
    assert rep.min_ratio > 0.0
    assert rep.stable
    # both sides scale linearly: the estimate is invariant under rhs scaling
    prob10 = GridProblem(((-1.0, 1.0),), 1 / 128, P_HALF,
                         lambda x: 10.0 * INDICATOR(-0.1, 0.1)(x))
    rep10 = verify_hopf_ratio(prob10)
    assert rep10.c_estimate == pytest.approx(rep.c_estimate, rel=1e-8)


def test_hopf_degenerate_and_preconditions():
    with pytest.raises(DegenerateInputError):
        verify_hopf_ratio(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 0.0))
    with pytest.raises(DomainError):
        verify_hopf_ratio(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, -1.0))
    with pytest.raises(ConfigurationError):
        verify_hopf_ratio(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0,
                                      ExteriorData("fundamental")))


def test_kslap_battery_and_linearity():
    battery = [((-1.625, -1.375), (1.375, 1.625)),
               ((1.375, 1.625),),
               ((-1.5, -1.375), (1.375, 1.5))]
    rep = verify_kslap(ANNULUS_CHI, battery, P_HALF, h=1 / 32)
    assert rep.c_bar > 0.0
    assert len(rep.per_set) == 3 and not rep.skipped
    rep2 = verify_kslap(lambda x: 2.0 * ANNULUS_CHI(x), battery, P_HALF, h=1 / 32)
    assert rep2.c_bar == pytest.approx(rep.c_bar, rel=1e-8)
    # shrinking a set keeps the battery minimum a valid bound
    assert min(v for _, v in rep.per_set) == rep.c_bar


def test_kslap_skips_degenerate_sets():
    battery = [((1.375, 1.625),), ((-1.2, -1.1),)]  # second set misses the forcing
    rep = verify_kslap(ANNULUS_CHI, battery, P_HALF, h=1 / 32)
    assert rep.skipped and rep.c_bar > 0.0


@pytest.mark.parametrize("variant", ["I", "II"])
def test_qsmp_constants_positive_and_stable(variant):
    rep = verify_qsmp(((1.0, 4.0),), ((2.0, 3.0),), ((1.5, 1.8125),), P_75,
                      variant=variant, h=1 / 32)
    assert rep.c0 > 0.0 and rep.c0_refined > 0.0
    assert max(rep.c0, rep.c0_refined) <= 2.0 * min(rep.c0, rep.c0_refined)


def test_qsmp_weakest_case_interior_positivity():
    rep = verify_qsmp(((1.0, 4.0),), ((1.125, 3.875),), ((1.125, 3.875),), P_75,
                      variant="I", h=1 / 32)
    assert rep.c0 > 0.0


def test_qsmp_preconditions():
    with pytest.raises(ConfigurationError):
        verify_qsmp(((1.0, 4.0),), ((2.0, 3.0),), ((2.0, 2.0),), P_75)
    with pytest.raises(ConfigurationError):
        verify_qsmp(((-1.0, 4.0),), ((2.0, 3.0),), ((1.5, 2.0),), P_75, variant="II")


def test_measure_lemma_constant_one_for_constants():
    # a flat supersolution makes the whole annulus qualify at C = 1
    prob = GridProblem(ANNULUS_DOMAIN, 1 / 32, P_HALF, 0.0,
                       ExteriorData("custom", fn=lambda x: np.ones_like(np.asarray(x))))
    sol = solve_dirichlet(prob)
    sol.values[:] = 1.0  # exact constant profile as the supersolution values
    rep = verify_measure_lemma(sol, nu=0.9)
    assert rep.c_bar == pytest.approx(1.0)


def test_measure_lemma_solver_supersolution():
    sol = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 32, P_HALF, ANNULUS_CHI))
    rep = verify_measure_lemma(sol, nu=0.5)
    fine = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 64, P_HALF, ANNULUS_CHI))
    rep2 = verify_measure_lemma(fine, nu=0.5)
    assert rep.c_bar > 0.0
    # refinement moves the answer by at most one step of the 1.25 lattice
    assert abs(math.log(rep2.c_bar / rep.c_bar) / math.log(1.25)) <= 1.0 + 1e-9


def test_measure_lemma_nu_near_one_needs_large_constant():
    sol = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 32, P_HALF, ANNULUS_CHI))
    lo = verify_measure_lemma(sol, nu=0.5).c_bar
    hi = verify_measure_lemma(sol, nu=0.99).c_bar
    assert hi >= lo


def test_measure_lemma_rejects_non_supersolutions():
    from fraccert.dirichlet import DiscreteSolution
    good = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 32, P_HALF, ANNULUS_CHI))
    bad_problem = GridProblem(ANNULUS_DOMAIN, 1 / 32, P_HALF, -1.0)
    impostor = DiscreteSolution(bad_problem, good.values, 0.0, good.nodes)
    with pytest.raises(DomainError):
        verify_measure_lemma(impostor, nu=0.5)


def test_assembled_operator_consistent_with_quadrature_on_fundamental():
    # restriction of the decaying fundamental on a domain away from the origin:
    # the assembled operator must see nearly zero there
    params = P_75
    prob = GridProblem(((1.0, 4.0),), 1 / 64, params, 0.0, ExteriorData("fundamental"))
    phi = positive_fundamental(params)
    vals = np.asarray(phi(np.abs(prob.nodes())))
    disc = apply_operator(prob, vals)
    coarse = GridProblem(((1.0, 4.0),), 1 / 32, params, 0.0, ExteriorData("fundamental"))
    disc_c = apply_operator(coarse, np.asarray(phi(np.abs(coarse.nodes()))))
    # Richardson-style local truncation scale from the two resolutions
    truncation_scale = np.abs(disc_c).max()
    inner = np.abs(prob.nodes() - 2.5) < 1.0
    assert np.abs(disc[inner]).max() <= 3.0 * truncation_scale


@pytest.mark.parametrize("s", [0.25, 0.4, 0.6, 0.75, 0.9])
def test_assembly_and_ordering_across_orders(s):
    # M-matrix validation runs at assembly; ordering must hold for every order
    params = FracParams(1, s)
    p1 = GridProblem(((-1.0, 1.0),), 1 / 32, params, 0.5)
    p2 = GridProblem(((-1.0, 1.0),), 1 / 32, params, 1.0)
    rep = verify_comparison(p1, p2)
    assert rep.passed
    assert solve_dirichlet(p2).values.min() > 0.0


def test_misaligned_interval_rejected():
    with pytest.raises(ConfigurationError):
        GridProblem(((-1.0, 0.9997),), 1 / 32, P_HALF, 0.0)


def test_solver_rejects_wrong_dimension():
    with pytest.raises(ConfigurationError):
        GridProblem(((-1.0, 1.0),), 1 / 32, FracParams(2, 0.5), 0.0)


def test_rhs_array_shape_checked():
    with pytest.raises(ConfigurationError):
        solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, np.ones(5)))


THREE_INTERVALS = ((-1.0, -0.5), (-0.25, 0.25), (0.5, 1.0))


@pytest.mark.parametrize("domain", [((-1.0, 1.0),), ANNULUS_DOMAIN, THREE_INTERVALS])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_structured_solver_matches_dense_oracle(domain, s):
    # solve, operator and row-dominance margins against the explicit n x n assembly
    params = FracParams(1, s)
    rhs = lambda x: 1.0 + np.cos(3.0 * np.asarray(x))
    for k in range(5, 10):
        ref = DenseAssembly(GridProblem(domain, 2.0 ** -k, params))  # the exterior data only move the rhs
        lu = lu_factor(ref.matrix)
        for kind in ("zero", "fundamental"):
            p = GridProblem(domain, 2.0 ** -k, params, rhs, ExteriorData(kind))
            ext_rhs = ref.ext_rhs(p.exterior)
            u_ref = lu_solve(lu, p.rhs_values() + ext_rhs)
            u = solve_dirichlet(p).values
            assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
            v = 2.0 + np.sin(5.0 * p.nodes())
            op_ref = ref.matrix @ v - ext_rhs
            assert np.abs(apply_operator(p, v) - op_ref).max() <= 1e-10 * np.abs(op_ref).max()
            np.testing.assert_allclose(_assembly(p).dominance, ref.dominance.astype(float),
                                       rtol=1e-12)


def test_fine_grid_solve_allocates_no_dense_matrix():
    tracemalloc.start()
    try:
        sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 2.0 ** -12, P_HALF, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.values.size == 8192
    assert peak < 64 * 2**20  # one 8192 x 8192 float64 matrix alone takes 512 MB


def _mp_omega(mpmath, m: int, h: float, s: float):
    """omega[m] from the moments of cells m-1, m, m+1 about their centres, by mpmath."""
    h, s = mpmath.mpf(h), mpmath.mpf(s)

    def moments(k):
        c = k * h
        return [mpmath.quad(lambda t: (t - c) ** j * t ** (-1 - 2 * s), [c - h / 2, c + h / 2])
                for j in range(3)]

    (_, a1, a2), (b0, _, b2), (_, c1, c2) = moments(m - 1), moments(m), moments(m + 1)
    return (a2 + h * a1) / (2 * h**2) + b0 - b2 / h**2 + (c2 - h * c1) / (2 * h**2)


@pytest.mark.parametrize("k", [9, 14])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pair_weights_match_mpmath_moments(k, s):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    h = 2.0 ** -k
    K = int(round(8.0 / h))  # the window of (-1, 1)
    omega, _ = _pair_weights(K, h, s)
    assert omega[1:].min() > 0.0
    for m in (3, 50, K // 2, K - 1):
        assert omega[m] == pytest.approx(float(_mp_omega(mpmath, m, h, s)), rel=1e-13)


def _mp_tail(mpmath, a, T, s):
    """int_T^inf t^(-1-2s) (Phi(|x + t|) + Phi(|x - t|)) dt at |x| = a, Phi the fundamental solution.

    With b = max(a, T), [T, 2b] runs in the offset u = |t - b| on both sides of t = b, so no node
    loses digits to a - t.  Where a >= T, the data are singular at u = 0, and u = D y^(1/s) makes
    u^(2s-1) du smooth in y (plain tanh-sinh is 25 % off at s = 0.01); where a < T, the singular
    point sits at u = a - T outside [0, b], and the breakpoints double away from it.
    """
    phi = mpmath.log if s == 0.5 else (lambda y: y ** (2 * s - 1))
    b = max(a, T)

    def side(e, D):  # t = b + e u on [0, D]
        f = lambda u: (b + e * u) ** (-1 - 2 * s) * (phi(a + b + e * u) + phi(abs(a - b - e * u)))
        if a >= T:
            return mpmath.quad(lambda y: f(D * y ** (1 / s)) * D / s * y ** (1 / s - 1), [0, 1])
        points = [0]
        while (T - a) * (2 ** len(points) - 1) < D:
            points.append((T - a) * (2 ** len(points) - 1))
        return mpmath.quad(f, points + [D])

    far = mpmath.quad(lambda t: t ** (-1 - 2 * s) * (phi(a + t) + phi(t - a)), [2 * b, mpmath.inf])
    return (side(-1, a - T) if a > T else 0) + side(1, b) + far


def _tail(problem, x):
    T = (problem.window() + 0.5) * problem.h
    return T, _fundamental_tail(x, T, problem.params)


@pytest.mark.parametrize("domain", [((9.0, 10.0),), ((-10.0, -9.0), (9.0, 10.0)), ((-1.0, 1.0),), ((1.0, 4.0),)])
@pytest.mark.parametrize("s", [0.01, 0.03, 0.25, 0.5, 0.75])
def test_exterior_tail_matches_mpmath(domain, s):
    # on (9, 10) the window ends at T = 4 + h/2, so t = |x| lies inside the tail; on the pair T = 80 + h/2;
    # on (-1, 1) the node next to the origin has |x|/T = 2e-3, where a plain difference of the ends cancels
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    problem = GridProblem(domain, 2.0**-5, FracParams(1, s), exterior=ExteriorData("fundamental"))
    nodes = problem.nodes()
    x = np.unique(nodes[[0, 16, np.abs(nodes).argmin(), -1]])
    T, got = _tail(problem, x)
    for xi, value in zip(x, got):
        want = float(_mp_tail(mpmath, mpmath.mpf(abs(float(xi))), mpmath.mpf(T), mpmath.mpf(s)))
        assert value == pytest.approx(want, rel=1e-13), xi


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_exterior_tail_at_the_window_edge(s):
    # on (3.5, 4.5) at h = 2^-5 the window ends at T = 4 + h/2, itself a node: the data's singular
    # point t = |x| sits on the tail's end there, and one cell off either side of it
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    problem = GridProblem(((3.5, 4.5),), 2.0**-5, FracParams(1, s), exterior=ExteriorData("fundamental"))
    T = (problem.window() + 0.5) * problem.h
    x = T + problem.h * np.asarray([-1.0, 0.0, 1.0])
    assert np.isin(x, problem.nodes()).all()
    _, got = _tail(problem, x)
    for xi, value in zip(x, got):
        want = float(_mp_tail(mpmath, mpmath.mpf(float(xi)), mpmath.mpf(T), mpmath.mpf(s)))
        assert value == pytest.approx(want, rel=1e-13), xi


@pytest.mark.parametrize("domain", [((3.5, 4.5),), ((-4.5, -3.5),), ((9.0, 10.0),),
                                    ((-10.0, -9.0), (9.0, 10.0)), ((-1.0, 1.0),)])
@pytest.mark.parametrize("s", [0.01, 0.99])
def test_exterior_tail_is_finite_at_extreme_orders(domain, s):
    # warnings are errors here: neither branch of the closed form may be evaluated where it does not apply
    for h in (2.0**-5, 2.0**-9):
        problem = GridProblem(domain, h, FracParams(1, s), exterior=ExteriorData("fundamental"))
        assert np.isfinite(_tail(problem, problem.nodes())[1]).all()


@pytest.mark.parametrize("domain", [((0.0, 1.0),), ((-1.0, 0.0),), ((-1.0, 0.0), (0.0, 1.0))])
def test_fundamental_data_with_the_origin_on_the_boundary(domain):
    # for s <= 1/2 the data are unbounded at the boundary point 0: a solve would return finite, wrong values
    for s in (0.25, 0.5):
        with pytest.raises(ConfigurationError, match="unbounded"):
            GridProblem(domain, 2.0**-5, FracParams(1, s), exterior=ExteriorData("fundamental"))
    # for s > 1/2 they vanish there: the solve converges to Phi = |x|^(1/2) (like h^(1/2), from the origin)
    params = FracParams(1, 0.75)
    miss = [np.abs(sol.values - positive_fundamental(params)(np.abs(sol.nodes))).max()
            for sol in (solve_dirichlet(GridProblem(domain, h, params, exterior=ExteriorData("fundamental")))
                        for h in (2.0**-5, 2.0**-7))]
    assert miss[1] <= 0.6 * miss[0] <= 0.07


def test_fundamental_data_reproduced_beyond_the_window():
    # Phi solves the problem with zero rhs; on (9, 10) every node lies beyond T = 4 + h/2
    params = FracParams(1, 0.25)
    sol = solve_dirichlet(GridProblem(((9.0, 10.0),), 2.0**-9, params, exterior=ExteriorData("fundamental")))
    phi = positive_fundamental(params)(sol.nodes)
    assert np.max(np.abs(sol.values - phi) / phi) <= 2e-3


@pytest.mark.parametrize("domain, bump", [
    (((0.0, 1.0),), lambda x: 5.0 * (np.asarray(x) < 0.0)),
    (((-1.0, -0.5), (0.5, 1.0)), lambda x: 5.0 * (np.abs(np.asarray(x)) < 0.5)),
])
def test_comparison_rejects_exterior_data_unordered_left_or_in_a_gap(domain, bump):
    p1 = GridProblem(domain, 1 / 32, P_HALF, 0.0, ExteriorData("custom", fn=bump))
    p2 = GridProblem(domain, 1 / 32, P_HALF, 0.0)
    with pytest.raises(ConfigurationError):
        verify_comparison(p1, p2)


def test_comparison_is_one_solve(monkeypatch):
    calls = []
    solve = _Assembly.solve
    monkeypatch.setattr(_Assembly, "solve", lambda self, b: calls.append(b) or solve(self, b))
    p1 = GridProblem(((1.0, 4.0),), 1 / 32, P_75, 0.0)
    p2 = GridProblem(((1.0, 4.0),), 1 / 32, P_75, 1.0, ExteriorData("fundamental"))
    assert verify_comparison(p1, p2).passed
    assert len(calls) == 1


_GAUSS = lambda a: ExteriorData("custom", fn=lambda x: a * np.exp(-np.asarray(x) ** 2))
# at s = 1/2 the nonnegative branch is c log|x|, negative inside the unit ball:
# zero data do not stand below it there, its negative part does
_BELOW_FUNDAMENTAL = lambda s: ExteriorData("zero") if s != 0.5 else ExteriorData(
    "custom", fn=lambda x: np.minimum(positive_fundamental(P_HALF)(np.abs(x)), 0.0))


@pytest.mark.parametrize("domain, s, ext1, ext2", [
    *[(domain, s, _BELOW_FUNDAMENTAL(s), ExteriorData("fundamental"))
      for domain in (((1.0, 4.0),), ANNULUS_DOMAIN, THREE_INTERVALS) for s in (0.25, 0.5, 0.75)],
    (((-1.0, 1.0),), 0.5, _GAUSS(0.5), _GAUSS(2.0)),
])
def test_comparison_one_solve_matches_two_solve_difference(domain, s, ext1, ext2):
    # the difference problem carries r1 - r2 plus the difference of the exterior rhs
    params = FracParams(1, s)
    rhs = lambda x: 1.0 + np.cos(3.0 * np.asarray(x))
    p1 = GridProblem(domain, 1 / 64, params, rhs, ext1)
    p2 = GridProblem(domain, 1 / 64, params, lambda x: rhs(x) + 0.5, ext2)
    v1, v2 = solve_dirichlet(p1).values, solve_dirichlet(p2).values
    rep = verify_comparison(p1, p2)
    assert rep.passed
    assert abs(rep.max_violation - (v1 - v2).max()) <= 1e-12 * np.abs(v2).max()


@pytest.mark.parametrize("domain, params, h, ext1, ext2", [
    (((-1.0, 1.0),), P_HALF, 2.0 ** -9, _GAUSS(0.5), _GAUSS(2.0)),
    (((1.0, 4.0),), P_75, 1 / 32, ExteriorData("zero"), ExteriorData("fundamental")),
])
def test_comparison_builds_one_operator_per_grid(monkeypatch, domain, params, h, ext1, ext2):
    # the operator does not depend on the exterior data, which only move the rhs
    import fraccert.dirichlet as dirichlet

    builds = []
    init = _Assembly.__init__
    monkeypatch.setattr(_Assembly, "__init__", lambda self, p: builds.append(p) or init(self, p))
    monkeypatch.setattr(dirichlet, "_ASSEMBLY_CACHE", {})
    assert verify_comparison(GridProblem(domain, h, params, 0.0, ext1),
                             GridProblem(domain, h, params, 1.0, ext2)).passed
    assert len(builds) == 1


def test_scalar_callables_broadcast_and_wrong_shapes_raise():
    calls = []

    def rhs(x):
        calls.append(x)
        return 1.0

    p = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, rhs)
    np.testing.assert_array_equal(p.rhs_values(), np.ones(64))
    assert len(calls) == 1
    const = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0)
    np.testing.assert_array_equal(solve_dirichlet(p).values, solve_dirichlet(const).values)
    np.testing.assert_array_equal(
        ExteriorData("custom", fn=lambda x: 2.0).evaluate(np.zeros(4), P_HALF), np.full(4, 2.0))
    with pytest.raises(ConfigurationError):
        GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, lambda x: np.ones(5)).rhs_values()
    with pytest.raises(ConfigurationError):
        solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 0.0,
                                    ExteriorData("custom", fn=lambda x: np.ones(3))))


@pytest.mark.parametrize("kind, fn", [("zero", lambda x: 1.0), ("fundamental", lambda x: 1.0),
                                      ("custom", None), ("dipole", None)])
def test_exterior_data_take_a_callable_only_when_custom(kind, fn):
    # only custom data read a callable: any other kind would ignore it silently
    with pytest.raises(ConfigurationError):
        ExteriorData(kind, fn=fn)


def _first_column_residual(asm: _Assembly, x: np.ndarray) -> float:
    """|T x - e_1|_inf through the assembly's own circulant embedding of T."""
    tx = np.fft.irfft(asm.ft * np.fft.rfft(x, asm.nfft), asm.nfft)[:asm.N]
    tx[0] -= 1.0
    return float(np.abs(tx).max())


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_toeplitz_first_column_matches_scipy(s):
    # scipy's Levinson solve is an independent reference for the
    # circulant-preconditioned CG column
    params = FracParams(1, s)
    for k in range(6, 13):
        asm = _assembly(GridProblem(((-1.0, 1.0),), 2.0 ** -k, params, 1.0))
        x = _toeplitz_first_column(asm.t)
        x_ref = solve_toeplitz(asm.t, np.eye(asm.N, 1).ravel())
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
        assert _first_column_residual(asm, x) <= 1e-13
    np.testing.assert_array_equal(_toeplitz_first_column(np.array([4.0])), [0.25])


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_toeplitz_first_column_residual_on_fine_grids(s):
    # the kernel T depends on the hull and the window only, so the hull of
    # ANNULUS_DOMAIN stands for the annulus itself without its gap columns
    params = FracParams(1, s)
    hull = ((ANNULUS_DOMAIN[0][0], ANNULUS_DOMAIN[-1][1]),)
    for domain, k in ((((-1.0, 1.0),), 13), (((-1.0, 1.0),), 14), (hull, 11)):
        asm = _assembly(GridProblem(domain, 2.0 ** -k, params, 1.0))
        assert _first_column_residual(asm, _toeplitz_first_column(asm.t)) <= 1e-13


def test_toeplitz_first_column_raises_at_the_iteration_cap(monkeypatch):
    # a column that has not met the stopping rule is never returned, nor an
    # operator built on it kept
    import fraccert.dirichlet as dirichlet

    t = _assembly(GridProblem(((-1.0, 1.0),), 2.0 ** -9, P_HALF, 1.0)).t
    monkeypatch.setattr(dirichlet, "_CG_MAX_ITER", 2)
    monkeypatch.setattr(dirichlet, "_ASSEMBLY_CACHE", {})
    with pytest.raises(NumericalError, match="after 2 iterations"):
        _toeplitz_first_column(t)
    with pytest.raises(NumericalError, match="after 2 iterations"):
        solve_dirichlet(GridProblem(((-1.0, 1.0),), 2.0 ** -9, P_75, 1.0))
    assert not dirichlet._ASSEMBLY_CACHE


@pytest.mark.parametrize("t", [[1.0, 2.0], [1.0, 0.9, 0.9, -0.9], [2.0, -1.0, -1.0, -1.0, -1.0],
                               [1.0, np.nan]])
def test_indefinite_toeplitz_column_raises(t):
    t = np.asarray(t)
    if np.isfinite(t).all():
        assert np.linalg.eigvalsh(toeplitz(t)).min() < 0.0
    with pytest.raises(ConfigurationError, match="not positive definite"):
        _toeplitz_first_column(t)


def test_positive_definite_but_not_dominant_toeplitz_column_raises():
    # the certificate is strict diagonal dominance, which is narrower than
    # positive definiteness: [[2, 1.2], [1.2, 2]] has eigenvalues 0.8 and 3.2
    t = np.array([2.0, 1.2])
    assert np.linalg.eigvalsh(toeplitz(t)).min() > 0.0
    with pytest.raises(ConfigurationError, match="not positive definite"):
        _toeplitz_first_column(t)


def test_import_loads_no_scipy():
    code = "\n".join([
        "import sys",
        "import fraccert",
        "fraccert.eval_radial(lambda r: 1.0 / (1.0 + r * r), 2.0, fraccert.FracParams(3, 0.5))",
        "fraccert.solve_dirichlet(fraccert.GridProblem(((-1.0, 1.0),), 1 / 32,",
        "                                              fraccert.FracParams(1, 0.5), 1.0))",
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "assert 'scipy' not in sys.modules, loaded",
    ])
    src = str(Path(fraccert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_residual_check_is_a_normwise_backward_error_bound(monkeypatch):
    # s = 0.75 with rhs 1 reaches the rounding floor of the FFT matvec, about
    # eps |A| |u|, which passed the old fixed 1e-10 |rhs| bound only to h = 2^-12
    for k in (13, 14):
        sol = solve_dirichlet(GridProblem(((-1.0, 1.0),), 2.0 ** -k, P_75, 1.0))
        assert sol.values.min() > 0.0 and sol.residual_norm > 0.0
    # a solve off by 1e-8, as a uniform scaling or as componentwise noise, still raises
    assert issubclass(NumericalError, FraccertError) and not issubclass(NumericalError, ConfigurationError)
    solve = _Assembly.solve
    rng = np.random.default_rng(7)
    for perturb in (lambda u: u * (1.0 + 1e-8),
                    lambda u: u * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, u.size))):
        monkeypatch.setattr(_Assembly, "solve", lambda self, b: perturb(solve(self, b)))
        for k in (6, 9):
            with pytest.raises(NumericalError, match="backward-error bound"):
                solve_dirichlet(GridProblem(((-1.0, 1.0),), 2.0 ** -k, P_HALF, 1.0))
        with pytest.raises(NumericalError):
            solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 1 / 64, P_75, 1.0, ExteriorData("fundamental")))
        # the one solve that yields a comparison verdict is checked too
        with pytest.raises(NumericalError, match="backward-error bound"):
            verify_comparison(GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 0.5),
                              GridProblem(((-1.0, 1.0),), 1 / 64, P_HALF, 1.0))


@pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
def test_grid_spacing_must_be_positive_and_finite(h):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        GridProblem(((-1.0, 1.0),), h, P_HALF, 0.0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("domain", [((-1.0, 1.0),), ANNULUS_DOMAIN])
def test_non_dyadic_spacing_matches_the_scaled_unit_grid(domain, s):
    # the operator of spacing h is h^(-2s) times that of spacing 1 on the domain scaled by 1/h
    # (same window in cells); at h = 0.1 the node-to-endpoint distance must come out of the
    # lattice, since x - a in floating point puts the layer node below h/2
    params = FracParams(1, s)
    fine = solve_dirichlet(GridProblem(domain, 0.1, params, 1.0)).values
    scaled = tuple((10.0 * a, 10.0 * b) for a, b in domain)
    unit = 0.1 ** (2.0 * s) * solve_dirichlet(GridProblem(scaled, 1.0, params, 1.0)).values
    assert np.abs(fine - unit).max() <= 1e-13 * np.abs(unit).max()


def test_nan_fails_the_solver_checks(monkeypatch):
    # each check is written so that NaN fails it: no NaN solution comes back
    import fraccert.dirichlet as dirichlet

    with pytest.raises(NumericalError, match="backward-error bound"):
        solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, np.nan))
    monkeypatch.setattr(dirichlet, "_rate_profile_integral", lambda s: math.nan)
    monkeypatch.setattr(dirichlet, "_ASSEMBLY_CACHE", {})
    with pytest.raises(ConfigurationError, match="dominance"):
        solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0))


def test_zero_exterior_comparison_is_one_solve_of_the_rhs_difference(monkeypatch):
    # zero data on both sides are ordered and feed nothing: no exterior evaluation at all
    evaluations, solves = [], []
    evaluate, solve = ExteriorData.evaluate, _Assembly.solve
    monkeypatch.setattr(ExteriorData, "evaluate",
                        lambda self, x, params: evaluations.append(x) or evaluate(self, x, params))
    monkeypatch.setattr(_Assembly, "solve", lambda self, b: solves.append(b) or solve(self, b))
    r1 = lambda x: np.cos(3.0 * np.asarray(x)) ** 2
    r2 = lambda x: r1(x) + 0.5 * (1.0 + np.asarray(x) ** 2)
    p1, p2 = (GridProblem(((-1.0, 1.0),), 2.0 ** -9, P_HALF, r) for r in (r1, r2))
    rep = verify_comparison(p1, p2)
    assert rep.passed and not evaluations and len(solves) == 1
    monkeypatch.undo()
    diff = GridProblem(((-1.0, 1.0),), 2.0 ** -9, P_HALF, p1.rhs_values() - p2.rhs_values())
    assert rep.max_violation == float(solve_dirichlet(diff).values.max())


def test_solution_nodes_are_the_callers_own():
    p = GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, 1.0)
    solve_dirichlet(p).nodes[:] = 7.0
    np.testing.assert_array_equal(solve_dirichlet(p).nodes, p.nodes())
    seen = []
    solve_dirichlet(GridProblem(((-1.0, 1.0),), 1 / 32, P_HALF, lambda x: seen.append(x.copy()) or 1.0))
    np.testing.assert_array_equal(seen[0], p.nodes())


def test_fine_gapped_solve_holds_nothing_of_size_hull_times_gap(monkeypatch):
    # the gap is solved by CG preconditioned with the hull inverse: no N x |G| columns of T^-1
    # and no dense gap block (12,288 x 2,048 and 2,048^2 floats here, about 230 MB in all)
    import fraccert.dirichlet as dirichlet

    monkeypatch.setattr(dirichlet, "_ASSEMBLY_CACHE", {})
    tracemalloc.start()
    try:
        sol = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, 2.0 ** -11, P_75, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.values.size == 10240 and sol.values.min() > 0.0
    assert peak < 64 * 2**20
    asm = _assembly(sol.problem)
    b = np.ones(sol.values.size)
    bound = asm.N * np.finfo(float).eps * (asm.norm * np.linalg.norm(sol.values) + np.linalg.norm(b))
    assert sol.residual_norm <= bound


def test_gap_solve_raises_at_the_iteration_cap(monkeypatch):
    import fraccert.dirichlet as dirichlet

    asm = _assembly(GridProblem(ANNULUS_DOMAIN, 1 / 64, P_HALF, 1.0))
    monkeypatch.setattr(dirichlet, "_CG_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="gap solve.*after 2 iterations"):
        asm.solve(np.ones(asm.nodes.size))


def test_woodbury_block_shares_one_krylov_space():
    # the 12 Woodbury columns of a gapped hull are one block CG solve: every column meets the
    # stop, in fewer steps than the slowest column takes alone; a zero rhs takes no step
    import fraccert.dirichlet as dirichlet

    asm = _assembly(GridProblem(ANNULUS_DOMAIN, 2.0 ** -9, P_75, 1.0))
    steps = []
    apply_a = lambda v: asm._on_s(asm._t, v)
    apply_m = lambda r: steps.append(len(r)) or asm._on_s(asm._tinv, r)
    ec = np.ascontiguousarray(asm.EC.T)
    z = dirichlet._pcg(apply_a, apply_m, ec, asm.cg_tol, "block")
    block = len(steps)
    residual = np.linalg.norm(ec - apply_a(z), axis=1)
    assert (residual <= 1.01 * asm.cg_tol * np.linalg.norm(z, axis=1)).all()
    np.testing.assert_allclose(z, asm.Z.T, rtol=0.0, atol=1e-12 * np.abs(asm.Z).max())
    alone = []
    for row in ec:
        steps.clear()
        dirichlet._pcg(apply_a, apply_m, row[None], asm.cg_tol, "row")
        alone.append(len(steps))
    assert block <= 5 < max(alone)
    steps.clear()
    assert not dirichlet._pcg(apply_a, apply_m, 0.0 * ec[:1], asm.cg_tol, "zero").any() and not steps
