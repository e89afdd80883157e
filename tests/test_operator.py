"""Pointwise operator evaluation against independent oracles.

Brute-force references here are deliberately naive (fixed log grids with a
trapezoid rule plus analytic near/tail pieces) so they share nothing with the
adaptive panel engine they check.
"""

import math

import numpy as np
import pytest

from fraccert.errors import DivergenceError, DomainError, EvaluationPointError
from fraccert.operator import (QuadSpec, OperatorValue, _adaptive, _angular_edges, eval_pointwise,
                               eval_radial, scaling_identity_check)
from fraccert.params import FracParams
from fraccert.profiles import RadialProfile, make_fundamental, power_profile

P1H = FracParams(1, 0.5)


def brute_force_line(u, x: float, s: float, t_min=1e-7, t_max=1e7, points=300_000) -> float:
    """Fixed-grid reference for the 1-d operator: no adaptivity, no panels."""
    t = np.geomspace(t_min, t_max, points)
    second_diff = 2.0 * u(x) - u(x + t) - u(x - t)
    integrand = second_diff * t ** (-1.0 - 2.0 * s)
    val = np.trapezoid(integrand, t)
    c = FracParams(1, s).c_ns
    return c * val


def brute_force_radial_at_origin(u, s: float, n: int, points=400_000) -> float:
    """At the origin the operator reduces to a 1-d radial integral."""
    p = FracParams(n, s)
    rho = np.geomspace(1e-8, 1e6, points)
    integrand = (u(0.0) - u(rho)) * rho ** (n - 1.0) * rho ** (-n - 2.0 * s)
    return p.c_ns * p.sphere_measure * np.trapezoid(integrand, rho)


def test_constant_annihilated_exactly():
    for n in (1, 2, 3):
        p = FracParams(n, 0.6)
        ov = eval_radial(lambda rho: np.ones_like(np.asarray(rho, dtype=float)), 2.0, p)
        assert ov.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,s,r", [(3, 0.75, 2.0), (2, 0.4, 5.0), (1, 0.75, 3.0), (1, 0.5, 7.0)])
def test_fundamental_solutions_annihilated(n, s, r):
    p = FracParams(n, s)
    prof = make_fundamental(p)
    ov = eval_radial(prof, r, p)
    assert abs(ov.value) <= 1e-4 * max(1.0, abs(prof(r)))
    assert abs(ov.value) <= 1e-6  # the engine does far better than the contract


def test_cos_matches_fourier_symbol():
    # (-Delta)^s cos(xi .) = |xi|^2s cos(xi .), checked at the origin
    for s in (0.3, 0.5, 0.6, 0.7):
        p = FracParams(1, s)
        ov = eval_pointwise(np.cos, 0.0, p)
        assert ov.value == pytest.approx(1.0, abs=1e-3)
    for xi in (0.5, 1.0, 2.0):
        p = FracParams(1, 0.6)
        ov = eval_pointwise(lambda x, xi=xi: np.cos(xi * x), 0.0, p)
        assert ov.value == pytest.approx(xi ** (2 * 0.6), abs=1e-3)


def test_cos_cross_checked_against_brute_force():
    got = eval_pointwise(np.cos, 0.0, FracParams(1, 0.6)).value
    ref = brute_force_line(np.cos, 0.0, 0.6, t_max=1e5)
    assert got == pytest.approx(ref, abs=2e-3)


def test_compact_bump_at_origin_all_dims():
    # (1 - r^2)_+^s has a constant operator value inside the unit ball;
    # frozen reference pi/2 computed with the brute-force radial oracle (n=2, s=1/2)
    u = lambda rho: np.where(np.abs(rho) < 1.0, np.sqrt(np.maximum(1.0 - np.asarray(rho) ** 2, 0.0)), 0.0)
    p = FracParams(2, 0.5)
    ov = eval_radial(u, 0.0, p, QuadSpec(kink_radii=(1.0,)))
    assert ov.value == pytest.approx(1.5707963268, abs=1e-3)
    ref = brute_force_radial_at_origin(u, 0.5, 2)
    assert ov.value == pytest.approx(ref, abs=1e-3)


def brute_force_radial_2d(u, r: float, s: float, n_t=4000, n_theta=2000) -> float:
    """Naive planar reference: fixed log grid in t, uniform midpoint in angle."""
    p = FracParams(2, s)
    t = np.geomspace(1e-6 * max(r, 1.0), 1e5 * max(r, 1.0), n_t)
    theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    rho = np.sqrt((r - t[:, None]) ** 2 + 4.0 * r * t[:, None] * np.cos(0.5 * theta) ** 2)
    mean = u(rho.ravel()).reshape(rho.shape).mean(axis=1)
    integrand = (u(np.asarray([r]))[0] - mean) * t ** (-1.0 - 2.0 * s)
    return p.c_ns * p.sphere_measure * np.trapezoid(integrand, t)


def test_planar_path_cross_checked_off_origin():
    p = FracParams(2, 0.4)
    u = lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** -1.0
    got = eval_radial(u, 1.5, p, QuadSpec(rel_tol=1e-7))
    ref = brute_force_radial_2d(u, 1.5, 0.4)
    assert got.value == pytest.approx(ref, rel=5e-3)


def test_pointwise_and_radial_agree_on_even_profiles():
    p = FracParams(1, 0.7)
    prof = power_profile(1.0, 0.3)
    r = 2.5
    tight = QuadSpec(rel_tol=1e-11, abs_tol=1e-15)
    a = eval_radial(prof, r, p, tight)
    b = eval_pointwise(lambda x: np.abs(x) ** 0.3, np.asarray([r]), p, tight)
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_linearity_over_random_combinations():
    rng = np.random.default_rng(42)
    p = FracParams(1, 0.6)
    quad = QuadSpec(rel_tol=1e-7, abs_tol=1e-11)
    u = lambda x: np.exp(-np.asarray(x) ** 2)
    v = lambda x: np.cos(0.7 * np.asarray(x))
    eu = eval_pointwise(u, 0.3, p, quad)
    ev = eval_pointwise(v, 0.3, p, quad)
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        combo = eval_pointwise(lambda x: a * u(x) + b * v(x), 0.3, p, quad)
        budget = abs(a) * eu.error_estimate + abs(b) * ev.error_estimate + combo.error_estimate
        assert combo.value == pytest.approx(a * eu.value + b * ev.value, abs=max(budget, 1e-6))


def test_translation_invariance_on_the_line():
    p = FracParams(1, 0.45)
    u = lambda x: np.exp(-((np.asarray(x)) ** 2))
    c = 1.7
    shifted = eval_pointwise(lambda x: u(np.asarray(x) - c), 0.4 + c, p)
    plain = eval_pointwise(u, 0.4, p)
    assert shifted.value == pytest.approx(plain.value, rel=1e-6, abs=1e-9)


def test_scaling_identity():
    u = lambda x: np.exp(-np.asarray(x) ** 2)
    for lam in (0.5, 1.0, 2.0, 10.0):
        dev = scaling_identity_check(u, lam, 0.25, P1H)
        tol = 1e-12 if lam == 1.0 else 1e-3
        assert dev <= tol


def test_scaling_identity_for_fundamental_profile():
    p = FracParams(3, 0.5)
    prof = make_fundamental(p)
    dev = scaling_identity_check(prof, 2.0, np.asarray([3.0, 0.0, 0.0]), p)
    assert dev <= 1e-6  # both sides vanish


def test_error_estimate_honest_under_tolerance_halving():
    cases = []
    for (n, s) in [(1, 0.3), (1, 0.75), (3, 0.5)]:
        p = FracParams(n, s)
        prof = make_fundamental(p)
        for r in np.geomspace(1.4, 50.0, 5):
            cases.append((p, prof, float(r)))
    q1 = QuadSpec(rel_tol=1e-6, abs_tol=1e-10)
    q2 = QuadSpec(rel_tol=5e-7, abs_tol=5e-11)
    hits = 0
    for p, prof, r in cases:
        v1 = eval_radial(prof, r, p, q1)
        v2 = eval_radial(prof, r, p, q2)
        hits += abs(v1.value - v2.value) <= v1.error_estimate
    assert hits >= math.ceil(0.95 * len(cases))


def test_growth_beyond_admissible_raises():
    p = FracParams(1, 0.4)
    too_fast = power_profile(1.0, 0.9)  # needs exponent < 2s = 0.8
    with pytest.raises(DivergenceError):
        eval_radial(too_fast, 2.0, p)
    with pytest.raises(DivergenceError):
        eval_pointwise(lambda x: np.abs(x) ** 1.2, 1.0, FracParams(1, 0.5))


def test_kink_guard():
    p = FracParams(1, 0.75)
    prof = RadialProfile((2.0,), (((1.0, 0.0, False),), ()))
    with pytest.raises(EvaluationPointError):
        eval_radial(prof, 2.0000001, p)
    with pytest.raises(EvaluationPointError):
        eval_radial(prof, 2.0, p)  # exactly on the jump


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        eval_radial(make_fundamental(P1H), -1.0, P1H)


def test_operator_value_reports_panels():
    ov = eval_radial(make_fundamental(P1H), 2.0, P1H)
    assert isinstance(ov, OperatorValue)
    assert ov.panels_used > 0 and ov.error_estimate >= 0.0


def _circle_edges(r: float, t: float, breaks, singular_origin: bool) -> np.ndarray:
    """Per-circle reference: crossings and origin levels built one by one in plain Python."""
    rho_min, rho_max = abs(r - t), r + t
    cuts = [b for b in breaks if rho_min < b < rho_max]
    if singular_origin and rho_min < 0.05 * rho_max:
        level = 2.0 * max(rho_min, 1e-300)
        while level < 0.25 * rho_max:
            cuts.append(level)
            level *= 4.0
    thetas = sorted(math.acos(min(1.0, max(-1.0, (b * b - r * r - t * t) / (2.0 * r * t)))) for b in cuts)
    return np.asarray([0.0] + thetas + [math.pi])


@pytest.mark.parametrize("singular_origin", [False, True])
def test_angular_edges_match_per_circle_construction(singular_origin):
    r, breaks = 3.0, (1.0, 4.0, 10.0)
    t = np.asarray([
        r, r * (1.0 + 1e-12), r * (1.0 - 1e-12),  # through the origin (~500 levels) or 3e-12 from it
        0.5,                                       # radii 2.5..3.5: crosses no breakpoint
        1.5, 2.2, 2.95, 3.1, 6.5, 20.0,            # crossings and near-origin circles
    ])
    ids, lo, hi = _angular_edges(r, t, breaks, singular_origin)
    assert np.all(np.diff(ids) >= 0) and np.all(hi >= lo)
    for i, ti in enumerate(t):
        want = _circle_edges(r, float(ti), breaks, singular_origin)
        mine = ids == i
        got = np.concatenate([lo[mine], hi[mine][-1:]])
        assert got.size == want.size, f"t={ti!r}"
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(hi[mine][:-1], lo[mine][1:])
    if singular_origin:
        assert np.count_nonzero(ids == 0) > 400  # t = r exactly: levels down to 2e-300
    assert np.count_nonzero(ids == 3) == 1


# n = 2 values of the per-circle implementation this batched one replaced:
# (u, s, r, value, error_estimate, panels_used, converged) at default tolerances
_PLANAR_PINS = [
    ("fundamental", 0.4, 1.5, -4.6610931816185724e-11, 3.7230206651124897e-09, 92, True),
    ("fundamental", 0.4, 7.0, -2.1404175538102145e-12, 1.7099519675853423e-10, 92, True),
    ("fundamental", 0.75, 1.5, 9.392097592199605e-12, 3.780738484928572e-09, 51, False),
    ("fundamental", 0.75, 7.0, 4.31933215642985e-13, 1.7502421544071045e-10, 51, False),
    ("bubble", 0.5, 2.5, -0.02073240294301106, 2.646188435513306e-10, 23, True),
]


@pytest.mark.parametrize("kind,s,r,value,err,panels,converged", _PLANAR_PINS)
def test_planar_values_match_per_circle_pins(kind, s, r, value, err, panels, converged):
    p = FracParams(2, s)
    u = make_fundamental(p) if kind == "fundamental" else (
        lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** -1.2)
    ov = eval_radial(u, r, p)
    assert abs(ov.value - value) <= err + ov.error_estimate
    assert (ov.panels_used, ov.converged) == (panels, converged)


def test_adaptive_engine_stops_on_nan_integrand():
    # a NaN error estimate can never meet the tolerance nor pick a panel to split
    f = lambda t: (np.where(t > 0.5, np.nan, t), np.zeros_like(t))
    value, err, panels, ok = _adaptive(f, np.linspace(0.0, 1.0, 3), 1e-9, 600)
    assert not ok and panels == 2 and math.isnan(value)
