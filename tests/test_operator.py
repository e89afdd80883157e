"""Pointwise operator evaluation against independent oracles.

Brute-force references here are deliberately naive (fixed log grids with a
trapezoid rule plus analytic near/tail pieces) so they share nothing with the
adaptive panel engine they check.
"""

import math

import numpy as np
import pytest

import fraccert.operator
from fraccert.errors import ConfigurationError, DivergenceError, DomainError, EvaluationPointError, NumericalError
from fraccert.liouville import annulus_inf
from fraccert.operator import (QuadSpec, OperatorValue, _geometric_fill, eval_pointwise, eval_radial,
                               eval_radial_jobs, eval_radial_many, scaling_identity_check)
from fraccert.params import FracParams
from fraccert.profiles import (BarrierConstants, BarrierKind, RadialProfile, make_barrier, make_fundamental,
                               power_profile)
from fraccert.quadrature import _adaptive_many

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


def test_pointwise_scalar_x_lies_on_the_first_axis():
    p = FracParams(3, 0.5)
    u = lambda pt: np.exp(-(pt[0] ** 2 + pt[1] ** 2 + pt[2] ** 2))
    assert eval_pointwise(u, 1.0, p).value == eval_pointwise(u, [1.0, 0.0, 0.0], p).value
    for u_any in (u, make_fundamental(p)):
        with pytest.raises(DomainError):
            eval_pointwise(u_any, [1.0, 0.0], p)


# each entry point maps a radial callable rho -> u(rho) to a number
_PLAIN_CALLABLE_ENTRIES = {
    "eval_radial": lambda u: eval_radial(u, 1.5, FracParams(3, 0.5)).value,
    "eval_pointwise_line": lambda u: eval_pointwise(u, 0.5, P1H).value,
    "eval_pointwise_ray": lambda u: eval_pointwise(lambda pt: u(np.linalg.norm(pt, axis=0)),
                                                   [0.0, 1.5], FracParams(2, 0.4)).value,
    "annulus_inf": lambda u: annulus_inf(u, 2.0),
}


@pytest.mark.parametrize("entry", sorted(_PLAIN_CALLABLE_ENTRIES))
def test_plain_callables_are_called_on_arrays(entry):
    evaluate = _PLAIN_CALLABLE_ENTRIES[entry]
    with pytest.raises(TypeError):
        evaluate(math.exp)  # a scalar-only function fails with its own error
    with pytest.raises(ConfigurationError):
        evaluate(lambda rho: np.ones(5))
    assert evaluate(lambda rho: 2.0) == evaluate(lambda rho: np.full_like(rho, 2.0))


def test_operator_value_reports_panels():
    # a profile radius takes panels only where a breakpoint lies in [r/2, 2r], or where its piece has a nonzero
    # exponent within 0.01 of a pole of the power multiplier (here 2s - n = 0.008 - n, next to -n)
    ov = eval_radial(make_fundamental(P1H), 2.0, P1H)
    assert isinstance(ov, OperatorValue)
    assert ov.panels_used == 0 and ov.error_estimate >= 0.0
    split = RadialProfile((3.0,), make_fundamental(P1H).pieces * 2)
    assert eval_radial(split, 2.0, P1H).panels_used > 0
    near_pole = FracParams(3, 0.004)
    assert eval_radial(make_fundamental(near_pole), 2.0, near_pole).panels_used > 0
    # a constant adds exactly 0 to [r/2, 2r], so its e = 0, here 0.008 from the pole 2s, keeps no panels; the same
    # terms split at 2.6 take panels, and the two agree within their bars
    inner, outer = ((1.0, 0.0, False), (1.0, -1.0, False)), ((1.0, -1.0, False),)
    one, split = (eval_radial(RadialProfile(b, p), 2.0, near_pole)
                  for b, p in (((10.0,), (inner, outer)), ((2.6, 10.0), (inner, inner, outer))))
    assert (one.panels_used, one.converged, split.converged) == (0, True, True) and split.panels_used > 0
    assert abs(one.value - split.value) <= one.error_estimate + split.error_estimate


def _pin_ids(rows, keys: int) -> list[str]:
    """Test ids from the first ``keys`` fields of each pinned row, so that a re-pin keeps them."""
    return ["-".join(str(v) for v in row[:keys]) for row in rows]


# an n = 2 value carried through the per-circle means, the batched angular means and the integral
# over rho, each move within the combined bars:
# (u, s, r, value, error_estimate, panels_used, converged) at default tolerances
_PLANAR_PINS = [
    ("bubble", 0.5, 2.5, -0.020732402943124163, 3.6969599229582186e-11, 18, True),
]


@pytest.mark.parametrize("kind,s,r,value,err,panels,converged", _PLANAR_PINS, ids=_pin_ids(_PLANAR_PINS, 3))
def test_planar_values_match_per_circle_pins(kind, s, r, value, err, panels, converged):
    u = {"bubble": lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** -1.2}[kind]
    ov = eval_radial(u, r, FracParams(2, s))
    assert abs(ov.value - value) <= err + ov.error_estimate
    assert (ov.panels_used, ov.converged) == (panels, converged)


# the n = 2 fundamental solution, exactly annihilated, through the integral over rho (its origin and tail
# zones by the kernel's series, [r/2, 2r] by the power multiplier): (s, r, panels_used); every value is
# converged and within 2 err of 0
_PLANAR_FUNDAMENTAL = [(0.4, 1.5, 0), (0.4, 7.0, 0), (0.75, 1.5, 0), (0.75, 7.0, 0)]


@pytest.mark.parametrize("s,r,panels", _PLANAR_FUNDAMENTAL, ids=_pin_ids(_PLANAR_FUNDAMENTAL, 2))
def test_planar_fundamental_is_annihilated(s, r, panels):
    p = FracParams(2, s)
    ov = eval_radial(make_fundamental(p), r, p)
    assert ov.converged and abs(ov.value) <= 2.0 * ov.error_estimate
    assert ov.panels_used == panels


def test_adaptive_engine_stops_on_nan_integrand():
    # a NaN error estimate can never meet the tolerance nor pick a panel to split
    f = lambda ids, t: (np.where(t > 0.5, np.nan, t), np.zeros_like(t))
    value, err, panels, ok = _adaptive_many(f, np.zeros(2, dtype=np.intp), np.asarray([0.0, 0.5]),
                                            np.asarray([0.5, 1.0]), 1e-9, 600, 1)
    assert not ok[0] and panels[0] == 2 and math.isnan(value[0])


def test_adaptive_engine_splits_the_worst_panel_when_errors_overflow():
    # a 16-point sum of 1e308 and an 8-point sum of -1e308 overflow: the panel errors are inf, none exceeds
    # its share inf / count, so the live integral splits its worst panels until its budget runs out, while
    # the integral next to it converges on its one panel (without that split the loop would never end)
    calls = []

    def f(ids, t):
        calls.append(ids.size)
        assert len(calls) < 20, "the overflowing integral is never split"
        wild = np.where(np.arange(t.shape[1]) < 16, 1e308, -1e308)
        return np.where(ids[:, None] == 0, wild, t * t), np.zeros_like(t)

    with np.errstate(over="ignore"):
        value, err, panels, ok = _adaptive_many(f, np.asarray([0, 1]), np.zeros(2), np.ones(2), 1e-9, 8, 2)
    assert (value[0], err[0], panels[0], ok[0]) == (math.inf, math.inf, 8, False)
    assert ok[1] and panels[1] == 1 and value[1] == pytest.approx(1.0 / 3.0, rel=1e-14)


def _per_gap_fill(edges, ratio=4.0):
    """The per-gap construction the batched fill replaced: one np.geomspace per wide gap."""
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        out.append(a)
        if a > 0.0 and b / a > ratio:
            k = int(math.ceil(math.log(b / a) / math.log(ratio)))
            out.extend(np.geomspace(a, b, k + 1)[1:-1].tolist())
    out.append(edges[-1])
    return np.asarray(out)


def test_geometric_fill_matches_per_gap_geomspace():
    rng = np.random.default_rng(7)
    sets = [np.sort(10.0 ** rng.uniform(-4.0, 4.0, rng.integers(2, 9))) for _ in range(400)]
    # a zero start, and ratios of exactly 4, 16 and 64
    sets += [np.asarray([0.0, 1e-3, 2.0]), np.asarray([1.0, 4.0, 4.5, 72.0, 4608.0]),
             np.asarray([0.25, 16.0])]
    ids = np.concatenate([np.full(e.size - 1, i) for i, e in enumerate(sets)])
    a = np.concatenate([e[:-1] for e in sets])
    b = np.concatenate([e[1:] for e in sets])
    got_ids, lo, hi = _geometric_fill(ids, a, b)
    same = got_ids[1:] == got_ids[:-1]
    np.testing.assert_array_equal(lo[1:][same], hi[:-1][same])  # panels of one id are contiguous
    for i, e in enumerate(sets):
        mine = got_ids == i
        np.testing.assert_array_equal(np.append(lo[mine], hi[mine][-1]), _per_gap_fill(e))


def _bubble(rho):
    return (1.0 + np.asarray(rho, dtype=float) ** 2) ** -1.2


def _cap(rho):
    rho = np.asarray(rho, dtype=float)
    return np.where(rho < 1.0, np.sqrt(np.maximum(1.0 - rho**2, 0.0)), 0.0)


_C = BarrierConstants(2.0, 20.0)
# name: (function of params, n, s, kink radii)
_MANY_CASES = {
    "ramp_with_bump": (lambda p: make_barrier(BarrierKind.RAMP_WITH_BUMP, _C, p), 1, 0.75, ()),
    "exterior_with_shell": (lambda p: make_barrier(BarrierKind.EXTERIOR_WITH_SHELL, _C, p), 3, 0.5, ()),
    # breakpoints 20 and 30: panel edges of the integral over rho
    "exterior_with_shell_n2": (lambda p: make_barrier(BarrierKind.EXTERIOR_WITH_SHELL, _C, p), 2, 0.75, ()),
    # vanishes beyond its breakpoint: an exact zero tail
    "ball_indicator": (lambda p: make_barrier(BarrierKind.BALL_INDICATOR, _C, p), 3, 0.5, ()),
    "fundamental": (make_fundamental, 2, 0.4, ()),
    "bubble_n1": (lambda p: _bubble, 1, 0.4, ()),
    "bubble_n2": (lambda p: _bubble, 2, 0.5, ()),
    "bubble_n3": (lambda p: _bubble, 3, 0.5, ()),
    "cap_n1": (lambda p: _cap, 1, 0.5, (1.0,)),
    "cap_n3": (lambda p: _cap, 3, 0.5, (1.0,)),
}
# values of the integral over rho in every dimension (default tolerances), each within the
# combined bars of the spherical-mean or angular-mean value pinned before it, and the profiles' (their
# origin and tail zones by the kernel's series, and [r/2, 2r] by the power multiplier where it holds no
# breakpoint) within those of their panel values:
# (case, r, value, error_estimate, panels_used, converged)
_MANY_PINS = [
    ("ramp_with_bump", 3.0, 0.0039144918608180175, 4.964775954054794e-15, 0, True),
    ("ramp_with_bump", 25.0, -0.06512638765777914, 2.2241353634629496e-10, 6, True),
    ("ramp_with_bump", 33.0, 0.3188085830441589, 2.9347335438547897e-10, 5, True),
    ("ramp_with_bump", 100.0, -0.0012840364227693706, 1.9971154494342088e-17, 0, True),
    ("exterior_with_shell", 10.0, -0.00013133124353946411, 9.57078639806878e-19, 0, True),
    ("exterior_with_shell", 25.0, 0.00033287550670350744, 1.9792361741469923e-13, 5, True),
    ("exterior_with_shell", 45.0, 4.0858795979617914e-07, 3.25645521395022e-17, 5, True),
    ("exterior_with_shell", 200.0, 7.806372988219714e-09, 4.2500280346199965e-21, 0, True),
    ("exterior_with_shell_n2", 10.0, -0.0034587099191755433, 2.860340768338535e-17, 0, True),
    ("exterior_with_shell_n2", 25.0, 0.010264274319288072, 3.9040368463500647e-13, 6, True),
    ("exterior_with_shell_n2", 45.0, -0.00014417364481421295, 5.889776877344879e-14, 5, True),
    ("exterior_with_shell_n2", 200.0, 7.578015775264261e-08, 4.1645555651049985e-19, 0, True),
    ("ball_indicator", 0.5, 1.5482246682888954, 9.31255684347825e-15, 0, True),
    ("ball_indicator", 2.0, -0.037357014506163876, 1.9908665972406033e-16, 0, True),
    ("ball_indicator", 8.0, -0.00010559236906141584, 5.627091809121644e-19, 0, True),
    ("bubble_n1", 0.0, 1.0215400745270187, 1.409930858704406e-10, 11, True),
    ("bubble_n1", 0.7, 0.25993594151370675, 1.3379156604996286e-09, 21, True),
    ("bubble_n1", 12.0, -0.008091461436812325, 2.4316457657655335e-11, 25, True),
    ("bubble_n2", 0.0, 1.7540569034419347, 1.4696384071108167e-10, 11, True),
    ("bubble_n2", 2.5, -0.020732402943124163, 3.6969599229582186e-11, 18, True),
    ("bubble_n3", 0.0, 2.233334613177978, 1.8712017363950857e-10, 11, True),
    ("bubble_n3", 1.5, 0.14502177104394362, 1.2810608992247047e-10, 18, True),
    ("cap_n1", 0.0, 0.9999999996433584, 2.270533591420124e-09, 23, True),
    ("cap_n1", 0.3, 0.9999999996612504, 2.2105612571252265e-09, 28, True),
    ("cap_n1", 2.0, -0.15470053845974932, 5.115930356459188e-10, 28, True),
    ("cap_n3", 0.0, 1.9999999997479667, 1.609723019093812e-09, 24, True),
]
# closed forms, checked under |value - exact| <= 2 err + 1e-14 |exact|: (case, r, exact).
# The fundamental solution is annihilated; the bubble is Dyda's 2F1 (tests/test_oracle.py); the cap (1 - rho^2)_+^s is
# 4^s G(1+s) G(n/2+s) / G(n/2) = 2 inside the ball and, outside, the mpmath integral
# -c_3s 4 pi / (2 r (1+2s)) int_0^1 (1-q^2)^s q ((r-q)^(-1-2s) - (r+q)^(-1-2s)) dq
_MANY_EXACT = [
    ("fundamental", 1.5, 0.0),
    ("fundamental", 7.0, 0.0),
    ("bubble_n3", 30.0, -6.359225204205556e-06),
    ("cap_n3", 0.3, 2.0),
    ("cap_n3", 2.0, -0.020725942163690177),
]
# the oscillatory cos tail on the line, unconverged (exact: cos x), each within the combined bars of
# its two-point-mean value: (s, x, value, error_estimate, panels_used, converged)
_COS_PINS = [
    (0.3, 0.0, 1.0000025151597274, 0.0010708886954272003, 744, False),
    (0.6, 0.7, 0.7648423743905786, 2.925367656657397e-06, 738, False),
]


def _assert_pinned(ov, value, err, panels, converged):
    assert ov.value == pytest.approx(value, rel=1e-9, abs=1e-6 * err)
    assert ov.error_estimate == pytest.approx(err, rel=1e-6, abs=0.0)
    assert (ov.panels_used, ov.converged) == (panels, converged)


@pytest.mark.parametrize("case", sorted(_MANY_CASES))
def test_eval_radial_many_matches_pointwise(case):
    make, n, s, kinks = _MANY_CASES[case]
    p, quad = FracParams(n, s), QuadSpec(kink_radii=kinks)
    pins = [row[1:] for row in _MANY_PINS if row[0] == case]
    exact = [row[1:] for row in _MANY_EXACT if row[0] == case]
    radii = [row[0] for row in pins + exact]
    batch = eval_radial_many(make(p), radii, p, quad)
    assert len(batch) == len(radii)
    for ov, (r, *pin) in zip(batch, pins):
        _assert_pinned(ov, *pin)
    for ov, (r, want) in zip(batch[len(pins):], exact):
        assert ov.converged and abs(ov.value - want) <= 2.0 * ov.error_estimate + 1e-14 * abs(want)
    for ov, r in zip(batch, radii):
        assert ov == eval_radial(make(p), r, p, quad)  # bit for bit
    permuted = eval_radial_many(make(p), radii[::-1], p, quad)
    assert permuted[::-1] == batch


@pytest.mark.parametrize("s,x,value,err,panels,converged", _COS_PINS, ids=_pin_ids(_COS_PINS, 2))
def test_pointwise_cos_tail_matches_pins(s, x, value, err, panels, converged):
    _assert_pinned(eval_pointwise(np.cos, x, FracParams(1, s)), value, err, panels, converged)


def test_eval_radial_many_errors_and_empty_batch():
    p = FracParams(1, 0.75)
    prof = RadialProfile((2.0,), (((1.0, 0.0, False),), ()))
    with pytest.raises(EvaluationPointError):
        eval_radial_many(prof, [0.5, 1.0, 2.0000001, 5.0], p)  # one radius on the jump
    grows = lambda rho: np.abs(np.asarray(rho)) ** 1.2
    with pytest.raises(DivergenceError):
        eval_radial_many(grows, [0.5, 1.0, 3.0], FracParams(1, 0.5))
    with pytest.raises(DomainError):
        eval_radial_many(prof, [[1.0, 3.0]], p)
    for bad in (math.nan, math.inf):  # a non-finite radius or point raises; it gives no null value
        with pytest.raises(DomainError):
            eval_radial_many(prof, [1.0, bad], p)
        with pytest.raises(DomainError):
            eval_radial_many(np.cos, [bad], p)
        with pytest.raises(DomainError):
            eval_pointwise(np.cos, bad, p)
    for n in (1, 2, 3):  # rho^(-n) and steeper: the integral over the ball diverges at the origin
        for expo in (-n, -n - 0.5):
            with pytest.raises(DivergenceError):
                eval_radial_many(RadialProfile((), (((1.0, expo, False),),)), [1.0, 3.0], FracParams(n, 0.5))
    calls = []
    assert eval_radial_many(lambda rho: calls.append(rho) or rho, [], p) == []
    assert calls == []


def test_non_finite_result_raises_naming_the_radius():
    # growth like rho^0.96, just below |x|^(2s), passes the far-field probe and the mapped tail overflows: that
    # raises NumericalError naming the radius instead of returning -inf with a NaN error estimate
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="radius 10 "):
        eval_radial_many(lambda rho: (1.0 + rho * rho) ** 0.48, [10.0, 1e4], FracParams(3, 0.5))


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.5, 0.75])
def test_eval_jobs_match_their_own_calls(n, s):
    # a kinked profile, a plain callable with a kink radius, and a profile whose origin map has p = 2,
    # each under its own tolerances: one pass gives every radius its own eval_radial bit for bit.  The
    # kinked profile comes twice, at overlapping radii, so that series ends of both jobs coincide; at
    # r = 3 and 3.5 every piece it has in the origin zone and tail is clipped to end at t = 1/2
    params = FracParams(n, s)
    steps = RadialProfile((2.0, 5.0), (((1.0, 0.0, False),), ((2.0, -1.0, False),), ((5.0, -2.0, False),)))
    jobs = [(steps, [1.0, 3.0, 8.0], QuadSpec(rel_tol=1e-6)),
            (_cap, [0.0, 0.6, 2.5], QuadSpec(abs_tol=1e-10, kink_radii=(1.0,))),
            (RadialProfile((), (((1.0, 0.5 - n, False),),)), [0.7, 4.0], QuadSpec(rel_tol=1e-9, abs_tol=1e-13)),
            (_bubble, [], QuadSpec()),
            (steps, [3.5, 8.0, 3.0, 1.0], QuadSpec())]
    alone = [[eval_radial(u, r, params, quad) for r in radii] for u, radii, quad in jobs]
    assert eval_radial_jobs([], params) == []
    assert [col.size for col in eval_radial_jobs(jobs[3:], params)[0]] == [0, 0, 0, 0]
    for order in [(0, 1, 2, 3, 4), (1, 4, 2, 3, 0), (2, 3, 0, 4, 1), (4, 3, 0, 1, 2), (3, 2, 1, 0, 4),
                  (2, 0, 3, 1, 4)]:
        out = eval_radial_jobs([jobs[j] for j in order], params)
        for j, cols in zip(order, out):
            assert [OperatorValue(*row) for row in zip(*(col.tolist() for col in cols))] == alone[j], (order, j)
    # a failing job raises what it raises alone, and the first failing one in order wins
    on_kink = (RadialProfile((2.0,), (((1.0, 0.0, False),), ())), [1.0, 2.0000001], QuadSpec())
    grows = (lambda rho: np.asarray(rho) ** 2.0, [0.5, 3.0], QuadSpec())
    for bad in (on_kink, grows):
        want = _raised(lambda: eval_radial_many(bad[0], bad[1], params, bad[2]))
        assert want is not None and want[0] in (EvaluationPointError, DivergenceError)
        assert _raised(lambda: eval_radial_jobs([jobs[0], bad] + [on_kink, grows], params)) == want


@pytest.mark.parametrize("rel_tol,abs_tol", [(math.nan, 1e-12), (1e-8, math.nan), (0.0, 1e-12), (1e-8, -1.0),
                                             (math.inf, 1e-12)])
def test_quadspec_rejects_tolerances_that_are_not_positive_and_finite(rel_tol, abs_tol):
    with pytest.raises(ConfigurationError):
        QuadSpec(rel_tol=rel_tol, abs_tol=abs_tol)


@pytest.mark.parametrize("kink", [math.nan, math.inf, -math.inf])
def test_quadspec_rejects_kink_radii_that_are_not_finite(kink):
    # a NaN kink radius would leave the cap's kink at 1 off the panel edges
    with pytest.raises(ConfigurationError):
        QuadSpec(kink_radii=(1.0, kink))
    assert QuadSpec(kink_radii=(1.0, -2.0)).kink_radii == (-2.0, 1.0)  # a kink point left of x on the line


def test_plain_callable_far_field_is_probed_once_per_job(monkeypatch):
    # with the integral over rho stubbed out, a plain callable is called at its radii and then once,
    # at 4 far-field points per radius, for the growth check
    monkeypatch.setattr(fraccert.operator, "_radial_values", lambda jobs, params: tuple(
        np.zeros(sum(job[1].size for job in jobs), dtype=t) for t in (float, float, int, bool)))
    sizes = []

    def bubble(rho):
        sizes.append(rho.size)
        return 1.0 / (1.0 + rho * rho)

    eval_radial_jobs([(bubble, [1.0, 2.0], QuadSpec()), (bubble, [0.0, 5.0, 9.0], QuadSpec())], FracParams(3, 0.5))
    assert sizes == [2, 2 * 4, 3, 3 * 4]
