import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccert.errors import ConfigurationError, DomainError, PositivityViolation
from fraccert.hypotheses import (NonlinearitySpec, Trend, Verdict, alpha_tilde_star,
                                 builtin_g, check_f2, check_f2prime, check_f3prime,
                                 check_f4prime, h_of_k, psi_k, spec_from_dict)
from fraccert.params import FracParams

P3 = FracParams(3, 0.5)
P1 = FracParams(1, 0.75)
P_HALF = FracParams(1, 0.5)


def power_spec(p, **kw):
    return NonlinearitySpec(g=builtin_g("power", p=p), **kw)


def test_critical_exponent_arithmetic():
    assert alpha_tilde_star(P3, 0.0) == pytest.approx(1.5)
    assert alpha_tilde_star(P3, 0.0) == pytest.approx(P3.n / (P3.n - 2 * P3.s))
    assert alpha_tilde_star(P1, 0.0) == pytest.approx(-2.0)
    assert alpha_tilde_star(P1, 1.0) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        alpha_tilde_star(P_HALF)


def test_small_argument_mass_power_cases():
    assert check_f2(power_spec(1.4), P3).verdict is Verdict.HOLDS
    assert check_f2(power_spec(2.0), P3).verdict is Verdict.FAILS


def test_small_argument_mass_spliced_example():
    spec = NonlinearitySpec(g=builtin_g("critical_splice", P3))
    rep = check_f2(spec, P3)
    assert rep.verdict is Verdict.HOLDS
    assert rep.trend is Trend.PLATEAU
    assert rep.plateau_value == pytest.approx(2.5, abs=0.05)


@pytest.mark.parametrize("c", [0.5, 2.5, 10.0])
def test_plateau_recovers_the_critical_coefficient(c):
    expo = P3.n / (P3.n - 2 * P3.s)
    spec = NonlinearitySpec(g=lambda t, c=c, e=expo: c * np.asarray(t) ** e)
    rep = check_f2(spec, P3)
    assert rep.plateau_value == pytest.approx(c, rel=1e-12)


def test_spliced_example_jump_is_flagged_as_printed():
    g = builtin_g("critical_splice", P3)
    left, right = g(np.asarray([1.0, np.nextafter(1.0, 2.0)]))  # the t <= 1 branch governs t = 1
    assert left == pytest.approx(2.5)
    assert right == pytest.approx(3.0)


def test_scaled_infimum_constant_ratio():
    spec = power_spec(1.0)
    # ratio f/t is identically one, so the quantity is the radius power
    assert psi_k(50.0, 1.0, spec, P1, "F3") == pytest.approx(50.0 ** (2 * P1.s), rel=1e-6)


def test_scaled_infimum_matches_closed_form():
    # g = t^(a*) makes the quantity k^(a*-1), radius-free; brute-force grid agrees
    spec = power_spec(-2.0)
    got = psi_k(100.0, 1.0, spec, P1, "F3")
    assert got == pytest.approx(1.0, rel=1e-4)
    ts = np.geomspace(1.0, 1.0 * 100.0**0.5, 400_000)
    brute = 100.0 ** (2 * P1.s) * np.min(ts**-3.0)
    assert got == pytest.approx(brute, rel=1e-4)


def test_scaled_infimum_empty_range_flag():
    spec = power_spec(-2.0, mu_lower=100.0)
    assert math.isinf(psi_k(4.0, 1e-6, spec, P1, "F3"))


@given(width=st.floats(1.1, 30.0), lo=st.floats(0.2, 5.0))
@settings(max_examples=40, deadline=None)
def test_infimum_monotone_in_range_width(width, lo):
    # enlarging the range never increases the infimum
    spec = NonlinearitySpec(form="general",
                            f_general=lambda t, x: np.cos(np.asarray(t)) ** 2 + 0.3)
    from fraccert.profiles import sampled_inf
    narrow = sampled_inf(lambda t: spec.f(t, 10.0) / t, lo, lo * math.sqrt(width), 400)
    wide = sampled_inf(lambda t: spec.f(t, 10.0) / t, lo, lo * width, 400)
    # nonincreasing up to the resolution of the refined grid minimum
    assert wide <= narrow * (1.0 + 1e-6) + 1e-12


def test_separable_quantity_factors_across_radii():
    # for separable forms the quantity depends on the radius only through
    # |x|^(2s-gamma) and the range endpoint
    spec = power_spec(-2.0, gamma=0.5)
    k = 0.7
    for x1, x2 in ((10.0, 40.0), (25.0, 80.0)):
        v1 = psi_k(x1, k, spec, P1, "F3")
        v2 = psi_k(x2, k, spec, P1, "F3")
        end1 = k * x1**P1.sigma_star
        end2 = k * x2**P1.sigma_star
        factor = (x2 / x1) ** (2 * P1.s - spec.gamma) * (end2 / end1) ** (-3.0)
        assert v2 / v1 == pytest.approx(factor, rel=1e-4)


def test_growth_condition_presets():
    assert check_f3prime(power_spec(-2.0), P1).verdict is Verdict.HOLDS
    assert check_f3prime(NonlinearitySpec(g=builtin_g("exponential", a=1.0)),
                         P_HALF).verdict is Verdict.HOLDS
    assert check_f3prime(power_spec(1.0), P1).verdict in (Verdict.FAILS, Verdict.INCONCLUSIVE)


def test_growth_condition_exponent_fit():
    rep = check_f3prime(power_spec(-2.0), P1)
    a_star = alpha_tilde_star(P1, 0.0)
    assert rep.fit_slope == pytest.approx(-1.0 + a_star, abs=0.2)


def test_decay_condition_presets():
    assert check_f4prime(power_spec(1.5), P3).verdict is Verdict.HOLDS
    assert check_f4prime(power_spec(1.0), P3).verdict is Verdict.FAILS
    # superlinear ratio: the verdict comes from the numbers
    assert check_f4prime(power_spec(2.0), P3).verdict is Verdict.HOLDS


def test_decay_condition_exponent_fit():
    rep = check_f4prime(power_spec(1.5), P3)
    assert rep.fit_slope == pytest.approx(-1.0 + alpha_tilde_star(P3, 0.0), abs=0.2)


def test_locally_uniform_growth():
    assert check_f2prime(power_spec(1.4), P3).verdict is Verdict.HOLDS
    decayer = NonlinearitySpec(form="general",
                               f_general=lambda t, x: np.exp(-x) * np.ones_like(np.asarray(t)))
    assert check_f2prime(decayer, P3).verdict is Verdict.FAILS


@pytest.mark.parametrize("t_side", [np.less, np.greater])
def test_f2prime_verdict_does_not_depend_on_box_order(t_side):
    # |x|^2s f decays on the t-boxes that meet the 1/x^2 side and wobbles (MIXED) on the others;
    # flipping the side reorders which box is which, and a decaying box FAILS either way
    spec = NonlinearitySpec(form="general", f_general=lambda t, x: x**-1.0 * np.where(
        t_side(np.asarray(t), 1.0), 1.0 / x, 2.0 + np.sin(x)))
    rep = check_f2prime(spec, P3)
    assert (rep.verdict, rep.trend) == (Verdict.FAILS, Trend.DECREASING)


def test_gamma_at_threshold_rejected():
    spec = power_spec(1.0, gamma=2 * P3.s)
    with pytest.raises(ConfigurationError):
        check_f2prime(spec, P3)


def test_wrong_regime_rejected():
    with pytest.raises(ConfigurationError):
        check_f2(power_spec(1.4), P1)
    with pytest.raises(ConfigurationError):
        check_f3prime(power_spec(1.0), P3)
    with pytest.raises(ConfigurationError):
        check_f4prime(power_spec(1.0), P1)


def test_positivity_violation_reported():
    spec = NonlinearitySpec(form="general",
                            f_general=lambda t, x: np.asarray(t) - 5.0)
    with pytest.raises(PositivityViolation):
        psi_k(10.0, 1.0, spec, P1, "F3")


def test_h_of_k_reports_trend():
    val, trend = h_of_k(1.0, power_spec(1.0), P1, "F3")
    assert val > 0.0
    assert trend is Trend.INCREASING  # the radius power grows along the samples


def test_h_of_k_all_ranges_empty_is_infinite():
    # a cap too small for every sampled radius leaves only empty ranges
    spec = power_spec(-2.0, mu_lower=10.0)
    val, _ = h_of_k(1e-8, spec, P1, "F3")
    assert math.isinf(val)


def test_spec_from_dict_builtins():
    spec = spec_from_dict({"form": "separable", "gamma": 0.0,
                           "g": {"name": "power", "p": 1.4}}, P3)
    assert check_f2(spec, P3).verdict is Verdict.HOLDS
    pw = spec_from_dict({"g": {"name": "piecewise_powers",
                               "pieces": [{"upto": 1.0, "terms": [[2.5, 1.5]]},
                                          {"upto": None, "terms": [[2.5, 1.5]]}]}}, P3)
    rep = check_f2(pw, P3)
    assert rep.plateau_value == pytest.approx(2.5)


_PIECEWISE = [{"upto": 1.0, "terms": [[2.5, 1.5]]}, {"upto": None, "terms": [[1.0, -1.0]]}]


def test_piecewise_powers_values_and_zero_tail():
    t = np.asarray([0.25, 1.0, 1.5, 3.0, 4.0])
    g = builtin_g("piecewise_powers", pieces=_PIECEWISE)
    np.testing.assert_array_equal(g(t), [2.5 * 0.25**1.5, 2.5, 1.0 / 1.5, 1.0 / 3.0, 0.25])
    # a finite last upto leaves zero beyond it; upto itself belongs to its own piece
    capped = builtin_g("piecewise_powers", pieces=[{"upto": 1.0, "terms": [[2.0, 1.0], [1.0, 2.0]]},
                                                    {"upto": 3.0, "terms": [[1.0, -1.0]]}])
    np.testing.assert_allclose(capped(t), [0.5625, 3.0, 1.0 / 1.5, 1.0 / 3.0, 0.0], rtol=1e-15)


@pytest.mark.parametrize("pieces", [
    [{"upto": 2.0, "terms": [[2.5, 1.5]]}, {"upto": 1.0, "terms": [[2.5, 1.5]]},
     {"upto": None, "terms": [[2.5, 1.5]]}],  # upto values out of order
    [{"upto": 1.0, "terms": [[2.5, 1.5]]}, {"upto": 1.0, "terms": [[2.5, 1.5]]},
     {"upto": None, "terms": [[2.5, 1.5]]}],  # repeated
    [{"upto": None, "terms": [[2.5, 1.5]]}, {"upto": 1.0, "terms": [[2.5, 1.5]]}],  # null before the last
])
def test_piecewise_powers_rejects_malformed_pieces(pieces):
    with pytest.raises(ConfigurationError):
        spec_from_dict({"g": {"name": "piecewise_powers", "pieces": pieces}}, P3)


@pytest.mark.parametrize("name,kw", [
    ("power", {"q": 3}), ("power", {"p": 2.0, "P": 3.0}), ("exponential", {"p": 1.0}),
    ("critical_splice", {"p": 1.0}), ("piecewise_powers", {"pieces": _PIECEWISE, "upto": 1.0}),
])
def test_builtin_g_rejects_keys_it_does_not_take(name, kw):
    with pytest.raises(ConfigurationError, match="takes no key"):
        builtin_g(name, P3, **kw)


@pytest.mark.parametrize("g", [
    {"name": "piecewise_powers", "pieces": [{"upto": None, "terms": [5]}]},  # a term that is no pair
    {"name": "piecewise_powers", "pieces": [{"upto": None, "terms": 5}]},  # terms that are no list
    {"name": "piecewise_powers", "pieces": [{"upto": None, "terms": [[1.0, None]]}]},  # a null exponent
    {"name": "piecewise_powers", "pieces": [{"upto": [1.0], "terms": [[1.0, 1.0]]}, {"upto": None, "terms": []}]},
    {"name": "piecewise_powers"},  # no pieces
    {"name": ["power"]},  # a name that is no string
])
def test_malformed_piecewise_terms_raise_configuration_errors(g):
    with pytest.raises(ConfigurationError):
        spec_from_dict({"g": g}, P3)


def test_verdicts_keep_inconclusive_discipline():
    # a short, non-monotone sequence must never produce HOLDS/FAILS
    wiggle = NonlinearitySpec(form="general",
                              f_general=lambda t, x: (2.0 + np.sin(3.0 * np.log(x)))
                              * np.asarray(t) / x)
    rep = check_f2prime(wiggle, P3)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_f2prime_refuses_nonfinite_samples():
    spec = NonlinearitySpec(form="general",
                            f_general=lambda t, x: np.where(np.asarray(t) > 0.9, np.nan, np.asarray(t) ** 1.4))
    with pytest.raises(DomainError):
        check_f2prime(spec, P3)
