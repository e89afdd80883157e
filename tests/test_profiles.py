import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraccert.errors import ConfigurationError
from fraccert.params import FracParams
from fraccert.profiles import (
    BarrierConstants,
    BarrierKind,
    RadialProfile,
    SignVariant,
    barrier_gallery,
    constant_profile,
    log_profile,
    make_barrier,
    make_fundamental,
    positive_fundamental,
    power_profile,
)

P_POS = FracParams(1, 0.75)   # growing power branch
P_LOG = FracParams(1, 0.5)    # logarithmic branch
P_NEG = FracParams(3, 0.5)    # decaying power branch
BC = BarrierConstants(base_radius=2.0, outer_radius=20.0, power_bump_coef=3.0,
                      log_bump_coef=4.0, plateau_height=5.0, shell_coef=6.0)


def test_fundamental_branch_table():
    assert make_fundamental(P_NEG)(2.0) == pytest.approx(0.25)       # r^-2 at 2
    assert make_fundamental(P_LOG)(1.0) == pytest.approx(0.0)        # -log r at 1
    assert make_fundamental(P_POS, SignVariant.NEGATED)(4.0) == pytest.approx(2.0)  # r^0.5 at 4


def test_positive_fundamental_picks_nonnegative_branch():
    for p in (P_POS, P_LOG, P_NEG):
        prof = positive_fundamental(p)
        assert np.all(prof(np.linspace(1.0, 50.0, 40)) >= 0.0)


# closed forms of every barrier at random radii, pure arithmetic
def _barrier_reference(kind, c, params, rho):
    sig = params.sigma_star
    r0, r = c.base_radius, c.outer_radius
    if kind is BarrierKind.POWER_RAMP:
        return np.where(rho <= 2 * r, (rho / r0) ** sig - 1.0, 0.0)
    if kind is BarrierKind.POWER_BUMP:
        return np.where((rho > 1.5 * r) & (rho <= 2 * r), c.power_bump_coef * rho**sig, 0.0)
    if kind is BarrierKind.EXTERIOR_LOG:
        return np.where(rho > r, -np.log(rho), 0.0)
    if kind is BarrierKind.LOG_CUT:
        return np.where(rho <= 2 * r, np.log(rho), 0.0)
    if kind is BarrierKind.LOG_BUMP:
        return np.where((rho > 1.5 * r) & (rho <= 2 * r), c.log_bump_coef * np.log(rho), 0.0)
    if kind is BarrierKind.CAPPED_POWER:
        return np.where(rho <= 1.0, 1.0, rho**sig)
    if kind is BarrierKind.BALL_INDICATOR:
        return np.where(rho <= 1.0, 1.0, 0.0)
    if kind is BarrierKind.COMPLEMENT_RAMP:
        return np.where(rho <= 2 * r, 1.0 - (rho / r0) ** sig, 0.0)
    if kind is BarrierKind.PLATEAU_BUMP:
        return np.where((rho > 1.5 * r) & (rho <= 2 * r), c.plateau_height, 0.0)
    if kind is BarrierKind.EXTERIOR_POWER:
        return np.where(rho > r, rho**sig, 0.0)
    if kind is BarrierKind.POWER_SHELL:
        return np.where((rho > r) & (rho <= 1.5 * r), c.shell_coef * rho**sig, 0.0)
    raise AssertionError(kind)


_SIMPLE = {
    BarrierKind.POWER_RAMP: P_POS, BarrierKind.POWER_BUMP: P_POS,
    BarrierKind.EXTERIOR_LOG: P_LOG, BarrierKind.LOG_CUT: P_LOG, BarrierKind.LOG_BUMP: P_LOG,
    BarrierKind.CAPPED_POWER: P_NEG, BarrierKind.BALL_INDICATOR: P_NEG,
    BarrierKind.COMPLEMENT_RAMP: P_NEG, BarrierKind.PLATEAU_BUMP: P_NEG,
    BarrierKind.EXTERIOR_POWER: P_NEG, BarrierKind.POWER_SHELL: P_NEG,
}


@pytest.mark.parametrize("kind", list(_SIMPLE))
def test_barrier_matches_closed_form(kind):
    params = _SIMPLE[kind]
    prof = make_barrier(kind, BC, params)
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.05, 3.0 * BC.outer_radius, 100)
    got = prof(rho)
    want = _barrier_reference(kind, BC, params, rho)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_barrier_anchor_values():
    ramp = make_barrier(BarrierKind.POWER_RAMP, BC, P_POS)
    assert ramp(BC.base_radius) == pytest.approx(0.0, abs=1e-15)
    capped = make_barrier(BarrierKind.CAPPED_POWER, BC, P_NEG)
    assert capped.left_value(1.0) == pytest.approx(1.0)
    assert capped.right_value(1.0) == pytest.approx(1.0)  # continuous splice
    comp = make_barrier(BarrierKind.COMPLEMENT_RAMP, BC, P_NEG)
    assert comp(BC.base_radius) == pytest.approx(0.0, abs=1e-15)


def test_wrong_branch_is_configuration_error():
    with pytest.raises(ConfigurationError):
        make_barrier(BarrierKind.POWER_RAMP, BC, P_NEG)
    with pytest.raises(ConfigurationError):
        make_barrier(BarrierKind.CAPPED_POWER, BC, P_POS)
    with pytest.raises(ConfigurationError):
        make_barrier(BarrierKind.LOG_CUT, BC, P_NEG)


def test_cut_jump_recorded_not_smoothed():
    ramp = make_barrier(BarrierKind.POWER_RAMP, BC, P_POS)
    jumps = ramp.jumps()
    assert len(jumps) == 1
    radius, left, right = jumps[0]
    assert radius == pytest.approx(2 * BC.outer_radius)
    assert left > 0.0 and right == 0.0
    # evaluation at the jump takes the left piece
    assert ramp(radius) == pytest.approx(left)


# each two-part composite: its parts, its branch, and the coefficient of the second part
_COMPOSITE_PARTS = {
    BarrierKind.RAMP_WITH_BUMP: (BarrierKind.POWER_RAMP, BarrierKind.POWER_BUMP, P_POS, 1.0),
    BarrierKind.LOG_RAMP_WITH_BUMP: (BarrierKind.LOG_CUT, BarrierKind.LOG_BUMP, P_LOG, 1.0),
    BarrierKind.CAPPED_WITH_INDICATOR: (BarrierKind.CAPPED_POWER, BarrierKind.BALL_INDICATOR, P_NEG,
                                        BC.indicator_coef),
    BarrierKind.COMPLEMENT_WITH_PLATEAU: (BarrierKind.COMPLEMENT_RAMP, BarrierKind.PLATEAU_BUMP, P_NEG, 1.0),
    BarrierKind.EXTERIOR_WITH_SHELL: (BarrierKind.EXTERIOR_POWER, BarrierKind.POWER_SHELL, P_NEG, 1.0),
}


def test_composites_are_pointwise_sums():
    rho = np.geomspace(0.5, 50.0, 60)
    combo = make_barrier(BarrierKind.RAMP_WITH_BUMP, BC, P_POS)
    parts = make_barrier(BarrierKind.POWER_RAMP, BC, P_POS)(rho) + \
        make_barrier(BarrierKind.POWER_BUMP, BC, P_POS)(rho)
    np.testing.assert_allclose(combo(rho), parts, rtol=1e-14)

    assert BC.indicator_coef != 1.0
    rho = np.sort(np.random.default_rng(11).uniform(0.05, 3.0 * BC.outer_radius, 200))
    for kind, (first, second, params, coef) in _COMPOSITE_PARTS.items():
        want = _barrier_reference(first, BC, params, rho) + coef * _barrier_reference(second, BC, params, rho)
        np.testing.assert_allclose(make_barrier(kind, BC, params)(rho), want, rtol=1e-14, atol=1e-14,
                                   err_msg=kind.value)

    norm = make_barrier(BarrierKind.NORMALIZED_COMPLEMENT, BC, P_NEG)
    assert np.all(norm(np.geomspace(0.2, 100.0, 200)) <= 1.0 + 1e-14)

    wshell = make_barrier(BarrierKind.EXTERIOR_WITH_SHELL, BC, P_NEG)
    assert np.all(wshell(np.geomspace(BC.outer_radius * 1.0001, 200.0, 100)) > 0.0)


def test_grown_fundamental_exceeds_one_outside_unit_ball():
    prof = positive_fundamental(P_POS)
    rho = np.geomspace(1.0 + 1e-9, 1e4, 50)
    assert np.all(prof(rho) - 1.0 > 0.0)


@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False),
       rho=st.floats(0.1, 40.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_profile_linear_algebra(a, b, rho):
    p1 = power_profile(1.3, 0.5)
    p2 = log_profile(2.0) + constant_profile(-1.0)
    combo = a * p1 + b * p2
    want = a * p1(rho) + b * p2(rho)
    assert combo(rho) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_dilate_matches_composition():
    prof = make_barrier(BarrierKind.RAMP_WITH_BUMP, BC, P_POS)
    lam = 2.5
    dil = prof.dilate(lam)
    rho = np.geomspace(0.3, 30.0, 50)
    np.testing.assert_allclose(dil(rho), prof(lam * rho), rtol=1e-13)


def test_cumulative_rho_integral_matches_closed_form():
    prof = make_barrier(BarrierKind.EXTERIOR_POWER, BC, P_NEG)
    # rho * rho^-2 integrates to log on the live piece; zero piece contributes nothing
    got = prof.rho_integral_between(25.0, 45.0)[0]
    assert got == pytest.approx(math.log(45.0 / 25.0), rel=1e-14)
    across = prof.rho_integral_between(15.0, 45.0)[0]
    assert across == pytest.approx(math.log(45.0 / 20.0), rel=1e-14)


# breakpoints at 1, 2.5 and 4, with an empty third piece, a rho^-2 piece and log terms
ALGEBRA = RadialProfile((1.0, 2.5, 4.0), (
    ((3.0, 0.5, False), (-1.0, 0.0, False), (0.5, 0.0, True)),
    ((2.0, -2.0, False), (0.3, 1.5, False)),
    (),
    ((1.5, 0.0, True), (0.25, -1.5, False)),
))


def test_rho_integral_between_matches_quadrature():
    mpmath = pytest.importorskip("mpmath")
    pairs = [(0.2, 0.7),    # inside one piece
             (0.5, 3.0),    # across two breakpoints into the empty piece
             (1.0, 2.0),    # lo on a breakpoint: only the rho^-2 piece counts
             (1.5, 2.5),    # hi on a breakpoint
             (2.5, 6.0),    # across the empty piece into the log piece
             (3.0, 3.5),    # inside the empty piece
             (0.3, 10.0),   # across every piece
             (5.0, 5.0), (4.0, 4.0)]  # lo == hi, off and on a breakpoint
    lo, hi = (np.array(col) for col in zip(*pairs))
    got = ALGEBRA.rho_integral_between(lo, hi)

    def integrand(i):
        def f(rho):
            return rho * sum(c * (mpmath.log(rho) if is_log else rho**e)
                             for c, e, is_log in ALGEBRA.pieces[i])
        return f

    edges = (0.0,) + ALGEBRA.breakpoints + (math.inf,)
    with mpmath.workdps(30):
        for (a, b), value in zip(pairs, got):
            want = mpmath.mpf(0)
            for i in range(len(ALGEBRA.pieces)):
                left, right = max(a, edges[i]), min(b, edges[i + 1])
                if left < right:
                    want += mpmath.quad(integrand(i), [left, right])
            assert value == pytest.approx(float(want), rel=1e-13, abs=0.0), (a, b)


def test_constants_validation():
    with pytest.raises(ConfigurationError):
        BarrierConstants(base_radius=0.9, outer_radius=20.0)
    with pytest.raises(ConfigurationError):
        BarrierConstants(base_radius=2.0, outer_radius=1.0)
    with pytest.raises(ConfigurationError):
        BarrierConstants(base_radius=2.0, outer_radius=20.0, plateau_height=-1.0)
    for base, outer in [(2.0, math.inf), (2.0, math.nan), (math.inf, math.inf), (math.nan, 20.0)]:
        with pytest.raises(ConfigurationError):
            BarrierConstants(base_radius=base, outer_radius=outer)


def test_gallery_covers_valid_kinds():
    rows = barrier_gallery(BC, P_NEG, radii=np.geomspace(1.1, 50.0, 10))
    names = {name for name, _, _ in rows}
    assert "capped_power" in names and "exterior_with_shell" in names
    assert "power_ramp" not in names  # wrong branch for these parameters


@pytest.mark.parametrize("breakpoints", [(), (2.0,), (1.0, 2.0, 20.0, 40.0), tuple(np.geomspace(1.0, 1e3, 300))])
def test_piece_index_is_searchsorted(breakpoints):
    # the counted piece index is np.searchsorted's on both sides: breakpoints themselves, NaN and +-inf included
    prof = RadialProfile(breakpoints, ((),) * (len(breakpoints) + 1))
    rho = np.concatenate([np.geomspace(1e-3, 1e4, 500), breakpoints, [np.nan, np.inf, -np.inf, 0.0]])
    for side in ("left", "right"):
        want = np.searchsorted(np.asarray(breakpoints), rho, side=side)
        np.testing.assert_array_equal(prof._piece_index(rho, side), want)
        even = rho.size // 2 * 2  # a 2-d array too
        np.testing.assert_array_equal(prof._piece_index(rho[:even].reshape(-1, 2), side), want[:even].reshape(-1, 2))
        assert [prof._piece_index(float(x), side) for x in rho[:20]] == want[:20].tolist()
