"""Operator values against closed forms, evaluated with mpmath.

Dyda (2012, Fract. Calc. Appl. Anal.):

    (-Delta)^s (1+|x|^2)^(-b)
        = 2^(2s) G(b+s) G(n/2+s) / (G(b) G(n/2)) * 2F1(b+s, n/2+s; n/2; -|x|^2)

(scipy's hyp2f1 loses digits near b - n/2 in Z), and the power multiplier

    (-Delta)^s |x|^(-tau) = 2^(2s) G((tau+2s)/2) G((n-tau)/2) / (G(tau/2) G((n-tau-2s)/2))
                            * |x|^(-tau-2s),   -2s < tau < n,

whose profiles for tau > 0 are singular at the origin, an endpoint of the
integral over rho, and for tau < 0 grow into its tail.  The gate is the
error-estimate contract: |value - exact| <= 2 err + 1e-14 |exact|, and every
point must be converged.

Every radial function goes through one integral over rho against the kernel
of its dimension; the n = 2 kernel's 2F1(1+s, 1+s; 1; q^2) helper is checked
against mpmath.hyp2f1 here.  The bubble is checked in every dimension, down to
s = 0.05 in n = 1 and 3; the power multiplier down to s = 0.05; the
fundamental solution (exactly annihilated) down to s = 0.01 in every
dimension; and the cap (1 - |x|^2)_+^s in n = 1 and 3, also at
r = 0.8 ... 0.95 next to its kink, against its constant value
4^s G(1+s) G(n/2+s) / G(n/2) inside the ball and an mpmath integral over the
support outside.  At the extreme orders s = 0.01, 0.02, 0.98 and 0.99 the
fundamental solution and the powers converge in every dimension.

A profile radius with no breakpoint in [r/2, 2r] takes that part in closed
form (the multiplier less the one-piece origin zone and tail, checked against
mpmath here), so every fundamental-solution and power case also runs split in
two equal pieces at 1.3 r, on panels, and the two must agree within their
combined bars.
"""

import numpy as np
import pytest

from fraccert.errors import ConfigurationError
from fraccert.operator import QuadSpec, eval_radial, eval_radial_jobs, eval_radial_many
from fraccert.params import FracParams
from fraccert.profiles import (BarrierConstants, BarrierKind, RadialProfile, _hyp2f1_planar, _kernel_series,
                               _POLE_GAP, _multiplier, _power_symbol, make_barrier, make_fundamental)

mpmath = pytest.importorskip("mpmath")


def dyda(n: int, s: float, b: float, r: float) -> float:
    mpmath.mp.dps = 30
    pref = (mpmath.mpf(2) ** (2 * s) * mpmath.gamma(b + s) * mpmath.gamma(mpmath.mpf(n) / 2 + s)
            / (mpmath.gamma(b) * mpmath.gamma(mpmath.mpf(n) / 2)))
    hb, c, z = mpmath.mpf(n) / 2 + s, mpmath.mpf(n) / 2, -mpmath.mpf(r) ** 2
    try:
        f = mpmath.hyp2f1(b + s, hb, c, z)
    except ValueError:
        # hypsum does not converge on an exact zero (n = 1, s = 1/2, b = 1, r = 1); there Euler's
        # transformation terminates, and zeroprec lets its sum be zero
        f = (1 - z) ** (c - b - s - hb) * mpmath.hyp2f1(c - b - s, c - hb, c, z, zeroprec=mpmath.mp.prec)
    return float(pref * f)


def _split_misses(u: RadialProfile, radii, params) -> list:
    """The radii where a one-piece profile, whose [r/2, 2r] takes the closed form, and the same terms as two pieces
    split at 1.3 r, whose [r/2, 2r] takes panels, miss |v1 - v2| <= err1 + err2, or where either is unconverged."""
    (terms,) = u.pieces
    one = eval_radial_many(u, radii, params)
    split = eval_radial_jobs([(RadialProfile((1.3 * r,), (terms, terms)), [r], QuadSpec()) for r in radii], params)
    assert all(a.panels_used == 0 and b[2][0] > 0 for a, b in zip(one, split))
    return [(r, a.value, b[0][0], a.error_estimate, b[1][0]) for r, a, b in zip(radii, one, split)
            if not (a.converged and b[3][0]) or abs(a.value - b[0][0]) > a.error_estimate + b[1][0]]


def _gate(ovs, exact) -> list:
    """The points that miss |value - exact| <= 2 err + 1e-14 |exact|."""
    return [(ov.value, want, ov.error_estimate) for ov, want in zip(ovs, exact)
            if abs(ov.value - want) > 2.0 * ov.error_estimate + 1e-14 * abs(want)]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("b", [0.6, 1.5, 2.5])
def test_planar_bubble_within_error_bars(s, b):
    params = FracParams(2, s)
    u = lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** (-b)
    misses = []
    for r in (0.1, 0.5, 1.5, 5.0, 30.0, 300.0):
        ov = eval_radial(u, r, params)
        exact = dyda(2, s, b, r)
        if not ov.converged or abs(ov.value - exact) > 2.0 * ov.error_estimate + 1e-14 * abs(exact):
            misses.append((r, ov.value, exact, ov.error_estimate))
    assert not misses


_RADII = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]


@pytest.mark.parametrize("s,n", [(s, n) for n in (1, 3) for s in (0.25, 0.5, 0.75)]
                         + [(s, 2) for s in (0.1, 0.25, 0.5, 0.75, 0.9)]
                         + [(s, n) for n in (1, 3) for s in (0.05, 0.1)])
@pytest.mark.parametrize("two_b", [0.8, 2.0, 5.0])
def test_bubble_within_error_bars(n, s, two_b):
    b = two_b / 2.0
    u = lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** (-b)
    ovs = eval_radial_many(u, _RADII, FracParams(n, s))
    assert not _gate(ovs, [dyda(n, s, b, r) for r in _RADII])
    assert all(ov.converged for ov in ovs)


def cap(n: int, s: float, r: float) -> float:
    """(-Delta)^s (1 - |x|^2)_+^s at |x| = r in R^n, n = 1 or 3."""
    mpmath.mp.dps = 30
    s, half_n = mpmath.mpf(s), mpmath.mpf(n) / 2
    if r < 1.0:
        return float(4 ** s * mpmath.gamma(1 + s) * mpmath.gamma(half_n + s) / mpmath.gamma(half_n))
    # u(x) = 0: minus c_ns times the integral of u(y) |x - y|^(-n-2s) over the ball.  With a = 1 + 2s the
    # sphere |y| = q contributes (r-q)^(-a) + (r+q)^(-a) in n = 1, and 4 pi q^2 times the mean
    # ((r-q)^(-a) - (r+q)^(-a)) / (2 r q a) in n = 3
    a = 1 + 2 * s
    c_ns = 4 ** s * mpmath.gamma(half_n + s) / (mpmath.pi ** half_n * abs(mpmath.gamma(-s)))
    if n == 1:
        f = lambda q: (1 - q * q) ** s * ((r - q) ** -a + (r + q) ** -a)
        return float(-c_ns * mpmath.quad(f, [0, 1]))
    f = lambda q: (1 - q * q) ** s * q * ((r - q) ** -a - (r + q) ** -a)
    return float(-c_ns * 4 * mpmath.pi / (2 * r * a) * mpmath.quad(f, [0, 1]))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_cap_within_error_bars(s):
    # r = 0.8, 0.9 and 0.95 sit next to the kink, where the cap has a (1 - rho)^s edge
    radii = [0.0, 0.1, 0.3, 0.7, 0.8, 0.9, 0.95, 1.1, 1.5, 2.0, 5.0, 30.0]
    u = lambda rho: np.maximum(1.0 - np.asarray(rho, dtype=float) ** 2, 0.0) ** s
    for n in (1, 3):
        ovs = eval_radial_many(u, radii, FracParams(n, s), QuadSpec(kink_radii=(1.0,)))
        assert not _gate(ovs, [cap(n, s, r) for r in radii])
        assert all(ov.converged for ov in ovs)


def power_multiplier(n: int, s: float, tau: float) -> float:
    mpmath.mp.dps = 30
    return float(mpmath.mpf(2) ** (2 * s) * mpmath.gamma((tau + 2 * s) / 2) * mpmath.gamma((n - tau) / 2)
                 * mpmath.rgamma(tau / 2) * mpmath.rgamma((n - tau - 2 * s) / 2))


@pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3) for s in (0.25, 0.5, 0.75) if 2.0 * s < n]
                         + [(n, s) for n in (1, 3) for s in (0.05, 0.1)])
def test_singular_power_within_error_bars(n, s):
    params, radii = FracParams(n, s), np.asarray([0.3, 1.0, 4.0, 30.0])
    misses = []
    for frac in (0.2, 0.5, 0.8):
        tau = frac * (n - 2.0 * s)
        u = RadialProfile((), (((1.0, -tau, False),),))
        exact = power_multiplier(n, s, tau) * radii ** (-tau - 2.0 * s)
        for r, ov, want in zip(radii, eval_radial_many(u, radii, params), exact):
            if not ov.converged or abs(ov.value - want) > 2.0 * ov.error_estimate + 1e-14 * abs(want):
                misses.append((tau, r, ov.value, want, ov.error_estimate))
        misses += _split_misses(u, radii.tolist(), params)
    assert not misses


@pytest.mark.parametrize("n,s,e", [(1, 0.65, 1.0), (1, 0.8, 1.0), (2, 0.65, 1.0), (3, 0.65, 1.0), (3, 0.9, 1.5)])
def test_growing_power_within_error_bars(n, s, e):
    # |x|^e with 0 < e < 2s, the multiplier formula at tau = -e: most of the integral lies in the tail, which
    # the kernel's series integrates in closed form (its mapped panels once came back 2.1 bars off)
    params, radii = FracParams(n, s), np.asarray([0.3, 1.0, 3.0, 10.0, 50.0])
    u = RadialProfile((), (((1.0, e, False),),))
    ovs = eval_radial_many(u, radii, params)
    assert all(ov.converged for ov in ovs)
    assert not _gate(ovs, power_multiplier(n, s, -e) * radii ** (e - 2.0 * s))
    assert not _split_misses(u, radii.tolist(), params)


_PLANAR_RADII = [0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0]


@pytest.mark.parametrize("s", [0.4, 0.5, 0.6, 0.75, 0.9])
def test_planar_fundamental_converges_within_error_bars(s):
    params = FracParams(2, s)
    ovs = eval_radial_many(make_fundamental(params), _PLANAR_RADII, params)
    assert all(ov.converged for ov in ovs)
    assert not _gate(ovs, [0.0] * len(ovs))
    assert not _split_misses(make_fundamental(params), _PLANAR_RADII, params)


@pytest.mark.parametrize("s", [0.01, 0.02, 0.05, 0.1, 0.25])
def test_planar_fundamental_at_small_s_is_honest_or_unconverged(s):
    # the integrand is like rho^(2s - 1) at the origin, where the kernel's series integrates it in closed form
    params = FracParams(2, s)
    ovs = eval_radial_many(make_fundamental(params), _PLANAR_RADII, params)
    assert all(ov.converged for ov in ovs)
    assert not _gate(ovs, [0.0] * len(ovs))
    assert not _split_misses(make_fundamental(params), _PLANAR_RADII, params)


@pytest.mark.parametrize("n,s", [(n, s) for n in (1, 3) for s in (0.01, 0.02, 0.1, 0.25, 0.4, 0.75)])
def test_fundamental_converges_within_error_bars(n, s):
    # n = 3, s = 0.25 at r = 4.61 once came back converged with a bar 4.8 times short; n = 3, s = 0.01 once
    # overflowed in the origin map rho = (r/2) v^50 (warnings are errors in every test)
    params = FracParams(n, s)
    radii = _PLANAR_RADII + ([4.61] if n == 3 else [])
    ovs = eval_radial_many(make_fundamental(params), radii, params)
    assert all(ov.converged for ov in ovs)
    assert not _gate(ovs, [0.0] * len(ovs))
    assert not _split_misses(make_fundamental(params), radii, params)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
def test_planar_power_converges_within_error_bars(s):
    params, radii = FracParams(2, s), np.asarray(_PLANAR_RADII)
    for frac in (0.2, 0.5, 0.8):
        tau = frac * (2.0 - 2.0 * s)
        u = RadialProfile((), (((1.0, -tau, False),),))
        ovs = eval_radial_many(u, radii, params)
        assert all(ov.converged for ov in ovs)
        assert not _gate(ovs, power_multiplier(2, s, tau) * radii ** (-tau - 2.0 * s))
        assert not _split_misses(u, radii.tolist(), params)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.01, 0.02, 0.98, 0.99])
def test_extreme_orders_converge_within_error_bars(n, s):
    # the fundamental solution and the powers |x|^e, -n < e < 2s - 0.05, at the extreme orders (warnings are errors).
    # On panels the n = 2 fundamental solution at s >= 0.98 left 3 or 4 of 5 radii unconverged
    params, radii = FracParams(n, s), np.asarray(_PLANAR_RADII)
    powers = [-frac * (n - 2.0 * s) for frac in (0.2, 0.5, 0.8)] + [frac * 2.0 * s for frac in (0.2, 0.5, 0.8)]
    cases = [(make_fundamental(params), np.zeros(radii.size))] + [
        (RadialProfile((), (((1.0, e, False),),)), power_multiplier(n, s, -e) * radii ** (e - 2.0 * s))
        for e in powers if e < 2.0 * s - 0.05]
    for u, exact in cases:
        ovs = eval_radial_many(u, radii, params)
        assert all(ov.converged for ov in ovs), u
        assert not _gate(ovs, exact), u

# the kernel of the n = 2 operator, 2F1(1+s, 1+s; 1; z), against mpmath at the true order 1 + s (Euler's
# transformation, then the connection formula; its log form at s = 1/2). Each order a is run at s = a - 1, exact
# for a in [1, 2], and at the decimal s next to it, as the engine receives s, where 1 + s is not a double.
@pytest.mark.parametrize("a", [1.01, 1.05, 1.1, 1.25, 1.4, 1.5, 1.5 - 1e-6, 1.5 + 1e-6, 1.5 + 1e-9,
                               1.75, 1.9, 1.99])
def test_hyp2f1_aa_against_mpmath(a):
    mpmath.mp.dps = 30
    z = np.concatenate([np.linspace(0.0, 0.99, 100), [0.5, np.nextafter(0.5, 1.0)],
                        1.0 - np.geomspace(1e-2, 1e-14, 49)])
    for s in (a - 1.0, float(f"{a - 1.0:.12g}")):
        val, bound = _hyp2f1_planar(s, z, 1.0 - z)
        order = 1 + mpmath.mpf(s)
        exact = np.asarray([float(mpmath.hyp2f1(order, order, 1, mpmath.mpf(x))) for x in z])
        err = np.abs(val - exact)
        assert np.all(err <= bound)
        if abs(s - 0.5) >= 0.01:
            assert np.all(err <= 1e-13 * np.abs(exact))


# the kernel series of the origin and tail zones, sum_j c_j int t^(k-1+2j) (log t) dt, against mpmath quadrature of
# t^(k-1) 2F1(1+s, (n+2s)/2; n/2; t^2) (times log t) on sub-intervals of (0, 1/2], as a profile's pieces clip
# them.  k = n and 2s are the u(r) and log elements; k = 2s - e <= 0 comes from a tail piece c rho^e with e > 2s,
# whose p = k + 2j passes through 0 (the log antiderivative) when k is an even integer <= 0
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.85])
def test_kernel_series_against_mpmath(n, s):
    mpmath.mp.dps = 30
    cases = [(k, False) for k in (n, 2.0 * s, 0.0, -1.3, -2.0, -4.0)] + [(n, True), (2.0 * s, True)]
    for lo, hi in ((0.2, 0.5), (0.01, 0.5), (0.3, 0.31), (0.0, 0.5)):
        for k, is_log in cases:
            if lo == 0.0 and k <= 0.0:
                continue  # the antiderivative vanishes at t = 0 only for k > 0: no piece there has k <= 0
            kernel = lambda t: mpmath.hyp2f1(1 + s, (n + 2 * s) / 2, n / 2, t * t) * (mpmath.log(t) if is_log else 1)
            if k > 0.0:  # in v = t^k, which takes the singularity t^(k-1) at t = 0 out of the quadrature
                want = float(mpmath.quad(lambda v: kernel(v ** (1 / mpmath.mpf(k))) / k, [lo ** k, hi ** k]))
            else:
                want = float(mpmath.quad(lambda t: t ** (k - 1) * kernel(t), [lo, hi]))
            ends = np.asarray([hi, lo]) if lo > 0.0 else np.asarray([hi])
            val, bar = _kernel_series(n, s, np.full(ends.size, k), ends, np.full(ends.size, is_log))
            got = val[0] - (val[1] if lo > 0.0 else 0.0)
            assert abs(got - want) <= bar.sum(), (lo, hi, k, is_log, got, want, bar.sum())


def _antiderivative(n, s, k, is_log: bool):
    """sum_j c_j t^p / p, p = k + 2j, at t = 1/2 (the kernel series of ``_kernel_series``) as the closed form
    (t^k / k) 3F2(1+s, n/2+s, k/2; n/2, k/2+1; t^2), or for log t its derivative in k."""
    t = mpmath.mpf(1) / 2
    a = lambda k: t ** k / k * mpmath.hyp3f2(1 + s, n / 2 + s, k / 2, n / 2, k / 2 + 1, t * t)
    return mpmath.diff(a, k) if is_log else a(k)


def _multiplier_reference(n: int, s: float, e: float, is_log: bool) -> tuple:
    """lambda(e) (lambda'(0) for log rho) and M = lambda / (c_ns |S^(n-1)|) - O - T at 30 digits."""
    mpmath.mp.dps = 30
    n, s, e = mpmath.mpf(n), mpmath.mpf(s), mpmath.mpf(e)
    lam = lambda e: (4 ** s * mpmath.gamma((2 * s - e) / 2) * mpmath.gamma((n + e) / 2)
                     * mpmath.rgamma(-e / 2) * mpmath.rgamma((n - 2 * s + e) / 2))
    prefac = 2 * 4 ** s * mpmath.gamma(n / 2 + s) / (mpmath.gamma(n / 2) * abs(mpmath.gamma(-s)))  # c_ns |S^(n-1)|
    if is_log:
        lam0 = -4 ** s * mpmath.gamma(s) * mpmath.gamma(n / 2) * mpmath.rgamma(n / 2 - s) / 2
        o, t = -_antiderivative(n, s, n, True), _antiderivative(n, s, 2 * s, True)
    else:
        lam0 = lam(e)
        o = _antiderivative(n, s, n, False) - _antiderivative(n, s, n + e, False) if e else 0
        t = _antiderivative(n, s, 2 * s, False) - _antiderivative(n, s, 2 * s - e, False) if e else 0
    return lam0, lam0 / prefac - o - t


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_multiplier_against_mpmath(n):
    # lambda and M = lambda / prefac - O - T of the closed-form [r/2, 2r] (profiles._multiplier): every exponent of
    # every catalog barrier that builds, log rho, and exponents 1.01, 3 and 10 _POLE_GAP from the poles on both sides
    # (none at 0.99 _POLE_GAP, where the piece keeps its panels)
    misses = []
    for s in (0.01, 0.02, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.98, 0.99):
        params, cases = FracParams(n, s), {(0.0, True)}
        for kind in BarrierKind:
            try:
                barrier = make_barrier(kind, BarrierConstants(), params)
            except ConfigurationError:
                continue
            cases |= {(0.0 if lg else e, lg) for piece in barrier.pieces for _, e, lg in piece}
        for pole in (2 * s, 2 * s + 2, -n, -n - 2):
            cases |= {(pole + side * gap * _POLE_GAP, False) for side in (-1, 1) for gap in (1.01, 3, 10)}
            assert all(_multiplier(params, pole + side * 0.99 * _POLE_GAP, False) is None for side in (-1, 1))
        for x, lg in sorted(cases):
            got, bar = _multiplier(params, x, lg)
            lam, lam_bar = _power_symbol(n, s, x, lg)
            want_lam, want = _multiplier_reference(n, s, x, lg)
            if abs(lam - want_lam) > lam_bar or abs(got - want) > bar:
                misses.append((s, x, lg, float(abs(lam - want_lam) / lam_bar), float(abs(got - want) / bar)))
    assert not misses
