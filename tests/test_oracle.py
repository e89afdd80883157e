"""Operator values against closed forms, evaluated with mpmath.

Dyda (2012, Fract. Calc. Appl. Anal.):

    (-Delta)^s (1+|x|^2)^(-b)
        = 2^(2s) G(b+s) G(n/2+s) / (G(b) G(n/2)) * 2F1(b+s, n/2+s; n/2; -|x|^2)

(scipy's hyp2f1 loses digits near b - n/2 in Z), and the power multiplier

    (-Delta)^s |x|^(-tau) = 2^(2s) G((tau+2s)/2) G((n-tau)/2) / (G(tau/2) G((n-tau-2s)/2))
                            * |x|^(-tau-2s),   0 < tau < n - 2s,

whose profiles are singular at the origin, so every spherical mean has an
endpoint singularity at the origin crossing t = r.  The gate is the
error-estimate contract: |value - exact| <= 2 err + 1e-14 |exact|.

The bubble is checked only in n = 2.  In n = 1 and n = 3 plain callables still miss
the gate at large radii: the n = 3 generic mean uses a fixed polar rule that
reports zero error, and in n = 1 the 16/8 Gauss pair can agree on an
unresolved panel (ROADMAP item 1).
"""

import numpy as np
import pytest

from fraccert.operator import eval_radial, eval_radial_many
from fraccert.params import FracParams
from fraccert.profiles import RadialProfile

mpmath = pytest.importorskip("mpmath")


def dyda(n: int, s: float, b: float, r: float) -> float:
    mpmath.mp.dps = 30
    pref = (mpmath.mpf(2) ** (2 * s) * mpmath.gamma(b + s) * mpmath.gamma(mpmath.mpf(n) / 2 + s)
            / (mpmath.gamma(b) * mpmath.gamma(mpmath.mpf(n) / 2)))
    return float(pref * mpmath.hyp2f1(b + s, mpmath.mpf(n) / 2 + s, mpmath.mpf(n) / 2, -mpmath.mpf(r) ** 2))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("b", [0.6, 1.5, 2.5])
def test_planar_bubble_within_error_bars(s, b):
    params = FracParams(2, s)
    u = lambda rho: (1.0 + np.asarray(rho, dtype=float) ** 2) ** (-b)
    misses = []
    for r in (0.1, 0.5, 1.5, 5.0, 30.0, 300.0):
        ov = eval_radial(u, r, params)
        exact = dyda(2, s, b, r)
        if abs(ov.value - exact) > 2.0 * ov.error_estimate + 1e-14 * abs(exact):
            misses.append((r, ov.value, exact, ov.error_estimate))
    assert not misses


def power_multiplier(n: int, s: float, tau: float) -> float:
    mpmath.mp.dps = 30
    return float(mpmath.mpf(2) ** (2 * s) * mpmath.gamma((tau + 2 * s) / 2) * mpmath.gamma((n - tau) / 2)
                 * mpmath.rgamma(tau / 2) * mpmath.rgamma((n - tau - 2 * s) / 2))


@pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3) for s in (0.25, 0.5, 0.75) if 2.0 * s < n])
def test_singular_power_within_error_bars(n, s):
    params, radii = FracParams(n, s), np.asarray([0.3, 1.0, 4.0, 30.0])
    misses = []
    for frac in (0.2, 0.5, 0.8):
        tau = frac * (n - 2.0 * s)
        u = RadialProfile((), (((1.0, -tau, False),),))
        exact = power_multiplier(n, s, tau) * radii ** (-tau - 2.0 * s)
        for r, ov, want in zip(radii, eval_radial_many(u, radii, params), exact):
            if abs(ov.value - want) > 2.0 * ov.error_estimate + 1e-14 * abs(want):
                misses.append((tau, r, ov.value, want, ov.error_estimate))
    assert not misses
