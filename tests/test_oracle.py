"""Operator values against the closed form of (-Delta)^s (1+|x|^2)^(-b).

Dyda (2012, Fract. Calc. Appl. Anal.):

    (-Delta)^s (1+|x|^2)^(-b)
        = 2^(2s) G(b+s) G(n/2+s) / (G(b) G(n/2)) * 2F1(b+s, n/2+s; n/2; -|x|^2),

evaluated with mpmath (scipy's hyp2f1 loses digits near b - n/2 in Z).  The
gate is the error-estimate contract: |value - exact| <= 2 err + 1e-14 |exact|.

Only n = 2 is checked here.  In n = 1 and n = 3 plain callables still miss
the gate at large radii: the n = 3 generic mean uses a fixed polar rule that
reports zero error, and in n = 1 the 16/8 Gauss pair can agree on an
unresolved panel (ROADMAP item 1).
"""

import numpy as np
import pytest

from fraccert.operator import eval_radial
from fraccert.params import FracParams

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
