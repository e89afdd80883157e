"""Closed-form values the benchmark checks the program's outputs against.

All four are independent of fraccert and evaluated in extended precision
with mpmath (scipy's ``hyp2f1`` loses digits when b - n/2 is close to an
integer, which the seeded scan parameters can be):

* Dyda (2012, Fract. Calc. Appl. Anal.):
  (-Delta)^s (1+|x|^2)^(-b)
      = 2^(2s) G(b+s) G(n/2+s) / (G(b) G(n/2)) * 2F1(b+s, n/2+s; n/2; -|x|^2);
* the fundamental solution is annihilated: (-Delta)^s Phi = 0 away from 0;
* the power multiplier, (-Delta)^s |x|^(-tau) = lambda(tau) |x|^(-tau-2s),
  lambda(tau) = 2^(2s) G((tau+2s)/2) G((n-tau)/2) / (G(tau/2) G((n-tau-2s)/2));
* the torsion function of the unit ball in one dimension,
  u(x) = G(1/2) / (4^s G(1+s) G(1/2+s)) * (1-x^2)^s.

``honest`` is the gate: a value with error estimate ``err`` is honest when
|value - exact| <= 2 err + 1e-14 |exact|.  Run this file to self-test the
oracles against known reductions.
"""

from __future__ import annotations

import math
import sys

REL_FLOOR = 1e-14


def _mp():
    # imported on first use, so that importing this module costs a pass no set-up time
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def dyda(n: int, s: float, b: float, r: float) -> float:
    """(-Delta)^s (1+|x|^2)^(-b) at |x| = r in R^n."""
    mpmath = _mp()
    pref = (mpmath.mpf(2) ** (2 * s) * mpmath.gamma(b + s) * mpmath.gamma(n / 2 + s)
            / (mpmath.gamma(b) * mpmath.gamma(n / 2)))
    return float(pref * mpmath.hyp2f1(b + s, n / 2 + s, n / 2, -mpmath.mpf(r) ** 2))


def power_multiplier(n: int, s: float, tau: float) -> float:
    """lambda(tau) with (-Delta)^s |x|^(-tau) = lambda(tau) |x|^(-tau-2s); zero at tau = n-2s."""
    mpmath = _mp()
    return float(mpmath.mpf(2) ** (2 * s) * mpmath.gamma((tau + 2 * s) / 2)
                 * mpmath.gamma((n - tau) / 2) * mpmath.rgamma(tau / 2)
                 * mpmath.rgamma((n - tau - 2 * s) / 2))


def torsion_1d(s: float, x):
    """Solution of (-Delta)^s u = 1 on (-1, 1), u = 0 outside; x may be an array."""
    const = math.gamma(0.5) / (4.0 ** s * math.gamma(1.0 + s) * math.gamma(0.5 + s))
    return const * (1.0 - x * x) ** s


def honest(value: float, err: float, exact: float) -> bool:
    return abs(value - exact) <= 2.0 * err + REL_FLOOR * abs(exact)


def self_test() -> list[str]:
    """Check each oracle against a known reduction; returns the failures."""
    failures = []
    for n in (1, 2, 3):
        for s in (0.25, 0.4, 0.75):
            if 2 * s >= n:
                continue  # the bubble exponent (n-2s)/2 must be positive
            # the bubble: at b = (n-2s)/2 the 2F1 collapses to (1+r^2)^(-(n/2+s))
            b = (n - 2 * s) / 2
            coef = 2.0 ** (2 * s) * math.gamma(n / 2 + s) / math.gamma(n / 2 - s)
            for r in (0.5, 3.0, 40.0):
                want = coef * (1.0 + r * r) ** (-(n / 2 + s))
                got = dyda(n, s, b, r)
                if abs(got - want) > 1e-13 * abs(want):
                    failures.append(f"dyda bubble n={n} s={s} r={r}: {got!r} != {want!r}")
        for s in (0.25, 0.5, 0.75):  # dyadic, so n - 2s is exact
            if 2 * s < n and power_multiplier(n, s, n - 2 * s) != 0.0:
                failures.append(f"lambda(n-2s) != 0 for n={n} s={s}")
    for s, want in ((0.5, 1.0), (1.0, 0.5)):
        got = torsion_1d(s, 0.0)
        if abs(got - want) > 1e-15:
            failures.append(f"torsion(0) = {got!r} at s={s}, want {want}")
    if not honest(1.0, 0.0, 1.0) or honest(1.0 + 1e-12, 0.0, 1.0):
        failures.append("honesty gate misclassifies its reference cases")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
