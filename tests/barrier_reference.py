"""Reference operator values of the catalog barriers, by mpmath, for tests/test_barrier_reference.py.

Each value is c_ns |S^(n-1)| int_0^inf (u(r) - u(rho)) K(r, rho) d rho with
the kernels of the module docstring of ``fraccert.operator``, evaluated in
mpmath at 50 digits from the barrier's term list; nothing of the engine is
used.  The integrand is folded at rho = r: g(d) = f(r + d) + f(r - d) on
(0, r), which leaves g ~ C d^(2-a), a = 1 + 2s; below d = 1e-20 r that
leading term is integrated in closed form.  The rest of the integral runs
over [2r, inf).  Every breakpoint is an edge of mpmath's quadrature.

Run ``PYTHONPATH=src python tests/barrier_reference.py`` (about 30 s) and
paste its output over ``_REFERENCE`` in the test.
"""

import sys

import numpy as np

from fraccert.params import FracParams
from fraccert.profiles import BarrierConstants, make_barrier

CONSTANTS = BarrierConstants(base_radius=2.0, outer_radius=20.0)
# the barriers of the sign chains and of the three branches in every dimension: (kind, n, s)
CASES = [("ramp_with_bump", 1, 0.75), ("log_ramp_with_bump", 1, 0.5), ("complement_with_plateau", 1, 0.25),
         ("exterior_with_shell", 2, 0.75), ("capped_with_indicator", 2, 0.25),
         ("normalized_complement", 3, 0.5), ("capped_with_indicator", 3, 0.5), ("exterior_with_shell", 3, 0.5)]
RADII = np.geomspace(0.3, 80.0, 14).tolist()


def reference(kind: str, n: int, s: float, r: float) -> float:
    import mpmath  # optional: the test reads the committed values

    with mpmath.workdps(50):
        return _folded_integral(mpmath, make_barrier(kind, CONSTANTS, FracParams(n, s)), n, mpmath.mpf(s),
                                mpmath.mpf(r))


def _folded_integral(mpmath, prof, n: int, s, r) -> float:
    a, bps = 1 + 2 * s, [mpmath.mpf(b) for b in prof.breakpoints]

    def u(rho):
        piece = prof.pieces[sum(rho > b for b in bps)]  # a breakpoint belongs to the piece on its left
        return sum((c * mpmath.log(rho) if is_log else c * rho ** mpmath.mpf(e)) for c, e, is_log in piece)

    def kernel(rho):
        big, small = max(r, rho), min(r, rho)
        if n == 1:
            return ((big - small) ** -a + (big + small) ** -a) / 2
        if n == 2:
            return rho * big ** (-2 - 2 * s) * mpmath.hyp2f1(1 + s, 1 + s, 1, (small / big) ** 2)
        return rho / (2 * a * r) * ((big - small) ** -a - (big + small) ** -a)

    u_r = u(r)
    f = lambda rho: (u_r - u(rho)) * kernel(rho)
    g = lambda d: f(r + d) + f(r - d)
    d0 = r * mpmath.mpf(10) ** -20
    cuts = sorted({abs(b - r) for b in bps if 0 < abs(b - r) < r})
    fold = mpmath.quad(g, [d0, *cuts, r]) + g(d0) * d0 / (3 - a)
    far = mpmath.quad(f, [2 * r, *[b for b in bps if b > 2 * r], mpmath.inf])
    half_n = mpmath.mpf(n) / 2
    c_ns = 4 ** s * mpmath.gamma(half_n + s) / (mpmath.pi ** half_n * abs(mpmath.gamma(-s)))
    return float(c_ns * 2 * mpmath.pi ** half_n / mpmath.gamma(half_n) * (fold + far))


def main() -> None:
    print("_REFERENCE = {")
    for case in CASES:
        values = ", ".join(repr(reference(*case, r)) for r in RADII)
        print(f"    {case!r}: [{values}],")
        sys.stdout.flush()
    print("}")


if __name__ == "__main__":
    main()
