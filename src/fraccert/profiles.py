"""Piecewise closed-form radial profiles and the comparison-barrier catalog.

A profile is a function of the radius rho > 0 given, on each of finitely many
intervals, by a finite sum of terms a*rho^b and a*log(rho).  Profiles stay
symbolic (term lists, never samples): their breakpoints are panel edges of
the operator's quadrature, the kernel's series integrates them term by term
on rho <= r/2 and rho >= 2r, and sums, multiples and dilations stay profiles.

Evaluation at a breakpoint uses the piece on the left; jump discontinuities
are kept as constructed and can be listed with :meth:`RadialProfile.jumps`.

The operator's kernel series live here too: ``_kernel_series`` (32 terms); ``_multiplier``, the closed form of
a kink-free [r/2, 2r]; and two sums of Gauss series (``_hyp_series``, 80 terms at argument <= 1/2) by one helper,
``_hyp_rows``, with its rounding bound: ``_hyp2f1_planar``, the n = 2 kernel 2F1(1+s, 1+s; 1; q^2), and
``_bubble_symbol``, the closed form of the scan's candidates (1+rho^2)^(-b), each A&S 15.3.6 above 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .params import FracParams

# A term is (coef, exponent, is_log): coef*rho**exponent, or coef*log(rho).
Term = tuple[float, float, bool]


def _clean_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Combine like terms and drop zero coefficients."""
    acc: dict[tuple[float, bool], float] = {}
    for coef, expo, is_log in terms:
        key = (0.0 if is_log else float(expo), bool(is_log))
        acc[key] = acc.get(key, 0.0) + float(coef)
    cleaned = [
        (coef, expo, is_log)
        for (expo, is_log), coef in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if coef != 0.0
    ]
    return tuple(cleaned)


def _values(terms: tuple[Term, ...], r: np.ndarray) -> np.ndarray:
    """Sum of the terms at the radii r."""
    val = np.zeros_like(r)
    for coef, expo, is_log in terms:
        val += coef * np.log(r) if is_log else coef * r**expo
    return val


def _anti(terms: tuple[Term, ...], r: np.ndarray) -> np.ndarray:
    """Antiderivative of rho times the sum of the terms, at the radii r."""
    val = np.zeros_like(r)
    for coef, expo, is_log in terms:
        if is_log:
            val = val + coef * r**2 * (2.0 * np.log(r) - 1.0) / 4.0
        elif abs(expo + 2.0) < 1e-13:
            val = val + coef * np.log(r)
        else:
            val = val + coef * r ** (expo + 2.0) / (expo + 2.0)
    return val


_EPS = float(np.finfo(float).eps)
_TERMS = 80  # terms of the planar kernel's series: at |z| <= 1/2 the 80th is below 1e-20 of the sum
_POLE_GAP = 0.01  # ``_multiplier`` gives no M this close to a pole of lambda


def _series(ratio: Callable[[np.ndarray], np.ndarray], z: np.ndarray, log_z: np.ndarray | None = None,
            shift: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """sum_k c_k z^k, c_0 = 1, c_(k+1) = ratio(k) c_k, or sum_k c_k z^k (log_z - shift[k]), over k < _TERMS.

    ``ratio`` takes a column of k, ``shift`` is a column of _TERMS values.  Returns (sum, sum of |terms|).
    The terms are running products down each element's column, 256 columns at a time (two 0.16 MB arrays,
    worked in place), and each column is summed in term order, so an element's value does not depend on
    the other elements.
    """
    shape, z = z.shape, z.ravel()
    step, total, absum = ratio(np.arange(_TERMS - 1.0)[:, None]), np.empty(z.size), np.empty(z.size)
    for j in range(0, z.size, 256):
        at = slice(j, j + 256)
        terms = np.ones((_TERMS, z[at].size))
        np.multiply(step, z[at], out=terms[1:])
        np.cumprod(terms, axis=0, out=terms)
        sizes = np.abs(terms)
        if log_z is not None:
            lz = log_z.ravel()[at]
            sizes *= np.abs(lz) + np.abs(shift)
            terms *= lz - shift
        total[at], absum[at] = np.cumsum(terms, axis=0, out=terms)[-1], np.cumsum(sizes, axis=0, out=sizes)[-1]
    return total.reshape(shape), absum.reshape(shape)


def _hyp_series(a: float, b: float, c: float, z: np.ndarray):
    """Gauss's series 2F1(a, b; c; z) and the sum of its |terms|, for |z| <= 1/2."""
    return _series(lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), z)


def _gamma_quotient(scale: float, num: tuple, den: tuple, is_log: bool = False) -> tuple[float, float]:
    """scale G(num[0]) G(num[1]) ... / (G(den[0]) G(den[1]) ...), G = Gamma, with 1/G = 0 at its poles (for log rho,
    1/G(den[0]) at den[0] = 0 is its derivative in e, -1/2), and a rounding bound: an argument x, rounded once, moves
    G(x)^(+-1) by eps |x psi(x)| <= eps |x| (1/d + log(2+|x|) + 1) relative, d its distance to the poles 0, -1, ...
    (1/G(-j) by eps j! j); math.gamma adds 8 eps (4 against mpmath on [-8, 12]), the products 8 eps."""
    lam, bar = scale, 0.0  # a running product and its rounding
    for i, x in enumerate(num + den):
        d = abs(x - min(round(x), 0))
        if i >= len(num) and d == 0.0:
            g, eta = (-0.5, 0.0) if is_log and i == len(num) else (0.0, math.factorial(round(-x)) * abs(x))
        else:
            g = math.gamma(x) ** (1 if i < len(num) else -1)
            eta = abs(g) * (8.0 + abs(x) * (1.0 / d + math.log(2.0 + abs(x)) + 1.0))
        lam, bar = lam * g, bar * abs(g) + abs(lam) * eta
    return lam, _EPS * (bar + 8.0 * abs(lam))


def _hyp_rows(scale: float, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The sum over rows (at, num, den, y, (f, f_abs), gap) of scale G(num..) / G(den..) x^y f on the mask at, f a
    series of |terms| f_abs (``_hyp_series`` on |z| <= 1/2), and a bound on its rounding: ``_gamma_quotient``'s; per
    series (15 _TERMS + 1 + gap) eps f_abs (sum, ratio steps, rounded argument, tail, and gap for a rounded third
    parameter next to a pole); (5 + |y| (3 + |log x|)) eps |f| for the power of a rounded x and y, and the products'."""
    val, bar = np.zeros_like(x), np.zeros_like(x)
    for at, num, den, y, (f, f_abs), gap in rows:
        g, log_x = (x[at] ** y, np.abs(np.log(x[at]))) if y else (1.0, 0.0)  # 1 and 0 exactly at y = 0
        coef, coef_bar = _gamma_quotient(scale, num, den)
        val[at] += coef * g * f
        bar[at] += coef_bar * g * np.abs(f) + abs(coef) * g * _EPS * (
            (1.0 + 15.0 * _TERMS + gap) * f_abs + (5.0 + abs(y) * (3.0 + log_x)) * np.abs(f))
    return val, bar


def _hyp2f1_planar(s: float, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2F1(1+s, 1+s; 1; z) on 0 <= z < 1, the n = 2 kernel, elementwise, with ``_hyp_rows``' bound on its rounding.

    ``w`` is 1 - z, which the caller has more accurately than 1 - z.  The power series serves z <= 1/2.  Above 1/2,
    Euler's w^(-m) 2F1(-s, -s; 1; z), m = 1 + 2s, then A&S 15.3.6 in w: G(m) / G(1+s)^2 w^(-m) 2F1(-s, -s; -2s; w)
    + G(-m) / G(-s)^2 2F1(1+s, 1+s; 1+m; w), G = Gamma.  Next to s = 1/2 the two grow like 1 / (1 - 2s) and cancel;
    the pole distance enters exactly, in -2s + 1 (so no gap) and in G(-m) = G(1-2s) G(2s) / G(2+2s).  At s = 1/2,
    A&S 15.3.11 at m = 2, in the same rows: G(2) / G(3/2)^2 w^(-2) (1 - w/4) - sum_n c_n w^n (log w - shift_n)
    / (G(-1/2)^2 G(3)), shift_n = psi(n+1) + psi(n+3) - 2 psi(n+3/2), sums of 1/i and 1/(i + 1/2).
    """
    low = z <= 0.5
    wh, rows = w[~low], ()  # no rows above 1/2 where every z <= 1/2
    if wh.size and s == 0.5:
        j = np.arange(_TERMS + 2.0)
        harmonic, half = np.append(0.0, np.cumsum(1.0 / (j + 1.0))), np.cumsum(1.0 / (j[:_TERMS] + 0.5))
        shift = (harmonic[:_TERMS] + harmonic[2:_TERMS + 2] - 2.0 * half + 4.0 * math.log(2.0))[:, None]
        tail, tail_abs = _series(lambda n: (1.5 + n) ** 2 / ((n + 1.0) * (n + 3.0)), wh, np.log(wh), shift)
        rows = (((2.0,), (1.5, 1.5), -2.0, (1.0 - 0.25 * wh, 1.0 + 0.25 * wh)),
                ((), (-0.5, -0.5, 3.0), 0.0, (-tail, tail_abs)))
    elif wh.size:
        a, m = 1.0 + s, 1.0 + 2.0 * s
        rows = (((m,), (a, a), -m, _hyp_series(-s, -s, -2.0 * s, wh)),
                ((1.0 - 2.0 * s, 2.0 * s), (2.0 * a, -s, -s), 0.0, _hyp_series(a, a, 2.0 * a, wh)))
    return _hyp_rows(1.0, w, [(low, (), (), 0.0, _hyp_series(1.0 + s, 1.0 + s, 1.0, z[low]), 0.0)]
                     + [(~low, *row, 0.0) for row in rows])


def _kernel_series(n: int, s: float, k, t, is_log) -> tuple[np.ndarray, np.ndarray]:
    """An antiderivative of t^(k-1) F(t^2), times log t where is_log, at each 0 < t <= 1/2, and its bar: F is
    2F1(1+s, (n+2s)/2; n/2; .), the kernel of ``fraccert.operator``, whose first 32 terms c_j z^j integrate to
    t^p / p (log t at p = 0) or t^p (log t - 1/p) / p, p = k + 2j, which vanish at t = 0 if k > 0 (k <= 0, from a
    tail piece rho^e with e > 2s, ends above 0).  Later terms fall by at most c_32 / c_31 t^2 < 1/2 each, so the
    last kept one bounds them; 16 eps |terms| bound rounding."""
    j = np.arange(31.0)
    c = np.cumprod(np.append(1.0, (1.0 + s + j) * (0.5 * n + s + j) / ((0.5 * n + j) * (j + 1.0))))[:, None]
    p, log_t, z = k + 2.0 * np.arange(32.0)[:, None], np.log(t), np.broadcast_to(t * t, (31, t.size))
    power = c * t ** k * np.cumprod(np.concatenate([np.ones((1, t.size)), z]), axis=0)  # c_j t^p
    terms = np.divide(power, p, out=c * log_t, where=p != 0.0)
    terms[:, is_log] *= log_t[is_log] - 1.0 / p[:, is_log]
    return terms.cumsum(axis=0)[-1], np.abs(terms[-1]) + 16.0 * _EPS * np.abs(terms).cumsum(axis=0)[-1]


def _power_symbol(n: int, s: float, e: float, is_log: bool = False) -> tuple[float, float]:
    """lambda(e) = 4^s G((2s-e)/2) G((n+e)/2) / (G(-e/2) G((n-2s+e)/2)), G = Gamma: (-Delta)^s rho^e = lambda(e)
    r^(e-2s) in R^n, -n < e < 2s, continued off the poles (for log rho, lambda'(0)), and its ``_gamma_quotient`` bar."""
    return _gamma_quotient(4.0 ** s, (math.fsum((s, -0.5 * e)), 0.5 * (n + e)),
                           (-0.5 * e, math.fsum((0.5 * n, -s, 0.5 * e))), is_log)


def _bubble_symbol(n: int, s: float, b: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(-Delta)^s (1+rho^2)^(-b) in R^n at the radii r and a bound on its rounding (Dyda, Fract. Calc. Appl. Anal. 15
    (2012) 536-555): 4^s G(b+s) G(n/2+s) / (G(b) G(n/2)) x^(b+s) 2F1(b+s, -s; n/2; 1-x), x = 1/(1+r^2), by Pfaff, for
    r <= 1; above, A&S 15.3.6 in x, m = n/2 - b: 4^s / G(b) [G(b+s) G(m) / G(m-s) x^(b+s) 2F1(b+s, -s; 1-m; x) +
    G(n/2+s) G(-m) / G(-s) x^(n/2+s) 2F1(m-s, n/2+s; 1+m; x)].  Its terms grow like 1/d at distance d from an integer
    m and cancel: None if d < _POLE_GAP, or if a series' terms from the _TERMS-th on may pass eps at 1/2 (b > ~8).
    The bar is ``_hyp_rows``', with gap (1 + 2|m|)(1/d + 11) for the rounded 1 -+ m.  It holds at zeros."""
    m, k = 0.5 * n - b, np.arange(float(_TERMS))
    d, series = abs(m - round(m)), ((b + s, -s, 0.5 * n), (b + s, -s, 1.0 - m), (m - s, 0.5 * n + s, 1.0 + m))
    a1, a2, c = np.asarray(series).T[:, :, None]  # from term _TERMS on each term is at most rho times the one before
    rho = 0.5 * (1.0 + abs(a1 - 1.0) / (_TERMS + 1.0)) * (1.0 + abs(a2 - c) / np.fmax(c + _TERMS, _EPS))  # c > -K
    if d < _POLE_GAP or not np.all(np.prod(np.abs((a1 + k) * (a2 + k) / ((c + k) * (k + 1.0))) / 2.0, axis=1,
                                           keepdims=True) <= _EPS * (1.0 - rho)):
        return None
    x, low, near = 1.0 / (1.0 + r * r), r <= 1.0, (1.0 + 2.0 * abs(m)) * (1.0 / d + 11.0)
    return _hyp_rows(4.0 ** s, x, (
        (low, (b + s, 0.5 * n + s), (b, 0.5 * n), b + s, _hyp_series(*series[0], (r * r * x)[low]), 0.0),
        (~low, (b + s, m), (b, math.fsum((0.5 * n, -b, -s))), b + s, _hyp_series(*series[1], x[~low]), near),
        (~low, (0.5 * n + s, -m), (b, -s), 0.5 * n + s, _hyp_series(*series[2], x[~low]), near)))


@functools.lru_cache(maxsize=32)
def _multiplier(params: FracParams, e: float, is_log: bool) -> tuple[float, float] | None:
    """M = lambda / (c_ns |S^(n-1)|) - O - T and its bar at the exponent e (of log rho if is_log): a term c rho^e of
    a piece holding [r/2, 2r] adds c M r^(e-2s) there (``fraccert.operator``).  O and T, its one-piece origin zone and
    tail continued in e, are A(n) - A(n+e) and A(2s) - A(2s-e) (-A_log(n), A_log(2s)), A = ``_kernel_series`` at
    t = 1/2.  At distance d from a pole e = 2s + 2j or -n - 2j (j = 0, 1, ...) lambda and T grow like 1/d, and their
    rounded arguments part them by eps (n+2+|e|) / d; so None if d < _POLE_GAP, and the piece keeps its panels.
    Cached: keys recur (the README's verify-chain and rate lines ask 33 times for 3, a catalog sweep 2,240 for 15)."""
    n, s = params.n, params.s
    d = min(abs(x - 2.0 * max(round(0.5 * x), 0)) for x in (e - 2.0 * s, -n - e))
    if d < _POLE_GAP:
        return None
    k, sign = ((n, 2.0 * s), (1.0, -1.0)) if is_log else ((n + e, 2.0 * s - e, n, 2.0 * s), (1.0, 1.0, -1.0, -1.0))
    val, bar = _kernel_series(n, s, np.asarray(k), np.full(len(k), 0.5), np.full(len(k), is_log))
    lam, lam_bar = (x / (params.c_ns * params.sphere_measure) for x in _power_symbol(n, s, e, is_log))
    parts, grow = np.asarray(sign) * val, 16.0 + 4.0 * (n + 2.0 + abs(e)) / d
    return lam + parts.sum(), lam_bar + bar.sum() + _EPS * grow * (abs(lam) + np.abs(parts).sum())


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise sum of powers and logarithms of the radius.

    ``pieces[i]`` is the term tuple on ``(breakpoints[i-1], breakpoints[i]]``,
    with the first piece starting at 0+ and the last extending to infinity.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        if any(b <= 0.0 for b in bps):
            raise ConfigurationError("breakpoints must be positive radii")
        if list(bps) != sorted(set(bps)):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) + 1:
            raise ConfigurationError("need exactly len(breakpoints)+1 pieces")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(_clean_terms(p) for p in self.pieces))

    # ------------------------------------------------------------------ eval

    def _piece_index(self, rho, side: str = "left") -> np.ndarray:
        # np.searchsorted's index (side='left' puts a breakpoint radius into the piece on its left, NaN goes
        # last), counted: faster than a binary search for the few breakpoints a profile has
        idx = np.full(np.shape(rho), len(self.breakpoints), np.min_scalar_type(len(self.breakpoints)))
        for b in self.breakpoints:
            idx -= (rho <= b) if side == "left" else (rho < b)
        return idx

    def _piecewise(self, rho: np.ndarray, side: str = "left") -> np.ndarray:
        """Values at the positive radii rho; a breakpoint takes the piece on its ``side``."""
        out = np.zeros_like(rho)
        idx = self._piece_index(rho, side)
        for i, terms in enumerate(self.pieces):
            mask = idx == i
            if terms and mask.any():
                out[mask] = _values(terms, rho[mask])
        return out

    def __call__(self, rho) -> np.ndarray | float:
        rho_arr = np.asarray(rho, dtype=float)
        scalar = rho_arr.ndim == 0
        rho_arr = np.atleast_1d(rho_arr)
        if np.any(rho_arr <= 0.0):
            raise DomainError("radial profiles are defined for rho > 0")
        out = self._piecewise(rho_arr)
        return float(out[0]) if scalar else out

    def rho_integral_between(self, lo, hi) -> np.ndarray:
        """Exact integral of rho*u(rho) over [lo, hi] (lo <= hi), elementwise.

        Each piece adds the difference of its own antiderivative over its
        share of [lo, hi], so no anchored offset (and its cancellation
        noise) enters.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        i_lo, i_hi = self._piece_index(lo), self._piece_index(hi)
        edges = (0.0,) + self.breakpoints + (math.inf,)
        out = np.zeros_like(lo)
        for i, terms in enumerate(self.pieces):
            live = (i_lo <= i) & (i <= i_hi)
            if not terms or not live.any():
                continue
            a = np.where(i_lo[live] == i, lo[live], edges[i])
            b = np.where(i_hi[live] == i, hi[live], edges[i + 1])
            out[live] += _anti(terms, b) - _anti(terms, a)
        return out

    # ------------------------------------------------------------- structure

    def left_value(self, b: float) -> float:
        return float(self(np.asarray(b)))

    def right_value(self, b: float) -> float:
        return float(self._piecewise(np.array([b], dtype=float), side="right")[0])

    def jumps(self) -> list[tuple[float, float, float]]:
        """Breakpoints where the profile is discontinuous beyond 1e-12 relative: (radius, left, right)."""
        found = []
        for b in self.breakpoints:
            left, right = self.left_value(b), self.right_value(b)
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > 1e-12 * scale:
                found.append((b, left, right))
        return found

    def max_growth_exponent(self) -> float:
        """Largest far-field growth exponent (log counts as 0+)."""
        last = self.pieces[-1]
        if not last:
            return -math.inf
        expos = [0.0 if is_log else expo for _, expo, is_log in last]
        return max(expos)

    # --------------------------------------------------------------- algebra

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        bps = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        edges = (0.0,) + bps
        pieces = []
        for lo in edges:
            # the pieces valid just to the right of radius lo
            i, j = self._piece_index(lo, "right"), other._piece_index(lo, "right")
            pieces.append(self.pieces[i] + other.pieces[j])
        return RadialProfile(bps, tuple(pieces))

    def __mul__(self, c: float) -> "RadialProfile":
        if not isinstance(c, (int, float)):
            return NotImplemented
        scaled = tuple(
            tuple((coef * float(c), expo, is_log) for coef, expo, is_log in piece)
            for piece in self.pieces
        )
        return RadialProfile(self.breakpoints, scaled)

    __rmul__ = __mul__

    def __neg__(self) -> "RadialProfile":
        return self * -1.0

    def dilate(self, lam: float) -> "RadialProfile":
        """Profile of rho -> u(lam*rho)."""
        if lam <= 0.0:
            raise ConfigurationError("dilation factor must be positive")
        new_bps = tuple(b / lam for b in self.breakpoints)
        new_pieces = []
        for piece in self.pieces:
            terms: list[Term] = []
            for coef, expo, is_log in piece:
                if is_log:
                    terms.append((coef, 0.0, True))
                    terms.append((coef * math.log(lam), 0.0, False))
                else:
                    terms.append((coef * lam**expo, expo, False))
            new_pieces.append(tuple(terms))
        return RadialProfile(new_bps, tuple(new_pieces))


def constant_profile(value: float) -> RadialProfile:
    return RadialProfile((), (((float(value), 0.0, False),),))


def power_profile(coef: float, exponent: float) -> RadialProfile:
    return RadialProfile((), (((float(coef), float(exponent), False),),))


def log_profile(coef: float) -> RadialProfile:
    return RadialProfile((), (((float(coef), 0.0, True),),))


# ---------------------------------------------------------------------------
# Fundamental solutions
# ---------------------------------------------------------------------------


class Branch(Enum):
    POWER_NEG = "power_neg"  # sigma_star < 0: decaying power
    LOG = "log"              # sigma_star = 0: -log
    POWER_POS = "power_pos"  # sigma_star > 0: -(growing power)


_SIGMA_ZERO_TOL = 1e-14


def _branch_of(params: FracParams) -> Branch:
    """The fundamental solution's branch: the one comparison of sigma* = 2s - n, log where |sigma*| <= 1e-14."""
    if abs(params.sigma_star) <= _SIGMA_ZERO_TOL:
        return Branch.LOG
    return Branch.POWER_NEG if params.sigma_star < 0 else Branch.POWER_POS


def make_fundamental(params: FracParams) -> RadialProfile:
    """Fundamental solution profile of the branch (``_branch_of``): r^sigma* (decaying power), -log r (log) or
    -r^sigma* (growing power).  Away from the origin (-Delta)^s annihilates it and its negative."""
    branch = _branch_of(params)
    if branch is Branch.LOG:
        return log_profile(-1.0)
    return power_profile(1.0 if branch is Branch.POWER_NEG else -1.0, params.sigma_star)


def positive_fundamental(params: FracParams) -> RadialProfile:
    """``make_fundamental`` on the decaying branch, its negative on the others: nonnegative outside the unit ball."""
    base = make_fundamental(params)
    return base if _branch_of(params) is Branch.POWER_NEG else -base


# ---------------------------------------------------------------------------
# Barrier catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierConstants:
    """Free constants of the comparison barriers.

    base_radius is the inner radius where ramps vanish, outer_radius the
    working radius whose multiples (3/2 and 2 times) carry the cut and bump
    shells.  The bump amplitudes are chosen (see ``choose_constants``) so the
    combined barriers have strictly negative operator values on their regions;
    exterior_sign_radius records the certified radius for the capped
    composite.
    """

    base_radius: float = 2.0
    outer_radius: float = 20.0
    power_bump_coef: float = 1.0
    log_bump_coef: float = 1.0
    plateau_height: float = 1.0
    shell_coef: float = 1.0
    indicator_coef: float = 2.0
    exterior_sign_radius: float | None = None

    def __post_init__(self) -> None:
        if not self.base_radius > 1.0:
            raise ConfigurationError("base_radius must exceed 1")
        if not self.base_radius < self.outer_radius < math.inf:
            raise ConfigurationError("outer_radius must be finite and exceed base_radius")
        for name in ("power_bump_coef", "log_bump_coef", "plateau_height", "shell_coef", "indicator_coef"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")

    def with_updates(self, **kw) -> "BarrierConstants":
        return replace(self, **kw)


class BarrierKind(Enum):
    # simple pieces
    POWER_RAMP = "power_ramp"            # (|x|/r0)^sigma* - 1 inside 2r, else 0 (sigma* > 0)
    POWER_BUMP = "power_bump"            # coef*|x|^sigma* on (3r/2, 2r) (sigma* > 0)
    EXTERIOR_LOG = "exterior_log"        # -log|x| outside r, else 0 (sigma* = 0)
    LOG_CUT = "log_cut"                  # log|x| inside 2r, else 0 (sigma* = 0)
    LOG_BUMP = "log_bump"                # coef*log|x| on (3r/2, 2r) (sigma* = 0)
    CAPPED_POWER = "capped_power"        # min(1, |x|^sigma*) (sigma* < 0)
    BALL_INDICATOR = "ball_indicator"    # indicator of the unit ball
    COMPLEMENT_RAMP = "complement_ramp"  # 1 - (|x|/r0)^sigma* inside 2r, else 0 (sigma* < 0)
    PLATEAU_BUMP = "plateau_bump"        # constant plateau on (3r/2, 2r)
    EXTERIOR_POWER = "exterior_power"    # |x|^sigma* outside r, else 0 (sigma* < 0)
    POWER_SHELL = "power_shell"          # coef*|x|^sigma* on (r, 3r/2) (sigma* < 0)
    # composites
    RAMP_WITH_BUMP = "ramp_with_bump"                  # power ramp + power bump
    LOG_RAMP_WITH_BUMP = "log_ramp_with_bump"          # log cut + log bump
    CAPPED_WITH_INDICATOR = "capped_with_indicator"    # capped power + indicator_coef * indicator
    COMPLEMENT_WITH_PLATEAU = "complement_with_plateau"  # complement ramp + plateau bump
    NORMALIZED_COMPLEMENT = "normalized_complement"    # (ramp + plateau)/(1 + plateau_height)
    EXTERIOR_WITH_SHELL = "exterior_with_shell"        # exterior power + power shell


# Two-part composites: first + second, the second scaled by the named BarrierConstants field (None: 1)
_COMPOSITES: dict[BarrierKind, tuple[BarrierKind, BarrierKind, str | None]] = {
    BarrierKind.RAMP_WITH_BUMP: (BarrierKind.POWER_RAMP, BarrierKind.POWER_BUMP, None),
    BarrierKind.LOG_RAMP_WITH_BUMP: (BarrierKind.LOG_CUT, BarrierKind.LOG_BUMP, None),
    BarrierKind.CAPPED_WITH_INDICATOR: (BarrierKind.CAPPED_POWER, BarrierKind.BALL_INDICATOR, "indicator_coef"),
    BarrierKind.COMPLEMENT_WITH_PLATEAU: (BarrierKind.COMPLEMENT_RAMP, BarrierKind.PLATEAU_BUMP, None),
    BarrierKind.EXTERIOR_WITH_SHELL: (BarrierKind.EXTERIOR_POWER, BarrierKind.POWER_SHELL, None),
}


def make_barrier(kind: BarrierKind | str, constants: BarrierConstants, params: FracParams) -> RadialProfile:
    """Construct a catalog barrier exactly as displayed, breakpoints included."""
    kind = BarrierKind(kind) if not isinstance(kind, BarrierKind) else kind
    sig, c, K = params.sigma_star, constants, BarrierKind
    if kind is K.NORMALIZED_COMPLEMENT:
        return make_barrier(K.COMPLEMENT_WITH_PLATEAU, constants, params) * (1.0 / (1.0 + c.plateau_height))
    if kind in _COMPOSITES:
        first, second, scale = _COMPOSITES[kind]
        head, tail = (make_barrier(part, constants, params) for part in (first, second))
        return head + (tail if scale is None else getattr(constants, scale) * tail)
    r0, r = c.base_radius, c.outer_radius
    # the simple barriers: the branch each needs (None: any), breakpoints, pieces
    row = {
        K.POWER_RAMP: (Branch.POWER_POS, (2.0 * r,), (((r0**-sig, sig, False), (-1.0, 0.0, False)), ())),
        K.POWER_BUMP: (Branch.POWER_POS, (1.5 * r, 2.0 * r), ((), ((c.power_bump_coef, sig, False),), ())),
        K.EXTERIOR_LOG: (Branch.LOG, (r,), ((), ((-1.0, 0.0, True),))),
        K.LOG_CUT: (Branch.LOG, (2.0 * r,), (((1.0, 0.0, True),), ())),
        K.LOG_BUMP: (Branch.LOG, (1.5 * r, 2.0 * r), ((), ((c.log_bump_coef, 0.0, True),), ())),
        K.CAPPED_POWER: (Branch.POWER_NEG, (1.0,), (((1.0, 0.0, False),), ((1.0, sig, False),))),
        K.BALL_INDICATOR: (None, (1.0,), (((1.0, 0.0, False),), ())),
        K.COMPLEMENT_RAMP: (Branch.POWER_NEG, (2.0 * r,), (((1.0, 0.0, False), (-(r0**-sig), sig, False)), ())),
        K.PLATEAU_BUMP: (None, (1.5 * r, 2.0 * r), ((), ((c.plateau_height, 0.0, False),), ())),
        K.EXTERIOR_POWER: (Branch.POWER_NEG, (r,), ((), ((1.0, sig, False),))),
        K.POWER_SHELL: (Branch.POWER_NEG, (r, 1.5 * r), ((), ((c.shell_coef, sig, False),), ())),
    }
    want, breakpoints, pieces = row[kind]
    if want is not None and _branch_of(params) is not want:
        raise ConfigurationError(
            f"barrier {kind.value!r} requires the {want.value} branch (sigma_star={sig:g} given)")
    return RadialProfile(breakpoints, pieces)


def barrier_gallery(
    constants: BarrierConstants, params: FracParams, radii: Sequence[float] | None = None
) -> list[tuple[str, float, float]]:
    """(barrier, radius, value) rows for every catalog entry valid at params."""
    if radii is None:
        radii = np.geomspace(1.01, 4.0 * constants.outer_radius, 120)
    rows: list[tuple[str, float, float]] = []
    for kind in BarrierKind:
        try:
            prof = make_barrier(kind, constants, params)
        except ConfigurationError:
            continue
        vals = prof(np.asarray(radii, dtype=float))
        rows.extend((kind.value, float(rho), float(v)) for rho, v in zip(radii, vals))
    return rows


def conform(vals, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A plain callable's result (or given samples) as a float array of ``shape``.

    This is the one array contract for plain callables: a 0-d result
    broadcasts, any other shape mismatch raises ConfigurationError.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        return np.full(shape, float(vals))
    if vals.shape != shape:
        raise ConfigurationError(f"{what} has shape {vals.shape}, expected {shape}")
    return vals


def as_radial_callable(profile: RadialProfile | Callable) -> Callable:
    """Radius -> value view of a profile or plain callable.

    A plain callable is called once on an array of radii (see ``conform``);
    a scalar radius gives a float.  Scalar-only functions need ``np.vectorize``.
    """
    if isinstance(profile, RadialProfile):
        return profile
    def wrapped(rho):
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = conform(profile(rho_arr), rho_arr.shape, "callable result")
        return out if np.asarray(rho).ndim else float(out[0])
    return wrapped


def finite_samples(vals, what: str) -> np.ndarray:
    """``vals`` as a float array; a NaN or infinite entry raises DomainError naming ``what``."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{what} is not finite at some sample")
    return vals


def sampled_inf(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, points: int) -> float:
    """Sampled infimum of fn over [lo, hi]: ``points`` geometric samples, then 64 evenly
    spaced between the neighbours of the smallest.  A non-finite sample raises DomainError."""
    grid = np.geomspace(lo, hi, points)
    what = f"the sampled function on [{lo:.6g}, {hi:.6g}]"
    vals = finite_samples(fn(grid), what)
    i = int(vals.argmin())
    fine = finite_samples(fn(np.linspace(grid[max(0, i - 1)], grid[min(points - 1, i + 1)], 64)), what)
    return float(min(vals.min(), fine.min()))
