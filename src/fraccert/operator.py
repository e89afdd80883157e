"""Pointwise evaluation of (-Delta)^s by adaptive quadrature over the radius.

A radial u on R^n, n = 1, 2, 3, takes one integral over rho (Ferrari &
Verbitsky 2012),

    (-Delta)^s u(r) = c_ns |S^(n-1)| * int_0^inf (u(r) - u(rho)) K(r, rho) d rho,

with K the mean of |r e_1 - rho w|^(-n-2s) over the unit sphere, times rho^(n-1):

    n = 1:  K = (|r - rho|^(-a) + (r + rho)^(-a)) / 2,               a = 1 + 2s,
    n = 2:  K = rho M^(-1-a) 2F1(1+s, 1+s; 1; q^2),  M = max(r, rho), q = min(r, rho) / M,
    n = 3:  K = rho / (2 a r) * (|r - rho|^(-a) - (r + rho)^(-a)),

and K = rho^(-a) at r = 0.  In n = 3 the difference is (r + rho)^(-a) expm1(a log1p(2m / (M - m))),
m = min(r, rho), which does not cancel.  Near rho = r the fold g(delta) =
f(r + delta) + f(r - delta) of f = (u(r) - u(rho)) K is fitted by
delta^(1-2s), delta^2 and delta^(3-2s) and integrated exactly on (0, h]; h
shrinks by 4 while the fit misses its share of the tolerance.  Adaptive zones:
the fold on [h, r/2] and rho in [3r/2, 2r] for a profile, [3r/2, T] for a
plain callable, T = max(8r, twice the last kink radius).  A profile's origin
zone (0, r/2] and tail [2r, inf) take no panels: on both q <= 1/2, and each
term of K = rho^(n-1) M^(-n-2s) 2F1(1+s, (n+2s)/2; n/2; q^2) integrates in
closed form against each term of each piece (``profiles._kernel_series``,
summed once per distinct end of a pass).  Where [r/2, 2r] holds no breakpoint
no zone takes panels: the piece there gives the whole value in closed form
(``profiles._multiplier``, which names the poles where it does not).  A plain
callable takes the origin zone and tail, (0, r/2] and [T, inf), through
rho = (r/2) v^p, p = max(1, 1/(2s)), and w = (T/rho)^(2s), after one far-field
probe that raises on growth like rho^(2s).  The n = 2 kernel's 2F1 is
``profiles._hyp2f1_planar``, A&S 15.3.6 by ``profiles._hyp_rows`` as the scan's
bases; its rounding bound enters the error estimate.  Non-finite results raise.
Every kink radius is a panel edge.  On the line, ``eval_pointwise`` is
``eval_radial`` of the even part (u(x + t) + u(x - t)) / 2 at t = 0.

Evaluation is batched over jobs, a function at its radii under its QuadSpec
each: ``eval_radial_jobs`` takes several, ``eval_radial_many`` one and
``eval_radial`` one radius.  Every zone of every radius of every job is an id
of one ``_adaptive_many`` pass (``fraccert.quadrature``) with its own
tolerance and panel budget.  Split decisions and panel sums are per id, so a
radius gets the same value, bit for bit, in whatever batch of jobs it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, EvaluationPointError, NumericalError
from .params import FracParams
from .profiles import _EPS, RadialProfile, _hyp2f1_planar, _kernel_series, _multiplier, as_radial_callable
from .quadrature import _adaptive_many, _panel_values, _power_map

__all__ = [
    "QuadSpec",
    "OperatorValue",
    "eval_radial",
    "eval_radial_many",
    "eval_radial_jobs",
    "eval_pointwise",
    "scaling_identity_check",
]


# the near zone ends, and a plain callable's mapped tail starts, at these multiples of the evaluation scale (the
# evaluation radius, or the first kink radius when evaluating at the origin)
_NEAR_RADIUS, _TAIL_RADIUS = 1e-2, 8.0
_MAX_PANELS = 600  # panel budget of each zone of each radius


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature policy; panels never straddle a kink radius."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    kink_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf  # NaN fails too; a negative kink
                and all(map(math.isfinite, self.kink_radii))):  # radius is a kink point left of x on the line
            raise ConfigurationError("tolerances must be positive and finite, and kink radii finite")
        object.__setattr__(self, "kink_radii", tuple(sorted(float(k) for k in self.kink_radii)))


@dataclass(frozen=True)
class OperatorValue:
    """Operator value with an a posteriori error estimate.

    ``converged`` is False when the panel budget was exhausted before the
    tolerance was met; the value is then the best available estimate.
    """

    value: float
    error_estimate: float
    panels_used: int
    converged: bool = True


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e per element with the C library's pow: numpy's vector pow may differ in the last bit, and
    the per-radius powers keep the values of one-radius-at-a-time evaluation."""
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def _geometric_fill(ids: np.ndarray, a: np.ndarray, b: np.ndarray,
                    ratio: float = 4.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every panel [a, b] with b / a > ratio into k = ceil(log(b / a) / log(ratio)) panels.

    The cut points are those of ``np.geomspace(a, b, k + 1)``, built for all
    panels at once the way it builds them: point j is 10 ** (j * step + log10 a)
    with step = (log10 b - log10 a) / k.  Returns (ids, lo, hi) of the panels.
    """
    q = np.divide(b, a, out=np.zeros_like(b), where=a > 0.0)
    wide = q > ratio
    k = np.where(wide, np.ceil(np.log(np.where(wide, q, 1.0)) / math.log(ratio)), 1.0).astype(np.intp)
    log_a = np.log10(np.where(wide, a, 1.0))
    step = (np.log10(np.where(wide, b, 1.0)) - log_a) / k
    gap = np.repeat(np.arange(a.size), k)
    j = np.arange(gap.size) - np.repeat(np.cumsum(k) - k, k)
    lo = np.where(j == 0, a[gap], 10.0 ** (j * step[gap] + log_a[gap]))
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[np.cumsum(k) - 1] = b
    return ids[gap], lo, hi


# ---------------------------------------------------------------------------
# Engine: one integral over rho per zone, with the zones of all radii of all
# jobs as the ids of one adaptive pass
# ---------------------------------------------------------------------------

# starting cuts of the origin and tail zones at rho = (r/2) v and rho = T / v, for these v
_ENDPOINT_V = np.asarray([0.0, 2.0 ** -12, 2.0 ** -8, 2.0 ** -4, 2.0 ** -2, 1.0])
_MAX_SHRINK = 12  # how often the near zone's h may shrink by 4


def _zone_panels(lo: np.ndarray, hi: np.ndarray,
                 cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting panels (ids, lo, hi) of every zone [lo, hi], cut at the cuts inside it (NaN pads)."""
    inside = np.where((cuts > lo[:, None]) & (cuts < hi[:, None]), cuts, np.nan)
    edges = np.sort(np.concatenate([lo[:, None], hi[:, None], inside], axis=1), axis=1)  # NaN last
    fresh = ~np.isnan(edges)
    fresh[:, 1:] &= edges[:, 1:] != edges[:, :-1]
    rows, cols = np.nonzero(fresh)
    e = edges[rows, cols]
    gap = rows[1:] == rows[:-1]
    return _geometric_fill(rows[1:][gap], e[:-1][gap], e[1:][gap])


def _far_field(u: Callable, u_x: np.ndarray, s: float, top: np.ndarray) -> None:
    """Raise where a plain callable u grows like rho^(2s) or faster over top {1, 4, 16, 64}: one probe."""
    mags = np.abs(u_x[:, None] - u(top[:, None] * 4.0 ** np.arange(4)))
    rising = (mags[:, 3] > 1e3 * np.maximum(1.0, np.abs(u_x))) & (mags[:, 3] > mags[:, 2]) \
        & (mags[:, 2] > mags[:, 1])
    for i in np.flatnonzero(rising):
        slope = math.log(mags[i, 3] / mags[i, 2]) / math.log(4.0)
        if slope >= 2.0 * s - 0.05:
            raise DivergenceError(f"sampled far-field growth exponent {slope:.3f} reaches 2s={2*s:.3f}")


def _series_elements(u: RadialProfile, r: np.ndarray, u_x: np.ndarray, params: FracParams):
    """A profile's origin zone and tail as weights on antiderivatives of ``profiles._kernel_series`` at the ends
    of its pieces: in t = rho / r on (0, 1/2] and t = r / rho on (0, 1/2] (rho >= 2r) a zone is r^(-2s) times
    int (u(r) - u(rho)) t^(k-1) F(t^2) dt, k = n and 2s, c rho^e is c r^e t^(+-e) and c log rho is c (log r +- log t).
    Returns the zone ids (0, 3), rows, weights, k, t and log flags of the ends that add to a sum; the closed radii,
    whose [r/2, 2r] the multiplier gives (see the module docstring); and per radius its sum c M r^(e-2s) and bar."""
    edges, two_s, out = np.asarray((0.0, *u.breakpoints, math.inf))[:, None], 2.0 * params.s, []
    inner, outer = np.minimum(edges, 0.5 * r) / r, r / np.maximum(edges, 2.0 * r)  # t at each piece edge
    for zone, sign, k, ends in ((0, 1.0, params.n, zip(inner, inner[1:])), (3, -1.0, two_s, zip(outer[1:], outer))):
        out.append((zone, k, False, u_x, np.full(r.size, 0.5)))
        for terms, (lo, hi) in zip(u.pieces, ends):
            for c, e, is_log in terms:
                parts = [(k, False, -c * np.log(r)), (k, True, np.full(r.size, -sign * c))] if is_log \
                    else [(k + sign * e, False, -c * r ** e)]
                out += [(zone, kj, lg, np.where(lo < hi, x * w, 0.0), end)  # an empty interval adds nothing
                        for kj, lg, w in parts for x, end in ((1.0, hi), (-1.0, lo))]
    zone, k, is_log, w, t = zip(*out)
    r_2s = r ** -two_s
    w, t = np.concatenate(w) * np.tile(r_2s, len(out)), np.concatenate(t)
    at = (w != 0.0) & (t > 0.0)  # the antiderivative vanishes at t = 0
    closed, piece, mid = ~((edges > 0.5 * r) & (edges < 2.0 * r)).any(axis=0), u._piece_index(r), np.zeros((2, r.size))
    for i, terms in enumerate(u.pieces):
        mults = [(c, e, _multiplier(params, e, lg)) for c, e, lg in terms if e or lg]  # M(0) = 0 for a constant
        closed &= (piece != i) | all(mult for *_, mult in mults)
        rows = np.flatnonzero(closed & (piece == i))
        for c, e, (val, bar) in mults if rows.size else ():
            weight = c * r[rows] ** e * r_2s[rows]
            mid[:, rows] += weight * val, np.abs(weight) * bar
    return tuple(x[at] for x in (np.repeat(zone, r.size), np.tile(np.arange(r.size), len(out)), w,
                                 np.repeat(k, r.size), t, np.repeat(is_log, r.size))), closed, mid.T


def _radial_values(jobs: Sequence[tuple], params: FracParams) -> tuple[np.ndarray, ...]:
    """(-Delta)^s at every radius of every checked job (see ``eval_radial_jobs``) in R^n, in one pass.

    The radii of the jobs, m in all, follow each other in job order.  Each
    radius is four integral ids m apart, one per zone (origin, fold, outer,
    tail; see the module docstring), and a near zone.  A job's function sees
    its own rows only.  A profile's origin and tail ids get no panels: the
    kernel's series gives them, once per distinct (k, t, log flag) end.  A
    closed radius takes none at all; its fold id holds its sum c M r^(e-2s).
    Returns value, error, panel and converged arrays.
    """
    n, s, prefac = params.n, params.s, params.c_ns * params.sphere_measure
    fns, rs, u_xs, bs, hs, scales, tops, series, closed, mid, quads = zip(*jobs)
    sizes, width, two_s = [x.size for x in rs], max(x.size for x in bs), 2.0 * s
    r, u_x, h, scale, top, closed, mid = map(np.concatenate, (rs, u_xs, hs, scales, tops, closed, mid))
    b = np.concatenate([np.broadcast_to(np.append(x, [np.nan] * (width - x.size)), (k, width))
                        for x, k in zip(bs, sizes)])  # kink radii, NaN padded
    row_job, mapped = np.repeat(np.arange(len(jobs)), sizes), np.repeat([e is None for e in series], sizes)
    abs_tol, rel_tol = np.repeat([(q.abs_tol, q.rel_tol) for q in quads], sizes, axis=0).T
    m, a, gap, half_r, p = r.size, 1.0 + two_s, np.abs(r[:, None] - b), 0.5 * r, max(1.0, 1.0 / two_s)
    picked = [(e[0] * m + e[1] + at, *e[2:]) for e, at in zip(series, np.cumsum(sizes) - sizes) if e is not None]
    series_val, series_bar = np.zeros((2, 4, m))
    if picked:  # the profiles' origin and tail zones by the series, at each distinct (k, t, log flag) end once
        ids, w, *args = map(np.concatenate, zip(*picked))
        order, new = np.lexsort(args), np.ones(ids.size, bool)  # by sorting: np.unique imports numpy.ma, ~20 ms
        new[1:] = np.any([x[order[1:]] != x[order[:-1]] for x in args], axis=0)
        back, args = np.empty_like(order), [x[order[new]] for x in args]
        back[order] = np.cumsum(new) - 1  # then the series, in chunks that keep the temporaries like a panel chunk's
        val, bar = (np.concatenate(x)[back] for x in zip(*(_kernel_series(n, s, *(a[j:j + 512] for a in args))
                                                           for j in range(0, max(args[0].size, 1), 512))))
        series_val, series_bar = (np.bincount(ids, x, 4 * m).reshape(4, m) for x in (w * val, np.abs(w) * bar))
    series_val[1], series_bar[1] = mid.T  # a closed radius's [r/2, 2r] by the multiplier

    def f(rows: np.ndarray, rho: np.ndarray):
        """(u(r) - u(rho)) K(r, rho) / |S^(n-1)|, one row of rho per radius index, and its rounding bound."""
        ri, ui = r[rows, None], u_x[rows, None]
        if len(fns) == 1:
            u = fns[0](rho)
        else:
            u, job = np.empty_like(rho), row_job[rows]
            for j in np.flatnonzero(np.bincount(job)).tolist():  # np.unique would import numpy.ma, ~20 ms cold
                here = job == j
                u[here] = fns[j](rho[here])
        big, small = np.maximum(ri, rho), np.minimum(ri, rho)
        if n == 1:
            k = 0.5 * ((big - small) ** -a + (big + small) ** -a)
        elif n == 2:
            hyp, hyp_err = _hyp2f1_planar(s, (small / big) ** 2, (big - small) * (big + small) / (big * big))
            k = rho * big ** (-2.0 - two_s)
            k, k_err = k * hyp, k * hyp_err
        else:
            # (r + rho) - |r - rho| = 2 min(r, rho): the difference of powers without cancellation
            k = rho / (2.0 * a * np.where(ri > 0.0, ri, 1.0)) * (big + small) ** -a \
                * np.expm1(a * np.log1p(2.0 * small / (big - small)))
        at = r[rows] == 0.0
        if at.any():  # every kernel tends to rho^(-a) as r -> 0
            k[at] = rho[at] ** -a
        d, noise = ui - u, 4 * _EPS * (np.abs(ui) + np.abs(u)) * k
        if n == 2:
            noise += np.abs(d) * k_err
        return d * k, noise

    def integrand(ids: np.ndarray, x: np.ndarray):
        i, zone = ids % m, ids // m
        rho, jac = x + np.where(zone == 1, r[i], 0.0)[:, None], np.ones_like(x)
        for here, at, power in ((zone == 0, half_r, p), (zone == 3, top, -1.0 / two_s)):
            rho[here], jac[here] = _power_map(x[here], at[i[here], None], power)
        mirror = (zone == 1) & (r[i] > 0.0)  # the fold; at the origin it is one-sided
        vals, errs = f(np.concatenate([i, i[mirror]]), np.concatenate([rho, r[i[mirror], None] - x[mirror]]))
        k = x.shape[0]
        vals[:k][mirror] += vals[k:]
        errs[:k][mirror] += errs[k:]
        return vals[:k] * jac, errs[:k] * jac

    # The fold is c1 d^(1-2s) + c2 d^2 + c3 d^(3-2s) + O(d^4) in d = delta / h.  With e = 1 - 2s the
    # third function is d^2 expm1(e log d) / e (d^2 log d at e = 0), which keeps the fit through
    # d = 1, 1/2, 1/4 well conditioned next to 2s = 1.  w_int integrate the fit over (0, 1], w_fit
    # give it at d = 1/8, and the fit's bar is kappa h times its miss there.
    e = 1.0 - two_s
    basis = lambda d: [d ** e, d * d, d * d * (math.expm1(e * math.log(d)) / e if e else math.log(d))]
    fit = np.asarray([basis(d) for d in (1.0, 0.5, 0.25)]).T
    w_int = np.linalg.solve(fit, [1.0 / (1.0 + e), 1.0 / 3.0, -1.0 / (3.0 * (3.0 + e))])
    w_fit = np.linalg.solve(fit, basis(0.125))
    kappa = 4.0 * max(2.0, float(np.abs(w_int).sum()))

    def near(rows: np.ndarray, h: np.ndarray):
        """Value, fit bar and rounding bar of the near zones of the radii in rows, and the miss's rounding."""
        g, noise = integrand(rows + m, h[:, None] * np.asarray([1.0, 0.5, 0.25, 0.125]))
        return (h * (g[:, :3] * w_int).sum(1), kappa * h * np.abs(g[:, 3] - (g[:, :3] * w_fit).sum(1)),
                h * (noise[:, :3] * np.abs(w_int)).sum(1),
                kappa * h * (noise[:, 3] + (noise[:, :3] * np.abs(w_fit)).sum(1)))

    # starting panels of the radii not closed; the endpoint zones are graded at rho = (r/2) 2^-k and T 2^k, k = 2 ... 12
    rows, ids, first = np.flatnonzero(~closed), np.zeros(0, np.intp), np.zeros((3, 0))
    (lo, hi), (near_val, near_fit, near_noise, miss_noise) = first[:2], np.zeros((4, m))
    if rows.size:
        v_cut = np.divide(2.0 * b, r[:, None], out=np.full(gap.shape, np.nan), where=b < 0.5 * r[:, None])
        v_cut = np.hstack([v_cut, np.tile(_ENDPOINT_V[1:-1], (m, 1))])
        v_cut[mapped] = v_cut[mapped] if p == 1.0 else _pow(v_cut[mapped], 1.0 / p)  # x ** 1 is x
        w_edge, tails = np.concatenate([[0.0], _pow(_ENDPOINT_V[1:], two_s)]), np.flatnonzero(mapped)
        split = np.where(r > 0.0, 0.5 * r, scale)  # the fold ends here; the outer zone starts at 3r/2 (r > 0)
        zones = [_zone_panels(np.zeros(m), ((r > 0.0) & mapped) * 1.0, v_cut), _zone_panels(h, split, gap),
                 _zone_panels(np.where(r > 0.0, 3.0 * split, split), top, b),
                 (np.repeat(tails, w_edge.size - 1), np.tile(w_edge[:-1], tails.size), np.tile(w_edge[1:], tails.size))]
        ids, lo, hi = (np.concatenate(col) for col in zip(*zones))
        keep, ids = ~closed[ids], ids + np.repeat(m * np.arange(4), [z[0].size for z in zones])
        ids, lo, hi = ids[keep], lo[keep], hi[keep]  # a closed radius takes no panel
        first = _panel_values(integrand, ids, lo, hi)
        near_val[rows], near_fit[rows], near_noise[rows], miss_noise[rows] = near(rows, h[rows])
    size = np.abs(near_val) + np.abs(np.bincount(ids, first[0], 4 * m).reshape(4, m) + series_val).sum(axis=0)
    tol = np.fmax(abs_tol, rel_tol * size) / prefac

    # h shrinks while the fit misses its share above rounding; the fold takes [h/4, h] as a new panel
    shrink, new = (near_fit > tol / 8.0) & (near_fit > miss_noise), []
    while shrink.any() and len(new) < _MAX_SHRINK:
        rows = np.flatnonzero(shrink)
        new.append((rows + m, h[rows] / 4.0, h[rows]))
        h[rows] /= 4.0
        near_val[rows], near_fit[rows], near_noise[rows], miss_noise = near(rows, h[rows])
        shrink[rows] = (near_fit[rows] > tol[rows] / 8.0) & (near_fit[rows] > miss_noise)
    if new:
        add = [np.concatenate(col) for col in zip(*new)]
        first = tuple(np.concatenate(pair) for pair in zip(first, _panel_values(integrand, *add)))
        ids, lo, hi = (np.concatenate(pair) for pair in zip((ids, lo, hi), add))

    # shares of the tolerance: the near zone 1/8, the origin, fold and outer zones 1/4 each, the tail 1/8
    zone_tol = np.concatenate([tol / 4.0, tol / 4.0, tol / 4.0, tol / 8.0])
    val, err, panels, ok = (col.reshape(4, m) for col in
                            _adaptive_many(integrand, ids, lo, hi, zone_tol, _MAX_PANELS, 4 * m, first))
    val, err = val + series_val, err + series_bar
    total = prefac * (near_val + val[0] + val[1] + val[2] + val[3])
    err = prefac * (near_fit + near_noise + err[0] + err[1] + err[2] + err[3]
                    + 8.0 * _EPS * (np.abs(near_val) + np.abs(val).sum(axis=0)))  # the rounding of the sum
    converged = ok.all(0) & (err <= prefac * 4.0 * tol + np.fmax(abs_tol, rel_tol * np.abs(total)))
    return total, err, panels.sum(axis=0), converged


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def eval_radial_jobs(jobs: Sequence[tuple], params: FracParams) -> list[tuple[np.ndarray, ...]]:
    """(-Delta)^s of several radial functions, each at its own radii under its own QuadSpec, in one pass.

    ``jobs`` holds (function, radii, quad) triples, radii a 1-d sequence.
    Returns per job its value, error-estimate, panel-count and converged
    arrays; each radius gets, bit for bit, what ``eval_radial`` gives at it
    alone.  A job with no radii calls nothing.  The jobs are checked in
    order: the first failing one (a negative or non-finite radius, one next
    to a kink, a diverging far field) raises what it raises alone; then a
    value or error estimate that is not finite raises NumericalError.  Plain
    callables must grow slower than |x|^(2s); they are called on 1-d arrays
    of radii and return one value per radius (a scalar broadcasts), so
    scalar-only functions such as ``math.exp`` need ``np.vectorize``.
    """
    checked, sizes, n = [], [], params.n
    for u, radii, quad in jobs:
        r = np.asarray(radii, dtype=float)
        if r.ndim != 1 or not np.all((r >= 0.0) & (r < np.inf)):
            raise DomainError("radii must be a 1-d sequence of finite nonnegative numbers")
        sizes.append(r.size)
        if r.size == 0:
            continue
        sampled = not isinstance(u, RadialProfile)
        if not sampled and u.max_growth_exponent() >= 2.0 * params.s - 0.05:
            raise DivergenceError("profile grows at least like |x|^(2s); the defining integral diverges")
        if not sampled and np.any(r == 0.0):
            raise EvaluationPointError("profiles are evaluated at positive radii")
        if not sampled and min((e for _, e, _ in u.pieces[0]), default=0.0) <= -n:  # a log's exponent is 0
            raise DivergenceError("profile is not integrable at the origin")
        u_vec, breaks = as_radial_callable(u), [k for k in quad.kink_radii if k > 0.0] if sampled else u.breakpoints
        b, u_x = np.asarray(breaks, dtype=float), u_vec(r)
        fn = lambda rho, g=u_vec: g(rho.ravel()).reshape(rho.shape)  # the engine passes 2-d arrays
        nearest = np.abs(r[:, None] - b).min(axis=1, initial=np.inf)
        scale = np.where(r > 0.0, r, max(min(breaks, default=1.0), 1.0))  # at the origin: the first kink radius
        if np.any(nearest < 0.5 * _NEAR_RADIUS * scale):
            raise EvaluationPointError(f"evaluation point within {_NEAR_RADIUS:g}*scale of a kink radius")
        top = np.maximum(_TAIL_RADIUS * scale, 2.0 * b.max(initial=-np.inf)) if sampled else 2.0 * r
        if sampled:
            _far_field(fn, u_x, params.s, top)
        series = (None, np.zeros(r.size, bool), np.zeros((r.size, 2))) if sampled else \
            _series_elements(u, r, u_x, params)  # a profile's series ends, closed radii and (M sum, bar) per radius
        # the job: fn, r, u(r), kink radii, h, scale, the outer zone's end (T; 2r for a profile), those three, quad
        checked.append((fn, r, u_x, b, np.minimum(_NEAR_RADIUS * scale, 0.45 * nearest), scale, top, *series, quad))
    cols = _radial_values(checked, params) if checked else [np.zeros(0, dtype=t) for t in (float, float, int, bool)]
    bad = ~(np.isfinite(cols[0]) & np.isfinite(cols[1]))
    if bad.any():  # e.g. growth just below |x|^(2s) that the far-field probe lets through
        r = np.concatenate([job[1] for job in checked])[bad][0]
        raise NumericalError(f"value or error estimate at radius {r:g} is not finite")
    return [tuple(col[end - k:end] for col in cols) for k, end in zip(sizes, np.cumsum(sizes).tolist())]


def eval_radial_many(profile: RadialProfile | Callable, radii, params: FracParams,
                     quad: QuadSpec = QuadSpec()) -> list[OperatorValue]:
    """(-Delta)^s of one radial function at many radii: the one-job call of ``eval_radial_jobs``.

    Returns one OperatorValue per radius, in order; a radius that fails a
    check raises for the whole batch.
    """
    return [OperatorValue(*row) for row in zip(*(col.tolist() for col in
                                                 eval_radial_jobs([(profile, radii, quad)], params)[0]))]


def eval_radial(profile: RadialProfile | Callable, r: float, params: FracParams,
                quad: QuadSpec = QuadSpec()) -> OperatorValue:
    """(-Delta)^s of a radial function at any point of radius r: the one-radius call of ``eval_radial_many``."""
    return eval_radial_many(profile, [r], params, quad)[0]


def eval_pointwise(u: Callable, x, params: FracParams, quad: QuadSpec = QuadSpec()) -> OperatorValue:
    """(-Delta)^s u(x) for a function on R^n.

    x has n coordinates; a scalar x is the point x e_1.  For n = 1 the
    function may be arbitrary (admissible) and is called on 1-d arrays of
    points.  For n >= 2 the evaluation treats u as radially symmetric,
    sampling it along the ray through x (non-radial functions in several
    dimensions are out of scope): u is called on (n, k) arrays, one column
    per point, and returns k values.  A scalar result broadcasts;
    scalar-only functions need ``np.vectorize``.
    """
    point = np.asarray(x, dtype=float)
    if point.ndim == 0:
        point = np.pad(point[None], (0, params.n - 1))
    if point.size != params.n or not np.all(np.isfinite(point)):
        raise DomainError(f"x must have {params.n} finite coordinates, not {point.ravel().tolist()}")
    point = point.ravel()
    radius = float(np.linalg.norm(point))
    if isinstance(u, RadialProfile):
        return eval_radial(u, radius, params, quad)
    if params.n == 1:
        # the even part v(t) = (u(x + t) + u(x - t)) / 2 is radial in t and has the operator value at t = 0;
        # at t = 0 the origin zone is empty, and a point on a kink radius is not rejected
        x0, u_vec, k = float(point[0]), as_radial_callable(u), np.asarray(quad.kink_radii)
        kinks = np.abs(np.concatenate([x0 - k, x0 + k]))

        def even(t):
            both = u_vec(np.concatenate([x0 + t, x0 - t]))
            return 0.5 * (both[:t.size] + both[t.size:])

        return eval_radial(even, 0.0, params, replace(quad, kink_radii=tuple(kinks[kinks > 0.0])))
    direction = point / radius if radius > 0 else np.eye(params.n)[0]
    return eval_radial(lambda rho: u((rho[:, None] * direction[None, :]).T), radius, params, quad)


def scaling_identity_check(u: Callable | RadialProfile, lam: float, x, params: FracParams,
                           quad: QuadSpec = QuadSpec()) -> float:
    """Relative deviation between (-Delta)^s[u(lam .)](x) and lam^(2s) ((-Delta)^s u)(lam x)."""
    if lam <= 0.0:
        raise DomainError("scaling factor must be positive")
    if isinstance(u, RadialProfile):
        u_scaled: Callable | RadialProfile = u.dilate(lam)
    else:
        u_scaled = (lambda y: u(lam * np.asarray(y)))
    lhs = eval_pointwise(u_scaled, x, params,
                         replace(quad, kink_radii=tuple(k / lam for k in quad.kink_radii))).value
    rhs_point = lam * np.asarray(x, dtype=float)
    rhs = lam ** (2.0 * params.s) * eval_pointwise(u, rhs_point, params, quad).value
    return abs(lhs - rhs) / max(1.0, abs(rhs))
