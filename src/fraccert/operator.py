"""Pointwise evaluation of (-Delta)^s by adaptive principal-value quadrature.

In n = 1 and n = 3 the principal value is removed through spherical means
M_u(x, t), the mean of u over the sphere of radius t around x:

    (-Delta)^s u(x) = c_ns * |S^(n-1)| * int_0^inf t^(-1-2s) (u(x) - M_u(x,t)) dt.

Near zone (0, h]: closed-form integral of the Pizzetti expansion
M = u + t^2 Lap(u)/(2n) + t^4 Lap^2(u)/(8n(n+2)), with the Laplacians exact
for piecewise power/log profiles and by Richardson extrapolation otherwise.
Middle zone [h, T]: adaptive Gauss-Legendre panels cut at every t where the
means lose smoothness, and graded toward the origin crossing t = r, at
r(1 +- 4^-k), k = 1..12, where the means are singular there.  Tail [T, inf):
t = T/v on (0, 1], exact for profiles that vanish beyond their last
breakpoint.  The means are exact: two-point averages in n = 1; in n = 3
profiles integrate rho*u in closed form, and a plain callable goes through the
line operator (-Delta)^s u(r) = (1/r) (-Delta)^s_R [x u(|x|)](r).

In n = 2 a radial u takes one integral over rho (Ferrari & Verbitsky 2012),

    (-Delta)^s u(r) = c_2s * int_0^inf (u(r) - u(rho)) K(r, rho) d rho,
    K(r, rho) = 2 pi rho M^(-2-2s) 2F1(1+s, 1+s; 1; q^2),  M = max(r, rho), q = min(r, rho) / M,

so K = 2 pi rho^(-1-2s) at r = 0.  Near rho = r the fold g(delta) =
f(r + delta) + f(r - delta) of f = (u(r) - u(rho)) K is fitted by
delta^(1-2s), delta^2 and delta^(3-2s) and integrated exactly on (0, h]; h
shrinks by 4 while the fit misses its share of the tolerance.  Adaptive zones:
the fold on [h, r/2]; rho in (0, r/2] through rho = (r/2) v^p, with
p = max(1, 1/(2 + b)) for the lowest power b of the first piece (b = 2s - 2,
the fundamental solution's, for callables); rho in [3r/2, T]; and the tail
through w = (T/rho)^(2s).  Every kink radius is a panel edge.

Evaluation is batched over radii: ``eval_radial_many`` evaluates one function
at many radii, and ``eval_radial`` is its one-radius call.  Every integral of
every radius is an id of an ``_adaptive_many`` pass (``fraccert.quadrature``)
with its own tolerance and panel budget: the middle zones of all radii in one
pass and their tails in another, or in n = 2 all four zones in one.  Split
decisions and panel sums are per id, so a radius gets the same value, bit for
bit, in whatever batch it is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, EvaluationPointError
from .params import FracParams
from .profiles import _EPS, RadialProfile, _hyp2f1_aa, as_radial_callable
from .quadrature import _adaptive_many, _panel_values, _power_map

__all__ = [
    "QuadSpec",
    "OperatorValue",
    "eval_radial",
    "eval_radial_many",
    "eval_pointwise",
    "scaling_identity_check",
]


# the near zone ends, and the sampled middle zone reaches, at these multiples of the evaluation
# scale (the evaluation radius, or the first kink radius when evaluating at the origin)
_NEAR_RADIUS, _TAIL_RADIUS = 1e-2, 8.0
_MAX_PANELS = 600  # middle-zone panel budget per radius (the mapped tail gets a third), and per n = 2 zone


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature policy; panels never straddle a kink radius."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    kink_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if min(self.rel_tol, self.abs_tol) <= 0.0:
            raise ConfigurationError("tolerances must be positive")
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
    """x ** e per element with the C library's pow: numpy's vector pow may differ in the last
    bit, and the per-radius powers keep the values of one-radius-at-a-time evaluation."""
    return np.array([v ** e for v in x.tolist()])


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
# Spherical means: mean(ids, t) around the radius (or point) of each id, with
# one row of t per id; u_vec takes points in any shape (see _on_points)
# ---------------------------------------------------------------------------


def _on_points(u_vec: Callable) -> Callable:
    """u at an array of points of any shape: callables are called on 1-d arrays."""
    return lambda rho: u_vec(rho.ravel()).reshape(rho.shape)


def _mean_n1(u_vec: Callable, x: np.ndarray, radial: bool) -> Callable:
    """Two-point means: u at x - t and x + t, folded onto radii when u is radial."""
    def mean(ids: np.ndarray, t: np.ndarray):
        xi = x[ids][:, None]
        vals = 0.5 * (u_vec(np.abs(xi - t) if radial else xi - t) + u_vec(xi + t))
        return vals, np.zeros_like(vals)
    return mean


def _mean_radial_n3_profile(profile: RadialProfile, r: np.ndarray) -> Callable:
    def mean(ids: np.ndarray, t: np.ndarray):
        ri = r[ids][:, None]
        inner = profile.rho_integral_between(np.abs(ri - t).ravel(), (ri + t).ravel()).reshape(t.shape)
        vals = inner / (2.0 * ri * t)
        return vals, np.zeros_like(vals)
    return mean


def _mean_radial_n3_odd(u_vec: Callable, r: np.ndarray) -> Callable:
    """Two-point means of the odd extension v(x) = x u(|x|) around r > 0, over r: in u's units."""
    def mean(ids: np.ndarray, t: np.ndarray):
        ri = r[ids][:, None]
        vals = ((ri + t) * u_vec(ri + t) + (ri - t) * u_vec(np.abs(ri - t))) / (2.0 * ri)
        return vals, np.zeros_like(vals)
    return mean


def _with_origin(mean_fn: Callable, u_vec: Callable, r: np.ndarray) -> Callable:
    """``mean_fn`` with the ids at the origin split off: a sphere around the origin has mean u(t)."""
    at_origin = r == 0.0
    if not at_origin.any():
        return mean_fn
    def mean(ids: np.ndarray, t: np.ndarray):
        here = at_origin[ids]
        vals, errs = np.empty_like(t), np.zeros_like(t)
        if here.any():
            vals[here] = u_vec(t[here])
        if not here.all():
            vals[~here], errs[~here] = mean_fn(ids[~here], t[~here])
        return vals, errs
    return mean


# ---------------------------------------------------------------------------
# Engine: arrays run over the radii of a batch, one integral id per radius
# ---------------------------------------------------------------------------

_TAIL_V = np.asarray([0.0] + [2.0 ** (-k) for k in range(12, -1, -1)])  # mapped-tail edges in v = T/t
_GRADE = np.asarray([1.0 + sign * 4.0 ** (-k) for sign in (-1.0, 1.0) for k in range(1, 13)])  # cuts in t / r


def _near_zone(u_x: np.ndarray, mean: Callable, s: float, h: np.ndarray,
               model: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """Integral over (0, h] of t^(-1-2s) (u_x - M(t)) with error estimate."""
    ids = np.arange(h.size)
    q2, q4 = _pow(h / 4.0, 2), _pow(h / 4.0, 4)
    if model is not None:
        a2, a4 = model
        sample = mean(ids, h[:, None] / 4.0)[0][:, 0]
        resid = (u_x - sample) - (a2 * q2 + a4 * q4)
    else:
        samples, _ = mean(ids, np.stack([h, h / 2.0, h / 4.0], axis=1))
        d_h, d_h2, d_h4 = (u_x[:, None] - samples).T
        a2 = (16.0 * d_h2 - d_h) / (3.0 * h * h)
        a4 = 4.0 * (d_h - 4.0 * d_h2) / (3.0 * _pow(h, 4))
        resid = d_h4 - (a2 * q2 + a4 * q4)
    value = a2 * _pow(h, 2.0 - 2.0 * s) / (2.0 - 2.0 * s) + a4 * _pow(h, 4.0 - 2.0 * s) / (4.0 - 2.0 * s)
    h_2s = _pow(h, -2.0 * s)
    err = np.abs(resid) * 4.0 ** 6 * h_2s / (6.0 - 2.0 * s)
    noise = 4.0 * np.finfo(float).eps * (np.abs(u_x) + 1.0)
    return value, err + noise * h_2s / max(1.0, 2.0 * s)


def _kinks(r: np.ndarray, breaks: Sequence[float]) -> np.ndarray:
    """Per radius, the t where its spheres cross the origin or a break radius (NaN: none);
    a zero stays in, as it marks a point sitting on a kink."""
    b = np.asarray(breaks, dtype=float)
    return np.concatenate([np.where(r > 0.0, r, np.nan)[:, None], np.abs(r[:, None] - b), r[:, None] + b],
                          axis=1)


def _middle_panels(h: np.ndarray, t_top: np.ndarray,
                   kinks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting panels (ids, lo, hi) of every middle zone [h, t_top], cut at the kinks inside it."""
    inside = np.where((kinks > h[:, None]) & (kinks < t_top[:, None]), kinks, np.nan)
    edges = np.sort(np.concatenate([h[:, None], t_top[:, None], inside], axis=1), axis=1)  # NaN last
    fresh = ~np.isnan(edges)
    fresh[:, 1:] &= edges[:, 1:] != edges[:, :-1]
    rows, cols = np.nonzero(fresh)
    e = edges[rows, cols]
    gap = rows[1:] == rows[:-1]
    return _geometric_fill(rows[1:][gap], e[:-1][gap], e[1:][gap])


def _tail_is_oscillatory(mean: Callable, u_x: np.ndarray, t_top: np.ndarray) -> np.ndarray:
    """Detect non-settling (oscillatory) far fields; monotone tails give False."""
    m_vals = mean(np.arange(t_top.size), t_top[:, None] * 2.0 ** np.arange(0, 9))[0]
    swing = np.abs(np.diff(m_vals, axis=1)).sum(axis=1)
    trend = np.abs(m_vals[:, -1] - m_vals[:, 0])
    amp = np.abs(m_vals).max(axis=1)
    ref = np.maximum(np.maximum(np.abs(u_x), amp), 1e-300)
    return (swing > 4.0 * trend + 1e-9 * ref) & (amp > 1e-9 * ref)


def _check_sampled_growth(mean: Callable, u_x: np.ndarray, s: float, t_top: np.ndarray) -> None:
    """Raise DivergenceError when the sampled means beyond t_top grow like t^(2s) or faster."""
    probes = t_top[:, None] * np.asarray([1.0, 4.0, 16.0, 64.0])
    mags = np.abs(u_x[:, None] - mean(np.arange(t_top.size), probes)[0])
    rising = (mags[:, 3] > 1e3 * np.maximum(1.0, np.abs(u_x))) & (mags[:, 3] > mags[:, 2]) \
        & (mags[:, 2] > mags[:, 1])
    for i in np.flatnonzero(rising):
        slope = math.log(mags[i, 3] / mags[i, 2]) / math.log(4.0)
        if slope >= 2.0 * s - 0.05:
            raise DivergenceError(
                f"sampled far-field growth exponent {slope:.3f} reaches 2s={2*s:.3f}"
            )


def _pv_values(u_x: np.ndarray, mean: Callable, s: float, kinks: np.ndarray, scale: np.ndarray,
               quad: QuadSpec, prefac: float | np.ndarray,
               near_model: tuple[np.ndarray, np.ndarray] | None = None, zero_from: np.ndarray | None = None,
               mid_cuts: np.ndarray | None = None) -> list[OperatorValue]:
    """(-Delta)^s u at every point of a batch, from u there and the spherical means around it.

    ``kinks`` holds per point the t where the means lose smoothness (NaN
    pads).  ``near_model is None`` marks a sampled callable, whose far field
    is probed for growth and oscillation; ``zero_from`` marks a profile whose
    means vanish beyond those radii; ``mid_cuts`` (one row per point) are
    extra starting cuts of the middle zones.
    """
    two_s = 2.0 * s
    m = u_x.size
    first_kink = np.fmin.reduce(kinks, axis=1, initial=np.inf)
    if np.any(first_kink < 0.5 * _NEAR_RADIUS * scale):
        raise EvaluationPointError(f"evaluation point within {_NEAR_RADIUS:g}*scale of a kink radius")
    h = np.minimum(_NEAR_RADIUS * scale, 0.45 * first_kink)
    t_top = np.maximum(_TAIL_RADIUS * scale, 2.0 * np.fmax.reduce(kinks, axis=1, initial=-np.inf))
    if zero_from is not None:
        t_top = np.maximum(t_top, zero_from)
    if near_model is None:
        _check_sampled_growth(mean, u_x, s, t_top)
        # push the sampled zone out so the mapped tail sees a decayed amplitude
        t_top = np.where(_tail_is_oscillatory(mean, u_x, t_top), t_top * 64.0, t_top)

    near_val, near_err = _near_zone(u_x, mean, s, h, near_model)

    def integrand(i: np.ndarray, t: np.ndarray):
        m_vals, m_errs = mean(i, t)
        w = t ** (-1.0 - two_s)
        return w * (u_x[i, None] - m_vals), w * m_errs

    mid_ids, lo, hi = _middle_panels(h, t_top, kinks if mid_cuts is None else np.hstack([kinks, mid_cuts]))
    # the starting panels give the scale; the refinement against the mixed tolerance reuses them
    mid_first = _panel_values(integrand, mid_ids, lo, hi)
    mid_val = np.bincount(mid_ids, mid_first[0], m)
    top_m2s = _pow(t_top, -two_s)

    if zero_from is not None:
        # the mean vanishes beyond t_top: only the exact constant part remains
        tail_val, tail_err, tail_panels = u_x * top_m2s / two_s, 0.0, 0
    else:
        def tail_integrand(i: np.ndarray, v: np.ndarray):
            m_vals, m_errs = mean(i, t_top[i, None] / v)
            w = v ** (two_s - 1.0)
            return w * (u_x[i, None] - m_vals), w * m_errs

        v_ids = np.repeat(np.arange(m), _TAIL_V.size - 1)
        v_lo, v_hi = np.tile(_TAIL_V[:-1], m), np.tile(_TAIL_V[1:], m)
        tail_first = _panel_values(tail_integrand, v_ids, v_lo, v_hi)
        rough = np.bincount(v_ids, tail_first[0], m)
        component_scale = np.abs(near_val) + np.abs(mid_val) + top_m2s * np.abs(rough)
        tol_run = np.fmax(quad.abs_tol, quad.rel_tol * component_scale) / prefac
        tail_int, tail_ierr, tail_panels, _ = _adaptive_many(
            tail_integrand, v_ids, v_lo, v_hi, 0.25 * tol_run * _pow(t_top, two_s),
            _MAX_PANELS // 3, m, tail_first)
        tail_val, tail_err = top_m2s * tail_int, top_m2s * tail_ierr

    component_scale = np.abs(near_val) + np.abs(mid_val) + np.abs(tail_val)
    tol_run = np.fmax(quad.abs_tol, quad.rel_tol * component_scale) / prefac
    mid_val, mid_err, mid_panels, mid_ok = _adaptive_many(
        integrand, mid_ids, lo, hi, 0.5 * tol_run, _MAX_PANELS, m, mid_first)

    total = prefac * (near_val + mid_val + tail_val)
    err = prefac * (near_err + mid_err + tail_err)
    converged = mid_ok & (err <= prefac * 4.0 * tol_run + np.fmax(quad.abs_tol, quad.rel_tol * np.abs(total)))
    return [OperatorValue(*row) for row in zip(total.tolist(), err.tolist(),
                                               (mid_panels + tail_panels).tolist(), converged.tolist())]


# ---------------------------------------------------------------------------
# n = 2: one integral over rho against the circle kernel
# ---------------------------------------------------------------------------

_MAX_SHRINK = 12  # how often the near zone's h may shrink by 4


def _planar_values(u_vec: Callable, u_x: np.ndarray, r: np.ndarray, s: float, breaks: Sequence[float],
                   p: float, quad: QuadSpec, prefac: float, sampled: bool) -> list[OperatorValue]:
    """(-Delta)^s u at every radius of a batch in the plane, by the integral over rho.

    Each radius is four integral ids m apart, one per zone (origin, fold,
    outer, tail; see the module docstring), and a near zone.  ``p`` is the
    power of the origin map; ``sampled`` marks a plain callable, whose far
    field is probed for growth and oscillation.
    """
    m, two_s, b = r.size, 2.0 * s, np.asarray(breaks, dtype=float)
    gap = np.abs(r[:, None] - b)
    nearest = gap.min(axis=1, initial=np.inf)
    scale = np.where(r > 0.0, r, max(min(breaks, default=1.0), 1.0))  # at the origin: the first kink radius
    if np.any(nearest < 0.5 * _NEAR_RADIUS * scale):
        raise EvaluationPointError(f"evaluation point within {_NEAR_RADIUS:g}*scale of a kink radius")
    h = np.minimum(_NEAR_RADIUS * scale, 0.45 * nearest)
    top = np.maximum(_TAIL_RADIUS * scale, 2.0 * b.max(initial=-np.inf))
    if sampled:
        probe = lambda ids, t: (u_vec(t), None)
        _check_sampled_growth(probe, u_x, s, top)
        top = np.where(_tail_is_oscillatory(probe, u_x, top), top * 64.0, top)

    def f(rows: np.ndarray, rho: np.ndarray):
        """(u(r) - u(rho)) K(r, rho) / (2 pi), one row of rho per radius index, and its rounding bound."""
        ri, ui, u = r[rows, None], u_x[rows, None], u_vec(rho)
        big, small = np.maximum(ri, rho), np.minimum(ri, rho)
        hyp, hyp_err = _hyp2f1_aa(1.0 + s, (small / big) ** 2, (big - small) * (big + small) / (big * big))
        k = rho * big ** (-2.0 - two_s)
        return (ui - u) * k * hyp, k * (np.abs(ui - u) * hyp_err + 4 * _EPS * (np.abs(ui) + np.abs(u)) * hyp)

    def integrand(ids: np.ndarray, x: np.ndarray):
        i, zone = ids % m, ids // m
        rho, jac = x + np.where(zone == 1, r[i], 0.0)[:, None], np.ones_like(x)
        for z, at, power in ((0, 0.5 * r, p), (3, top, -1.0 / two_s)):
            here = zone == z
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

    # starting panels; the endpoint zones are graded at rho = (r/2) 2^-k and T 2^k, k = 1..12
    v_cut = np.divide(2.0 * b, r[:, None], out=np.full(gap.shape, np.nan), where=b < 0.5 * r[:, None])
    v_cut = np.hstack([v_cut, np.tile(_TAIL_V[1:-1], (m, 1))])
    v_cut = _pow(v_cut.ravel(), 1.0 / p).reshape(v_cut.shape)
    w_edge = np.concatenate([[0.0], _pow(_TAIL_V[1:], two_s)])
    split = np.where(r > 0.0, 0.5 * r, scale)  # the fold ends here; the outer zone starts at 3r/2 (r > 0)
    zones = [_middle_panels(np.zeros(m), (r > 0.0) * 1.0, v_cut), _middle_panels(h, split, gap),
             _middle_panels(np.where(r > 0.0, 3.0 * split, split), top, np.broadcast_to(b, gap.shape)),
             (np.repeat(np.arange(m), w_edge.size - 1), np.tile(w_edge[:-1], m), np.tile(w_edge[1:], m))]
    ids, lo, hi = (np.concatenate(col) for col in zip(*zones))
    ids += np.repeat(m * np.arange(4), [z[0].size for z in zones])
    first = _panel_values(integrand, ids, lo, hi)
    near_val, near_fit, near_noise, miss_noise = near(np.arange(m), h)
    size = np.abs(near_val) + np.abs(np.bincount(ids, first[0], 4 * m).reshape(4, m)).sum(axis=0)
    tol = np.fmax(quad.abs_tol, quad.rel_tol * size) / prefac

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
    val, err, panels, ok = (a.reshape(4, m) for a in
                            _adaptive_many(integrand, ids, lo, hi, zone_tol, _MAX_PANELS, 4 * m, first))
    total = prefac * (near_val + val[0] + val[1] + val[2] + val[3])
    err = prefac * (near_fit + near_noise + err[0] + err[1] + err[2] + err[3])
    converged = ok.all(0) & (err <= prefac * 4.0 * tol + np.fmax(quad.abs_tol, quad.rel_tol * np.abs(total)))
    return [OperatorValue(*row) for row in zip(total.tolist(), err.tolist(),
                                               panels.sum(axis=0).tolist(), converged.tolist())]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _profile_growth_check(profile: RadialProfile, s: float) -> None:
    if profile.max_growth_exponent() >= 2.0 * s - 0.05:
        raise DivergenceError(
            "profile grows at least like |x|^(2s); the defining integral diverges"
        )


def eval_radial_many(profile: RadialProfile | Callable, radii, params: FracParams,
                     quad: QuadSpec = QuadSpec()) -> list[OperatorValue]:
    """(-Delta)^s of one radial function at many radii, in one batched pass.

    Returns one OperatorValue per radius of the 1-d sequence ``radii``, in
    its order; each is bit for bit what ``eval_radial`` gives at that radius
    alone.  An empty ``radii`` returns an empty list and calls nothing.  A
    radius that fails a check (negative, on or next to a kink, or with a
    diverging far field) raises for the whole batch.

    In n = 1 and 3 piecewise power/log profiles use exact spherical means,
    exact near-zone Laplacians and closed-form tails, and plain radial
    callables exact two-point means with Richardson near-zone extrapolation;
    in n = 2 both take the integral over rho.  Plain callables require growth
    slower than |x|^(2s).  A plain callable is called on 1-d arrays of radii
    and returns one value per radius (or a scalar, which broadcasts);
    scalar-only functions such as ``math.exp`` need ``np.vectorize``.
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1:
        raise DomainError("radii must be a 1-d sequence")
    if r.size == 0:
        return []
    if np.any(r < 0.0):
        raise DomainError("radius must be nonnegative")
    n = params.n
    prefac = params.c_ns * params.sphere_measure

    if isinstance(profile, RadialProfile):
        _profile_growth_check(profile, params.s)
        if np.any(r == 0.0):
            raise EvaluationPointError("profiles are evaluated at positive radii")
        u_vec, breaks, first = profile, profile.breakpoints, profile.pieces[0]
    else:
        u_vec, breaks, first = as_radial_callable(profile), [k for k in quad.kink_radii if k > 0.0], None
    u_x, points = u_vec(r), _on_points(u_vec)
    if n == 2:
        # the origin map makes rho^(1 + lowest) smooth (a log's exponent is 0); a callable's is the
        # fundamental solution's
        lowest = 2.0 * params.s - 2.0 if first is None else min((e for _, e, _ in first), default=0.0)
        if lowest <= -2.0:
            raise DivergenceError("profile is not integrable at the origin")
        return _planar_values(points, u_x, r, params.s, breaks, max(1.0, 1.0 / (2.0 + lowest)), quad, prefac,
                              first is None)
    if first is not None:
        # not smooth at the origin: the means are singular at t = r, so grade the middle zone toward it
        graded = any(is_log or expo < 0 or expo % 2 != 0 for _, expo, is_log in first)
        mid_cuts = r[:, None] * _GRADE if graded else None
        zero_from = r + max(breaks, default=0.0) if profile.pieces[-1] == () else None
        lap = profile.laplacian(n)
        model = (-lap(r) / (2.0 * n), -lap.laplacian(n)(r) / (8.0 * n * (n + 2.0)))
        scale = np.maximum(r, 1e-12)
    else:
        zero_from, model, mid_cuts = None, None, None
        first_kink = min(breaks, default=1.0)
        # the sphere around the origin has the first kink radius as its scale
        scale = np.where(r == 0.0, max(first_kink, 1.0), np.maximum(np.maximum(r, first_kink), 1e-12))
    if n == 1:
        mean = _mean_n1(points, r, radial=True)
    elif model is not None:
        mean = _mean_radial_n3_profile(profile, r)
    else:
        # (-Delta)^s u(r) = (1/r) (-Delta)^s_R [x u(|x|)](r) at r > 0, with the line's constant
        # c_1s * 2 = c_3s * 4 pi / (1 + 2s); the means are not smooth at t = r: grade toward it
        mean, mid_cuts = _mean_radial_n3_odd(points, r), r[:, None] * _GRADE
        prefac = np.where(r > 0.0, prefac / (1.0 + 2.0 * params.s), prefac)
    if model is None:
        mean = _with_origin(mean, points, r)
    return _pv_values(u_x, mean, params.s, _kinks(r, breaks), scale, quad, prefac, model, zero_from,
                      mid_cuts)


def eval_radial(profile: RadialProfile | Callable, r: float, params: FracParams,
                quad: QuadSpec = QuadSpec()) -> OperatorValue:
    """(-Delta)^s of a radial function at any point of radius r.

    The one-radius call of ``eval_radial_many``, which describes the
    profiles and callables it takes.
    """
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
    if point.size != params.n:
        raise DomainError(f"x has {point.size} coordinates in dimension {params.n}")
    point = point.ravel()
    radius = float(np.linalg.norm(point))
    if isinstance(u, RadialProfile):
        return eval_radial(u, radius, params, quad)
    if params.n == 1:
        x0 = point[:1]
        k = np.asarray(quad.kink_radii, dtype=float)
        kinks = np.concatenate([np.abs(x0 - k), np.abs(x0 + k)])[None, :]
        kinks[kinks == 0.0] = np.nan  # on the line, a point on a kink radius is not rejected
        u_vec = as_radial_callable(u)
        return _pv_values(u_vec(x0), _mean_n1(_on_points(u_vec), x0, radial=False), params.s, kinks,
                          np.maximum(np.abs(x0), 1.0), quad, params.c_ns * params.sphere_measure)[0]
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
