"""Pointwise evaluation of (-Delta)^s by adaptive principal-value quadrature.

The principal value is removed analytically: writing the operator through
spherical means,

    (-Delta)^s u(x) = c_ns * |S^(n-1)| * int_0^inf t^(-1-2s) (u(x) - M_u(x,t)) dt,

where M_u(x,t) is the mean of u over the sphere of radius t around x, the
integrand is absolutely integrable for functions that are C^2 near x.  The
three zones are handled separately:

* near zone (0, h]: closed-form integration of the Pizzetti expansion
  M = u + t^2 Lap(u)/(2n) + t^4 Lap^2(u)/(8n(n+2)) + ..., with the Laplacians
  taken in closed form for piecewise power/log profiles and by Richardson
  extrapolation of sampled means otherwise;
* middle zone [h, T]: adaptive Gauss-Legendre panels, with every radius where
  the profile loses smoothness pinned as a panel boundary;
* tail [T, inf): exact for the constant part, and the mean part mapped to
  (0, 1] by t = T/v and integrated adaptively; profiles that vanish beyond
  their last breakpoint get an exact tail.

Spherical means are exact for n = 1 (two-point average) and for piecewise
profiles in n = 3 (antiderivative of rho*u); n = 2 uses panelled polar-angle
quadrature split at every circle/breakpoint crossing.  The n = 2 mean is
batched: every circle radius t the outer rule asks for in one call becomes
an integral id in a single flat panel list, and ``_adaptive_many`` refines
all of them at once, each against its own tolerance and panel budget.  The
same engine, with one id, runs the middle and tail zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, EvaluationPointError
from .params import FracParams
from .profiles import RadialProfile

__all__ = [
    "QuadSpec",
    "OperatorValue",
    "eval_radial",
    "eval_pointwise",
    "scaling_identity_check",
]


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature policy.

    near_radius and tail_radius are multiples of the evaluation scale (the
    evaluation radius, or the first kink radius when evaluating at the
    origin); panels never straddle a kink radius.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 600
    near_radius: float = 1e-2
    tail_radius: float = 8.0
    kink_radii: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if min(self.rel_tol, self.abs_tol) <= 0.0:
            raise ConfigurationError("tolerances must be positive")
        if not self.near_radius < self.tail_radius:
            raise ConfigurationError("near_radius must be smaller than tail_radius")
        if self.max_subdivisions < 8:
            raise ConfigurationError("max_subdivisions must be at least 8")
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


# ---------------------------------------------------------------------------
# Gauss-Legendre utilities
# ---------------------------------------------------------------------------

_GL_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(npts: int) -> tuple[np.ndarray, np.ndarray]:
    if npts not in _GL_NODES:
        _GL_NODES[npts] = np.polynomial.legendre.leggauss(npts)
    return _GL_NODES[npts]


def _gauss_nodes(edges: np.ndarray, npts: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the composite npts-point Gauss rule on the panels of ``edges``."""
    x, w = _gl(npts)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (w[None, :] * half[:, None]).ravel()


def _panel_values(f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                  lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-panel (integral, rule error, inner-error floor) from a 16/8 point pair.

    ``f`` receives the nodes panel by panel (24 per panel: the 16-point rule,
    then the 8-point rule), so ``t.reshape(lo.size, -1)`` lines them up with
    their panels.  The rule error shrinks under bisection; the floor (error
    carried by the integrand itself, e.g. an inner quadrature) does not, so
    the two are kept apart to guide splitting.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x16, w16 = _gl(16)
    x8, w8 = _gl(8)
    vals, errs = f((mid[:, None] + half[:, None] * np.concatenate([x16, x8])[None, :]).ravel())
    k = lo.size
    vals = vals.reshape(k, 24)
    i16 = (vals[:, :16] * w16).sum(axis=1) * half
    i8 = (vals[:, 16:] * w8).sum(axis=1) * half
    floor = (np.abs(errs.reshape(k, 24)[:, :16]) * w16).sum(axis=1) * half
    return i16, np.abs(i16 - i8), floor


def _adaptive_many(panel_fn, ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol, max_panels: int,
                   m: int, initial: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    """Adaptive bisection of m independent integrals at once, on one flat panel list.

    Panel j belongs to integral ``ids[j]``; ``panel_fn(ids, lo, hi)`` returns
    per-panel (integral, rule error, floor) as ``_panel_values`` does, and
    ``initial`` may hand in its values on the starting panels.  ``tol`` is a
    scalar or one tolerance per integral.  Each integral stops splitting on
    its own tolerance or panel budget while the others go on.  Splits follow
    the reducible rule error only (the floor is reported but never chased).
    Returns per-integral arrays (value, err, panels, ok).
    """
    vals, errs, floors = panel_fn(ids, lo, hi) if initial is None else initial
    half_tol = 0.5 * tol
    while True:
        count = np.bincount(ids, minlength=m)
        rule = np.bincount(ids, errs, m)
        floor = np.bincount(ids, floors, m)
        goal = np.maximum(half_tol, tol - floor)
        live = (rule > goal) & (count < max_panels)
        n_live = np.count_nonzero(live)
        if not n_live:
            return np.bincount(ids, vals, m), rule + floor, count, rule <= goal
        # max(goal / 2, rule / 8) / count is the per-panel share a panel must exceed to split
        threshold = np.maximum(0.5 * goal, 0.125 * rule) / count
        split = (errs > threshold[ids]) & live[ids]
        splits = np.bincount(ids[split], minlength=m)
        if np.count_nonzero(splits) < n_live:
            # a live integral with no panel above its threshold splits its worst one(s)
            lacking = live & (splits == 0)
            worst = np.zeros(m)
            np.maximum.at(worst, ids, errs)
            split |= lacking[ids] & (errs >= worst[ids])
        keep = ~split
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        halves = np.concatenate([ids[split], ids[split]])
        new_lo, new_hi = np.concatenate([left, mid]), np.concatenate([mid, right])
        fresh_vals, fresh_errs, fresh_floors = panel_fn(halves, new_lo, new_hi)
        ids = np.concatenate([ids[keep], halves])
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], fresh_vals])
        errs = np.concatenate([errs[keep], fresh_errs])
        floors = np.concatenate([floors[keep], fresh_floors])


def _adaptive(f, edges: np.ndarray, tol: float, max_panels: int, initial=None):
    """One adaptive integral on fixed initial edges; returns (value, err, panels, ok)."""
    lo, hi = edges[:-1], edges[1:]
    value, err, panels, ok = _adaptive_many(lambda ids, a, b: _panel_values(f, a, b),
                                            np.zeros(lo.size, dtype=np.intp), lo, hi, tol, max_panels, 1,
                                            initial)
    return value[0], err[0], int(panels[0]), bool(ok[0])


def _first_panels(f, edges: np.ndarray):
    """Panel values on the starting edges, and their sum in the engine's summation order."""
    first = _panel_values(f, edges[:-1], edges[1:])
    return first, np.bincount(np.zeros(first[0].size, dtype=np.intp), first[0], 1)[0]


def _with_geometric_fill(edges: Sequence[float], ratio: float = 4.0) -> np.ndarray:
    out: list[float] = []
    for a, b in zip(edges[:-1], edges[1:]):
        out.append(a)
        if a > 0.0 and b / a > ratio:
            k = int(math.ceil(math.log(b / a) / math.log(ratio)))
            out.extend(np.geomspace(a, b, k + 1)[1:-1].tolist())
    out.append(edges[-1])
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Spherical means
# ---------------------------------------------------------------------------


def _vectorized_line(u: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def call(pts: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(u(pts), dtype=float)
            if out.shape != pts.shape:
                raise ValueError
            return out
        except Exception:
            return np.asarray([float(u(float(p))) for p in pts])
    return call


def _mean_line(u_vec: Callable, x: float) -> Callable:
    def mean(t: np.ndarray):
        vals = 0.5 * (u_vec(x + t) + u_vec(x - t))
        return vals, np.zeros_like(vals)
    return mean


def _mean_radial_n1(u_vec: Callable, r: float) -> Callable:
    def mean(t: np.ndarray):
        vals = 0.5 * (u_vec(np.abs(r - t)) + u_vec(r + t))
        return vals, np.zeros_like(vals)
    return mean


def _mean_radial_n3_profile(profile: RadialProfile, r: float) -> Callable:
    def mean(t: np.ndarray):
        vals = profile.rho_integral_between(np.abs(r - t), r + t) / (2.0 * r * t)
        return vals, np.zeros_like(vals)
    return mean


def _mean_radial_n3_generic(u_vec: Callable, r: float, order: int = 32) -> Callable:
    c, w = _gl(order)
    def mean(t: np.ndarray):
        # (r-t)^2 + 2rt(1+c) is the cancellation-free form of r^2+t^2+2rtc
        rho = np.sqrt((r - t[:, None]) ** 2 + 2.0 * r * t[:, None] * (1.0 + c[None, :]))
        vals = 0.5 * (u_vec(rho.ravel()).reshape(rho.shape) * w).sum(axis=1)
        return vals, np.zeros_like(vals)
    return mean


def _angular_edges(r: float, t: np.ndarray, breaks: Sequence[float],
                   singular_origin: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial polar-angle panels (ids, lo, hi) of the circles of radii t around radius r.

    Circle i is cut on [0, pi] wherever it crosses a breakpoint and, around a
    singular origin it nearly touches, at the levels 2 rho_min 4^k below
    rho_max / 4.  The panels come flat, circle after circle, in angle order.
    """
    rho_min, rho_max = np.abs(r - t), r + t
    b = np.asarray(breaks, dtype=float)
    circle, which = np.nonzero((rho_min[:, None] < b) & (b < rho_max[:, None]))
    owners, cuts = [circle], [b[which]]
    if singular_origin:
        near = np.flatnonzero(rho_min < 0.05 * rho_max)
        start = 2.0 * np.maximum(rho_min[near], 1e-300)
        top = 0.25 * rho_max[near]
        # one candidate level past the log estimate absorbs its rounding; ``below`` keeps the real ones
        count = np.maximum(np.ceil(np.log(top / start) / math.log(4.0)), 0.0).astype(np.intp) + 1
        circle = np.repeat(near, count)
        k = np.arange(circle.size) - np.repeat(np.cumsum(count) - count, count)
        level = np.repeat(start, count) * 4.0 ** k  # exact: 4^k only shifts the exponent
        below = level < np.repeat(top, count)
        owners.append(circle[below])
        cuts.append(level[below])
    ids, cuts = np.concatenate(owners), np.concatenate(cuts)
    tc = t[ids]
    theta = np.arccos(np.clip((cuts * cuts - r * r - tc * tc) / (2.0 * r * tc), -1.0, 1.0))
    order = np.lexsort((theta, ids))
    ids, theta = ids[order], theta[order]
    # circle i has one panel more than cuts; cut j closes panel j + ids[j] and opens the next
    per_circle = np.bincount(ids, minlength=t.size) + 1
    lo = np.zeros(per_circle.sum())
    hi = np.full(lo.size, math.pi)
    at = np.arange(ids.size) + ids
    hi[at] = theta
    lo[at + 1] = theta
    return np.repeat(np.arange(t.size), per_circle), lo, hi


_N2_CHUNK = 512  # panels per integrand call: bounds the temporaries of a large circle batch


def _mean_radial_n2(u_vec: Callable, r: float, breaks: Sequence[float],
                    singular_origin: bool, rel_tol: float, mag_hint: float = 1.0) -> Callable:
    """Angular means over the circles of radii t, all circles of a call in one adaptive pass."""

    def mean(t: np.ndarray):
        t = np.asarray(t, dtype=float)
        gap2, four_rt = (r - t) ** 2, 4.0 * r * t

        def chunk(ids, lo, hi):
            a, c = gap2[ids, None], four_rt[ids, None]

            def f_theta(theta: np.ndarray):
                # stable form of r^2+t^2+2rt*cos(theta); 1+cos = 2cos(theta/2)^2
                rho = np.sqrt(a + c * np.cos(0.5 * theta.reshape(ids.size, -1)) ** 2)
                vals = u_vec(rho.ravel())
                return vals, np.zeros_like(vals)

            return _panel_values(f_theta, lo, hi)

        def circle_panels(ids, lo, hi):
            parts = [chunk(ids[j:j + _N2_CHUNK], lo[j:j + _N2_CHUNK], hi[j:j + _N2_CHUNK])
                     for j in range(0, ids.size, _N2_CHUNK)]
            return tuple(np.concatenate(col) for col in zip(*parts))

        ids, lo, hi = _angular_edges(r, t, breaks, singular_origin)
        # the initial panels give both the scale of each mean and the first refinement step
        first = circle_panels(ids, lo, hi)
        tol_abs = rel_tol * np.maximum(np.abs(np.bincount(ids, first[0], t.size)), mag_hint) * math.pi
        val, err, _, _ = _adaptive_many(circle_panels, ids, lo, hi, tol_abs, 80, t.size, first)
        return val / math.pi, err / math.pi

    return mean


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _near_model_profile(profile: RadialProfile, r: float, n: int):
    lap = float(profile.radial_laplacian(r, n))
    bilap = float(profile.radial_bilaplacian(r, n))
    a2 = -lap / (2.0 * n)
    a4 = -bilap / (8.0 * n * (n + 2.0))
    return a2, a4


def _near_zone(u_x: float, mean_fn: Callable, s: float, h: float,
               model: tuple[float, float] | None) -> tuple[float, float]:
    """Integral over (0, h] of t^(-1-2s) (u_x - M(t)) with error estimate."""
    if model is not None:
        a2, a4 = model
        probe = np.asarray([h / 4.0])
    else:
        samples, _ = mean_fn(np.asarray([h, h / 2.0, h / 4.0]))
        d_h, d_h2, d_h4 = (u_x - samples).tolist()
        a2 = (16.0 * d_h2 - d_h) / (3.0 * h * h)
        a4 = 4.0 * (d_h - 4.0 * d_h2) / (3.0 * h**4)
        probe = None
    value = a2 * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s) + a4 * h ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s)
    if model is not None:
        sample, _ = mean_fn(probe)
        resid = (u_x - float(sample[0])) - (a2 * (h / 4.0) ** 2 + a4 * (h / 4.0) ** 4)
        err = abs(resid) * (4.0 ** 6) * h ** (-2.0 * s) / (6.0 - 2.0 * s)
    else:
        resid = d_h4 - (a2 * (h / 4.0) ** 2 + a4 * (h / 4.0) ** 4)
        err = abs(resid) * (4.0 ** 6) * h ** (-2.0 * s) / (6.0 - 2.0 * s)
    noise = 4.0 * np.finfo(float).eps * (abs(u_x) + 1.0)
    err += noise * h ** (-2.0 * s) / max(1.0, 2.0 * s)
    return value, err


def _kink_ts(r: float, break_radii: Sequence[float], include_origin: bool) -> list[float]:
    ts: set[float] = set()
    if include_origin and r > 0.0:
        ts.add(r)
    for b in break_radii:
        ts.add(abs(r - b))  # zero stays in: it marks the point sitting on a kink
        ts.add(r + b)
    return sorted(ts)


def _tail_is_oscillatory(mean_fn: Callable, u_x: float, t_top: float) -> bool:
    """Detect non-settling (oscillatory) far fields; monotone tails return False."""
    probes = t_top * 2.0 ** np.arange(0, 9)
    m_vals, _ = mean_fn(probes)
    diffs = np.abs(np.diff(m_vals))
    swing = diffs.sum()
    trend = abs(m_vals[-1] - m_vals[0])
    ref = max(abs(u_x), np.abs(m_vals).max(), 1e-300)
    return swing > 4.0 * trend + 1e-9 * ref and np.abs(m_vals).max() > 1e-9 * ref


def _pv_value(u_x: float, mean_fn: Callable, s: float, kink_ts: Sequence[float],
              scale: float, quad: QuadSpec, prefac: float,
              near_model: tuple[float, float] | None,
              exact_zero_tail_from: float | None,
              growth_guard: Callable[[float], None] | None,
              oscillation_probe: bool = False) -> OperatorValue:
    two_s = 2.0 * s
    if kink_ts and min(kink_ts) < 0.5 * quad.near_radius * scale:
        raise EvaluationPointError(
            f"evaluation point within {quad.near_radius:g}*scale of a kink radius"
        )

    def integrand(t: np.ndarray):
        m_vals, m_errs = mean_fn(t)
        w = t ** (-1.0 - two_s)
        return w * (u_x - m_vals), w * m_errs

    h = quad.near_radius * scale
    if kink_ts:
        h = min(h, 0.45 * min(kink_ts))
    t_top = quad.tail_radius * scale
    if kink_ts:
        t_top = max(t_top, 2.0 * max(kink_ts))
    if exact_zero_tail_from is not None:
        t_top = max(t_top, exact_zero_tail_from)

    if growth_guard is not None:
        growth_guard(t_top)
    if oscillation_probe and exact_zero_tail_from is None and _tail_is_oscillatory(mean_fn, u_x, t_top):
        # push the sampled zone out so the mapped tail sees a decayed amplitude
        t_top *= 64.0

    near_val, near_err = _near_zone(u_x, mean_fn, s, h, near_model)

    edges = _with_geometric_fill(sorted({h, t_top} | {t for t in kink_ts if h < t < t_top}))
    # the starting panels give the scale; the refinement against the mixed tolerance reuses them
    mid_first, mid_val = _first_panels(integrand, edges)

    if exact_zero_tail_from is not None:
        # the mean vanishes beyond t_top: only the exact constant part remains
        tail_val, tail_err, tail_panels = u_x * t_top ** (-two_s) / two_s, 0.0, 0
    else:
        def tail_integrand(v: np.ndarray):
            m_vals, m_errs = mean_fn(t_top / v)
            w = v ** (two_s - 1.0)
            return w * (u_x - m_vals), w * m_errs

        v_edges = np.asarray([0.0] + [2.0 ** (-k) for k in range(12, -1, -1)])
        tail_first, rough = _first_panels(tail_integrand, v_edges)
        component_scale = abs(near_val) + abs(mid_val) + t_top ** (-two_s) * abs(rough)
        tol_run = max(quad.abs_tol, quad.rel_tol * component_scale) / prefac
        tail_int, tail_ierr, tail_panels, _ = _adaptive(
            tail_integrand, v_edges, tol=0.25 * tol_run * t_top ** two_s,
            max_panels=quad.max_subdivisions // 3, initial=tail_first,
        )
        tail_val = t_top ** (-two_s) * tail_int
        tail_err = t_top ** (-two_s) * tail_ierr

    component_scale = abs(near_val) + abs(mid_val) + abs(tail_val)
    tol_run = max(quad.abs_tol, quad.rel_tol * component_scale) / prefac
    mid_val, mid_err, n_panels, mid_ok = _adaptive(
        integrand, edges, tol=max(0.5 * tol_run, 0.0), max_panels=quad.max_subdivisions,
        initial=mid_first,
    )

    total = prefac * (near_val + mid_val + tail_val)
    err = prefac * (near_err + mid_err + tail_err)
    converged = mid_ok and err <= prefac * 4.0 * tol_run + max(quad.abs_tol, quad.rel_tol * abs(total))
    return OperatorValue(float(total), float(err), int(n_panels + tail_panels), bool(converged))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _profile_growth_check(profile: RadialProfile, s: float) -> None:
    if profile.max_growth_exponent() >= 2.0 * s - 0.05:
        raise DivergenceError(
            "profile grows at least like |x|^(2s); the defining integral diverges"
        )


def _generic_growth_guard(mean_fn: Callable, u_x: float, s: float) -> Callable[[float], None]:
    def guard(t_top: float) -> None:
        probes = np.asarray([t_top, 4.0 * t_top, 16.0 * t_top, 64.0 * t_top])
        vals, _ = mean_fn(probes)
        mags = np.abs(u_x - vals)
        if mags[-1] > 1e3 * max(1.0, abs(u_x)) and mags[-1] > mags[-2] > mags[-3]:
            slope = math.log(mags[-1] / mags[-2]) / math.log(4.0)
            if slope >= 2.0 * s - 0.05:
                raise DivergenceError(
                    f"sampled far-field growth exponent {slope:.3f} reaches 2s={2*s:.3f}"
                )
    return guard


def eval_radial(profile: RadialProfile | Callable, r: float, params: FracParams,
                quad: QuadSpec = QuadSpec()) -> OperatorValue:
    """(-Delta)^s of a radial function, evaluated at any point of radius r.

    Piecewise power/log profiles use exact spherical means (n = 1, 3) or
    panelled angular quadrature (n = 2), exact near-zone Laplacians and
    closed-form tails; plain radial callables fall back to sampled means with
    Richardson near-zone extrapolation and require decay slower than |x|^(2s).
    """
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    prefac = params.c_ns * params.sphere_measure
    is_profile = isinstance(profile, RadialProfile)

    if is_profile:
        _profile_growth_check(profile, params.s)
        if r == 0.0:
            raise EvaluationPointError("profiles are evaluated at positive radii")
        breaks = list(profile.breakpoints)
        u_x = float(profile(r))
        scale = max(r, 1e-12)
        kinks = _kink_ts(r, breaks, include_origin=True)
        zero_from = None
        if profile.pieces[-1] == ():
            zero_from = r + (max(breaks) if breaks else 0.0)
        if params.n == 1:
            mean_fn = _mean_radial_n1(profile, r)
        elif params.n == 3:
            mean_fn = _mean_radial_n3_profile(profile, r)
        else:
            first_terms = profile.pieces[0]
            singular0 = any(is_log or expo < 0 for _, expo, is_log in first_terms)
            mean_fn = _mean_radial_n2(profile, r, breaks, singular0,
                                      rel_tol=min(1e-9, quad.rel_tol), mag_hint=abs(u_x) + 1e-300)
        near_model = _near_model_profile(profile, r, params.n)
        guard = None
    else:
        u_vec = _vectorized_line(profile)
        breaks = [k for k in quad.kink_radii if k > 0.0]
        scale = max(r, (min(breaks) if breaks else 1.0), 1e-12) if r > 0 else max(
            (min(breaks) if breaks else 1.0), 1.0
        )
        if r == 0.0:
            u_x = float(u_vec(np.asarray([0.0]))[0])
            mean_fn = lambda t: (u_vec(t), np.zeros_like(t))  # sphere around the origin
            kinks = sorted(breaks)
        else:
            u_x = float(u_vec(np.asarray([r]))[0])
            if params.n == 1:
                mean_fn = _mean_radial_n1(u_vec, r)
            elif params.n == 3:
                mean_fn = _mean_radial_n3_generic(u_vec, r)
            else:
                mean_fn = _mean_radial_n2(u_vec, r, breaks, False,
                                          rel_tol=min(1e-9, quad.rel_tol), mag_hint=abs(u_x) + 1e-300)
            kinks = _kink_ts(r, breaks, include_origin=True)
        near_model = None
        zero_from = None
        guard = _generic_growth_guard(mean_fn, u_x, params.s)

    return _pv_value(u_x, mean_fn, params.s, kinks, scale, quad, prefac,
                     near_model, zero_from, guard, oscillation_probe=not is_profile)


def eval_pointwise(u: Callable, x, params: FracParams, quad: QuadSpec = QuadSpec()) -> OperatorValue:
    """(-Delta)^s u(x) for a function on R^n.

    For n = 1 the function may be arbitrary (admissible); for n >= 2 the
    evaluation treats u as radially symmetric, sampling it along the ray
    through x (non-radial functions in several dimensions are out of scope).
    """
    if isinstance(u, RadialProfile):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        return eval_radial(u, float(np.linalg.norm(x_arr)), params, quad)
    if params.n == 1:
        x0 = float(np.asarray(x).reshape(()))
        u_vec = _vectorized_line(u)
        u_x = float(u_vec(np.asarray([x0]))[0])
        kinks = sorted({abs(x0 - k) for k in quad.kink_radii} | {abs(x0 + k) for k in quad.kink_radii})
        kinks = [t for t in kinks if t > 0.0]
        scale = max(abs(x0), 1.0)
        mean_fn = _mean_line(u_vec, x0)
        guard = _generic_growth_guard(mean_fn, u_x, params.s)
        prefac = params.c_ns * params.sphere_measure
        return _pv_value(u_x, mean_fn, params.s, kinks, scale, quad, prefac,
                         None, None, guard, oscillation_probe=True)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    radius = float(np.linalg.norm(x_arr))
    direction = x_arr / radius if radius > 0 else None

    def radialized(rho):
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        if direction is None:
            pts = rho_arr[:, None] * np.eye(params.n)[0][None, :]
        else:
            pts = rho_arr[:, None] * direction[None, :]
        try:
            out = np.asarray(u(pts.T), dtype=float)
            if out.shape != rho_arr.shape:
                raise ValueError
        except Exception:
            out = np.asarray([float(u(p)) for p in pts])
        return out

    return eval_radial(radialized, radius, params, quad)


def scaling_identity_check(u: Callable | RadialProfile, lam: float, x, params: FracParams,
                           quad: QuadSpec = QuadSpec()) -> float:
    """Relative deviation between (-Delta)^s[u(lam .)](x) and lam^(2s) ((-Delta)^s u)(lam x)."""
    if lam <= 0.0:
        raise DomainError("scaling factor must be positive")
    if isinstance(u, RadialProfile):
        u_scaled: Callable | RadialProfile = u.dilate(lam)
    else:
        u_scaled = (lambda y: u(lam * np.asarray(y)))
    lhs = eval_pointwise(u_scaled, x, params, QuadSpec(
        rel_tol=quad.rel_tol, abs_tol=quad.abs_tol, max_subdivisions=quad.max_subdivisions,
        near_radius=quad.near_radius, tail_radius=quad.tail_radius,
        kink_radii=tuple(k / lam for k in quad.kink_radii),
    )).value
    rhs_point = lam * np.asarray(x, dtype=float)
    rhs = lam ** (2.0 * params.s) * eval_pointwise(u, rhs_point, params, quad).value
    return abs(lhs - rhs) / max(1.0, abs(rhs))
