"""Composite Gauss-Legendre rules and the flat-panel adaptive engine.

Integrands take ``(ids, t)``: the nodes of each panel as one row of ``t``,
and per row the id of the integral the panel belongs to; they return values
in the shape of ``t``.  ``_adaptive_many`` refines many integrals at once on
one flat panel list, each against its own tolerance and panel budget;
``np.bincount`` sums each integral's panels in list order, so an integral's
value does not depend on which others share the pass.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

PANEL_CHUNK = 512  # panels per integrand call: bounds the temporaries of a large batch

# Free one 4 MiB mmapped block at import.  glibc then raises its dynamic mmap
# and trim thresholds (mallopt(3)), so the ~100 KB per-chunk integrand
# temporaries are reused from the heap instead of being mapped, trimmed and
# faulted in again on every chunk.
np.empty(4 << 20, dtype=np.uint8)

_gl = functools.cache(leggauss)  # npts -> Gauss-Legendre nodes and weights on [-1, 1]


def _gauss_nodes(edges: np.ndarray, npts: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the composite npts-point Gauss rule on the panels of ``edges``."""
    x, w = _gl(npts)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (w[None, :] * half[:, None]).ravel()


def _power_map(v: np.ndarray, scale, p: float) -> tuple[np.ndarray, np.ndarray]:
    """rho = scale * v^p on v in (0, 1], and d rho / d v: at p > 0 an endpoint rho = 0 where the
    integrand is like rho^(1/p - 1), at p = -1/(2s) an endpoint rho = inf where it is like
    rho^(-1-2s), turns smooth in v.  Gauss nodes lie inside their panels, so none is at v = 0."""
    rho = scale * v ** p
    return rho, abs(p) * rho / v


def _panel_values(f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], ids: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-panel (integral, rule error, inner-error floor) from a 16/8 point pair.

    ``f(ids, t)`` receives at most ``PANEL_CHUNK`` panels per call, one row
    of 24 nodes per panel (the 16-point rule, then the 8-point rule).
    The rule error shrinks under bisection; the floor (error carried by the
    integrand itself, e.g. an inner quadrature) does not, so the two are kept
    apart to guide splitting.
    """
    if lo.size > PANEL_CHUNK:
        parts = [_panel_values(f, ids[j:j + PANEL_CHUNK], lo[j:j + PANEL_CHUNK], hi[j:j + PANEL_CHUNK])
                 for j in range(0, lo.size, PANEL_CHUNK)]
        return tuple(np.concatenate(col) for col in zip(*parts))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x16, w16 = _gl(16)
    x8, w8 = _gl(8)
    vals, errs = f(ids, mid[:, None] + half[:, None] * np.concatenate([x16, x8])[None, :])
    i16 = (vals[:, :16] * w16).sum(axis=1) * half
    i8 = (vals[:, 16:] * w8).sum(axis=1) * half
    floor = (np.abs(errs[:, :16]) * w16).sum(axis=1) * half
    return i16, np.abs(i16 - i8), floor


def _adaptive_many(f, ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol, max_panels: int,
                   m: int, initial: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    """Adaptive bisection of m independent integrals at once, on one flat panel list.

    Panel j belongs to integral ``ids[j]`` and ``f(ids, t)`` is the integrand
    (see ``_panel_values``); ``initial`` may hand in the panel values on the
    starting panels.  ``tol`` is a scalar or one tolerance per integral.
    Each integral stops splitting on its own tolerance or panel budget while
    the others go on.  Splits follow the reducible rule error only (the floor
    is reported but never chased).  Returns per-integral arrays (value, err,
    panels, ok).
    """
    vals, errs, floors = _panel_values(f, ids, lo, hi) if initial is None else initial
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
        # max(goal / 2, rule / 8) / count (an id may have no panels) is the share a panel must exceed to split
        threshold = np.maximum(0.5 * goal, 0.125 * rule) / np.maximum(count, 1)
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
        fresh_vals, fresh_errs, fresh_floors = _panel_values(f, halves, new_lo, new_hi)
        ids = np.concatenate([ids[keep], halves])
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], fresh_vals])
        errs = np.concatenate([errs[keep], fresh_errs])
        floors = np.concatenate([floors[keep], fresh_floors])
