"""Dense reference assembly of the 1-d Dirichlet operator, for tests only.

This is the n x n assembly the structured solver in ``fraccert.dirichlet``
replaced: every matrix entry is formed explicitly, for a dense LU solve.  The
matrix depends on the grid alone; ``ext_rhs`` gives the rhs share of each
kind of exterior data on it.  It shares ``_pair_weights`` (and the rate-profile
integral and the closed-form tail of the fundamental data) with the package, so
a change to the cell weights moves both sides of a parity check together.
"""

from __future__ import annotations

import math

import numpy as np

from fraccert.dirichlet import (ExteriorData, GridProblem, _fundamental_tail, _pair_weights,
                                _rate_profile_integral)
from fraccert.quadrature import _gauss_nodes


def _boundary_row_data(exterior: ExteriorData, params, x_i: float, sgn: float, delta: float,
                       g_b: float) -> float:
    """int_delta^{3 delta} t^(-1-2s) (g(x_i + sgn t) - g_b) dt for the data side."""
    s = params.s
    t, w = _gauss_nodes(np.linspace(delta, 3.0 * delta, 9))
    g = exterior.evaluate(x_i + sgn * t, params)
    vals = t ** (-1.0 - 2.0 * s) * (g - g_b)
    return float(vals @ w)


class DenseAssembly:
    """``matrix`` (n x n) and per-row ``dominance`` margins of a grid; ``ext_rhs(exterior)`` per data."""

    def __init__(self, problem: GridProblem):
        p = self.problem = problem
        s = p.params.s
        two_s = 2.0 * s
        h = p.h
        c_ns = p.params.c_ns
        li = self.li = p.interior_indices()
        span = p.intervals[-1][1] - p.intervals[0][0]
        K = self.K = int(round(4.0 * max(1.0, span) / h))  # the default truncation window

        omega, omega_first_cell = self.omega, self.omega_first_cell = _pair_weights(K, h, s)
        c2 = self.c2 = (h / 2.0) ** (2.0 - two_s) / (2.0 - two_s) / h**2
        T = self.T = (K + 0.5) * h
        tail_k = T ** (-two_s) / two_s

        n = li.size
        D = np.abs(li[:, None] - li[None, :])
        xs_nodes = self.xs_nodes = (li + 0.5) * h
        # distance to the nearest endpoint in lattice units, exact at every h (x - a in
        # floating point is not, at non-dyadic h)
        cells = [(round(a / h), round(b / h)) for a, b in p.intervals]
        delta_arr = self.delta_arr = h * np.asarray([
            min(min(j + 0.5 - lo, hi - j - 0.5) for lo, hi in cells if lo <= j < hi) for j in li
        ])
        phi = self.phi = np.ones(n)
        layer = self.layer = np.nonzero(delta_arr <= 2.5 * h)[0]
        for i in layer:
            d = delta_arr[i]
            phi[i] = ((d + 0.5 * h) ** (1.0 + s) - (d - 0.5 * h) ** (1.0 + s)) / (
                h * (1.0 + s) * d**s
            )

        self.OmD = OmD = omega[D]
        A = -OmD * phi[None, :]
        A[D == 1] -= c2
        np.fill_diagonal(A, 2.0 * omega.sum() + 2.0 * c2 + 2.0 * tail_k)

        self.q_s = q_s = _rate_profile_integral(s)
        for i in range(n):
            delta = delta_arr[i]
            if delta > 0.75 * h:
                continue
            coef = delta ** (-two_s) * q_s
            A[i, i] += coef - 2.0 * c2 - 2.0 * omega_first_cell
            for j in range(n):
                if j != i and abs(li[j] - li[i]) == 1:
                    A[i, j] += c2 + omega_first_cell * phi[j]
        # row margins of the unscaled rows, in extended precision so the
        # reference carries no cancellation error of its own
        self.dominance = c_ns * (2.0 * np.diag(A).astype(np.longdouble)
                                 - np.abs(A).sum(axis=1, dtype=np.longdouble))
        A *= c_ns
        self.matrix = A

    def _boundary_point(self, i: int) -> float:
        return min((e for a, b in self.problem.intervals for e in (a, b)),
                   key=lambda e: abs(e - self.xs_nodes[i]))

    def ext_rhs(self, exterior: ExteriorData) -> np.ndarray:
        """The share of the rhs that the exterior data feed."""
        params, h = self.problem.params, self.problem.h
        s, li, K, c2 = params.s, self.li, self.K, self.c2
        omega, omega_first_cell, xs_nodes = self.omega, self.omega_first_cell, self.xs_nodes
        gb_arr = np.zeros(li.size)
        for i in self.layer:
            x_b = self._boundary_point(i)
            gb_arr[i] = float(exterior.evaluate(
                np.asarray([x_b + math.copysign(1e-12, x_b - xs_nodes[i])]), params)[0])
        boundary_fix_rhs = self.OmD @ ((1.0 - self.phi) * gb_arr)

        li_set = set(int(v) for v in li)
        for i in range(li.size):
            delta = self.delta_arr[i]
            if delta > 0.75 * h:
                continue
            g_b = gb_arr[i]
            sgn = math.copysign(1.0, self._boundary_point(i) - xs_nodes[i])
            coef = delta ** (-2.0 * s) * self.q_s
            boundary_fix_rhs[i] += coef * g_b + _boundary_row_data(exterior, params, xs_nodes[i], sgn,
                                                                   delta, g_b)
            for lnb in (li[i] - 1, li[i] + 1):
                if int(lnb) not in li_set:
                    x_nb = (lnb + 0.5) * h
                    g_nb = float(exterior.evaluate(np.asarray([x_nb]), params)[0])
                    boundary_fix_rhs[i] -= (c2 + omega_first_cell) * g_nb

        reach = K + 1
        lat_lo, lat_hi = li.min() - reach, li.max() + reach
        lat = np.arange(lat_lo, lat_hi + 1)
        gvals = exterior.evaluate((lat + 0.5) * h, params)
        gvals[li - lat_lo] = 0.0
        kernel = np.zeros(2 * reach + 1)
        kernel[reach + 1:] = omega[1:]
        kernel[:reach] = omega[1:][::-1]
        kernel[reach + 1] += c2
        kernel[reach - 1] += c2
        ext = 0.0 if not gvals.any() else np.convolve(gvals, kernel, mode="valid")[li - (lat_lo + reach)]
        if exterior.kind == "fundamental":
            ext = ext + _fundamental_tail(xs_nodes, self.T, params)
        return params.c_ns * (ext + boundary_fix_rhs)
