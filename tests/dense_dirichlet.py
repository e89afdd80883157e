"""Dense reference assembly of the 1-d Dirichlet operator, for tests only.

This is the n x n assembly the structured solver in ``fraccert.dirichlet``
replaced: every matrix entry is formed explicitly and the system is solved
with a dense LU.  It shares ``_pair_weights`` (and the rate-profile and tail
integrals) with the package, so a change to the cell weights moves both sides
of a parity check together.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from fraccert.dirichlet import (GridProblem, _exterior_tail_batch, _pair_weights,
                                _rate_profile_integral)
from fraccert.quadrature import _gauss_nodes


def _boundary_row_data(problem: GridProblem, x_i: float, sgn: float, delta: float,
                       g_b: float) -> float:
    """int_delta^{3 delta} t^(-1-2s) (g(x_i + sgn t) - g_b) dt for the data side."""
    s = problem.params.s
    t, w = _gauss_nodes(np.linspace(delta, 3.0 * delta, 9))
    g = problem.exterior.evaluate(x_i + sgn * t, problem.params)
    vals = t ** (-1.0 - 2.0 * s) * (g - g_b)
    return float(vals @ w)


class DenseAssembly:
    """``matrix`` (n x n), ``ext_rhs`` and per-row ``dominance`` margins."""

    def __init__(self, problem: GridProblem):
        p = problem
        s = p.params.s
        two_s = 2.0 * s
        h = p.h
        c_ns = p.params.c_ns
        li = p.interior_indices()
        hull_lo = p.intervals[0][0]
        hull_hi = p.intervals[-1][1]
        span = hull_hi - hull_lo
        l_ext = p.truncation_radius if p.truncation_radius else 4.0 * max(1.0, span)
        K = int(round(l_ext / h))

        omega, omega_first_cell = _pair_weights(K, h, s)
        c2 = (h / 2.0) ** (2.0 - two_s) / (2.0 - two_s) / h**2
        T = (K + 0.5) * h
        tail_k = T ** (-two_s) / two_s

        n = li.size
        D = np.abs(li[:, None] - li[None, :])
        xs_nodes = (li + 0.5) * h
        delta_arr = np.asarray([
            min(min(x - a, b - x) for a, b in p.intervals if a < x < b) for x in xs_nodes
        ])
        phi = np.ones(n)
        gb_arr = np.zeros(n)
        layer = delta_arr <= 2.5 * h
        for i in np.nonzero(layer)[0]:
            d = delta_arr[i]
            phi[i] = ((d + 0.5 * h) ** (1.0 + s) - (d - 0.5 * h) ** (1.0 + s)) / (
                h * (1.0 + s) * d**s
            )
            x_b = min((e for a, b in p.intervals for e in (a, b)), key=lambda e: abs(e - xs_nodes[i]))
            gb_arr[i] = float(p.exterior.evaluate(
                np.asarray([x_b + math.copysign(1e-12, x_b - xs_nodes[i])]), p.params)[0])

        OmD = omega[D]
        A = -OmD * phi[None, :]
        A[D == 1] -= c2
        np.fill_diagonal(A, 2.0 * omega.sum() + 2.0 * c2 + 2.0 * tail_k)
        boundary_fix_rhs = OmD @ ((1.0 - phi) * gb_arr)

        li_set = set(int(v) for v in li)
        q_s = _rate_profile_integral(s, s)
        for i in range(n):
            delta = delta_arr[i]
            if delta > 0.75 * h:
                continue
            g_b = gb_arr[i]
            x_b = min((e for a, b in p.intervals for e in (a, b)), key=lambda e: abs(e - xs_nodes[i]))
            sgn = math.copysign(1.0, x_b - xs_nodes[i])
            coef = delta ** (-two_s) * q_s
            A[i, i] += coef - 2.0 * c2 - 2.0 * omega_first_cell
            boundary_fix_rhs[i] += coef * g_b + _boundary_row_data(p, xs_nodes[i], sgn, delta, g_b)
            for j in range(n):
                if j != i and abs(li[j] - li[i]) == 1:
                    A[i, j] += c2 + omega_first_cell * phi[j]
            for lnb in (li[i] - 1, li[i] + 1):
                if int(lnb) not in li_set:
                    x_nb = (lnb + 0.5) * h
                    g_nb = float(p.exterior.evaluate(np.asarray([x_nb]), p.params)[0])
                    boundary_fix_rhs[i] -= (c2 + omega_first_cell) * g_nb
        # row margins of the unscaled rows, in extended precision so the
        # reference carries no cancellation error of its own
        self.dominance = c_ns * (2.0 * np.diag(A).astype(np.longdouble)
                                 - np.abs(A).sum(axis=1, dtype=np.longdouble))
        A *= c_ns

        reach = K + 1
        lat_lo, lat_hi = li.min() - reach, li.max() + reach
        lat = np.arange(lat_lo, lat_hi + 1)
        gvals = p.exterior.evaluate((lat + 0.5) * h, p.params)
        gvals[li - lat_lo] = 0.0
        kernel = np.zeros(2 * reach + 1)
        kernel[reach + 1:] = omega[1:]
        kernel[:reach] = omega[1:][::-1]
        kernel[reach + 1] += c2
        kernel[reach - 1] += c2
        ext = np.convolve(gvals, kernel, mode="valid")[li - (lat_lo + reach)]
        if p.exterior.has_tail():
            g_line = lambda x: p.exterior.evaluate(np.asarray(x, dtype=float), p.params)
            ext = ext + _exterior_tail_batch(g_line, xs_nodes, T, s)

        self.matrix = A
        self.ext_rhs = c_ns * (ext + boundary_fix_rhs)


def dense_solve(problem: GridProblem) -> np.ndarray:
    asm = DenseAssembly(problem)
    return lu_solve(lu_factor(asm.matrix), problem.rhs_values() + asm.ext_rhs)
