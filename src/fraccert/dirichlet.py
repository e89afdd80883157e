"""1-d nonlocal Dirichlet solver with a discrete comparison principle.

Collocation on a cell-centered uniform lattice x_j = (j + 1/2) h.  At a node,
the operator is split into the half-cell around the node (quadratic Taylor
correction), exact kernel integrals over whole cells out to a truncation
distance, and a closed-form/quadrature tail fed by the exterior data.  All
off-diagonal weights are nonpositive and every row is strictly diagonally
dominant, so the operator matrix is an M-matrix and ordered data produce
ordered solutions.

The matrix is never formed.  It is A = c_ns (T_SS + E_C P_C^T): T is the
symmetric Toeplitz kernel on the hull lattice of the domain and T_SS its
restriction to the interior indices S; E_C holds every edit, all of which sit
in the layer columns C (nodes within 2.5h of an endpoint, 3 per endpoint):
the dist^s cell-average column scaling and the rewritten boundary rows.  T^-1
is applied by the Gohberg-Semencul formula (four triangular-Toeplitz
products by FFT, after one Durbin recursion for its first column), gap nodes
of the hull are eliminated through the capacitance (T^-1)_GG, and the edits
through the Woodbury capacitance I + (T_SS^-1 E_C)_C.  Memory is O(n |C|)
and a solve O(n log n); the sign-pattern and dominance checks read the
kernel vector and the layer columns.

Verifiers on top of the solver estimate the boundary-rate ratio, the
forcing-mass lower bound on annuli, compact-set positivity constants, and the
sublevel-measure constant for discrete supersolutions.  Constants are
estimated, never proven; each verifier reports refinement stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ConfigurationError, DegenerateInputError, DomainError, NumericalError
from .quadrature import _gauss_nodes
from .params import FracParams
from .profiles import conform, positive_fundamental

__all__ = [
    "ExteriorData",
    "GridProblem",
    "DiscreteSolution",
    "solve_dirichlet",
    "apply_operator",
    "verify_comparison",
    "verify_hopf_ratio",
    "verify_kslap",
    "verify_qsmp",
    "verify_measure_lemma",
    "ANNULUS_DOMAIN",
    "ANNULUS_TARGET",
]

# geometry used by the quantitative maximum-principle verifiers
ANNULUS_DOMAIN = ((-3.0, -0.5), (0.5, 3.0))
ANNULUS_TARGET = ((-2.0, -1.0), (1.0, 2.0))

_ALIGN_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ExteriorData:
    """Values of the unknown outside the domain.

    kind 'zero' vanishes identically; 'fundamental' uses the nonnegative
    fundamental-solution branch for the given order; 'custom' evaluates a
    callable on the truncation window and is assumed to vanish beyond it.
    """

    kind: str = "zero"
    fn: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "fundamental", "custom"):
            raise ConfigurationError(f"unknown exterior kind {self.kind!r}")
        if self.kind == "custom" and self.fn is None:
            raise ConfigurationError("custom exterior data needs a callable")

    def evaluate(self, x: np.ndarray, params: FracParams) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "fundamental":
            return np.asarray(positive_fundamental(params)(np.abs(x)), dtype=float)
        return conform(self.fn(x), x.shape, "exterior data")

    def has_tail(self) -> bool:
        return self.kind == "fundamental"


@dataclass(frozen=True)
class GridProblem:
    """Dirichlet problem for (-Delta)^s on a union of intervals.

    Interval endpoints must be integer multiples of the grid spacing; nodes
    sit at cell centers, strictly inside the domain.  ``rhs`` is a callable
    on interior nodes or an array of nodal samples.
    """

    intervals: tuple[tuple[float, float], ...]
    h: float
    params: FracParams
    rhs: Callable | Sequence[float] | float = 0.0
    exterior: ExteriorData = ExteriorData("zero")
    truncation_radius: float | None = None

    def __post_init__(self) -> None:
        if self.params.n != 1:
            raise ConfigurationError("the discrete solver is one-dimensional")
        if self.h <= 0.0:
            raise ConfigurationError("grid spacing must be positive")
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ConfigurationError("domain must contain at least one interval")
        for a, b in ivs:
            if b <= a:
                raise ConfigurationError(f"empty interval ({a}, {b})")
            for e in (a, b):
                if abs(e / self.h - round(e / self.h)) > _ALIGN_TOL:
                    raise ConfigurationError(
                        f"interval endpoint {e} is not aligned to the grid spacing {self.h}"
                    )
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ConfigurationError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    # -- lattice ----------------------------------------------------------

    def interior_indices(self) -> np.ndarray:
        return np.concatenate([np.arange(round(a / self.h), round(b / self.h))
                               for a, b in self.intervals])

    def nodes(self) -> np.ndarray:
        return (self.interior_indices() + 0.5) * self.h

    def rhs_values(self) -> np.ndarray:
        x = self.nodes()
        return conform(self.rhs(x) if callable(self.rhs) else self.rhs, x.shape, "rhs")

    def distance_to_complement(self) -> np.ndarray:
        x = self.nodes()
        d = np.full_like(x, np.inf)
        for a, b in self.intervals:
            mask = (x > a) & (x < b)
            d[mask] = np.minimum(x[mask] - a, b - x[mask])
        return d

    def window(self) -> int:
        """Truncation window K: kernel cells run to K h, data beyond it enter as a tail."""
        span = self.intervals[-1][1] - self.intervals[0][0]
        l_ext = self.truncation_radius if self.truncation_radius else 4.0 * max(1.0, span)
        if l_ext < 2.0 * span:
            raise ConfigurationError("truncation radius must be at least twice the domain span")
        return int(round(l_ext / self.h))

    def refined(self, factor: int = 2) -> "GridProblem":
        return GridProblem(self.intervals, self.h / factor, self.params, self.rhs,
                           self.exterior, self.truncation_radius)

    def grid_key(self) -> tuple:
        return (self.intervals, self.h, self.params.n, self.params.s,
                self.exterior.kind, self.truncation_radius)


@dataclass
class DiscreteSolution:
    """Nodal values of a discrete Dirichlet solution plus solve metadata."""

    problem: GridProblem
    values: np.ndarray
    residual_norm: float
    nodes: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.nodes is None:
            self.nodes = self.problem.nodes()

    def min_on(self, sets: Sequence[tuple[float, float]]) -> float:
        mask = _mask_on(self.nodes, sets)
        if not mask.any():
            raise ConfigurationError("no nodes inside the requested set")
        return float(self.values[mask].min())


def _mask_on(x: np.ndarray, sets: Sequence[tuple[float, float]]) -> np.ndarray:
    mask = np.zeros(x.shape, dtype=bool)
    for a, b in sets:
        mask |= (x > a) & (x < b)
    return mask


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


_TAIL_VE = np.asarray([0.0] + [2.0 ** (-k) for k in range(24, -1, -1)])


def _exterior_tail_batch(g: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                         T: float, s: float) -> np.ndarray:
    """int_T^inf t^(-1-2s) (g(x+t) + g(x-t)) dt for every x, shared panels."""
    two_s = 2.0 * s
    v, w = _gauss_nodes(_TAIL_VE)
    t = T / v
    gsum = g(xs[:, None] + t[None, :]) + g(xs[:, None] - t[None, :])
    integrand = (v ** (two_s - 1.0))[None, :] * gsum
    return T ** (-two_s) * integrand @ w


def _pair_weights(K: int, h: float, s: float) -> tuple[np.ndarray, float]:
    """Weights omega[m] multiplying the pair difference 2u_i - u_{i+m} - u_{i-m}.

    Exact kernel integrals against local quadratic models of the (even) pair
    difference: the first cell pins the parabola at the origin, later cells
    use the three-point Lagrange parabola.  The moments of cell k are taken
    about its centre kh by a 12-point Gauss rule: moments about the origin
    cancel catastrophically for large k.  Index m runs to K+1; omega[0]=0.
    Returns (omega, first-cell share of omega[1]).
    """
    two_s = 2.0 * s
    omega = np.zeros(K + 2)
    # first cell [h/2, 3h/2]: model H(t) = H_1 (t/h)^2, exact through 0
    first_cell = ((1.5 * h) ** (2.0 - two_s) - (0.5 * h) ** (2.0 - two_s)) / (2.0 - two_s) / h**2
    omega[1] += first_cell
    if K >= 2:
        off, w = _gauss_nodes(np.asarray([-0.5, 0.5]) * h, 12)  # t - kh across one cell
        f = (np.arange(2, K + 1)[:, None] * h + off) ** (-1.0 - two_s) * w
        m0, m1, m2 = (f @ np.stack([np.ones_like(off), off, off**2], axis=1)).T
        omega[1:K] += (m2 - h * m1) / (2.0 * h**2)
        omega[2:K + 1] += m0 - m2 / h**2
        omega[3:K + 2] += (m2 + h * m1) / (2.0 * h**2)

    if omega[1:].min() < 0.0:
        raise ConfigurationError("quadratic cell weights lost positivity")
    return omega, first_cell


def _toeplitz_first_column(t: np.ndarray) -> np.ndarray:
    """First column of T^-1 for the SPD symmetric Toeplitz T with first column t.

    Durbin's recursion (Golub & Van Loan, Alg. 4.7.1) on the Yule-Walker
    system of t / t_0: step k costs one dot product and one reversed axpy.
    T is positive definite exactly when every reflection coefficient has
    |alpha| < 1, so a coefficient outside that range raises.
    """
    N = t.size
    r = t[1:] / t[0]
    r_rev = r[::-1].copy()
    x = np.zeros(N)  # x[1:k+1] holds the order-k Yule-Walker solution
    x[0] = 1.0
    beta, alpha = 1.0, (-r[0] if N > 1 else 0.0)
    for k in range(1, N):
        if not abs(alpha) < 1.0:
            raise ConfigurationError(f"Toeplitz kernel is not positive definite (reflection {alpha:.3g})")
        beta *= 1.0 - alpha * alpha
        x[k] = alpha
        if k < N - 1:
            alpha = -(r[k] + r_rev[N - 1 - k:] @ x[1:k + 1]) / beta
            x[1:k + 1] += alpha * x[k:0:-1]
    return x / (beta * t[0])


# lu_factor/lu_solve keep the names of the LAPACK pair they replaced:
# perfbench/tracer.py rebinds them here and times lu_factor as the factor step.
def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A small dense block and its explicit inverse, for ``lu_solve``."""
    return a, np.linalg.inv(a)


def lu_solve(fac: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """A^-1 b by the stored inverse plus one step of iterative refinement.

    With the refinement step the residual matches that of an LU solve; a
    bare inverse leaves about seven times more on the gap block.
    """
    a, inv = fac
    x = inv @ b
    return x + inv @ (b - a @ x)


_BL_CACHE: dict[tuple[float, float], float] = {}


def _rate_profile_integral(s: float, e: float) -> float:
    """Paired kernel integral of the boundary-rate profile dist^e on (0, 3 delta].

    With tau = t/delta, returns
    int_0^1 (2-(1-tau)^e-(1+tau)^e) tau^(-1-2s) dtau
      + int_1^3 (2-(1+tau)^e) tau^(-1-2s) dtau,
    the dimensionless row weight of a dist^e local profile cut at the
    boundary (the beyond-boundary range is fed by exterior data separately).
    """
    key = (s, e)
    if key not in _BL_CACHE:
        def integrate(edges: np.ndarray, fn) -> float:
            tau, w = _gauss_nodes(edges)
            return float(fn(tau) @ w)

        def pair_gap(tau: np.ndarray) -> np.ndarray:
            # 2 - (1-tau)^e - (1+tau)^e, series below the cancellation threshold
            direct = 2.0 - (1.0 - tau) ** e - (1.0 + tau) ** e
            series = e * (1.0 - e) * tau**2 * (1.0 + (e - 2.0) * (e - 3.0) * tau**2 / 12.0)
            return np.where(tau < 1e-3, series, direct)

        # sorted, and clustered at both ends: 0, 2^-40 .. 1/2, 1 - 2^-2 .. 1 - 2^-40, 1
        inner_edges = np.concatenate([
            [0.0], 2.0 ** np.arange(-40.0, 0.0), 1.0 - 2.0 ** np.arange(-2.0, -41.0, -1.0), [1.0],
        ])
        part1 = integrate(inner_edges, lambda tau: pair_gap(tau) * tau ** (-1.0 - 2.0 * s))
        part2 = integrate(
            np.linspace(1.0, 3.0, 17),
            lambda tau: (2.0 - (1.0 + tau) ** e) * tau ** (-1.0 - 2.0 * s),
        )
        _BL_CACHE[key] = part1 + part2
    return _BL_CACHE[key]


class _Assembly:
    """The operator A = c_ns (T_SS + E_C P_C^T), its exterior rhs and its solver."""

    def __init__(self, problem: GridProblem):
        p = problem
        s, h, c_ns = p.params.s, p.h, p.params.c_ns
        two_s = 2.0 * s
        li = p.interior_indices()
        K = p.window()
        N = int(li[-1] - li[0]) + 1  # hull size
        if N > K:
            raise ConfigurationError("truncation window smaller than the domain span")
        omega, omega1 = _pair_weights(K, h, s)
        c2 = (h / 2.0) ** (2.0 - two_s) / (2.0 - two_s) / h**2
        T = (K + 0.5) * h
        tail_k = T ** (-two_s) / two_s
        t = -omega[:N]
        t[1:2] -= c2
        t[0] = 2.0 * omega.sum() + 2.0 * c2 + 2.0 * tail_k

        # couplings into boundary-layer nodes carry the dist^s cell-average
        # factor phi: a cell integral sampling a layer node sees the average
        # of the boundary-rate profile, not its center value
        x = (li + 0.5) * h
        delta = p.distance_to_complement()
        C = np.nonzero(delta <= 2.5 * h)[0]
        dC, iC = delta[C], np.arange(C.size)
        phi = ((dC + 0.5 * h) ** (1.0 + s) - (dC - 0.5 * h) ** (1.0 + s)) / (h * (1.0 + s) * dC**s)
        ends = np.asarray(p.intervals).ravel()
        x_b = ends[np.abs(ends[None, :] - x[C, None]).argmin(axis=1)]
        g_b = p.exterior.evaluate(x_b + np.copysign(1e-12, x_b - x[C]), p.params)
        DC = np.abs(li[:, None] - li[C][None, :])
        AC = -omega[DC] * phi - c2 * (DC == 1)  # the layer columns A[:, C] / c_ns
        AC[C, iC] = t[0]

        # Nodes touching the boundary: both the quadratic near-cell model and
        # the first-cell parabola are wrong where the solution carries the
        # dist^s boundary rate.  Their whole range (0, 3h/2] is replaced by
        # the exact paired integral of the two-parameter local model
        # g_b + c1 dist^s + c2 dist^(s+1) fitted through the node and its
        # interior neighbour; the beyond-boundary part is fed by the exterior
        # data.  The neighbour weight is negative (the s+1 profile integral
        # is), so the M-matrix sign pattern survives.
        rows = np.nonzero(dC <= 0.75 * h)[0]
        iB, dB = C[rows], dC[rows, None]
        coef = dB[:, 0] ** (-two_s) * _rate_profile_integral(s, s)
        AC[iB, rows] += coef - 2.0 * c2 - 2.0 * omega1
        AC[iB] += (DC[iB] == 1) * (c2 + omega1 * phi)
        reach = K + 1
        lat = np.arange(li[0] - reach, li[-1] + reach + 1)
        g = p.exterior.evaluate((lat + 0.5) * h, p.params)
        tau, w = _gauss_nodes(np.linspace(1.0, 3.0, 9))
        side = np.sign(x_b[rows] - x[iB])[:, None]
        gd = p.exterior.evaluate(x[iB, None] + side * dB * tau, p.params) - g_b[rows, None]
        fix = omega[DC] @ ((1.0 - phi) * g_b)
        fix[iB] += coef * g_b[rows] + ((dB * tau) ** (-1.0 - two_s) * gd) @ w * dB[:, 0]
        # the dropped stencils may have leaned on an exterior neighbour
        nb = li[iB, None] + np.asarray([-1, 1])
        fix[iB] -= (c2 + omega1) * (g[nb - lat[0]] * np.isin(nb, li, invert=True)).sum(axis=1)

        # exterior contribution on the rhs
        g[li - lat[0]] = 0.0
        kernel = np.concatenate([omega[:0:-1], [0.0], omega[1:]])
        kernel[[reach - 1, reach + 1]] += c2
        ext = np.convolve(g, kernel, mode="valid")[li - li[0]] if g.any() else 0.0
        if p.exterior.has_tail():
            ext = ext + _exterior_tail_batch(lambda y: p.exterior.evaluate(y, p.params), x, T, s)
        self.ext_rhs = c_ns * (ext + fix)

        # M-matrix sanity: nonpositive off-diagonals (those of T are -omega
        # and -c2), strict dominance.  The margin diag - sum_j!=i |A_ij| of
        # hull row q of T is spare + R[q+1] + R[N-q], with R the tail sums of
        # the kernel mass |t_m| and spare = t_0 - 2 sum_m |t_m| summed exactly
        # (2 tail_k up to the rounding of t_0); gap and layer columns correct it
        off = AC.copy()
        off[C, iC] = -np.inf
        if off.max() > 1e-14 * max(t[0], np.abs(AC).max()):
            raise ConfigurationError("assembly lost the M-matrix sign pattern")
        mass = omega.copy()
        mass[1] += c2
        R = np.cumsum(mass[::-1])[::-1]
        spare = math.fsum([t[0], *(-2.0 * mass[1:]).tolist()])
        q = li - li[0]
        gaps = np.stack([q[:-1] + 1, q[1:] - 1])[:, np.diff(q) > 1]
        dist = np.abs(q[:, None, None] - gaps.T[None])  # row to both ends of each gap
        near, far = dist.min(axis=2), dist.max(axis=2)
        corr = np.abs(t[DC]) - np.abs(AC)
        corr[C, iC] = AC[C, iC] - t[0]
        margin = spare + R[q + 1] + R[N - q] + (R[near] - R[far + 1]).sum(axis=1) + corr.sum(axis=1)
        if margin.min() <= 0.0:
            raise ConfigurationError("assembly lost row diagonal dominance")
        self.dominance = c_ns * margin

        # solver: Gohberg-Semencul T^-1 from the first column x of T^-1,
        # T^-1 = (L(x) L(x)^T - L(y) L(y)^T) / x_0 with y = (0, x_N-1, ..., x_1)
        self.nfft = 1 << (2 * N - 1).bit_length()
        circ = np.zeros(self.nfft)
        circ[:N], circ[self.nfft - N + 1:] = t, t[:0:-1]
        self.ft = rfft(circ)
        xt = _toeplitz_first_column(t)
        yt = np.r_[0.0, xt[:0:-1]]
        self.x0 = xt[0]
        self.gs = rfft(np.stack([xt, yt]), self.nfft, axis=1)[:, :, None]
        self.t, self.N, self.q, self.C, self.c_ns = t, N, q, C, c_ns
        is_gap = np.ones(N, dtype=bool)
        is_gap[q] = False
        gap, self.gap = np.nonzero(is_gap)[0], None
        if gap.size:
            # columns of T^-1 at the gap nodes by the Trench recurrence
            # (T^-1)_{i+1,j+1} = (T^-1)_{ij} + (x_{i+1} x_{j+1} - y_{i+1} y_{j+1}) / x_0
            col, cols = xt, []
            for j in range(1, gap[-1] + 1):
                col = np.concatenate(([xt[j]], col[:-1] + (xt[1:] * xt[j] - yt[1:] * yt[j]) / self.x0))
                if is_gap[j]:
                    cols.append(col)
            mg = np.stack(cols, axis=1)
            self.gap = (gap, mg[q], lu_factor(mg[gap]))
        self.EC = AC - t[DC]
        # 2-norm bound: |T_SS| <= |T|_inf = t_0 + 2 sum |t_m| < 2 t_0 (dominance)
        self.norm = c_ns * (2.0 * t[0] + np.linalg.norm(self.EC))
        self.Z = self._ss_inv(self.EC)
        self.cap = lu_factor(np.eye(C.size) + self.Z[C])
        self.nodes = x

    def _tinv(self, w: np.ndarray) -> np.ndarray:
        """T^-1 w for the hull Toeplitz T, column by column."""
        f, fx, fy = self.nfft, self.gs[0], self.gs[1]
        fw = rfft(w[::-1], f, axis=0)
        a = irfft(fx * fw, f, axis=0)[:self.N][::-1]  # L(x)^T w
        b = irfft(fy * fw, f, axis=0)[:self.N][::-1]  # L(y)^T w
        lab = fx * rfft(a, f, axis=0) - fy * rfft(b, f, axis=0)
        return irfft(lab, f, axis=0)[:self.N] / self.x0

    def _ss_inv(self, w: np.ndarray) -> np.ndarray:
        """T_SS^-1 w: the hull inverse with the gap nodes eliminated (Schur complement)."""
        full = np.zeros((self.N, w.shape[1]))
        full[self.q] = w
        y = self._tinv(full)
        if self.gap is None:
            return y[self.q]
        gap, mg, gap_lu = self.gap
        return y[self.q] - mg @ lu_solve(gap_lu, y[gap])

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._ss_inv(b[:, None] / self.c_ns)[:, 0]
        return y - self.Z @ lu_solve(self.cap, y[self.C])

    def matvec(self, u: np.ndarray) -> np.ndarray:
        full = np.zeros(self.nfft)
        full[self.q] = u
        tu = irfft(self.ft * rfft(full), self.nfft)[self.q]
        return self.c_ns * (tu + self.EC @ u[self.C])


_ASSEMBLY_CACHE: dict[tuple, _Assembly] = {}


def _assembly(problem: GridProblem) -> _Assembly:
    if problem.exterior.kind == "custom":
        return _Assembly(problem)  # callable identity is not a safe cache key
    key = problem.grid_key()
    if key not in _ASSEMBLY_CACHE:
        if len(_ASSEMBLY_CACHE) > 32:
            _ASSEMBLY_CACHE.clear()
        _ASSEMBLY_CACHE[key] = _Assembly(problem)
    return _ASSEMBLY_CACHE[key]


def solve_dirichlet(problem: GridProblem) -> DiscreteSolution:
    """Solve the discrete Dirichlet problem; the solve never mutates its problem."""
    asm = _assembly(problem)
    b = problem.rhs_values() + asm.ext_rhs
    u = asm.solve(b)
    residual = float(np.linalg.norm(asm.matvec(u) - b))
    # normwise backward error (Rigal-Gaches): a stable solve leaves
    # |r| <= c eps (|A| |u| + |b|); c = N, the hull size (Higham's gamma_N)
    bound = asm.N * _EPS * (asm.norm * float(np.linalg.norm(u)) + float(np.linalg.norm(b)))
    if residual > bound:
        raise NumericalError(f"linear solve residual {residual:.2e} exceeds the backward-error "
                             f"bound {bound:.2e}")
    return DiscreteSolution(problem, u, residual)


def apply_operator(problem: GridProblem, interior_values: np.ndarray) -> np.ndarray:
    """Assembled operator applied to given interior values (exterior from the problem)."""
    asm = _assembly(problem)
    vals = np.asarray(interior_values, dtype=float)
    if vals.shape != asm.nodes.shape:
        raise ConfigurationError("value array does not match the interior nodes")
    return asm.matvec(vals) - asm.ext_rhs


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    max_violation: float


def verify_comparison(p1: GridProblem, p2: GridProblem, tol: float = 1e-10) -> ComparisonReport:
    """Ordered data imply ordered solutions: v1 <= v2 + tol nodewise."""
    if p1.intervals != p2.intervals or p1.h != p2.h or p1.params != p2.params:
        raise ConfigurationError("comparison requires identical grids and parameters")
    r1, r2 = p1.rhs_values(), p2.rhs_values()
    if np.any(r1 > r2 + 1e-13 * (1.0 + np.abs(r2))):
        raise ConfigurationError("rhs of the first problem must not exceed the second")
    # the exterior lattice on both sides and in the gaps, out to the truncation radius
    li = p1.interior_indices()
    reach = max(p1.window(), p2.window()) + 1
    lattice = np.arange(li[0] - reach, li[-1] + reach + 1)
    probe = (lattice[np.isin(lattice, li, invert=True, kind="table")] + 0.5) * p1.h
    g1 = p1.exterior.evaluate(probe, p1.params)
    g2 = p2.exterior.evaluate(probe, p2.params)
    if np.any(g1 > g2 + 1e-12):
        raise ConfigurationError("exterior data of the first problem must not exceed the second")
    v1 = solve_dirichlet(p1).values
    v2 = solve_dirichlet(p2).values
    violation = float((v1 - v2).max())
    return ComparisonReport(passed=violation <= tol, max_violation=violation)


@dataclass(frozen=True)
class HopfReport:
    min_ratio: float
    c_estimate: float
    c_estimate_refined: float
    stable: bool


def verify_hopf_ratio(problem: GridProblem, stability_tol: float = 0.2) -> HopfReport:
    """Boundary-rate bound: min over nodes of v/delta^s against the forcing mass."""
    rhs = problem.rhs_values()
    if np.any(rhs < 0.0):
        raise DomainError("the boundary-rate verifier requires nonnegative forcing")
    if not np.any(rhs > 0.0):
        raise DegenerateInputError("forcing vanishes identically; both sides are zero")
    if problem.exterior.kind != "zero":
        raise ConfigurationError("the boundary-rate verifier requires zero exterior data")

    def estimate(p: GridProblem) -> tuple[float, float]:
        sol = solve_dirichlet(p)
        delta = p.distance_to_complement()
        ratio = sol.values / delta ** p.params.s
        mass = float((p.rhs_values() * delta ** p.params.s).sum() * p.h)
        return float(ratio.min()), float(ratio.min() / mass)

    min_ratio, c_est = estimate(problem)
    _, c_ref = estimate(problem.refined())
    stable = abs(c_ref - c_est) <= stability_tol * abs(c_est)
    return HopfReport(min_ratio, c_est, c_ref, stable)


@dataclass(frozen=True)
class KslapReport:
    c_bar: float
    per_set: tuple[tuple[str, float], ...]
    skipped: tuple[str, ...]


def _set_measure(sets: Sequence[tuple[float, float]]) -> float:
    return float(sum(b - a for a, b in sets))


def verify_kslap(rhs: Callable | Sequence[float], battery: Sequence[Sequence[tuple[float, float]]],
                 params: FracParams, h: float = 1.0 / 64.0) -> KslapReport:
    """Annulus infimum against forcing mass on subsets of the target annulus.

    Solves once on the two-sided annulus domain and reports the smallest
    ratio inf u / (|A| inf_A rhs) over the battery of node-aligned sets A.
    """
    problem = GridProblem(ANNULUS_DOMAIN, h, params, rhs)
    sol = solve_dirichlet(problem)
    inf_target = sol.min_on(ANNULUS_TARGET)
    rvals = problem.rhs_values()
    x = sol.nodes
    per: list[tuple[str, float]] = []
    skipped: list[str] = []
    for sets in battery:
        label = ",".join(f"({a:g},{b:g})" for a, b in sets)
        mask = _mask_on(x, sets)
        if not mask.any():
            raise ConfigurationError(f"set {label} contains no nodes")
        inf_a = float(rvals[mask].min())
        if inf_a <= 0.0:
            skipped.append(label)
            continue
        per.append((label, inf_target / (_set_measure(sets) * inf_a)))
    if not per:
        raise DegenerateInputError("every battery set had vanishing forcing infimum")
    c_bar = min(v for _, v in per)
    return KslapReport(c_bar, tuple(per), tuple(skipped))


@dataclass(frozen=True)
class QsmpReport:
    c0: float
    c0_refined: float
    stable: bool


def verify_qsmp(omega: Sequence[tuple[float, float]], K: Sequence[tuple[float, float]],
                A: Sequence[tuple[float, float]], params: FracParams,
                variant: str = "I", h: float = 1.0 / 64.0,
                stability_tol: float = 0.3) -> QsmpReport:
    """Compact-set positivity constant for forcing by an indicator.

    Variant I solves with zero exterior and reports min_K v; variant II puts
    the nonnegative fundamental branch outside (origin must avoid the domain)
    and reports min_K (v - Phi*).
    """
    if _set_measure(A) <= 0.0:
        raise ConfigurationError("the forcing set must have positive measure")
    if variant not in ("I", "II"):
        raise ConfigurationError("variant must be 'I' or 'II'")
    if variant == "II":
        for a, b in omega:
            if a <= 0.0 <= b:
                raise ConfigurationError("variant II requires the origin outside the domain")

    def estimate(hh: float) -> float:
        ext = ExteriorData("zero") if variant == "I" else ExteriorData("fundamental")
        rhs = lambda x: _mask_on(np.asarray(x), A).astype(float)
        sol = solve_dirichlet(GridProblem(tuple(omega), hh, params, rhs, ext))
        mask = _mask_on(sol.nodes, K)
        if not mask.any():
            raise ConfigurationError("the compact set contains no nodes")
        if variant == "I":
            return float(sol.values[mask].min())
        phi = positive_fundamental(params)(np.abs(sol.nodes[mask]))
        return float((sol.values[mask] - phi).min())

    c0 = estimate(h)
    c0_ref = estimate(h / 2.0)
    stable = abs(c0_ref - c0) <= stability_tol * max(abs(c0), abs(c0_ref))
    return QsmpReport(c0, c0_ref, stable)


@dataclass(frozen=True)
class MeasureReport:
    c_bar: float
    nu: float
    sampled_points: int


def verify_measure_lemma(solution: DiscreteSolution, nu: float, x0_count: int = 12,
                         grid_ratio: float = 1.25, max_steps: int = 60) -> MeasureReport:
    """Smallest lattice constant C with |{u <= C u(x0)} cap annulus| >= nu |annulus|.

    The supersolution property is certified through the defining problem:
    its forcing must be nonnegative.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError("the measure fraction must lie in (0, 1)")
    rhs = solution.problem.rhs_values()
    if np.any(rhs < -1e-12):
        raise DomainError("values are not a discrete supersolution (negative forcing)")
    if np.any(solution.values < -1e-12):
        raise DomainError("supersolution values must be nonnegative")
    x = solution.nodes
    mask = _mask_on(x, ANNULUS_TARGET)
    if not mask.any():
        raise ConfigurationError("solution grid does not cover the target annulus")
    u_ann = solution.values[mask]
    h = solution.problem.h
    target = nu * _set_measure(ANNULUS_TARGET)
    step = max(1, u_ann.size // x0_count)
    samples = u_ann[::step]
    for kpow in range(max_steps):
        c = grid_ratio**kpow
        if all((u_ann <= c * u0).sum() * h >= target for u0 in samples):
            return MeasureReport(float(c), nu, int(samples.size))
    raise DegenerateInputError("no lattice constant satisfied the measure condition")
