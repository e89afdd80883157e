"""1-d nonlocal Dirichlet solver with a discrete comparison principle.

Collocation on a cell-centered uniform lattice x_j = (j + 1/2) h.  At a node,
the operator is split into the half-cell around the node (quadratic Taylor
correction), exact kernel integrals over whole cells out to a truncation
distance, and closed-form tails beyond it: the kernel's on the diagonal, the
fundamental exterior data's on the rhs.  All off-diagonal weights are
nonpositive and every row is strictly diagonally dominant, so the operator
matrix is an M-matrix and ordered data produce ordered solutions.

The matrix is never formed.  It is A = c_ns (T_SS + E_C P_C^T): T is the
symmetric Toeplitz kernel on the hull lattice of the domain and T_SS its
restriction to the interior indices S; E_C holds every edit, all of which sit
in the layer columns C (nodes within 2.5h of an endpoint, 3 per endpoint):
the dist^s cell-average column scaling and the rewritten boundary rows.  T^-1
is applied by the Gohberg-Semencul formula (four triangular-Toeplitz
products in four batched FFTs, from the first column of T^-1).  One
preconditioned CG, ``_pcg``, does every Krylov solve: that first column
(Strang's circulant as preconditioner, positive definite by the same
Gershgorin margin that certifies T) and, with gap nodes in the hull,
T_SS^-1 (preconditioned by (T^-1)_SS: domain embedding, Borgers & Widlund
1990), the Woodbury columns T_SS^-1 E_C as one block in one Krylov space.
On the annulus, three intervals and (-10, -9) u (9, 10) the block takes 3
steps at h = 2^-6 and 3-6 at 2^-12, a single rhs 5-7 and 6-11: slowly more
as h shrinks, about one step per two halvings.  The edits go through the
Woodbury capacitance I + (T_SS^-1 E_C)_C.  A block of rows goes through
the FFTs of T and T^-1 in row groups of at most _FFT_ELEMENTS elements
(one row where nfft is larger), so the temporaries stay hull-sized.  A
solve is O(n log n) and memory O(n |C|) on every domain.  The sign-pattern
and dominance checks read the kernel vector and the layer columns.

Verifiers on top of the solver estimate the boundary-rate ratio, the
forcing-mass lower bound on annuli, compact-set positivity constants, and the
sublevel-measure constant for discrete supersolutions.  Constants are
estimated, never proven; each verifier reports refinement stability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    "ANNULUS_FORCING", "annulus_forcing",
]

# geometry used by the quantitative maximum-principle verifiers
ANNULUS_DOMAIN = ((-3.0, -0.5), (0.5, 3.0))
ANNULUS_TARGET = ((-2.0, -1.0), (1.0, 2.0))
ANNULUS_FORCING = ((-1.625, -1.375), (1.375, 1.625))


def annulus_forcing(x) -> np.ndarray:
    """Indicator of ANNULUS_FORCING, the forcing of the annulus verifiers."""
    return _mask_on(np.asarray(x), ANNULUS_FORCING).astype(float)


_ALIGN_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_COMPARISON_TOL = 1e-10  # verify_comparison: allowed excess of v1 over v2
# refinement stability: relative change of the constant from h to h/2 that counts as stable
_HOPF_STABILITY, _QSMP_STABILITY = 0.2, 0.3
# verify_measure_lemma: sampled base points x0, ratio of the lattice of C, steps tried
_MEASURE_X0_COUNT, _MEASURE_GRID_RATIO, _MEASURE_MAX_STEPS = 12, 1.25, 60
# _pcg, the one CG: iteration cap, steps between true-residual replacements
_CG_MAX_ITER, _CG_CHECK_EVERY = 300, 8
# _Assembly._t and _tinv: rows x nfft per FFT call.  Hulls of nfft >= 2^13 (h <= 2^-11 on (-1, 1))
# go row by row, which with the node-by-node moments of _pair_weights cut the peak RSS of a
# dirichlet benchmark pass by 2.1 MB.  One row everywhere cut no more, but slowed the 12-row gap
# CG of the 192-node hull (nfft 512) that liouville's c_bar builds at h = 1/32 from 3.0 to 4.5 ms
_FFT_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class ExteriorData:
    """Values of the unknown outside the domain.

    kind 'zero' vanishes identically; 'fundamental' uses the nonnegative
    fundamental-solution branch for the given order, its tail beyond the window
    in closed form; 'custom', the only kind that takes a callable, evaluates it
    on the truncation window and is assumed to vanish beyond it.
    """

    kind: str = "zero"
    fn: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "fundamental", "custom"):
            raise ConfigurationError(f"unknown exterior kind {self.kind!r}")
        if (self.kind == "custom") != (self.fn is not None):
            raise ConfigurationError("custom exterior data need a callable, and only they take one")

    def evaluate(self, x: np.ndarray, params: FracParams) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "fundamental":
            return np.asarray(positive_fundamental(params)(np.abs(x)), dtype=float)
        return conform(self.fn(x), x.shape, "exterior data")


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

    def __post_init__(self) -> None:
        if self.params.n != 1:
            raise ConfigurationError("the discrete solver is one-dimensional")
        if not 0.0 < self.h < math.inf:
            raise ConfigurationError(f"grid spacing must be positive and finite, not {self.h}")
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
        if self.exterior.kind == "fundamental" and self.params.s <= 0.5 and any(0.0 in iv for iv in ivs):
            raise ConfigurationError("fundamental exterior data are unbounded at the boundary point 0 for s <= 1/2")
        object.__setattr__(self, "intervals", ivs)

    # -- lattice ----------------------------------------------------------

    def interior_indices(self) -> np.ndarray:
        return np.concatenate([np.arange(round(a / self.h), round(b / self.h))
                               for a, b in self.intervals])

    def nodes(self) -> np.ndarray:
        return (self.interior_indices() + 0.5) * self.h

    def rhs_values(self) -> np.ndarray:
        return self._rhs_on(self.nodes())

    def _rhs_on(self, x: np.ndarray) -> np.ndarray:
        return conform(self.rhs(x) if callable(self.rhs) else self.rhs, x.shape, "rhs")

    def distance_to_complement(self) -> np.ndarray:
        """Node to nearest endpoint from lattice indices (x - a misses it at non-dyadic h)."""
        cells = [round(b / self.h) - round(a / self.h) for a, b in self.intervals]
        k = np.concatenate([np.minimum(np.arange(m) + 0.5, m - 0.5 - np.arange(m)) for m in cells])
        return k * self.h

    def window(self) -> int:
        """Truncation window K: kernel cells run to K h = 4 max(1, span), data beyond it enter as a tail."""
        span = self.intervals[-1][1] - self.intervals[0][0]
        return int(round(4.0 * max(1.0, span) / self.h))

    def refined(self) -> "GridProblem":
        """The same problem on the grid of half the spacing."""
        return GridProblem(self.intervals, self.h / 2.0, self.params, self.rhs, self.exterior)

    def grid_key(self) -> tuple:
        """What the operator depends on: grid and order; the exterior data only move the rhs."""
        return (self.intervals, self.h, self.params.n, self.params.s)


@dataclass
class DiscreteSolution:
    """Nodal values of a discrete Dirichlet solution plus solve metadata."""

    problem: GridProblem
    values: np.ndarray
    residual_norm: float
    nodes: np.ndarray

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


def _fundamental_tail(x: np.ndarray, T: float, params: FracParams) -> np.ndarray:
    """int_T^inf t^(-1-2s) (Phi(|x+t|) + Phi(|x-t|)) dt at the nodes x != 0, Phi the fundamental data.

    u = 1/t turns it into int_0^(1/T) Phi(|1 + xu|) + Phi(|1 - xu|) du, less 2 log u on the log branch,
    whose antiderivative is elementary in e = |x|/T: (G(1 + e) - G(1 - e)) / (2s |x|), G(v) = sign(v) |v|^(2s),
    for |y|^(2s-1).  Below |x| = T the two ends come from log1p (and expm1), so small e does not cancel;
    above it they add.  The branch is read from the data's own term, so the two cannot disagree."""
    [[(coef, expo, is_log)]] = positive_fundamental(params).pieces
    a = np.abs(x)
    below = a < T
    e, lo, d = a / T, np.where(below, a / T, 0.0), np.maximum(a - T, 0.0) / T  # lo = e below T, d = e - 1 above
    if is_log:
        ends = np.where(below, (1.0 + lo) * np.log1p(lo) - (1.0 - lo) * np.log1p(-lo),
                        (1.0 + e) * np.log1p(e) + d * np.log(np.where(d > 0.0, d, 1.0)))
        return coef * ((ends - 2.0 * e) / a + 2.0 * (1.0 + math.log(T)) / T)
    k = expo + 1.0  # 2s
    ends = np.where(below, np.expm1(k * np.log1p(lo)) - np.expm1(k * np.log1p(-lo)), (1.0 + e) ** k + d**k)
    return coef * ends / (k * a)


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
        centre = np.arange(2, K + 1) * h
        m0, m1, m2 = np.zeros((3, K - 1))
        for o, wo in zip(off.tolist(), w.tolist()):  # node by node: no (K x 12) block
            f = (centre + o) ** (-1.0 - two_s)
            f *= wo
            m0 += f
            f *= o
            m1 += f
            f *= o
            m2 += f
        omega[1:K] += (m2 - h * m1) / (2.0 * h**2)
        omega[2:K + 1] += m0 - m2 / h**2
        omega[3:K + 2] += (m2 + h * m1) / (2.0 * h**2)

    if omega[1:].min() < 0.0:
        raise ConfigurationError("quadratic cell weights lost positivity")
    return omega, first_cell


def _circulant(t: np.ndarray) -> tuple[int, np.ndarray]:
    """Length and spectrum of the circulant that embeds the symmetric Toeplitz T with first column t."""
    N = t.size
    nfft = 1 << (2 * N - 1).bit_length()
    circ = np.zeros(nfft)
    circ[:N], circ[nfft - N + 1:] = t, t[:0:-1]
    return nfft, rfft(circ)


def _pcg(apply_a: Callable, apply_m: Callable, b: np.ndarray, tol: float, what: str) -> np.ndarray:
    """A x = b for the rows of b by block CG preconditioned with M: one Krylov space for all rows.

    The one CG of the solver: the Toeplitz first column, the gap solve and the Woodbury block.
    Each step takes the Galerkin solution on the block of search directions, which QR keeps
    orthonormal so that the k x k step matrices stay well conditioned as rows converge
    (Dubrulle 2001, ETNA 12); one row is plain CG, blind to the scale of p, so no QR.  The
    true residual replaces the recursive one every _CG_CHECK_EVERY steps, or once every
    row's recursive one meets the stop; the solve ends when |b - A x| <= tol |x| holds in
    every row for the true residual, and raises after _CG_MAX_ITER steps.
    """
    def norms(v: np.ndarray) -> np.ndarray:
        return np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])

    def orth(v: np.ndarray) -> np.ndarray:
        return np.linalg.qr(v.T)[0].T if len(v) > 1 else v

    x, r = np.zeros_like(b), b.copy()
    if not b.any():
        return x
    p = orth(apply_m(r))
    for it in range(1, _CG_MAX_ITER + 1):
        q = apply_a(p)
        g = np.linalg.inv(p @ q.T) if len(p) > 1 else 1.0 / (p @ q.T)  # the same bits, faster
        alpha = (g @ (p @ r.T)).T
        x += alpha @ p
        r -= alpha @ q
        bound = tol * norms(x)
        if it % _CG_CHECK_EVERY == 0 or (norms(r) <= bound).all():
            r = b - apply_a(x)
            if (norms(r) <= bound).all():
                return x
        z = apply_m(r)
        p = orth(z - (g @ (q @ z.T)).T @ p)  # A-conjugate to the last block
    raise NumericalError(f"{what}: preconditioned CG left |b - A x| above {tol:.3g} |x| "
                         f"after {_CG_MAX_ITER} iterations")


def _strang_spectrum(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of Strang's circulant for the symmetric Toeplitz T with first column t: the
    circulant of length N with first column t_0, t_1 ... t_(N//2), wrapped (c_j = c_(N-j))."""
    N = t.size
    return rfft(np.r_[t[:N // 2 + 1], t[(N - 1) // 2:0:-1]]).real


def _toeplitz_first_column(t: np.ndarray) -> np.ndarray:
    """First column of T^-1 for the symmetric Toeplitz T with first column t.

    ``_pcg`` on T x = e_1, preconditioned by Strang's circulant (R. Chan &
    Strang 1989; ``_strang_spectrum``, applied by FFT of length N); T v goes
    through the circulant embedding of T.  Strict diagonal dominance,
    t_0 - 2 sum |t_m| > 0 summed exactly, certifies by Gershgorin that T is
    positive definite; without it the kernel is rejected.  Strang's
    off-diagonal entries are t_m for m <= N/2, each at most twice, so the
    same margin bounds its spectrum from below.  The solve stops at
    |T x - e_1| <= eps |T|_inf |x| on the true residual.  For
    0.1 <= s <= 0.99, h = 2^-5 ... 2^-13 on (-1, 1), (-3, 3) and (-10, 10)
    it applies T 9-22 times, about flat in N; T. Chan's optimal circulant
    took up to 270 and hit the cap.  At s = 0.01 the stop sits at the FFT
    rounding floor, and fine grids can hit the cap under either.
    """
    N = t.size
    spare = math.fsum([t[0], *(-2.0 * np.abs(t[1:])).tolist()]) if np.isfinite(t).all() else math.nan
    if not spare > 0.0:
        raise ConfigurationError(f"Toeplitz kernel is not positive definite by Gershgorin "
                                 f"(t_0 - 2 sum |t_m| = {spare:.3g})")
    nfft, ft = _circulant(t)
    spec = _strang_spectrum(t)
    return _pcg(lambda v: irfft(ft * rfft(v, nfft), nfft)[..., :N], lambda r: irfft(rfft(r) / spec, N),
                np.eye(1, N), _EPS * (t[0] + 2.0 * np.abs(t[1:]).sum()), "Toeplitz first column")[0]


# lu_factor/lu_solve keep the names of the LAPACK pair they replaced:
# perfbench/tracer.py rebinds them here and times lu_factor as the factor step.
def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A small dense block and its explicit inverse, for ``lu_solve``."""
    return a, np.linalg.inv(a)


def lu_solve(fac: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """A^-1 b by the stored inverse plus one step of iterative refinement, which keeps the
    residual at that of an LU solve."""
    a, inv = fac
    x = inv @ b
    return x + inv @ (b - a @ x)


@functools.cache
def _rate_profile_integral(s: float) -> float:
    """Paired kernel integral of the boundary-rate profile dist^s on (0, 3 delta].

    With tau = t/delta, returns
    int_0^1 (2-(1-tau)^s-(1+tau)^s) tau^(-1-2s) dtau
      + int_1^3 (2-(1+tau)^s) tau^(-1-2s) dtau,
    the dimensionless row weight of a dist^s local profile cut at the
    boundary (the beyond-boundary range is fed by exterior data separately).
    """
    def pair_gap(tau: np.ndarray) -> np.ndarray:
        # 2 - (1-tau)^s - (1+tau)^s, series below the cancellation threshold
        direct = 2.0 - (1.0 - tau) ** s - (1.0 + tau) ** s
        series = s * (1.0 - s) * tau**2 * (1.0 + (s - 2.0) * (s - 3.0) * tau**2 / 12.0)
        return np.where(tau < 1e-3, series, direct)

    # sorted, and clustered at both ends: 0, 2^-40 .. 1/2, 1 - 2^-2 .. 1 - 2^-40, 1
    tau, w = _gauss_nodes(np.concatenate([[0.0], 2.0 ** np.arange(-40.0, 0.0),
                                          1.0 - 2.0 ** np.arange(-2.0, -41.0, -1.0), [1.0]]))
    part1 = float((pair_gap(tau) * tau ** (-1.0 - 2.0 * s)) @ w)
    tau, w = _gauss_nodes(np.linspace(1.0, 3.0, 17))
    return part1 + float(((2.0 - (1.0 + tau) ** s) * tau ** (-1.0 - 2.0 * s)) @ w)


class _Assembly:
    """The operator A = c_ns (T_SS + E_C P_C^T) of a grid, its solver, and the exterior rhs of given data.

    Nothing here depends on the exterior data: they only enter the rhs, through
    ``exterior_rhs``.
    """

    def __init__(self, problem: GridProblem):
        p = problem
        s, h, c_ns = p.params.s, p.h, p.params.c_ns
        two_s = 2.0 * s
        li = p.interior_indices()
        K = p.window()
        N = int(li[-1] - li[0]) + 1  # hull size, below K
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
        coef = dB[:, 0] ** (-two_s) * _rate_profile_integral(s)
        AC[iB, rows] += coef - 2.0 * c2 - 2.0 * omega1
        AC[iB] += (DC[iB] == 1) * (c2 + omega1 * phi)
        # what the exterior rhs needs of the grid (see exterior_rhs), the O(K) pair weights included
        self.params, self.h, self.K, self.T, self.li = p.params, h, K, T, li
        self.phi, self.x_b, self.c2, self.omega, self.omega1 = phi, x_b, c2, omega, omega1
        self.rows, self.iB, self.dB, self.coef = rows, iB, dB, coef
        self.ext_cache: dict[str, np.ndarray] = {}

        # M-matrix sanity: nonpositive off-diagonals (those of T are -omega
        # and -c2), strict dominance.  The margin diag - sum_j!=i |A_ij| of
        # hull row q of T is spare + R[q+1] + R[N-q], with R the tail sums of
        # the kernel mass |t_m| and spare = t_0 - 2 sum_m |t_m| summed exactly
        # (2 tail_k up to the rounding of t_0); gap and layer columns correct it
        off = AC.copy()
        off[C, iC] = -np.inf
        if not off.max() <= 1e-14 * max(t[0], np.abs(AC).max()):  # NaN fails too
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
        if not margin.min() > 0.0:
            raise ConfigurationError("assembly lost row diagonal dominance")
        self.dominance = c_ns * margin

        # solver: Gohberg-Semencul T^-1 from the first column x of T^-1 (by
        # preconditioned CG, see _toeplitz_first_column),
        # T^-1 = (L(x) L(x)^T - L(y) L(y)^T) / x_0 with y = (0, x_N-1, ..., x_1)
        self.nfft, self.ft = _circulant(t)
        xt = _toeplitz_first_column(t)
        self.x0 = xt[0]
        self.gs = rfft(np.stack([xt, np.r_[0.0, xt[:0:-1]]]), self.nfft)
        self.t, self.N, self.q, self.C, self.c_ns, self.has_gaps = t, N, q, C, c_ns, q.size < N
        # gap CG stops at 4 log2(nfft) eps |T|_inf |x|: FFT rounding keeps some domains above 1 eps
        self.cg_tol = 4.0 * math.log2(self.nfft) * _EPS * (t[0] + 2.0 * np.abs(t[1:]).sum())
        self.EC = AC - t[DC]
        # 2-norm bound: |T_SS| <= |T|_inf = t_0 + 2 sum |t_m| < 2 t_0 (dominance)
        self.norm = c_ns * (2.0 * t[0] + np.linalg.norm(self.EC))
        self.Z = np.ascontiguousarray(self._ss_inv(self.EC.T).T)  # T_SS^-1 E_C, one block solve
        self.cap = lu_factor(np.eye(C.size) + self.Z[C])
        x.flags.writeable = False  # rhs callables see it; solutions get a copy
        self.nodes = x

    @functools.cached_property
    def exterior_probe(self) -> np.ndarray:
        """The exterior lattice nodes, on both sides and in the gaps, out to the truncation window."""
        li = self.li
        lattice = np.arange(li[0] - self.K - 1, li[-1] + self.K + 2)
        probe = (lattice[np.isin(lattice, li, invert=True, kind="table")] + 0.5) * self.h
        probe.flags.writeable = False  # shared by every comparison on the grid
        return probe

    def _in_row_groups(self, op: Callable, u: np.ndarray) -> np.ndarray:
        """op on the rows of u, in groups of at most _FFT_ELEMENTS // nfft rows (at least one)."""
        rows = max(1, _FFT_ELEMENTS // self.nfft)
        if u.ndim < 2 or len(u) <= rows:
            return op(u)
        return np.concatenate([op(u[i:i + rows]) for i in range(0, len(u), rows)])

    def _t(self, u: np.ndarray) -> np.ndarray:
        """T u for the hull Toeplitz T along the last axis, through its circulant embedding."""
        return self._in_row_groups(lambda v: irfft(self.ft * rfft(v, self.nfft), self.nfft)[..., :self.N], u)

    def _tinv(self, w: np.ndarray) -> np.ndarray:
        """T^-1 w for the hull Toeplitz T along the last axis, in four FFT calls per row group."""
        f, N = self.nfft, self.N
        gs = self.gs.reshape((2,) + (1,) * (w.ndim - 1) + (-1,))

        def group(v: np.ndarray) -> np.ndarray:
            ab = irfft(gs * rfft(v[..., ::-1], f), f)[..., :N][..., ::-1]  # L(x)^T v and L(y)^T v
            lab = gs * rfft(ab, f)
            return irfft(lab[0] - lab[1], f)[..., :N] / self.x0
        return self._in_row_groups(group, w)

    def _on_s(self, op: Callable, v: np.ndarray) -> np.ndarray:
        """P_S op(P_S^T v): a hull operator with v at the interior nodes and zero at the gap nodes."""
        if not self.has_gaps:
            return op(v)
        full = np.zeros(v.shape[:-1] + (self.N,))
        full[..., self.q] = v
        return op(full)[..., self.q]

    def _ss_inv(self, w: np.ndarray) -> np.ndarray:
        """T_SS^-1 w along the last axis: the hull inverse, or with gaps CG preconditioned by (T^-1)_SS."""
        if not self.has_gaps:
            return self._tinv(w)
        return _pcg(lambda v: self._on_s(self._t, v), lambda r: self._on_s(self._tinv, r),
                    np.atleast_2d(w), self.cg_tol, "gap solve").reshape(w.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._ss_inv(b / self.c_ns)
        return y - self.Z @ lu_solve(self.cap, y[self.C])

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.c_ns * (self._on_s(self._t, u) + self.EC @ u[self.C])

    def exterior_rhs(self, exterior: ExteriorData) -> np.ndarray:
        """e, the share of the rhs that the exterior data feed: A v = f + e."""
        params, h, li, x, C = self.params, self.h, self.li, self.nodes, self.C
        x_b, rows, iB, dB = self.x_b, self.rows, self.iB, self.dB
        omega, omega1, c2 = self.omega, self.omega1, self.c2
        two_s = 2.0 * params.s
        g_b = exterior.evaluate(x_b + np.copysign(1e-12, x_b - x[C]), params)
        reach = self.K + 1
        lat = np.arange(li[0] - reach, li[-1] + reach + 1)
        g = exterior.evaluate((lat + 0.5) * h, params)
        tau, w = _gauss_nodes(np.linspace(1.0, 3.0, 9))
        side = np.sign(x_b[rows] - x[iB])[:, None]
        gd = exterior.evaluate(x[iB, None] + side * dB * tau, params) - g_b[rows, None]
        fix = omega[np.abs(li[:, None] - li[C][None, :])] @ ((1.0 - self.phi) * g_b)
        fix[iB] += self.coef * g_b[rows] + ((dB * tau) ** (-1.0 - two_s) * gd) @ w * dB[:, 0]
        # the dropped stencils may have leaned on an exterior neighbour
        nb = li[iB, None] + np.asarray([-1, 1])
        fix[iB] -= (c2 + omega1) * (g[nb - lat[0]] * np.isin(nb, li, invert=True)).sum(axis=1)

        # exterior contribution on the rhs: g * kernel by FFT, of a length >= g.size (no wrap)
        g[li - lat[0]] = 0.0
        kernel = np.concatenate([omega[:0:-1], [0.0], omega[1:]])
        kernel[[reach - 1, reach + 1]] += c2
        f = 1 << (g.size - 1).bit_length()
        ext = irfft(rfft(g, f) * rfft(kernel, f), f)[2 * reach + li - li[0]] if g.any() else 0.0
        if exterior.kind == "fundamental":
            ext = ext + _fundamental_tail(x, self.T, params)
        return self.c_ns * (ext + fix)


_ASSEMBLY_CACHE: dict[tuple, _Assembly] = {}


def _assembly(problem: GridProblem) -> _Assembly:
    key = problem.grid_key()
    if key not in _ASSEMBLY_CACHE:
        if len(_ASSEMBLY_CACHE) > 32:
            _ASSEMBLY_CACHE.clear()
        _ASSEMBLY_CACHE[key] = _Assembly(problem)
    return _ASSEMBLY_CACHE[key]


def _ext_rhs(asm: _Assembly, problem: GridProblem) -> np.ndarray | float:
    """The exterior share of the rhs: none for zero data, cached per kind on the grid's assembly,
    custom data evaluated afresh."""
    exterior = problem.exterior
    if exterior.kind == "zero":
        return 0.0
    if exterior.kind == "custom":
        return asm.exterior_rhs(exterior)  # callable identity is not a safe cache key
    if exterior.kind not in asm.ext_cache:
        asm.ext_cache[exterior.kind] = asm.exterior_rhs(exterior)
    return asm.ext_cache[exterior.kind]


def solve_dirichlet(problem: GridProblem) -> DiscreteSolution:
    """Solve the discrete Dirichlet problem; the solve never mutates its problem."""
    asm = _assembly(problem)
    b = problem._rhs_on(asm.nodes) + _ext_rhs(asm, problem)
    u = asm.solve(b)
    r = asm.matvec(u) - b
    residual = math.sqrt(r @ r)
    # normwise backward error (Rigal-Gaches): a stable solve leaves
    # |r| <= c eps (|A| |u| + |b|); c = N, the hull size (Higham's gamma_N)
    bound = asm.N * _EPS * (asm.norm * math.sqrt(u @ u) + math.sqrt(b @ b))
    if not residual <= bound:  # NaN fails too
        raise NumericalError(f"linear solve residual {residual:.2e} exceeds the backward-error "
                             f"bound {bound:.2e}")
    return DiscreteSolution(problem, u, residual, asm.nodes.copy())


def apply_operator(problem: GridProblem, interior_values: np.ndarray) -> np.ndarray:
    """Assembled operator applied to given interior values (exterior from the problem)."""
    asm = _assembly(problem)
    vals = np.asarray(interior_values, dtype=float)
    if vals.shape != asm.nodes.shape:
        raise ConfigurationError("value array does not match the interior nodes")
    return asm.matvec(vals) - _ext_rhs(asm, problem)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    max_violation: float


def verify_comparison(p1: GridProblem, p2: GridProblem) -> ComparisonReport:
    """Ordered data imply ordered solutions: v1 <= v2 + tol nodewise.

    Both problems share the operator A (grid and order; exterior data only
    enter the rhs as e), so by linearity v1 - v2 = A^-1 (r1 - r2 + e1 - e2):
    one solve with zero exterior data, not the difference of two O(1) solutions.
    """
    if p1.intervals != p2.intervals or p1.h != p2.h or p1.params != p2.params:
        raise ConfigurationError("comparison requires identical grids and parameters")
    asm = _assembly(p1)
    r1, r2 = p1._rhs_on(asm.nodes), p2._rhs_on(asm.nodes)
    if np.any(r1 > r2 + 1e-13 * (1.0 + np.abs(r2))):
        raise ConfigurationError("rhs of the first problem must not exceed the second")
    if (p1.exterior.kind, p2.exterior.kind) != ("zero", "zero"):  # zero data are ordered
        g1 = p1.exterior.evaluate(asm.exterior_probe, p1.params)
        g2 = p2.exterior.evaluate(asm.exterior_probe, p2.params)
        if np.any(g1 > g2 + 1e-12):
            raise ConfigurationError("exterior data of the first problem must not exceed the second")
    rhs = r1 - r2 + (_ext_rhs(asm, p1) - _ext_rhs(asm, p2))
    violation = float(solve_dirichlet(GridProblem(p1.intervals, p1.h, p1.params, rhs)).values.max())
    return ComparisonReport(passed=violation <= _COMPARISON_TOL, max_violation=violation)


@dataclass(frozen=True)
class HopfReport:
    min_ratio: float
    c_estimate: float
    c_estimate_refined: float
    stable: bool


def verify_hopf_ratio(problem: GridProblem) -> HopfReport:
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
    stable = abs(c_ref - c_est) <= _HOPF_STABILITY * abs(c_est)
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
                variant: str = "I", h: float = 1.0 / 64.0) -> QsmpReport:
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
    stable = abs(c0_ref - c0) <= _QSMP_STABILITY * max(abs(c0), abs(c0_ref))
    return QsmpReport(c0, c0_ref, stable)


@dataclass(frozen=True)
class MeasureReport:
    c_bar: float
    nu: float
    sampled_points: int


def verify_measure_lemma(solution: DiscreteSolution, nu: float) -> MeasureReport:
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
    step = max(1, u_ann.size // _MEASURE_X0_COUNT)
    samples = u_ann[::step]
    for kpow in range(_MEASURE_MAX_STEPS):
        c = _MEASURE_GRID_RATIO**kpow
        if all((u_ann <= c * u0).sum() * h >= target for u0 in samples):
            return MeasureReport(float(c), nu, int(samples.size))
    raise DegenerateInputError("no lattice constant satisfied the measure condition")
