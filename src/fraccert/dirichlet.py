"""1-d nonlocal Dirichlet solver with a discrete comparison principle.

Collocation on a cell-centered uniform lattice x_j = (j + 1/2) h.  At a node,
the operator is split into the half-cell around the node (quadratic Taylor
correction), exact kernel integrals over whole cells out to a truncation
distance, and a closed-form/quadrature tail fed by the exterior data.  All
off-diagonal weights are nonpositive and every row is strictly diagonally
dominant, so the assembled matrix is an M-matrix and ordered data produce
ordered solutions.

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
from scipy.linalg import lu_factor, lu_solve

from .errors import ConfigurationError, DegenerateInputError, DomainError
from .operator import _gauss_nodes
from .params import FracParams
from .profiles import positive_fundamental

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
        out = np.asarray(self.fn(x), dtype=float)
        if out.shape != x.shape:
            out = np.asarray([float(self.fn(float(v))) for v in x])
        return out

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
        idx: list[int] = []
        for a, b in self.intervals:
            ia, ib = round(a / self.h), round(b / self.h)
            idx.extend(range(ia, ib))
        return np.asarray(idx, dtype=int)

    def nodes(self) -> np.ndarray:
        return (self.interior_indices() + 0.5) * self.h

    def rhs_values(self) -> np.ndarray:
        x = self.nodes()
        if callable(self.rhs):
            vals = np.asarray(self.rhs(x), dtype=float)
            if vals.shape != x.shape:
                vals = np.asarray([float(self.rhs(float(v))) for v in x])
            return vals
        if np.ndim(self.rhs) == 0:
            return np.full(x.shape, float(self.rhs))
        vals = np.asarray(self.rhs, dtype=float)
        if vals.shape != x.shape:
            raise ConfigurationError("rhs sample array does not match the node count")
        return vals

    def distance_to_complement(self) -> np.ndarray:
        x = self.nodes()
        d = np.full_like(x, np.inf)
        for a, b in self.intervals:
            mask = (x > a) & (x < b)
            d[mask] = np.minimum(x[mask] - a, b - x[mask])
        return d

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


def _pair_weights(K: int, h: float, s: float) -> np.ndarray:
    """Weights omega[m] multiplying the pair difference 2u_i - u_{i+m} - u_{i-m}.

    Exact kernel integrals against local quadratic models of the (even) pair
    difference: the first cell pins the parabola at the origin, later cells
    use the three-point Lagrange parabola.  Index m runs to K+1; omega[0]=0.
    Returns (omega, first-cell share of omega[1]).
    """
    two_s = 2.0 * s
    omega = np.zeros(K + 2)

    def ints(a: np.ndarray, b: np.ndarray):
        i0 = (a ** (-two_s) - b ** (-two_s)) / two_s
        if abs(two_s - 1.0) < 1e-12:
            i1 = np.log(b / a)
        else:
            i1 = (b ** (1.0 - two_s) - a ** (1.0 - two_s)) / (1.0 - two_s)
        i2 = (b ** (2.0 - two_s) - a ** (2.0 - two_s)) / (2.0 - two_s)
        return i0, i1, i2

    # first cell [h/2, 3h/2]: model H(t) = H_1 (t/h)^2, exact through 0
    _, _, i2f = ints(np.asarray([0.5 * h]), np.asarray([1.5 * h]))
    first_cell = float(i2f[0]) / h**2
    omega[1] += first_cell

    if K >= 2:
        k = np.arange(2, K + 1, dtype=float)
        a, b, kh = (k - 0.5) * h, (k + 0.5) * h, k * h
        i0, i1, i2 = ints(a, b)
        m0 = i0
        m1 = i1 - kh * i0
        m2 = i2 - 2.0 * kh * i1 + kh**2 * i0
        v_minus = (m2 - h * m1) / (2.0 * h**2)
        v_zero = m0 - m2 / h**2
        v_plus = (m2 + h * m1) / (2.0 * h**2)
        ki = np.arange(2, K + 1)
        np.add.at(omega, ki - 1, v_minus)
        np.add.at(omega, ki, v_zero)
        np.add.at(omega, ki + 1, v_plus)

    if omega[1:].min() < 0.0:
        raise ConfigurationError("quadratic cell weights lost positivity")
    return omega, first_cell


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

        inner_edges = np.unique(np.concatenate([
            [0.0], 2.0 ** np.arange(-40.0, 0.0),
            [1.0 - 2.0 ** k for k in range(-1, -41, -1)], [1.0],
        ]))
        part1 = integrate(inner_edges, lambda tau: pair_gap(tau) * tau ** (-1.0 - 2.0 * s))
        part2 = integrate(
            np.linspace(1.0, 3.0, 17),
            lambda tau: (2.0 - (1.0 + tau) ** e) * tau ** (-1.0 - 2.0 * s),
        )
        _BL_CACHE[key] = part1 + part2
    return _BL_CACHE[key]


def _boundary_row_data(problem: GridProblem, x_i: float, sgn: float, delta: float,
                       g_b: float) -> float:
    """int_delta^{3 delta} t^(-1-2s) (g(x_i + sgn t) - g_b) dt for the data side."""
    s = problem.params.s
    t, w = _gauss_nodes(np.linspace(delta, 3.0 * delta, 9))
    g = problem.exterior.evaluate(x_i + sgn * t, problem.params)
    vals = t ** (-1.0 - 2.0 * s) * (g - g_b)
    return float(vals @ w)


class _Assembly:
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
        if l_ext < 2.0 * span:
            raise ConfigurationError("truncation radius must be at least twice the domain span")
        K = int(round(l_ext / h))

        omega, omega_first_cell = _pair_weights(K, h, s)
        c2 = (h / 2.0) ** (2.0 - two_s) / (2.0 - two_s) / h**2
        T = (K + 0.5) * h
        tail_k = T ** (-two_s) / two_s

        n = li.size
        D = np.abs(li[:, None] - li[None, :])
        if D.max() >= K:
            raise ConfigurationError("truncation window smaller than the domain span")

        # couplings into boundary-layer nodes carry the dist^s cell-average
        # factor: a cell integral sampling a layer node sees the average of
        # the boundary-rate profile, not its center value
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
        layer_rhs = OmD @ ((1.0 - phi) * gb_arr)

        # Nodes touching the boundary: both the quadratic near-cell model and
        # the first-cell parabola are wrong where the solution carries the
        # dist^s boundary rate.  Their whole range (0, 3h/2] is replaced by
        # the exact paired integral of the two-parameter local model
        # g_b + c1 dist^s + c2 dist^(s+1) fitted through the node and its
        # interior neighbour; the beyond-boundary part is fed by the exterior
        # data.  The neighbour weight is negative (the s+1 profile integral
        # is), so the M-matrix sign pattern survives.
        li_set = set(int(v) for v in li)
        omega_cell1 = omega_first_cell
        self.boundary_fix_rhs = layer_rhs
        q_s = _rate_profile_integral(s, s)
        for i in range(n):
            delta = delta_arr[i]
            if delta > 0.75 * h:
                continue
            g_b = gb_arr[i]
            x_b = min((e for a, b in p.intervals for e in (a, b)), key=lambda e: abs(e - xs_nodes[i]))
            sgn = math.copysign(1.0, x_b - xs_nodes[i])
            coef = delta ** (-two_s) * q_s
            A[i, i] += coef - 2.0 * c2 - 2.0 * omega_cell1
            self.boundary_fix_rhs[i] += coef * g_b + _boundary_row_data(
                p, xs_nodes[i], sgn, delta, g_b)
            for j in range(n):
                if j != i and abs(li[j] - li[i]) == 1:
                    A[i, j] += c2 + omega_cell1 * phi[j]
            # the dropped stencils may have leaned on an exterior neighbor
            for lnb in (li[i] - 1, li[i] + 1):
                if int(lnb) not in li_set:
                    x_nb = (lnb + 0.5) * h
                    g_nb = float(p.exterior.evaluate(np.asarray([x_nb]), p.params)[0])
                    self.boundary_fix_rhs[i] -= (c2 + omega_cell1) * g_nb
        A *= c_ns

        # exterior contribution on the rhs
        reach = K + 1
        lat_lo, lat_hi = li.min() - reach, li.max() + reach
        lat = np.arange(lat_lo, lat_hi + 1)
        xs_lat = (lat + 0.5) * h
        gvals = p.exterior.evaluate(xs_lat, p.params)
        interior_pos = li - lat_lo
        gvals[interior_pos] = 0.0
        kernel = np.zeros(2 * reach + 1)
        kernel[reach + 1:] = omega[1:]
        kernel[:reach] = omega[1:][::-1]
        kernel[reach + 1] += c2
        kernel[reach - 1] += c2
        conv = np.convolve(gvals, kernel, mode="valid")  # positions lat_lo+reach .. lat_hi-reach
        ext = conv[li - (lat_lo + reach)]
        if p.exterior.has_tail():
            g_line = lambda x: p.exterior.evaluate(np.asarray(x, dtype=float), p.params)
            ext = ext + _exterior_tail_batch(g_line, (li + 0.5) * h, T, s)
        self.ext_rhs = c_ns * (ext + self.boundary_fix_rhs)

        # M-matrix sanity: nonpositive off-diagonals, strict dominance
        off = A - np.diag(np.diag(A))
        if off.max() > 1e-14 * abs(A).max():
            raise ConfigurationError("assembly lost the M-matrix sign pattern")
        dominance = np.diag(A) - np.abs(off).sum(axis=1)
        if dominance.min() <= 0.0:
            raise ConfigurationError("assembly lost row diagonal dominance")

        self.matrix = A
        self.lu = lu_factor(A)
        self.nodes = (li + 0.5) * h


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
    u = lu_solve(asm.lu, b)
    residual = float(np.linalg.norm(asm.matrix @ u - b))
    scale = float(np.linalg.norm(b))
    if scale > 0 and residual > 1e-10 * scale:
        raise ConfigurationError(f"linear solve residual {residual:.2e} exceeds 1e-10 * |rhs|")
    return DiscreteSolution(problem, u, residual)


def apply_operator(problem: GridProblem, interior_values: np.ndarray) -> np.ndarray:
    """Assembled operator applied to given interior values (exterior from the problem)."""
    asm = _assembly(problem)
    vals = np.asarray(interior_values, dtype=float)
    if vals.shape != asm.nodes.shape:
        raise ConfigurationError("value array does not match the interior nodes")
    return asm.matrix @ vals - asm.ext_rhs


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
    probe = np.linspace(p1.intervals[-1][1] + p1.h, p1.intervals[-1][1] + 10.0, 64)
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
