"""Nonexistence pipeline: annulus infima, growth envelopes, residual scans.

The nonexistence theorems quantify over all positive functions; no finite
computation covers that.  What this module delivers is a falsification
harness: every member of a declared candidate family is tested for the
supersolution property on sampled radii, a mandatory supercritical control
shows the harness accepts genuine supersolutions, and the proof's scalar
quantities are traced along a radius grid so their incompatibility (the
mechanism behind nonexistence) is visible as a crossing at finite radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dirichlet import verify_kslap
from .errors import ConfigurationError, DomainError
from .operator import QuadSpec, eval_radial
from .params import FracParams
from .profiles import RadialProfile, as_radial_callable, make_barrier, BarrierKind, \
    BarrierConstants, positive_fundamental

__all__ = [
    "AnnulusSampler",
    "CandidateFamily",
    "MemberVerdict",
    "ScanReport",
    "annulus_inf",
    "verify_growth_bounds",
    "supersolution_residual",
    "power_symbol",
    "nonexistence_scan",
    "proof_quantity_trace",
    "default_r_grid",
]

_SCAN_QUAD = QuadSpec(rel_tol=1e-6, abs_tol=1e-12)


@dataclass(frozen=True)
class AnnulusSampler:
    """Sampling policy on the closed annulus between r and 2r."""

    points: int = 400

    def radii(self, r: float) -> np.ndarray:
        return np.geomspace(r, 2.0 * r, self.points)


def annulus_inf(u: RadialProfile | Callable, r: float, sampler: AnnulusSampler = AnnulusSampler()) -> float:
    """Sampled infimum of u over the annulus [r, 2r] with one local refinement."""
    fn = as_radial_callable(u)
    rho = sampler.radii(r)
    vals = np.asarray(fn(rho), dtype=float)
    i = int(vals.argmin())
    lo, hi = rho[max(0, i - 1)], rho[min(len(rho) - 1, i + 1)]
    fine = np.linspace(lo, hi, 64)
    vals2 = np.asarray(fn(fine), dtype=float)
    return float(min(vals.min(), vals2.min()))


# ------------------------------------------------------------------ growth


@dataclass(frozen=True)
class GrowthReport:
    case: str
    r_values: tuple[float, ...]
    m_values: tuple[float, ...]
    lower_constant: float
    upper_constant: float
    slope: float
    passed: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


_GROWTH_CASES = ("SUP_HALF", "SUP_GT_HALF", "SUB")


def verify_growth_bounds(u: RadialProfile | Callable, case: str, r_grid: Sequence[float],
                         params: FracParams,
                         sampler: AnnulusSampler = AnnulusSampler(points=200)) -> GrowthReport:
    """Fit the annulus infima against the two-sided envelope of the case.

    SUP_GT_HALF expects constants <= m(r) <= C r^(2s-1); SUP_HALF uses the
    log envelope; SUB expects c r^(-n+2s) <= m(r) <= C.  PASS means finite
    positive fitted constants whose halves agree within a factor 4 and a
    log-log slope inside the envelope corridor.
    """
    case = case.upper()
    if case not in _GROWTH_CASES:
        raise ConfigurationError(f"unknown growth case {case!r}")
    r_arr = np.asarray(sorted(r_grid), dtype=float)
    if r_arr.size < 4 or r_arr.max() / r_arr.min() < 100.0:
        raise ConfigurationError("growth verification needs >= 4 radii over two decades")
    m_vals = np.asarray([annulus_inf(u, float(r), sampler) for r in r_arr])
    if np.any(m_vals <= 0.0):
        raise DomainError("annulus infimum nonpositive; the profile is not admissible here")

    ones = np.ones_like(r_arr)
    if case == "SUP_GT_HALF":
        lower_env, upper_env = ones, r_arr**params.sigma_star
        corridor = (-0.05, params.sigma_star + 0.05)
    elif case == "SUP_HALF":
        lower_env, upper_env = ones, np.log(np.maximum(r_arr, 1.0 + 1e-9))
        corridor = (-0.05, 0.35)  # log growth shows a small positive log-log slope
    else:
        lower_env, upper_env = r_arr**params.sigma_star, ones
        corridor = (params.sigma_star - 0.05, 0.05)

    upper = float((m_vals / upper_env).max())
    lower = float((m_vals / lower_env).min())
    slope = float(np.polyfit(np.log(r_arr), np.log(m_vals), 1)[0])

    half = r_arr.size // 2
    upper_first = float((m_vals[:half] / upper_env[:half]).max())
    upper_second = float((m_vals[half:] / upper_env[half:]).max())
    stable = max(upper_first, upper_second) <= 4.0 * max(1e-300, min(upper_first, upper_second))
    in_corridor = corridor[0] <= slope <= corridor[1]
    notes = []
    if not in_corridor:
        notes.append(f"slope {slope:.3f} outside corridor {corridor}")
    if not stable:
        notes.append("envelope constant drifts across the grid halves")
    passed = bool(np.isfinite(upper) and lower > 0.0 and in_corridor and stable)
    return GrowthReport(case, tuple(r_arr.tolist()), tuple(m_vals.tolist()),
                        lower, upper, slope, passed, tuple(notes))


# ------------------------------------------------------------------ residuals


@dataclass(frozen=True)
class ResidualReport:
    min_residual: float
    witness_radius: float
    witness_error: float
    certified: bool
    failed: bool
    samples: tuple[tuple[float, float, float], ...]  # (radius, residual, err)
    inconclusive_fraction: float


def supersolution_residual(u: RadialProfile | Callable, f: Callable, region: tuple[float, float],
                           params: FracParams, quad: QuadSpec = _SCAN_QUAD,
                           points: int = 25) -> ResidualReport:
    """Sampled residual (-Delta)^s u - f(u(x), x) over a radius interval.

    Certified as a supersolution on the samples iff every residual clears
    zero by twice its quadrature error estimate; definitely failed iff some
    residual is below zero by the same margin.
    """
    lo, hi = region
    if not 0.0 < lo < hi:
        raise ConfigurationError("region must be a positive radius interval")
    fn = as_radial_callable(u)
    radii = np.geomspace(lo, hi, points)
    rows = []
    bad = 0
    for r in radii:
        ov = eval_radial(u, float(r), params, quad)
        if not ov.converged:
            bad += 1
        res = ov.value - float(np.asarray(f(float(fn(r)), float(r))))
        rows.append((float(r), float(res), float(ov.error_estimate)))
    arr = np.asarray(rows)
    lowered = arr[:, 1] - 2.0 * arr[:, 2]
    raised = arr[:, 1] + 2.0 * arr[:, 2]
    i = int(lowered.argmin())
    frac = bad / len(rows)
    certified = bool(np.all(lowered >= 0.0) and frac <= 0.05)
    failed = bool(np.any(raised < 0.0))
    return ResidualReport(float(arr[i, 1]), float(arr[i, 0]), float(arr[i, 2]),
                          certified, failed, tuple(map(tuple, rows)), float(frac))


def power_symbol(tau: float, params: FracParams,
                 quad: QuadSpec = QuadSpec(rel_tol=1e-9, abs_tol=1e-13)) -> float:
    """Multiplier lambda(tau) with (-Delta)^s |x|^(-tau) = lambda |x|^(-tau-2s).

    Evaluated by quadrature at radius 1; positive for 0 < tau < n - 2s and
    zero at the fundamental exponent.
    """
    if not 0.0 < tau < params.n:
        raise DomainError("the power must lie in (0, n) for an admissible profile")
    prof = RadialProfile((), (((1.0, -tau, False),),))
    return eval_radial(prof, 1.0, params, quad).value


# ------------------------------------------------------------------ scanning


@dataclass(frozen=True)
class CandidateFamily:
    """Radial candidates c (1+|x|^2)^(-beta/2) over parameter grids.

    ``include_control`` appends the exact power profile eps |x|^(-tau) with
    tau = 2s/(p-1) and eps derived from the operator multiplier: the member
    every supercritical scan must certify.
    """

    c_values: tuple[float, ...] = tuple(np.geomspace(0.1, 10.0, 20))
    beta_values: tuple[float, ...] = tuple(np.linspace(0.1, 6.0, 20))
    include_control: bool = False
    control_power: float | None = None  # p of f(t) = t^p for the control member

    def members(self, params: FracParams):
        for c in self.c_values:
            for beta in self.beta_values:
                yield (f"c={c:.4g},beta={beta:.4g}",
                       _family_member(float(c), float(beta)))
        if self.include_control:
            if self.control_power is None or self.control_power <= 1.0:
                raise ConfigurationError("the control member needs the forcing power p > 1")
            tau = 2.0 * params.s / (self.control_power - 1.0)
            lam = power_symbol(tau, params)
            if lam <= 0.0:
                raise ConfigurationError(
                    f"control exponent tau={tau:g} has nonpositive multiplier; "
                    "choose a steeper forcing power")
            eps = (0.5 * lam) ** (1.0 / (self.control_power - 1.0))
            yield (f"control:eps={eps:.4g},tau={tau:.4g}",
                   RadialProfile((), (((eps, -tau, False),),)))

    def size(self) -> int:
        return len(self.c_values) * len(self.beta_values) + (1 if self.include_control else 0)


def _family_member(c: float, beta: float) -> Callable:
    def member(rho):
        rho_arr = np.asarray(rho, dtype=float)
        return c * (1.0 + rho_arr**2) ** (-beta / 2.0)
    return member


class MemberVerdict:
    SUPERSOLUTION = "SUPERSOLUTION_ON_SAMPLES"
    FAILS_AT = "FAILS_AT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ScanReport:
    region: tuple[float, float]
    # (label, verdict, witness radius, residual, error estimate at the witness)
    members: tuple[tuple[str, str, float, float, float], ...]
    certified: int
    failed: int
    inconclusive: int
    worst_residual: float
    curves: tuple[tuple[str, tuple[tuple[float, float, float], ...]], ...] = ()

    def summary(self) -> dict:
        return {
            "certified": self.certified,
            "failed": self.failed,
            "inconclusive": self.inconclusive,
            "worst_residual": self.worst_residual,
        }

    def curve_rows(self):
        """Long-format (label, radius, residual, err) rows for CSV export."""
        for label, samples in self.curves:
            for radius, residual, err in samples:
                yield (label, radius, residual, err)


def nonexistence_scan(family: CandidateFamily, f: Callable, params: FracParams,
                      r_range: tuple[float, float], quad: QuadSpec = _SCAN_QUAD,
                      points: int = 25, keep_curves: bool = False) -> ScanReport:
    """Residual-scan every family member; report certified supersolutions.

    The subcritical presets must certify zero members; the supercritical
    control configuration must certify at least the analytic member, which
    shows the harness is not rejecting vacuously.  Members scan independently
    and the report is ordered by the parameter grid.
    """
    rows = []
    curves = []
    certified = failed = inconclusive = 0
    worst = math.inf
    count = 0
    for label, member in family.members(params):
        count += 1
        rep = supersolution_residual(member, f, r_range, params, quad, points)
        worst = min(worst, rep.min_residual)
        if rep.certified:
            verdict = MemberVerdict.SUPERSOLUTION
            certified += 1
        elif rep.failed:
            verdict = MemberVerdict.FAILS_AT
            failed += 1
        else:
            verdict = MemberVerdict.INCONCLUSIVE
            inconclusive += 1
        rows.append((label, verdict, rep.witness_radius, rep.min_residual,
                     rep.witness_error))
        if keep_curves:
            curves.append((label, rep.samples))
    if count == 0:
        raise ConfigurationError("the candidate family is empty")
    return ScanReport(tuple(float(v) for v in r_range), tuple(rows),
                      certified, failed, inconclusive, worst, tuple(curves))


# ------------------------------------------------------------------ trace


def default_r_grid(r0: float, per_decade: int = 8, decades: float = 3.0) -> list[float]:
    count = int(per_decade * decades) + 1
    return list(np.geomspace(10.0 * r0, 10.0 * r0 * 10.0**decades, count))


@dataclass(frozen=True)
class TraceRow:
    r: float
    m: float
    forcing_lower: float      # mass lower bound fed by the annulus forcing
    upper_envelope: float     # decay envelope for the annulus infimum
    rho_ratio: float | None   # inf over the annulus of u / (exterior barrier)
    eta_ratio: float | None   # inf over the exterior of u / (grown fundamental - 1)


@dataclass(frozen=True)
class TraceReport:
    rows: tuple[TraceRow, ...]
    contradiction_radius: float | None
    c_bar: float
    c_upper: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def _default_cbar(params: FracParams) -> float:
    battery = [((-1.625, -1.375), (1.375, 1.625)),
               ((-1.5, -1.375), (1.375, 1.5)),
               ((1.375, 1.625),)]
    rhs = lambda x: (((np.abs(np.asarray(x)) > 1.375) & (np.abs(np.asarray(x)) < 1.625))).astype(float)
    return verify_kslap(rhs, battery, FracParams(1, params.s), h=1.0 / 32.0).c_bar


def proof_quantity_trace(u: RadialProfile | Callable, f: Callable | None, params: FracParams,
                         r_grid: Sequence[float], quad: QuadSpec = _SCAN_QUAD,
                         c_bar: float | None = None, c_multiplier: float = 2.0,
                         mu: float | None = None,
                         sampler: AnnulusSampler = AnnulusSampler(points=200)) -> TraceReport:
    """Trace the proof's scalar quantities along a radius grid.

    Per radius: the annulus infimum m(r), the forcing-mass lower bound
    (annulus measure times the scaled forcing minimum with the comparison
    constant), the decay envelope C r^(-n+2s) for m(r), the barrier ratio
    rho(r), and, on the growing branch, the exterior ratio against the
    grown fundamental minus one.  A contradiction is flagged at the first
    radius where the lower bound exceeds the envelope.
    """
    fn = as_radial_callable(u)
    r_arr = np.asarray(sorted(r_grid), dtype=float)
    if c_bar is None:
        c_bar = _default_cbar(params)
    annulus_measure = 2.0 if params.n == 1 else (
        math.pi * 3.0 if params.n == 2 else 4.0 * math.pi * 7.0 / 3.0)

    m_vals = np.asarray([annulus_inf(u, float(r), sampler) for r in r_arr])
    if np.any(m_vals <= 0.0):
        raise DomainError("annulus infimum nonpositive along the grid")
    c_upper = float((m_vals / r_arr**params.sigma_star).max()) if params.sigma_star < 0 else \
        float(m_vals.max())

    grown = positive_fundamental(params)
    eta_possible = params.sigma_star > 0.0

    rows = []
    contradiction = None
    notes: list[str] = []
    for r, m in zip(r_arr, m_vals):
        if f is None:
            lower = 0.0
        else:
            tgrid = np.geomspace(m, c_multiplier * m, 128)
            fmin = float(np.min([np.asarray(f(float(t), float(x)))
                                 for t in tgrid[:: max(1, len(tgrid) // 16)]
                                 for x in (r, 2.0 * r)]))
            lower = 0.5 * c_bar * r ** (2.0 * params.s) * annulus_measure * fmin
        envelope = (2.0 / c_bar) * c_upper * r**params.sigma_star if params.sigma_star < 0 \
            else (2.0 / c_bar) * c_upper
        rho_ratio = None
        if params.sigma_star < 0.0:
            consts = BarrierConstants(base_radius=max(1.01, r / 20.0) if r / 20.0 > 1.01 else 1.01,
                                      outer_radius=r, shell_coef=mu if mu else 1.0)
            barrier = make_barrier(BarrierKind.EXTERIOR_WITH_SHELL, consts, params)
            rho_grid = np.geomspace(r * 1.0001, 2.0 * r, 200)
            rho_ratio = float(np.min(np.asarray(fn(rho_grid)) / np.asarray(barrier(rho_grid))))
        eta_ratio = None
        if eta_possible and r > 1.0:
            xs = np.geomspace(max(r, 1.0 + 1e-6), 1e4 * r, 200)
            denom = np.asarray(grown(xs)) - 1.0
            if np.any(denom <= 0.0):
                raise ConfigurationError("the grown fundamental does not exceed 1 on the region")
            eta_ratio = float(np.min(np.asarray(fn(xs)) / denom))
        rows.append(TraceRow(float(r), float(m), float(lower), float(envelope),
                             rho_ratio, eta_ratio))
        if contradiction is None and f is not None and lower > envelope:
            contradiction = float(r)
    if contradiction is None and f is not None:
        notes.append("no contradiction radius within the grid")
    return TraceReport(tuple(rows), contradiction, float(c_bar), c_upper, tuple(notes))
