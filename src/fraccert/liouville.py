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

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .chains import Verdict, _sign_verdict
from .dirichlet import ANNULUS_FORCING, annulus_forcing, verify_kslap
from .errors import ConfigurationError, DivergenceError, DomainError
from .operator import QuadSpec, eval_radial, eval_radial_jobs
from .params import FracParams
from .profiles import RadialProfile, _bubble_symbol, _power_symbol, as_radial_callable, make_barrier, BarrierKind, \
    BarrierConstants, finite_samples, positive_fundamental, sampled_inf

__all__ = [
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


def annulus_inf(u: RadialProfile | Callable, r: float, points: int = 400) -> float:
    """``profiles.sampled_inf`` of u over the annulus [r, 2r]; a NaN or infinite sample raises DomainError."""
    return sampled_inf(as_radial_callable(u), r, 2.0 * r, points)


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
                         params: FracParams, points: int = 200) -> GrowthReport:
    """Fit the annulus infima against the two-sided envelope of the case.

    SUP_GT_HALF expects constants <= m(r) <= C r^(2s-1); SUP_HALF uses the
    log envelope; SUB expects c r^(-n+2s) <= m(r) <= C.  PASS means finite
    positive fitted constants whose halves agree within a factor 4 and a
    log-log slope inside the envelope corridor.  ``points`` is the annulus
    sample count of each infimum (see ``annulus_inf``).
    """
    case = case.upper()
    if case not in _GROWTH_CASES:
        raise ConfigurationError(f"unknown growth case {case!r}")
    r_arr = np.asarray(sorted(r_grid), dtype=float)
    if r_arr.size < 4 or r_arr.max() / r_arr.min() < 100.0:
        raise ConfigurationError("growth verification needs >= 4 radii over two decades")
    m_vals = np.asarray([annulus_inf(u, float(r), points) for r in r_arr])
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
    verdict: Verdict
    samples: tuple[tuple[float, float, float], ...]  # (radius, residual, err)
    inconclusive_fraction: float


def _residual_radii(region: tuple[float, float], points: int) -> np.ndarray:
    """The geometric sample radii of a residual over a radius interval."""
    lo, hi = region
    if not 0.0 < lo < hi:
        raise ConfigurationError("region must be a positive radius interval")
    if points < 1:
        raise ConfigurationError("a residual needs at least one sample point")
    return np.geomspace(lo, hi, points)


def _residuals(u: RadialProfile | Callable, f: Callable, radii: np.ndarray, vals: np.ndarray,
               errs: np.ndarray, converged: np.ndarray) -> tuple[Verdict, int, tuple]:
    """Residuals (-Delta)^s u - f(u, r) from the operator values of u at the radii: their
    ``chains._sign_verdict``, the least-margin sample's index and the (radius, residual, err) rows."""
    u_vals = as_radial_callable(u)(radii)
    res = vals - np.asarray([float(np.asarray(f(float(u_r), r))) for r, u_r in zip(radii.tolist(), u_vals)])
    verdict, margins = _sign_verdict(res, errs, converged)
    return verdict, int(margins.argmin()), tuple(zip(radii.tolist(), res.tolist(), errs.tolist()))


def supersolution_residual(u: RadialProfile | Callable, f: Callable, region: tuple[float, float],
                           params: FracParams, quad: QuadSpec = _SCAN_QUAD,
                           points: int = 25) -> ResidualReport:
    """Sampled residual (-Delta)^s u - f(u(x), x) over a radius interval.

    The verdict is ``chains._sign_verdict``'s: PASS (a supersolution on the
    samples) iff every residual clears zero by twice its quadrature error
    estimate and at most 5 % of the samples are unconverged; FAIL iff some
    residual is below zero by the same margin and the samples are converged.
    ``points`` must be at least 1.
    """
    radii = _residual_radii(region, points)
    vals, errs, _, converged = eval_radial_jobs([(u, radii, quad)], params)[0]
    verdict, i, samples = _residuals(u, f, radii, vals, errs, converged)
    radius, residual, err = samples[i]
    return ResidualReport(residual, radius, err, verdict, samples, np.count_nonzero(~converged) / converged.size)


def power_symbol(tau: float, params: FracParams) -> float:
    """Multiplier lambda(tau) with (-Delta)^s |x|^(-tau) = lambda |x|^(-tau-2s).

    The Gamma-function ratio ``profiles._power_symbol`` at the exponent -tau;
    positive for 0 < tau < n - 2s and zero at the fundamental exponent.
    """
    if not 0.0 < tau < params.n:
        raise DomainError("the power must lie in (0, n) for an admissible profile")
    return _power_symbol(params.n, params.s, -tau)[0]


# ------------------------------------------------------------------ scanning


@dataclass(frozen=True)
class CandidateFamily:
    """Radial candidates c (1+|x|^2)^(-beta/2) over parameter grids.

    Every c must be finite and positive and every beta finite (a scan needs
    -beta < 2s - 0.05), so that each member is a positive function, whose
    operator has a closed form.  ``include_control`` appends the exact power
    profile eps |x|^(-tau), tau = 2s/(p-1), eps from the operator multiplier:
    the member every supercritical scan must certify.
    """

    c_values: tuple[float, ...] = tuple(np.geomspace(0.1, 10.0, 20))
    beta_values: tuple[float, ...] = tuple(np.linspace(0.1, 6.0, 20))
    include_control: bool = False
    control_power: float | None = None  # p of f(t) = t^p for the control member

    def __post_init__(self) -> None:
        c = np.asarray(self.c_values, dtype=float)
        if not np.all(np.isfinite(c) & (c > 0.0)):
            raise ConfigurationError("family amplitudes c must be finite and positive")
        if not np.all(np.isfinite(np.asarray(self.beta_values, dtype=float))):
            raise ConfigurationError("family exponents beta must be finite")

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


_MEMBER_VERDICT = {Verdict.PASS: MemberVerdict.SUPERSOLUTION, Verdict.FAIL: MemberVerdict.FAILS_AT,
                   Verdict.INCONCLUSIVE: MemberVerdict.INCONCLUSIVE}


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

    A beta with -beta >= 2s - 0.05 (the profile rule of ``eval_radial_jobs``)
    raises DivergenceError before any base is evaluated.  (-Delta)^s is linear:
    each distinct beta is evaluated once, on (1+|x|^2)^(-beta/2), and member c
    takes c times its values and bars.  A base takes ``profiles._bubble_symbol``
    and its rounding bar or, where that is None (see its rule), one
    ``eval_radial_jobs`` pass with the control member, at ``quad.abs_tol`` over
    max(1, max c), so that every scaled member meets a target at least as strict
    as ``quad``.  Members are judged as in ``supersolution_residual``; points >= 1.
    """
    radii = _residual_radii(r_range, points)
    members = list(family.members(params))
    if not members:
        raise ConfigurationError("the candidate family is empty")
    if max((-beta for beta in family.beta_values), default=-np.inf) >= 2.0 * params.s - 0.05:
        raise DivergenceError("a candidate grows at least like |x|^(2s); the defining integral diverges")
    grid = [(float(c), float(beta)) for c in family.c_values for beta in family.beta_values]
    base_quad = replace(quad, abs_tol=quad.abs_tol / max([1.0] + [c for c, _ in grid]))
    closed = ((b, _bubble_symbol(params.n, params.s, 0.5 * b, radii)) for b in set(map(float, family.beta_values)))
    base = {beta: (*out, np.zeros(radii.size, int), np.ones(radii.size, bool)) for beta, out in closed if out}
    # one engine pass over the other bases, in order of first use; the control member, if any, is the last (beta None)
    jobs = {beta: (member, radii, quad) if beta is None else (_family_member(1.0, beta), radii, base_quad)
            for (_, member), (_, beta) in zip(members, grid + [(1.0, None)]) if beta not in base}
    base.update(zip(jobs, eval_radial_jobs(list(jobs.values()), params)))
    rows, curves = [], []
    for (label, member), (c, beta) in zip(members, grid + [(1.0, None)]):
        vals, errs, _, converged = base[beta]
        verdict, i, samples = _residuals(member, f, radii, c * vals, c * errs, converged)
        rows.append((label, _MEMBER_VERDICT[verdict], *samples[i]))
        if keep_curves:
            curves.append((label, samples))
    verdicts = [row[1] for row in rows]
    return ScanReport(tuple(float(v) for v in r_range), tuple(rows), verdicts.count(MemberVerdict.SUPERSOLUTION),
                      verdicts.count(MemberVerdict.FAILS_AT), verdicts.count(MemberVerdict.INCONCLUSIVE),
                      min(row[3] for row in rows), tuple(curves))


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
    battery = [ANNULUS_FORCING, ((-1.5, -1.375), (1.375, 1.5)), ((1.375, 1.625),)]
    return verify_kslap(annulus_forcing, battery, FracParams(1, params.s), h=1.0 / 32.0).c_bar


def proof_quantity_trace(u: RadialProfile | Callable, f: Callable | None, params: FracParams,
                         r_grid: Sequence[float]) -> TraceReport:
    """Trace the proof's scalar quantities along a radius grid.

    Per radius: the annulus infimum m(r) (200 samples), the forcing-mass
    lower bound (annulus measure times the sampled minimum of f(t, |x|) over
    t in [m, 2m] and |x| in {r, 2r}, scaled with the comparison constant
    c_bar of ``verify_kslap``), the decay envelope C r^(-n+2s) for m(r), the
    barrier ratio rho(r) against the unit-shell exterior barrier, and, on the
    growing branch, the exterior ratio against the grown fundamental minus
    one.  A contradiction is flagged at the first radius where the lower
    bound exceeds the envelope.
    """
    fn = as_radial_callable(u)
    r_arr = np.asarray(sorted(r_grid), dtype=float)
    c_bar = _default_cbar(params)
    annulus_measure = params.sphere_measure * (2**params.n - 1) / params.n  # |{r < |x| < 2r}| / r^n

    m_vals = np.asarray([annulus_inf(u, float(r), 200) for r in r_arr])
    if np.any(m_vals <= 0.0):
        raise DomainError("annulus infimum nonpositive along the grid")
    c_upper = float((m_vals / (r_arr**params.sigma_star if params.sigma_star < 0 else 1.0)).max())

    grown = positive_fundamental(params)
    rows = []
    contradiction = None
    for r, m in zip(r_arr, m_vals):
        if f is None:
            lower = 0.0
        else:
            f_vals = finite_samples([np.asarray(f(float(t), float(x))) for t in np.geomspace(m, 2.0 * m, 128)[::8]
                                     for x in (r, 2.0 * r)], "the forcing")
            lower = 0.5 * c_bar * r ** (2.0 * params.s) * annulus_measure * float(f_vals.min())
        envelope = (2.0 / c_bar) * c_upper * (r**params.sigma_star if params.sigma_star < 0 else 1.0)
        rho_ratio = None
        if params.sigma_star < 0.0:
            consts = BarrierConstants(base_radius=max(1.01, r / 20.0), outer_radius=r)
            barrier = make_barrier(BarrierKind.EXTERIOR_WITH_SHELL, consts, params)
            rho_ratio = sampled_inf(lambda rho: fn(rho) / barrier(rho), r * 1.0001, 2.0 * r, 200)
        eta_ratio = None
        if params.sigma_star > 0.0 and r > 1.0:
            xs = np.geomspace(max(r, 1.0 + 1e-6), 1e4 * r, 200)
            denom = np.asarray(grown(xs)) - 1.0
            if np.any(denom <= 0.0):
                raise ConfigurationError("the grown fundamental does not exceed 1 on the region")
            eta_ratio = float(np.min(finite_samples(np.asarray(fn(xs)) / denom, "the exterior ratio")))
        rows.append(TraceRow(float(r), float(m), float(lower), float(envelope),
                             rho_ratio, eta_ratio))
        if contradiction is None and f is not None and lower > envelope:
            contradiction = float(r)
    notes = ("no contradiction radius within the grid",) if contradiction is None and f is not None else ()
    return TraceReport(tuple(rows), contradiction, float(c_bar), c_upper, notes)
