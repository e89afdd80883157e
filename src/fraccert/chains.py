"""Sign and rate certificates for the comparison-barrier estimates.

Every chain id names one barrier combination, one sampling region, and one
expected relation: either strict negativity of the operator values (SIGN) or
an upper envelope with a known rate in the working radius (BOUND, possibly
with a negative envelope).  Verification is sampled, never exhaustive: the
default policy draws log-spaced radii from the open region, demands margins
beyond twice the quadrature error estimate, and reports INCONCLUSIVE when
values sit inside their error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .operator import QuadSpec, eval_radial, eval_radial_jobs  # eval_radial: rebound by perfbench/tracer.py
from .params import FracParams
from .profiles import _COMPOSITES, BarrierConstants, BarrierKind, make_barrier

__all__ = [
    "ChainId",
    "Verdict",
    "SamplePolicy",
    "VerificationReport",
    "RateFit",
    "verify_chain",
    "measure_rate",
    "fit_rate",
    "chain_info",
]


class ChainId(Enum):
    CA3D = "CA3D"
    CA3PR = "CA3PR"
    LVC = "LVC"
    CA1_00 = "CA1_00"
    CAR3PP = "CAR3PP"
    CAR3PR = "CAR3PR"
    NBBN = "NBBN"
    CA1F = "CA1F"
    CA1AA = "CA1AA"
    VASK = "VASK"
    CA3Q = "CA3Q"
    CA3P = "CA3P"
    NITU = "NITU"
    CA10 = "CA10"
    CA10L = "CA10L"
    RI = "RI"


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


_EDGE_GUARD = 0.02  # sampled regions keep this relative distance from the radii that bound them


@dataclass(frozen=True)
class SamplePolicy:
    """Sampling density and reach of region sampling."""

    points: int = 200
    exterior_span: float = 12.0  # exterior regions reach this multiple of their inner edge

    def __post_init__(self) -> None:
        if self.points < 4:
            raise ConfigurationError("need at least 4 sample points")


@dataclass(frozen=True)
class _ChainSpec:
    kind: str                     # "sign" or "bound"
    barrier: BarrierKind
    region: str                   # "annulus", "annulus_out", "exterior_unit", "exterior_2r", "exterior_sign"
    envelope_sign: int = 0        # for bounds: +1 positive upper envelope, -1 negative upper envelope
    rate: Callable[[np.ndarray, float, FracParams], np.ndarray] | None = None
    # the BarrierConstants field a negative envelope scales with; on a sign chain, the
    # bump amplitude choose_constants sets from its (positive, negative) bound parts
    constant: str | None = None

    @property
    def parts(self) -> tuple[ChainId, ChainId] | None:
        """On a sign chain over a two-part composite: the bound chains over its two parts."""
        pair = _COMPOSITES.get(self.barrier, ()) if self.kind == "sign" else ()
        return tuple(chain for part in pair[:2] for chain, spec in _CHAINS.items() if spec.barrier is part) or None


def _rate_inv_r(xs, r, params):
    return np.full_like(xs, 1.0 / r)


def _rate_log2r_over_r(xs, r, params):
    return np.full_like(xs, math.log(2.0 * r) / r)


def _rate_r_pow(xs, r, params):
    return np.full_like(xs, r ** (-2.0 * params.s))


def _rate_near_unit(xs, r, params):
    return (xs - 1.0) ** (-(params.n + 2.0 * params.s))


def _rate_far_unit(xs, r, params):
    return (1.0 + xs) ** (-(params.n + 2.0 * params.s))


def _rate_outer_near(xs, r, params):
    return r ** (2.0 * params.s) * (xs - r) ** (-(params.n + 2.0 * params.s))


def _rate_outer_far(xs, r, params):
    return r ** (2.0 * params.s) * (xs + 2.0 * r) ** (-(params.n + 2.0 * params.s))


_CHAINS: dict[ChainId, _ChainSpec] = {
    ChainId.CA3D: _ChainSpec("bound", BarrierKind.POWER_RAMP, "annulus", +1, _rate_inv_r),
    ChainId.CA3PR: _ChainSpec("bound", BarrierKind.POWER_BUMP, "annulus", -1, _rate_inv_r,
                              constant="power_bump_coef"),
    ChainId.LVC: _ChainSpec("sign", BarrierKind.RAMP_WITH_BUMP, "annulus", constant="power_bump_coef"),
    ChainId.CA1_00: _ChainSpec("sign", BarrierKind.EXTERIOR_LOG, "annulus_out"),
    ChainId.CAR3PP: _ChainSpec("bound", BarrierKind.LOG_CUT, "annulus", +1, _rate_log2r_over_r),
    ChainId.CAR3PR: _ChainSpec("bound", BarrierKind.LOG_BUMP, "annulus", -1,
                               _rate_log2r_over_r, constant="log_bump_coef"),
    ChainId.NBBN: _ChainSpec("sign", BarrierKind.LOG_RAMP_WITH_BUMP, "annulus", constant="log_bump_coef"),
    ChainId.CA1F: _ChainSpec("bound", BarrierKind.CAPPED_POWER, "exterior_unit", +1, _rate_near_unit),
    ChainId.CA1AA: _ChainSpec("bound", BarrierKind.BALL_INDICATOR, "exterior_unit", -1, _rate_far_unit),
    ChainId.VASK: _ChainSpec("sign", BarrierKind.CAPPED_WITH_INDICATOR, "exterior_sign",
                             constant="indicator_coef"),
    ChainId.CA3Q: _ChainSpec("bound", BarrierKind.COMPLEMENT_RAMP, "annulus", +1, _rate_r_pow),
    ChainId.CA3P: _ChainSpec("bound", BarrierKind.PLATEAU_BUMP, "annulus", -1,
                             _rate_r_pow, constant="plateau_height"),
    ChainId.NITU: _ChainSpec("sign", BarrierKind.COMPLEMENT_WITH_PLATEAU, "annulus", constant="plateau_height"),
    ChainId.CA10: _ChainSpec("bound", BarrierKind.EXTERIOR_POWER, "exterior_2r", +1, _rate_outer_near),
    ChainId.CA10L: _ChainSpec("bound", BarrierKind.POWER_SHELL, "exterior_2r", -1,
                              _rate_outer_far, constant="shell_coef"),
    ChainId.RI: _ChainSpec("sign", BarrierKind.EXTERIOR_WITH_SHELL, "exterior_2r", constant="shell_coef"),
}


def chain_info(chain: ChainId | str) -> _ChainSpec:
    chain = ChainId(chain) if not isinstance(chain, ChainId) else chain
    return _CHAINS[chain]


def _region_samples(spec: _ChainSpec, constants: BarrierConstants,
                    policy: SamplePolicy) -> np.ndarray:
    r0, r = constants.base_radius, constants.outer_radius
    g = _EDGE_GUARD
    if spec.region == "annulus":
        lo, hi = r0 * (1.0 + g), r * (1.0 - g)
    elif spec.region == "annulus_out":
        lo, hi = r * (1.0 + g), 10.0 * r
    elif spec.region == "exterior_unit":
        lo, hi = 1.05, 100.0  # a wider guard off the unit sphere
    elif spec.region == "exterior_2r":
        lo, hi = 2.0 * r * (1.0 + g), policy.exterior_span * r
    elif spec.region == "exterior_sign":
        if constants.exterior_sign_radius is None:
            raise ConfigurationError(
                "the capped-composite chain needs exterior_sign_radius from choose_constants")
        lo = constants.exterior_sign_radius
        hi = policy.exterior_span * lo
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown region {spec.region!r}")
    if hi <= lo:
        raise ConfigurationError("sampling region is empty")
    return np.geomspace(lo, hi, policy.points)


def _barriers_on_regions(probes: Sequence[tuple[_ChainSpec, BarrierConstants]], params: FracParams,
                         policy: SamplePolicy, quad: QuadSpec) -> list[tuple[np.ndarray, ...]]:
    """Each (chain, constants) probe's barrier on its sampled region, all in one engine pass: per probe
    the radii, values, error estimates and converged flags."""
    jobs = [(make_barrier(spec.barrier, c, params), _region_samples(spec, c, policy), quad) for spec, c in probes]
    return [(xs, vals, errs, ok) for (_, xs, _), (vals, errs, _, ok) in zip(jobs, eval_radial_jobs(jobs, params))]


def _unconverged(converged: np.ndarray) -> str | None:
    """Why a batch is INCONCLUSIVE whatever its values: more than 5 % of it did not converge."""
    bad = int(np.count_nonzero(~converged))
    return f"{bad} of {converged.size} evaluations did not converge" if bad > 0.05 * converged.size else None


def _sign_verdict(q: np.ndarray, err: np.ndarray, converged: np.ndarray) -> tuple[Verdict, np.ndarray]:
    """The sampled verdict on q > 0 of sign chains (q = -value) and scan members (q = residual),
    with the margins q - 2 err: PASS when every margin is positive, FAIL when some q + 2 err is
    negative, INCONCLUSIVE otherwise or when more than 5 % of the samples are ``_unconverged``."""
    margins = q - 2.0 * err
    if _unconverged(converged):
        return Verdict.INCONCLUSIVE, margins
    if np.any(q + 2.0 * err < 0.0):
        return Verdict.FAIL, margins
    return (Verdict.PASS if np.all(margins > 0.0) else Verdict.INCONCLUSIVE), margins


@dataclass(frozen=True)
class RateFit:
    constant: float
    slope: float
    residual: float
    ratio_spread: float | None = None


def fit_rate(r_values: Sequence[float], maxima: Sequence[float],
             rate: Callable[[float], float] | None = None) -> RateFit:
    """Least-squares log-log fit of per-radius maxima; |value| is fitted.

    Returns the fitted prefactor at r=1, the slope, the RMS log residual,
    and, when a rate law is supplied, the max/min spread of value/rate.
    """
    r_arr = np.asarray(r_values, dtype=float)
    v_arr = np.abs(np.asarray(maxima, dtype=float))
    if r_arr.size < 4 or r_arr.max() / r_arr.min() < 10.0:
        raise ConfigurationError("rate fitting needs >= 4 radii spanning a decade")
    if np.any(v_arr == 0.0):
        raise ConfigurationError("rate fitting needs nonzero values")
    logs = np.log(v_arr)
    logr = np.log(r_arr)
    slope, intercept = np.polyfit(logr, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * logr + intercept)) ** 2)))
    spread = None
    if rate is not None:
        ratios = v_arr / np.asarray([abs(rate(float(r))) for r in r_arr])
        spread = float(ratios.max() / ratios.min())
    return RateFit(float(math.exp(intercept)), float(slope), resid, spread)


@dataclass(frozen=True)
class VerificationReport:
    chain: ChainId
    params: FracParams
    constants: BarrierConstants
    samples: tuple[tuple[float, float, float], ...]  # (radius, value, err)
    worst_margin: float
    verdict: Verdict
    fitted_constant: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def verify_chain(chain: ChainId | str, params: FracParams, constants: BarrierConstants,
                 sample: SamplePolicy = SamplePolicy(),
                 quad: QuadSpec = QuadSpec(rel_tol=5e-8, abs_tol=1e-14)) -> VerificationReport:
    """Verify one estimate chain on sampled radii.

    SIGN chains PASS when every sampled value is negative with margin beyond
    twice its error estimate; BOUND chains PASS when every value sits under
    the fitted envelope and the envelope constant is stable (within 30%)
    across two working radii.  Near-zero values are INCONCLUSIVE, never PASS.
    """
    chain = ChainId(chain) if not isinstance(chain, ChainId) else chain
    spec = _CHAINS[chain]
    notes: list[str] = []
    working = [constants] if spec.kind == "sign" else \
        [constants, constants.with_updates(outer_radius=constants.outer_radius * math.sqrt(10.0))]  # r, sqrt(10) r
    (xs, vals, errs, converged), *second = _barriers_on_regions([(spec, c) for c in working], params, sample, quad)
    samples = tuple(zip(xs.tolist(), vals.tolist(), errs.tolist()))
    unconverged = _unconverged(converged)
    if unconverged:
        return VerificationReport(chain, params, constants, samples, float("nan"), Verdict.INCONCLUSIVE,
                                  notes=(unconverged,))

    if spec.kind == "sign":
        verdict, margins = _sign_verdict(-vals, errs, converged)
        if verdict is Verdict.INCONCLUSIVE:
            notes.append("values within twice their error estimates near zero")
        return VerificationReport(chain, params, constants, samples, float(margins.min()), verdict,
                                  notes=tuple(notes))

    # bound chains: values <= C * envelope (envelope_sign = +1) or
    # values <= -c * envelope with c > 0 (envelope_sign = -1)
    rate_vals = spec.rate(xs, constants.outer_radius, params)
    (xs2, vals2, errs2, _), = second
    rate2 = spec.rate(xs2, working[1].outer_radius, params)

    if spec.envelope_sign > 0:
        c1 = float((vals / rate_vals).max())
        c2 = float((vals2 / rate2).max())
        worst = float(np.min(c1 * rate_vals - (vals - 2.0 * errs)))
        conclusive = True
    else:
        m1 = (-vals - 2.0 * errs) / rate_vals
        m2 = (-vals2 - 2.0 * errs2) / rate2
        c1, c2 = float(m1.min()), float(m2.min())
        worst = min(c1, c2)
        conclusive = worst > 0.0
    scale = getattr(constants, spec.constant) if spec.constant else 1.0
    fitted = c1 / scale
    stable = abs(c1 - c2) <= 0.3 * max(abs(c1), abs(c2))
    if not conclusive:
        verdict = Verdict.INCONCLUSIVE
        notes.append("negative envelope constant not resolved above error bars")
    elif stable:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
        notes.append(f"envelope constant unstable across radii: {c1:.3g} vs {c2:.3g}")
    return VerificationReport(chain, params, constants, samples, worst, verdict,
                              fitted_constant=fitted, notes=tuple(notes))


def measure_rate(chain: ChainId | str, params: FracParams, constants: BarrierConstants,
                 r_grid: Sequence[float], points_per_r: int = 24,
                 quad: QuadSpec = QuadSpec(rel_tol=1e-6, abs_tol=1e-10)) -> RateFit:
    """Fit the decay of the per-radius extreme operator value over a radius grid."""
    chain = ChainId(chain) if not isinstance(chain, ChainId) else chain
    spec = _CHAINS[chain]
    if spec.rate is None:
        raise ConfigurationError(f"chain {chain.value} has no rate envelope")
    probes = [(spec, constants.with_updates(outer_radius=float(r))) for r in r_grid]
    maxima = [float(vals.max() if spec.envelope_sign > 0 else -vals.min())
              for _, vals, _, _ in _barriers_on_regions(probes, params, SamplePolicy(points=points_per_r), quad)]
    rate_at = lambda r: float(spec.rate(np.asarray([2.0 * r]), r, params)[0]) if \
        spec.region == "exterior_2r" else float(spec.rate(np.asarray([r]), r, params)[0])
    return fit_rate(list(r_grid), maxima, rate_at)
