"""Sampled checks of the nonlinearity growth hypotheses.

The conditions are liminf statements, which no finite computation decides;
each checker samples the defining quantity along a geometric sequence,
classifies the trend of the last few samples, and reports HOLDS / FAILS only
when that trend is monotone, INCONCLUSIVE otherwise.  Infima over the scaled
argument range use a 400-point log grid with one refinement pass around the
grid minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, PositivityViolation
from .params import FracParams
from .profiles import positive_fundamental

__all__ = [
    "NonlinearitySpec",
    "HypothesisReport",
    "Trend",
    "Verdict",
    "alpha_tilde_star",
    "psi_k",
    "h_of_k",
    "check_f2",
    "check_f2prime",
    "check_f3prime",
    "check_f4prime",
    "builtin_g",
    "spec_from_dict",
]


class Trend(Enum):
    INCREASING = "INCREASING"
    DECREASING = "DECREASING"
    PLATEAU = "PLATEAU"
    MIXED = "MIXED"


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class NonlinearitySpec:
    """Forcing term f(t, x), either separable |x|^(-gamma) g(t) or general.

    mu_lower / mu_upper are the free endpoints of the scaled infimum ranges;
    the write-ups leave them open, so they default to 1 and are reported with
    the results.
    """

    form: str = "separable"      # "separable" or "general"
    g: Callable[[np.ndarray], np.ndarray] | None = None
    gamma: float = 0.0
    f_general: Callable | None = None  # f(t, x_norm)
    mu_lower: float = 1.0
    mu_upper: float = 1.0
    r0: float = 2.0

    def __post_init__(self) -> None:
        if self.form not in ("separable", "general"):
            raise ConfigurationError("form must be 'separable' or 'general'")
        if self.form == "separable" and self.g is None:
            raise ConfigurationError("separable specs need g")
        if self.form == "general" and self.f_general is None:
            raise ConfigurationError("general specs need the callable f(t, x)")
        if min(self.mu_lower, self.mu_upper) <= 0.0:
            raise ConfigurationError("range endpoints must be positive")

    def validate_gamma(self, params: FracParams) -> None:
        if self.form == "separable" and not self.gamma < 2.0 * params.s:
            raise ConfigurationError("separable form requires gamma < 2s")

    def f(self, t, x_norm) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        if self.form == "separable":
            vals = np.asarray(self.g(t_arr), dtype=float) * np.asarray(x_norm, dtype=float) ** (-self.gamma)
        else:
            vals = np.asarray(self.f_general(t_arr, x_norm), dtype=float)
        return vals


@dataclass(frozen=True)
class HypothesisReport:
    condition: str
    sample_grid: tuple[float, ...]
    quantities: tuple[float, ...]
    trend: Trend
    verdict: Verdict
    plateau_value: float | None = None
    fit_slope: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def alpha_tilde_star(params: FracParams, gamma: float = 0.0) -> float:
    """Critical range exponent 1 + (2s - gamma)/(n - 2s)."""
    if abs(params.sigma_star) < 1e-14:
        raise DomainError("the exponent is undefined at sigma_star = 0 "
                          "(that regime uses the exponential condition)")
    return 1.0 + (2.0 * params.s - gamma) / (-params.sigma_star)


# ------------------------------------------------------------------ infima


_GRID_POINTS = 400


def _log_grid_inf(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Grid infimum with one refinement pass around the minimizer."""
    if hi <= lo:
        raise ConfigurationError("empty range")
    if hi / lo < 1.0 + 1e-12:
        return float(fn(np.asarray([lo]))[0])
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    vals = np.asarray(fn(grid), dtype=float)
    if np.any(~np.isfinite(vals)):
        raise DomainError("nonlinearity not evaluable on the range")
    i = int(vals.argmin())
    lo2, hi2 = grid[max(0, i - 2)], grid[min(len(grid) - 1, i + 2)]
    fine = np.geomspace(lo2, hi2, 100)
    vals2 = np.asarray(fn(fine), dtype=float)
    return float(min(vals.min(), vals2.min()))


def psi_k(x_norm: float, k: float, spec: NonlinearitySpec, params: FracParams,
          variant: str = "F3") -> float:
    """|x|^2s times the infimum of f(t,x)/t over the scaled range.

    Variant F3 uses the range [mu_lower, k * Phi_plus(x)] with the growing
    fundamental branch; F4 uses [k * Phi_plus(x), mu_upper] with the decaying
    branch.  Empty ranges return +inf.
    """
    if variant not in ("F3", "F4"):
        raise ConfigurationError("variant must be 'F3' or 'F4'")
    phi = float(positive_fundamental(params)(x_norm))
    if variant == "F3":
        lo, hi = spec.mu_lower, k * phi
    else:
        lo, hi = k * phi, spec.mu_upper
    if hi <= lo:
        return math.inf

    def ratio(t: np.ndarray) -> np.ndarray:
        f_vals = spec.f(t, x_norm)
        if np.any(f_vals <= 0.0):
            raise PositivityViolation(
                f"nonlinearity nonpositive at t={t[np.asarray(f_vals) <= 0][:1]}, |x|={x_norm}")
        return f_vals / t

    return x_norm ** (2.0 * params.s) * _log_grid_inf(ratio, lo, hi)


def h_of_k(k: float, spec: NonlinearitySpec, params: FracParams, variant: str = "F3",
           decades: int = 6) -> tuple[float, Trend]:
    """Sampled liminf over |x| -> inf of psi_k: the minimum over 10^j r0."""
    radii = [spec.r0 * 10.0**j for j in range(1, decades + 1)]
    vals = [psi_k(x, k, spec, params, variant) for x in radii]
    finite = [v for v in vals if math.isfinite(v)]
    trend = _classify([v for v in vals if math.isfinite(v)]) if len(finite) >= 3 else Trend.MIXED
    return (min(vals), trend)


# ------------------------------------------------------------------ trends


def _classify(seq: Sequence[float], window: int = 5, flat_tol: float = 0.02) -> Trend:
    tail = list(seq)[-window:]
    if len(tail) < 2:
        return Trend.MIXED
    if any(v <= 0.0 for v in tail):
        diffs = np.diff(tail)
    else:
        diffs = np.diff(np.log(tail))
        if np.all(np.abs(diffs) < flat_tol):
            return Trend.PLATEAU
    if np.all(diffs > 0.0):
        return Trend.INCREASING
    if np.all(diffs < 0.0):
        return Trend.DECREASING
    return Trend.MIXED


# ------------------------------------------------------------------ checks


def check_f2(spec: NonlinearitySpec, params: FracParams, k_max: int = 40) -> HypothesisReport:
    """Small-argument mass: liminf of t^(-n/(n-2s)) f(t) as t -> 0."""
    if not params.n > 2.0 * params.s:
        raise ConfigurationError("this condition lives in the n > 2s regime")
    expo = params.n / (params.n - 2.0 * params.s)
    ts = [2.0 ** (-k) for k in range(1, k_max + 1)]
    qs = []
    for t in ts:
        f_val = float(spec.f(np.asarray([t]), spec.r0)[0]) * spec.r0**spec.gamma \
            if spec.form == "separable" else float(spec.f(np.asarray([t]), spec.r0)[0])
        if not math.isfinite(f_val):
            raise DomainError(f"nonlinearity not evaluable at t={t}")
        if f_val <= 0.0:
            raise PositivityViolation(f"nonlinearity nonpositive at t={t}")
        qs.append(t**(-expo) * f_val)
    # the sequence runs toward t -> 0, so the trend is read along the run
    trend = _classify(qs)
    notes: list[str] = []
    if trend is Trend.INCREASING:
        verdict = Verdict.HOLDS
    elif trend is Trend.PLATEAU:
        verdict = Verdict.HOLDS if qs[-1] > 0.0 else Verdict.FAILS
    elif trend is Trend.DECREASING:
        verdict = Verdict.FAILS
        notes.append("quantity decays toward zero with the argument")
    else:
        verdict = Verdict.INCONCLUSIVE
    plateau = qs[-1] if trend is Trend.PLATEAU else None
    return HypothesisReport("f2", tuple(ts), tuple(qs), trend, verdict, plateau_value=plateau,
                            notes=tuple(notes))


def _k_sequence_check(condition: str, spec: NonlinearitySpec, params: FracParams,
                      variant: str, ks: Sequence[float]) -> HypothesisReport:
    """Classify the blow-up of the sampled liminf quantity along a k sequence.

    Empty ranges at every sampled radius produce +inf entries; a trailing run
    of them counts as continued growth.  Growth within the sample-radius
    quantization factor (10^2s between consecutive radii) is treated as
    bounded, since the minimum can jump by that much when a small radius
    drops out of the admissible set.
    """
    vals = []
    notes: list[str] = []
    for k in ks:
        v, _ = h_of_k(k, spec, params, variant)
        vals.append(v)
    finite = [(k, v) for k, v in zip(ks, vals) if math.isfinite(v)]
    if not finite:
        return HypothesisReport(condition, tuple(ks), tuple(vals), Trend.MIXED,
                                Verdict.INCONCLUSIVE,
                                notes=("every sampled range was empty",))
    fin_vals = [v for _, v in finite]
    trend = _classify(fin_vals)
    positive = all(v > 0.0 for v in fin_vals)
    trailing_infs = 0
    for v in reversed(vals):
        if math.isinf(v):
            trailing_infs += 1
        else:
            break
    slope = None
    if len(finite) >= 4:
        lk = np.log([k for k, _ in finite])
        lv = np.log(np.maximum(fin_vals, 1e-300))
        slope = float(np.polyfit(lk, lv, 1)[0])
    growth = fin_vals[-1] / fin_vals[0] if fin_vals[0] > 0.0 else math.inf
    quantization = 1.05 * 10.0 ** (2.0 * params.s)
    window = fin_vals[-min(5, len(fin_vals)):]
    strictly_up = len(window) >= 3 and all(b > a * (1.0 + 1e-9) for a, b in zip(window, window[1:]))
    if not positive:
        verdict = Verdict.FAILS
        notes.append("sampled value nonpositive")
    elif trailing_infs == 0 and growth <= quantization:
        verdict = Verdict.FAILS
        notes.append("sequence bounded within the sampling quantization (no blow-up)")
    elif strictly_up and (growth > quantization or trailing_infs > 0):
        verdict = Verdict.HOLDS
    elif trend in (Trend.PLATEAU, Trend.DECREASING) and trailing_infs == 0:
        verdict = Verdict.FAILS
        notes.append("no blow-up along the k sequence")
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append("trend not monotone over the last samples")
    if trailing_infs:
        notes.append(f"{trailing_infs} trailing k values had empty ranges at every radius")
    return HypothesisReport(condition, tuple(ks), tuple(vals), trend, verdict,
                            fit_slope=slope, notes=tuple(notes))


def check_f3prime(spec: NonlinearitySpec, params: FracParams, j_max: int = 12) -> HypothesisReport:
    """Blow-up of the sampled liminf quantity as the range cap k -> 0."""
    spec.validate_gamma(params)
    if params.sigma_star < 0.0:
        raise ConfigurationError("this condition lives in the n <= 2s regime")
    ks = [2.0 ** (-j) for j in range(0, j_max + 1)]
    return _k_sequence_check("f3prime", spec, params, "F3", ks)


def check_f4prime(spec: NonlinearitySpec, params: FracParams, j_max: int = 12) -> HypothesisReport:
    """Blow-up of the sampled liminf quantity as the range cap k -> +inf."""
    spec.validate_gamma(params)
    if params.sigma_star >= 0.0:
        raise ConfigurationError("this condition lives in the n > 2s regime")
    ks = [2.0**j for j in range(0, j_max + 1)]
    return _k_sequence_check("f4prime", spec, params, "F4", ks)


def check_f2prime(spec: NonlinearitySpec, params: FracParams,
                  boxes: Sequence[tuple[float, float]] = ((0.5, 2.0), (0.1, 1.0), (1.0, 10.0)),
                  decades: int = 6) -> HypothesisReport:
    """|x|^2s f(t,x) -> inf locally uniformly: sampled on compact t-boxes."""
    spec.validate_gamma(params)
    radii = [spec.r0 * 10.0**j for j in range(0, decades + 1)]
    worst_trend = Trend.INCREASING
    seqs = []
    for a, b in boxes:
        tgrid = np.geomspace(a, b, 64)
        seq = []
        for x in radii:
            f_vals = spec.f(tgrid, x)
            if np.any(f_vals < 0.0):
                raise PositivityViolation(f"nonlinearity negative on box ({a},{b}) at |x|={x}")
            # exact zeros are kept: they witness decay (underflow included)
            seq.append(float(x ** (2.0 * params.s) * f_vals.min()))
        seqs.append(seq)
        trend = _classify(seq)
        if seq[-1] < 1e-12 * max(seq):
            trend = Trend.DECREASING  # decayed to (numerical) zero
        if trend is not Trend.INCREASING:
            worst_trend = trend
    verdict = Verdict.HOLDS if worst_trend is Trend.INCREASING else (
        Verdict.FAILS if worst_trend in (Trend.DECREASING, Trend.PLATEAU) else Verdict.INCONCLUSIVE)
    flat = tuple(float(v) for seq in seqs for v in seq)
    return HypothesisReport("f2prime", tuple(radii), flat, worst_trend, verdict)


# ------------------------------------------------------------------ builtins


def builtin_g(name: str, params: FracParams | None = None, **kw) -> Callable:
    """Named model nonlinearities: power, exponential, critical_splice, piecewise."""
    if name == "power":
        p = float(kw.get("p", 1.0))
        return lambda t: np.asarray(t, dtype=float) ** p
    if name == "exponential":
        a = float(kw.get("a", 1.0))
        return lambda t: np.exp(-a * np.asarray(t, dtype=float))
    if name == "critical_splice":
        if params is None:
            raise ConfigurationError("critical_splice needs operator parameters")
        if not params.n > 2.0 * params.s:
            raise ConfigurationError("critical_splice lives in the n > 2s regime")
        expo = params.n / (params.n - 2.0 * params.s)

        def splice(t):
            t_arr = np.asarray(t, dtype=float)
            low = 2.5 * t_arr**expo
            high = np.cos(2.0 * math.pi * t_arr) + 1.0 + 1.0 / np.maximum(t_arr, 1e-300)
            # the t <= 1 branch governs t = 1; the jump there is kept as built
            return np.where(t_arr <= 1.0, low, high)

        return splice
    if name == "piecewise_powers":
        pieces = kw["pieces"]  # [{"upto": float|None, "terms": [[coef, exponent], ...]}]

        def pw(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros_like(t_arr)
            lo = 0.0
            for piece in pieces:
                hi = piece.get("upto")
                hi_val = math.inf if hi is None else float(hi)
                mask = (t_arr > lo) & (t_arr <= hi_val)
                acc = np.zeros_like(t_arr[mask])
                for coef, expo in piece["terms"]:
                    acc += float(coef) * t_arr[mask] ** float(expo)
                out[mask] = acc
                lo = hi_val
            return out

        return pw
    raise ConfigurationError(f"unknown builtin nonlinearity {name!r}")


def splice_jump(params: FracParams) -> tuple[float, float]:
    """Left and right values of the built-in spliced example at t = 1."""
    g = builtin_g("critical_splice", params)
    left = float(g(np.asarray([1.0]))[0])
    right = float(np.cos(2.0 * math.pi) + 1.0 + 1.0)
    return left, right


def spec_from_dict(data: dict, params: FracParams | None = None) -> NonlinearitySpec:
    """Build a nonlinearity spec from a JSON-style mapping."""
    form = data.get("form", "separable")
    if form == "separable":
        g_conf = data.get("g", {})
        name = g_conf.get("name", "power")
        kwargs = {k: v for k, v in g_conf.items() if k != "name"}
        g = builtin_g(name, params, **kwargs)
        return NonlinearitySpec(
            form="separable", g=g, gamma=float(data.get("gamma", 0.0)),
            mu_lower=float(data.get("mu_lower", 1.0)), mu_upper=float(data.get("mu_upper", 1.0)),
            r0=float(data.get("r0", 2.0)),
        )
    raise ConfigurationError("only separable specs are supported as structured input")
