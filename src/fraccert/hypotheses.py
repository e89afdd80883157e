"""Sampled checks of the nonlinearity growth hypotheses.

The conditions are liminf statements, which no finite computation decides;
each checker samples the defining quantity along a geometric sequence,
classifies the trend of the last few samples, and reports HOLDS / FAILS only
when that trend is monotone, INCONCLUSIVE otherwise.  Infima over the scaled
argument range are ``profiles.sampled_inf`` over 400 geometric samples.  A NaN
or infinite sample of the nonlinearity raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, PositivityViolation
from .params import FracParams
from .profiles import Branch, RadialProfile, _branch_of, finite_samples, positive_fundamental, sampled_inf

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
    """Critical range exponent 1 + (2s - gamma)/(n - 2s); the log branch (``profiles._branch_of``) raises."""
    if _branch_of(params) is Branch.LOG:
        raise DomainError("the exponent is undefined at sigma_star = 0 "
                          "(that regime uses the exponential condition)")
    return 1.0 + (2.0 * params.s - gamma) / (-params.sigma_star)


# ------------------------------------------------------------------ infima


_GRID_POINTS = 400
_DECADES = 6  # the liminf checks sample |x| = r0 10^j up to j = _DECADES
_F2_STEPS = 40  # check_f2 samples t = 2^-k for k = 1.._F2_STEPS
_LOG_MAX = 709.0  # exp of a log below this is a finite float
_K_STEPS = 12  # the range cap runs k = 2^-j (check_f3prime) or 2^j (check_f4prime), j = 0.._K_STEPS
_F2PRIME_BOXES = ((0.5, 2.0), (0.1, 1.0), (1.0, 10.0))  # the compact t-boxes of check_f2prime
_F2PRIME_VERDICT = {Trend.INCREASING: Verdict.HOLDS, Trend.MIXED: Verdict.INCONCLUSIVE,
                    Trend.DECREASING: Verdict.FAILS, Trend.PLATEAU: Verdict.FAILS}  # per box


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

    return x_norm ** (2.0 * params.s) * sampled_inf(ratio, lo, hi, _GRID_POINTS)


def h_of_k(k: float, spec: NonlinearitySpec, params: FracParams,
           variant: str = "F3") -> tuple[float, Trend]:
    """Sampled liminf over |x| -> inf of psi_k: the minimum over 10^j r0, j = 1.._DECADES."""
    radii = [spec.r0 * 10.0**j for j in range(1, _DECADES + 1)]
    vals = [psi_k(x, k, spec, params, variant) for x in radii]
    finite = [v for v in vals if math.isfinite(v)]
    trend = _classify(finite) if len(finite) >= 3 else Trend.MIXED
    return (min(vals), trend)


# ------------------------------------------------------------------ trends


def _classify(seq: Sequence[float], window: int = 5, flat_tol: float = 0.02, logs: bool = False) -> Trend:
    """Trend of the last ``window`` values: by log steps if all are positive (``logs``: they are logs), else steps."""
    tail = list(seq)[-window:]
    if len(tail) < 2:
        return Trend.MIXED
    if not logs and any(v <= 0.0 for v in tail):
        diffs = np.diff(tail)
    else:
        diffs = np.diff(tail if logs else np.log(tail))
        if np.all(np.abs(diffs) < flat_tol):
            return Trend.PLATEAU
    if np.all(diffs > 0.0):
        return Trend.INCREASING
    if np.all(diffs < 0.0):
        return Trend.DECREASING
    return Trend.MIXED


# ------------------------------------------------------------------ checks


def check_f2(spec: NonlinearitySpec, params: FracParams) -> HypothesisReport:
    """Small-argument mass: liminf of q = t^(-n/(n-2s)) f(t) as t -> 0 (decaying branch), the trend read from
    log q = log f(t) - e* log t, which stays finite where q overflows (such a q reads inf)."""
    if _branch_of(params) is not Branch.POWER_NEG:
        raise ConfigurationError("this condition lives in the n > 2s regime")
    expo = params.n / (params.n - 2.0 * params.s)
    ts = [2.0 ** (-k) for k in range(1, _F2_STEPS + 1)]
    qs, log_qs = [], []
    for t in ts:
        f_val = float(finite_samples(spec.f(np.asarray([t]), spec.r0), f"the nonlinearity at t={t}")[0])
        f_val *= spec.r0**spec.gamma if spec.form == "separable" else 1.0
        if f_val <= 0.0:
            raise PositivityViolation(f"nonlinearity nonpositive at t={t}")
        log_qs.append(math.log(f_val) - expo * math.log(t))
        try:
            qs.append(t**(-expo) * f_val)  # a product past the float range is inf; only the power raises
        except OverflowError:
            qs.append(math.exp(log_qs[-1]) if log_qs[-1] < _LOG_MAX else math.inf)
    # the sequence runs toward t -> 0, so the trend is read along the run
    trend = _classify(log_qs, logs=True)
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


def check_f3prime(spec: NonlinearitySpec, params: FracParams) -> HypothesisReport:
    """Blow-up of the sampled liminf quantity as the range cap k -> 0."""
    spec.validate_gamma(params)
    if _branch_of(params) is Branch.POWER_NEG:
        raise ConfigurationError("this condition lives in the n <= 2s regime")
    ks = [2.0 ** (-j) for j in range(0, _K_STEPS + 1)]
    return _k_sequence_check("f3prime", spec, params, "F3", ks)


def check_f4prime(spec: NonlinearitySpec, params: FracParams) -> HypothesisReport:
    """Blow-up of the sampled liminf quantity as the range cap k -> +inf."""
    spec.validate_gamma(params)
    if _branch_of(params) is not Branch.POWER_NEG:
        raise ConfigurationError("this condition lives in the n > 2s regime")
    ks = [2.0**j for j in range(0, _K_STEPS + 1)]
    return _k_sequence_check("f4prime", spec, params, "F4", ks)


def check_f2prime(spec: NonlinearitySpec, params: FracParams) -> HypothesisReport:
    """|x|^2s f(t,x) -> inf locally uniformly: sampled on compact t-boxes."""
    spec.validate_gamma(params)
    radii = [spec.r0 * 10.0**j for j in range(0, _DECADES + 1)]
    trends, seqs = [], []
    for a, b in _F2PRIME_BOXES:
        tgrid = np.geomspace(a, b, 64)
        seq = []
        for x in radii:
            f_vals = finite_samples(spec.f(tgrid, x), f"the nonlinearity on box ({a},{b}) at |x|={x}")
            if np.any(f_vals < 0.0):
                raise PositivityViolation(f"nonlinearity negative on box ({a},{b}) at |x|={x}")
            # exact zeros are kept: they witness decay (underflow included)
            seq.append(float(x ** (2.0 * params.s) * f_vals.min()))
        seqs.append(seq)
        trend = _classify(seq)
        if seq[-1] < 1e-12 * max(seq):
            trend = Trend.DECREASING  # decayed to (numerical) zero
        trends.append(trend)
    # whatever the box order: any bounded box FAILS, else any MIXED box is INCONCLUSIVE
    verdicts = [_F2PRIME_VERDICT[trend] for trend in trends]
    verdict = next(v for v in (Verdict.FAILS, Verdict.INCONCLUSIVE, Verdict.HOLDS) if v in verdicts)
    flat = tuple(float(v) for seq in seqs for v in seq)
    return HypothesisReport("f2prime", tuple(radii), flat, trends[verdicts.index(verdict)], verdict)


# ------------------------------------------------------------------ builtins


def _number(value, what: str) -> float:
    """A JSON-style number (``what`` names it) as a float; a null, list or word raises."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} must be a number, not {value!r}") from None


_G_KEYS = {"power": {"p"}, "exponential": {"a"}, "critical_splice": set(), "piecewise_powers": {"pieces"}}


def builtin_g(name: str, params: FracParams | None = None, **kw) -> Callable:
    """Named model nonlinearities: power, exponential, critical_splice, piecewise_powers; other keys raise."""
    known = _G_KEYS.get(name) if isinstance(name, str) else None
    if known is None:
        raise ConfigurationError(f"unknown builtin nonlinearity {name!r}")
    if set(kw) - known:
        raise ConfigurationError(f"{name} takes no key {', '.join(map(repr, sorted(set(kw) - known)))}")
    if name == "power":
        p = _number(kw.get("p", 1.0), "p")
        return lambda t: np.asarray(t, dtype=float) ** p
    if name == "exponential":
        a = _number(kw.get("a", 1.0), "a")
        return lambda t: np.exp(-a * np.asarray(t, dtype=float))
    if name == "critical_splice":
        if params is None:
            raise ConfigurationError("critical_splice needs operator parameters")
        if _branch_of(params) is not Branch.POWER_NEG:
            raise ConfigurationError("critical_splice lives in the n > 2s regime")
        expo = params.n / (params.n - 2.0 * params.s)

        def splice(t):
            t_arr = np.asarray(t, dtype=float)
            low = 2.5 * t_arr**expo
            high = np.cos(2.0 * math.pi * t_arr) + 1.0 + 1.0 / np.maximum(t_arr, 1e-300)
            # the t <= 1 branch governs t = 1; the jump there is kept as built
            return np.where(t_arr <= 1.0, low, high)

        return splice
    # piecewise_powers
    pieces = kw.get("pieces")  # [{"upto": float|None, "terms": [[coef, exponent], ...]}]; null only last
    if not isinstance(pieces, (list, tuple)) or not all(isinstance(piece, dict) for piece in pieces):
        raise ConfigurationError("pieces must be a list of objects with upto and terms")
    if not all(isinstance(piece.get("terms"), (list, tuple))
               and all(isinstance(t, (list, tuple)) and len(t) == 2 for t in piece["terms"]) for piece in pieces):
        raise ConfigurationError("the terms of a piece must be a list of [coef, exponent] pairs")
    if any(piece.get("upto") is None for piece in pieces[:-1]):
        raise ConfigurationError("only the last piece may have upto null")
    uptos = tuple(_number(piece["upto"], "upto") for piece in pieces if piece.get("upto") is not None)
    terms = tuple(tuple((_number(c, "a coefficient"), _number(e, "an exponent"), False) for c, e in piece["terms"])
                  for piece in pieces)
    return RadialProfile(uptos, terms + ((),) * (len(uptos) == len(pieces)))  # finite last upto: zero beyond


def spec_from_dict(data: dict, params: FracParams | None = None) -> NonlinearitySpec:
    """A nonlinearity spec from a mapping of g and optionally form, gamma, mu_lower, mu_upper, r0; others raise."""
    g_conf = data.get("g") if isinstance(data, dict) else None
    if not isinstance(g_conf, dict):
        raise ConfigurationError("a nonlinearity spec is a JSON object with a g, which is one too")
    if extra := sorted(set(data) - {"form", "g", "gamma", "mu_lower", "mu_upper", "r0"}, key=str):
        raise ConfigurationError(f"a nonlinearity spec takes no key {', '.join(map(repr, extra))}")
    form = data.get("form", "separable")
    if form == "separable":
        name = g_conf.get("name", "power")
        kwargs = {k: v for k, v in g_conf.items() if k != "name"}
        g = builtin_g(name, params, **kwargs)
        return NonlinearitySpec(
            form="separable", g=g, gamma=_number(data.get("gamma", 0.0), "gamma"),
            mu_lower=_number(data.get("mu_lower", 1.0), "mu_lower"),
            mu_upper=_number(data.get("mu_upper", 1.0), "mu_upper"), r0=_number(data.get("r0", 2.0), "r0"),
        )
    raise ConfigurationError("only separable specs are supported as structured input")
