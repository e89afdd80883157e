"""Piecewise closed-form radial profiles and the comparison-barrier catalog.

A profile is a function of the radius rho > 0 given, on each of finitely many
intervals, by a finite sum of terms a*rho^b and a*log(rho).  Profiles stay
symbolic (term lists, never samples) so that spherical means, radial
Laplacians and far-field tails can be computed in closed form.

Evaluation at a breakpoint uses the piece on the left; jump discontinuities
are kept as constructed and can be listed with :meth:`RadialProfile.jumps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .params import FracParams

# A term is (coef, exponent, is_log): coef*rho**exponent, or coef*log(rho).
Term = tuple[float, float, bool]


def _clean_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Combine like terms and drop zero coefficients."""
    acc: dict[tuple[float, bool], float] = {}
    for coef, expo, is_log in terms:
        key = (0.0 if is_log else float(expo), bool(is_log))
        acc[key] = acc.get(key, 0.0) + float(coef)
    cleaned = [
        (coef, expo, is_log)
        for (expo, is_log), coef in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if coef != 0.0
    ]
    return tuple(cleaned)


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise sum of powers and logarithms of the radius.

    ``pieces[i]`` is the term tuple on ``(breakpoints[i-1], breakpoints[i]]``,
    with the first piece starting at 0+ and the last extending to infinity.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        if any(b <= 0.0 for b in bps):
            raise ConfigurationError("breakpoints must be positive radii")
        if list(bps) != sorted(set(bps)):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) + 1:
            raise ConfigurationError("need exactly len(breakpoints)+1 pieces")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(_clean_terms(p) for p in self.pieces))

    # ------------------------------------------------------------------ eval

    def _piece_index(self, rho: np.ndarray) -> np.ndarray:
        # side='left' puts a breakpoint radius into the piece on its left
        return np.searchsorted(np.asarray(self.breakpoints), rho, side="left")

    def __call__(self, rho) -> np.ndarray | float:
        rho_arr = np.asarray(rho, dtype=float)
        scalar = rho_arr.ndim == 0
        rho_arr = np.atleast_1d(rho_arr)
        if np.any(rho_arr <= 0.0):
            raise DomainError("radial profiles are defined for rho > 0")
        out = np.zeros_like(rho_arr)
        idx = self._piece_index(rho_arr)
        for i, terms in enumerate(self.pieces):
            mask = idx == i
            if not mask.any() or not terms:
                continue
            r = rho_arr[mask]
            val = np.zeros_like(r)
            for coef, expo, is_log in terms:
                val += coef * np.log(r) if is_log else coef * r**expo
            out[mask] = val
        return float(out[0]) if scalar else out

    def radial_laplacian(self, rho, n: int) -> np.ndarray | float:
        """Laplacian on R^n of the radial extension, piecewise closed form."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.zeros_like(rho_arr)
        idx = self._piece_index(rho_arr)
        for i, terms in enumerate(self.pieces):
            mask = idx == i
            if not mask.any():
                continue
            r = rho_arr[mask]
            val = np.zeros_like(r)
            for coef, expo, is_log in terms:
                if is_log:
                    val += coef * (n - 2.0) / r**2
                else:
                    val += coef * expo * (expo + n - 2.0) * r ** (expo - 2.0)
            out[mask] = val
        return float(out[0]) if np.asarray(rho).ndim == 0 else out

    def radial_bilaplacian(self, rho, n: int) -> np.ndarray | float:
        """Squared Laplacian of the radial extension (used by the near-field model)."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.zeros_like(rho_arr)
        idx = self._piece_index(rho_arr)
        for i, terms in enumerate(self.pieces):
            mask = idx == i
            if not mask.any():
                continue
            r = rho_arr[mask]
            val = np.zeros_like(r)
            for coef, expo, is_log in terms:
                if is_log:
                    c1 = coef * (n - 2.0)
                    val += c1 * (-2.0) * (n - 4.0) * r**-4
                else:
                    c1 = coef * expo * (expo + n - 2.0)
                    val += c1 * (expo - 2.0) * (expo + n - 4.0) * r ** (expo - 4.0)
            out[mask] = val
        return float(out[0]) if np.asarray(rho).ndim == 0 else out

    def cumulative_rho_integral(self, radius) -> np.ndarray | float:
        """Antiderivative of rho*u(rho), anchored at the first breakpoint.

        Differences of this function give the exact 3-d spherical mean of the
        profile.  The anchor avoids the (possibly divergent) origin.
        """
        anchor = self.breakpoints[0] if self.breakpoints else 1.0
        offsets = [0.0]
        for j in range(1, len(self.breakpoints)):
            lo, hi = self.breakpoints[j - 1], self.breakpoints[j]
            offsets.append(offsets[-1] + self._piece_anti(j, hi) - self._piece_anti(j, lo))
        r_arr = np.atleast_1d(np.asarray(radius, dtype=float))
        idx = self._piece_index(r_arr)
        out = np.zeros_like(r_arr)
        for i in range(len(self.pieces)):
            mask = idx == i
            if not mask.any():
                continue
            r = r_arr[mask]
            if i == 0:
                out[mask] = self._piece_anti(0, r) - self._piece_anti(0, anchor)
            else:
                lo = self.breakpoints[i - 1]
                out[mask] = offsets[i - 1] + self._piece_anti(i, r) - self._piece_anti(i, lo)
        return float(out[0]) if np.asarray(radius).ndim == 0 else out

    def rho_integral_between(self, lo, hi) -> np.ndarray:
        """Exact integral of rho*u(rho) over [lo, hi], elementwise.

        Endpoint pairs inside one piece difference the local antiderivative
        directly, avoiding the large anchored offsets (and their cancellation
        noise) that the cumulative form would introduce.
        """
        lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
        hi_arr = np.atleast_1d(np.asarray(hi, dtype=float))
        idx_lo = self._piece_index(lo_arr)
        idx_hi = self._piece_index(hi_arr)
        out = np.empty_like(lo_arr)
        same = idx_lo == idx_hi
        for i in range(len(self.pieces)):
            mask = same & (idx_lo == i)
            if mask.any():
                out[mask] = self._piece_anti(i, hi_arr[mask]) - self._piece_anti(i, lo_arr[mask])
        cross = ~same
        if cross.any():
            out[cross] = (self.cumulative_rho_integral(hi_arr[cross])
                          - self.cumulative_rho_integral(lo_arr[cross]))
        return out

    def _piece_anti(self, i: int, r) -> np.ndarray | float:
        """Antiderivative of rho*piece_i(rho)."""
        r = np.asarray(r, dtype=float)
        val = np.zeros_like(r)
        for coef, expo, is_log in self.pieces[i]:
            if is_log:
                val = val + coef * r**2 * (2.0 * np.log(r) - 1.0) / 4.0
            elif abs(expo + 2.0) < 1e-13:
                val = val + coef * np.log(r)
            else:
                val = val + coef * r ** (expo + 2.0) / (expo + 2.0)
        return val

    # ------------------------------------------------------------- structure

    def left_value(self, b: float) -> float:
        return float(self(np.asarray(b)))

    def right_value(self, b: float) -> float:
        i = int(np.searchsorted(np.asarray(self.breakpoints), b, side="right"))
        val = 0.0
        for coef, expo, is_log in self.pieces[i]:
            val += coef * math.log(b) if is_log else coef * b**expo
        return val

    def jumps(self, rel_tol: float = 1e-12) -> list[tuple[float, float, float]]:
        """Breakpoints where the profile is discontinuous: (radius, left, right)."""
        found = []
        for b in self.breakpoints:
            left, right = self.left_value(b), self.right_value(b)
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > rel_tol * scale:
                found.append((b, left, right))
        return found

    def max_growth_exponent(self) -> float:
        """Largest far-field growth exponent (log counts as 0+)."""
        last = self.pieces[-1]
        if not last:
            return -math.inf
        expos = [0.0 if is_log else expo for _, expo, is_log in last]
        return max(expos)

    # --------------------------------------------------------------- algebra

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        bps = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        edges = (0.0,) + bps
        pieces = []
        for lo in edges:
            i = self._idx_for_open_left(lo)
            j = other._idx_for_open_left(lo)
            pieces.append(self.pieces[i] + other.pieces[j])
        return RadialProfile(bps, tuple(pieces))

    def _idx_for_open_left(self, lo: float) -> int:
        # piece valid just to the right of radius lo
        return int(np.searchsorted(np.asarray(self.breakpoints), lo, side="right"))

    def __mul__(self, c: float) -> "RadialProfile":
        if not isinstance(c, (int, float)):
            return NotImplemented
        scaled = tuple(
            tuple((coef * float(c), expo, is_log) for coef, expo, is_log in piece)
            for piece in self.pieces
        )
        return RadialProfile(self.breakpoints, scaled)

    __rmul__ = __mul__

    def __neg__(self) -> "RadialProfile":
        return self * -1.0

    def shift(self, constant: float) -> "RadialProfile":
        """Add a constant on every piece."""
        other = RadialProfile((), ((((float(constant), 0.0, False),)),))
        return self + other

    def dilate(self, lam: float) -> "RadialProfile":
        """Profile of rho -> u(lam*rho)."""
        if lam <= 0.0:
            raise ConfigurationError("dilation factor must be positive")
        new_bps = tuple(b / lam for b in self.breakpoints)
        new_pieces = []
        for piece in self.pieces:
            terms: list[Term] = []
            for coef, expo, is_log in piece:
                if is_log:
                    terms.append((coef, 0.0, True))
                    terms.append((coef * math.log(lam), 0.0, False))
                else:
                    terms.append((coef * lam**expo, expo, False))
            new_pieces.append(tuple(terms))
        return RadialProfile(new_bps, tuple(new_pieces))


def constant_profile(value: float) -> RadialProfile:
    return RadialProfile((), (((float(value), 0.0, False),),))


def power_profile(coef: float, exponent: float) -> RadialProfile:
    return RadialProfile((), (((float(coef), float(exponent), False),),))


def log_profile(coef: float) -> RadialProfile:
    return RadialProfile((), (((float(coef), 0.0, True),),))


# ---------------------------------------------------------------------------
# Fundamental solutions
# ---------------------------------------------------------------------------


class Branch(Enum):
    POWER_NEG = "power_neg"  # sigma_star < 0: decaying power
    LOG = "log"              # sigma_star = 0: -log
    POWER_POS = "power_pos"  # sigma_star > 0: -(growing power)


class SignVariant(Enum):
    PLAIN = "plain"      # the branch table as is
    NEGATED = "negated"  # its negative (the other fundamental family)


_SIGMA_ZERO_TOL = 1e-14


def _branch_of(params: FracParams) -> Branch:
    if abs(params.sigma_star) <= _SIGMA_ZERO_TOL:
        return Branch.LOG
    return Branch.POWER_NEG if params.sigma_star < 0 else Branch.POWER_POS


@dataclass(frozen=True)
class FundamentalSolution:
    """Radial function annihilated by (-Delta)^s away from the origin."""

    params: FracParams
    branch: Branch
    sign_variant: SignVariant = SignVariant.PLAIN

    def profile(self) -> RadialProfile:
        sig = self.params.sigma_star
        if self.branch is Branch.POWER_NEG:
            base = power_profile(1.0, sig)
        elif self.branch is Branch.LOG:
            base = log_profile(-1.0)
        else:
            base = power_profile(-1.0, sig)
        return base if self.sign_variant is SignVariant.PLAIN else -base

    def __call__(self, rho):
        return self.profile()(rho)


def make_fundamental(params: FracParams, sign_variant: SignVariant = SignVariant.PLAIN) -> RadialProfile:
    """Fundamental solution profile for the parameter branch.

    The plain variant is r^sigma* (sigma* < 0), -log r (sigma* = 0) or
    -r^sigma* (sigma* > 0); the negated variant flips the sign, which is the
    member that is positive and increasing when sigma* > 0.
    """
    return FundamentalSolution(params, _branch_of(params), sign_variant).profile()


def positive_fundamental(params: FracParams) -> RadialProfile:
    """The fundamental-solution variant that is nonnegative outside the unit ball."""
    if _branch_of(params) is Branch.POWER_NEG:
        return make_fundamental(params, SignVariant.PLAIN)
    return make_fundamental(params, SignVariant.NEGATED)


# ---------------------------------------------------------------------------
# Barrier catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierConstants:
    """Free constants of the comparison barriers.

    base_radius is the inner radius where ramps vanish, outer_radius the
    working radius whose multiples (3/2 and 2 times) carry the cut and bump
    shells.  The bump amplitudes are chosen (see ``choose_constants``) so the
    combined barriers have strictly negative operator values on their regions;
    exterior_sign_radius records the certified radius for the capped
    composite.
    """

    base_radius: float = 2.0
    outer_radius: float = 20.0
    power_bump_coef: float = 1.0
    log_bump_coef: float = 1.0
    plateau_height: float = 1.0
    shell_coef: float = 1.0
    indicator_coef: float = 2.0
    exterior_sign_radius: float | None = None

    def __post_init__(self) -> None:
        if not self.base_radius > 1.0:
            raise ConfigurationError("base_radius must exceed 1")
        if not self.outer_radius > self.base_radius:
            raise ConfigurationError("outer_radius must exceed base_radius")
        for name in ("power_bump_coef", "log_bump_coef", "plateau_height", "shell_coef", "indicator_coef"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")

    def with_updates(self, **kw) -> "BarrierConstants":
        return replace(self, **kw)


class BarrierKind(Enum):
    # simple pieces
    POWER_RAMP = "power_ramp"            # (|x|/r0)^sigma* - 1 inside 2r, else 0 (sigma* > 0)
    POWER_BUMP = "power_bump"            # coef*|x|^sigma* on (3r/2, 2r) (sigma* > 0)
    EXTERIOR_LOG = "exterior_log"        # -log|x| outside r, else 0 (sigma* = 0)
    LOG_CUT = "log_cut"                  # log|x| inside 2r, else 0 (sigma* = 0)
    LOG_BUMP = "log_bump"                # coef*log|x| on (3r/2, 2r) (sigma* = 0)
    CAPPED_POWER = "capped_power"        # min(1, |x|^sigma*) (sigma* < 0)
    BALL_INDICATOR = "ball_indicator"    # indicator of the unit ball
    COMPLEMENT_RAMP = "complement_ramp"  # 1 - (|x|/r0)^sigma* inside 2r, else 0 (sigma* < 0)
    PLATEAU_BUMP = "plateau_bump"        # constant plateau on (3r/2, 2r)
    EXTERIOR_POWER = "exterior_power"    # |x|^sigma* outside r, else 0 (sigma* < 0)
    POWER_SHELL = "power_shell"          # coef*|x|^sigma* on (r, 3r/2) (sigma* < 0)
    # composites
    RAMP_WITH_BUMP = "ramp_with_bump"                  # power ramp + power bump
    LOG_RAMP_WITH_BUMP = "log_ramp_with_bump"          # log cut + log bump
    CAPPED_WITH_INDICATOR = "capped_with_indicator"    # capped power + indicator_coef * indicator
    COMPLEMENT_WITH_PLATEAU = "complement_with_plateau"  # complement ramp + plateau bump
    NORMALIZED_COMPLEMENT = "normalized_complement"    # (ramp + plateau)/(1 + plateau_height)
    EXTERIOR_WITH_SHELL = "exterior_with_shell"        # exterior power + power shell


def _require_branch(params: FracParams, want: Branch, kind: BarrierKind) -> None:
    if _branch_of(params) is not want:
        raise ConfigurationError(
            f"barrier {kind.value!r} requires the {want.value} branch "
            f"(sigma_star={params.sigma_star:g} given)"
        )


def make_barrier(kind: BarrierKind | str, constants: BarrierConstants, params: FracParams) -> RadialProfile:
    """Construct a catalog barrier exactly as displayed, breakpoints included."""
    kind = BarrierKind(kind) if not isinstance(kind, BarrierKind) else kind
    sig = params.sigma_star
    r0, r = constants.base_radius, constants.outer_radius
    zero: tuple[Term, ...] = ()

    if kind is BarrierKind.POWER_RAMP:
        _require_branch(params, Branch.POWER_POS, kind)
        ramp = ((r0**-sig, sig, False), (-1.0, 0.0, False))
        return RadialProfile((2.0 * r,), (ramp, zero))
    if kind is BarrierKind.POWER_BUMP:
        _require_branch(params, Branch.POWER_POS, kind)
        bump = ((constants.power_bump_coef, sig, False),)
        return RadialProfile((1.5 * r, 2.0 * r), (zero, bump, zero))
    if kind is BarrierKind.EXTERIOR_LOG:
        _require_branch(params, Branch.LOG, kind)
        return RadialProfile((r,), (zero, ((-1.0, 0.0, True),)))
    if kind is BarrierKind.LOG_CUT:
        _require_branch(params, Branch.LOG, kind)
        return RadialProfile((2.0 * r,), (((1.0, 0.0, True),), zero))
    if kind is BarrierKind.LOG_BUMP:
        _require_branch(params, Branch.LOG, kind)
        bump = ((constants.log_bump_coef, 0.0, True),)
        return RadialProfile((1.5 * r, 2.0 * r), (zero, bump, zero))
    if kind is BarrierKind.CAPPED_POWER:
        _require_branch(params, Branch.POWER_NEG, kind)
        return RadialProfile((1.0,), (((1.0, 0.0, False),), ((1.0, sig, False),)))
    if kind is BarrierKind.BALL_INDICATOR:
        return RadialProfile((1.0,), (((1.0, 0.0, False),), zero))
    if kind is BarrierKind.COMPLEMENT_RAMP:
        _require_branch(params, Branch.POWER_NEG, kind)
        ramp = ((1.0, 0.0, False), (-(r0**-sig), sig, False))
        return RadialProfile((2.0 * r,), (ramp, zero))
    if kind is BarrierKind.PLATEAU_BUMP:
        bump = ((constants.plateau_height, 0.0, False),)
        return RadialProfile((1.5 * r, 2.0 * r), (zero, bump, zero))
    if kind is BarrierKind.EXTERIOR_POWER:
        _require_branch(params, Branch.POWER_NEG, kind)
        return RadialProfile((r,), (zero, ((1.0, sig, False),)))
    if kind is BarrierKind.POWER_SHELL:
        _require_branch(params, Branch.POWER_NEG, kind)
        bump = ((constants.shell_coef, sig, False),)
        return RadialProfile((r, 1.5 * r), (zero, bump, zero))

    if kind is BarrierKind.RAMP_WITH_BUMP:
        return make_barrier(BarrierKind.POWER_RAMP, constants, params) + make_barrier(
            BarrierKind.POWER_BUMP, constants, params
        )
    if kind is BarrierKind.LOG_RAMP_WITH_BUMP:
        return make_barrier(BarrierKind.LOG_CUT, constants, params) + make_barrier(
            BarrierKind.LOG_BUMP, constants, params
        )
    if kind is BarrierKind.CAPPED_WITH_INDICATOR:
        return make_barrier(BarrierKind.CAPPED_POWER, constants, params) + (
            constants.indicator_coef * make_barrier(BarrierKind.BALL_INDICATOR, constants, params)
        )
    if kind is BarrierKind.COMPLEMENT_WITH_PLATEAU:
        return make_barrier(BarrierKind.COMPLEMENT_RAMP, constants, params) + make_barrier(
            BarrierKind.PLATEAU_BUMP, constants, params
        )
    if kind is BarrierKind.NORMALIZED_COMPLEMENT:
        combined = make_barrier(BarrierKind.COMPLEMENT_WITH_PLATEAU, constants, params)
        return combined * (1.0 / (1.0 + constants.plateau_height))
    if kind is BarrierKind.EXTERIOR_WITH_SHELL:
        return make_barrier(BarrierKind.EXTERIOR_POWER, constants, params) + make_barrier(
            BarrierKind.POWER_SHELL, constants, params
        )
    raise ConfigurationError(f"unknown barrier kind {kind!r}")


def barrier_gallery(
    constants: BarrierConstants, params: FracParams, radii: Sequence[float] | None = None
) -> list[tuple[str, float, float]]:
    """(barrier, radius, value) rows for every catalog entry valid at params."""
    if radii is None:
        radii = np.geomspace(1.01, 4.0 * constants.outer_radius, 120)
    rows: list[tuple[str, float, float]] = []
    for kind in BarrierKind:
        try:
            prof = make_barrier(kind, constants, params)
        except ConfigurationError:
            continue
        vals = prof(np.asarray(radii, dtype=float))
        rows.extend((kind.value, float(rho), float(v)) for rho, v in zip(radii, vals))
    return rows


def conform(vals, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A plain callable's result (or given samples) as a float array of ``shape``.

    This is the one array contract for plain callables: a 0-d result
    broadcasts, any other shape mismatch raises ConfigurationError.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        return np.full(shape, float(vals))
    if vals.shape != shape:
        raise ConfigurationError(f"{what} has shape {vals.shape}, expected {shape}")
    return vals


def as_radial_callable(profile: RadialProfile | Callable) -> Callable:
    """Radius -> value view of a profile or plain callable.

    A plain callable is called once on an array of radii (see ``conform``);
    a scalar radius gives a float.  Scalar-only functions need ``np.vectorize``.
    """
    if isinstance(profile, RadialProfile):
        return profile
    def wrapped(rho):
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = conform(profile(rho_arr), rho_arr.shape, "callable result")
        return out if np.asarray(rho).ndim else float(out[0])
    return wrapped
