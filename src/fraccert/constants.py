"""Automatic selection of the free barrier constants.

Each combined barrier needs its bump amplitude large enough that the negative
bump contribution dominates the positive part of the cut profile on the
region of interest.  The probes come from the chain table: a sign chain
names its (positive, negative) bound chains and the constant it sets, and
each bound chain supplies its barrier, sampling region and rate law.  Both
envelope constants are sampled with the quadrature engine, and the amplitude
is their ratio with a factor-2 safety cushion.  Selection failures raise
rather than silently passing defaults on.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainId, SamplePolicy, _barriers_on_regions, chain_info
from .errors import ConfigurationError, DegenerateInputError
from .operator import QuadSpec, eval_radial  # eval_radial: rebound by perfbench/tracer.py
from .params import FracParams
from .profiles import BarrierConstants

__all__ = ["choose_constants"]

_PROBE_QUAD = QuadSpec(rel_tol=1e-6, abs_tol=1e-10)
_PROBE_POLICY = SamplePolicy(points=24, exterior_span=40.0)


def _envelopes(probes: list[tuple[ChainId, BarrierConstants]], params: FracParams) -> list[float]:
    """Sampled envelope constants envelope_sign * max(value / rate) of (bound chain, constants) probes,
    all in one engine pass."""
    specs = [(chain_info(chain), c) for chain, c in probes]
    return [spec.envelope_sign * float(np.max(vals / spec.rate(xs, c.outer_radius, params)))
            for (spec, c), (xs, vals, _, _) in zip(specs, _barriers_on_regions(specs, params, _PROBE_POLICY,
                                                                                 _PROBE_QUAD))]


def choose_constants(chain: str, params: FracParams, r0: float = 2.0,
                     r: float | None = None) -> BarrierConstants:
    """Pick bump amplitudes so the named sign chain verifies negative.

    ``chain`` is one of LVC, NBBN, NITU, RI, VASK (the sign chains); returns
    constants whose bump coefficient carries a factor-2 margin over the
    sampled positive/negative envelope ratio, together with the operational
    "sufficiently large" radius for the capped composite.
    """
    if r is None:
        r = 10.0 * r0
    if r <= r0:
        raise ConfigurationError("outer radius must exceed the base radius")
    name = chain.upper()
    spec = chain_info(name) if name in ChainId.__members__ else None
    if spec is None or spec.parts is None:
        raise ConfigurationError(f"no constants to choose for chain {name!r}")
    base = BarrierConstants(base_radius=r0, outer_radius=r)
    positive, negative = spec.parts
    twice = [(positive, base.with_updates(outer_radius=2.0 * r))] if name == "LVC" else []  # LVC's ramp at 2r too
    *pos, neg = _envelopes([(positive, base)] + twice + [(negative, base)], params)
    pos = max(pos)
    if not (neg > 0.0 and np.isfinite(pos)):
        raise DegenerateInputError(
            f"constant selection for {name} inconclusive: envelope probes "
            f"pos={pos:.3e}, neg={neg:.3e}"
        )
    coef = 2.0 * (pos / neg)
    n2s = params.n + 2.0 * params.s
    if name == "RI":  # the envelopes differ by ((|x|+2r)/(|x|-r))^(n+2s), worst at |x| = 2r
        coef *= 4.0**n2s
    if name == "VASK":
        beta = 2.0 ** (1.0 / n2s)
        base = base.with_updates(exterior_sign_radius=1.05 * (beta + 1.0) / (beta - 1.0))
    return base.with_updates(**{spec.constant: coef})
