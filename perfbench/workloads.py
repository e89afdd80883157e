"""The four workloads: seeded inputs, the timed pass, and its checks.

Each workload has three parts.  ``inputs(seed)`` draws everything random from
the seed, before the timed region.  ``run(inputs, api, ops)`` is the timed
pass: it calls fraccert only through ``api`` (a namespace the tracer can
wrap) and ``ops`` (the ledger of attempted and raised operations).
``check(inputs, out, check_oracles, found)`` runs after the clock stops: it
records in ``found`` where verdicts and exit codes differ from the pinned
expectations and, with ``check_oracles``, how many values miss the closed
forms in ``oracles.py``; it returns the digest payload that must repeat byte
for byte across passes of one seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from types import SimpleNamespace

import numpy as np

import oracles
from tracer import LADDER

import fraccert
from fraccert import cli, dirichlet, hypotheses, liouville
from fraccert.liouville import CandidateFamily, MemberVerdict, default_r_grid
from fraccert.params import FracParams
from fraccert.profiles import as_radial_callable, make_fundamental


def make_api() -> SimpleNamespace:
    """The fraccert entry points the passes call (wrapped when tracing)."""
    return SimpleNamespace(
        eval_radial=fraccert.eval_radial,
        cli_main=cli.main,
        check_f2=hypotheses.check_f2,
        nonexistence_scan=liouville.nonexistence_scan,
        proof_quantity_trace=liouville.proof_quantity_trace,
        solve_dirichlet=dirichlet.solve_dirichlet,
        verify_comparison=dirichlet.verify_comparison,
        verify_hopf_ratio=dirichlet.verify_hopf_ratio,
        verify_kslap=dirichlet.verify_kslap,
        verify_qsmp=dirichlet.verify_qsmp,
        verify_measure_lemma=dirichlet.verify_measure_lemma,
    )


class Ops:
    """Ledger of the operations one pass attempts; a raising operation is a failed one."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.raised: list[str] = []

    def run(self, item: str, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = item
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # recorded and reported as a failed operation
            self.raised.append(f"{item}: {type(exc).__name__}: {exc}")
            return None


class Checks:
    """What ``check`` found: pin mismatches, oracle counts, and operations that
    returned without raising but unconverged (or, for the CLI, with a nonzero exit code)."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.unconverged = 0
        self.checked = 0
        self.violations = 0
        self.extra: dict[str, float] = {}

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.mismatches.append(what)

    def oracle(self, value: float, err: float, exact: float) -> None:
        self.checked += 1
        self.violations += not oracles.honest(value, err, exact)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# --------------------------------------------------------------------- planar


class Bubble:
    """The benchmark's own plain radial callable (1 + rho^2)^(-b)."""

    def __init__(self, b: float) -> None:
        self.b = b

    def __call__(self, rho):
        return (1.0 + np.asarray(rho, dtype=float) ** 2) ** (-self.b)


PLANAR_FUNDAMENTAL_S = (0.4, 0.75)
PLANAR_CALLABLE_S = (0.25, 0.4, 0.75)


def planar_inputs(seed: int) -> dict:
    rng = _rng(seed, 1)
    # log-uniform radii in [1, 100]; the callables take one third of the
    # decade range each, so every seed spans the same radius scales
    fundamental = [(s, float(10.0 ** rng.uniform(0.0, 2.0))) for s in PLANAR_FUNDAMENTAL_S]
    third = 2.0 / len(PLANAR_CALLABLE_S)
    callables = [(s, float(rng.uniform(0.5, 2.5)), float(10.0 ** rng.uniform(i * third, (i + 1) * third)))
                 for i, s in enumerate(PLANAR_CALLABLE_S)]
    return {"fundamental": fundamental, "callables": callables}


def planar_run(inp: dict, api, ops: Ops) -> dict:
    out = {"fundamental": [], "callables": []}
    for s, r in inp["fundamental"]:
        params = FracParams(2, s)
        out["fundamental"].append(ops.run(f"fundamental:s={s}:r={r:.6g}", api.eval_radial,
                                          make_fundamental(params), r, params))
    for s, b, r in inp["callables"]:
        out["callables"].append(ops.run(f"bubble:s={s}:b={b:.6g}:r={r:.6g}", api.eval_radial,
                                        Bubble(b), r, FracParams(2, s)))
    return out


def _ov(ov):
    return None if ov is None else [ov.value, ov.error_estimate, ov.panels_used, ov.converged]


def planar_check(inp: dict, out: dict, check_oracles: bool, res: Checks) -> dict:
    # verdicts are recorded as they stand (the converged flags are in the digest)
    for key in ("fundamental", "callables"):
        res.unconverged += sum(ov is not None and not ov.converged for ov in out[key])
    if check_oracles:
        for (s, r), ov in zip(inp["fundamental"], out["fundamental"]):
            if ov is not None:
                res.oracle(ov.value, ov.error_estimate, 0.0)
        for (s, b, r), ov in zip(inp["callables"], out["callables"]):
            if ov is not None:
                res.oracle(ov.value, ov.error_estimate, oracles.dyda(2, s, b, r))
    return {key: [_ov(ov) for ov in out[key]] for key in out}


# -------------------------------------------------------------------- certify

SIGN_CHAINS = (("LVC", 1, 0.75), ("NBBN", 1, 0.5), ("NITU", 3, 0.5), ("VASK", 3, 0.5), ("RI", 3, 0.5))
RATE_CHAINS = (("CA3D", 1, 0.75), ("CA3Q", 3, 0.5), ("CAR3PP", 1, 0.5))


def certify_inputs(seed: int) -> dict:
    # the README command lines; nothing in them is random
    lines = [["verify-chain", "--chain", c, "--n", str(n), "--s", str(s), "--r0", "2", "--r", "20"]
             for c, n, s in SIGN_CHAINS]
    lines += [["rate", "--chain", c, "--n", str(n), "--s", str(s)] for c, n, s in RATE_CHAINS]
    return {"lines": lines}


def certify_run(inp: dict, api, ops: Ops) -> dict:
    runs = []
    for argv in inp["lines"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ops.run(" ".join(argv[:3]), api.cli_main, argv)
        runs.append((code, buf.getvalue()))
    return {"runs": runs}


def certify_check(inp: dict, out: dict, check_oracles: bool, res: Checks) -> dict:
    report_bytes = 0
    for argv, (code, text) in zip(inp["lines"], out["runs"]):
        name = f"{argv[0]} {argv[2]}"
        report_bytes += len(text.encode())
        res.unconverged += code not in (0, None)
        try:
            body = json.loads(text)["body"]
        except (ValueError, KeyError):
            res.expect(f"{name}: report is not JSON", False)
            continue
        res.expect(f"{name}: exit code {code}, want 0", code == 0)
        if argv[0] == "verify-chain":
            res.expect(f"{name}: verdict {body['verdict']}, want PASS", body["verdict"] == "PASS")
        elif argv[2] == "CAR3PP":  # criterion 05 tolerances
            spread = body["ratio_spread"]
            res.expect(f"{name}: ratio spread {spread}", spread is not None and spread <= 2.0)
        else:
            s = float(argv[argv.index("--s") + 1])
            want = -1.0 if argv[2] == "CA3D" else -2.0 * s
            res.expect(f"{name}: slope {body['slope']}", abs(body["slope"] - want) <= 0.15)
    res.extra["cli.report_bytes"] = report_bytes
    return {"runs": out["runs"]}


# ------------------------------------------------------------------ liouville

SCAN_SIDE = 8
SCAN_REGION = (10.0, 1e4)
SCAN_PARAMS = (3, 0.5)
FORCING_SPEC = {"form": "separable", "gamma": 0.0, "g": {"name": "power", "p": 1.4}}


def _power(p: float):
    return lambda t, x: t ** p


def liouville_inputs(seed: int) -> dict:
    rng = _rng(seed, 3)
    c = np.geomspace(0.1, 10.0, SCAN_SIDE) * np.exp(rng.uniform(-0.1, 0.1, SCAN_SIDE))
    beta = np.linspace(0.1, 6.0, SCAN_SIDE) * np.exp(rng.uniform(-0.1, 0.1, SCAN_SIDE))
    return {"c": [float(v) for v in c], "beta": [float(v) for v in beta]}


def _control_family() -> CandidateFamily:
    return CandidateFamily(c_values=(0.5, 2.0), beta_values=(1.0, 3.0),
                           include_control=True, control_power=3.0)


def liouville_run(inp: dict, api, ops: Ops) -> dict:
    params = FracParams(*SCAN_PARAMS)
    spec = hypotheses.spec_from_dict(FORCING_SPEC, params)
    sub = CandidateFamily(c_values=tuple(inp["c"]), beta_values=tuple(inp["beta"]))
    return {
        "check_f": ops.run("check-f", api.check_f2, spec, params),
        "sub": ops.run("scan:subcritical", api.nonexistence_scan, sub, _power(1.4), params,
                       SCAN_REGION, keep_curves=True),
        "sup": ops.run("scan:control", api.nonexistence_scan, _control_family(), _power(3.0),
                       params, SCAN_REGION, keep_curves=True),
        "trace": ops.run("trace", api.proof_quantity_trace, make_fundamental(params), _power(1.4),
                         params, default_r_grid(1.0, 6, 3.0)),
    }


def _check_curves(res: Checks, family: CandidateFamily, exact_ops, curves, p: float,
                  params: FracParams) -> None:
    """Residual samples against exact residuals, member by member in family order."""
    f = _power(p)
    for (label, member), exact_op, (curve_label, samples) in zip(
            family.members(params), exact_ops, curves):
        res.expect(f"curve {curve_label} out of family order", label == curve_label)
        fn = as_radial_callable(member)
        for r, residual, err in samples:
            forcing = float(np.asarray(f(float(fn(r)), float(r))))  # as the scan computes it
            res.oracle(residual, err, exact_op(r) - forcing)


def liouville_check(inp: dict, out: dict, check_oracles: bool, res: Checks) -> dict:
    hf, sub, sup, trace = out["check_f"], out["sub"], out["sup"], out["trace"]
    res.expect("check-f f2 should HOLD", hf is not None and hf.verdict is hypotheses.Verdict.HOLDS)
    res.expect("a subcritical member was certified", sub is not None and sub.certified == 0)
    control = [] if sup is None else [v for label, v, *_ in sup.members if label.startswith("control")]
    res.expect("the control member is not certified", control == [MemberVerdict.SUPERSOLUTION])
    res.expect("the trace flags no contradiction",
               trace is not None and trace.contradiction_radius is not None)
    params = FracParams(*SCAN_PARAMS)
    n, s = SCAN_PARAMS

    def bubbles(family):  # c (1+r^2)^(-beta/2), in the order family.members yields them
        return [lambda r, c=c, b=b: c * oracles.dyda(n, s, b / 2.0, r)
                for c in family.c_values for b in family.beta_values]

    if check_oracles and sub is not None:
        family = CandidateFamily(tuple(inp["c"]), tuple(inp["beta"]))
        _check_curves(res, family, bubbles(family), sub.curves, 1.4, params)
    if check_oracles and sup is not None:
        family = _control_family()
        eps, expo, _ = list(family.members(params))[-1][1].pieces[0][0]  # eps |x|^(-tau)
        lam = oracles.power_multiplier(n, s, -expo)
        exact = bubbles(family) + [lambda r: eps * lam * r ** (expo - 2.0 * s)]
        _check_curves(res, family, exact, sup.curves, 3.0, params)
    payload = {"check_f": None if hf is None else [hf.verdict.value, list(hf.quantities)],
               "trace": None if trace is None else [trace.contradiction_radius, trace.c_bar,
                                                    trace.c_upper, [list(vars(r).values()) for r in trace.rows]]}
    for key, scan in (("sub", sub), ("sup", sup)):
        payload[key] = None if scan is None else [scan.members, scan.curves, scan.summary()]
    return payload


# ------------------------------------------------------------------ dirichlet

BATTERY_PAIRS = 300
BATTERY_H = 2.0 ** -9
TORSION_S = 0.5
CHI_ANNULUS = ((1.375, 1.625),)


def dirichlet_inputs(seed: int) -> dict:
    rng = _rng(seed, 4)
    pairs = rng.uniform(-1.0, 1.0, (BATTERY_PAIRS, 2, 4))
    return {"pairs": pairs.tolist()}


def _poly_sq(coefs):
    return lambda x: np.polyval(coefs, np.asarray(x)) ** 2


def _poly_sq_sum(c1, c2):
    return lambda x: np.polyval(c1, np.asarray(x)) ** 2 + np.polyval(c2, np.asarray(x)) ** 2


def _indicator(sets):
    """Indicator of {x : a < |x| < b for some (a, b) in sets}."""
    def chi(x):
        ax = np.abs(np.asarray(x))
        return np.any([(a < ax) & (ax < b) for a, b in sets], axis=0).astype(float)
    return chi


def dirichlet_run(inp: dict, api, ops: Ops) -> dict:
    GP = dirichlet.GridProblem
    unit = ((-1.0, 1.0),)
    p5, p75 = FracParams(1, TORSION_S), FracParams(1, 0.75)
    out = {"ladder": [ops.run(f"ladder:h=2^-{k}", api.solve_dirichlet, GP(unit, 2.0 ** -k, p5, 1.0))
                      for k in LADDER]}
    out["battery"] = [ops.run(f"pair:{i}", api.verify_comparison,
                              GP(unit, BATTERY_H, p5, _poly_sq(base)),
                              GP(unit, BATTERY_H, p5, _poly_sq_sum(base, extra)))
                      for i, (base, extra) in enumerate(inp["pairs"])]
    chi = _indicator(CHI_ANNULUS)
    out["hopf"] = ops.run("hopf", api.verify_hopf_ratio,
                          GP(unit, 2.0 ** -7, p5, _indicator(((0.0, 0.1),))))
    out["kslap"] = ops.run("kslap", api.verify_kslap, chi,
                           [((-1.625, -1.375), (1.375, 1.625)), ((1.375, 1.625),)], p5,
                           h=2.0 ** -5)
    out["qsmp"] = [ops.run(f"qsmp:{v}", api.verify_qsmp, ((1.0, 4.0),), ((2.0, 3.0),),
                           ((1.5, 1.8125),), p75, variant=v, h=2.0 ** -5) for v in ("I", "II")]
    annulus = ops.run("annulus-solve", api.solve_dirichlet,
                      GP(dirichlet.ANNULUS_DOMAIN, 2.0 ** -5, p5, chi))
    out["measure"] = None if annulus is None else ops.run(
        "measure", api.verify_measure_lemma, annulus, 0.5)
    return out


def dirichlet_check(inp: dict, out: dict, check_oracles: bool, res: Checks) -> dict:
    for k, sol in zip(LADDER, out["ladder"]):
        if sol is None:
            continue
        exact = oracles.torsion_1d(TORSION_S, sol.nodes)
        res.extra[f"dirichlet.torsion_rel_err.h{k}"] = float(
            np.abs(sol.values - exact).max() / np.abs(exact).max())
        res.extra[f"dirichlet.matrix_mb.h{k}"] = sol.nodes.size ** 2 * 8 / 2.0 ** 20
    violations = sum(rep is None or not rep.passed for rep in out["battery"])
    res.expect(f"{violations} comparison violations", violations == 0)
    hopf, kslap, measure = out["hopf"], out["kslap"], out["measure"]
    res.expect("hopf ratio unstable or nonpositive",
               hopf is not None and hopf.stable and hopf.min_ratio > 0.0)
    for v, rep in zip(("I", "II"), out["qsmp"]):
        res.expect(f"qsmp {v} unstable or nonpositive", rep is not None and rep.stable and rep.c0 > 0.0)
    res.expect("kslap constant nonpositive", kslap is not None and kslap.c_bar > 0.0)
    res.expect("measure lemma constant missing", measure is not None and np.isfinite(measure.c_bar))
    return {
        "ladder": [None if sol is None else hashlib.sha256(sol.values.tobytes()).hexdigest()
                   for sol in out["ladder"]],
        "battery": [None if rep is None else rep.max_violation for rep in out["battery"]],
        "reports": [None if rep is None else vars(rep)
                    for rep in (hopf, kslap, *out["qsmp"], measure)],
    }


WORKLOADS = {
    "planar": (planar_inputs, planar_run, planar_check),
    "certify": (certify_inputs, certify_run, certify_check),
    "liouville": (liouville_inputs, liouville_run, liouville_check),
    "dirichlet": (dirichlet_inputs, dirichlet_run, dirichlet_check),
}
BENCH_CALLABLES = (Bubble,)
