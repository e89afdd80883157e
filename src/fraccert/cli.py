"""Command-line front end: one verb per module surface.

Exit codes: 0 every check passed, 1 at least one FAIL, 2 inconclusive
results without a FAIL, 3 usage or configuration errors.  All numeric
output carries its error estimate; reports are versioned JSON, plot data
is CSV.  A fixed seed fully determines randomized batteries.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (ChainId, SamplePolicy, Verdict, VerificationReport, chain_info,
                     measure_rate, verify_chain)
from .constants import choose_constants
from .dirichlet import (ANNULUS_DOMAIN, ANNULUS_FORCING, ExteriorData, GridProblem, annulus_forcing,
                        solve_dirichlet, verify_comparison, verify_hopf_ratio, verify_kslap,
                        verify_measure_lemma, verify_qsmp)
from .errors import ConfigurationError, DegenerateInputError, FraccertError
from .hypotheses import check_f2, check_f2prime, check_f3prime, check_f4prime, spec_from_dict
from .hypotheses import Verdict as HVerdict
from .liouville import (CandidateFamily, default_r_grid, nonexistence_scan,
                        proof_quantity_trace)
from .operator import QuadSpec, eval_pointwise, eval_radial
from .params import FracParams
from .profiles import (BarrierConstants, barrier_gallery, make_barrier, make_fundamental,
                       positive_fundamental, BarrierKind)
from .reporting import to_json, write_csv, write_json

_EXIT_USAGE = 3

# every verb returns a verdict, and main maps it to the exit code here, for both verdict vocabularies
_EXIT_OF = {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.INCONCLUSIVE: 2,
            HVerdict.HOLDS: 0, HVerdict.FAILS: 1, HVerdict.INCONCLUSIVE: 2}
_SEVERITY = (Verdict.PASS, Verdict.INCONCLUSIVE, Verdict.FAIL)  # a FAIL outranks an INCONCLUSIVE


def _params(args) -> FracParams:
    return FracParams(args.n, args.s)


def _quad(args) -> QuadSpec:
    if args.tol is not None:
        return QuadSpec(rel_tol=args.tol, abs_tol=args.tol * 1e-4)
    return QuadSpec(rel_tol=5e-8, abs_tol=1e-14)


def _read_object(path: str) -> dict:
    """The JSON object in the file at path; anything else there is a configuration error."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON, or bytes that are no UTF-8
        raise ConfigurationError(f"{path} holds no JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} holds no JSON object")
    return data


def _emit(args, payload, kind: str) -> None:
    if args.report:
        write_json(args.report, payload, kind)
    print(to_json(payload, kind))


def _constants(args) -> BarrierConstants:
    return BarrierConstants(base_radius=args.r0, outer_radius=args.r)


def cmd_eval(args) -> Verdict:
    params, quad = _params(args), _quad(args)
    if args.profile == "cos":
        if args.n != 1:
            raise ConfigurationError(f"cos is not a radial function: --profile cos needs --n 1, not --n {args.n}")
        ov = eval_pointwise(np.cos, args.at, params, quad)
    else:
        prof = make_fundamental(params) if args.profile == "fundamental" else \
            make_barrier(BarrierKind(args.profile), _constants(args), params)
        ov = eval_radial(prof, args.at, params, quad)
    payload = {
        "profile": args.profile, "at": args.at, "n": args.n, "s": args.s,
        "value": ov.value, "error_estimate": ov.error_estimate,
        "panels_used": ov.panels_used, "converged": ov.converged,
    }
    _emit(args, payload, "eval")
    return Verdict.PASS if ov.converged else Verdict.INCONCLUSIVE


def cmd_barrier(args) -> Verdict:
    params = _params(args)
    constants = _constants(args)
    rows = barrier_gallery(constants, params)
    _emit(args, {"rows": rows, "n": args.n, "s": args.s, "r0": args.r0, "r": args.r}, "barrier-gallery")
    if args.csv:
        write_csv(args.csv, ("barrier", "radius", "value"), rows)
    return Verdict.PASS


def cmd_verify_chain(args) -> Verdict:
    params, chain, constants = _params(args), ChainId(args.chain), _constants(args)
    # bound chains take --r0/--r as given; sign chains with bound parts get their amplitude chosen
    try:
        if args.auto_constants and chain_info(chain).parts:
            constants = choose_constants(chain.value, params, r0=args.r0, r=args.r)
    except DegenerateInputError as exc:
        rep = VerificationReport(chain, params, constants, (), float("nan"), Verdict.INCONCLUSIVE,
                                 notes=(str(exc),))
    else:
        rep = verify_chain(chain, params, constants, SamplePolicy(points=args.samples), _quad(args))
    payload = {
        "chain": chain.value, "n": args.n, "s": args.s,
        "constants": constants, "verdict": rep.verdict.value,
        "worst_margin": rep.worst_margin, "fitted_constant": rep.fitted_constant,
        "notes": rep.notes,
        "samples": [{"x": x, "value": v, "err": e} for x, v, e in rep.samples],
    }
    _emit(args, payload, "verify-chain")
    if args.csv:
        write_csv(args.csv, ("radius", "value", "err"), rep.samples)
    return rep.verdict


def cmd_rate(args) -> Verdict:
    params = _params(args)
    grid = np.geomspace(args.r_min, args.r_max, args.grid_points).tolist()
    fit = measure_rate(ChainId(args.chain), params, _constants(args), grid, quad=_quad(args))
    payload = {"chain": args.chain, "n": args.n, "s": args.s, "r_grid": grid,
               "constant": fit.constant, "slope": fit.slope, "residual": fit.residual,
               "ratio_spread": fit.ratio_spread}
    _emit(args, payload, "rate-fit")
    return Verdict.PASS


def cmd_solve(args) -> Verdict:
    params = _params(args)
    sol = solve_dirichlet(GridProblem(args.domain, args.h, params, args.rhs_const, ExteriorData(args.exterior)))
    payload = {
        "domain": args.domain, "h": args.h, "n": args.n, "s": args.s,
        "exterior": args.exterior, "rhs_const": args.rhs_const,
        "residual_norm": sol.residual_norm,
        "min_value": float(sol.values.min()), "max_value": float(sol.values.max()),
        "nodes": sol.nodes.tolist(), "values": sol.values.tolist(),
    }
    _emit(args, payload, "solve")
    if args.csv:
        write_csv(args.csv, ("node", "value"), zip(sol.nodes.tolist(), sol.values.tolist()))
    return Verdict.PASS


def cmd_maxprinciple(args) -> Verdict:
    params = _params(args)
    rng = np.random.default_rng(args.seed)
    results = {}
    verdicts = [Verdict.PASS]  # one per check that judges; the measure lemma judges nothing
    if args.check in ("comparison", "all"):
        square = lambda coefs: (lambda x: np.polyval(coefs, np.asarray(x)) ** 2)
        violations = 0
        for _ in range(args.samples):
            base = square(rng.uniform(0.0, 1.0, 5))
            bump = square(rng.uniform(0.0, 1.0, 5))
            p1 = GridProblem(((-1.0, 1.0),), 1.0 / 32.0, params, base)
            p2 = GridProblem(((-1.0, 1.0),), 1.0 / 32.0, params, lambda x, b=base, u=bump: b(x) + u(x))
            violations += 0 if verify_comparison(p1, p2).passed else 1
        results["comparison"] = {"pairs": args.samples, "violations": violations}
        verdicts.append(Verdict.FAIL if violations else Verdict.PASS)
    if args.check in ("hopf", "all"):
        prob = GridProblem(((-1.0, 1.0),), args.h, params,
                           lambda x: (np.abs(np.asarray(x)) < 0.1).astype(float))
        rep = verify_hopf_ratio(prob)
        results["hopf"] = rep
        verdicts.append(Verdict.PASS if rep.stable else Verdict.INCONCLUSIVE)
    if args.check in ("kslap", "all"):
        battery = [ANNULUS_FORCING, ANNULUS_FORCING[:1], ANNULUS_FORCING[1:],
                   ((-1.5, -1.375), (1.375, 1.5))]
        rep = verify_kslap(annulus_forcing, battery, params, h=args.h)
        results["kslap"] = rep
        verdicts.append(Verdict.FAIL if rep.c_bar <= 0 else Verdict.PASS)
    if args.check in ("qsmp", "all"):
        rep = verify_qsmp(((1.0, 4.0),), ((2.0, 3.0),), ((1.5, 1.8125),), params,
                          variant=args.variant, h=args.h)
        results["qsmp"] = rep
        verdicts.append(Verdict.FAIL if rep.c0 <= 0 else Verdict.PASS if rep.stable else Verdict.INCONCLUSIVE)
    if args.check in ("measure", "all"):
        sol = solve_dirichlet(GridProblem(ANNULUS_DOMAIN, args.h, params, annulus_forcing))
        results["measure"] = verify_measure_lemma(sol, args.nu)
    _emit(args, {"seed": args.seed, "results": results}, "maxprinciple")
    return max(verdicts, key=_SEVERITY.index)


def cmd_check_f(args) -> HVerdict:
    params = _params(args)
    spec = spec_from_dict(_read_object(args.spec), params)
    checker = {"f2": check_f2, "f2prime": check_f2prime,
               "f3prime": check_f3prime, "f4prime": check_f4prime}[args.condition]
    rep = checker(spec, params)
    _emit(args, rep, "check-f")
    return rep.verdict


def cmd_scan(args) -> Verdict:
    params = _params(args)
    family = CandidateFamily(
        c_values=tuple(np.geomspace(0.1, 10.0, args.family_side)),
        beta_values=tuple(np.linspace(0.1, 6.0, args.family_side)),
        include_control=args.control, control_power=args.power if args.control else None,
    )
    f = lambda t, x: t**args.power
    scan = nonexistence_scan(family, f, params, (args.r_min, args.r_max),
                             points=args.samples, keep_curves=bool(args.csv))
    payload = {"power": args.power, "n": args.n, "s": args.s,
               "summary": scan.summary(),
               "members": [{"label": l, "verdict": v, "witness": w, "residual": r,
                             "err": e}
                            for l, v, w, r, e in scan.members]}
    _emit(args, payload, "scan")
    if args.csv:
        write_csv(args.csv, ("label", "radius", "residual", "err"), scan.curve_rows())
    return Verdict.PASS


def cmd_trace(args) -> Verdict:
    params = _params(args)
    prof = positive_fundamental(params)
    f = (lambda t, x: t**args.power) if args.power > 0 else None
    rep = proof_quantity_trace(prof, f, params, default_r_grid(args.r0, 8, args.decades))
    _emit(args, rep, "trace")
    if args.csv:
        write_csv(args.csv, ("r", "m", "forcing_lower", "upper_envelope", "rho", "eta"),
                  [(row.r, row.m, row.forcing_lower, row.upper_envelope,
                    row.rho_ratio, row.eta_ratio) for row in rep.rows])
    return Verdict.PASS


def cmd_report(args) -> Verdict:
    data = _read_object(args.file)
    body = data.get("body", data)
    print(f"schema_version: {data.get('schema_version')}  kind: {data.get('kind')}")
    if isinstance(body, dict):
        for key in sorted(body):
            value = body[key]
            if isinstance(value, list) and len(value) > 6:
                print(f"  {key}: [{len(value)} entries]")
            else:
                print(f"  {key}: {value}")
    return Verdict.PASS


def _checked(kind, ok, what: str):
    """An argparse type: the text converted by ``kind``, where ``ok`` accepts it; else a usage error."""
    def convert(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")  # radii, spacings, spans
_COUNT = _checked(int, lambda v: v > 0, "a positive integer")
_INTERVALS = _checked(lambda text: tuple(tuple(map(float, part.split(":"))) for part in text.split(",")),
                      lambda d: all(len(iv) == 2 and all(map(math.isfinite, iv)) for iv in d),
                      "comma-separated a:b intervals with finite ends")

# flags shared by several verbs; each verb declares only those it reads
_SHARED_FLAGS = {
    "n": dict(type=int, default=1),
    "s": dict(type=float, default=0.5),
    "r0": dict(type=_POSITIVE, default=2.0),
    "r": dict(type=_POSITIVE, default=20.0),
    "tol": dict(type=float, default=None),
    "samples": dict(type=_checked(int, lambda v: v > 0, "a positive number of sample points"), default=200),
    "seed": dict(type=_checked(int, lambda v: v >= 0, "a nonnegative integer"), default=0),
    "report": dict(type=str, default=None, help="write the JSON report here"),
    "csv": dict(type=str, default=None, help="write CSV plot data here"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="fraccert",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, fn, help: str, *flags: str):
        """A subcommand with --n, --s, --report and the shared flags it reads, unabbreviated."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in ("n", "s", "report") + flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    p = verb("eval", cmd_eval, "evaluate the operator on a profile", "r0", "r", "tol")
    p.add_argument("--profile", choices=("fundamental", "cos", *(k.value for k in BarrierKind)), default="fundamental")
    p.add_argument("--at", type=float, required=True)

    verb("barrier", cmd_barrier, "emit the barrier gallery", "r0", "r", "csv")

    p = verb("verify-chain", cmd_verify_chain, "verify a sign or rate certificate",
             "r0", "r", "tol", "samples", "csv")
    p.add_argument("--chain", type=str.upper, choices=[c.value for c in ChainId], required=True)
    p.add_argument("--no-auto-constants", dest="auto_constants", action="store_false")

    p = verb("rate", cmd_rate, "fit the decay rate of a bound chain", "r0", "r", "tol")
    p.add_argument("--chain", type=str.upper, choices=[c.value for c in ChainId], required=True)
    p.add_argument("--r-min", type=_POSITIVE, default=10.0)
    p.add_argument("--r-max", type=_POSITIVE, default=1000.0)
    p.add_argument("--grid-points", type=_COUNT, default=5)

    p = verb("solve", cmd_solve, "solve a 1-d nonlocal Dirichlet problem", "csv")
    p.add_argument("--domain", type=_INTERVALS, default="-1:1", help="comma-separated a:b intervals")
    p.add_argument("--h", type=_POSITIVE, default=1.0 / 128.0)
    p.add_argument("--rhs-const", type=float, default=1.0)
    p.add_argument("--exterior", choices=("zero", "fundamental"), default="zero")

    p = verb("maxprinciple", cmd_maxprinciple, "run the maximum-principle verifiers",
             "samples", "seed")
    p.add_argument("--check", choices=("comparison", "hopf", "kslap", "qsmp", "measure", "all"),
                   default="all")
    p.add_argument("--h", type=_POSITIVE, default=1.0 / 32.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--variant", choices=("I", "II"), default="I")

    p = verb("check-f", cmd_check_f, "check a nonlinearity hypothesis from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--condition", choices=("f2", "f2prime", "f3prime", "f4prime"), required=True)

    p = verb("scan", cmd_scan, "run a nonexistence scan over a candidate family", "samples", "csv")
    p.add_argument("--power", type=_checked(float, math.isfinite, "a finite number"), default=1.4)
    p.add_argument("--family-side", type=_COUNT, default=20)
    p.add_argument("--control", action="store_true")
    p.add_argument("--r-min", type=_POSITIVE, default=10.0)
    p.add_argument("--r-max", type=_POSITIVE, default=1e4)

    p = verb("trace", cmd_trace, "trace the proof quantities along a radius grid", "r0", "csv")
    p.add_argument("--power", type=_checked(float, lambda v: 0.0 <= v < math.inf, "a nonnegative finite number"),
                   default=1.4, help="forcing power; 0 disables forcing")
    p.add_argument("--decades", type=_POSITIVE, default=2.0)

    p = sub.add_parser("report", help="summarize a JSON report file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _EXIT_OF[args.fn(args)]
    except (FraccertError, OSError) as exc:  # anything else is a defect: it propagates with its traceback
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
