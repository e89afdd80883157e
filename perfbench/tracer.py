"""Spans around fraccert's layer boundaries, recorded from outside the package.

``instrument`` rebinds the names each calling module imported (for example
``fraccert.chains.eval_radial``) to timing wrappers, so every call that
crosses a layer boundary leaves a span: name, layer, start, end, parent span
and the benchmark item it belongs to.  Profile evaluations are far too
frequent for one span each; they are leaf counters (calls, points, seconds)
whose time is charged to the enclosing span.  A span's self time is its
duration minus its child spans and the leaf time spent directly inside it.

Nothing in ``src/`` changes: the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# span record fields
NAME, LAYER, START, END, PARENT, ITEM, INFO, LEAF_S = range(8)

LADDER = range(6, 12)  # Dirichlet refinement rungs h = 2^-k

# the layer of each entry point the benchmark itself calls (workloads.make_api)
API_LAYERS = {
    "eval_radial": "operator", "cli_main": "cli", "check_f2": "hypotheses",
    "nonexistence_scan": "liouville", "proof_quantity_trace": "liouville",
    "solve_dirichlet": "dirichlet", "verify_comparison": "dirichlet",
    "verify_hopf_ratio": "dirichlet", "verify_kslap": "dirichlet", "verify_qsmp": "dirichlet",
    "verify_measure_lemma": "dirichlet",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0.0])
        self.item: str | None = None
        self.enabled = True
        self._in_leaf = False

    def span(self, fn, name: str, layer: str, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, result)`` adds attributes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.item, None, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[INFO] = "raised"
                raise
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return wrapper

    def leaf(self, fn, name: str):
        """Wrap a high-frequency function as a counter of calls, points and seconds."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not tracer.enabled or tracer._in_leaf:
                return fn(obj, *args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                counter = tracer.leaves[name]
                counter[0] += 1
                counter[1] += int(np.size(args[0])) if args else 0
                counter[2] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][LEAF_S] += dt

        return wrapper

    # ---------------------------------------------------------------- output

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - rec[LEAF_S] for i, rec in enumerate(self.spans)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "layer": rec[LAYER],
                                     "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "item": rec[ITEM],
                                     "info": rec[INFO], "leaf_s": rec[LEAF_S]}) + "\n")
            for name, (calls, points, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "points": points,
                                     "seconds": seconds}) + "\n")


def _eval_info(args, out):
    return (args[2].n, out.panels_used, out.converged)


def instrument(tracer: Tracer, api, bench_callables=()) -> None:
    """Wrap the import-binding sites of every layer, and the benchmark's own entry calls."""
    import fraccert.chains as chains
    import fraccert.cli as cli
    import fraccert.constants as constants
    import fraccert.dirichlet as dirichlet
    import fraccert.liouville as liouville
    import fraccert.profiles as profiles

    for module in (chains, constants, liouville, cli):
        module.eval_radial = tracer.span(module.eval_radial, "eval_radial", "operator", _eval_info)
    cli.choose_constants = tracer.span(cli.choose_constants, "choose_constants", "constants")
    cli.verify_chain = tracer.span(cli.verify_chain, "verify_chain", "chains")
    cli.measure_rate = tracer.span(cli.measure_rate, "measure_rate", "chains")
    liouville.supersolution_residual = tracer.span(
        liouville.supersolution_residual, "supersolution_residual", "liouville")
    liouville.verify_kslap = tracer.span(liouville.verify_kslap, "verify_kslap", "dirichlet")
    dirichlet.lu_factor = tracer.span(dirichlet.lu_factor, "lu_factor", "lapack")
    dirichlet.lu_solve = tracer.span(dirichlet.lu_solve, "lu_solve", "lapack")
    dirichlet.solve_dirichlet = tracer.span(dirichlet.solve_dirichlet, "solve_dirichlet", "dirichlet")
    for method in ("__call__", "rho_integral_between"):
        setattr(profiles.RadialProfile, method,
                tracer.leaf(getattr(profiles.RadialProfile, method), "profiles"))
    for cls in bench_callables:
        cls.__call__ = tracer.leaf(cls.__call__, "profiles")

    for name, fn in vars(api).items():
        info = _eval_info if name == "eval_radial" else None
        setattr(api, name, tracer.span(fn, name, API_LAYERS[name], info))


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, by the names in BENCHMARK.json."""
    spans = tracer.spans
    selfs = tracer.self_times()
    dur = [rec[END] - rec[START] for rec in spans]
    m: dict[str, float] = {}

    def ancestor(i: int, names) -> int:
        """Index of the nearest enclosing span named in ``names``, or -1."""
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    layer_self: dict[str, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        layer_self[rec[LAYER]] += selfs[i]

    evals = [i for i, rec in enumerate(spans) if rec[NAME] == "eval_radial"]
    failed_evals = 0
    for n in (1, 2, 3):
        mine = [i for i in evals if isinstance(spans[i][INFO], tuple) and spans[i][INFO][0] == n]
        ms = [1e3 * dur[i] for i in mine]
        m[f"operator.n{n}.evals"] = len(mine)
        m[f"operator.n{n}.eval_p50_ms"] = _pct(ms, 50)
        m[f"operator.n{n}.eval_p90_ms"] = _pct(ms, 90)
        m[f"operator.n{n}.self_s"] = sum(selfs[i] for i in mine)
        m[f"operator.n{n}.panels"] = sum(spans[i][INFO][1] for i in mine)
        m[f"operator.n{n}.unconverged"] = sum(not spans[i][INFO][2] for i in mine)
        failed_evals += m[f"operator.n{n}.unconverged"]
    failed_evals += sum(spans[i][INFO] == "raised" for i in evals)
    m["operator.fail_ratio"] = failed_evals / len(evals) if evals else 0.0

    calls, points, seconds = tracer.leaves["profiles"]
    m["profiles.calls"], m["profiles.points"], m["profiles.self_s"] = calls, points, seconds

    owners = ("choose_constants", "verify_chain", "measure_rate")
    owner = [spans[a][NAME] if (a := ancestor(i, owners)) >= 0 else None for i in evals]

    def named(name):
        return [i for i, rec in enumerate(spans) if rec[NAME] == name]

    choose, verify = named("choose_constants"), named("verify_chain")
    m["constants.choose.calls"] = len(choose)
    m["constants.choose.p50_ms"] = _pct([1e3 * dur[i] for i in choose], 50)
    m["constants.choose.evals"] = owner.count("choose_constants")
    m["constants.self_s"] = layer_self["constants"]
    m["chains.verify.calls"] = len(verify)
    m["chains.verify.p50_ms"] = _pct([1e3 * dur[i] for i in verify], 50)
    m["chains.verify.evals"] = owner.count("verify_chain")
    m["chains.rate.evals"] = owner.count("measure_rate")
    m["chains.self_s"] = layer_self["chains"]

    members = [1e3 * dur[i] for i in named("supersolution_residual")]
    m["liouville.members"] = len(members)
    m["liouville.member_p50_ms"] = _pct(members, 50)
    m["liouville.member_p90_ms"] = _pct(members, 90)
    m["liouville.self_s"] = layer_self["liouville"]
    m["liouville.trace_ms"] = sum(1e3 * dur[i] for i in named("proof_quantity_trace"))
    m["hypotheses.check_ms"] = sum(1e3 * dur[i] for i in named("check_f2"))

    factor_under: dict[int, float] = defaultdict(float)
    for i in named("lu_factor"):
        factor_under[ancestor(i, ("solve_dirichlet",))] += dur[i]
    solves = named("solve_dirichlet")
    warm = [1e3 * dur[i] for i in solves if i not in factor_under]
    m["dirichlet.solves_cold"] = len(solves) - len(warm)
    m["dirichlet.solves_warm"] = len(warm)
    m["dirichlet.warm_solve_p50_ms"] = _pct(warm, 50)
    m["dirichlet.warm_solve_p90_ms"] = _pct(warm, 90)
    for k in LADDER:
        rung = [i for i in solves if spans[i][ITEM] == f"ladder:h=2^-{k}" and spans[i][PARENT] < 0]
        cold = sum(1e3 * dur[i] for i in rung)
        factor = sum(1e3 * factor_under.get(i, 0.0) for i in rung)
        m[f"dirichlet.cold_solve_ms.h{k}"] = cold
        m[f"dirichlet.factor_ms.h{k}"] = factor
        m[f"dirichlet.assemble_ms.h{k}"] = cold - factor

    mains = named("cli_main")
    m["cli.calls"] = len(mains)
    m["cli.self_s"] = layer_self["cli"]
    return m
