"""fraccert benchmark: one run of one workload.

    python3 perfbench/run.py --workload planar --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  A run repeats passes of the workload
for about ``--seconds`` seconds.  Each pass is a fresh interpreter
(perfbench/worker.py), so module caches start cold as they do for a command
line user, and BLAS runs on one thread.  With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json as medians over passes.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every pass's verdicts, exit codes and report bytes must
match the pinned expectations and repeat exactly; the first pass also checks
values against the closed-form oracles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3          # untraced passes per run, and traced passes with --trace 1
HARD_STOP_S = 150.0     # no pass starts, or runs on, past this (a run must end within 180 s)
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# per-layer metrics that only some workloads produce (by their checks); 0 elsewhere
CHECK_METRICS = ("cli.report_bytes", "dirichlet.torsion_rel_err.", "dirichlet.matrix_mb.")


class RunError(Exception):
    pass


def run_pass(root: Path, workload: str, seed: int, traced: bool, check: bool,
             timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), workload, str(seed),
           str(int(traced)), str(int(check))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"a pass ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["traced"] = traced
    result["duration"] = time.monotonic() - start
    return result


def run_passes(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` are used; untraced and traced alternate under ``trace``."""
    t_start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.monotonic() - t_start
        passes.append(run_pass(root, workload, seed, traced, check=not passes,
                               timeout=HARD_STOP_S - elapsed))
        elapsed = time.monotonic() - t_start
        typical = passes[-1]["duration"]
        untraced = sum(not p["traced"] for p in passes)
        balanced = not trace or len(passes) % 2 == 0
        if balanced and untraced >= MIN_PASSES and elapsed + typical > seconds:
            return passes
        if balanced and elapsed + typical > HARD_STOP_S:
            return passes


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spec: dict, passes: list[dict], trace: bool) -> tuple[dict, dict, list[str]]:
    """(metrics for the JSON line, the six headline numbers, problems found)."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]
    problems = [f"oracle self-test: {line}" for line in oracles.self_test()]
    if len({p["digest"] for p in passes}) > 1:
        problems.append("outputs differ between passes of one seed")
    problems += sorted({f"mismatch: {m}" for p in passes for m in p["mismatches"]})
    problems += sorted({f"raised: {r}" for p in passes for r in p["raised"]})

    checked, violations = first["oracle_checked"], first["oracle_violations"]
    headline = {
        "wall_s": (median([p["wall_s"] for p in plain]), "s"),
        "setup_s": (median([p["setup_s"] for p in plain]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in plain]), "MB"),
        "fail_ratio": ((len(first["raised"]) + first["unconverged"]) / first["attempted"], "ratio"),
        "verdict_mismatches": (len(first["mismatches"]), "count"),
        "oracle_violation_ratio": (violations / checked if checked else 0.0, "ratio"),
    }
    if not trace:
        metrics = {m["name"]: {"value": headline[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        return metrics, headline, problems

    values = dict(first["extra"])
    values["oracle.checked"] = checked
    values["oracle.violations"] = violations
    values["oracle.violation_ratio"] = headline["oracle_violation_ratio"][0]
    values["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - headline["wall_s"][0]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in traced[0]["layers"]:
        series = [p["layers"][name] for p in traced]
        values[name] = median(series)
        if units.get(name) == "count" and len(set(series)) > 1:
            problems.append(f"count {name} differs between traced passes")
        elif units.get(name) == "count":
            values[name] = series[0]
    metrics = {}
    for name, unit in units.items():
        if name not in values and not name.startswith(CHECK_METRICS):
            raise RunError(f"no measurement produces the per-layer metric {name}")
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    return metrics, headline, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fraccert" / "__init__.py").is_file():
        print(f"error: {root} holds no fraccert sources (src/fraccert); run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(root, args.workload, args.seed, args.seconds, bool(args.trace))
        metrics, headline, problems = summarize(spec, passes, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = sum(not p["traced"] for p in passes)
    print(f"fraccert benchmark: workload {args.workload}, seed {args.seed}, "
          f"{plain} untraced + {len(passes) - plain} traced passes (fresh interpreter each)")
    for name, (value, unit) in headline.items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")
    for line in problems:
        print(f"  PROBLEM {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["raised"]) for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
