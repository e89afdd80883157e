"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads planar certify --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --write perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), from the checkout root,
with BENCHMARK.json's ``run_seconds``, and echoes each run's table (all six
end-to-end figures, with units).  For each gated end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  ``--write`` stores
the figures with a machine fingerprint, plus the per-layer figures of one
traced run per workload at the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_ENV


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    *table, last = proc.stdout.strip().splitlines()
    if not trace:
        print("\n".join(table), flush=True)
    return json.loads(last)


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": BLAS_ENV}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"], trace=0)
            ok &= result["correct"]
            runs.append(result)
        table[workload] = {"seeds": args.seeds, "metrics": {}}
        if args.write:  # per-layer figures of one traced run at the first seed
            traced = run(workload, args.seeds[0], spec["run_seconds"], trace=1)
            ok &= traced["correct"]
            table[workload]["per_layer_first_seed"] = {
                name: entry["value"] for name, entry in traced["metrics"].items()}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            table[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                                "spread": spread, "values": values}
            if name in bounds:
                print(f"  {workload:<10} {name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f}  (bound {bounds[name]}, bound/3 {bounds[name] / 3:.3f})")
    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        doc.setdefault("workloads", {}).update(table)
        doc["fingerprint"] = fingerprint()
        doc["run_seconds"] = spec["run_seconds"]
        args.write.write_text(json.dumps(doc, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
