"""One pass of one workload in a fresh interpreter; prints its result as one JSON line.

    python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE CHECK

ROOT is the checkout whose ``src/`` holds fraccert.  TRACE=1 wraps the layer
boundaries (see tracer.py) and writes the spans to
``ROOT/.bench_build/perfbench/``.  CHECK=1 also checks values against the
closed-form oracles, after the clock has stopped.  ``run.py`` starts this.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed = Path(argv[0]), argv[1], int(argv[2])
    traced, check_oracles = argv[3] == "1", argv[4] == "1"
    sys.path.insert(0, str(root / "src"))
    import workloads
    from tracer import Tracer, instrument, layer_metrics

    make_inputs, run, check = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    api = workloads.make_api()
    tracer = None
    if traced:
        tracer = Tracer()
        instrument(tracer, api, workloads.BENCH_CALLABLES)
    ops = workloads.Ops(tracer)

    ready = time.monotonic()
    t0 = time.perf_counter()
    out = run(inputs, api, ops)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.enabled = False
    found = workloads.Checks()
    payload = check(inputs, out, check_oracles, found)
    result = {
        "ready": ready, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted, "raised": ops.raised,
        "unconverged": found.unconverged, "mismatches": found.mismatches,
        "oracle_checked": found.checked, "oracle_violations": found.violations,
        "extra": found.extra, "digest": workloads.digest(payload),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.dump(root / ".bench_build" / "perfbench" / f"{workload}-seed{seed}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
