"""One pass of one workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <scratch dir>

Generates the seeded inputs, times every operation of the pass one by one
while calibrate.SpeedProbe measures the machine's speed, checks every output
against its known answer and prints one JSON object.
With trace 1 the pass runs under the outside-in tracer, whose spans are
written to the scratch directory.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import sp4solvable
from calibrate import SpeedProbe
from spans import Tracer
from workloads import WORKLOADS


def run_pass(workload: str, seed: int, trace: bool, scratch: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        w = WORKLOADS[workload](seed, Path(tmp))
        outputs, spans, errors = [], [], []
        clock = time.perf_counter
        with Tracer() if trace else contextlib.nullcontext() as tracer, \
                SpeedProbe() as probe:
            start = clock()
            for i in range(w.n_ops):
                t = clock()
                try:
                    out = w.run(i)
                except Exception as exc:  # counted as a failed op, never dropped
                    out = None
                    errors.append(f"op {i}: {exc!r}")
                spans.append((t, clock()))
                outputs.append(out)
            pass_s = clock() - start
    op_s, op_nominal_s = zip(*(probe.scaled(t, u) for t, u in spans))
    ok, verdict_digest, verdict_ok = w.check(outputs)
    result = {
        "workload": workload,
        "seed": seed,
        "ops": w.n_ops,
        "input_digest": w.input_digest,
        "pass_s": pass_s,
        "op_s": op_s,
        "op_nominal_s": op_nominal_s,
        "ref_s": statistics.median(probe.durations()),
        "failed": ok.count(False),
        "failed_ops": [i for i, good in enumerate(ok) if not good][:20],
        "errors": errors[:20],
        "verdict_digest": verdict_digest,
        "verdict_ok": verdict_ok,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "backend": sp4solvable.Q.__module__,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        span_file = scratch / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(span_file)
        result["span_file"] = str(span_file)
    return result


def main(argv: list[str]) -> int:
    workload, seed, trace, scratch = argv
    print(json.dumps(run_pass(workload, int(seed), trace == "1", Path(scratch))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
