"""The sp4solvable benchmark.

    python3 perfbench/run.py --workload certify|classify|identify \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from `src/`.

With --trace 0 it runs passes of the workload, each in a fresh
single-threaded worker process, for about --seconds seconds (at least 3
passes), and reports the end-to-end metrics: each op's median time over the
passes, and the set-up time of fresh interpreters importing sp4solvable and
loading the catalog.  Every time is scaled to the nominal speed of
calibrate.py's reference computation, timed every 20 ms while it runs, so
that the machine's slow and fast phases cancel.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  Every output is checked against a
known answer.  README.md explains the choices.

Standard output: one JSON header line (what was run, on what), then as the
last line one JSON object with the keys correct, attempted, failed, metrics.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from calibrate import REF_NOMINAL_S  # noqa: E402
from spans import metric_unit, per_layer_metric_names  # noqa: E402

WORKLOADS = ("certify", "classify", "identify")
DEFAULT_SEED = 1
# Held out: confirm a later claim on it; never tune a change against it.
HELDOUT_SEED = 4099
# Typical seconds of one pass, process start included, on a shared 2-CPU VM
# at 2.1 GHz: a run plans --seconds / PASS_S passes, at least MIN_PASSES,
# and stops early rather than let a slow machine run past OVERRUN times
# --seconds.
PASS_S = {"certify": 7.5, "classify": 4.0, "identify": 8.0}
MIN_PASSES = 3
OVERRUN = 1.1
SETUP_PER_PASS = 3
TRACE_ROUNDS = 2
WORKER_TIMEOUT_S = 60  # a pass takes under 10 s; a run must end within 180 s
# The probe's own imports (fractions among them) come before the clock starts.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from calibrate import SpeedProbe
with SpeedProbe() as probe:
    t = time.perf_counter()
    import sp4solvable
    sp4solvable.load_catalog()
    u = time.perf_counter()
print(probe.scaled(t, u)[1])
"""


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SP4_PARAM_SAMPLES", None)  # the benchmark fixes the default samples
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # every pass iterates its sets in one order
    return env


def run_child(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def setup_sample() -> float:
    """Nominal seconds for a fresh interpreter to import sp4solvable and load
    the catalog."""
    return float(run_child([sys.executable, "-c", SETUP_CODE]))


def worker_pass(workload: str, seed: int, trace: bool) -> dict:
    out = run_child([sys.executable, str(HERE / "worker.py"), workload,
                     str(seed), "1" if trace else "0", str(SCRATCH)])
    return json.loads(out.strip().splitlines()[-1])


def git_head() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(args, passes: list[dict], attempted: int, failed: int) -> dict:
    first = passes[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "ops_per_pass": first["ops"],
        "passes": len(passes),
        "pass_s": [round(p["pass_s"], 4) for p in passes],
        "pass_ref_s": [round(p["ref_s"], 6) for p in passes],
        "ref_nominal_s": REF_NOMINAL_S,
        "input_digest": first["input_digest"],
        "verdict_digest": first["verdict_digest"],
        "error_frac": failed / attempted,
        "python": first["python"],
        "backend": first["backend"],
        "cpu_count": os.cpu_count(),
        "git_head": git_head(),
    }


def verdict(passes: list[dict]) -> tuple:
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    same = len({(p["input_digest"], p["verdict_digest"]) for p in passes}) == 1
    correct = failed == 0 and same and all(p["verdict_ok"] for p in passes)
    for p in passes:
        for line in p["errors"] + [f"failed op {i}" for i in p["failed_ops"]]:
            print(f"{p['workload']}: {line}", file=sys.stderr)
    return correct, attempted, failed


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median nominal time over the passes."""
    return [statistics.median(times) for times in zip(*(p["op_nominal_s"] for p in passes))]


def end_to_end(args) -> tuple:
    planned = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    setup_sample()  # compiles the bytecode; not measured
    setup: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < planned:
        t = time.perf_counter()
        setup.extend(setup_sample() for _ in range(SETUP_PER_PASS))
        passes.append(worker_pass(args.workload, args.seed, trace=False))
        took = time.perf_counter() - t
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + took > OVERRUN * args.seconds):
            break
    op_ms = [1000 * s for s in op_medians(passes)]
    metrics = {
        "wall_s": (sum(op_ms) / 1000, "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics


def per_layer(args) -> tuple:
    """Alternate untraced and traced passes; the layer figures come from the
    first traced pass, the overhead from the per-op medians of each kind."""
    passes = [worker_pass(args.workload, args.seed, trace=bool(k % 2))
              for k in range(2 * TRACE_ROUNDS)]
    plain, traced = passes[0::2], passes[1::2]
    metrics = {name: (traced[0]["layers"][name], metric_unit(name))
               for name in per_layer_metric_names()}
    metrics["trace.overhead_ratio"] = (sum(op_medians(traced)) / sum(op_medians(plain)),
                                       "ratio")
    return passes, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sp4solvable" / "__init__.py").is_file():
        print(f"no sp4solvable sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        passes, metrics = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed = verdict(passes)
    print(json.dumps({"header": header(args, passes, attempted, failed)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
