"""Compare two saved benchmark results.

    python3 perfbench/run.py --workload certify > a.txt   # on one commit
    python3 perfbench/run.py --workload certify > b.txt   # on another
    python3 perfbench/compare.py a.txt b.txt

Each file holds run.py's standard output: the header line, then the result
line.  Results from a different rational backend, Python version, CPU count,
workload, seed or trace mode are not comparable: the script says so and
exits 1 without printing ratios.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "python", "cpu_count", "workload", "seed", "trace")


def load(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.startswith("{")]
    header = next(line["header"] for line in lines if "header" in line)
    return header, lines[-1]


def main(argv: list[str]) -> int:
    (ha, ra), (hb, rb) = load(argv[0]), load(argv[1])
    differ = [k for k in MUST_MATCH if ha.get(k) != hb.get(k)]
    if differ:
        for k in differ:
            print(f"NOT COMPARABLE: {k} {ha.get(k)!r} vs {hb.get(k)!r}")
        return 1
    print(f"{ha['workload']} seed {ha['seed']}: {ha['git_head'][:12]} -> {hb['git_head'][:12]}")
    for name, a in ra["metrics"].items():
        b = rb["metrics"].get(name)
        if b is None:
            continue
        ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "-"
        print(f"  {name:48s} {a['value']:14.6g} {b['value']:14.6g} {a['unit']:6s} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
