#!/usr/bin/env python3
"""Count determinism: run one workload's traced run twice with the same
seed and report which per-layer counts repeat exactly.

    python3 perfbench/determinism.py --workload NAME [--seed N] [--runs 2]

Run from the root of the source tree.  Counts (units count, bytes and
words) that repeat exactly across runs of one seed can carry count claims;
the rest cannot.
"""

import argparse
import json
import subprocess
import sys

COUNT_UNITS = ("count", "bytes", "words")


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "12", "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=2)
    a = ap.parse_args()
    runs = [traced(a.workload, a.seed) for _ in range(a.runs)]
    same, differ = [], []
    for name, m in runs[0].items():
        if m["unit"] not in COUNT_UNITS:
            continue
        values = [r[name]["value"] for r in runs]
        (same if all(v == values[0] for v in values) else differ).append((name, values))
    print("%s seed %d, %d traced runs" % (a.workload, a.seed, a.runs))
    print("repeat exactly: " + ", ".join(n for n, _ in same))
    print("differ: " + (", ".join("%s %s" % (n, v) for n, v in differ) or "none"))


if __name__ == "__main__":
    main()
