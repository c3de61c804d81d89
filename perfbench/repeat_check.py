#!/usr/bin/env python3
"""Check that one seed repeats exactly across separate runs.

For each workload, runs the benchmark once untraced and twice traced with
the same seed, then requires that

- the outputs (loss trace, predictions, evaluation report) have the same
  digest in all three runs, so tracing changes no result bit;
- the named counts are exactly equal between the two traced runs.

Run from the root of a source checkout (takes a few minutes):

    python3 perfbench/repeat_check.py --seed 3
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import REPEATED_COUNTS as COUNTS

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
    return report, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workloads", nargs="+", default=["desk", "paper", "corpus"])
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        runs = [run(wl, args.seed, trace) for trace in (0, 1, 1)]
        digests = {report["digest"] for report, _ in runs}
        counts = [{k: result["metrics"][k]["value"] for k in COUNTS} for _, result in runs[1:]]
        same = len(digests) == 1 and counts[0] == counts[1]
        ok &= same
        print(f"{wl}: {'OK' if same else 'MISMATCH'} digests={sorted(digests)}")
        for k in COUNTS:
            print(f"  {k:30s} {counts[0][k]!r:>24s} {counts[1][k]!r:>24s}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
