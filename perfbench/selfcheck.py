"""Benchmark self-check: two traced runs with the same seed must give
identical counters, and every run must pass its output checks.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [workload ...]

Counters are taken over the first traced pass of each workload's input
pool, so they do not depend on how many items fit in the run. Exits 1 on
any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counters(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600,
                          cwd=RUN.parent.parent)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise RuntimeError(f"{workload}: traced run failed (exit {done.returncode})\n"
                           + done.stdout[-2000:] + done.stderr[-2000:])
    prefix = "# counters: "
    return json.loads(next(l for l in lines if l.startswith(prefix))[len(prefix):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*", default=["sweep", "grid", "scalar"])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        first = traced_counters(workload, args.seed, args.seconds)
        second = traced_counters(workload, args.seed, args.seconds)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not differ
        print(f"{workload}: {len(first)} counters, "
              + ("identical" if not differ else f"DIFFER: {differ}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
