"""Determinism check: routing must not depend on the interpreter's hash seed.

Runs every in-process workload traced twice with the same workload seed
and different ``PYTHONHASHSEED`` values, and compares what one round
produced: ``pips_per_conn``, ``maze.nodes_expanded``, ``template.tries``,
``pathfinder.iterations`` and ``nodes_expanded``, ``apply.pips`` and the
routed state's fingerprint.  Any difference is a failed check (exit 1),
not noise.

    python3 perfbench/determinism.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IN_PROCESS = ("rtr_churn", "fanout_tree", "bulk_faulted")
HASH_SEEDS = ("1", "2")


def deterministic_counts(workload: str, seed: int, seconds: float, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(HERE),
    )
    for line in out.stdout.splitlines():
        if line.startswith("deterministic "):
            return json.loads(line[len("deterministic "):])
    raise RuntimeError(f"{workload}: traced run printed no counts:\n{out.stdout}{out.stderr}")


def main() -> int:
    ap = argparse.ArgumentParser(description="hash-seed determinism check")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args()
    ok = True
    for workload in IN_PROCESS:
        runs = [deterministic_counts(workload, args.seed, args.seconds, h)
                for h in HASH_SEEDS]
        diff = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
        ok = ok and not diff
        print(f"{workload}: " + ("identical" if not diff else "MISMATCH in " + ", ".join(diff))
              + f" under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
        for k in sorted(runs[0]):
            print(f"  {k:26s} {runs[0][k]}" + ("" if k not in diff else f"  vs {runs[1].get(k)}"))
    print("determinism check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
