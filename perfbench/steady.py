"""Steadiness check: how much each end-to-end metric moves between runs.

Runs every workload ``--runs`` times with seeds ``seed0 .. seed0+runs-1``,
alternating the workload order each pass.  For every end-to-end metric
it prints the median, the quartiles, the spread (interquartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) and the largest gap between the medians of two halves of the
runs (first against second half, odd against even runs), next to the
metric's bound in ``BENCHMARK.json``.  Probe-normalised and raw timings
are both shown.

    python3 perfbench/steady.py [--runs 10] [--seconds 15] [--workloads a,b]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = out.stdout.splitlines()
    detail = next((json.loads(x[7:]) for x in lines if x.startswith("detail ")), None)
    final = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or detail is None or not final.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    detail["attempted"], detail["failed"] = final["attempted"], final["failed"]
    return detail


def spread(values: list[float]) -> tuple[float, float, float, float, float]:
    """(median, q1, q3, IQR / median, largest half-to-half median gap / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    halves = [
        (values[: len(values) // 2], values[len(values) // 2:]),
        (values[0::2], values[1::2]),
    ]
    gap = max(abs(statistics.median(a) - statistics.median(b)) for a, b in halves)
    return med, q1, q3, (q3 - q1) / med, gap / med


def main() -> int:
    ap = argparse.ArgumentParser(description="run-to-run spread of every metric")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for k in range(args.runs):
        for name in names if k % 2 == 0 else names[::-1]:
            runs[name].append(one_run(name, args.seed0 + k, seconds))
            print(f"  run {k + 1}/{args.runs} {name} done", file=sys.stderr, flush=True)
    worst = worst_gap = setup_spread = 0.0
    for name in names:
        rs = runs[name]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{name}: {len(rs)} runs of {seconds:g} s, failed share {sorted(shares)}")
        print(f"  {'metric':16s} {'kind':5s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'gap':>7s} {'bound':>6s}")
        for metric, bound in bounds.items():
            for kind in ("ref", "raw"):
                src = "metrics" if kind == "ref" else "raw"
                values = [r[src].get(metric) for r in rs]
                if any(v is None for v in values):
                    continue
                med, q1, q3, sp, gap = spread(values)
                if kind == "ref":
                    worst_gap = max(worst_gap, gap / bound)
                    if metric == "setup_s":
                        setup_spread = max(setup_spread, sp)
                    else:
                        worst = max(worst, sp / bound)
                print(f"  {metric:16s} {kind:5s} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                      f" {sp:7.2%} {gap:7.2%} {bound:6.0%}")
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.2f}")
    print(f"largest setup_s spread: {setup_spread:.2%} (bound {bounds['setup_s']:.0%})")
    print(f"largest half-to-half gap, as a share of its bound (every metric): {worst_gap:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
