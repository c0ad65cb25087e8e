"""Reference figures recorded in the README, re-measured on demand.

* the batched maze kernel against a loop of scalar searches, on eight
  long-span pairs, at the router's default A* weight (0.8) and at 0;
* the cost of one ``route_nets`` (PathFinder, one worker) call.

Figures are raw wall seconds (median of three timed repeats after one
warm-up) with the probe time printed beside them, so they can be
compared with ``PROBE_REF_S``.

    python3 perfbench/reference.py [--nets 60]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import timing  # noqa: E402
from inputs import PinPool, long_pairs, small_nets  # noqa: E402
from repro import JRouter  # noqa: E402
from repro.routers.maze import route_maze, route_maze_batch  # noqa: E402


def timed(fn, reps: int = 3) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def batch_vs_scalar(part: str, weight: float) -> tuple[float, float]:
    router = JRouter(part=part)
    device = router.device
    arch = device.arch
    pairs = long_pairs(arch, PinPool(arch, random.Random(1)), 8,
                       min_span=(arch.rows + arch.cols) * 2 // 3,
                       max_span=arch.rows + arch.cols)
    reqs = [([checks.canon(device, s)], {checks.canon(device, t)}) for s, t in pairs]
    batch = timed(lambda: route_maze_batch(device, reqs, heuristic_weight=weight))
    scalar = timed(lambda: [route_maze(device, s, t, heuristic_weight=weight)
                            for s, t in reqs])
    return batch, scalar


def pathfinder_cost(n_nets: int) -> tuple[float, object]:
    router = JRouter(part="XCV50")
    nets = small_nets(PinPool(router.device.arch, random.Random(1)), n_nets, 3)
    t0 = time.perf_counter()
    res = router.route_nets(nets, workers=1)
    return time.perf_counter() - t0, res


def main() -> None:
    ap = argparse.ArgumentParser(description="re-measure README reference figures")
    ap.add_argument("--nets", type=int, default=60)
    args = ap.parse_args()
    print(f"probe {statistics.median(timing.probe_window(1.0)) * 1e3:.3f} ms "
          f"(reference {timing.PROBE_REF_S * 1e3:.3f} ms)")
    print("route_maze_batch vs a loop of route_maze, 8 long-span pairs:")
    for weight in (0.8, 0.0):
        for part in ("XCV50", "XCV300"):
            batch, scalar = batch_vs_scalar(part, weight)
            print(f"  heuristic {weight:g} {part:7s} batch {batch:6.3f} s, "
                  f"scalar {scalar:6.3f} s, ratio {scalar / batch:5.2f}")
    secs, res = pathfinder_cost(args.nets)
    print(f"route_nets {args.nets} nets x 3 sinks on XCV50: {secs:.2f} s, "
          f"{res.iterations} iterations, {res.stats.nodes_expanded} expansions, "
          f"converged {res.converged}")


if __name__ == "__main__":
    main()
