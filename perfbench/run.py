"""JRoute run-time routing benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``rtr_churn``, ``fanout_tree``, ``bulk_faulted`` (in-process,
through ``JRouter``) and ``serve_open`` (``repro serve`` as a child
process, driven over HTTP).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same seed traced and prints per-layer
self times and counts.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

An in-process run spawns the routing process three times; the first two
stop once set up, and ``setup_s`` is the median of the three set-ups.
The third runs the timed phase: whole rounds of the workload until
``--seconds`` have passed.  Timings are probe-normalised (see
``timing.py``); the raw figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("rtr_churn", "fanout_tree", "bulk_faulted", "serve_open")
SETUP_REPS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- the routing process --------------------------------------------------------


def child_main(args) -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import timing

    setup_probes = [timing.time_probe()]
    import resource
    import threading

    import workloads
    from tracing import COUNTS, LAYERS, Tracer

    import_s = time.perf_counter() - t0
    build = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    wl = build(args.seed, args.workdir)
    # the warm-up round is metered only for the probes between its calls
    wl.meter = timing.Meter()
    wl.round(final=False)
    wl.meter.finish()
    warmup_s = time.perf_counter() - t1
    setup_probes += wl.meter.probes
    probe = statistics.median(setup_probes)
    scale = timing.PROBE_REF_S / probe
    ready = {"import_s": import_s * scale, "warmup_s": warmup_s * scale,
             "probe": probe, "problems": wl.problems}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only or wl.problems:
        return 0
    sys.stdin.readline()  # the parent is ready to wait: go

    def timed(wl, seconds=None, tracer=None, n=None):
        """Whole rounds until ``seconds`` pass (or exactly ``n`` rounds);
        returns the meter, the rounds run and the deterministic counts of
        the first round."""
        wl.reset()
        wl.meter = meter = timing.Meter()
        start = time.perf_counter()
        rounds = 0
        first = None
        while True:
            if n is not None:
                final = rounds + 1 == n
            else:
                # final once the next round would end past the time
                elapsed = time.perf_counter() - start
                final = rounds > 0 and elapsed * (rounds + 1) / rounds >= seconds
            # a traced round skips the recovery check: recover() replays
            # through wrapped layers, outside any request
            wl.round(final=final and tracer is None)
            rounds += 1
            if first is None:
                first = {"pips": wl.pips, "conns": wl.conns,
                         "fingerprint": wl.fingerprint}
                if tracer is not None:
                    first["counts"] = dict(tracer.counts)
            if final or wl.problems:
                break
        meter.finish()
        return meter, rounds, first

    out = {"import_s": ready["import_s"], "warmup_s": ready["warmup_s"]}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    seconds = args.seconds / 3 if args.trace else args.seconds
    meter, rounds, first = timed(wl, seconds)
    wall = time.perf_counter() - wall0
    out["cpu_per_wall"] = (time.process_time() - cpu0) / wall
    out["threads"] = threading.active_count()
    out.update(rounds=rounds, first=first, summary=meter.summary(),
               attempted=wl.attempted, failed=wl.failed, pips=wl.pips,
               conns=wl.conns)
    problems = list(wl.problems)

    if args.trace and not problems:
        # A traced replay of the rounds timed above, then an untraced
        # one: both run on routing graph those rounds already
        # materialised, so the overhead compares like with like.
        tracer = Tracer()
        tracer.install()
        twl = build(args.seed, args.workdir)
        twl.round(final=False)  # warm-up round, not counted
        tracer.self_ns.update(dict.fromkeys(LAYERS, 0))
        tracer.counts.clear()
        del tracer.spans[:]
        tmeter, _, tfirst = timed(twl, tracer=tracer, n=rounds)
        tracer.uninstall()
        tracer.write(os.path.join(ROOT, ".perfbench-out", f"spans-{args.workload}.npy"))
        uwl = build(args.seed, args.workdir)
        uwl.round(final=False)
        umeter, _, _ = timed(uwl, n=rounds)
        problems += twl.problems + uwl.problems
        tsum, usum = tmeter.summary(), umeter.summary()
        scale = tsum["norm_s"] / tsum["raw_s"]
        out["trace"] = {
            "rounds": rounds,
            "self_s": {k: v * 1e-9 * scale / rounds for k, v in tracer.self_ns.items()},
            "counts": {m: tfirst["counts"].get(k, 0) for m, k in COUNTS.items()},
            "request_s": tsum["norm_s"] / rounds,
            "untraced_request_s": usum["norm_s"] / rounds,
            "first": {k: v for k, v in tfirst.items() if k != "counts"},
            "attempted": twl.attempted + uwl.attempted,
            "failed": twl.failed + uwl.failed,
        }
    out["problems"] = problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(out), flush=True)
    return 0


# -- the parent -------------------------------------------------------------------


def spawn_child(args, workdir, setup_only):
    """Start a routing process; returns it, its READY report and the raw
    and normalised seconds from spawn until it could serve a request."""
    import timing

    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    ready = None
    for line in proc.stdout:
        if line.startswith("READY "):
            ready = json.loads(line[6:])
            break
    wall = time.perf_counter() - t0
    if ready is None:
        proc.wait()
        raise RuntimeError(f"routing process exited {proc.returncode} before set-up ended")
    return proc, ready, wall, wall * timing.PROBE_REF_S / ready["probe"]


def run_in_process(args, workdir) -> tuple[dict, list[str]]:
    import timing
    import workloads

    tail_q = workloads.WORKLOADS[args.workload].TAIL_Q
    setups, raw_setups = [], []
    reps = 1 if args.trace else SETUP_REPS
    result = None
    for k in range(reps):
        last = k == reps - 1
        proc, ready, wall, norm = spawn_child(args, workdir, setup_only=not last)
        setups.append(norm)
        raw_setups.append(wall)
        if ready["problems"]:
            proc.stdin.close()
            proc.wait()
            return {"attempted": 1, "failed": 0, "problems": ready["problems"]}, []
        if last:
            proc.stdin.write("go\n")
            proc.stdin.flush()
            for line in proc.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[7:])
        proc.stdin.close()
        proc.stdout.close()
        if proc.wait() != 0 or (last and result is None):
            raise RuntimeError(f"routing process exited {proc.returncode}")
    s = result.pop("summary")
    lat = timing.latency_metrics(s["norm_lat"], tail_q)
    raw_lat = timing.latency_metrics(s["raw_lat"], tail_q)
    result["raw"] = {
        "setup_s": statistics.median(raw_setups),
        "conn_per_s": s["conns"] / s["raw_s"],
        "latency_p50_ms": raw_lat["p50_ms"],
        "latency_tail_ms": raw_lat["tail_ms"],
    }
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "conn_per_s": s["conns"] / s["norm_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "pips_per_conn": result["pips"] / result["conns"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [
        f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
        f"{result['attempted']} operations attempted, {result['failed']} failed",
        f"probe {s['probe_ms']:.3f} ms (reference {timing.PROBE_REF_S * 1e3:.3f} ms), "
        f"cpu/wall {result['cpu_per_wall']:.2f}, threads {result['threads']}",
        f"set-up {['%.3f' % x for x in setups]} ref s, "
        f"raw {['%.3f' % x for x in raw_setups]} s",
        f"latency: {lat['n']} samples, tail is p{tail_q:g} with {lat['beyond']} beyond it",
    ]
    for name, value in result["metrics"].items():
        raw = result["raw"].get(name)
        lines.append(f"  {name:16s} {value:12.4f}"
                     + (f"   raw {raw:12.4f}" if raw is not None else ""))
    return result, lines


def layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, with the overhead accounting.
    A layer a workload never reaches reads 0."""
    from tracing import COUNTS, LAYERS

    tr = result.get("trace")
    metrics = {f"{layer}.self_s": tr["self_s"][layer] if tr else 0.0 for layer in LAYERS}
    metrics.update({name: tr["counts"][name] if tr else 0 for name in COUNTS})
    metrics["setup.import_s"] = result["import_s"]
    metrics["setup.warmup_s"] = result["warmup_s"]
    metrics.update(result.get("service", dict.fromkeys(SERVICE_METRICS, 0.0)))
    metrics["trace.overhead"] = 0.0
    lines = []
    if tr:
        metrics["trace.overhead"] = overhead = tr["request_s"] / tr["untraced_request_s"]
        total = sum(tr["self_s"].values())
        lines += [
            f"traced {tr['rounds']} rounds; per round: request time "
            f"{tr['request_s']:.4f} ref s traced, {tr['untraced_request_s']:.4f} "
            f"untraced; tracing overhead x{overhead:.3f}",
            f"layer self times sum to {total:.4f} s per round = "
            f"{total / tr['untraced_request_s']:.3f} x the untraced request time",
        ]
        for layer in LAYERS:
            share = tr["self_s"][layer] / total if total else 0.0
            lines.append(f"  {layer:11s} {tr['self_s'][layer]:9.4f} s/round {share:7.1%}")
        for name, value in tr["counts"].items():
            lines.append(f"  {name:26s} {value}")
        first = tr["first"]
        lines.append("deterministic " + json.dumps({
            "pips_per_conn": first["pips"] / first["conns"],
            "fingerprint": first["fingerprint"],
            **{k: tr["counts"][k] for k in DETERMINISTIC},
        }, sort_keys=True))
    for name in ("setup.import_s", "setup.warmup_s", *SERVICE_METRICS):
        lines.append(f"  {name:26s} {metrics[name]:.4f}")
    return metrics, lines


#: Counts of one traced round that must not depend on PYTHONHASHSEED.
DETERMINISTIC = (
    "maze.nodes_expanded", "template.tries", "pathfinder.iterations",
    "pathfinder.nodes_expanded", "apply.pips",
)

SERVICE_METRICS = (
    "service.jobs_per_batch", "service.requeued", "service.gen_late_ms",
    "service.http_rtt_ms",
)


def metric_units() -> dict[str, str]:
    """Each metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    units = metric_units()
    workdir = os.path.join(ROOT, ".perfbench-run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    try:
        if args.workload == "serve_open":
            import serve

            result, lines = serve.run(args, workdir, child_env())
        else:
            result, lines = run_in_process(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    problems = result.get("problems", [])
    for p in problems[:20]:
        print("CHECK FAILED: " + p)
    if "metrics" not in result:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics, more = layer_metrics(result)
        for line in more:
            print(line)
        if "trace" in result:
            attempted += result["trace"]["attempted"]
            failed += result["trace"]["failed"]
    else:
        metrics = result["metrics"]
        print("detail " + json.dumps({"metrics": metrics, "raw": result["raw"]}))
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
