"""``serve_open``: the routing daemon as its users reach it.

``python -m repro serve --workers 1`` runs as a child process.  One
client process with two keep-alive connections submits ``wait=true``
level-4 jobs on a fixed open-loop schedule: job ``i`` is due at
``i / RATE`` seconds, and its latency runs from that due time to the
reply, so a stall also charges the jobs queued behind it.  How late the
generator sent each job is reported as ``service.gen_late_ms``.

Job latencies are wall-clock as the client sees them.  They are
dominated by the daemon's fixed 20 ms batch linger, which does not
scale with host speed.  ``setup_s`` (spawn until ``/stats`` shows every
worker ready) is mostly interpreter start-up and imports in two
processes, so each boot is scaled by :func:`timing.spawn_probe` run just
before it: over 14 boots on a host switching between two speeds this
took the spread from 29% raw to 16%, where the in-process probe made it
38%.

Re-measure the capacity behind ``RATE`` (closed loop, two connections,
as fast as replies come back) with::

    python3 perfbench/serve.py --capacity
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time

#: Daemon part: the daemon's default.  XCV300 is not usable here: its
#: worker compiles the routing graph on the first template miss for
#: longer than the supervisor's liveness window (see README).
PART = "XCV50"
#: Offered load, jobs per second.  Jobs stay routed (the daemon has no
#: unroute verb), so the rate is held where a 20 s run leaves XCV50 well
#: below the fill at which sources run out of exits; see README.
RATE = 20.0
#: The warm-up job: its source is an OMUX output, not a slice output, so
#: no template applies and the worker's maze batch compiles the routing
#: graph before the timed load instead of stalling it.
WARMUP = ((8, 12, "Out[0]"), (9, 13, "S0F1"))
SETUP_REPS = 5
#: spawn probes before each boot
SPAWN_PROBES = 3
HEALTH_EVERY = 10
#: p90 leaves 40 of 400 jobs beyond it; p95 and p97.5 spread up to 17%
#: between seeds on a noisy host, p90 4% (see README).
TAIL_Q = 90.0


def serve_pairs(seed: int, n: int):
    import random

    from inputs import PinPool
    from repro.arch import wires
    from repro.arch.virtex import VirtexArch

    arch = VirtexArch(PART)
    pool = PinPool(arch, random.Random(seed))
    row, col, name = WARMUP[1]
    pool.reserve(row, col, wires.parse_wire_name(name))
    out = []
    while len(out) < n:
        s, t = pool.source_at(*pool.tile()), pool.sink_at(*pool.tile())
        if s is not None and t is not None and (s.row, s.col) != (t.row, t.col):
            out.append(((s.row, s.col, s.wire), (t.row, t.col, t.wire)))
    return out


class Daemon:
    """One ``repro serve`` child process and its data directory."""

    def __init__(self, data_dir: str, env: dict, root: str) -> None:
        from repro.service.client import ServiceClient

        self.data_dir = data_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--part", PART,
             "--workers", "1", "--port", "0", "--data-dir", data_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=root,
        )
        line = self.proc.stdout.readline()
        self.listening = time.perf_counter()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://")[1].split(":")[1].split()[0])
        self.client = ServiceClient("127.0.0.1", self.port)

    def wait_ready(self, timeout: float = 60.0) -> None:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            workers = self.client.stats().get("workers", [])
            if workers and all(w["ready"] for w in workers):
                return
            time.sleep(0.01)
        raise RuntimeError("workers not ready")

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon and every process below it, in MB."""
        total_kb = 0
        todo = [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                with open(f"/proc/{pid}/task/{pid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except FileNotFoundError:
                continue
        return total_kb / 1024

    def stop(self, timeout: float = 60.0) -> int:
        """Drain (SIGTERM) and wait; kill only if the drain hangs."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def boot(data_dir, env, root):
    """Start a daemon; returns it and the wall seconds until ready."""
    t0 = time.perf_counter()
    d = Daemon(data_dir, env, root)
    try:
        d.wait_ready()
    except BaseException:
        d.stop()
        raise
    d.warmup_s = time.perf_counter() - d.listening
    return d, time.perf_counter() - t0


def drive(port: int, pairs, rate: float) -> dict:
    """Open-loop load: two connections, job ``i`` due at ``i / rate``."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    nxt = iter(range(len(pairs)))
    rows: list[tuple] = []
    rtts: list[float] = []
    start = time.perf_counter() + 0.05

    def client_loop() -> None:
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        try:
            while True:
                with lock:
                    i = next(nxt, None)
                if i is None:
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                src, sink = pairs[i]
                status, doc = client.submit(src, sink, tenant="bench", wait=True)
                done = time.perf_counter()
                with lock:
                    rows.append((i, due, sent, done, status, doc))
                if i % HEALTH_EVERY == 0 and start + (i + 1) / rate - done > 0.005:
                    t0 = time.perf_counter()
                    client.healthz()
                    with lock:
                        rtts.append(time.perf_counter() - t0)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rows.sort()
    return {"rows": rows, "rtts": rtts, "start": start}


def run(args, workdir: str, env: dict):
    import checks
    import timing
    from repro.service.loadgen import audit_journal

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.service"],
                   env=env, cwd=root, check=True)
    import_s = time.perf_counter() - t0
    n = int(round(args.seconds * RATE))
    pairs = serve_pairs(args.seed, n)
    setups, raw_setups = [], []
    reps = 1 if args.trace else SETUP_REPS
    for k in range(reps):
        spawn = statistics.median(timing.spawn_probe() for _ in range(SPAWN_PROBES))
        d, wall = boot(os.path.join(workdir, f"svc{k}"), env, root)
        raw_setups.append(wall)
        setups.append(wall * timing.SPAWN_REF_S / spawn)
        if k < reps - 1:
            d.stop()
    try:
        t0 = time.perf_counter()
        status, doc = d.client.submit(*WARMUP, tenant="warmup", wait=True)
        warmup_s = d.warmup_s + time.perf_counter() - t0
        if status != 200 or doc.get("state") != "succeeded":
            raise RuntimeError(f"warm-up job ended {status}: {doc}")
        load = drive(d.port, pairs, RATE)
        stats = d.client.stats()
        rss = d.peak_rss_mb()
    finally:
        code = d.stop()
    rows = load["rows"]
    ok = [r for r in rows if r[4] == 200 and r[5].get("state") == "succeeded"]
    failed = len(rows) - len(ok) + (n - len(rows))
    problems = [f"job {pairs[r[0]]} ended {r[4]} {r[5].get('state')}: "
                f"{r[5].get('result')}" for r in rows if r not in ok][:5]
    if code != 0:
        problems.append(f"repro serve exited {code} after drain")
    audit = audit_journal(os.path.join(d.data_dir, "jobs.journal"))
    if audit["lost"] or audit["duplicates"] or not audit["drained"]:
        problems.append(f"journal audit: {audit}")
    problems += checks.replayed_connections(
        os.path.join(d.data_dir, "worker0.wal"), [pairs[r[0]] for r in ok]
    )
    lat = [r[3] - r[1] for r in rows]
    late = [max(0.0, r[2] - r[1]) for r in rows]
    wall = rows[-1][3] - load["start"]
    pips = sum(r[5]["result"].get("pips_added", 0) for r in ok)
    lm = timing.latency_metrics(lat, TAIL_Q)
    metrics = {
        "setup_s": statistics.median(setups),
        "conn_per_s": len(ok) / wall,
        "latency_p50_ms": lm["p50_ms"],
        "latency_tail_ms": lm["tail_ms"],
        "pips_per_conn": pips / max(1, len(ok)),
        "peak_rss_mb": rss,
    }
    result = {
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "raw": {"setup_s": statistics.median(raw_setups)},
        "import_s": import_s,
        "warmup_s": warmup_s,
        "service": {
            "service.jobs_per_batch": stats.get("accepted", 0) / max(1, stats.get("batches", 1)),
            "service.requeued": stats.get("requeued", 0),
            "service.gen_late_ms": statistics.mean(late) * 1e3,
            "service.http_rtt_ms": statistics.median(load["rtts"]) * 1e3 if load["rtts"] else 0.0,
        },
    }
    lines = [
        f"serve_open seed {args.seed}: {n} jobs at {RATE:g}/s on {PART}, "
        f"{len(ok)} succeeded, {failed} failed",
        f"set-up {['%.3f' % x for x in setups]} ref s, "
        f"raw {['%.3f' % x for x in raw_setups]} s",
        f"latency: {lm['n']} samples, tail is p{TAIL_Q:g} with {lm['beyond']} "
        f"beyond it; "
        f"generator late by {statistics.mean(late) * 1e3:.3f} ms on average, "
        f"{max(late) * 1e3:.1f} ms at most",
        f"batches {stats.get('batches')}, jobs per batch "
        f"{result['service']['service.jobs_per_batch']:.3f}, requeued "
        f"{stats.get('requeued', 0)}",
    ]
    for name, value in metrics.items():
        raw = result["raw"].get(name)
        lines.append(f"  {name:16s} {value:12.4f}"
                     + (f"   raw {raw:12.4f}" if raw is not None else ""))
    return result, lines


def capacity(jobs: int = 400) -> None:
    """Closed-loop capacity: two connections, each sending its next job
    as soon as the last reply arrives."""
    import tempfile

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(root, "src"), here]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    pairs = serve_pairs(99, jobs)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        d, *_ = boot(os.path.join(tmp, "svc"), env, root)
        try:
            load = drive(d.port, pairs, rate=1e9)
        finally:
            d.stop()
    wall = load["rows"][-1][3] - load["start"]
    print(f"capacity: {jobs / wall:.1f} jobs/s ({jobs} jobs in {wall:.1f} s, "
          f"closed loop, 2 connections, {PART}, 1 worker)")


if __name__ == "__main__":
    if sys.argv[1:] == ["--capacity"]:
        capacity()
    else:
        print(__doc__)
