"""Host-speed probe and probe-normalised timing.

The benchmark host changes speed under a running program (a fixed
pure-Python loop was measured at 31 ms per call for 20 s and at
17-23 ms per call later in the same process).  Raw wall times therefore
move with the host, not with the code.  Every interval the benchmark
reports is scaled by ``PROBE_REF_S / probe_measured``, where
``probe_measured`` comes from a fixed probe run on either side of the
interval.  The result is in *reference seconds*: the time the interval
would have taken on a host running the probe in ``PROBE_REF_S``.

The daemon's boot time is scaled the same way by :func:`spawn_probe`, a
fresh interpreter's start-up, against ``SPAWN_REF_S``.

Both probes are owned by the benchmark and import nothing from
``repro``, so no change to the program can change them.

Re-measure ``PROBE_REF_S`` and ``SPAWN_REF_S`` with::

    python3 perfbench/timing.py
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Reference duration of one :func:`probe` call, in seconds (median of
#: ``python3 perfbench/timing.py`` on the benchmark's reference host).
PROBE_REF_S = 0.0015

#: Work per timed slice before the next probe, in raw seconds.
SLICE_S = 0.03

#: What :func:`spawn_probe` runs in a fresh interpreter.
SPAWN_PROBE = "import json, http.server, multiprocessing, sqlite3, decimal"

#: Reference duration of one :func:`spawn_probe` call, in seconds
#: (median of ``python3 perfbench/timing.py`` on the reference host).
SPAWN_REF_S = 0.1


def probe() -> int:
    """A fixed mix of the interpreter work routing does: dict and list
    traffic, integer arithmetic, calls and a small sort."""
    table: dict[int, int] = {}
    acc = 0
    window: list[int] = []
    for i in range(3600):
        k = (i * 2654435761) & 0xFFFF
        table[k] = table.get(k, 0) + i
        window.append(k ^ acc)
        acc = (acc + k * 31) & 0xFFFFFFFF
        if len(window) > 64:
            window.sort()
            del window[:32]
    return acc


def time_probe() -> float:
    """Raw seconds one :func:`probe` call takes now."""
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Raw seconds a fresh interpreter takes to start and import a fixed
    set of standard modules.  A daemon boot is mostly interpreter
    start-up and imports, which :func:`probe` tracks poorly: a host
    state that slowed the probe by 70% slowed boots by about 25%."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], check=True)
    return time.perf_counter() - t0


def probe_window(seconds: float) -> list[float]:
    """Probe times of back-to-back calls for ``seconds``."""
    out = [time_probe()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        out.append(time_probe())
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample.

    ``repro.service.loadgen.percentile`` rounds the rank instead of
    taking its ceiling; the benchmark keeps its own so that a change to
    the program cannot change how the program is measured.
    """
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


class Meter:
    """Times public-API calls in slices separated by probes.

    A workload reports each call's raw duration with :meth:`op` and
    calls :meth:`boundary` between calls; once the open slice holds
    :data:`SLICE_S` of work a probe runs and the slice closes.  The
    scale factor of a slice is ``PROBE_REF_S`` over the median of the
    two probes before it and the two after it, so one disturbed probe
    cannot skew a slice.
    """

    def __init__(self) -> None:
        self.probes: list[float] = [time_probe()]
        #: closed slices: (durations, conns, sample flags)
        self._slices: list[tuple[list[float], int, list[bool]]] = []
        self._durs: list[float] = []
        self._flags: list[bool] = []
        self._conns = 0
        self._open_s = 0.0

    def op(self, dt: float, *, conns: int = 0, sample: bool = False) -> None:
        """Record one call of ``dt`` raw seconds that routed ``conns``
        connections; ``sample`` marks a routing request whose latency
        counts."""
        self._durs.append(dt)
        self._flags.append(sample)
        self._conns += conns
        self._open_s += dt

    def boundary(self) -> None:
        if self._open_s >= SLICE_S:
            self._close()

    def finish(self) -> None:
        if self._durs:
            self._close()
        # one extra probe so the last slice has two probes after it
        self.probes.append(time_probe())

    def _close(self) -> None:
        self._slices.append((self._durs, self._conns, self._flags))
        self.probes.append(time_probe())
        self._durs, self._flags, self._conns, self._open_s = [], [], 0, 0.0

    def factors(self) -> list[float]:
        """Reference-seconds scale of each closed slice."""
        out = []
        p = self.probes
        for k in range(len(self._slices)):
            near = p[max(0, k - 1): k + 3]
            out.append(PROBE_REF_S / statistics.median(near))
        return out

    def summary(self) -> dict:
        """Totals over every closed slice, raw and normalised."""
        raw_s = norm_s = 0.0
        conns = 0
        raw_lat: list[float] = []
        norm_lat: list[float] = []
        for (durs, c, flags), f in zip(self._slices, self.factors()):
            conns += c
            for dt, is_sample in zip(durs, flags):
                raw_s += dt
                norm_s += dt * f
                if is_sample:
                    raw_lat.append(dt)
                    norm_lat.append(dt * f)
        return {
            "conns": conns,
            "calls": sum(len(s[0]) for s in self._slices),
            "raw_s": raw_s,
            "norm_s": norm_s,
            "raw_lat": raw_lat,
            "norm_lat": norm_lat,
            "probe_ms": statistics.median(self.probes) * 1e3,
        }


def latency_metrics(lat_s: list[float], tail_q: float) -> dict:
    """``latency_p50_ms`` and ``latency_tail_ms`` at percentile ``tail_q``.

    Each workload fixes ``tail_q`` as the highest percentile that has at
    least ten samples beyond it in a run of the benchmark's length, so
    the metric means the same thing in every run; ``beyond`` reports how
    many samples this run had past it.
    """
    return {
        "p50_ms": statistics.median(lat_s) * 1e3,
        "tail_ms": percentile(lat_s, tail_q) * 1e3,
        "tail_q": tail_q,
        "n": len(lat_s),
        "beyond": int(len(lat_s) * (100.0 - tail_q) / 100.0),
    }


if __name__ == "__main__":
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 20.0
    samples = probe_window(seconds)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    print(
        f"probe: {len(samples)} calls over {seconds:.0f} s, median "
        f"{med * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms); "
        f"PROBE_REF_S is {PROBE_REF_S * 1e3:.3f} ms"
    )
    spawns = [spawn_probe() for _ in range(20)]
    q1, med, q3 = statistics.quantiles(spawns, n=4)
    print(
        f"spawn probe: 20 calls, median {med * 1e3:.1f} ms (quartiles "
        f"{q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms); SPAWN_REF_S is {SPAWN_REF_S * 1e3:.1f} ms"
    )
