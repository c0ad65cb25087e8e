"""Seeded workload inputs, one pin pool per device.

``repro.bench.workloads`` builds a fresh pin pool inside every generator,
so two of its generators combined on one device can hand out the same
sink pin twice, which routing then refuses with a spurious
``ContentionError``.  Every input the benchmark routes on one device is
drawn from the single :class:`PinPool` below instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import Pin
from repro.bench.workloads import SINK_WIRES, SOURCE_WIRES


class PinPool:
    """Hands out source and sink pins, never the same physical pin twice."""

    def __init__(self, arch, rng: random.Random) -> None:
        self.arch = arch
        self.rng = rng
        self._used: set[tuple[int, int, int]] = set()

    def _take(self, row: int, col: int, names) -> Pin | None:
        order = list(names)
        self.rng.shuffle(order)
        for n in order:
            if (row, col, n) not in self._used:
                self._used.add((row, col, n))
                return Pin(row, col, n)
        return None

    def reserve(self, row: int, col: int, name: int) -> None:
        """Keep a pin the caller routes itself out of the pool."""
        self._used.add((row, col, name))

    def source_at(self, row: int, col: int) -> Pin | None:
        return self._take(row, col, SOURCE_WIRES)

    def sink_at(self, row: int, col: int) -> Pin | None:
        return self._take(row, col, SINK_WIRES)

    def tile(self) -> tuple[int, int]:
        return self.rng.randrange(self.arch.rows), self.rng.randrange(self.arch.cols)

    def near(self, row: int, col: int, radius: int) -> tuple[int, int]:
        """A tile other than (row, col) within ``radius`` in each axis."""
        while True:
            r = row + self.rng.randint(-radius, radius)
            c = col + self.rng.randint(-radius, radius)
            if self.arch.in_bounds(r, c) and (r, c) != (row, col):
                return r, c

    def sink_near(self, row: int, col: int, radius: int) -> Pin:
        while True:
            pin = self.sink_at(*self.near(row, col, radius))
            if pin is not None:
                return pin


@dataclass(slots=True)
class Request:
    """One routing request: a level-4 pair (one source) or a level-6 bus."""

    sources: list[Pin]
    sinks: list[Pin]

    @property
    def width(self) -> int:
        return len(self.sources)


#: Share of ``rtr_churn`` requests that are level-6 buses.
BUS_SHARE = 0.1
#: Bus bits per CLB row: at two or four, a row's sources used up their
#: tile's exits on some seeds (see README).
BUS_BITS_PER_ROW = 1
#: ``fanout_tree`` sinks lie within this many CLBs of their source.
FANOUT_RADIUS = 4
#: ``bulk_faulted`` ``route_nets`` sinks lie within this many CLBs.
SMALL_NET_RADIUS = 3


def churn_requests(arch, rng: random.Random, n: int) -> list[Request]:
    """``n`` requests mixing level-4 pairs over all spans with level-6
    buses 8-16 bits wide, column to column with ``BUS_BITS_PER_ROW`` bits
    per CLB row."""
    pool = PinPool(arch, rng)
    out: list[Request] = []
    while len(out) < n:
        if rng.random() < BUS_SHARE:
            width = rng.randint(8, 16)
            rows = -(-width // BUS_BITS_PER_ROW)
            r0 = rng.randrange(arch.rows - rows + 1)
            c0 = rng.randrange(arch.cols)
            c1 = c0 + rng.choice((-1, 1)) * rng.randint(2, 6)
            if not 0 <= c1 < arch.cols:
                continue
            srcs, sinks = [], []
            for bit in range(width):
                s = pool.source_at(r0 + bit // BUS_BITS_PER_ROW, c0)
                t = pool.sink_at(r0 + bit // BUS_BITS_PER_ROW, c1)
                if s is None or t is None:
                    break
                srcs.append(s)
                sinks.append(t)
            if len(srcs) == width:
                out.append(Request(srcs, sinks))
            continue
        s = pool.source_at(*pool.tile())
        t = pool.sink_at(*pool.tile())
        if s is not None and t is not None and (s.row, s.col) != (t.row, t.col):
            out.append(Request([s], [t]))
    return out


@dataclass(slots=True)
class FanoutPlan:
    """Level-5 nets and the branch moves made on them afterwards."""

    nets: list[tuple[Pin, list[Pin]]]
    #: (net index, index of the sink moved, new sink pin)
    moves: list[tuple[int, int, Pin]]


def fanout_plan(arch, rng: random.Random, n_nets: int, n_moves: int) -> FanoutPlan:
    """Nets of 8-16 sinks within ``FANOUT_RADIUS`` CLBs of their source,
    then ``n_moves`` moves of one sink each to a fresh pin near the source."""
    pool = PinPool(arch, rng)
    nets: list[tuple[Pin, list[Pin]]] = []
    while len(nets) < n_nets:
        r, c = pool.tile()
        src = pool.source_at(r, c)
        if src is None:
            continue
        sinks = [pool.sink_near(r, c, FANOUT_RADIUS) for _ in range(rng.randint(8, 16))]
        nets.append((src, sinks))
    moves = []
    for _ in range(n_moves):
        i = rng.randrange(n_nets)
        src, sinks = nets[i]
        moves.append((i, rng.randrange(len(sinks)),
                      pool.sink_near(src.row, src.col, FANOUT_RADIUS)))
    return FanoutPlan(nets, moves)


def long_pairs(
    arch, pool: PinPool, n: int, *, min_span: int, max_span: int
) -> list[tuple[Pin, Pin]]:
    """``n`` point-to-point pairs whose manhattan span is in range."""
    out: list[tuple[Pin, Pin]] = []
    while len(out) < n:
        (sr, sc), (tr, tc) = pool.tile(), pool.tile()
        if not min_span <= abs(sr - tr) + abs(sc - tc) <= max_span:
            continue
        s, t = pool.source_at(sr, sc), pool.sink_at(tr, tc)
        if s is not None and t is not None:
            out.append((s, t))
    return out


def small_nets(pool: PinPool, n: int, fanout: int) -> list[tuple[Pin, list[Pin]]]:
    """``n`` multi-sink nets of ``fanout`` sinks near their source."""
    out: list[tuple[Pin, list[Pin]]] = []
    while len(out) < n:
        r, c = pool.tile()
        src = pool.source_at(r, c)
        if src is not None:
            out.append((src, [pool.sink_near(r, c, SMALL_NET_RADIUS)
                              for _ in range(fanout)]))
    return out
