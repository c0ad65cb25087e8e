"""Span tracing around the program's layers, from the benchmark's side.

Nothing is traced inside the program.  :meth:`Tracer.install` replaces
each layer's public function by a wrapper *in the namespace its caller
looks it up in* (``repro.core.router.apply_plan`` is what ``JRouter``
calls, so that is the name replaced), and :meth:`Tracer.uninstall`
puts every original back.  A wrapper records one span per call (layer,
start, end, parent span, request id) and adds counts read from the
call's public result.  Install before building the router: the JBits
mirror binds its listener when it is constructed.

A layer's self time is its spans' duration minus the part covered by
child spans; ``router`` is the request (a public ``JRouter`` method)
minus everything below it.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import repro.core.router as router_mod
import repro.routers.auto as auto_mod
import repro.routers.pathfinder as pathfinder_mod
from repro import Device, JRouter
from repro.core.txn import RouteTransaction
from repro.core.wal import DurableSession, WriteAheadLog
from repro.jbits.jbits import JBits

#: Every layer, in the order they are reported.
LAYERS = (
    "template", "maze", "maze_batch", "pathfinder", "apply", "jbits", "txn",
    "wal", "checkpoint", "unroute", "tracer", "resolve", "router",
)

#: Count metrics and the tracer key each is read from: ``<layer>.calls``
#: counts wrapper calls, the rest add up fields of public results.
COUNTS = {
    "template.tries": "template.calls",
    "template.hits": "template.hits",
    "maze.calls": "maze.calls",
    "maze.nodes_expanded": "maze.nodes_expanded",
    "maze.heap_pushes": "maze.heap_pushes",
    "maze_batch.lanes": "maze_batch.lanes",
    "pathfinder.iterations": "pathfinder.iterations",
    "pathfinder.nodes_expanded": "pathfinder.nodes_expanded",
    "apply.pips": "apply.pips",
    "jbits.events": "jbits.calls",
    "wal.records": "wal.calls",
    "checkpoint.count": "checkpoint.calls",
    "checkpoint.bytes": "checkpoint.bytes",
    "unroute.pips": "unroute.pips",
    "resolve.calls": "resolve.calls",
}

_REQUEST_METHODS = (
    "route", "route_p2p_batch", "route_nets", "unroute", "reverse_unroute",
    "trace", "reverse_trace",
)

#: Spans kept in memory per run; later spans still count toward self
#: time but are not written out.
SPAN_LIMIT = 400_000


def _maze_counts(res, counts: Counter) -> None:
    counts["maze.nodes_expanded"] += res.stats.nodes_expanded
    counts["maze.heap_pushes"] += res.stats.heap_pushes


def _pathfinder_counts(res, counts: Counter) -> None:
    counts["pathfinder.iterations"] += res.iterations
    counts["pathfinder.nodes_expanded"] += res.stats.nodes_expanded


def _checkpoint_bytes(path, counts: Counter) -> None:
    counts["checkpoint.bytes"] += os.path.getsize(path)


class Tracer:
    """Spans kept in memory, aggregated into per-layer self time."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        #: flat (span, layer, start_ns, end_ns, parent span, request) rows
        self.spans = array("q")
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._request = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fn, on_result=None, *, top: bool = False):
        li = LAYERS.index(layer)
        stack = self._stack
        clock = time.perf_counter_ns
        spans = self.spans
        self_ns = self.self_ns
        counts = self.counts
        calls_key = f"{layer}.calls"

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if top and not stack:
                self._request += 1
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, counts)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < 6 * SPAN_LIMIT:
                    spans.extend((span, li, start, end, parent, self._request))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, layer: str, on_result=None, **kw) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self._wrap(layer, original, on_result, **kw))

    def install(self) -> None:
        def add_result(key):
            def on_result(res, counts):
                counts[key] += res
            return on_result

        # a miss raises, so every returned plan is a hit
        self._patch(
            auto_mod, "route_template", "template",
            lambda _plan, counts: counts.update(("template.hits",)),
        )
        for mod in (router_mod, auto_mod):
            self._patch(mod, "route_maze", "maze", _maze_counts)
        self._patch(
            auto_mod, "route_maze_batch", "maze_batch",
            lambda res, counts: counts.update({"maze_batch.lanes": len(res)}),
        )
        self._patch(router_mod, "route_pathfinder", "pathfinder", _pathfinder_counts)
        for mod in (router_mod, pathfinder_mod):
            self._patch(mod, "apply_plan", "apply", add_result("apply.pips"))
        self._patch(JBits, "_on_pip_event", "jbits")
        self._patch(RouteTransaction, "__enter__", "txn")
        self._patch(RouteTransaction, "__exit__", "txn")
        self._patch(WriteAheadLog, "append", "wal")
        self._patch(DurableSession, "checkpoint", "checkpoint", _checkpoint_bytes)
        for name in ("unroute_forward", "unroute_reverse"):
            self._patch(router_mod, name, "unroute", add_result("unroute.pips"))
        for name in ("trace_net", "reverse_trace_net"):
            self._patch(router_mod, name, "tracer")
        self._patch(Device, "resolve", "resolve")
        for name in _REQUEST_METHODS:
            self._patch(JRouter, name, "router", top=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the kept spans as a ``.npy`` array of
        (span, layer, start_ns, end_ns, parent, request) rows, with the
        layer names in a sibling ``.layers`` file."""
        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.save(path, rows)
        with open(path + ".layers", "w", encoding="ascii") as fh:
            fh.write("\n".join(LAYERS) + "\n")
