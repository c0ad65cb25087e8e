"""The in-process workloads, each driven through ``JRouter``'s public API.

A workload runs *rounds*.  Round ``k`` draws fresh inputs from a
generator seeded by ``(seed, k)``, routes them on an empty device, checks
the result and tears everything down, so every round makes the same
number and kinds of calls and a run covers many distinct inputs (the
spread between seeds shrinks with the number of distinct inputs a run
sees, not with repeats of the same ones).  Round 0 is the warm-up; its
inputs are the same for every seed, so set-up does the same work on
every run and ``setup_s`` moves with the program, not with the seed.
Each public call is timed and handed to a :class:`~timing.Meter`;
checks run between calls and are not timed.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque

import checks
from inputs import PinPool, churn_requests, fanout_plan, long_pairs, small_nets
from repro import FaultModel, JRouter, errors
from repro.core.wal import DurableSession


class Workload:
    """Shared bookkeeping: timed calls, operation and PIP counts."""

    part = "XCV50"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.k = 0
        self.meter = None
        self.attempted = self.failed = self.pips = self.conns = 0
        self.problems: list[str] = []
        #: fingerprint of the routed state at the end of the last round
        self.fingerprint = ""

    def rng(self) -> random.Random:
        """This round's input generator (string seeds do not depend on
        the interpreter's hash seed)."""
        return random.Random(f"{self.seed}:{self.k}" if self.k else "warm-up")

    def reset(self) -> None:
        self.attempted = self.failed = self.pips = self.conns = 0

    def call(self, fn, *args, conns: int = 0, sample: bool = False, **kwargs):
        """Time one public call; a raised routing error is a failed op."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except errors.JRouteError as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__} failed: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if self.meter is not None:
                self.meter.op(dt, conns=conns, sample=sample)
                self.meter.boundary()
        self.conns += conns
        return result

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def round(self, final: bool) -> None:
        self.run_round(final)
        self.k += 1

    def run_round(self, final: bool) -> None:
        raise NotImplementedError


class RtrChurn(Workload):
    """A live XCV50 in a WAL session: a sliding window of level-4 pairs
    and level-6 buses, each new request preceded by unrouting the oldest
    net once the window is full."""

    #: live connections held at once (a bus counts its width).  At 300
    #: live pairs a source ran out of OMUX exits on one seed; see README.
    WINDOW = 100
    REQUESTS = 400
    TAIL_Q = 99.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.router = JRouter(part=self.part)
        self.wal_path = os.path.join(workdir, "churn.wal")

    def _unroute(self, req) -> None:
        for src in req.sources:
            self.call(self.router.unroute, src)

    def run_round(self, final: bool) -> None:
        for path in (self.wal_path, self.wal_path + ".ckpt"):
            if os.path.exists(path):
                os.remove(path)
        router = self.router
        requests = churn_requests(router.device.arch, self.rng(), self.REQUESTS)
        with DurableSession(router, self.wal_path, checkpoint_every=256):
            live: deque = deque()
            width = 0
            for req in requests:
                while live and width + req.width > self.WINDOW:
                    old = live.popleft()
                    width -= old.width
                    self._unroute(old)
                if req.width == 1:
                    pips = self.call(router.route, req.sources[0], req.sinks[0],
                                     conns=1, sample=True)
                else:
                    pips = self.call(router.route, req.sources, req.sinks,
                                     conns=req.width, sample=True)
                self.pips += pips or 0
                live.append(req)
                width += req.width
            self.check(checks.routed_nets(
                router, [(s, [t]) for r in live for s, t in zip(r.sources, r.sinks)]
            ))
            if final:
                self.check(checks.recovered(router, self.wal_path))
            self.fingerprint = router.device.state.fingerprint()
            for req in live:
                self._unroute(req)
        self.check(checks.torn_down(router.device))


class FanoutTree(Workload):
    """Level-5 fanout nets on XCV300, then branch moves: reverse-unroute
    one sink, extend the tree to a new sink, trace the net."""

    part = "XCV300"
    NETS = 8
    #: moves outnumber the level-5 routes so that the median request is a
    #: move, not the boundary between the two kinds
    MOVES = 64
    TAIL_Q = 95.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.router = JRouter(part=self.part)

    def run_round(self, final: bool) -> None:
        router = self.router
        plan = fanout_plan(router.device.arch, self.rng(), self.NETS, self.MOVES)
        nets = plan.nets
        sinks = [list(s) for _, s in nets]
        for src, net_sinks in nets:
            pips = self.call(router.route, src, list(net_sinks),
                             conns=len(net_sinks), sample=True)
            self.pips += pips or 0
        for i, j, new in plan.moves:
            src, old = nets[i][0], sinks[i][j]
            self.call(router.reverse_unroute, old)
            pips = self.call(router.route, src, new, conns=1, sample=True)
            self.pips += pips or 0
            self.call(router.trace, src)
            sinks[i][j] = new
            self.check(checks.moved_branch(router, src, new, old, sinks[i]))
        self.check(checks.routed_nets(
            router, [(src, s) for (src, _), s in zip(nets, sinks)]
        ))
        self.fingerprint = router.device.state.fingerprint()
        for src, _ in nets:
            self.call(router.unroute, src)
        self.check(checks.torn_down(router.device))


class BulkFaulted(Workload):
    """Bulk APIs on XCV50: ``route_p2p_batch`` of long-span pairs on a
    fabric with seeded stuck-open PIPs (a new defect map each round), and
    ``route_nets`` (PathFinder, one worker) over small three-sink nets.

    The batch router runs with templates off: with them on, templates
    route nearly every long-span pair even on the damaged fabric, and
    the one seeded miss in a run (about a second of maze search) would
    decide the figures.  ``route_nets`` runs on an intact XCV50, because
    PathFinder does not mask faults (see README).
    """

    BATCHES = 9
    BATCH = 4
    NET_CALLS = 2
    NETS = 6
    FANOUT = 3
    STUCK_OPEN = 0.05
    #: 11 samples a round and 10-14 rounds in a 20 s run: p90 leaves 11-15
    #: samples beyond it and lands among the slower route_nets calls
    TAIL_Q = 90.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.router = JRouter(part=self.part, try_templates=False)
        self.nets_router = JRouter(part=self.part)

    def run_round(self, final: bool) -> None:
        router, nets_router = self.router, self.nets_router
        arch = router.device.arch
        rng = self.rng()
        # a fresh defect map per round: one map's luck would otherwise
        # set the pace of a whole run
        router.device.set_fault_model(FaultModel.random(
            arch, seed=rng.randrange(1 << 30), stuck_open_rate=self.STUCK_OPEN
        ))
        pool = PinPool(arch, rng)
        batches = [long_pairs(arch, pool, self.BATCH, min_span=8, max_span=16)
                   for _ in range(self.BATCHES)]
        pool = PinPool(arch, rng)
        net_sets = [small_nets(pool, self.NETS, self.FANOUT)
                    for _ in range(self.NET_CALLS)]
        for pairs in batches:
            outcomes = self.call(router.route_p2p_batch, pairs,
                                 conns=len(pairs), sample=True)
            lost = [o for o in outcomes or () if not o.success]
            if lost:
                self.failed += 1
                self.check([f"batch pair failed: {o.error}" for o in lost])
            self.pips += sum(o.pips_added for o in outcomes or ())
        for nets in net_sets:
            res = self.call(nets_router.route_nets, nets, workers=1,
                            conns=sum(len(s) for _, s in nets), sample=True)
            if res is not None and not res.converged:
                self.failed += 1
                self.check([f"route_nets did not converge in {res.iterations}"])
            self.pips += res.pips_added if res is not None else 0
        pairs = [(s, [t]) for b in batches for s, t in b]
        nets = [n for ns in net_sets for n in ns]
        self.check(checks.routed_nets(router, pairs))
        self.check(checks.fault_free(router.device))
        self.check(checks.routed_nets(nets_router, nets))
        self.check(checks.disjoint(nets_router.device, nets))
        self.fingerprint = (
            router.device.state.fingerprint()
            + nets_router.device.state.fingerprint()
        )
        for src, _ in pairs:
            self.call(router.unroute, src)
        for src, _ in nets:
            self.call(nets_router.unroute, src)
        self.check(checks.torn_down(router.device))
        self.check(checks.torn_down(nets_router.device))


WORKLOADS = {
    "rtr_churn": RtrChurn,
    "fanout_tree": FanoutTree,
    "bulk_faulted": BulkFaulted,
}
