"""Each output check passes on a correct result and fails on a planted fault.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
from inputs import PinPool, small_nets  # noqa: E402
from repro import FaultModel, JRouter  # noqa: E402
from repro.arch import connectivity  # noqa: E402
from repro.core.wal import DurableSession  # noqa: E402


@pytest.fixture
def routed():
    """An XCV50 router with four routed three-sink nets."""
    router = JRouter(part="XCV50")
    nets = small_nets(PinPool(router.device.arch, random.Random(3)), 4, 3)
    for src, sinks in nets:
        router.route(src, sinks)
    return router, nets


def a_pip(router, nets):
    src, sinks = nets[0]
    _, pips = checks.walk_to_source(router.device, checks.canon(router.device, sinks[0]))
    return pips[0]


def test_routed_nets_passes_on_routed_state(routed):
    assert checks.routed_nets(*routed) == []


def test_routed_nets_sees_a_pip_turned_off_behind_the_router(routed):
    router, nets = routed
    rec = a_pip(router, nets)
    router.device.turn_off(rec.row, rec.col, rec.from_name, rec.to_name)
    assert checks.routed_nets(router, nets)


def test_routed_nets_sees_a_cleared_config_bit(routed):
    router, nets = routed
    rec = a_pip(router, nets)
    memory = router.jbits.memory
    addr = memory.tile_bit_address(
        rec.row, rec.col, connectivity.pip_slot(rec.from_name, rec.to_name)
    )
    memory.set_bit(addr, False)
    assert checks.routed_nets(router, nets)


def test_routed_nets_sees_a_spurious_config_bit(routed):
    router, nets = routed
    memory = router.jbits.memory
    addr = next(a for a in range(len(memory.bits)) if not memory.get_bit(a))
    memory.set_bit(addr, True)
    assert checks.routed_nets(router, nets)


def test_torn_down(routed):
    router, nets = routed
    assert checks.torn_down(router.device)
    for src, _ in nets:
        router.unroute(src)
    assert checks.torn_down(router.device) == []


def test_recovered_passes_then_sees_a_truncated_wal_tail(tmp_path):
    router = JRouter(part="XCV50")
    wal = str(tmp_path / "s.wal")
    nets = small_nets(PinPool(router.device.arch, random.Random(5)), 6, 2)
    with DurableSession(router, wal, checkpoint_every=16):
        for src, sinks in nets:
            router.route(src, sinks)
    assert checks.recovered(router, wal) == []
    with open(wal, "rb+") as fh:
        fh.truncate(os.path.getsize(wal) - 300)
    assert checks.recovered(router, wal)


def test_replayed_connections_sees_a_truncated_wal_tail(tmp_path):
    router = JRouter(part="XCV50")
    wal = str(tmp_path / "w.wal")
    nets = small_nets(PinPool(router.device.arch, random.Random(6)), 5, 1)
    pairs = [((s.row, s.col, s.wire), (t[0].row, t[0].col, t[0].wire)) for s, t in nets]
    with DurableSession(router, wal):
        for src, sinks in nets:
            router.route(src, sinks[0])
    assert checks.replayed_connections(wal, pairs) == []
    with open(wal, "rb+") as fh:
        fh.truncate(os.path.getsize(wal) - 300)
    assert checks.replayed_connections(wal, pairs)


def test_moved_branch(routed):
    router, nets = routed
    src, sinks = nets[0]
    pool = PinPool(router.device.arch, random.Random(9))
    for _, ss in nets:
        for p in ss:
            pool.reserve(p.row, p.col, p.wire)
    new = pool.sink_near(src.row, src.col, 3)
    router.reverse_unroute(sinks[0])
    router.route(src, new)
    moved = [new] + sinks[1:]
    assert checks.moved_branch(router, src, new, sinks[0], moved) == []
    # the benchmark's record disagrees with the routed net
    assert checks.moved_branch(router, src, new, sinks[0], sinks)
    # the old sink is driven again behind the move
    router.route(src, sinks[0])
    assert checks.moved_branch(router, src, new, sinks[0], moved)


def test_fault_free_sees_a_routed_pip_that_is_stuck_open(routed):
    router, nets = routed
    faults = FaultModel(router.device.arch)
    router.device.set_fault_model(faults)
    assert checks.fault_free(router.device) == []
    rec = a_pip(router, nets)
    faults.break_pip(rec.canon_from, rec.canon_to)
    assert checks.fault_free(router.device)


def test_disjoint_sees_a_shared_wire(routed):
    router, nets = routed
    assert checks.disjoint(router.device, nets) == []
    src, sinks = nets[0]
    # a "net" rooted on a wire inside another net's tree shares it
    assert checks.disjoint(router.device, nets + [(sinks[0], [])])
