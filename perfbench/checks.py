"""Output checks the benchmark computes itself.

Each check reads the routed result through the device's own state and
the JBits configuration memory and returns a list of problems (empty
when the output is correct).  None of them compares against a stored
copy of an earlier run's output.
"""

from __future__ import annotations

from repro import Device, Pin
from repro.arch.wires import WireClass
from repro.core.wal import WriteAheadLog, recover


def canon(device, pin) -> int:
    c = device.arch.canonicalize(pin.row, pin.col, pin.wire)
    if c is None:
        raise ValueError(f"{pin} does not exist on {device.arch.part.name}")
    return c


def walk_to_source(device, sink: int) -> tuple[int, list]:
    """Follow driver links from ``sink``; returns (root wire, PIPs walked)."""
    state = device.state
    pips = []
    w = sink
    while (rec := state.pip_of.get(w)) is not None:
        pips.append(rec)
        w = rec.canon_from
        if len(pips) > state.n_pips_on:
            raise RuntimeError("driver chain does not terminate")
    return w, pips


def routed_nets(router, nets) -> list[str]:
    """Every sink of every ``(source, sinks)`` net walks back to its own
    source, and every PIP on the way is set in the JBits memory."""
    device = router.device
    memory = router.jbits.memory
    problems = []
    for src, sinks in nets:
        want = canon(device, src)
        for sink in sinks:
            root, pips = walk_to_source(device, canon(device, sink))
            if root != want or not pips:
                problems.append(f"sink {sink} is not driven from {src}")
            for rec in pips:
                if not router.jbits.get(rec.row, rec.col, rec.from_name, rec.to_name):
                    problems.append(
                        f"PIP {rec} of the net from {src} is not set in the "
                        f"configuration memory"
                    )
    if not problems:
        bits = int(memory.bits.sum())
        if bits != device.state.n_pips_on:
            problems.append(
                f"{device.state.n_pips_on} PIPs on but {bits} bits set"
            )
    return problems


_FRESH: dict[str, str] = {}


def torn_down(device) -> list[str]:
    """The device holds no PIPs and fingerprints as a fresh ``Device``."""
    part = device.arch.part.name
    if part not in _FRESH:
        _FRESH[part] = Device(part).state.fingerprint()
    problems = []
    if device.state.n_pips_on:
        problems.append(f"{device.state.n_pips_on} PIPs still on after teardown")
    if device.state.fingerprint() != _FRESH[part]:
        problems.append("fingerprint differs from a fresh device")
    return problems


def recovered(router, wal_path: str) -> list[str]:
    """``recover()`` of the WAL and checkpoint reproduces the live state."""
    fresh, report = recover(wal_path)
    live = router.device.state.fingerprint()
    if report.fingerprint != live or fresh.device.state.fingerprint() != live:
        return [f"recovery from {wal_path} does not reproduce the live state "
                f"({report.summary()})"]
    return []


def moved_branch(router, src, new_sink, old_sink, expected) -> list[str]:
    """After a branch move: the new sink traces back to the net's source,
    the old sink is undriven, and the net's sinks are ``expected``."""
    device = router.device
    state = device.state
    source = canon(device, src)
    problems = []
    root, pips = walk_to_source(device, canon(device, new_sink))
    if root != source or not pips:
        problems.append(f"new sink {new_sink} does not trace back to {src}")
    if state.is_driven(canon(device, old_sink)):
        problems.append(f"old sink {old_sink} is still driven")
    arch = device.arch
    reached = {
        w for w in state.subtree(source)
        if arch.wire_class_of(w) in (WireClass.SLICE_IN, WireClass.CTL_IN)
    }
    if reached != {canon(device, p) for p in expected}:
        problems.append(f"net from {src} reaches the wrong sinks")
    return problems


def fault_free(device) -> list[str]:
    """No routed PIP touches a resource the fault model marks defective."""
    faults = device.faults
    bad = [
        rec for rec in device.state.pip_of.values()
        if faults.pip_blocked(rec.canon_from, rec.canon_to)
    ]
    return [f"routed PIP {rec} is defective" for rec in bad[:5]]


def disjoint(device, nets) -> list[str]:
    """No wire is shared between the nets' routing trees."""
    owner: dict[int, object] = {}
    problems = []
    for src, _ in nets:
        for w in device.state.subtree(canon(device, src)):
            if owner.setdefault(w, src) is not src:
                problems.append(f"wire {w} is shared by {owner[w]} and {src}")
    return problems[:5]


def replayed_connections(wal_path: str, pairs) -> list[str]:
    """Replay a WAL shard into a fresh device; every ``(source, sink)``
    pair of ``(row, col, wire)`` pins must be connected in the replayed
    state."""
    part, records, _torn = WriteAheadLog.replay(wal_path)
    device = Device(part)
    for rec in records:
        if rec.on:
            device.turn_on(rec.row, rec.col, rec.from_name, rec.to_name)
        else:
            device.turn_off(rec.row, rec.col, rec.from_name, rec.to_name)
    problems = []
    for src, sink in pairs:
        root, pips = walk_to_source(device, canon(device, Pin(*sink)))
        if root != canon(device, Pin(*src)) or not pips:
            problems.append(f"job {src}->{sink} is not connected in {wal_path}")
    return problems[:5]
