"""Tests for the system bus: arbitration, timing, data movement."""

import pytest

from repro.bus.arbiter import FixedPriorityArbiter, RoundRobinArbiter
from repro.bus.bus import SystemBus
from repro.bus.protocol import AHB, AXI4_LITE
from repro.bus.types import AccessKind
from repro.mem.memory import Memory
from repro.sim.errors import AddressError
from repro.sim.kernel import Simulator


def make_system(protocol=AHB, arbiter=None):
    sim = Simulator()
    bus = SystemBus(protocol=protocol, arbiter=arbiter)
    sim.add(bus)
    mem = Memory("ram", 1 << 16, access_latency=1)
    bus.attach_slave("ram", 0x1000, 1 << 16, mem)
    return sim, bus, mem


def read(bus, address, burst=1, master="m0", priority=0):
    return bus.submit(master, AccessKind.READ, address, burst,
                      priority=priority)


def write(bus, address, data, master="m0", priority=0):
    return bus.submit(master, AccessKind.WRITE, address, len(data),
                      list(data), priority)


def test_single_read_latency_matches_protocol():
    sim, bus, mem = make_system()
    mem.load_words(0x10, [0xDEAD])
    transfer = read(bus, 0x1010)
    sim.run_until(lambda: transfer.done)
    assert transfer.data == [0xDEAD]
    # grant next tick after submit; occupancy = arb+addr+lat+beat = 4
    assert transfer.latency == AHB.transfer_cycles(1, 1)


def test_write_then_read_roundtrip():
    sim, bus, mem = make_system()
    wr = write(bus, 0x1000, [1, 2, 3, 4])
    sim.run_until(lambda: wr.done)
    rd = read(bus, 0x1000, burst=4)
    sim.run_until(lambda: rd.done)
    assert rd.data == [1, 2, 3, 4]


def test_burst_occupancy_accounted():
    sim, bus, mem = make_system()
    transfer = read(bus, 0x1000, burst=64)
    sim.run_until(lambda: transfer.done)
    assert transfer.latency == AHB.transfer_cycles(64, 1)
    assert bus.stats["beats"] == 64


def test_unmapped_submit_raises_immediately():
    sim, bus, mem = make_system()
    with pytest.raises(AddressError):
        read(bus, 0x9999_0000)


def test_burst_crossing_region_rejected():
    sim, bus, mem = make_system()
    with pytest.raises(AddressError):
        read(bus, 0x1000 + (1 << 16) - 8, burst=4)


def test_fixed_priority_orders_grants():
    sim, bus, mem = make_system(arbiter=FixedPriorityArbiter())
    low = read(bus, 0x1000, burst=16, master="low", priority=5)
    high = read(bus, 0x1000, burst=16, master="high", priority=0)
    sim.run_until(lambda: low.done and high.done)
    # both were pending before the first bus tick, so priority decides
    assert high.grant_cycle < low.grant_cycle


def test_round_robin_alternates_between_masters():
    sim, bus, mem = make_system(arbiter=RoundRobinArbiter())
    grants = []
    for _ in range(3):
        a = read(bus, 0x1000, master="a")
        b = read(bus, 0x1000, master="b")
        sim.run_until(lambda: a.done and b.done)
        grants.append((a.grant_cycle, b.grant_cycle))
    # each pair was granted in some order; over rounds both got service
    assert all(ga is not None and gb is not None for ga, gb in grants)


def test_backdoor_access_costs_no_cycles():
    sim, bus, mem = make_system()
    bus.write_now(0x1000, [7, 8])
    assert bus.read_now(0x1000, 2) == [7, 8]
    assert sim.cycle == 0


def test_bus_utilization_and_idle():
    sim, bus, mem = make_system()
    assert bus.idle
    transfer = read(bus, 0x1000, burst=16)
    assert not bus.idle
    sim.run_until(lambda: transfer.done)
    assert 0.0 < bus.utilization() <= 1.0


def test_axi4_lite_slower_than_ahb_for_bursts():
    sim_a, bus_a, _ = make_system(protocol=AHB)
    sim_l, bus_l, _ = make_system(protocol=AXI4_LITE)
    ta = read(bus_a, 0x1000, burst=32)
    tl = read(bus_l, 0x1000, burst=32)
    sim_a.run_until(lambda: ta.done)
    sim_l.run_until(lambda: tl.done)
    assert tl.latency > ta.latency


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_traffic_conservation(data):
    """Random masters/bursts/priorities: every transfer completes, all
    written data reads back, grants never overlap."""
    sim, bus, mem = make_system()
    n_requests = data.draw(st.integers(1, 12))
    expected = {}
    transfers = []
    cursor = 0x1000
    for index in range(n_requests):
        burst = data.draw(st.integers(1, 32))
        payload = [index * 1000 + k for k in range(burst)]
        transfers.append((
            write(bus, cursor, payload,
                  master=f"m{data.draw(st.integers(0, 2))}",
                  priority=data.draw(st.integers(0, 3))),
            cursor, payload,
        ))
        expected[cursor] = payload
        cursor += 4 * burst
    sim.run_until(lambda: all(t.done for t, _, _ in transfers),
                  max_cycles=10_000)
    # data integrity
    for _, address, payload in transfers:
        rd = read(bus, address, burst=len(payload))
        sim.run_until(lambda: rd.done, max_cycles=1000)
        assert rd.data == payload
    # bus occupancy never overlapped: each transfer completes no later
    # than the next one is granted (they may share the handover cycle)
    ordered = sorted((t for t, _, _ in transfers),
                     key=lambda t: t.grant_cycle)
    for earlier, later in zip(ordered, ordered[1:]):
        assert earlier.complete_cycle <= later.grant_cycle


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 16), min_size=2, max_size=6))
def test_round_robin_no_starvation(bursts):
    """Under round-robin, every master's transfer completes even when
    one master floods the queue."""
    sim, bus, mem = make_system(arbiter=RoundRobinArbiter())
    flood = [read(bus, 0x1000, burst=16, master="flood")
             for _ in range(8)]
    victims = [read(bus, 0x1000, burst=b, master=f"v{i}")
               for i, b in enumerate(bursts)]
    sim.run_until(
        lambda: all(t.done for t in flood + victims), max_cycles=20_000
    )
    # victims were not all serviced after the whole flood
    first_victim = min(t.grant_cycle for t in victims)
    last_flood = max(t.grant_cycle for t in flood)
    assert first_victim < last_flood


def test_reset_clears_queue():
    sim, bus, mem = make_system()
    read(bus, 0x1000, burst=64)
    bus.reset()
    assert bus.idle
    assert bus.stats["requests"] == 0
