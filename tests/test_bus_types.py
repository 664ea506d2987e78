"""The bus transaction handle and the per-transfer bookkeeping of
:class:`~repro.bus.bus.SystemBus`: request checks, completion, the
blocking single-beat access, the one bound of every blocking wait,
round-robin rotation, the clocked-slave flag of a region and the
occupancy memo."""

from inspect import signature

import pytest

from repro.baselines.dma_slave import DMAHarness
from repro.baselines.pio_slave import PIOHarness
from repro.bus.arbiter import RoundRobinArbiter
from repro.bus.bus import OCCUPANCY_MEMO_SIZE, SystemBus
from repro.bus.protocol import AHB, ALL_PROTOCOLS
from repro.bus.types import AccessKind, BusSlave
from repro.faults import FaultEvent, FaultKind, FaultPlan, build_faulty_soc
from repro.mem.memory import Memory
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sched import ThroughputScheduler
from repro.sim.errors import (BusError, BusFaultError, DeadlockError,
                              DriverTimeout)
from repro.sim.kernel import MAX_WAIT_CYCLES, Simulator
from repro.sim.tracing import Trace
from repro.sw.driver import OuessantDriver
from repro.sw.library import OuessantLibrary
from repro.system import DMA_BASE, RAM_BASE, SoC

from tests.kernel_audit import build

MODES = {
    "naive": {"idle_skip": False},
    "fast": {"idle_skip": True},
    "strict": {"idle_skip": True, "audit": True},
}


def _ram_bus(protocol=AHB, latency=1, arbiter=None):
    sim = Simulator()
    bus = SystemBus(protocol=protocol, arbiter=arbiter)
    sim.add(bus)
    mem = Memory("ram", 1 << 12, access_latency=latency)
    bus.attach_slave("ram", 0x1000, 1 << 12, mem)
    return sim, bus, mem


# ---------------------------------------------------------------------------
# submit checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"kind": AccessKind.READ, "address": 0x1002},
     "unaligned bus address 0x1002"),
    ({"kind": AccessKind.READ, "address": 0x1000, "burst": 0},
     "burst must be >= 1, got 0"),
    ({"kind": AccessKind.WRITE, "address": 0x1000, "burst": 2,
      "data": [1]}, "write request needs exactly `burst` data words"),
    ({"kind": AccessKind.WRITE, "address": 0x1000},
     "write request needs exactly `burst` data words"),
    ({"kind": AccessKind.READ, "address": 0x1000, "data": [1]},
     "read request must not carry data"),
])
def test_bus_request_rejects_malformed_requests(kwargs, message):
    sim, bus, mem = _ram_bus()
    with pytest.raises(ValueError) as excinfo:
        bus.submit(master="m", **kwargs)
    assert str(excinfo.value) == message
    assert bus.idle and bus.stats["requests"] == 0


def test_bus_request_keeps_its_fields():
    sim, bus, mem = _ram_bus()
    write = bus.submit("m", AccessKind.WRITE, 0x1040, 2, [7, 8], 3)
    assert (write.master, write.kind, write.address, write.burst,
            write.data, write.priority, write.issue_cycle) == (
        "m", AccessKind.WRITE, 0x1040, 2, [7, 8], 3, 0)
    sim.run_until(lambda: write.done)
    read = bus.submit(master="m", kind=AccessKind.READ, address=0x1040)
    assert (read.burst, read.data, read.priority) == (1, None, 0)
    with pytest.raises(AttributeError):
        read.extra = 1  # slotted
    sim.run_until(lambda: read.done)
    # the payload at submit, the words read at completion
    assert (write.data, read.data) == ([7, 8], [7])
    assert read.latency == read.complete_cycle - read.issue_cycle


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_a_slave_error_completes_the_transfer_with_zeros():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.SLAVE_ERROR, "ram", index=0),
    ])
    soc = build_faulty_soc(PassthroughRac(block_size=16), plan)
    transfer = soc.bus.submit("m", AccessKind.READ, RAM_BASE, 4)
    soc.sim.run_until(lambda: transfer.done)
    assert (transfer.error, transfer.data) == (True, [0, 0, 0, 0])
    assert transfer.error_reason
    assert soc.bus.stats["slave_errors"] == 1


def test_transfers_with_equal_fields_stay_distinct():
    """Two identical requests in one cycle are two transactions: each
    is granted and completed once."""
    sim, bus, mem = _ram_bus()
    first = bus.submit("m", AccessKind.READ, 0x1000)
    second = bus.submit("m", AccessKind.READ, 0x1000)
    assert first != second
    sim.run_until(lambda: first.done and second.done)
    assert first.grant_cycle < second.grant_cycle
    assert bus.stats["grants"] == 2


def test_busy_cycles_read_live_and_after_the_finish():
    sim, bus, mem = _ram_bus(latency=0)
    transfer = bus.submit("m", AccessKind.READ, 0x1000, 8)
    sim.step(1)  # granted in cycle 0
    occupancy = AHB.transfer_cycles(8, 0)
    sim.step(3)
    assert bus.stats["busy_cycles"] == 3
    sim.run_until(lambda: transfer.done)
    assert bus.stats["busy_cycles"] == occupancy
    sim.step(5)
    assert bus.stats["busy_cycles"] == occupancy
    assert bus.utilization() == occupancy / sim.cycle


def test_round_robin_arbiter_sees_a_sole_request():
    """A sole pending request is granted without asking a stateless
    arbiter, but a round-robin arbiter still rotates past its master."""
    sim = Simulator()
    bus = SystemBus(arbiter=RoundRobinArbiter())
    sim.add(bus)
    bus.attach_slave("ram", 0x1000, 1 << 12, Memory("ram", 1 << 12))

    def contend():
        a = bus.submit("a", AccessKind.READ, 0x1000)
        b = bus.submit("b", AccessKind.READ, 0x1000)
        sim.run_until(lambda: a.done and b.done)
        return a.grant_cycle < b.grant_cycle

    # a wins, then b is granted alone: b was granted last, so a wins
    # again (b would, had the sole grant bypassed the rotation)
    assert contend()
    assert contend()


def test_round_robin_ranks_a_new_master_against_the_last_grant():
    """A lone "a" is granted; then "a" and a master the arbiter has not
    seen submit in the same cycle: "a" was granted last, so "b" wins."""
    sim, bus, mem = _ram_bus(arbiter=RoundRobinArbiter())
    first = bus.submit("a", AccessKind.READ, 0x1000)
    sim.run_until(lambda: first.done)
    a = bus.submit("a", AccessKind.READ, 0x1000)
    b = bus.submit("b", AccessKind.READ, 0x1000)
    sim.run_until(lambda: a.done and b.done)
    assert b.grant_cycle < a.grant_cycle


# ---------------------------------------------------------------------------
# the blocking single-beat access
# ---------------------------------------------------------------------------

class _StubWindow(BusSlave):
    """A register window that answers every access with an ERROR
    response, after ``access_latency`` wait states."""

    def __init__(self, access_latency=0):
        self.access_latency = access_latency

    def read_word(self, offset):
        raise BusFaultError(f"stub: ERROR on read at {offset:#x}")

    def write_word(self, offset, value):
        raise BusFaultError(f"stub: ERROR on write at {offset:#x}")


#: each software master's blocking access to the OCP register window at
#: ``base``, and a bare poll, by the ``what`` text it names its wait with
_ACCESSES = {
    "register write": lambda soc, base: OuessantDriver(
        soc).write_register(0, 1),
    "register read": lambda soc, base: OuessantDriver(
        soc).read_register(0),
    "PIO write": lambda soc, base: PIOHarness(
        soc.sim, soc.bus, base)._write(0, 1),
    "PIO read": lambda soc, base: PIOHarness(
        soc.sim, soc.bus, base)._read(0),
    "harness write": lambda soc, base: DMAHarness(
        soc.sim, soc.bus, None, 0, base)._write(base, 1),
    "done bit": lambda soc, base: soc.bus.poll("cpu", base, 1, "done bit"),
}


def _stub_soc(latency):
    soc = SoC(racs=[PassthroughRac(block_size=16)], with_cpu=False)
    soc.bus.memmap.replace_slave("ocp", _StubWindow(latency))
    return soc, soc.ocp_base(0)


@pytest.mark.parametrize("what", list(_ACCESSES))
def test_blocking_access_raises_bus_error_and_keeps_its_wait_name(what):
    access = _ACCESSES[what]
    soc, base = _stub_soc(latency=0)
    with pytest.raises(BusError) as excinfo:
        access(soc, base)
    assert type(excinfo.value) is BusError
    message = str(excinfo.value)
    assert message.startswith(f"{what} by 'cpu' at {base:#x} failed: ")
    assert "stub: ERROR" in message
    # a slave slower than the wait bound: the wait times out under the
    # caller's own name, at the kernel's bound
    soc, base = _stub_soc(latency=10_000_000)
    with pytest.raises(DeadlockError) as excinfo:
        access(soc, base)
    assert str(excinfo.value).startswith(
        f"{what} not reached within {MAX_WAIT_CYCLES} cycles ")


class _IdleWindow(BusSlave):
    """A register window whose done bits never rise: reads answer 0
    and writes are dropped, after ``access_latency`` wait states."""

    def __init__(self, access_latency):
        self.access_latency = access_latency

    def read_word(self, offset):
        return 0

    def write_word(self, offset, value):
        pass


def _dma(soc, base):
    return DMAHarness(soc.sim, soc.bus, soc.dma, DMA_BASE, base)


#: each wait for a done bit or an interrupt, by its ``what`` text: (the
#: error it raises, the region the idle window replaces, the wait)
_WAITS = {
    "OCP done bit": (DriverTimeout, "ocp", lambda soc, base:
                     OuessantDriver(soc, use_interrupt=False).wait_done()),
    "PIO done bit": (DeadlockError, "ocp", lambda soc, base:
                     PIOHarness(soc.sim, soc.bus, base).run([], 0)),
    "accelerator done bit": (DeadlockError, "ocp", lambda soc, base:
                             _dma(soc, base).run(RAM_BASE, RAM_BASE, 0, 0)),
    "OCP interrupt": (DriverTimeout, "ocp", lambda soc, base:
                      OuessantDriver(soc).wait_done()),
    "DMA interrupt": (DeadlockError, "dma", lambda soc, base:
                      _dma(soc, base).run(RAM_BASE, RAM_BASE, 1, 1)),
}


@pytest.mark.parametrize("what", list(_WAITS))
def test_every_wait_gives_up_at_the_kernel_bound(what):
    """Each wait gives up at the kernel's bound under its own name.  A
    poll is one wait: its reads (a million cycles each here) share the
    bound instead of each getting their own."""
    error, region, wait = _WAITS[what]
    soc = SoC(racs=[PassthroughRac(block_size=16)], with_cpu=False,
              with_dma=True)
    soc.bus.memmap.replace_slave(region, _IdleWindow(1_000_000))
    with pytest.raises(error) as excinfo:
        wait(soc, soc.ocp_base(0))
    assert type(excinfo.value) is error
    assert str(excinfo.value).startswith(
        f"{what} not reached within {MAX_WAIT_CYCLES} cycles ")


@pytest.mark.parametrize("wait", [
    Simulator.run_until, SystemBus.poll, OuessantDriver.wait_done,
    OuessantDriver.run, ThroughputScheduler.submit_blocking,
    ThroughputScheduler.run_stream, ThroughputScheduler.drain,
], ids=lambda wait: wait.__qualname__)
def test_every_wait_bound_defaults_to_the_kernel_bound(wait):
    bounds = [parameter.default
              for name, parameter in signature(wait).parameters.items()
              if name in ("max_cycles", "max_wait_cycles")]
    assert bounds == [MAX_WAIT_CYCLES]


# ---------------------------------------------------------------------------
# Region.clocked
# ---------------------------------------------------------------------------

class _PlainWindow(BusSlave):
    """An unclocked slave forwarding to the OCP's register window."""

    def __init__(self, inner):
        self.inner = inner
        self.access_latency = inner.access_latency

    def read_word(self, offset):
        return self.inner.read_word(offset)

    def write_word(self, offset, value):
        self.inner.write_word(offset, value)


def _clocked_swap_run(mode):
    soc = build(SoC, racs=[IDCTRac()], trace=Trace(), **MODES[mode])
    library = OuessantLibrary(soc, use_interrupt=False)
    memmap = soc.bus.memmap
    block = [[(r * 8 + c) * 5 - 100 for c in range(8)] for r in range(8)]
    flags, results = [], []

    def call():
        region = next(r for r in memmap.regions if r.name == "ocp")
        flags.append(region.clocked)
        results.append((library.idct(block), soc.sim.cycle))

    call()
    memmap.replace_slave("ocp", _PlainWindow(soc.ocp.interface))
    call()
    memmap.replace_slave("ocp", soc.ocp.interface)
    call()
    events = [(e.cycle, e.component, e.event, e.data)
              for e in soc.sim.trace.events()]
    return flags, results, events


def test_region_clocked_follows_replace_slave_in_every_mode():
    runs = {mode: _clocked_swap_run(mode) for mode in MODES}
    flags, results, events = runs["naive"]
    assert flags == [True, False, True]
    # the register window answers the same through the plain slave
    assert results[0][0] == results[1][0] == results[2][0]
    for mode in ("fast", "strict"):
        assert runs[mode] == runs["naive"], mode


def test_region_clocked_is_resolved_when_the_region_is_made():
    sim, bus, mem = _ram_bus()
    (ram,) = bus.memmap.regions
    assert ram.clocked is False
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    region = next(r for r in soc.bus.memmap.regions if r.name == "ocp")
    assert region.clocked is True


# ---------------------------------------------------------------------------
# the occupancy memo
# ---------------------------------------------------------------------------

def _occupancy_bus():
    """A bus with one RAM per slave latency 0-4, at 0x10000 * (L + 1)."""
    sim = Simulator()
    bus = SystemBus()
    sim.add(bus)
    for latency in range(5):
        bus.attach_slave(f"ram{latency}", 0x10000 * (latency + 1), 0x1000,
                         Memory(f"ram{latency}", 0x1000,
                                access_latency=latency))
    return sim, bus


def _occupancy(sim, bus, burst, latency):
    transfer = bus.submit("m", AccessKind.READ, 0x10000 * (latency + 1), burst)
    sim.run_until(lambda: transfer.done)
    assert len(bus._occupancy) <= OCCUPANCY_MEMO_SIZE
    return transfer.complete_cycle - transfer.grant_cycle


def test_occupancy_memo_is_exact_for_every_protocol():
    """Every grant occupies the bus for exactly the protocol's
    ``transfer_cycles``: on a memo miss, on a hit and after the memo
    starts afresh (1500 keys per protocol)."""
    sim, bus = _occupancy_bus()
    for protocol in ALL_PROTOCOLS:
        bus.protocol = protocol
        for latency in range(5):
            for burst in range(1, 301):
                expected = protocol.transfer_cycles(burst, latency)
                # a miss, then a hit
                for _ in range(2):
                    assert _occupancy(sim, bus, burst, latency) == expected, (
                        protocol.name, burst, latency)


def test_occupancy_memo_never_answers_for_another_protocol():
    """Reassigning ``bus.protocol`` between two grants of one key: the
    second grant is timed by the new protocol, not the memo."""
    sim, bus = _occupancy_bus()
    for latency in range(5):
        for burst in range(1, 301):
            for protocol in ALL_PROTOCOLS:
                bus.protocol = protocol
                assert (_occupancy(sim, bus, burst, latency)
                        == protocol.transfer_cycles(burst, latency)), (
                    protocol.name, burst, latency)
