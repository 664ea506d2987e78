"""Kernel schedules: unit tests and naive-vs-fast equivalence.

The fast schedule is only allowed to exist because it is invisible: with
``idle_skip=True`` every observable -- memory contents, trace events
(including their cycle stamps), final cycle counts, per-component
statistics -- must be bit-identical to the naive two-phase stepper.
The first half of this file unit-tests the kernel mechanics (wake
computation, chunked predicate re-checks, strict mode, profiling); the
second half property-tests whole-SoC equivalence on the seeded random
workloads of the differential harness, clean, under injected stall
faults and under plans mixing every fault kind, traced and trace-free
(batch lane).  *Strict mode* is the fast schedule run by the audited
simulator of :mod:`tests.kernel_audit`, which checks every decision of
it against the naive stepper.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.program import OuProgram
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    faulty_fifo_factory,
    inject_faults,
)
from repro.sim import (
    Component,
    DeadlockError,
    ReproError,
    SimulationError,
    Simulator,
    Trace,
)
from repro.system import SoC

from tests import kernel_audit
from tests.kernel_audit import AuditedSimulator, build
from tests.test_differential_refmodel import (
    IN,
    OUT,
    PROG,
    SEED_BASE,
    Case,
)
from repro.core.registers import CTRL_IE, CTRL_S

N_EQUIVALENCE = 60
N_STRICT = 8


# -- unit-test components ---------------------------------------------------

class Sleeper(Component):
    """Does one unit of work every ``period`` cycles, ``limit`` times.

    Between wakes it is honestly quiescent, so it exercises the whole
    declare/skip/wake cycle of the protocol.
    """

    def __init__(self, name="sleeper", period=100, limit=3):
        super().__init__(name)
        self.period = period
        self.limit = limit
        self.wakes = []
        self._due = 0

    def next_activity(self):
        if len(self.wakes) >= self.limit:
            return None
        return max(self._due, self.now)

    def tick(self):
        if len(self.wakes) >= self.limit or self.now < self._due:
            return
        self.wakes.append(self.now)
        self.trace_event("wake", n=len(self.wakes))
        self._due = self.now + self.period


class Liar(Component):
    """Claims indefinite idleness but emits an event every cycle."""

    def next_activity(self):
        return None

    def tick(self):
        self.trace_event("sneaky")


class Fickle(Component):
    """Declares a far wake-up, then claims to be active mid-window."""

    def __init__(self):
        super().__init__("fickle")
        self._polls = 0

    def next_activity(self):
        self._polls += 1
        return self.now + 50 if self._polls == 1 else self.now


# -- kernel unit tests ------------------------------------------------------

def _sleeper_run(idle_skip, cycles=350):
    sim = Simulator(trace=Trace(), idle_skip=idle_skip)
    sleeper = sim.add(Sleeper())
    sim.step(cycles)
    return sim, sleeper


def test_skip_is_invisible_to_component_behavior():
    naive_sim, naive = _sleeper_run(idle_skip=False)
    fast_sim, fast = _sleeper_run(idle_skip=True)
    assert fast.wakes == naive.wakes == [0, 100, 200]
    assert fast_sim.cycle == naive_sim.cycle == 350
    assert fast_sim.trace.dump() == naive_sim.trace.dump()


def test_profile_accounts_ticked_and_skipped():
    naive_sim, _ = _sleeper_run(idle_skip=False)
    fast_sim, _ = _sleeper_run(idle_skip=True)
    naive_prof = naive_sim.profile()
    fast_prof = fast_sim.profile()
    assert naive_prof.skipped == 0
    assert naive_prof.ticked == naive_prof.cycles == 350
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles == 350
    # only the three wake cycles need real ticks
    assert fast_prof.ticked == 3
    assert fast_prof.skip_windows == 3
    assert fast_prof.skip_ratio == pytest.approx(347 / 350)
    assert "skipped" in fast_prof.render()


def test_step_stops_exactly_at_target_mid_window():
    sim = Simulator()
    sim.add(Sleeper(period=100))
    sim.step(50)  # target falls inside a declared-idle window
    assert sim.cycle == 50


def test_run_until_wakes_exactly_on_predicate_state_change():
    sim = Simulator(idle_skip=True)
    sleeper = sim.add(Sleeper(period=100))
    elapsed = sim.run_until(lambda: len(sleeper.wakes) == 3)
    # third wake happens at cycle 200; the tick completes it at 201
    assert elapsed == 201
    assert sim.profile().skipped > 0


def test_run_until_deadlock_identical_between_modes():
    messages = []
    for idle_skip in (False, True):
        sim = Simulator(idle_skip=idle_skip)
        sim.add(Sleeper(period=100, limit=1))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run_until(lambda: False, max_cycles=777, what="nothing")
        messages.append(str(excinfo.value))
        assert sim.cycle == 777
    assert messages[0] == messages[1]


def test_run_until_rechecks_predicate_in_bounded_chunks():
    sim = Simulator(idle_skip=True)
    sim.add(Sleeper(limit=0))  # idle forever from cycle 0
    calls = []

    def predicate():
        calls.append(sim.cycle)
        return sim.cycle >= 40_000

    sim.run_until(predicate, max_cycles=1_000_000)
    # a clock-reading predicate may overshoot, but never by more than
    # one chunk -- and it is re-evaluated sparsely, not every cycle
    assert sim.cycle < 40_000 + sim.max_skip_chunk
    assert len(calls) <= 40_000 // sim.max_skip_chunk + 2


def test_strict_mode_passes_honest_components():
    sim = AuditedSimulator(trace=Trace(), idle_skip=True)
    sleeper = sim.add(Sleeper())
    sim.step(350)
    assert sleeper.wakes == [0, 100, 200]


def test_strict_mode_catches_event_during_declared_idle():
    sim = AuditedSimulator(trace=Trace(), idle_skip=True)
    sim.add(Liar("liar"))
    with pytest.raises(SimulationError, match="declared-idle window"):
        sim.step(10)


def test_strict_mode_catches_early_wake():
    sim = AuditedSimulator(idle_skip=True)
    sim.add(Fickle())
    with pytest.raises(SimulationError, match="turned active"):
        sim.step(50)


class Alarm(Component):
    """Indefinitely idle until armed -- and armed without a poke."""

    def __init__(self):
        super().__init__("alarm")
        self.armed_at = None
        self.rang = []

    def next_activity(self):
        return self.armed_at

    def tick(self):
        if self.armed_at is not None and self.now >= self.armed_at:
            self.rang.append(self.now)
            self.armed_at = None


class Unwired(Component):
    """Arms the alarm at cycle 5 but forgets to poke it."""

    def __init__(self, alarm):
        super().__init__("unwired")
        self.alarm = alarm
        self.fired = False

    def next_activity(self):
        return None if self.fired else 5

    def tick(self):
        if not self.fired and self.now >= 5:
            self.alarm.armed_at = self.now + 3
            self.fired = True


def test_strict_mode_catches_stale_cached_claim():
    sim = AuditedSimulator()
    alarm = sim.add(Alarm())
    sim.add(Unwired(alarm))
    with pytest.raises(SimulationError, match="without being poked"):
        sim.step(20)


class Streamer(Component):
    """Always active; batches its counting, off by ``skew`` per slab."""

    can_batch = True

    def __init__(self, skew=0):
        super().__init__("streamer")
        self.count = 0
        self.skew = skew

    def tick(self):
        self.count += 1

    def batch_span(self, budget):
        return budget

    def tick_batch(self, budget):
        self.count += budget + self.skew
        return budget


def test_strict_mode_replays_batch_slabs():
    """Trace-free strict runs take the batch lane on a copy and check
    it against the naive replay: an honest slab passes (the real run
    still ends naive-exact), a miscounting one is caught."""
    fast = Simulator()
    fast.add(Streamer())
    fast.step(100)
    assert fast.profile().ticked == 100 and fast.component("streamer").count == 100

    strict = AuditedSimulator()
    honest = strict.add(Streamer())
    strict.step(100)
    assert honest.count == 100
    # the replayed slab is booked as the fast schedule books the slab
    assert strict.profile() == fast.profile()

    broken = AuditedSimulator()
    broken.add(Streamer(skew=1))
    with pytest.raises(SimulationError, match="tick_batch slab .* streamer.count"):
        broken.step(100)


class Burst(Streamer):
    """Streams ``limit`` counts from cycle 0, then sleeps for good."""

    def __init__(self, limit=50):
        super().__init__()
        self.limit = limit

    def next_activity(self):
        return self.now if self.count < self.limit else None

    def tick(self):
        if self.count < self.limit:
            self.count += 1

    def batch_span(self, budget):
        return min(budget, self.limit - self.count)

    def tick_batch(self, budget):
        consumed = min(budget, self.limit - self.count)
        self.count += consumed
        return consumed


def _burst_run(idle_skip):
    sim = Simulator(idle_skip=idle_skip)
    burst = sim.add(Burst())
    sim.add(Sleeper())
    sim.step(350)
    return sim, burst


def test_profile_counts_batched_cycles():
    """``batched`` counts exactly the cycles ``tick_batch`` consumed: on
    cycle 0 both components are due (a dispatched cycle); cycles 1-49
    are one slab of the sole due streamer; the sleeper's later wakes
    are dispatched, and the rest is skipped."""
    naive, naive_burst = _burst_run(idle_skip=False)
    fast, fast_burst = _burst_run(idle_skip=True)
    assert naive_burst.count == fast_burst.count == 50
    naive_prof, fast_prof = naive.profile(), fast.profile()
    assert naive_prof.batched == 0
    assert naive_prof.ticked == naive_prof.cycles == 350
    assert fast_prof.batched == 49
    assert fast_prof.ticked == 1 + 49 + 2
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles == 350
    assert "49 batched" in fast_prof.render()
    fast.reset()
    assert fast.profile().batched == 0
    assert fast.profile().ticked == fast.profile().skipped == 0


class Overreporter(Burst):
    """Offers one cycle more than its slab can consume."""

    def batch_span(self, budget):
        return min(budget, self.limit - self.count + 1)


class Meddler(Burst):
    """Moves state in ``batch_span``, which must be side-effect-free."""

    def batch_span(self, budget):
        self.count += 0 if self.count >= self.limit else 1
        return 1


class Stingy(Burst):
    """Offers no cycle although it is due and can batch."""

    def batch_span(self, budget):
        return 0


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("lane, message", [
    (Overreporter, "consumed 50 of the 51-cycle lane span"),
    (Stingy, "offered a 0-cycle span"),
])
def test_batch_span_that_tick_batch_cannot_honour_is_caught(lane, message,
                                                           strict):
    """Every lane must offer at least one cycle and consume the granted
    span exactly: a bad offer fails loudly in the shipping schedule and
    under strict audit."""
    sim = build(Simulator, audit=strict)
    sim.add(lane())
    with pytest.raises(SimulationError, match=message):
        sim.step(100)


def test_strict_mode_catches_a_batch_span_with_side_effects():
    sim = AuditedSimulator()
    sim.add(Meddler())
    with pytest.raises(SimulationError, match="batch_span of 'streamer' "
                                              "changed state"):
        sim.step(100)


class Tally(Component):
    """A registered log that writers append to; never due itself."""

    def __init__(self, name):
        super().__init__(name)
        self.log = []

    def next_activity(self):
        return None


class Writer(Component):
    """Appends its name to a tally once per cycle, ``limit`` times, and
    batches the appends."""

    can_batch = True

    def __init__(self, name, tally, limit):
        super().__init__(name)
        self.tally = tally
        self.limit = limit
        self.count = 0

    def next_activity(self):
        return self.now if self.count < self.limit else None

    def tick(self):
        if self.count < self.limit:
            self.count += 1
            self.tally.log.append(self.name)

    def batch_span(self, budget):
        return min(budget, self.limit - self.count)

    def tick_batch(self, budget):
        span = self.batch_span(budget)
        self.count += span
        self.tally.log.extend([self.name] * span)
        return span


def _writers_run(shared, idle_skip=True, strict=False):
    sim = build(Simulator, idle_skip=idle_skip, audit=strict)
    first = sim.add(Tally("tally_a"))
    second = first if shared else sim.add(Tally("tally_b"))
    sim.add(Writer("a", first, 30))
    sim.add(Writer("b", second, 60))
    sim.step(100)
    return (list(first.log), list(second.log)), sim.profile()


def test_lanes_sharing_a_registered_component_are_never_batched_together():
    """Two batchable writers due on the same cycles but appending to one
    shared tally interleave their writes cycle by cycle; laning them
    together would group the writes.  The kernel takes dispatched
    cycles while both are due, and strict mode agrees."""
    naive, _ = _writers_run(shared=True, idle_skip=False)
    fast, fast_prof = _writers_run(shared=True)
    strict, _ = _writers_run(shared=True, strict=True)
    assert naive[0][:4] == ["a", "b", "a", "b"]
    assert fast == strict == naive
    # cycles 0-29 are dispatched; "b" alone batches cycles 30-59
    assert fast_prof.batched == 30
    assert fast_prof.ticked == 60


def test_independent_lanes_batch_together_counting_cycles_once():
    """Writers on separate tallies are independent lanes: one two-lane
    span covers cycles 0-29, then "b" batches 30-59 alone.  ``batched``
    counts cycles, not lane-cycles."""
    naive, _ = _writers_run(shared=False, idle_skip=False)
    fast, fast_prof = _writers_run(shared=False)
    strict, _ = _writers_run(shared=False, strict=True)
    assert fast == strict == naive
    assert fast_prof.batched == fast_prof.ticked == 60


def test_strict_mode_rejects_lanes_that_share_a_component(monkeypatch):
    """Strict mode re-checks the independence of the lanes it audits."""
    monkeypatch.setattr(Simulator, "_grants",
                        lambda self, lanes, horizon: True)
    with pytest.raises(SimulationError, match="both drive 'tally_a'"):
        _writers_run(shared=True, strict=True)


def test_waveform_probe_disables_skipping():
    from repro.sim import VCDWriter, WaveformProbe

    sim = Simulator(idle_skip=True)
    sleeper = sim.add(Sleeper())
    vcd = VCDWriter()
    sim.add(WaveformProbe("probe", vcd, {"wakes": lambda: len(sleeper.wakes)}))
    sim.step(250)
    prof = sim.profile()
    assert prof.skipped == 0
    assert prof.ticked == 250  # every cycle sampled: gap-free dump


def _probed_run(idle_skip, remove_at=None):
    """A SoC workload captured into a VCD: the standard OCP probe set
    plus the bus's busy-cycle counter, a cycle statistic read live from
    its entry stamp.  With ``remove_at`` the probe is unregistered at
    that cycle and the run continues without it."""
    from repro.sim import VCDWriter, WaveformProbe
    from repro.sim.waveform import ocp_probe

    case = Case(random.Random(SEED_BASE + 600_000))
    trace = Trace()
    soc = SoC(racs=[case.rac()], trace=trace, idle_skip=idle_skip)
    signals = dict(ocp_probe("probe", VCDWriter(), soc.ocp).signals)
    signals["bus_busy"] = lambda: soc.bus.stats["busy_cycles"]
    vcd = VCDWriter(timescale="20ns")
    probe = soc.sim.add(WaveformProbe("probe", vcd, signals, width_hint=16))
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(case.program))
    if remove_at is not None:
        soc.sim.step(remove_at)
        soc.sim.remove(probe)
    soc.sim.run_until(lambda: ocp.done, max_cycles=50_000)
    soc.sim.step(50)
    return {
        "vcd": vcd.render(),
        "memory": soc.read_ram(OUT, case.total),
        "cycle": soc.sim.cycle,
        "trace": trace.dump(),
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
    }, soc.sim.profile()


def test_waveform_capture_is_byte_identical_to_naive():
    """A probe is always due, so the fast schedule dispatches every
    cycle while it is registered, ticking only the components that are
    due; the VCD it captures -- including the live bus counter -- is
    byte-identical to the naive schedule's."""
    naive, _ = _probed_run(idle_skip=False)
    fast, fast_prof = _probed_run(idle_skip=True)
    assert fast == naive
    assert fast_prof.skipped == 0
    assert "bus_busy" in naive["vcd"]


def test_waveform_probe_removed_mid_run_then_fast_matches_naive():
    """After the probe leaves, the fast schedule skips again, with
    nothing to settle for the cycles the probe had dispatched."""
    naive, _ = _probed_run(idle_skip=False, remove_at=40)
    fast, fast_prof = _probed_run(idle_skip=True, remove_at=40)
    assert fast == naive
    assert fast_prof.skipped > 0  # the fast schedule engaged after removal


def test_default_component_is_always_active():
    """Unknown components must never be skipped over."""
    sim = Simulator(idle_skip=True)

    class Legacy(Component):
        ticks = 0

        def tick(self):
            Legacy.ticks += 1

    sim.add(Legacy("legacy"))
    sim.add(Sleeper())
    sim.step(120)
    assert Legacy.ticks == 120
    assert sim.profile().skipped == 0


# -- whole-SoC equivalence (property-style, seeded) -------------------------

def _execute(case, plan=None, trace=None, **soc_kw):
    """Elaborate, program and run one differential-harness workload.

    Returns ``(soc, residual)`` so callers can pick their own
    observables (the hot-mode tests need the live objects, not a
    rendered snapshot).
    """
    soc = build(SoC, racs=[case.rac()], trace=trace, **soc_kw)
    if plan is not None:
        inject_faults(soc, plan)
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(case.program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)
    previous = -1
    while ocp.fifos_out[0].occupancy != previous:
        previous = ocp.fifos_out[0].occupancy
        soc.sim.step(50)
    return soc, previous


def _run_case(case, idle_skip, plan=None, strict=False, traced=True):
    """Run one differential-harness workload; capture all observables
    (the trace only when ``traced``: trace-free runs take the batch
    lane)."""
    trace = Trace() if traced else None
    soc, residual = _execute(case, plan=plan, trace=trace,
                             idle_skip=idle_skip, audit=strict)
    ocp = soc.ocp
    return {
        "memory": soc.read_ram(OUT, case.total),
        "residual": residual,
        "cycle": soc.sim.cycle,
        "trace": trace.dump() if traced else None,
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
    }, soc.sim.profile()


@pytest.mark.parametrize("index", range(N_EQUIVALENCE))
def test_equivalence_random_workloads(index):
    """Same seeded SoC workload, naive vs fast schedule (traced and
    trace-free), clean and faulted: memory, residuals, traces, cycle
    counts and statistics all equal."""
    seed = SEED_BASE + 100_000 + index
    rng = random.Random(seed)
    case = Case(rng)

    naive, naive_prof = _run_case(case, idle_skip=False)
    fast, fast_prof = _run_case(case, idle_skip=True)
    hot, hot_prof = _run_case(case, idle_skip=True, traced=False)
    assert fast == naive, f"fast schedule diverged at seed {seed}"
    assert hot == dict(naive, trace=None), (
        f"trace-free fast schedule diverged at seed {seed}"
    )
    assert naive_prof.skipped == 0
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles
    assert hot_prof.ticked + hot_prof.skipped == hot_prof.cycles

    plan = FaultPlan.random_stalls(
        seed, n_events=rng.randint(1, 4), sites=("ram",), max_index=6,
        max_stall=25,
    )
    naive_faulted, _ = _run_case(case, idle_skip=False, plan=plan)
    fast_faulted, _ = _run_case(case, idle_skip=True, plan=plan)
    assert fast_faulted == naive_faulted, (
        f"fast schedule diverged under stall faults at seed {seed}"
    )
    # when a stall actually fired (short programs can finish before the
    # scheduled access index), the cycle count must have moved with it
    if "fault.stall" in naive_faulted["trace"]:
        assert naive_faulted["cycle"] != naive["cycle"]


@pytest.mark.parametrize("index", range(N_STRICT))
def test_equivalence_strict_mode_audits_idle_claims(index):
    """Strict mode audits every cached claim of the fast schedule,
    re-executes every declared-idle window naively and asserts the
    quiescence claims held -- on real SoC workloads, traced and
    trace-free."""
    seed = SEED_BASE + 200_000 + index
    case = Case(random.Random(seed))
    naive, _ = _run_case(case, idle_skip=False)
    strict, _ = _run_case(case, idle_skip=True, strict=True)
    assert strict == naive, f"strict-mode divergence at seed {seed}"
    strict_hot, _ = _run_case(case, idle_skip=True, strict=True,
                              traced=False)
    assert strict_hot == dict(naive, trace=None), (
        f"trace-free strict divergence at seed {seed}"
    )


def test_strict_mode_audits_long_transfer_slabs(monkeypatch):
    """A whole-transform DFT on the AXI4 long-burst system moves its
    data in slabs of many cycles; trace-free strict mode checks every
    one against its naive replay and still ends naive-exact."""
    from repro.bus.protocol import AXI4
    from repro.core.program import OuProgram
    from repro.rac.dft import DFTRac

    data = [(index * 97 + 5) % 1024 for index in range(512)]
    program = OuProgram()
    program.stream_to(1, 512, chunk=128).execs().stream_from(2, 512, chunk=128)
    program.eop()

    def run(**kw):
        soc = build(SoC, racs=[DFTRac(n_points=256, fifo_depth=512)],
                    ram_size=1 << 17, protocol=AXI4, **kw)
        soc.write_ram(IN, data)
        soc.write_ram(PROG, program.words())
        ocp = soc.ocp
        ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
        soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
        return (soc.sim.cycle, soc.read_ram(OUT, 512),
                ocp.controller.stats.as_dict(), soc.bus.stats.as_dict())

    slabs = []
    audit_batch = kernel_audit.audit_batch

    def counting(sim, sole, horizon):
        start = sim.cycle
        audit_batch(sim, sole, horizon)
        slabs.append(sim.cycle - start)

    monkeypatch.setattr(kernel_audit, "audit_batch", counting)
    assert run(audit=True) == run(idle_skip=False)
    assert slabs and max(slabs) >= 64


# -- every fault kind on the dispatch scan ----------------------------------

N_FAULTED = 60
#: controller watchdog of the faulted leg: a forever hang traps
WATCHDOG = 300
#: cycle budget of one faulted run (a dropped word can stall a transfer
#: for good, which no watchdog catches)
FAULTED_BUDGET = 6_000


def _exec_program(case):
    """The case's blocks in the blocking Figure 4 pattern: move a block
    in, ``exec``, move it out -- so the controller waits on the RAC's
    ``end_op`` that hang faults suppress."""
    program = OuProgram()
    for block in range(case.n_blocks):
        offset = block * case.block
        program.stream_to(1, case.block, chunk=case.chunk,
                          base_offset=offset)
        program.exec_()
        program.stream_from(2, case.block, chunk=case.chunk,
                            base_offset=offset)
    return program.eop()


def _all_kinds_plan(rng, case, program, cycles):
    """Two to four of the seven fault kinds, each at a site that reads
    it and an index the run reaches: RAM accesses and FIFO pushes within
    the transfers, microcode addresses inside the program, corruption
    cycles and hang windows within the clean run's length."""
    fifo_sites = ("fifo.in0", "fifo.out0")
    draw = {
        FaultKind.BIT_FLIP: lambda: FaultEvent(
            FaultKind.BIT_FLIP, rng.choice(("ram",) + fifo_sites),
            index=rng.randrange(case.total), bit=rng.randrange(32),
            word=rng.randrange(8)),
        FaultKind.DROP_WORD: lambda: FaultEvent(
            FaultKind.DROP_WORD, rng.choice(fifo_sites),
            index=rng.randrange(case.total)),
        FaultKind.DUP_WORD: lambda: FaultEvent(
            FaultKind.DUP_WORD, rng.choice(fifo_sites),
            index=rng.randrange(case.total)),
        FaultKind.SLAVE_ERROR: lambda: FaultEvent(
            FaultKind.SLAVE_ERROR, "ram", index=rng.randrange(16)),
        FaultKind.STALL: lambda: FaultEvent(
            FaultKind.STALL, "ram", index=rng.randrange(8),
            duration=rng.randint(1, 25)),
        FaultKind.CORRUPT_MICROCODE: lambda: FaultEvent(
            FaultKind.CORRUPT_MICROCODE, "mc", index=rng.randrange(cycles),
            bit=rng.randrange(32), word=PROG + 4 * rng.randrange(len(program))),
        FaultKind.HANG_EXEC: lambda: FaultEvent(
            FaultKind.HANG_EXEC, "rac", index=rng.randrange(cycles),
            duration=rng.choice((0, rng.randint(1, cycles)))),
    }
    kinds = rng.sample(list(FaultKind), rng.randint(2, 4))
    return FaultPlan(events=[draw[kind]() for kind in kinds])


def _run_faulted(case, program, plan, prefetch, idle_skip, strict=False,
                 traced=True):
    """One case under ``plan`` with every seam interposed (FIFO fabric
    included); capture every observable, the way the run ended too."""
    trace = Trace() if traced else None
    soc = build(SoC, trace=trace, idle_skip=idle_skip, prefetch=prefetch,
                audit=strict)
    rac = case.rac()
    # the blocking form starts each op with exec, not on data arrival
    rac.autostart = program is case.program
    fifo_factory = faulty_fifo_factory(plan) if plan is not None else None
    ocp = soc.add_ocp(rac, watchdog_cycles=WATCHDOG,
                      fifo_factory=fifo_factory)
    if plan is not None:
        inject_faults(soc, plan)
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    try:
        soc.sim.run_until(lambda: ocp.done or ocp.registers.error,
                          max_cycles=FAULTED_BUDGET)
        outcome = ocp.registers.error_name if ocp.registers.error else "done"
    except DeadlockError:
        outcome = "deadlock"
    except SimulationError:
        raise  # a strict-mode audit finding
    except ReproError as exc:
        # a corrupted microcode word the controller rejects outright
        # stops the run mid-cycle: only where and why compare
        return ({"outcome": f"{type(exc).__name__}: {exc}",
                 "cycle": soc.sim.cycle}, soc.sim.profile())
    previous = -1
    while ocp.fifos_out[0].occupancy != previous:
        previous = ocp.fifos_out[0].occupancy
        soc.sim.step(50)
    return {
        "outcome": outcome,
        "memory": soc.read_ram(OUT, case.total),
        "residual": previous,
        "cycle": soc.sim.cycle,
        "trace": trace.dump() if traced else None,
        "ctrl": ocp.registers.ctrl,
        "end_op": rac.end_op,
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
        "rac_stats": rac.stats.as_dict(),
        "fifo_stats": [fifo.stats.as_dict()
                       for fifo in ocp.fifos_in + ocp.fifos_out],
    }, soc.sim.profile()


@pytest.mark.parametrize("index", range(N_FAULTED))
def test_equivalence_every_fault_kind(index):
    """Faulted runs take the dispatch scan: under a plan mixing the
    seven fault kinds across RAM, both FIFOs, the microcode store and
    the RAC handshake, the fast schedule (traced and hot) and strict
    mode (traced and hot, auditing the injectors' claims) all match the
    naive oracle bit for bit, and the hot run still skips cycles."""
    seed = SEED_BASE + 500_000 + index
    rng = random.Random(seed)
    case = Case(rng)
    program = _exec_program(case) if rng.random() < 0.5 else case.program
    prefetch = rng.random() < 0.5
    clean, _ = _run_faulted(case, program, None, prefetch, idle_skip=True,
                            traced=False)
    plan = _all_kinds_plan(rng, case, program, clean["cycle"])

    naive, _ = _run_faulted(case, program, plan, prefetch, idle_skip=False)
    fast, _ = _run_faulted(case, program, plan, prefetch, idle_skip=True)
    hot, hot_prof = _run_faulted(case, program, plan, prefetch,
                                 idle_skip=True, traced=False)
    strict, _ = _run_faulted(case, program, plan, prefetch, idle_skip=True,
                             strict=True)
    strict_hot, _ = _run_faulted(case, program, plan, prefetch,
                                 idle_skip=True, strict=True, traced=False)
    described = plan.describe()
    assert fast == naive, f"fast diverged at seed {seed}\n{described}"
    untraced = dict(naive, trace=None)
    assert hot == untraced, f"hot diverged at seed {seed}\n{described}"
    assert strict == naive, f"strict diverged at seed {seed}\n{described}"
    assert strict_hot == untraced, (
        f"strict hot diverged at seed {seed}\n{described}"
    )
    assert hot_prof.skipped > 0


def _run_hang(idle_skip, start, duration):
    """A blocking exec under one hang window on plain FIFOs, where the
    RAC's emit runs on the batch lane in hot runs."""
    from repro.rac.scale import PassthroughRac

    soc = SoC(racs=[PassthroughRac(block_size=16, autostart=False)],
              idle_skip=idle_skip)
    inject_faults(soc, FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=start,
                   duration=duration),
    ]))
    program = OuProgram().stream_to(1, 16).exec_().stream_from(2, 16).eop()
    soc.write_ram(IN, list(range(16)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=5_000)
    return (soc.sim.cycle, soc.read_ram(OUT, 16),
            ocp.controller.stats.as_dict())


def test_hang_fault_eats_a_completion_raised_by_a_batch_slab():
    """A hang window open when the RAC's emit slab raises ``end_op`` on
    its last tick: the injector still eats it on that cycle, so the
    controller, ticking first on the next cycle, never sees it -- hot
    runs match naive whichever cycle the window opens."""
    unhung, _, _ = _run_hang(False, 0, 1)  # closes before any exec
    delayed = 0
    for start in range(0, 90, 6):
        naive = _run_hang(False, start, 60)
        assert _run_hang(True, start, 60) == naive, f"window at {start}"
        delayed += naive[0] > unhung
    assert delayed  # some windows really held a completion back



def _run_dup_out(idle_skip, index, depth):
    """A loopback block whose output FIFO duplicates its ``index``-th
    push: the fault lands mid-emit, where a plain FIFO would let the
    hot batch lane move the whole emit in one slab."""
    from repro.rac.scale import PassthroughRac

    plan = FaultPlan(events=[
        FaultEvent(FaultKind.DUP_WORD, "fifo.out0", index=index),
    ])
    soc = SoC(idle_skip=idle_skip)
    rac = PassthroughRac(block_size=16, fifo_depth=depth)
    ocp = soc.add_ocp(rac, fifo_factory=faulty_fifo_factory(plan))
    program = OuProgram().stream_to(1, 16).execs().stream_from(2, 16).eop()
    soc.write_ram(IN, list(range(100, 116)))
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=5_000)
    return {
        "cycle": soc.sim.cycle,
        "memory": soc.read_ram(OUT, 16),
        "residual": ocp.fifos_out[0].drain(),
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
        "rac_stats": rac.stats.as_dict(),
        "fifo_stats": [fifo.stats.as_dict()
                       for fifo in ocp.fifos_in + ocp.fifos_out],
    }, soc.sim.profile()


@pytest.mark.parametrize("depth", [4, 64])
@pytest.mark.parametrize("index", [1, 9])
def test_dup_word_mid_emit_matches_naive(index, depth):
    """A ``DUP_WORD`` on ``fifo.out0`` in the middle of the RAC's emit:
    a FIFO that interposes on its pushes keeps the emit off the batch
    lane, so hot runs match naive in outputs, statistics and cycles."""
    naive, _ = _run_dup_out(False, index, depth)
    hot, hot_prof = _run_dup_out(True, index, depth)
    assert naive["fifo_stats"][1]["faults.duplicated"] == 1
    assert naive["memory"][index:index + 2] == [100 + index] * 2
    assert hot == naive
    assert hot_prof.batched > 0  # the collect side still batches

# -- trace-free hot mode (tentpole: spans compile down to counters) ---------

def test_hot_mode_counters_match_trace_derived_values():
    """A trace-free hot run must leave every architectural observable
    and every live counter bit-identical to a traced run -- and its
    perf registers must equal the counters *re-derived from the traced
    run's span forest*, closing the loop between the two accounting
    paths."""
    from repro.obs import derive_counters

    case = Case(random.Random(SEED_BASE + 300_000))
    trace = Trace()
    ref_soc, ref_residual = _execute(case, trace=trace)
    hot_soc, hot_residual = _execute(case, trace=None)
    assert hot_soc.sim.hot  # genuinely ran trace-free on the batch lane

    assert hot_residual == ref_residual
    assert (hot_soc.read_ram(OUT, case.total)
            == ref_soc.read_ram(OUT, case.total))
    assert hot_soc.sim.cycle == ref_soc.sim.cycle
    assert (hot_soc.ocp.controller.stats.as_dict()
            == ref_soc.ocp.controller.stats.as_dict())
    assert hot_soc.bus.stats.as_dict() == ref_soc.bus.stats.as_dict()

    derived = derive_counters(trace, ref_soc.ocp,
                              end_cycle=ref_soc.sim.cycle)
    assert hot_soc.ocp.controller.perf.snapshot() == derived


def test_hot_mode_span_reconstruction_refuses_loudly():
    """Hot runs record no events; asking for spans afterwards must be
    a loud, actionable error rather than an empty forest."""
    from repro.obs import reconstruct_spans

    case = Case(random.Random(SEED_BASE + 310_000))
    soc, _ = _execute(case, trace=None)
    assert soc.sim.hot
    with pytest.raises(SimulationError, match="hot mode"):
        reconstruct_spans(soc.sim.trace)


# -- overlapping DMA bursts + controller prefetch (satellite b) -------------

def _run_dma_overlap(idle_skip, seed):
    """OCP run with a DMA copy bursting across the same bus.

    The DMA engine contends with the controller's whole-ibuf PREFETCH
    burst and with every mvtc/mvfc transfer, so each component's
    ``next_activity`` claim is exercised against wake-ups caused by a
    *third party's* bus traffic -- the exact overlap the idle-skip
    audit worried about.
    """
    from repro.mem.dma import (
        CTRL_START as DMA_START,
        REG_COUNT as DMA_COUNT,
        REG_CTRL as DMA_CTRL,
        REG_DST as DMA_DST,
        REG_SRC as DMA_SRC,
    )

    rng = random.Random(seed)
    case = Case(rng)
    dma_src = OUT + 0x4000
    dma_dst = OUT + 0x8000
    dma_words = 64 + rng.randrange(64)
    payload = [rng.getrandbits(32) for _ in range(dma_words)]

    trace = Trace()
    soc = SoC(racs=[case.rac()], trace=trace, idle_skip=idle_skip,
              with_dma=True)
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    soc.write_ram(dma_src, payload)
    ocp = soc.ocp
    # kick both masters in the same cycle: the DMA's first read burst
    # races the controller's microcode prefetch for the bus
    soc.dma.write_word(DMA_SRC, dma_src)
    soc.dma.write_word(DMA_DST, dma_dst)
    soc.dma.write_word(DMA_COUNT, dma_words)
    soc.dma.write_word(DMA_CTRL, DMA_START)
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(case.program))
    soc.sim.run_until(lambda: ocp.done and soc.dma.done, max_cycles=500_000)
    previous = -1
    while ocp.fifos_out[0].occupancy != previous:
        previous = ocp.fifos_out[0].occupancy
        soc.sim.step(50)
    assert soc.read_ram(dma_dst, dma_words) == payload
    return {
        "memory": soc.read_ram(OUT, case.total),
        "residual": previous,
        "cycle": soc.sim.cycle,
        "trace": trace.dump(),
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
    }, soc.sim.profile()


@pytest.mark.parametrize("index", range(6))
def test_equivalence_dma_bursts_overlap_prefetch_and_xfers(index):
    """Naive vs fast schedule with a DMA engine hammering the bus
    during controller PREFETCH and data transfers: the fast schedule
    may not skip past a wake-up caused by the other master's
    bursts."""
    seed = SEED_BASE + 400_000 + index
    naive, naive_prof = _run_dma_overlap(idle_skip=False, seed=seed)
    fast, _ = _run_dma_overlap(idle_skip=True, seed=seed)
    assert naive_prof.skipped == 0
    assert fast == naive, f"fast schedule diverged under DMA overlap ({seed})"
    # the contention must be real: both masters issued bus requests
    assert naive["bus_stats"].get("requests.dma", 0) > 0
    assert any(key.startswith("requests.ocp") for key in
               naive["bus_stats"])


# -- multi-OCP scheduler contention (satellite: scale-out equivalence) ------

def _run_sched_case(idle_skip, strict=False, n_ocps=4, seed=424242):
    """A contended multi-OCP scheduler stream; capture all observables.

    Four-plus coprocessors behind one arbiter, driven by the throughput
    scheduler, is the densest wake/skip interleaving the kernel sees:
    per-slot FSMs sleep on bus transfers and IRQ lines while neighbours
    stay busy, so declared-idle windows open and close constantly.
    """
    from repro.obs import attribute_run, attribute_schedule
    from repro.rac.scale import PassthroughRac, ScaleRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    trace = Trace()
    racs = []
    for index in range(n_ocps):
        if index % 2 == 0:
            racs.append(PassthroughRac(name=f"pt{index}", block_size=8,
                                       compute_latency=30))
        else:
            racs.append(ScaleRac(name=f"sc{index}", block_size=4))
    soc = build(build_mpsoc, racs, trace=trace, idle_skip=idle_skip,
                audit=strict)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=3)

    rng = random.Random(seed)
    jobs = []
    for index in range(20):
        kind = rng.choice(["passthrough", "scale"])
        block = 8 if kind == "passthrough" else 4
        size = block * rng.randrange(1, 4)
        jobs.append(Job(
            f"mj{index}", kind, [rng.getrandbits(32) for _ in range(size)]
        ))
    results = sched.run_stream(jobs)

    schedule = attribute_schedule(sched)
    assert schedule.consistent
    # each OCP ran several batches: attribute its last one, dispatch to
    # completion
    last_batch = {r.ocp_index: r.complete_cycle - r.dispatch_cycle
                  for r in sorted(results, key=lambda r: r.complete_cycle)}
    return {
        "outputs": {r.job.job_id: r.outputs for r in results},
        "cycle": soc.sim.cycle,
        "trace": trace.dump(),
        "completion_order": list(sched.completion_order),
        "busy": [slot.busy_cycles for slot in sched.slots],
        "bus_stats": soc.bus.stats.as_dict(),
        "per_ocp_attribution": [
            attribute_run(soc, ocp_index=index,
                          total_cycles=last_batch[index]).as_dict()
            for index in range(n_ocps)
        ],
        "schedule": schedule.as_dict(),
    }, soc.sim.profile()


def test_equivalence_multi_ocp_scheduler_contention():
    """Naive vs fast schedule on a contended 4-OCP scheduler stream: every
    observable -- outputs, cycle counts, traces, completion order,
    per-OCP attribution and the schedule report -- is bit-identical."""
    naive, naive_prof = _run_sched_case(idle_skip=False)
    fast, fast_prof = _run_sched_case(idle_skip=True)
    assert fast == naive
    assert naive_prof.skipped == 0
    assert fast_prof.skipped > 0  # the fast path must actually engage
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles


def test_equivalence_multi_ocp_strict_audits_scheduler_idle_claims():
    """Strict mode audits the scheduler's (and its six-OCP
    neighbourhood's) cached claims, naively re-executes every window
    they declared idle, and must find no lies."""
    naive, _ = _run_sched_case(idle_skip=False, n_ocps=6, seed=515151)
    strict, _ = _run_sched_case(idle_skip=True, strict=True, n_ocps=6,
                                seed=515151)
    assert strict == naive


# -- batch lanes across OCPs -------------------------------------------------

#: OCP count and RAC kind of each lane-equivalence configuration
LANE_CONFIGS = {
    "pt2": (2, "passthrough"),
    "pt4": (4, "passthrough"),
    "pt8": (8, "passthrough"),
    "idct2": (2, "idct"),
}
N_LANE_SEEDS = 20


def _run_lane_stream(config, seed, **soc_kw):
    """A seeded scheduler stream over several identical OCPs, whose RACs
    stream on the same cycles (the batch lanes); returns the outputs,
    the final cycle and every component's statistics."""
    from repro.rac.idct import IDCTRac
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.sim.tracing import Stats
    from repro.system import build_mpsoc
    from repro.utils import fixedpoint as fp

    n_ocps, kind = LANE_CONFIGS[config]
    rng = random.Random(seed)
    if kind == "passthrough":
        block = rng.choice((8, 16))
        blocks_per_fifo = rng.choice((1, 2))
        racs = [
            PassthroughRac(name=f"pt{index}", block_size=block,
                           fifo_depth=blocks_per_fifo * block,
                           compute_latency=rng.randrange(1, 120))
            for index in range(n_ocps)
        ]

        def payload():
            # a job's output must fit the OCP's output FIFO
            size = block * rng.randint(1, blocks_per_fifo)
            return [rng.getrandbits(32) for _ in range(size)]
    else:
        racs = [IDCTRac(name=f"idct{index}") for index in range(n_ocps)]

        def payload():
            return fp.block_to_words(
                [[rng.randint(-400, 400) for _ in range(8)]
                 for _ in range(8)])
    soc = build(build_mpsoc, racs, **soc_kw)
    sched = ThroughputScheduler(soc, batch_jobs=rng.choice((1, 2, 4)),
                                queue_bound=rng.choice((2, 8)))
    jobs = [Job(f"lj{index}", racs[0].kind, payload())
            for index in range(2 * n_ocps + rng.randrange(4))]
    results = sched.run_stream(jobs)
    return {
        "outputs": {r.job.job_id: r.outputs for r in results},
        "cycle": soc.sim.cycle,
        "stats": {comp.name: comp.stats.as_dict()
                  for comp in soc.sim.components
                  if isinstance(getattr(comp, "stats", None), Stats)},
    }, soc.sim.profile()


@pytest.mark.parametrize("index", range(N_LANE_SEEDS))
@pytest.mark.parametrize("config", sorted(LANE_CONFIGS))
def test_equivalence_batch_lanes_across_ocps(config, index):
    """Naive, fast and strict schedules agree on multi-OCP streams where
    several RACs collect or emit on the same cycles: outputs, cycles
    and every component's statistics.  Strict mode audits each
    multi-lane span against its naive replay."""
    seed = SEED_BASE + 300_000 + 1000 * LANE_CONFIGS[config][0] + index
    naive, naive_prof = _run_lane_stream(config, seed, idle_skip=False)
    fast, fast_prof = _run_lane_stream(config, seed)
    strict, _ = _run_lane_stream(config, seed, audit=True)
    assert fast == naive, f"fast schedule diverged at seed {seed}"
    assert strict == naive, f"strict schedule diverged at seed {seed}"
    assert naive_prof.batched == 0
    assert 0 < fast_prof.batched <= fast_prof.ticked
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles


def test_lanes_batch_the_8_ocp_sweep_point():
    """The bench's 8-OCP, 192-job point: with independent RACs laned
    together the batch lane covers more cycles than the 2999 of the
    sole-component lane, at the same simulated cycles."""
    from repro.bench import run_mpsoc_sweep

    point, = run_mpsoc_sweep(ocp_counts=(8,)).points
    assert point.cycles == 13_184
    assert point.batched > 2999


def test_profiler_surfaces_kernel_and_truncation_counters():
    """The kernel profile carries the skip accounting of a run whose
    trace overflowed, and span reconstruction refuses that trace
    rather than analyse an incomplete log."""
    from repro.core.program import OuProgram
    from repro.obs import reconstruct_spans
    from repro.rac.scale import PassthroughRac
    from repro.sim.errors import SimulationError
    from repro.sw.driver import OuessantDriver

    trace = Trace(capacity=5)  # deliberately far too small
    soc = SoC(racs=[PassthroughRac(block_size=4)], trace=trace)
    program = (OuProgram().stream_to(1, 4).execs()
               .stream_from(2, 4).eop())
    soc.write_ram(IN, [1, 2, 3, 4])
    driver = OuessantDriver(soc)
    driver.run(program.words(), banks={0: PROG, 1: IN, 2: OUT})
    assert trace.truncated and trace.dropped > 0
    kernel = soc.sim.profile()
    assert kernel.skipped > 0 and kernel.skip_windows > 0
    assert kernel.ticked + kernel.skipped == kernel.cycles == soc.sim.cycle
    assert "skipped" in kernel.render()
    with pytest.raises(SimulationError, match="truncated"):
        reconstruct_spans(trace)


# -- claims carried across public calls --------------------------------------
#
# A cached claim outlives the step/run_until call that computed it, so
# every mutator called between calls must poke what it changes.  Each
# scenario below runs under the fast and the strict schedule and must
# reproduce the naive oracle's observables; strict mode audits every
# carried claim, so a missing poke fails it by name.


@pytest.fixture(params=[{}, {"audit": True}], ids=["fast", "strict"])
def schedule(request):
    """Simulator keywords of the schedule under test."""
    return request.param


def _agrees_with_naive(scenario, schedule):
    """Run ``scenario`` under ``schedule`` and under the naive oracle;
    the observables must be equal.  Returns them."""
    naive = scenario(idle_skip=False)
    assert scenario(**schedule) == naive
    return naive


def _reload_after_halt(**sim_kw):
    from repro.cpu.assembler import assemble
    from repro.cpu.cpu import CPU
    from repro.mem.memory import Memory

    program = assemble("""
        addi r1, r0, 0
        addi r3, r0, 12
    loop:
        addi r1, r1, 3
        addi r3, r3, -1
        bne  r3, r0, loop
        halt
    """, text_base=0, data_base=0x1000)
    sim = build(Simulator, **sim_kw)
    cpu = sim.add(CPU(memory=Memory("ram", 1 << 14)))
    cpu.load(program)
    sim.run_until(lambda: cpu.halted, max_cycles=1_000)
    first = sim.cycle
    sim.step(10)
    cpu.load(program)
    sim.run_until(lambda: cpu.halted, max_cycles=1_000)
    return first, sim.cycle, cpu.cycles, cpu.instret, cpu.reg(1)


def test_cross_call_cpu_reload_after_halt(schedule):
    """A halted CPU's indefinite-idle claim carries past the step that
    follows; reloading it must poke the claim, or the second
    ``run_until`` deadlocks on a CPU the kernel thinks is asleep."""
    first, last, _, instret, r1 = _agrees_with_naive(
        _reload_after_halt, schedule)
    assert r1 == 36
    assert last - first - 10 == first
    assert instret == 2 * 39


def _second_stream_on_drained_scheduler(**soc_kw):
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    racs = [PassthroughRac(name=f"pt{index}", block_size=8)
            for index in range(2)]
    soc = build(build_mpsoc, racs, **soc_kw)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=4)
    rng = random.Random(SEED_BASE + 700_000)
    outputs = []
    for wave in range(2):
        jobs = [Job(f"w{wave}j{index}", "passthrough",
                    [rng.getrandbits(32) for _ in range(8)])
                for index in range(6)]
        outputs.append([r.outputs for r in sched.run_stream(jobs)])
        soc.sim.step(50)
    return (outputs, soc.sim.cycle, list(sched.completion_order),
            [slot.busy_cycles for slot in sched.slots],
            soc.bus.stats.as_dict())


def test_cross_call_second_stream_on_a_drained_scheduler(schedule):
    """A drained scheduler sleeps indefinitely; ``submit`` from outside
    the clock must poke it, or the second stream never dispatches."""
    outputs, *_ = _agrees_with_naive(
        _second_stream_on_drained_scheduler, schedule)
    assert len(outputs) == 2 and all(len(wave) == 6 for wave in outputs)


def _loopback_observables(soc):
    ocp = soc.ocp
    return {
        "memory": soc.read_ram(OUT, 16),
        "cycle": soc.sim.cycle,
        "controller": ocp.controller.stats.as_dict(),
        "rac": ocp.rac.stats.as_dict(),
        "fifos": [f.stats.as_dict() for f in ocp.fifos_in + ocp.fifos_out],
        "bus": soc.bus.stats.as_dict(),
    }


def _loopback_program():
    return OuProgram().stream_to(1, 16).execs().stream_from(2, 16).eop()


class Metronome(Component):
    """Wakes every ``period`` cycles from cycle ``period`` on and counts
    every cycle it sat through, ticked or skipped, from the stamp its
    reset takes."""

    def __init__(self, period=100):
        super().__init__("metronome")
        self.period = period
        self.reset()

    def reset(self):
        self.wakes = []
        self._due = self.period
        self._since = self.now

    @property
    def seen(self):
        return self.now - self._since

    def next_activity(self):
        return max(self._due, self.now)

    def tick(self):
        if self.now >= self._due:
            self.wakes.append(self.now)
            self._due = self.now + self.period


def _rerun_after_reset(**soc_kw):
    from repro.rac.scale import PassthroughRac
    from repro.sw.driver import OuessantDriver

    soc = build(SoC, racs=[PassthroughRac(block_size=16)], **soc_kw)
    metronome = soc.sim.add(Metronome())
    driver = OuessantDriver(soc)
    runs = []
    for offset in (0, 100):
        soc.write_ram(IN, [offset + v for v in range(16)])
        result = driver.run(_loopback_program().words(),
                            banks={0: PROG, 1: IN, 2: OUT})
        runs.append((result.total_cycles, _loopback_observables(soc),
                     list(metronome.wakes), metronome.seen))
        soc.sim.reset()
    return runs


def test_cross_call_rerun_after_sim_reset(schedule):
    """``Simulator.reset`` drops every claim (the metronome's next wake
    moves back to cycle 100) and resets every component on the rewound
    clock, so accounting stamped at the reset restarts at cycle 0 and
    the rerun's statistics are naive-exact."""
    runs = _agrees_with_naive(_rerun_after_reset, schedule)
    (first, _, wakes, seen), (second, observed, _, _) = runs
    assert first == second
    assert observed["memory"] == [100 + v for v in range(16)]
    assert wakes and wakes[0] == 100 and seen == observed["cycle"]


def _retry_after_abort(**soc_kw):
    from repro.rac.scale import PassthroughRac
    from repro.sw.driver import OuessantDriver

    soc = build(SoC, racs=[PassthroughRac(block_size=16)], **soc_kw)
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(16)))
    # half a block: the RAC sits starved mid-collect, words in flight
    stuck = OuProgram().stream_to(1, 8).wait(5_000).eop().words()
    driver.place_program(stuck, PROG)
    driver.configure({0: PROG, 1: IN}, len(stuck))
    driver.start()
    soc.sim.step(200)
    driver.abort()
    result = driver.run(_loopback_program().words(),
                        banks={0: PROG, 1: IN, 2: OUT})
    return result.total_cycles, _loopback_observables(soc)


def test_cross_call_retry_after_driver_abort(schedule):
    """``abort`` soft-resets the FIFOs and the RAC outside the clock;
    the retry after it runs the same schedule under every kernel."""
    _, observed = _agrees_with_naive(_retry_after_abort, schedule)
    assert observed["memory"] == list(range(16))


def _library_calls_around_a_reconfigure(**soc_kw):
    from repro.core.dpr import DPRManager, PartialBitstream
    from repro.rac.dft import DFTRac
    from repro.sw.library import OuessantLibrary
    from repro.utils import fixedpoint as fp

    rng = random.Random(SEED_BASE + 710_000)

    def signal(n):
        return ([fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)],
                [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)])

    soc = build(SoC, racs=[DFTRac(n_points=16)], **soc_kw)
    library = OuessantLibrary(soc, environment="baremetal")
    outputs = [library.dft(*signal(16))]
    DPRManager(soc.sim, soc.ocp).reconfigure(
        PartialBitstream(DFTRac(n_points=32), size_words=64))
    outputs.append(library.dft(*signal(32)))
    return outputs, soc.sim.cycle, soc.bus.stats.as_dict()


def test_cross_call_dpr_reconfigure_between_library_calls(schedule):
    """A DPR swap removes and adds components between two library
    calls; the registration changes drop every carried claim."""
    outputs, _, _ = _agrees_with_naive(
        _library_calls_around_a_reconfigure, schedule)
    assert [len(re) for re, _ in outputs] == [16, 32]


def _probe_added_and_removed_between_steps(**soc_kw):
    from repro.sim import VCDWriter, WaveformProbe
    from repro.sim.waveform import ocp_probe

    case = Case(random.Random(SEED_BASE + 720_000))
    soc = build(SoC, racs=[case.rac()], trace=Trace(), **soc_kw)
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(case.program))
    soc.sim.step(30)
    vcd = VCDWriter()
    probe = soc.sim.add(ocp_probe("probe", vcd, ocp))
    soc.sim.step(40)
    soc.sim.remove(probe)
    soc.sim.step(30)
    soc.sim.run_until(lambda: ocp.done, max_cycles=50_000)
    soc.sim.step(50)
    return {
        "vcd": vcd.render(),
        "memory": soc.read_ram(OUT, case.total),
        "cycle": soc.sim.cycle,
        "trace": soc.sim.trace.dump(),
        "controller": ocp.controller.stats.as_dict(),
        "bus": soc.bus.stats.as_dict(),
    }


def test_cross_call_waveform_probe_added_then_removed(schedule):
    """Claims cached before the probe joins, and those carried past its
    removal, reproduce the naive run; strict mode audits them."""
    observed = _agrees_with_naive(
        _probe_added_and_removed_between_steps, schedule)
    assert observed["vcd"]


def _raw_submits_to_register_slaves(**sim_kw):
    from repro.baselines.dma_slave import (
        SLAVE_WINDOW_BYTES,
        BurstSlaveAccelerator,
        DMAHarness,
    )
    from repro.baselines.pio_slave import PIOHarness, SlaveAccelerator
    from repro.bus.bus import SystemBus
    from repro.mem.dma import DMAEngine
    from repro.mem.memory import Memory

    sim = build(Simulator, **sim_kw)
    bus = sim.add(SystemBus())
    mem = Memory("ram", 1 << 16, access_latency=1)
    bus.attach_slave("ram", 0x0, 1 << 16, mem)
    pio = sim.add(SlaveAccelerator(
        "pio", compute_fn=lambda ws: [w ^ 0xFF for w in ws],
        items_in=8, items_out=8, compute_latency=10))
    bus.attach_slave("pio", 0x9000_0000, 64, pio)
    burst = sim.add(BurstSlaveAccelerator(
        "burst", compute_fn=lambda ws: [(w + 1) & 0xFFFFFFFF for w in ws],
        items_in=16, items_out=16, compute_latency=20))
    bus.attach_slave("burst", 0x9200_0000, SLAVE_WINDOW_BYTES, burst)
    dma = sim.add(DMAEngine("dma", bus=bus, buffer_words=8))
    bus.attach_slave("dma", 0x9100_0000, 64, dma)
    pio_runs = [PIOHarness(sim, bus, 0x9000_0000).run(
        list(range(base, base + 8)), 8) for base in (0, 50)]
    mem.load_words(0x100, list(range(16)))
    dma_cycles = DMAHarness(sim, bus, dma, 0x9100_0000, 0x9200_0000).run(
        0x100, 0x800, 16, 16)
    return (pio_runs, dma_cycles, mem.dump_words(0x800, 16), sim.cycle,
            bus.stats.as_dict(), pio.stats.as_dict(), burst.stats.as_dict())


def test_cross_call_raw_bus_submits_to_pio_and_dma_slaves(schedule):
    """Harness register accesses are raw submits with no waiter: the
    completion pokes the clocked slave they target, which is all that
    can change."""
    pio_runs, _, moved, *_ = _agrees_with_naive(
        _raw_submits_to_register_slaves, schedule)
    assert pio_runs[1][0] == [v ^ 0xFF for v in range(50, 58)]
    assert moved == [v + 1 for v in range(16)]


def _doorbell_rung_over_the_bus(**sim_kw):
    from repro.bus.bus import SystemBus
    from repro.bus.types import AccessKind, BusSlave

    class Doorbell(Alarm, BusSlave):
        """A register window whose write arms the alarm, unpoked: only
        the bus completion re-polls it."""

        def read_word(self, offset):
            return 0

        def write_word(self, offset, value):
            self.armed_at = self.now + value

    sim = build(Simulator, **sim_kw)
    bus = sim.add(SystemBus())
    bell = sim.add(Doorbell())
    bus.attach_slave("bell", 0x100, 4, bell)
    for delay in (3, 7):
        transfer = bus.submit("test", AccessKind.WRITE, 0x100, data=[delay])
        sim.run_until(lambda: transfer.done, max_cycles=100)
        sim.step(20)
    return bell.rang, sim.cycle


def test_cross_call_completion_pokes_a_clocked_slave(schedule):
    """A completed transfer re-polls the clocked slave it targeted, so a
    register write that moves the slave's wake lands on time."""
    rang, _ = _agrees_with_naive(_doorbell_rung_over_the_bus, schedule)
    assert len(rang) == 2


def test_cross_call_unpoked_mutation_is_caught_by_strict_mode():
    """A toy component mutated between calls without a poke: strict
    mode audits the claim it carried out of the previous call."""
    sim = AuditedSimulator()
    alarm = sim.add(Alarm())
    sim.step(5)
    alarm.armed_at = sim.cycle + 3  # no poke
    with pytest.raises(SimulationError, match="without being poked"):
        sim.step(10)


# -- cluster claims ----------------------------------------------------------
#
# With two or more groups of components registered by ``add_all`` (one
# per OCP), the fast schedule walks each group as a cluster whose cached
# claim is its members' earliest wake.  Whatever drops a member's claim
# must drop the cluster's, and a cluster needs no contiguity with the
# OCP it came from.

class Arming(Component):
    """Arms ``alarm`` at cycle 5 and pokes it -- or, ``hand_rolled``,
    drops only the alarm's own cached claim, as a poke that forgot the
    cluster would."""

    def __init__(self, alarm, hand_rolled=False):
        super().__init__("arming")
        self.alarm = alarm
        self.hand_rolled = hand_rolled
        self.fired = False

    def next_activity(self):
        return None if self.fired else 5

    def tick(self):
        if not self.fired and self.sim.cycle >= 5:
            self.alarm.armed_at = self.sim.cycle + 3
            self.fired = True
            if self.hand_rolled:
                self.alarm._wake_valid = False
            else:
                self.alarm.poke()


def _armed_clusters(hand_rolled=False, **sim_kw):
    """The alarm's cluster is registered before the arming one's, so
    the poke lands backwards, on a cluster the walk skipped."""
    sim = build(Simulator, **sim_kw)
    alarm = Alarm()
    sim.add_all([alarm, Sleeper("idle0", limit=0)])
    sim.add_all([Arming(alarm, hand_rolled), Sleeper("idle1", limit=0)])
    assert sim._clusters is not None
    sim.step(20)
    return alarm.rang


@pytest.mark.parametrize("sim_kw", [{"idle_skip": False}, {},
                                    {"audit": True}],
                         ids=["naive", "fast", "strict"])
def test_cluster_claim_drops_with_a_member_poke(sim_kw):
    assert _armed_clusters(**sim_kw) == [8]


def test_cluster_strict_mode_names_a_stale_cluster_claim():
    with pytest.raises(SimulationError, match="stale cluster claim"):
        _armed_clusters(hand_rolled=True, audit=True)


class Flag(Component):
    """A watched component that is never registered: raising it only
    wakes its watchers."""

    def __init__(self):
        super().__init__("flag")
        self.up = False

    def raise_(self):
        self.up = True
        self.wake_watchers()


class FlagWaiter(Component):
    """Records the first cycle it sees ``flag`` up; sleeps until then."""

    def __init__(self, flag):
        super().__init__("waiter")
        self.flag = flag
        self.seen = []

    def next_activity(self):
        return self.sim.cycle if self.flag.up and not self.seen else None

    def tick(self):
        if self.flag.up and not self.seen:
            self.seen.append(self.sim.cycle)


class FlagRaiser(Component):
    def __init__(self, flag, at):
        super().__init__("raiser")
        self.flag = flag
        self.at = at

    def next_activity(self):
        return None if self.flag.up else self.at

    def tick(self):
        if not self.flag.up and self.sim.cycle >= self.at:
            self.flag.raise_()


@pytest.mark.parametrize("sim_kw", [{"idle_skip": False}, {},
                                    {"audit": True}],
                         ids=["naive", "fast", "strict"])
@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
def test_cluster_claim_drops_with_an_unregistered_watched_component(
        sim_kw, late):
    """``wake_watchers`` on a component that is not registered drops its
    watcher's cluster claim too, whether the watch was made before the
    watcher registered or after.  The raise lands backwards, on a
    cluster the walk would otherwise skip for good."""
    flag = Flag()
    waiter = FlagWaiter(flag)
    if not late:
        flag.watch(waiter)
    sim = build(Simulator, **sim_kw)
    sim.add_all([waiter, Sleeper("idle0", limit=0)])
    sim.add_all([FlagRaiser(flag, at=5), Sleeper("idle1", limit=0)])
    assert sim._clusters is not None
    if late:
        flag.watch(waiter)
    sim.step(20)
    assert waiter.seen == [6]


class Latch(Component):
    """Stages the cycle it ticks at (from ``at`` on) and publishes it in
    ``commit``."""

    def __init__(self, name, at):
        super().__init__(name)
        self.at = at
        self.staged = None
        self.published = []

    def next_activity(self):
        return None if self.published else max(self.at, self.sim.cycle)

    def tick(self):
        if (not self.published and self.staged is None
                and self.sim.cycle >= self.at):
            self.staged = self.sim.cycle

    def commit(self):
        if self.staged is not None:
            self.published.append(self.staged)
            self.staged = None


@pytest.mark.parametrize("sim_kw", [{"idle_skip": False}, {},
                                    {"audit": True}],
                         ids=["naive", "fast", "strict"])
def test_cluster_commit_sweep_sees_a_member_that_ticked(sim_kw):
    """At cycle 5 the alarm ends the scan before it reaches the latch's
    cluster, whose claim (cached at cycle 0) has come due: the latch's
    tick must drop that claim, or the commit sweep skips its commit."""
    sim = build(Simulator, **sim_kw)
    alarm = sim.add(Alarm())
    alarm.armed_at = 5
    latch = Latch("latch", 5)
    sim.add_all([latch, Sleeper("idle0", limit=0)])
    sim.add_all([Sleeper("idle1", limit=0), Sleeper("idle2", limit=0)])
    sim.step(20)
    assert (alarm.rang, latch.published) == ([5], [5])


def _host_pushes_into_a_sleeping_cluster(**soc_kw):
    """Words pushed into OCP 1's input FIFO from outside the clock,
    between ``step`` calls, while every cluster sleeps.  The FIFO's
    claim is inlined (never cached), so the push must drop the claim of
    its cluster, or the walk never commits the words and the
    autostarting RAC never collects them."""
    from repro.rac.scale import PassthroughRac
    from repro.system import build_mpsoc

    trace = Trace()
    soc = build(build_mpsoc, [PassthroughRac(name=f"pt{index}", block_size=4,
                                             compute_latency=3)
                              for index in range(2)], trace=trace, **soc_kw)
    assert soc.sim._clusters is not None
    soc.sim.step(10)
    ocp = soc.ocps[1]
    for word in range(1, 5):
        ocp.fifos_in[0].push(word)
        soc.sim.step(3)
    soc.sim.step(20)
    return (soc.sim.cycle, ocp.fifos_out[0].drain(), trace.dump(),
            ocp.rac.stats.as_dict())


def test_cluster_host_push_wakes_a_sleeping_cluster(schedule):
    _, words, *_ = _agrees_with_naive(
        _host_pushes_into_a_sleeping_cluster, schedule)
    assert words == [1, 2, 3, 4]


def test_cluster_walk_needs_two_groups():
    """One OCP is due on most events, so a single group keeps the flat
    walk; a second group switches the walk to clusters."""
    from repro.rac.scale import PassthroughRac

    soc = SoC(racs=[PassthroughRac(block_size=8)])
    assert soc.sim._clusters is None
    soc.add_ocp(PassthroughRac(name="second", block_size=8))
    clusters = soc.sim._clusters
    assert [len(cluster.members) for cluster in clusters] == [1, 1, 5, 5]
    assert [comp for cluster in clusters for comp in cluster.members] \
        == soc.sim.components


def _scheduler_streams_around_a_dpr_swap(**soc_kw):
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    trace = Trace()
    racs = [PassthroughRac(name=f"pt{index}", block_size=8,
                           compute_latency=20) for index in range(2)]
    soc = build(build_mpsoc, racs, trace=trace, **soc_kw)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=3)
    rng = random.Random(SEED_BASE + 720_000)
    outputs = []
    for wave in range(2):
        if wave:
            ocp = soc.ocps[0]
            ocp.swap_rac(PassthroughRac(name="pt0b", block_size=8,
                                        compute_latency=45))
            # the new FIFOs and RAC register after the scheduler: OCP
            # 0's cluster keeps only its interface and controller
            assert ocp.rac._cluster is not ocp.interface._cluster
            assert soc.sim.components[-1] is ocp.rac
        jobs = [Job(f"w{wave}j{index}", "passthrough",
                    [rng.getrandbits(32) for _ in range(8)])
                for index in range(10)]
        outputs.append([r.outputs for r in sched.run_stream(jobs)])
    return (outputs, soc.sim.cycle, trace.dump(),
            list(sched.completion_order),
            [slot.busy_cycles for slot in sched.slots],
            soc.bus.stats.as_dict())


def test_cluster_dpr_swap_between_scheduler_streams(schedule):
    """A DPR swap on OCP 0 of a two-OCP scheduler splits its cluster
    (the swapped parts re-register at the end); the second stream runs
    the same under every schedule."""
    outputs, *_ = _agrees_with_naive(
        _scheduler_streams_around_a_dpr_swap, schedule)
    assert [len(wave) for wave in outputs] == [10, 10]


def _walk_components(sim):
    """The components the bound compiled walk holds, in registration
    order (a component whose inlined claim is ``None`` has no block)."""
    cycle = sim._dispatch_cycle
    bound = {name: cell.cell_contents for name, cell in zip(
        cycle.__code__.co_freevars, cycle.__closure__)}
    return [bound[name] for name in sorted(
        (name for name in bound if name[0] == "c"),
        key=lambda name: int(name[1:]))]


def _walked(sim):
    """The registered components the compiled walk must hold: all but
    those whose inlined claim is ``None``."""
    from repro.sim.kernel import _claim

    return [comp for comp in sim.components if _claim(comp) != "None"]


def _stepped_dpr_reconfigure(ocps, **soc_kw):
    """A passthrough job stream over ``ocps`` OCPs, stepped; OCP 0 is
    reconfigured through :class:`DPRManager` between ``step`` calls;
    then a second stream.  The fast walk must rebind to the new RAC
    and FIFOs at the first event after the swap."""
    from repro.core.dpr import DPRManager, PartialBitstream
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    trace = Trace()
    soc = build(build_mpsoc, [PassthroughRac(name=f"pt{index}", block_size=8,
                                             compute_latency=20)
                              for index in range(ocps)], trace=trace, **soc_kw)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=3)
    fast = soc.sim.idle_skip
    assert (soc.sim._clusters is None) == (ocps == 1)
    rng = random.Random(SEED_BASE + 730_000 + ocps)
    outputs = []
    for wave in range(2):
        if wave:
            old = soc.ocps[0].rac
            if fast:
                assert old in _walk_components(soc.sim)
            DPRManager(soc.sim, soc.ocps[0]).reconfigure(PartialBitstream(
                PassthroughRac(name="pt0b", block_size=8,
                               compute_latency=45), size_words=64))
            soc.sim.step(7)
            if fast:
                bound = _walk_components(soc.sim)
                assert bound == _walked(soc.sim)
                assert old not in bound and soc.ocps[0].rac in bound
        jobs = [Job(f"w{wave}j{index}", "passthrough",
                    [rng.getrandbits(32) for _ in range(8)])
                for index in range(6)]
        waiting = list(jobs)
        while waiting or not sched.idle:
            if not (waiting and sched.submit(waiting[0])):
                soc.sim.step(rng.randint(1, 40))
            else:
                waiting.pop(0)
        outputs.append([sched.completed[job.job_id].outputs
                        for job in jobs])
    return (outputs, soc.sim.cycle, trace.dump(),
            list(sched.completion_order), soc.bus.stats.as_dict())


@pytest.mark.parametrize("ocps", [1, 2], ids=["flat", "cluster"])
def test_compiled_walk_rebinds_across_a_dpr_reconfigure(schedule, ocps):
    outputs, *_ = _agrees_with_naive(
        lambda **kw: _stepped_dpr_reconfigure(ocps, **kw), schedule)
    assert [len(wave) for wave in outputs] == [6, 6]


# -- the audits' power: seeded mutants ---------------------------------------
#
# Each test breaks one kernel contract for its duration: the fast
# schedule alone runs through the mutant to a wrong result, and strict
# mode must name the fault.


def _emit_slab_run(**soc_kw):
    """One 64-word passthrough operation on a trace-free single-OCP
    SoC, whose RAC emits the block in slabs on the batch lane."""
    from repro.rac.scale import PassthroughRac

    soc = build(SoC, racs=[PassthroughRac(block_size=64)], **soc_kw)
    ocp = soc.ocp
    program = OuProgram().stream_to(1, 64).execs().stream_from(2, 64).eop()
    soc.write_ram(IN, list(range(64)))
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    return soc.sim.cycle, soc.read_ram(OUT, 64), ocp.rac.stats.as_dict()


def test_mutant_miscounting_emit_slab_is_caught_by_the_slab_audit(
        monkeypatch):
    """A single-stream emit that miscounts ``words_out`` only in a slab
    of several cycles: the naive ticks never run it, the fast schedule
    ends with a wrong count, and the slab audit names the field."""
    from repro.rac.base import StreamingRAC

    emit = StreamingRAC._emit_single

    def miscounting(self, cycles):
        emit(self, cycles)
        if cycles > 1:
            self.stats.counts["words_out"] -= 1

    monkeypatch.setattr(StreamingRAC, "_emit_single", miscounting)
    naive = _emit_slab_run(idle_skip=False)
    assert naive[2]["words_out"] == 64
    assert _emit_slab_run() != naive
    with pytest.raises(SimulationError, match=r"tick_batch slab .* at "
                       r"loopback\.stats\.counts\['words_out'\]"):
        _emit_slab_run(audit=True)


def test_mutant_stage_without_cluster_drop_is_caught_by_the_claim_audit(
        monkeypatch):
    """``FIFO._stage`` that keeps its cluster's claim: the fast walk
    never commits words pushed from outside the clock into a sleeping
    cluster's FIFO, and the claim audit names the stale cluster claim
    at the next call."""
    from repro.rac.fifo import FIFO

    stage = FIFO._stage

    def keeping_the_cluster_claim(self, values):
        cluster = self._cluster
        valid = cluster._wake_valid
        stage(self, values)
        cluster._wake_valid = valid

    monkeypatch.setattr(FIFO, "_stage", keeping_the_cluster_claim)
    naive = _host_pushes_into_a_sleeping_cluster(idle_skip=False)
    assert _host_pushes_into_a_sleeping_cluster() != naive
    with pytest.raises(SimulationError, match="stale cluster claim"):
        _host_pushes_into_a_sleeping_cluster(audit=True)


# -- live reads mid-interval -------------------------------------------------
#
# The equivalence suites compare two schedules of the same code, so they
# cannot see a changed read semantic.  These scenarios stop seeded runs
# at irregular ``step(k)`` boundaries -- mid-transfer, mid-FIFO-stall
# (before and between chunks), mid-``wait``, mid-RAC-compute,
# mid-watchdog, mid-PIO-timer, mid-CPU stall and on ``wfi`` -- and read
# every cycle statistic live, the PERF
# registers over the bus.  The golden was recorded with the deferred
# skip accounting these statistics used to take, and holds under every
# schedule.  Its seeds are fixed, not shifted by ``REPRO_DIFF_SEED``.

LIVE_READ_GOLDEN = Path(__file__).with_name("live_read_golden.json")


def _perf_over_bus(soc, index):
    """OCP ``index``'s six PERF registers, read in one bus burst."""
    from repro.bus.types import AccessKind
    from repro.core.perf import N_PERF_REGISTERS, PERF_BASE

    transfer = soc.bus.submit("test", AccessKind.READ,
                              soc.ocp_base(index) + PERF_BASE,
                              N_PERF_REGISTERS)
    soc.sim.run_until(lambda: transfer.done, max_cycles=1_000)
    return transfer.data


def _live_reads(soc, sched=None, slave=None):
    """Every live cycle statistic of ``soc``, then its PERF registers
    (the bus reads advance the clock, so they come last)."""
    observed = {
        "cycle": soc.sim.cycle,
        "controllers": [ocp.controller.stats.as_dict() for ocp in soc.ocps],
        "bus": soc.bus.stats.as_dict(),
    }
    if soc.cpu is not None:
        observed["cpu"] = [soc.cpu.cycles, soc.cpu.stats.as_dict()]
    if sched is not None:
        observed["slots"] = [slot.busy_cycles for slot in sched.slots]
    if slave is not None:
        observed["slave"] = [slave.read_word(0), slave.stats.as_dict()]
    observed["perf"] = [_perf_over_bus(soc, index)
                        for index in range(len(soc.ocps))]
    return observed


def _stepped(soc, done, seed, longest, **reads):
    """Step ``soc`` by seeded irregular amounts until ``done()``, then
    twice more, reading live after every step."""
    rng = random.Random(seed)
    stops = []
    tail = 2
    while tail:
        if done():
            tail -= 1
        soc.sim.step(rng.randint(1, longest))
        stops.append(_live_reads(soc, **reads))
    return stops


def _live_cpu_driver(**soc_kw):
    """A CPU drives the Figure 4 DFT-64 and sleeps on ``wfi``; two
    ``div`` instructions stall it 35 cycles each."""
    from repro.core.program import figure4_program
    from repro.cpu.assembler import assemble
    from repro.rac.dft import DFTRac
    from repro.system import OCP_BASE
    from repro.utils import fixedpoint as fp

    soc = build(SoC, racs=[DFTRac(n_points=64)], **soc_kw)
    rng = random.Random(820_240)
    soc.write_ram(IN, fp.interleave_complex(
        *[[fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(64)]
          for _ in range(2)]))
    program = figure4_program(64)
    soc.write_ram(PROG, program.words())
    soc.cpu.load(assemble(f"""
        li   r1, {OCP_BASE}
        li   r2, {PROG}
        sw   r2, 8(r1)
        li   r2, {IN}
        div  r6, r2, r1
        sw   r2, 12(r1)
        li   r2, {OUT}
        sw   r2, 16(r1)
        div  r6, r6, r2
        addi r3, r0, {len(program)}
        sw   r3, 4(r1)
        addi r3, r0, {CTRL_S | CTRL_IE}
        sw   r3, 0(r1)
    spin:
        wfi
        lw   r4, 0(r1)
        andi r5, r4, 4
        beq  r5, r0, spin
        sw   r0, 0(r1)
        halt
    """, text_base=PROG + 0x1_0000, data_base=PROG + 0x2_0000))
    return _stepped(soc, lambda: soc.cpu.halted, 1, 40)


def _live_wait_and_watchdog(**soc_kw):
    """Register-booted microcode that sits in ``wait``, then in an
    ``exec`` whose 500-cycle compute outlasts a 300-cycle watchdog."""
    from repro.rac.scale import PassthroughRac

    soc = build(SoC, racs=[], **soc_kw)
    ocp = soc.add_ocp(PassthroughRac(block_size=16, compute_latency=500),
                      watchdog_cycles=300)
    soc.write_ram(IN, list(range(16)))
    program = OuProgram().stream_to(1, 16).wait(90).exec_() \
        .stream_from(2, 16).eop()
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    return _stepped(soc, lambda: ocp.controller.errored, 2, 45)


def _live_two_block_drain(**soc_kw):
    """One ``mvfc`` drains two RAC blocks: the transfer engine stalls
    between chunks while the second block computes."""
    from repro.rac.scale import PassthroughRac

    soc = build(SoC, racs=[PassthroughRac(block_size=32, compute_latency=120)],
                with_cpu=False, **soc_kw)
    ocp = soc.ocp
    soc.write_ram(IN, list(range(64)))
    program = OuProgram().stream_to(1, 64).execs().stream_from(2, 64).eop()
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    return _stepped(soc, lambda: ocp.done, 5, 37)


def _live_pio_slave(**soc_kw):
    """A PIO slave's datapath timer, started over the bus beside an
    idle OCP."""
    from repro.baselines.pio_slave import (
        CTRL_START,
        REG_DATA_IN,
        SlaveAccelerator,
    )
    from repro.bus.types import AccessKind
    from repro.rac.scale import PassthroughRac

    soc = build(SoC, racs=[PassthroughRac(block_size=16)], with_cpu=False,
                **soc_kw)
    pio = soc.sim.add(SlaveAccelerator(
        "pio", compute_fn=lambda ws: [w ^ 0xFF for w in ws], items_in=4,
        items_out=4, compute_latency=150))
    soc.bus.attach_slave("pio", 0x9000_0000, 64, pio)
    for offset, value in [(REG_DATA_IN, v) for v in range(4)] + \
            [(0, CTRL_START)]:
        transfer = soc.bus.submit("test", AccessKind.WRITE,
                                  0x9000_0000 + offset, data=[value])
        soc.sim.run_until(lambda: transfer.done, max_cycles=100)
    return _stepped(soc, lambda: pio.read_word(0) != CTRL_START, 3, 23,
                    slave=pio)


def _live_scheduler(**soc_kw):
    """Three OCPs behind the throughput scheduler, read mid-batch."""
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    soc = build(build_mpsoc, [PassthroughRac(name=f"pt{index}", block_size=8,
                                             compute_latency=30)
                              for index in range(3)], **soc_kw)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=4)
    rng = random.Random(830_240)
    for index in range(8):
        assert sched.submit(Job(f"j{index}", "passthrough",
                                [rng.getrandbits(32) for _ in range(8)]))
    return _stepped(soc, lambda: sched.idle, 4, 70, sched=sched)


LIVE_READ_SCENARIOS = {
    "cpu_driver": _live_cpu_driver,
    "wait_and_watchdog": _live_wait_and_watchdog,
    "pio_slave": _live_pio_slave,
    "scheduler": _live_scheduler,
    "two_block_drain": _live_two_block_drain,
}


@pytest.mark.parametrize("kernel", [
    {"idle_skip": False}, {}, {"audit": True}],
    ids=["naive", "fast", "strict"])
@pytest.mark.parametrize("scenario", sorted(LIVE_READ_SCENARIOS))
def test_live_read_mid_interval_matches_golden(scenario, kernel):
    """Every statistic read between steps, and every PERF register read
    over the bus, equals the recorded golden under each schedule."""
    stops = LIVE_READ_SCENARIOS[scenario](**kernel)
    golden = json.loads(LIVE_READ_GOLDEN.read_text())[scenario]
    assert json.loads(json.dumps(stops)) == golden
