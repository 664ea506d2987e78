"""Unit tests for the simulation kernel."""

import inspect
import re
import traceback

import pytest

from repro.sim import Component, DeadlockError, SimulationError, Simulator, Trace
from repro.sim import kernel


class Counter(Component):
    def __init__(self, name="counter"):
        super().__init__(name)
        self.value = 0

    def tick(self):
        self.value += 1

    def reset(self):
        self.value = 0


class TwoPhase(Component):
    """Captures another component's value during tick, publishes on commit."""

    def __init__(self, other):
        super().__init__("twophase")
        self.other = other
        self.seen = None
        self._staged = None

    def tick(self):
        self._staged = self.other.value

    def commit(self):
        self.seen = self._staged


def test_step_advances_cycle_and_ticks_components():
    sim = Simulator()
    counter = sim.add(Counter())
    sim.step(5)
    assert sim.cycle == 5
    assert counter.value == 5


def test_components_tick_in_registration_order():
    sim = Simulator()
    order = []

    class Probe(Component):
        def tick(self):
            order.append(self.name)

    sim.add(Probe("a"))
    sim.add(Probe("b"))
    sim.step()
    assert order == ["a", "b"]


def test_commit_runs_after_all_ticks():
    sim = Simulator()
    counter = sim.add(Counter())
    observer = sim.add(TwoPhase(counter))
    sim.step()
    # observer saw the value *after* counter ticked (same cycle)
    assert observer.seen == 1


def test_duplicate_names_rejected():
    sim = Simulator()
    sim.add(Counter("x"))
    with pytest.raises(SimulationError):
        sim.add(Counter("x"))


def test_remove_component():
    sim = Simulator()
    counter = sim.add(Counter())
    sim.remove(counter)
    sim.step(3)
    assert counter.value == 0
    # name freed for reuse
    sim.add(Counter())


def test_component_lookup():
    sim = Simulator()
    counter = sim.add(Counter("abc"))
    assert sim.component("abc") is counter
    with pytest.raises(KeyError):
        sim.component("missing")


def test_run_until_returns_elapsed_cycles():
    sim = Simulator()
    counter = sim.add(Counter())
    elapsed = sim.run_until(lambda: counter.value >= 10)
    assert elapsed == 10
    assert sim.cycle == 10


def test_run_until_deadlock_raises():
    sim = Simulator()
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False, max_cycles=50, what="never")


def test_deadlock_message_names_cycle_condition_and_component():
    """The diagnostic carries everything needed to start debugging."""
    sim = Simulator(trace=Trace())

    class Chatty(Component):
        def tick(self):
            self.trace_event("busy")

    sim.add(Chatty("dma_engine"))
    with pytest.raises(DeadlockError) as excinfo:
        sim.run_until(lambda: False, max_cycles=50, what="OCP interrupt")
    message = str(excinfo.value)
    assert "OCP interrupt" in message               # what was awaited
    assert "not reached within 50 cycles" in message  # the bound
    assert "stuck at cycle 50" in message           # where it gave up
    assert "last active component: dma_engine" in message


def test_deadlock_message_without_activity():
    sim = Simulator()
    with pytest.raises(DeadlockError, match="last active component: <none>"):
        sim.run_until(lambda: False, max_cycles=10)


def test_reset_restores_components_and_clock():
    sim = Simulator()
    counter = sim.add(Counter())
    sim.step(4)
    sim.reset()
    assert sim.cycle == 0
    assert counter.value == 0


def test_trace_events_recorded():
    trace = Trace()
    sim = Simulator(trace=trace)

    class Emitter(Component):
        def tick(self):
            self.trace_event("ping", value=self.now)

    sim.add(Emitter("emitter"))
    sim.step(3)
    events = trace.events(component="emitter", event="ping")
    assert [e.cycle for e in events] == [0, 1, 2]
    assert events[1].data["value"] == 1


def test_component_now_without_sim_is_zero():
    lone = Counter()
    assert lone.now == 0


def test_remove_unregistered_component_raises_simulation_error():
    sim = Simulator()
    stranger = Counter("stranger")
    with pytest.raises(SimulationError, match="not registered"):
        sim.remove(stranger)
    # a never-attached component keeps the benign sentinel clock
    assert stranger.now == 0


def test_remove_twice_raises():
    sim = Simulator()
    counter = sim.add(Counter())
    sim.remove(counter)
    with pytest.raises(SimulationError, match="not registered"):
        sim.remove(counter)


def test_now_after_detach_raises():
    """Use-after-remove must fail loudly, not timestamp at cycle 0."""
    sim = Simulator()
    counter = sim.add(Counter())
    sim.step(3)
    sim.remove(counter)
    with pytest.raises(SimulationError, match="removed from its simulator"):
        counter.now


def test_reattach_after_remove_restores_clock():
    sim = Simulator()
    counter = sim.add(Counter())
    sim.step(2)
    sim.remove(counter)
    sim.add(counter)
    assert counter.now == 2


def test_remove_clears_stale_last_active():
    """Deadlock diagnostics must never name a removed component."""
    sim = Simulator(trace=Trace())

    class Chatty(Component):
        def tick(self):
            self.trace_event("busy")

    chatty = sim.add(Chatty("chatty"))
    sim.step(2)
    assert sim.last_active == "chatty"
    sim.remove(chatty)
    assert sim.last_active is None
    with pytest.raises(DeadlockError, match="last active component: <none>"):
        sim.run_until(lambda: False, max_cycles=5)


def test_partial_reconfiguration_swap_rac_detaches_cleanly():
    """The DPR path removes a whole fabric; the swap must leave no
    stale clock references and the new fabric must still run."""
    from repro.rac.scale import PassthroughRac, ScaleRac
    from repro.system import SoC

    soc = SoC(racs=[PassthroughRac(block_size=4)])
    old = soc.ocp.rac
    old_fifos = list(soc.ocp.fifos_in) + list(soc.ocp.fifos_out)
    soc.sim.step(3)
    soc.ocp.swap_rac(ScaleRac(block_size=4, factor=2))
    for stale in [old] + old_fifos:
        with pytest.raises(SimulationError):
            stale.now
    # the reconfigured system still advances
    soc.sim.step(5)
    assert soc.ocp.rac.now == 8


# -- the commit sweep --------------------------------------------------------
#
# A dispatched cycle commits only the components whose *class* overrides
# ``Component.commit``; every other commit is the base no-op.

def _bound(sim):
    """The compiled walk's dispatched cycle, bound, and its parameters
    by name (``c<i>`` the components, ``k<j>`` the clusters)."""
    sim._bind_walk()
    cycle = sim._dispatch_cycle
    return cycle, dict(zip(cycle.__code__.co_freevars,
                           (cell.cell_contents for cell in cycle.__closure__)))


def _swept(sim):
    """The components the compiled commit sweep visits, in order, read
    from the generated source of the bound dispatched cycle."""
    cycle, bound = _bound(sim)
    names = re.findall(r"\b(c\d+)\.commit\(\)", inspect.getsource(cycle))
    return [bound[name] for name in dict.fromkeys(names)]


def test_commit_sweep_skips_classes_without_a_commit_override():
    from repro.rac.fifo import FIFO

    sim = Simulator()
    counter = sim.add(Counter("a"))
    observer = sim.add(TwoPhase(counter))
    fifo = sim.add(FIFO("f"))
    assert _swept(sim) == [observer, fifo]


def test_commit_sweep_keeps_registration_order_through_add_and_remove():
    from repro.rac.fifo import FIFO

    sim = Simulator()
    first, second, third = (sim.add(FIFO(name)) for name in "xyz")
    sim.add(Counter())
    assert _swept(sim) == [first, second, third]
    sim.remove(second)
    assert _swept(sim) == [first, third]
    sim.add(second)
    assert _swept(sim) == [first, third, second]
    sim.remove(first)
    sim.remove(third)
    assert _swept(sim) == [second]


class LateProducer(Component):
    """Pushes one word into ``fifo`` at each listed cycle; sleeps in
    between (so its pushes are the only poke the FIFO gets)."""

    def __init__(self, fifo, cycles):
        super().__init__("producer")
        self.fifo = fifo
        self.cycles = list(cycles)

    def next_activity(self):
        later = [c for c in self.cycles if c >= self.sim.cycle]
        return min(later) if later else None

    def tick(self):
        if self.sim.cycle in self.cycles:
            self.fifo.push(self.sim.cycle)


@pytest.mark.parametrize("idle_skip", [False, True],
                         ids=["naive", "fast"])
def test_fifo_staged_by_a_later_producer_commits_the_same_cycle(idle_skip):
    """The FIFO is registered before its producer, so the push pokes it
    backwards: the commit sweep must still publish the word at the end
    of the pushing cycle."""
    from repro.rac.fifo import FIFO

    sim = Simulator(idle_skip=idle_skip)
    fifo = sim.add(FIFO("f"))
    sim.add(LateProducer(fifo, [3, 7, 8]))
    occupancy = []
    for _ in range(10):
        sim.step()
        occupancy.append(fifo.occupancy)
    assert occupancy == [0, 0, 0, 1, 1, 1, 1, 2, 3, 3]
    assert fifo.stats["max_occupancy_atoms"] == 3


class Sleeper(Component):
    """Registered, never due."""

    def __init__(self):
        super().__init__("sleeper")

    def next_activity(self):
        return None


def test_instance_commit_wrappers_leave_fast_and_naive_identical():
    """A pass-through wrapper around an instance's ``commit`` (what a
    host profiler installs) neither enters the commit sweep nor changes
    a result: fast and naive runs agree on cycles, data and stats."""
    from repro.core.program import OuProgram
    from repro.rac.scale import PassthroughRac
    from repro.system import RAM_BASE, SoC
    from repro.sw.baremetal import BaremetalRuntime

    def run(idle_skip):
        soc = SoC(racs=[PassthroughRac(block_size=32)], with_cpu=False,
                  idle_skip=idle_skip)
        calls = []
        for comp in soc.sim.components:
            def wrapped(comp=comp, inner=comp.commit):
                calls.append(comp.name)
                inner()
            comp.commit = wrapped
        # the sweep is rebuilt at the next registration, after the
        # wrapping, and must not pick the wrappers up
        soc.sim.add(Sleeper())
        committers = _swept(soc.sim)
        soc.write_ram(RAM_BASE + 0x2000, list(range(32)))
        program = OuProgram().stream_to(1, 32).execs() \
            .stream_from(2, 32).eop()
        result = BaremetalRuntime(soc).run(
            program.words(), {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
                              2: RAM_BASE + 0x3000})
        stats = [soc.bus.stats.as_dict(),
                 soc.ocp.controller.stats.as_dict()]
        stats += [fifo.stats.as_dict()
                  for fifo in soc.ocp.fifos_in + soc.ocp.fifos_out]
        return (result.total_cycles, soc.sim.cycle,
                soc.read_ram(RAM_BASE + 0x3000, 32), stats), committers, calls

    naive, _, naive_calls = run(False)
    fast, committers, fast_calls = run(True)
    assert fast == naive
    assert naive[2] == list(range(32))
    assert [type(comp).__name__ for comp in committers] == ["FIFO", "FIFO"]
    # the naive stepper still calls every commit, wrapped ones included
    assert set(naive_calls) > set(fast_calls)


# -- the compiled walk -------------------------------------------------------
#
# The fast schedule's scan and dispatched cycle are generated per shape
# of the component list, compiled once per process and bound per
# simulator at the first event after a registration change.

def _passthrough_socs(count, ocps):
    from repro.rac.scale import PassthroughRac
    from repro.system import build_mpsoc

    return [build_mpsoc([PassthroughRac(name=f"pt{index}", block_size=8)
                         for index in range(ocps)])
            for _ in range(count)]


@pytest.mark.parametrize("ocps", [1, 2], ids=["flat", "cluster"])
def test_compiled_walk_is_shared_by_two_socs_of_one_shape(ocps):
    first, second = _passthrough_socs(2, ocps)
    for soc in (first, second):
        soc.sim.step(3)
    assert (first.sim._clusters is None) == (ocps == 1)
    for hook in ("_dispatch_scan", "_dispatch_cycle"):
        one = getattr(first.sim, hook)
        other = getattr(second.sim, hook)
        assert one.__code__ is other.__code__
        assert one is not other
    # each is bound to its own simulator's components
    _, bound = _bound(second.sim)
    assert bound["sim"] is second.sim
    # (a component whose inlined claim is None has no block to bind)
    held = {int(name[1:]): comp for name, comp in bound.items()
            if name[0] == "c"}
    assert held == {index: comp for index, comp
                    in enumerate(second.sim.components)
                    if kernel._claim(comp) != "None"}


def test_compiled_walk_registrations_compile_nothing():
    """Building a 43-component MPSoC registers one component at a time;
    no intermediate shape is compiled or even looked up.  The first
    event binds the walk once."""
    from repro.sched import ThroughputScheduler

    before = kernel._walk.cache_info()
    (soc,) = _passthrough_socs(1, 8)
    ThroughputScheduler(soc)
    assert len(soc.sim.components) == 43
    assert kernel._walk.cache_info() == before
    assert soc.sim._dispatch_scan == soc.sim._bind_scan
    assert soc.sim._dispatch_cycle == soc.sim._bind_cycle
    soc.sim.step(5)
    after = kernel._walk.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    assert soc.sim._dispatch_scan != soc.sim._bind_scan


class Faulty(Component):
    """Raises from its tick at cycle ``at``."""

    def __init__(self, name="faulty", at=2):
        super().__init__(name)
        self.at = at

    def next_activity(self):
        return max(self.at, self.sim.cycle)

    def tick(self):
        if self.sim.cycle >= self.at:
            raise RuntimeError("tick failed")


class Idle(Component):
    def next_activity(self):
        return None


@pytest.mark.parametrize("clustered", [False, True],
                         ids=["flat", "cluster"])
def test_compiled_walk_shows_its_lines_in_a_traceback(clustered):
    sim = Simulator()
    sim.add(Counter())
    if clustered:
        sim.add_all([Idle("idle0"), Idle("idle1")])
        sim.add_all([Faulty(), Idle("idle2")])
    else:
        sim.add(Faulty())
    assert (sim._clusters is not None) == clustered
    with pytest.raises(RuntimeError, match="tick failed") as raised:
        sim.step(10)
    frames = [frame for frame in traceback.extract_tb(raised.tb)
              if frame.filename.startswith("<sim walk ")]
    faulty = "c3" if clustered else "c1"
    assert [(frame.name, frame.line) for frame in frames] \
        == [("dispatch_cycle", f"{faulty}.tick()")]
    assert inspect.getsource(sim._dispatch_scan).startswith(
        "    def dispatch_scan(bound):\n")


def _loopback_run(idle_skip, wrap_fifo_ticks):
    """A 32-word loopback on one OCP; optionally wraps every FIFO's
    ``tick`` on the instance.  Returns the observables and the wrapped
    calls."""
    from repro.core.program import OuProgram
    from repro.rac.scale import PassthroughRac
    from repro.system import RAM_BASE, SoC
    from repro.sw.baremetal import BaremetalRuntime

    soc = SoC(racs=[PassthroughRac(block_size=32)], with_cpu=False,
              idle_skip=idle_skip)
    calls = []
    fifos = soc.ocp.fifos_in + soc.ocp.fifos_out
    if wrap_fifo_ticks:
        for fifo in fifos:
            def wrapped(fifo=fifo, inner=fifo.tick):
                calls.append(fifo.name)
                inner()
            fifo.tick = wrapped
    soc.write_ram(RAM_BASE + 0x2000, list(range(32)))
    program = OuProgram().stream_to(1, 32).execs().stream_from(2, 32).eop()
    result = BaremetalRuntime(soc).run(
        program.words(), {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
                          2: RAM_BASE + 0x3000})
    stats = [soc.bus.stats.as_dict(), soc.ocp.controller.stats.as_dict()]
    stats += [fifo.stats.as_dict() for fifo in fifos]
    return (result.total_cycles, soc.sim.cycle, soc.sim.profile(),
            soc.read_ram(RAM_BASE + 0x3000, 32), stats), calls


def test_compiled_walk_elides_base_ticks_by_class():
    """A FIFO keeps the base no-op ``tick``, so the compiled cycle calls
    none; a wrapper on an instance's ``tick`` (a host profiler's) does
    not change that or any result.  The naive stepper calls it."""
    plain, _ = _loopback_run(True, wrap_fifo_ticks=False)
    wrapped, fast_calls = _loopback_run(True, wrap_fifo_ticks=True)
    naive, naive_calls = _loopback_run(False, wrap_fifo_ticks=True)
    assert wrapped == plain
    assert fast_calls == []
    assert naive[:2] == plain[:2] and naive[3:] == plain[3:]
    assert plain[3] == list(range(32))
    assert len(naive_calls) == 2 * naive[1]
