"""Inlined claims and single-stream RAC bodies.

The FIFO, the bus, the OCP interface, the controller and the streaming
RAC state their quiescence claim once, as a template
(:func:`repro.sim.kernel.inlined_claim`); the compiled walk evaluates
it in place and their ``next_activity`` is built from it.  These tests
check that the two agree after every step of random push/pop/commit/
reset and submit/step sequences, that every change to such a
component's fields drops its cluster's claim, that the controller's and
the RAC's templates equal the polled claims they replaced
(:func:`polled_controller_claim`, :func:`polled_rac_claim`) through
every state and phase, a RAC swap included, that the walk polls none
of them (but does poll a subclass that overrides ``next_activity``),
and that a single-stream RAC's straight bodies match the general port
loops in every observable.
"""

import inspect
import random
import re

import pytest

from repro.bus.bus import SystemBus
from repro.bus.types import AccessKind, BusSlave
from repro.core.controller import OuessantController
from repro.core.interface import OuessantInterface
from repro.core.program import OuProgram, figure4_program
from repro.faults import (FaultEvent, FaultKind, FaultPlan,
                          faulty_fifo_factory)
from repro.faults.injectors import FaultyFIFO
from repro.mem.memory import Memory
from repro.rac.base import SINGLE_STREAM_BODIES, StreamingRAC
from repro.rac.dft import DFTRac
from repro.rac.fifo import FIFO
from repro.rac.fir import FIRRac
from repro.rac.hls import HLSInterfaceSpec, wrap_function
from repro.rac.idct import IDCTRac
from repro.rac.matmul import MatMulRac
from repro.rac.scale import PassthroughRac
from repro.sched import ThroughputScheduler
from repro.sim import Component, Simulator, Trace, kernel
from repro.sim.kernel import inlined_claim
from repro.sim.errors import BusFaultError, FIFOError
from repro.system import SoC, build_mpsoc

from tests.kernel_audit import build
from tests.test_differential_refmodel import IN, OUT, PROG, SEED_BASE

INLINED = (FIFO, SystemBus, OuessantInterface, OuessantController,
           StreamingRAC)


class Idle(Component):
    def next_activity(self):
        return None


def _clustered(*components):
    """A simulator walking clusters, with ``components`` registered
    alone before two idle groups."""
    sim = Simulator()
    for comp in components:
        sim.add(comp)
    sim.add_all([Idle("a0"), Idle("a1")])
    sim.add_all([Idle("b0"), Idle("b1")])
    assert sim._clusters is not None
    return sim


def _walk_claim(comp):
    """The claim the compiled walk computes for ``comp``: the line the
    walk emits for it, run on ``comp``."""
    (line,) = kernel._polled("c", kernel._claim(comp), "")
    names = {"c": comp, "now": comp.sim.cycle}
    exec(line, {}, names)
    return names["wake"]


def _mutate(comp, action):
    """Run ``action`` between steps and check that it leaves the walk's
    claim equal to ``next_activity()``, and that a claim it makes
    earlier drops the claim of ``comp``'s cluster."""
    cluster = comp._cluster
    before = comp.next_activity()
    cluster._wake_valid = True
    try:
        action()
    finally:
        after = comp.next_activity()
        earlier = after is not None and (before is None or after < before)
        assert not (earlier and cluster._wake_valid)
        cluster._wake_valid = False
    assert _walk_claim(comp) == after


# -- the FIFO ----------------------------------------------------------------

def _fifo(kind, depth):
    if kind == "faulty":
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.DROP_WORD, "fifo.in0", index=3),
            FaultEvent(FaultKind.DUP_WORD, "fifo.in0", index=7),
            FaultEvent(FaultKind.BIT_FLIP, "fifo.in0", index=11, bit=5),
        ])
        return FaultyFIFO("fifo.in0", plan=plan, depth=depth)
    width_push, width_pop = kind
    return FIFO("fifo", width_push=width_push, width_pop=width_pop,
                depth=depth)


@pytest.mark.parametrize("kind", [(32, 32), (32, 96), (96, 32), "faulty"],
                         ids=["32-32", "32-96", "96-32", "faulty"])
@pytest.mark.parametrize("seed", range(3))
def test_fifo_walk_claim_equals_next_activity(kind, seed):
    rng = random.Random(SEED_BASE + 350_000 + seed)
    fifo = _fifo(kind, depth=rng.choice([2, 5, 8]))
    sim = _clustered(fifo)
    assert kernel._claim(fifo) is not None
    assert _walk_claim(fifo) == fifo.next_activity() is None

    def push():
        words = [rng.getrandbits(fifo.width_push)
                 for _ in range(rng.randint(0, 4))]
        if words and rng.random() < 0.1:
            words[rng.randrange(len(words))] = 1 << fifo.width_push
        try:
            fifo.push_many(words)
        except FIFOError:
            pass

    def pop():
        try:
            fifo.pop_many(rng.randint(0, fifo.occupancy + 1))
        except FIFOError:
            pass

    actions = [push, push, pop, fifo.commit]
    for _ in range(200):
        roll = rng.random()
        if roll < 0.25:
            sim.step(rng.randint(1, 3))
            assert _walk_claim(fifo) == fifo.next_activity()
        else:
            _mutate(fifo, fifo.reset if roll < 0.27
                    else rng.choice(actions))


# -- the bus -----------------------------------------------------------------

class ErrorSlave(BusSlave):
    """Answers every access with an ERROR response."""

    access_latency = 2

    def read_burst(self, offset, count):
        raise BusFaultError("error slave")

    def write_burst(self, offset, values):
        raise BusFaultError("error slave")


ERROR_BASE = 0x8000_0000


def _bus_run(scenario, seed, **sim_kw):
    """A random submit/step sequence on a bus; returns what every
    transfer saw.  ``sole``: one master, each request submitted after
    the last completes; ``contended``: two masters submitting at will;
    ``mid``: submits that land while a burst is in flight; ``error``:
    the contended mix with an ERROR slave mapped."""
    rng = random.Random(SEED_BASE + 360_000 + seed)
    bus = SystemBus()
    sim = build(Simulator, **sim_kw)
    sim.add(bus)
    sim.add_all([Idle("a0"), Idle("a1")])
    sim.add_all([Idle("b0"), Idle("b1")])
    bus.attach_slave("ram", 0, 0x1000, Memory("ram", 0x1000))
    if scenario == "error":
        bus.attach_slave("err", ERROR_BASE, 0x100, ErrorSlave())
    masters = ["m0"] if scenario == "sole" else ["m0", "m1"]
    transfers = []

    def submit():
        address = 4 * rng.randrange(0, 64)
        if scenario == "error" and rng.random() < 0.3:
            address = ERROR_BASE + 4 * rng.randrange(0, 16)
        burst = rng.choice([1, 1, 4, 8])
        master = rng.randrange(len(masters))
        if rng.random() < 0.5:
            transfer = bus.submit(masters[master], AccessKind.READ,
                                  address, burst, priority=master)
        else:
            transfer = bus.submit(
                masters[master], AccessKind.WRITE, address, burst,
                data=[rng.getrandbits(32) for _ in range(burst)],
                priority=master)
        transfers.append(transfer)

    for _ in range(150):
        if scenario == "sole" and transfers and not transfers[-1].done:
            sim.step(1)
        elif scenario == "mid" and bus._pending and bus._current is None:
            sim.step(1)  # to the grant: the next submit lands mid-burst
        elif rng.random() < 0.4:
            _mutate(bus, submit)
            continue
        else:
            sim.step(rng.randint(1, 6))
        assert _walk_claim(bus) == bus.next_activity()
    sim.run_until(lambda: bus.idle)
    return sim.cycle, [(t.master, t.grant_cycle, t.complete_cycle, t.data,
                        t.error) for t in transfers], bus.stats.as_dict()


@pytest.mark.parametrize("scenario", ["sole", "contended", "mid", "error"])
@pytest.mark.parametrize("seed", range(2))
def test_bus_walk_claim_equals_next_activity(scenario, seed):
    naive = _bus_run(scenario, seed, idle_skip=False)
    assert _bus_run(scenario, seed) == naive
    assert _bus_run(scenario, seed, audit=True) == naive
    if scenario == "error":
        assert any(error for *_, error in naive[1])


# -- what the compiled walk polls ----------------------------------------------

def _polled(sim):
    """The components whose ``next_activity`` the bound walk calls."""
    sim._bind_walk()
    polled = []
    for walk in (sim._dispatch_scan, sim._dispatch_cycle):
        bound = dict(zip(walk.__code__.co_freevars,
                         (cell.cell_contents for cell in walk.__closure__)))
        for name in re.findall(r"\b(c\d+)\.next_activity\(\)",
                               inspect.getsource(walk)):
            if bound[name] not in polled:
                polled.append(bound[name])
    return polled


def _figure4_soc():
    soc = SoC(racs=[DFTRac(n_points=256)])
    soc.sim.step(3)
    return soc


def _sched_mpsoc8_soc():
    soc = build_mpsoc([PassthroughRac(name=f"pt{index}", block_size=16,
                                      fifo_depth=32, compute_latency=400)
                       for index in range(8)])
    ThroughputScheduler(soc, batch_jobs=4, queue_bound=8)
    soc.sim.step(3)
    return soc


@pytest.mark.parametrize("build", [_figure4_soc, _sched_mpsoc8_soc],
                         ids=["fig4", "sched_mpsoc8"])
def test_walk_polls_no_inlined_claim(build):
    soc = build()
    polled = _polled(soc.sim)
    assert polled and not [comp for comp in polled
                           if isinstance(comp, INLINED)]
    # the walk reads each FIFO's and the bus's fields instead
    scan = inspect.getsource(soc.sim._dispatch_scan)
    for comp in soc.sim.components:
        if isinstance(comp, (FIFO, SystemBus)):
            assert kernel._claim(comp) is not None
        if isinstance(comp, OuessantInterface):
            assert kernel._claim(comp) == "None"
    assert scan.count("._staged or ") == sum(
        isinstance(comp, FIFO) for comp in soc.sim.components)
    assert scan.count("._busy_until if ") == 1


class PolledFIFO(FIFO):
    """A FIFO subclass with a claim of its own."""

    def next_activity(self):
        return super().next_activity()


def test_subclass_overriding_next_activity_is_polled():
    plain, polled = FIFO("plain"), PolledFIFO("polled")
    sim = Simulator()
    sim.add(plain)
    sim.add(polled)
    assert kernel._claim(polled) is None
    assert _polled(sim) == [polled]


def test_instance_wrapper_cannot_change_an_inlined_claim():
    fifo = FIFO("f")
    sim = Simulator()
    sim.add(fifo)
    calls = []
    original = fifo.next_activity
    fifo.next_activity = lambda: calls.append(1) or original()
    fifo.push_many([1, 2, 3])
    sim.step(4)
    assert fifo.occupancy == 3 and not calls
    assert _polled(sim) == []


class Stamper(Component):
    """An inlined claim on a class with both a tick and a commit: it
    stages the cycle it ticks at (from ``at`` on) and publishes it in
    ``commit``, after which its claim is None."""

    next_activity = inlined_claim(
        "None if {c}.at is None else {c}.at if {c}.at > {now} else {now}")

    def __init__(self, name, at):
        super().__init__(name)
        self.at = at
        self.staged = None
        self.published = []

    def tick(self):
        if self.at is not None and self.sim.cycle >= self.at:
            self.staged = self.sim.cycle
            self.at = None

    def commit(self):
        if self.staged is not None:
            self.published.append(self.staged)
            self.staged = None


@pytest.mark.parametrize("sim_kw", [{"idle_skip": False}, {},
                                    {"audit": True}],
                         ids=["naive", "fast", "strict"])
@pytest.mark.parametrize("clustered", [False, True], ids=["flat", "cluster"])
def test_inlined_claim_with_tick_and_commit(sim_kw, clustered):
    sim = build(Simulator, **sim_kw)
    stampers = [Stamper("s0", 5), Stamper("s1", 7), Stamper("s2", 3)]
    sim.add(stampers[0])
    if clustered:
        sim.add_all([stampers[1], Idle("i0")])
        sim.add_all([stampers[2], Idle("i1")])
    else:
        sim.add(stampers[1])
        sim.add(stampers[2])
    sim.step(20)
    assert [s.published for s in stampers] == [[5], [7], [3]]
    assert _polled(sim) == [comp for comp in sim.components
                            if isinstance(comp, Idle)]


# -- single-stream RAC bodies ----------------------------------------------------

def _general(rac):
    """``rac`` back on the general port-loop bodies."""
    for name in SINGLE_STREAM_BODIES:
        delattr(rac, name)
    return rac


def _single(rac):
    return all(getattr(rac, name).__func__ is getattr(
        StreamingRAC, f"_{name.lstrip('_')}_single")
        for name in SINGLE_STREAM_BODIES)


def _dup_output(index):
    return faulty_fifo_factory(FaultPlan(events=[
        FaultEvent(FaultKind.DUP_WORD, "fifo.out0", index=index)]))


CASES = {
    "dft256": (lambda: DFTRac(n_points=256), 512, figure4_program(256),
               None),
    "idct": (IDCTRac, 64, None, None),
    "passthrough": (lambda: PassthroughRac(block_size=16, fifo_depth=8),
                    16, None, None),
    "faulty_out": (lambda: PassthroughRac(block_size=16, fifo_depth=8),
                   16, None, _dup_output(5)),
}


def _rac_run(case, general, traced=True, **soc_kw):
    make, words, program, fifo_factory = CASES[case]
    rng = random.Random(SEED_BASE + 370_000)
    trace = Trace() if traced else None
    soc = build(SoC, trace=trace, **soc_kw)
    rac = make()
    assert _single(rac)
    if general:
        assert not _single(_general(rac))
    extra = {} if fifo_factory is None else {"fifo_factory": fifo_factory}
    ocp = soc.add_ocp(rac, **extra)
    if program is None:
        program = (OuProgram().stream_to(1, words).execs()
                   .stream_from(2, words).eop())
    soc.write_ram(IN, [rng.randrange(-0x3000, 0x3000) & 0xFFFFFFFF
                       for _ in range(words)])
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=200_000)
    return {
        "cycle": soc.sim.cycle,
        "memory": soc.read_ram(OUT, words),
        "stats": [comp.stats.as_dict() for comp in soc.sim.components
                  if hasattr(comp, "stats")],
        "trace": trace.dump() if traced else None,
    }


@pytest.mark.parametrize("case", list(CASES))
def test_single_stream_body_matches_the_general_body(case):
    naive = _rac_run(case, general=True, idle_skip=False)
    assert naive["trace"]
    for general in (False, True):
        assert _rac_run(case, general) == naive
        assert _rac_run(case, general, audit=True) == naive
        hot = _rac_run(case, general, traced=False)
        assert hot == dict(naive, trace=None)
    assert _rac_run(case, general=False, idle_skip=False) == naive


@pytest.mark.parametrize("make", [FIRRac, MatMulRac])
def test_multi_port_racs_take_the_general_body(make):
    rac = make()
    assert not set(SINGLE_STREAM_BODIES) & set(vars(rac))
    assert not _single(rac)


# -- the controller's and the RAC's claims ---------------------------------------

def polled_controller_claim(ctrl):
    """The controller's claim as its per-state methods polled it: the
    oracle its template must equal."""
    state, now = ctrl.state, ctrl.sim.cycle
    if state in ("idle", "halted", "error"):
        return None
    if state == "decode":
        return now
    pending = ctrl._pending
    if state in ("prefetch", "fetch"):
        return None if pending is not None and not pending.done else now
    if state in ("xfer_to", "xfer_from"):
        if pending is not None:
            return now if pending.done else None
        if state == "xfer_to":
            fifo = ctrl.fifos_in[ctrl._xfer_fifo]
            return now if fifo.free_push_words >= 1 else None
        fifo = ctrl.fifos_out[ctrl._xfer_fifo]
        return now if fifo.occupancy >= ctrl._xfer_chunk else None
    if state == "exec_wait":
        if ctrl.rac.end_op:
            return now
        if ctrl.watchdog_cycles > 0:
            return ctrl._entered + ctrl.watchdog_cycles - 1
        return None
    if state == "waiting":
        return ctrl._resume_at
    return now if ctrl._waitf_satisfied() else None


def polled_rac_claim(rac):
    """A single-stream RAC's claim as its straight body polled it."""
    phase, now = rac._phase.value, rac.sim.cycle
    if phase == "compute":
        return rac._compute_at
    if phase == "collect":
        if len(rac._collected[0]) < rac.items_in[0]:
            return now if rac.inputs[0].occupancy else None
        return now
    if phase == "done":
        if rac.autostart and rac.inputs[0].occupancy:
            return now
        return None
    if (rac._emitted[0] < rac.items_out[0]
            and rac.outputs[0].free_push_words):
        return now
    return None


def _no_autostart():
    return StreamingRAC("manual", [8], [8], lambda c: [list(c[0])],
                        compute_latency=5, autostart=False)


#: name -> (RAC factory, program, words, add_ocp options)
PROGRAMS = {
    "stream": (lambda: PassthroughRac(block_size=16, fifo_depth=4),
               OuProgram().stream_to(1, 16).execs().stream_from(2, 16)
               .eop(), 16, {}),
    "exec_watchdog": (lambda: PassthroughRac(block_size=16, fifo_depth=4),
                      OuProgram().stream_to(1, 16).exec_()
                      .stream_from(2, 16).eop(), 16,
                      {"watchdog_cycles": 60}),
    "exec": (lambda: PassthroughRac(block_size=4, fifo_depth=8,
                                    compute_latency=30),
             OuProgram().mvtc(1, 0, 4).exec_().wait(7).mvfc(2, 0, 4)
             .eop(), 4, {}),
    "waitf": (_no_autostart,
              OuProgram().waitf("in", 0, 8).mvtc(1, 0, 8).execs()
              .waitf("out", 0, 8).loop(2).nop().endl().mvfc(2, 0, 8)
              .eop(), 8, {}),
    "dft64": (lambda: DFTRac(n_points=64), figure4_program(64), 128, {}),
}


def _claims_run(name, seed, swap=False):
    """Run program ``name`` in random steps (with a mid-run abort and
    restart), checking after each step that the controller's and the
    RAC's templates equal the polled claims; returns the controller
    states and RAC phases seen."""
    make, program, words, options = PROGRAMS[name]
    rng = random.Random(SEED_BASE + 380_000 + seed)
    soc = SoC()
    ocp = soc.add_ocp(make(), **options)
    banks = {0: PROG, 1: IN, 2: OUT}
    soc.write_ram(IN, [rng.getrandbits(16) for _ in range(words)])
    soc.write_ram(PROG, program.words())
    seen = set()

    def run(limit):
        ocp.start(banks, len(program))
        ctrl, rac = ocp.controller, ocp.rac
        for _ in range(limit):
            if not ctrl.running:
                break
            soc.sim.step(rng.choice([1, 1, 1, 2, 3]))
            seen.add(ctrl.state)
            seen.add(rac._phase.value)
            assert _walk_claim(ctrl) == polled_controller_claim(ctrl)
            assert _walk_claim(rac) == polled_rac_claim(rac)

    run(rng.randint(5, 40))
    ocp.soft_reset()
    if swap:
        old_fifos = ocp.fifos_in + ocp.fifos_out
        ocp.swap_rac(make())
        assert ocp.rac._in is ocp.fifos_in[0]
        assert ocp.rac._out is ocp.fifos_out[0]
        assert ocp.controller.rac is ocp.rac
    run(20_000)
    if swap:
        # the new run awaited only the new fabric's FIFOs
        assert ocp.controller.fifos_in[0] not in old_fifos
    return seen


@pytest.mark.parametrize("name", list(PROGRAMS))
@pytest.mark.parametrize("seed", range(2))
def test_controller_and_rac_templates_equal_the_polled_claims(name, seed):
    _claims_run(name, seed)


def test_templates_cover_every_state_and_phase():
    seen = set()
    for name in PROGRAMS:
        seen |= _claims_run(name, 0)
    assert {"prefetch", "fetch", "decode", "xfer_to", "xfer_from",
            "exec_wait", "waiting", "waitf", "halted", "error",
            "collect", "compute", "emit", "done"} <= seen


@pytest.mark.parametrize("name", ["stream", "exec"])
def test_templates_read_the_fabric_after_a_rac_swap(name):
    _claims_run(name, 1, swap=True)


def _two_port_stream(fir):
    """``fir``'s ports and behaviour on a plain :class:`StreamingRAC`,
    whose class inlines the claim template."""
    return StreamingRAC("fir2", fir.items_in, fir.items_out, fir.compute_fn,
                        fir.compute_latency, ports=fir.ports)


def _fir_run(plain, **soc_kw):
    """A FIR block through an OCP: data on FIFO 0, taps on FIFO 1.  The
    RAC is a :class:`FIRRac` (a :class:`MultiPortRAC`, whose port-loop
    claim the walk polls and caches) or, ``plain``, the same two-port
    RAC as a :class:`StreamingRAC` (the template calls the loop)."""
    rng = random.Random(SEED_BASE + 390_000)
    soc = build(SoC, **soc_kw)
    fir = FIRRac(block_size=16, n_taps=4, fifo_depth=8)
    ocp = soc.add_ocp(_two_port_stream(fir) if plain else fir)
    program = (OuProgram().mvtc(1, 0, 16).mvtc(1, 16, 4, fifo=1).execs()
               .mvfc(2, 0, 16).eop())
    soc.write_ram(IN, [rng.getrandbits(12) for _ in range(20)])
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    rac = ocp.rac
    assert (kernel._claim(rac) is None) is not plain
    while not ocp.done:
        soc.sim.step(1)
        assert rac._in is None
        if plain:
            assert _walk_claim(rac) == rac._port_claim()
        else:
            assert rac.next_activity() == rac._port_claim()
    return (soc.sim.cycle, soc.read_ram(OUT, 16),
            [comp.stats.as_dict() for comp in soc.sim.components
             if hasattr(comp, "stats")])


@pytest.mark.parametrize("plain", [False, True])
def test_multi_port_rac_answers_through_its_port_loops(plain):
    naive = _fir_run(plain, idle_skip=False)
    assert _fir_run(plain) == naive
    assert _fir_run(plain, audit=True) == naive
    assert _fir_run(not plain) == naive


def test_only_a_multi_port_hls_core_polls_its_claim():
    def spec(n_in):
        return HLSInterfaceSpec(items_in=[4] * n_in, items_out=[4])

    def add(collected):
        return [[sum(col) & 0xFFFFFFFF for col in zip(*collected)]]

    assert kernel._claim(wrap_function("one", add, spec(1))) is not None
    assert kernel._claim(wrap_function("two", add, spec(2))) is None
