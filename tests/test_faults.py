"""Fault-injection subsystem: plans, injectors, traps, recovery."""

import pytest

from repro.core.program import OuProgram
from repro.core.registers import (
    CTRL_S,
    ERR_BUS,
    ERR_ILLEGAL_OP,
    ERR_WATCHDOG,
    OuessantRegisters,
)
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultyFIFO,
    FaultySlave,
    RECOVERABLE_KINDS,
    build_faulty_soc,
    fault_signature,
    fifo_site_for,
    inject_faults,
)
from repro.mem.memory import Memory
from repro.rac.scale import PassthroughRac
from repro.sim.errors import ConfigurationError, DriverTimeout, OcpRunError
from repro.sim.tracing import Trace
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000
BLOCK = 16


def loopback_program(use_exec=False):
    program = OuProgram().stream_to(1, BLOCK)
    program.exec_() if use_exec else program.execs()
    return program.stream_from(2, BLOCK).eop()


def run_driver(plan, watchdog_cycles=0, use_exec=False, **recovery_kwargs):
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan,
        watchdog_cycles=watchdog_cycles,
    )
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    result = driver.run_with_recovery(
        loopback_program(use_exec).words(), {0: PROG, 1: IN, 2: OUT},
        timeout_cycles=20_000, **recovery_kwargs,
    )
    return soc, result


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

def test_plan_same_seed_same_events():
    assert FaultPlan.random(7).events == FaultPlan.random(7).events
    assert FaultPlan.random(7).events != FaultPlan.random(8).events


def test_plan_random_stalls_is_recoverable():
    plan = FaultPlan.random_stalls(3, n_events=5)
    assert plan.recoverable
    assert all(e.kind is FaultKind.STALL for e in plan.events)


def test_plan_mixed_kinds_not_recoverable():
    plan = FaultPlan(events=[FaultEvent(FaultKind.BIT_FLIP, "ram")])
    assert not plan.recoverable
    assert RECOVERABLE_KINDS == {FaultKind.STALL}


def test_plan_site_filter_and_describe():
    plan = FaultPlan(seed=1, events=[
        FaultEvent(FaultKind.STALL, "ram", index=2, duration=5),
        FaultEvent(FaultKind.DROP_WORD, "fifo.in0", index=1),
    ])
    assert len(plan.at_site("ram")) == 1
    assert len(plan) == 2
    assert "stall@ram[2]" in plan.describe()


def test_fifo_site_naming_convention():
    assert fifo_site_for("ocp.fin0") == "fifo.in0"
    assert fifo_site_for("ocp3.fout1.g2") == "fifo.out1"
    assert fifo_site_for("bus") is None


# ---------------------------------------------------------------------------
# injectors in isolation
# ---------------------------------------------------------------------------

def test_faulty_slave_stall_adds_latency():
    memory = Memory("m", 1024, access_latency=1)
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.STALL, "ram", index=0, duration=9),
    ])
    slave = FaultySlave("fs", memory, plan)
    assert slave.latency_for(0, 4) == 10   # access 0: injected
    assert slave.latency_for(0, 4) == 1    # access 1: clean


def test_faulty_slave_flips_read_data():
    memory = Memory("m", 1024, access_latency=1)
    memory.write_word(8, 0)
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.BIT_FLIP, "ram", index=0, bit=5, word=2),
    ])
    slave = FaultySlave("fs", memory, plan)
    slave.latency_for(0, 4)  # the grant that arms access 0
    assert slave.read_burst(0, 4)[2] == 1 << 5
    assert memory.read_word(8) == 0  # memory itself untouched


def test_faulty_fifo_drop_dup_flip():
    def fifo_with(kind, **fields):
        plan = FaultPlan(events=[
            FaultEvent(kind, "fifo.in0", index=0, **fields),
        ])
        return FaultyFIFO("ocp.fin0", plan=plan, depth=8)

    dropper = fifo_with(FaultKind.DROP_WORD)
    dropper.push_many([1, 2, 3])
    dropper.commit()
    assert dropper.pop_many(dropper.occupancy) == [2, 3]

    duper = fifo_with(FaultKind.DUP_WORD)
    duper.push(5)
    duper.commit()
    assert duper.pop_many(duper.occupancy) == [5, 5]

    flipper = fifo_with(FaultKind.BIT_FLIP, bit=3)
    flipper.push(0)
    flipper.commit()
    assert flipper.pop() == 8


# ---------------------------------------------------------------------------
# malformed plans fail at injection
# ---------------------------------------------------------------------------

def _rejected(soc, *events):
    """inject_faults must refuse the plan before touching the SoC."""
    with pytest.raises(ConfigurationError) as excinfo:
        inject_faults(soc, FaultPlan(events=list(events)))
    assert not any(comp.name.startswith("faults.")
                   for comp in soc.sim.components)
    return str(excinfo.value)


@pytest.mark.parametrize("event", [
    FaultEvent(FaultKind.HANG_EXEC, "mc", index=10, duration=5),
    FaultEvent(FaultKind.SLAVE_ERROR, "rac", index=0),
    FaultEvent(FaultKind.STALL, "fifo.in0", index=0, duration=3),
    FaultEvent(FaultKind.BIT_FLIP, "dram", index=0),
])
def test_inject_rejects_event_no_injector_reads(event):
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    assert event.describe() in _rejected(soc, event)


def test_inject_rejects_hang_on_soc_without_rac():
    event = FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0)
    assert event.describe() in _rejected(SoC(), event)


def test_inject_rejects_fifo_event_without_faulty_fabric():
    event = FaultEvent(FaultKind.DROP_WORD, "fifo.in0", index=1)
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    message = _rejected(soc, event)
    assert event.describe() in message
    assert "faulty_fifo_factory" in message
    # the same event on a fabric built from the plan is accepted
    build_faulty_soc(PassthroughRac(block_size=BLOCK),
                     FaultPlan(events=[event]))


@pytest.mark.parametrize("word", [
    PROG + 2,                       # unaligned
    3,                              # what FaultPlan.random draws
    RAM_BASE - 4,                   # just below RAM
    RAM_BASE + (1 << 30),           # far past the end of RAM
])
def test_inject_rejects_microcode_address_outside_ram(word):
    event = FaultEvent(FaultKind.CORRUPT_MICROCODE, "mc", index=5, word=word)
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    assert event.describe() in _rejected(soc, event)


# ---------------------------------------------------------------------------
# controller error handling
# ---------------------------------------------------------------------------

def test_registers_error_field_lifecycle():
    regs = OuessantRegisters()
    regs.set_error(ERR_BUS)
    assert regs.error and regs.error_code == ERR_BUS
    assert regs.error_name == "bus_error"
    regs.write(0x00, 0)            # stop: E stays latched (sticky)
    assert regs.error
    regs.prog_size = 1
    regs.write(0x00, CTRL_S)       # new run clears E + code
    assert not regs.error and regs.error_code == 0


def test_slave_error_containment_and_bus_trap():
    """An ERROR response must trap the OCP, not crash the simulation."""
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.SLAVE_ERROR, "ram", index=0),  # the prefetch
    ])
    soc = build_faulty_soc(PassthroughRac(block_size=BLOCK), plan)
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    with pytest.raises(OcpRunError) as excinfo:
        driver.run(loopback_program().words(), {0: PROG, 1: IN, 2: OUT},
                   check_status=True)
    assert excinfo.value.code == ERR_BUS
    assert soc.ocp.controller.errored
    assert soc.bus.stats["slave_errors"] == 1


def test_illegal_opcode_traps():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    driver = OuessantDriver(soc)
    undefined = 0x15 << 27  # opcode 0x15 is outside the defined set
    with pytest.raises(OcpRunError) as excinfo:
        driver.run([undefined], {0: PROG}, check_status=True)
    assert excinfo.value.code == ERR_ILLEGAL_OP


def test_microcode_corruption_causes_illegal_opcode_trap():
    # flipping bit 31 of a NOP (0x05 << 27) yields undefined opcode 0x15
    program = OuProgram().nop().eop()
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.CORRUPT_MICROCODE, "mc", index=0, bit=31,
                   word=PROG),
    ])
    soc = build_faulty_soc(PassthroughRac(block_size=BLOCK), plan)
    driver = OuessantDriver(soc)
    with pytest.raises(OcpRunError) as excinfo:
        driver.run(program.words(), {0: PROG}, check_status=True)
    assert excinfo.value.code == ERR_ILLEGAL_OP
    assert len(soc.sim.trace.events(event="fault.corrupt_microcode")) == 1


def test_watchdog_traps_hung_exec():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0),
    ])
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan, watchdog_cycles=500
    )
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    with pytest.raises(OcpRunError) as excinfo:
        driver.run(loopback_program(use_exec=True).words(),
                   {0: PROG, 1: IN, 2: OUT}, check_status=True)
    assert excinfo.value.code == ERR_WATCHDOG
    assert soc.ocp.controller.stats["traps"] == 1


def test_hung_exec_without_watchdog_times_out():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0),
    ])
    soc = build_faulty_soc(PassthroughRac(block_size=BLOCK), plan)
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    with pytest.raises(DriverTimeout):
        driver.run(loopback_program(use_exec=True).words(),
                   {0: PROG, 1: IN, 2: OUT}, max_wait_cycles=5_000)


def test_finite_exec_hang_is_timing_only():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=300),
    ])
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan, watchdog_cycles=5_000
    )
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    result = driver.run(loopback_program(use_exec=True).words(),
                        {0: PROG, 1: IN, 2: OUT}, check_status=True)
    assert soc.read_ram(OUT, BLOCK) == list(range(BLOCK))
    assert result.total_cycles > 300  # completion held back by the window


def test_clearing_s_aborts_inflight_run():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    program = (OuProgram().wait(10_000).eop()).words()
    driver.place_program(program, PROG)
    driver.configure({0: PROG}, len(program))
    driver.start()
    soc.sim.step(50)
    assert soc.ocp.controller.running
    driver.abort()
    assert not soc.ocp.controller.running
    assert soc.ocp.controller.state == "idle"


# ---------------------------------------------------------------------------
# driver recovery
# ---------------------------------------------------------------------------

def test_recovery_retries_past_transient_fault():
    # ERROR response on the very first RAM access (the prefetch); the
    # access counter has moved past it by the retry, which succeeds
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.SLAVE_ERROR, "ram", index=0),
    ])
    soc, result = run_driver(plan, max_attempts=3)
    assert not result.degraded
    assert result.attempts == 2
    assert result.recovered
    assert soc.read_ram(OUT, BLOCK) == list(range(BLOCK))
    events = [e.event for e in soc.sim.trace.events(component="driver")
              if not e.event.startswith("op.")]
    assert events == ["fault", "abort", "retry", "recovered"]
    # each attempt opens an op span; only the successful one closes it
    spans = [e.event for e in soc.sim.trace.events(component="driver")
             if e.event.startswith("op.")]
    assert spans == ["op.begin", "op.begin", "op.end"]


def test_recovery_degrades_to_software_fallback():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0),
    ])
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan, watchdog_cycles=500
    )
    driver = OuessantDriver(soc)
    data = list(range(BLOCK))
    soc.write_ram(IN, data)
    result = driver.run_with_recovery(
        loopback_program(use_exec=True).words(),
        {0: PROG, 1: IN, 2: OUT},
        max_attempts=2, timeout_cycles=20_000,
        fallback=lambda: list(data),
    )
    assert result.degraded
    assert result.fallback_value == data
    assert result.attempts == 2
    assert len(result.faults) == 2
    assert soc.sim.trace.events(component="driver", event="degraded")


def test_recovery_without_fallback_reraises():
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0),
    ])
    with pytest.raises(OcpRunError):
        run_driver(plan, watchdog_cycles=500, use_exec=True, max_attempts=2)


def test_recovery_rejects_bad_max_attempts():
    from repro.sim.errors import DriverError

    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    driver = OuessantDriver(soc)
    with pytest.raises(DriverError):
        driver.run_with_recovery([], {0: PROG}, max_attempts=0)


# ---------------------------------------------------------------------------
# replay + demo + tracing
# ---------------------------------------------------------------------------

def test_fault_history_replays_identically():
    plan = FaultPlan.random(
        99, n_events=5, sites=("ram",),
        kinds=(FaultKind.STALL, FaultKind.BIT_FLIP), max_index=3,
    )
    signatures = []
    for _ in range(2):
        soc, _ = run_driver(plan, max_attempts=3)
        signatures.append(fault_signature(soc.sim.trace))
    assert signatures[0] == signatures[1]
    assert signatures[0]  # something actually fired


def test_trace_prefix_filter():
    trace = Trace()
    trace.record(1, "x", "fault.stall", {})
    trace.record(2, "x", "complete", {})
    assert [e.event for e in trace.with_prefix("fault.")] == ["fault.stall"]


def test_demo_reports():
    from repro.faults.demo import demo_degradation, demo_replay

    replay = demo_replay(seed=2024)
    assert replay.identical
    assert replay.signature
    degraded = demo_degradation(seed=2024)
    assert degraded.recovery.degraded
    assert degraded.watchdog_traps == 2
    assert degraded.output_correct


def test_soft_reset_preserves_configuration():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    ocp = soc.ocp
    ocp.registers.write(0x08, RAM_BASE)  # bank 0
    ocp.fifos_in[0].push(42)
    ocp.fifos_in[0].commit()
    ocp.soft_reset()
    assert ocp.fifos_in[0].empty
    assert ocp.registers.bank_base(0) == RAM_BASE


@pytest.mark.parametrize("kernel", [{"idle_skip": False}, {}],
                         ids=["naive", "fast"])
def test_untraced_deadlock_names_the_traced_last_active(kernel):
    """``sim.last_active`` is kept without a trace: a hung ``exec`` that
    times out names the same last active component, at the same cycle,
    as the same run with a trace attached."""
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=0),
    ])
    messages = []
    for trace in (None, Trace()):
        # build_faulty_soc always traces: interpose by hand
        soc = SoC(racs=[PassthroughRac(block_size=BLOCK)], with_cpu=False,
                  trace=trace, **kernel)
        inject_faults(soc, plan)
        soc.write_ram(IN, list(range(BLOCK)))
        with pytest.raises(DriverTimeout) as excinfo:
            OuessantDriver(soc).run(
                loopback_program(use_exec=True).words(),
                {0: PROG, 1: IN, 2: OUT}, max_wait_cycles=400)
        messages.append(str(excinfo.value))
    untraced, traced = messages
    # the RAC's end_op is the last event before the hang swallows it
    assert "last active component: loopback)" in traced
    assert untraced == traced
