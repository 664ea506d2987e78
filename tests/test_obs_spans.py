"""Span reconstruction: synthetic traces and truncated-trace refusal."""

import warnings

import pytest

from repro.core.registers import (
    CTRL_IE,
    CTRL_S,
    REG_BANK_BASE,
    REG_CTRL,
    REG_PROG_SIZE,
)
from repro.core.program import OuProgram
from repro.obs import attribute_run, reconstruct_spans
from repro.obs.spans import Span, SpanTrace
from repro.rac.scale import PassthroughRac
from repro.sim.errors import SimulationError
from repro.sim.tracing import Trace
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


# ---------------------------------------------------------------------------
# synthetic traces
# ---------------------------------------------------------------------------

def _controller_trace():
    """A hand-written controller run: fetch -> decode -> xfer -> idle."""
    t = Trace()
    ctrl = "ocp.ctrl"
    t.record(10, ctrl, "start", {})
    t.record(10, ctrl, "phase", {"state": "fetch", "at": 10})
    t.record(11, ctrl, "phase", {"state": "decode", "at": 12})
    t.record(12, ctrl, "instr", {"pc": 0, "mnemonic": "st 1, #8"})
    t.record(12, ctrl, "phase", {"state": "xfer_to", "at": 13})
    t.record(18, ctrl, "stall", {"cycles": 3, "at": 19})
    t.record(20, ctrl, "phase", {"state": "fetch", "at": 21})
    t.record(21, ctrl, "phase", {"state": "idle", "at": 22})
    return t


def test_state_spans_follow_phase_boundaries():
    spans = reconstruct_spans(_controller_trace())
    states = spans.query(category="state")
    assert [(s.name, s.begin, s.end) for s in states] == [
        ("fetch", 10, 12),
        ("decode", 12, 13),
        ("xfer_to", 13, 21),
        ("fetch", 21, 22),
    ]


def test_instruction_span_covers_decode_to_next_fetch():
    spans = reconstruct_spans(_controller_trace())
    (instr,) = spans.query(category="instr")
    assert instr.name == "st 1, #8"
    assert (instr.begin, instr.end) == (12, 21)
    # the decode and xfer states it drove are its children
    child_names = {c.name for c in instr.children}
    assert child_names == {"decode", "xfer_to"}


def test_stall_span_nests_inside_its_transfer_state():
    spans = reconstruct_spans(_controller_trace())
    (stall,) = spans.query(category="stall")
    assert (stall.begin, stall.end) == (16, 19)
    (xfer,) = spans.query(category="state", name="xfer_to")
    assert stall in xfer.children


def test_query_filters_compose():
    spans = reconstruct_spans(_controller_trace())
    assert len(spans.query(category="state", name="fetch")) == 2
    assert len(spans.query(category="state", name="fetch", since=20)) == 1
    assert spans.query(component="nope") == []
    assert spans.total_cycles("state") == 12


def test_overlap_cycles_is_union_of_intersections():
    trace = SpanTrace([], end_cycle=0)
    a = [Span("a", "x", "c", 0, 10), Span("a", "x", "c", 20, 30)]
    b = [Span("b", "y", "d", 5, 25), Span("b", "y", "d", 8, 12)]
    # [5,10) and [20,25): the [8,10) double-cover counts once
    assert trace.overlap_cycles(a, b) == 10
    assert trace.overlap_cycles(a, []) == 0


def test_driver_op_adopts_everything_it_contains():
    t = _controller_trace()
    t.record(5, "driver0", "op.begin", {"op": "run"})
    t.record(30, "driver0", "op.end", {"op": "run"})
    spans = reconstruct_spans(t)
    (op,) = spans.query(category="driver")
    assert (op.begin, op.end) == (5, 30)
    descendants = {s.category for s in op.walk()} - {"driver"}
    assert descendants == {"instr", "state", "stall"}


def test_unmatched_op_begin_closes_at_trace_end():
    t = Trace()
    t.record(5, "driver0", "op.begin", {"op": "run"})
    t.record(9, "driver0", "noise", {})
    spans = reconstruct_spans(t)
    (op,) = spans.query(category="driver")
    assert op.end == 10  # one past the last recorded event


def test_bus_spans_pair_grant_and_complete_per_master():
    t = Trace()
    t.record(3, "bus", "grant", {"master": "m0", "kind": "read",
                                 "address": "0x0", "burst": 4})
    t.record(4, "bus", "grant", {"master": "m1", "kind": "write",
                                 "address": "0x10", "burst": 1})
    t.record(6, "bus", "complete", {"master": "m1", "latency": 2})
    t.record(8, "bus", "complete", {"master": "m0", "latency": 5})
    spans = reconstruct_spans(t)
    by_master = {s.data["master"]: s for s in spans.query(category="bus")}
    assert (by_master["m0"].begin, by_master["m0"].end) == (3, 9)
    assert (by_master["m1"].begin, by_master["m1"].end) == (4, 7)


def test_rac_spans_pair_start_and_end_inclusive():
    t = Trace()
    t.record(7, "dft", "start_op", {"op": 1})
    t.record(19, "dft", "end_op", {})
    spans = reconstruct_spans(t)
    (busy,) = spans.query(category="rac")
    assert (busy.begin, busy.end) == (7, 20)


# ---------------------------------------------------------------------------
# truncated traces refuse loudly (mirrors faults.harness.fault_history)
# ---------------------------------------------------------------------------

def _capacity_limited_run(capacity):
    """A real OCP run whose trace overflows at ``capacity`` events."""
    soc = SoC(racs=[PassthroughRac(block_size=8)],
              trace=Trace(capacity=capacity))
    program = OuProgram().stream_to(1, 8).execs().stream_from(2, 8).eop()
    soc.write_ram(IN, list(range(8)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
        ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
    ocp.interface.write_word(REG_PROG_SIZE, len(program))
    ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
    soc.run_until(lambda: ocp.done, max_cycles=50_000)
    return soc


def test_span_reconstruction_refuses_truncated_trace():
    soc = _capacity_limited_run(capacity=5)
    assert soc.sim.trace.truncated
    with pytest.raises(SimulationError, match="truncated"):
        reconstruct_spans(soc.sim.trace)


def test_profiler_quiet_on_complete_trace():
    soc = _capacity_limited_run(capacity=None)
    assert not soc.sim.trace.truncated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spans = reconstruct_spans(soc.sim.trace)  # and spans build fine
        report = attribute_run(soc, spans=spans)
    assert report.consistent
