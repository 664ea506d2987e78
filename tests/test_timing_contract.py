"""The simulator's timing contract, pinned per controller state.

:mod:`repro.perfbound` reads its cycle costs from the components that
implement them: the controller's FSM constants and its
:func:`~repro.core.controller.drain_chunk`, the FIFO's
:data:`~repro.rac.fifo.HANDOFF_CYCLES` and
:attr:`~repro.rac.base.StreamingRAC.op_ticks`.  Each test below runs
one instruction kind (``mvtc``, ``mvfc``, ``exec``, ``execs``,
``wait``, ``nop``, a fetch past the instruction buffer, the prefetch
burst) on a point-latency SoC whose OCP is the only bus master, and
checks the controller's per-state ``cycles.*`` statistics against
those rules, so a timing change in the simulator fails here first.
Where the cost model's interval for the instruction is a single point,
the test checks that it equals the measured cycles too.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.bus.protocol import AHB, AXI4, BusProtocol
from repro.core.controller import (
    CONSUME_CYCLES,
    DECODE_CYCLES,
    END_OP_CYCLES,
    FETCH_BEATS,
    FETCH_CYCLES,
    SUBMIT_CYCLES,
    drain_chunk,
)
from repro.core.program import OuProgram
from repro.mem.memory import Memory
from repro.perfbound import CostModel, RacTiming
from repro.rac.fifo import HANDOFF_CYCLES
from repro.rac.scale import PassthroughRac
from repro.system import RAM_BASE, SoC
from repro.verify.domain import Interval

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x4000

#: (bus protocol, memory latency) pairs every contract is checked on
BUSES = [(AHB, 1), (AHB, 3), (AXI4, 2)]
BUS_IDS = [f"{protocol.name}-L{latency}" for protocol, latency in BUSES]


def _run(program: OuProgram, rac, protocol: BusProtocol, latency: int,
         prefetch: bool = True) -> Dict[str, int]:
    """Run ``program`` from cycle 0 and return the controller's nonzero
    per-state cycle counts, after checking that they tile the run."""
    soc = SoC(racs=[rac], protocol=protocol, prefetch=prefetch,
              with_cpu=False,
              memory=Memory("ram", 1 << 20, access_latency=latency))
    soc.write_ram(IN, list(range(256)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    cycles = {key.split(".", 1)[1]: value
              for key, value in ocp.controller.stats.items()
              if key.startswith("cycles.") and value}
    # a run is exactly its FSM states: the start, done and
    # prefetch-to-fetch edges cost no cycle of their own (FIFO stalls
    # are counted inside the transfer states)
    states = sum(value for key, value in cycles.items()
                 if key != "fifo_stall")
    assert states == soc.sim.cycle
    return cycles


def _tx(protocol: BusProtocol, latency: int, beats: int) -> int:
    """FSM cycles of one bus transaction of ``beats`` words."""
    return (SUBMIT_CYCLES + protocol.transfer_cycles(beats, latency)
            + CONSUME_CYCLES)


def _drain_chunks(count: int, protocol: BusProtocol,
                  depth: int) -> List[int]:
    chunks = []
    while count:
        chunks.append(drain_chunk(count, protocol.max_burst_beats, depth))
        count -= chunks[-1]
    return chunks


def _rac(block: int, depth: int, latency: int = 2,
         autostart: bool = True) -> PassthroughRac:
    return PassthroughRac(block_size=block, fifo_depth=depth,
                          compute_latency=latency, autostart=autostart)


def _model(protocol: BusProtocol, latency: int, rac=None,
           **kwargs) -> CostModel:
    return CostModel(protocol=protocol, mem_latency=Interval.point(latency),
                     rac=RacTiming.of(rac) if rac is not None else None,
                     **kwargs)


def _control(instructions: int) -> Dict[str, int]:
    """FETCH and DECODE cycles of ``instructions`` buffered ones."""
    return {"fetch": instructions * FETCH_CYCLES,
            "decode": instructions * DECODE_CYCLES}


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("nops", [0, 1, 17])
def test_prefetch_burst_and_nop(protocol, latency, nops):
    """PREFETCH is one transaction of the whole program; each
    buffered instruction costs one FETCH and one DECODE tick."""
    program = OuProgram()
    for _ in range(nops):
        program.nop()
    program.eop()
    words = len(program)
    assert _run(program, _rac(8, 16), protocol, latency) == {
        "prefetch": _tx(protocol, latency, words), **_control(words)}
    model = _model(protocol, latency)
    assert model.prefetch_cost(words) == Interval.point(
        _tx(protocol, latency, words))
    assert model.fetch_decode_cost(0) == Interval.point(
        FETCH_CYCLES + DECODE_CYCLES)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
def test_fetch_without_prefetch(protocol, latency):
    """Without prefetch every fetch is a bus transaction of
    FETCH_BEATS words, charged to FETCH in place of its tick."""
    program = OuProgram().nop().eop()
    fetch = _tx(protocol, latency, FETCH_BEATS)
    assert _run(program, _rac(8, 16), protocol, latency,
                prefetch=False) == {"fetch": 2 * fetch,
                                    "decode": 2 * DECODE_CYCLES}
    assert _model(protocol, latency, prefetch=False).fetch_decode_cost(
        0) == Interval.point(fetch + DECODE_CYCLES)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
def test_fetch_past_the_instruction_buffer(protocol, latency):
    """The prefetch burst stops at the buffer; every instruction past
    it is fetched over the bus."""
    program = OuProgram()
    for _ in range(130):
        program.nop()
    program.eop()
    ibuf = 128
    past = len(program) - ibuf
    fetch = _tx(protocol, latency, FETCH_BEATS)
    assert _run(program, _rac(8, 16), protocol, latency) == {
        "prefetch": _tx(protocol, latency, ibuf),
        "fetch": ibuf * FETCH_CYCLES + past * fetch,
        "decode": len(program) * DECODE_CYCLES,
    }
    model = _model(protocol, latency)
    assert model.prefetch_cost(len(program)) == Interval.point(
        _tx(protocol, latency, ibuf))
    assert model.fetch_decode_cost(ibuf) == Interval.point(
        fetch + DECODE_CYCLES)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("imm", [1, 37])
def test_wait(protocol, latency, imm):
    """``wait n`` holds WAITING for exactly ``n`` cycles."""
    program = OuProgram().wait(imm).eop()
    assert _run(program, _rac(8, 16), protocol, latency) == {
        "prefetch": _tx(protocol, latency, 2), **_control(2),
        "waiting": imm}


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("words,chunk", [(8, 8), (40, 64), (40, 16)])
def test_mvtc_into_free_fifo(protocol, latency, words, chunk):
    """A fill into a FIFO with room for it is one transaction per
    instruction, back to back, with no stall."""
    rac = _rac(64, 64, autostart=False)
    program = OuProgram().stream_to(1, words, chunk=chunk).eop()
    sizes = [min(chunk, words - start) for start in range(0, words, chunk)]
    assert _run(program, rac, protocol, latency) == {
        "prefetch": _tx(protocol, latency, len(program)),
        **_control(len(program)),
        "xfer_to": sum(_tx(protocol, latency, size) for size in sizes),
    }
    model = _model(protocol, latency, rac)
    assert sum(model.mvtc_cost(size).lo for size in sizes) == sum(
        _tx(protocol, latency, size) for size in sizes)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("block,compute", [(8, 0), (8, 5), (40, 2)])
def test_exec_waits_for_the_op(protocol, latency, block, compute):
    """A blocking ``exec`` holds EXEC_WAIT through the operation's
    ticks after the DECODE cycle, plus the tick that sees end_op."""
    rac = _rac(block, 64, compute, autostart=False)
    op_ticks = rac.op_ticks
    assert op_ticks == block + compute + block
    program = OuProgram().stream_to(1, block).exec_().eop()
    cycles = _run(program, rac, protocol, latency)
    assert cycles["exec_wait"] == op_ticks - 1 + END_OP_CYCLES


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("words", [8, 40])
def test_mvfc_of_a_full_fifo(protocol, latency, words):
    """A drain of words already in the FIFO issues the controller's
    drain chunks back to back: no stall, one transaction each."""
    rac = _rac(words, 64, autostart=False)
    program = OuProgram().stream_to(1, words).exec_().stream_from(
        2, words).eop()
    chunks = _drain_chunks(words, protocol, 64)
    cost = sum(_tx(protocol, latency, chunk) for chunk in chunks)
    cycles = _run(program, rac, protocol, latency)
    assert cycles["xfer_from"] == cost
    assert "fifo_stall" not in cycles
    assert _model(protocol, latency, rac).mvfc_cost(words) == \
        Interval.point(cost)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("words,depth", [(24, 8), (40, 64)])
def test_mvfc_chunks_are_capped_by_burst_and_depth(protocol, latency,
                                                   words, depth):
    """Behind ``execs`` the drain waits for each chunk in turn: its
    cycles outside the FIFO stall are the drain chunks' transactions,
    whether the bus burst or the FIFO depth caps them."""
    rac = _rac(words, depth)
    program = OuProgram().stream_to(1, words, chunk=depth).execs()
    program.stream_from(2, words).eop()
    chunks = _drain_chunks(words, protocol, depth)
    cost = sum(_tx(protocol, latency, chunk) for chunk in chunks)
    cycles = _run(program, rac, protocol, latency)
    assert cycles["xfer_from"] - cycles["fifo_stall"] == cost
    assert _model(protocol, latency, rac).mvfc_cost(words) == \
        Interval.point(cost)


@pytest.mark.parametrize("protocol,latency", BUSES, ids=BUS_IDS)
@pytest.mark.parametrize("block,compute", [(8, 2), (16, 9)])
def test_execs_overlaps_the_op_with_the_drain(protocol, latency, block,
                                              compute):
    """Fill, ``execs``, drain of one chunk: the RAC starts a FIFO
    handoff after the fill's consume tick, the drain sees the op's
    last word a handoff after it is emitted, and the FSM spends a
    FETCH and a DECODE on each of ``execs`` and ``mvfc`` meanwhile.
    The drain's first cycle comes after those, so the stall is the
    rest of that span."""
    rac = _rac(block, 64, compute)
    program = OuProgram().stream_to(1, block).execs().stream_from(
        2, block).eop()
    cycles = _run(program, rac, protocol, latency)
    span = HANDOFF_CYCLES + rac.op_ticks - 1 + HANDOFF_CYCLES
    fsm = 2 * (FETCH_CYCLES + DECODE_CYCLES) + 1
    assert cycles["fifo_stall"] == span - fsm
    assert cycles["xfer_from"] - cycles["fifo_stall"] == _tx(
        protocol, latency, block)


def test_drain_chunk_is_the_smallest_cap():
    """The rule itself: what is left, the bus burst, the FIFO depth."""
    cases: List[Tuple[Tuple[int, int, int], int]] = [
        ((100, 16, 64), 16), ((100, 256, 64), 64), ((5, 16, 64), 5),
        ((64, 16, 8), 8)]
    for args, chunk in cases:
        assert drain_chunk(*args) == chunk
