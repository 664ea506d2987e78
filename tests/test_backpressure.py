"""Backpressure and composition: slow consumers, chained OCPs."""

import pytest

from repro.core.program import OuProgram
from repro.rac.base import RAC, RACPortSpec
from repro.rac.idct import IDCTRac
from repro.rac.scale import ScaleRac
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp


class ThrottledLoopback(RAC):
    """Loopback that consumes/produces one word every ``period`` cycles.

    Stress case for the transfer engine: the input FIFO fills (mvtc
    must pace itself), the output FIFO drains slowly (mvfc must wait).
    """

    kind = "throttled"

    def __init__(self, name="throttled", block=32, period=7, fifo_depth=8):
        super().__init__(name, RACPortSpec([32], [32], fifo_depth))
        self.block = block
        self.period = period
        self._phase = 0
        self._taken = 0
        self._given = 0

    def tick(self):
        self._phase = (self._phase + 1) % self.period
        if self._phase:
            return
        fifo_in, fifo_out = self.inputs[0], self.outputs[0]
        if (self._taken < self.block and fifo_in.can_pop()
                and fifo_out.can_push()):
            fifo_out.push(fifo_in.pop())
            self._taken += 1
            self._given += 1
        if self._given == self.block and not self.end_op:
            self._finish_op()

    def reset(self):
        super().reset()
        self._phase = self._taken = self._given = 0


def boot(soc, program, banks):
    ocp = soc.ocp
    prog = RAM_BASE + 0x1000
    soc.write_ram(prog, program.words())
    ocp.start({0: prog, **banks}, len(program))
    return ocp


def test_figure4_order_deadlocks_past_fifo_capacity():
    """A forward-streaming RAC drains only through mvfc, so the
    all-in-then-all-out program order deadlocks once the block exceeds
    in-depth + out-depth -- a real microcode/FIFO sizing hazard."""
    from repro.sim.errors import DeadlockError

    soc = SoC(racs=[ThrottledLoopback()])  # 8 + 8 words of buffer
    inp, out = RAM_BASE + 0x2000, RAM_BASE + 0x3000
    soc.write_ram(inp, list(range(900, 932)))
    program = (OuProgram().stream_to(1, 32, chunk=16).execs()
               .stream_from(2, 32, chunk=16).eop())
    boot(soc, program, {1: inp, 2: out})
    with pytest.raises(DeadlockError):
        soc.sim.run_until(lambda: soc.ocp.done, max_cycles=20_000)


def test_interleaved_microcode_streams_through_tiny_fifos():
    """The fix for the hazard above: interleave mvtc/mvfc chunks.  The
    engine paces each chunk to the 8-deep FIFOs and the 7x-slower RAC
    without ever overflowing."""
    soc = SoC(racs=[ThrottledLoopback()])
    inp, out = RAM_BASE + 0x2000, RAM_BASE + 0x3000
    soc.write_ram(inp, list(range(900, 932)))
    program = OuProgram()
    program.execs()
    for chunk_no in range(4):
        program.mvtc(1, 8 * chunk_no, 8)
        program.mvfc(2, 8 * chunk_no, 8)
    program.eop()
    boot(soc, program, {1: inp, 2: out})
    cycles = soc.sim.run_until(lambda: soc.ocp.done, max_cycles=50_000)
    assert soc.read_ram(out, 32) == list(range(900, 932))
    # throughput limited by the RAC (1 word / 7 cycles), not by the bus
    assert cycles > 32 * 7
    # the engine stalled (politely) instead of overflowing
    assert soc.ocp.controller.stats["cycles.fifo_stall"] > 0
    max_atoms = soc.ocp.fifos_in[0].stats["max_occupancy_atoms"]
    assert max_atoms <= 8  # never beyond the FIFO's depth


def test_two_ocps_chained_through_memory():
    """OCP0's output region is OCP1's input region: a software-managed
    accelerator pipeline (scale, then IDCT) on one bus."""
    scale = ScaleRac(block_size=64, factor=2, shift=0, fifo_depth=128)
    idct = IDCTRac(fifo_depth=128)
    soc = SoC(racs=[scale, idct])
    stage0_in = RAM_BASE + 0x2000
    handoff = RAM_BASE + 0x3000
    final = RAM_BASE + 0x4000

    block = [[(r * 8 + c) % 32 - 16 for c in range(8)] for r in range(8)]
    halved = [[v for v in row] for row in block]
    soc.write_ram(stage0_in, fp.block_to_words(halved))

    program = (OuProgram().stream_to(1, 64).execs()
               .stream_from(2, 64).eop())

    d0 = OuessantDriver(soc, ocp_index=0)
    d1 = OuessantDriver(soc, ocp_index=1)
    d0.run(program.words(),
           {0: RAM_BASE + 0x1000, 1: stage0_in, 2: handoff})
    d1.run(program.words(),
           {0: RAM_BASE + 0x5000, 1: handoff, 2: final})

    doubled = [[2 * v for v in row] for row in block]
    assert fp.words_to_block(soc.read_ram(final, 64)) == fp.idct2_q15(doubled)


def test_chained_ocps_overlap_when_started_together():
    """Both OCPs started back-to-back on independent data: concurrent
    operation is cheaper than the sum of solo runs."""
    soc = SoC(racs=[ScaleRac("s0", block_size=256, factor=1, shift=0,
                             fifo_depth=128),
                    ScaleRac("s1", block_size=256, factor=1, shift=0,
                             fifo_depth=128)])
    program = (OuProgram().stream_to(1, 256, chunk=64).execs()
               .stream_from(2, 256, chunk=64).eop())
    words = program.words()
    for index in range(2):
        base = RAM_BASE + 0x10_0000 * (index + 1)
        soc.write_ram(base, words)
        soc.write_ram(base + 0x4000, list(range(256)))
        soc.ocps[index].start(
            {0: base, 1: base + 0x4000, 2: base + 0x8000}, len(words))
    both = soc.sim.run_until(lambda: all(o.done for o in soc.ocps),
                             max_cycles=100_000)

    solo_soc = SoC(racs=[ScaleRac("s0", block_size=256, factor=1, shift=0,
                                  fifo_depth=128)])
    solo_soc.write_ram(RAM_BASE + 0x10_0000, words)
    solo_soc.write_ram(RAM_BASE + 0x10_4000, list(range(256)))
    ocp = solo_soc.ocp
    ocp.start({0: RAM_BASE + 0x10_0000, 1: RAM_BASE + 0x10_4000,
               2: RAM_BASE + 0x10_8000}, len(words))
    solo = solo_soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)

    assert both < 2 * solo
