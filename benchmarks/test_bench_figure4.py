"""[F4] Figure 4: the published DFT microcode, assembled and executed.

The paper's only listed program: eight ``mvtc BANK1,k*64,DMA64,FIFO0``,
``execs``, eight ``mvfc BANK2,k*64,DMA64,FIFO0``, ``eop``.  We assemble
the literal text, run it against the DFT RAC, and verify both the
results and the controller's instruction accounting.
"""

from conftest import once

from repro.core.assembler import assemble_microcode
from repro.core.program import figure4_program
from repro.rac.dft import DFTRac
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

FIGURE4_TEXT = "\n".join(
    [f"mvtc BANK1,{64 * k},DMA64,FIFO0" for k in range(8)]
    + ["execs"]
    + [f"mvfc BANK2,{64 * k},DMA64,FIFO0" for k in range(8)]
    + ["eop"]
)

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x4000


def _run_figure4(q15_signal):
    n = 256
    words = assemble_microcode(FIGURE4_TEXT)
    soc = SoC(racs=[DFTRac(n_points=n)])
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    soc.write_ram(PROG, words)
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(words))
    cycles = soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    out = fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
    return soc, cycles, (re, im), out


def test_figure4_microcode_runs_verbatim(benchmark, q15_signal):
    soc, cycles, (re, im), out = once(
        benchmark, lambda: _run_figure4(q15_signal))
    assert out == fp.fft_q15(re, im)
    stats = soc.ocp.controller.stats
    print(f"\nFigure 4 program: {stats['instructions']} instructions, "
          f"{cycles} cycles")
    assert stats["instructions"] == 18
    assert stats["instr.mvtc"] == 8
    assert stats["instr.mvfc"] == 8
    assert stats["instr.execs"] == 1
    assert stats["instr.eop"] == 1
    assert stats["words_to_rac"] == 512
    assert stats["words_from_rac"] == 512
    # the in-text baremetal figure: ~4000 cycles start-to-done
    assert 3000 <= cycles <= 5000
    benchmark.extra_info["cycles"] = cycles


def test_figure4_text_equals_builder(benchmark):
    words = once(benchmark, lambda: assemble_microcode(FIGURE4_TEXT))
    assert words == figure4_program(256).words()
    assert len(words) == 18
