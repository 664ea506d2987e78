"""[A6] Future-work features realized: DPR, standalone, looped ISA, HLS.

Section VI lists work in progress: Zynq/AXI4 integration (covered by
the protocol bench), Dynamic Partial Reconfiguration, standalone
processor-free operation, a richer instruction set, and HLS interface
generation.  This bench exercises each and quantifies its cost.
"""

from conftest import once

from repro.core.dpr import DPRManager, PartialBitstream
from repro.core.program import OuProgram, figure4_looped_program, figure4_program
from repro.core.registers import REG_CTRL
from repro.core.standalone import StandaloneSequencer
from repro.rac.dft import DFTRac
from repro.rac.hls import HLSInterfaceSpec, wrap_function
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sw.baremetal import BaremetalRuntime
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x4000


def _boot(soc, program, banks):
    ocp = soc.ocp
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, **banks}, len(program))
    return ocp


def test_dpr_swap_idct_to_dft(benchmark, q15_signal):
    """One OCP serves both of the paper's accelerators via DPR."""
    def measure():
        soc = SoC(racs=[IDCTRac()])
        manager = DPRManager(soc.sim, soc.ocp)
        # run an IDCT
        block = [[100] * 8 for _ in range(8)]
        soc.write_ram(IN, fp.block_to_words(block))
        program = (OuProgram().stream_to(1, 64).execs()
                   .stream_from(2, 64).eop())
        _boot(soc, program, {1: IN, 2: OUT})
        soc.sim.run_until(lambda: soc.ocp.done, max_cycles=100_000)
        assert fp.words_to_block(soc.read_ram(OUT, 64)) == fp.idct2_q15(block)
        soc.ocp.interface.write_word(REG_CTRL, 0)

        # swap to the DFT (typical small partial bitstream)
        reconf_cycles = manager.reconfigure(
            PartialBitstream(DFTRac(n_points=64), size_words=25_000))

        # run a DFT through the SAME interface/controller
        re, im = q15_signal(64)
        soc.write_ram(IN, fp.interleave_complex(re, im))
        _boot(soc, figure4_program(64), {1: IN, 2: OUT})
        soc.sim.run_until(lambda: soc.ocp.done, max_cycles=100_000)
        out = fp.deinterleave_complex(soc.read_ram(OUT, 128))
        assert out == fp.fft_q15(re, im)
        return reconf_cycles

    reconf_cycles = once(benchmark, measure)
    print(f"\nDPR swap IDCT->DFT: {reconf_cycles} reconfiguration cycles "
          f"({reconf_cycles / 50_000:.1f} ms at 50 MHz)")
    benchmark.extra_info["reconfiguration_cycles"] = reconf_cycles


def test_standalone_throughput(benchmark):
    """Processor-free streaming: runs per second with zero GPP work."""
    def measure():
        soc = SoC(racs=[PassthroughRac(block_size=64, fifo_depth=128)],
                  with_cpu=False)
        program = (OuProgram().stream_to(1, 64).execs()
                   .stream_from(2, 64).eop())
        soc.write_ram(PROG, program.words())
        soc.write_ram(IN, list(range(64)))
        sequencer = StandaloneSequencer(
            "straps", soc.ocp, bank_bases={0: PROG, 1: IN, 2: OUT},
            prog_size=len(program), restart=True, max_runs=10,
        )
        soc.sim.add(sequencer)
        soc.sim.run_until(lambda: sequencer.runs_completed >= 10,
                          max_cycles=500_000)
        return soc.sim.cycle / 10

    cycles_per_run = once(benchmark, measure)
    print(f"\nstandalone free-running: {cycles_per_run:.0f} cycles/block "
          f"(no processor in the system)")
    assert cycles_per_run < 1000
    benchmark.extra_info["cycles_per_run"] = cycles_per_run


def test_looped_isa_compresses_microcode(benchmark, q15_signal):
    """The extension ISA shrinks Figure 4 from 18 to 12 words with a
    negligible cycle penalty (loop bookkeeping)."""
    def measure():
        out = {}
        for label, program in (("unrolled", figure4_program(256)),
                               ("looped", figure4_looped_program(256))):
            soc = SoC(racs=[DFTRac(n_points=256)])
            re, im = q15_signal(256)
            soc.write_ram(IN, fp.interleave_complex(re, im))
            _boot(soc, program, {1: IN, 2: OUT})
            cycles = soc.sim.run_until(lambda: soc.ocp.done,
                                       max_cycles=100_000)
            assert (fp.deinterleave_complex(soc.read_ram(OUT, 512))
                    == fp.fft_q15(re, im))
            out[label] = (len(program), cycles)
        return out

    results = once(benchmark, measure)
    print()
    for label, (words, cycles) in results.items():
        print(f"  {label:<9} {words:>3} instruction words, {cycles} cycles")
    unrolled_words, unrolled_cycles = results["unrolled"]
    looped_words, looped_cycles = results["looped"]
    assert looped_words < unrolled_words
    assert looped_cycles < unrolled_cycles * 1.10  # <10% penalty
    benchmark.extra_info.update(
        {"unrolled": results["unrolled"], "looped": results["looped"]}
    )


def test_hls_wrapper_integration_cost(benchmark):
    """Section VI: automatic interface generation for HLS accelerators.
    A wrapped Python function integrates with zero extra microcode."""
    def measure():
        spec = HLSInterfaceSpec(items_in=[64], items_out=[64],
                                initiation_interval=1, pipeline_depth=12)
        rac = wrap_function(
            "sum-prefix",
            lambda c: [[sum(c[0][: i + 1]) & 0xFFFFFFFF
                        for i in range(len(c[0]))]],
            spec,
        )
        soc = SoC(racs=[rac])
        runtime = BaremetalRuntime(soc)
        soc.write_ram(IN, [1] * 64)
        program = (OuProgram().stream_to(1, 64).execs()
                   .stream_from(2, 64).eop())
        result = runtime.run(program.words(), {0: PROG, 1: IN, 2: OUT})
        assert soc.read_ram(OUT, 64) == list(range(1, 65))
        return result.total_cycles

    cycles = once(benchmark, measure)
    print(f"\nHLS-wrapped accelerator end-to-end: {cycles} cycles")
    assert cycles < 2000
    benchmark.extra_info["cycles"] = cycles
