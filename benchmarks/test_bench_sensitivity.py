"""Sensitivity ablations around the paper's design constants.

None of these appear as numbers in the paper, but each probes one of
its design decisions: the SRAM wait state (Nexys4 memory), the FIFO
depth (BRAM budget vs stall cycles), and bus contention from a polling
CPU (why interrupt mode is the measured configuration).
"""

from conftest import once

from repro.core.program import OuProgram, figure4_program
from repro.core.registers import CTRL_IE, CTRL_S
from repro.cpu.assembler import assemble
from repro.rac.dft import DFTRac
from repro.rac.scale import PassthroughRac
from repro.sw.baremetal import BaremetalRuntime
from repro.system import OCP_BASE, RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x8000


def _dft_run(soc, q15_signal, n=256):
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    soc.write_ram(PROG, figure4_program(n).words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(figure4_program(n)))
    cycles = soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)
    assert (fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
            == fp.fft_q15(re, im))
    return cycles


def test_memory_latency_sweep(benchmark, q15_signal):
    """Burst DMA hides wait states: even 8-cycle memory costs < 35%."""
    def sweep():
        results = {}
        for latency in (0, 1, 2, 4, 8):
            soc = SoC(racs=[DFTRac(n_points=256)])
            soc.memory.access_latency = latency
            results[latency] = _dft_run(soc, q15_signal)
        return results

    results = once(benchmark, sweep)
    print()
    for latency, cycles in sorted(results.items()):
        print(f"  memory latency {latency}: {cycles} cycles")
        benchmark.extra_info[f"lat{latency}"] = cycles
    assert results[8] < results[1] * 1.35
    assert results[0] <= results[8]


def test_fifo_depth_sweep(benchmark):
    """Deeper FIFOs trade BRAM for fewer transfer-engine stalls."""
    def sweep():
        results = {}
        for depth in (16, 32, 64, 128):
            rac = PassthroughRac(block_size=256, fifo_depth=depth)
            soc = SoC(racs=[rac])
            runtime = BaremetalRuntime(soc)
            soc.write_ram(IN, list(range(256)))
            program = (OuProgram().stream_to(1, 256, chunk=64).execs()
                       .stream_from(2, 256, chunk=64).eop())
            result = runtime.run(program.words(),
                                 {0: PROG, 1: IN, 2: OUT})
            stalls = soc.ocp.controller.stats["cycles.fifo_stall"]
            results[depth] = (result.total_cycles, stalls)
        return results

    results = once(benchmark, sweep)
    print()
    for depth, (cycles, stalls) in sorted(results.items()):
        print(f"  depth {depth:>4}: {cycles} cycles, {stalls} stall cycles")
        benchmark.extra_info[f"depth{depth}"] = cycles
    assert results[128][0] <= results[16][0]


def test_memory_technology_sram_vs_sdram(benchmark, q15_signal):
    """Open-row DRAM barely hurts Ouessant: its long sequential bursts
    are row-friendly (another reason integrated DMA beats PIO)."""
    from repro.mem.sdram import SDRAM

    def measure():
        out = {}
        soc = SoC(racs=[DFTRac(n_points=256)])
        out["SRAM"] = (_dft_run(soc, q15_signal), None)
        sdram = SDRAM("sdram", 16 << 20, cas_latency=3, row_miss_penalty=9)
        soc = SoC(racs=[DFTRac(n_points=256)], memory=sdram)
        out["SDRAM"] = (_dft_run(soc, q15_signal), sdram.row_hit_rate)
        return out

    results = once(benchmark, measure)
    print()
    for name, (cycles, hit_rate) in results.items():
        extra = f", row hit rate {hit_rate:.2f}" if hit_rate is not None else ""
        print(f"  {name:<6} {cycles} cycles{extra}")
        benchmark.extra_info[name] = cycles
    sram_cycles = results["SRAM"][0]
    sdram_cycles, hit_rate = results["SDRAM"]
    assert sdram_cycles < sram_cycles * 1.25
    assert hit_rate > 0.5


def test_cpu_cost_model_sensitivity(benchmark):
    """Table I's SW column under different Leon3 configurations: the
    gain conclusion survives any plausible in-order timing."""
    from repro.analysis import measure_dft_sw, measure_idct_sw
    from repro.baselines.software import software_idct
    from repro.cpu.isa import CostModel

    configs = {
        "mac+cache (default)": CostModel(),
        "no MAC (mul=4)": CostModel(mul=4),
        "slow loads (load=2)": CostModel(load=2),
        "pessimistic": CostModel(mul=5, load=2, branch=2),
    }

    def measure():
        block = [[100] * 8 for _ in range(8)]
        return {
            name: software_idct(block, cost_model=cost)[1].cycles
            for name, cost in configs.items()
        }

    results = once(benchmark, measure)
    print()
    for name, cycles in results.items():
        print(f"  {name:<22} IDCT SW = {cycles} cycles "
              f"(gain vs HW-3293: {cycles / 3293:.2f}x)")
        benchmark.extra_info[name] = cycles
    # the default lands on the paper's 5000; every variant still loses
    # to the 3293-cycle hardware path
    assert 4000 <= results["mac+cache (default)"] <= 7000
    assert all(cycles > 3293 for cycles in results.values())


def test_bus_contention_from_polling_cpu(benchmark, q15_signal):
    """A CPU spinning on CTRL steals bus slots from the OCP's DMA."""
    n = 256

    def build(polling: bool):
        soc = SoC(racs=[DFTRac(n_points=n)])
        re, im = q15_signal(n)
        soc.write_ram(IN, fp.interleave_complex(re, im))
        soc.write_ram(PROG, figure4_program(n).words())
        wait = "spin: lw r4, 0(r1)\n andi r5, r4, 4\n beq r5, r0, spin" \
            if polling else "spin: wfi\n lw r4, 0(r1)\n andi r5, r4, 4\n beq r5, r0, spin"
        source = f"""
            li   r1, {OCP_BASE}
            li   r2, {PROG}
            sw   r2, 8(r1)
            li   r2, {IN}
            sw   r2, 12(r1)
            li   r2, {OUT}
            sw   r2, 16(r1)
            addi r3, r0, 18
            sw   r3, 4(r1)
            addi r3, r0, {CTRL_S | CTRL_IE}
            sw   r3, 0(r1)
        {wait}
            sw   r0, 0(r1)
            halt
        """
        program = assemble(source, text_base=RAM_BASE,
                           data_base=RAM_BASE + 0x10_0000)
        soc.cpu.load(program)
        soc.sim.run_until(lambda: soc.cpu.halted, max_cycles=500_000)
        out = fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
        assert out == fp.fft_q15(re, im)
        return soc.sim.cycle

    def measure():
        return build(polling=False), build(polling=True)

    wfi_cycles, polling_cycles = once(benchmark, measure)
    print(f"\nwfi wait: {wfi_cycles} cycles, busy polling: "
          f"{polling_cycles} cycles")
    # polling contends with the OCP's bursts on the shared bus
    assert polling_cycles >= wfi_cycles
    benchmark.extra_info.update(
        {"wfi": wfi_cycles, "polling": polling_cycles}
    )
