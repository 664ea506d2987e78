"""Tests for the experiment drivers (fast variants of the benchmarks)."""

import random

import pytest

from repro.analysis import (
    TableOneRow,
    measure_dft_hw,
    measure_idct_hw,
    measure_idct_sw,
    measure_transfer_efficiency,
    render_table_one,
    table_one,
)
from repro.core.program import (
    OuProgram,
    figure4_looped_program,
    figure4_program,
)
from repro.core.registers import CTRL_IE, CTRL_S
from repro.rac.dft import DFTRac
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sw.baremetal import BaremetalRuntime
from repro.sw.library import OuessantLibrary
from repro.system import OCP_BASE, RAM_BASE, SoC
from repro.utils import fixedpoint as fp


def test_table_row_gain():
    row = TableOneRow("X", lat=10, hw=100, sw=250)
    assert row.gain == 2.5


def test_idct_hw_measurement_correct_and_in_band():
    result, correct = measure_idct_hw(environment="linux")
    assert correct
    # paper: 3000 cycles for IDCT under Linux
    assert 2500 <= result.total_cycles <= 4500


def test_idct_sw_measurement_in_band():
    run = measure_idct_sw()
    # paper: 5000 cycles
    assert 4000 <= run.cycles <= 7000


def test_dft_hw_baremetal_vs_linux_overhead():
    bare, ok_b = measure_dft_hw(64, environment="baremetal")
    lin, ok_l = measure_dft_hw(64, environment="linux")
    assert ok_b and ok_l
    overhead = lin.total_cycles - bare.total_cycles
    # paper in-text: ~3000 cycles of Linux overhead
    assert 2800 <= overhead <= 3200


def test_transfer_efficiency_near_paper():
    m = measure_transfer_efficiency(1024)
    assert m.words == 1024
    # paper in-text: ~1.5 cycles per word
    assert 1.0 <= m.cycles_per_word <= 1.8


def test_transfer_efficiency_validates_input():
    with pytest.raises(ValueError):
        measure_transfer_efficiency(33)


@pytest.mark.slow
def test_table_one_small_dft_shape():
    """Scaled-down Table I (DFT-64 to keep the ISS run short)."""
    rows = table_one(dft_points=64, environment="linux")
    idct, dft = rows
    assert idct.name == "IDCT" and dft.name == "DFT"
    assert idct.lat == 18
    # who-wins: hardware beats software on both rows
    assert idct.gain > 1.0
    assert dft.gain > 5.0
    text = render_table_one(rows)
    assert "Gain" in text and "IDCT" in text


def test_table_one_full_size_rows_match_experiments():
    """The full Table I (256-point DFT) pins the EXPERIMENTS.md T1 rows:
    Lat / HW / SW exactly, and with them the gains 1.61 and 218."""
    rows = table_one()
    assert [(r.name, r.lat, r.hw, r.sw) for r in rows] == [
        ("IDCT", 18, 3293, 5309),
        ("DFT", 2485, 6935, 1_511_186),
    ]
    assert [round(r.gain, 2) for r in rows] == [1.61, 217.91]


def test_table_one_fft_software_ablation_matches_experiments():
    """The T1 bracket from below: the radix-2 FFT kernel's 68 282
    cycles against the 6935-cycle Linux DFT row, gain 9.8."""
    rows = table_one(dft_points=256, environment="linux",
                     sw_dft_algorithm="fft")
    assert (rows[1].name, rows[1].hw, rows[1].sw) == ("DFT", 6935, 68_282)
    assert round(rows[1].gain, 1) == 9.8


def test_linux_overhead_and_transfer_cycles_match_experiments():
    """The EXPERIMENTS.md numbers measured through the driver and the
    Linux model, exactly: C1 (DFT-256 baremetal 3935, Linux 6935,
    overhead 3000) and C2 (1024 words in 1433 cycles)."""
    bare, ok_b = measure_dft_hw(256, environment="baremetal")
    linux, ok_l = measure_dft_hw(256, environment="linux")
    assert ok_b and ok_l
    assert (bare.total_cycles, linux.total_cycles) == (3935, 6935)
    assert linux.total_cycles - bare.total_cycles == 3000
    transfer = measure_transfer_efficiency(1024)
    assert (transfer.words, transfer.cycles) == (1024, 1433)


def test_idct_batch_totals_match_experiments():
    """A8: one Linux ``idct_batch`` call over 1 / 4 / 16 / 64 blocks
    (the seed-9 blocks of ``benchmarks/test_bench_batching.py``) costs
    exactly the totals behind the EXPERIMENTS.md cycles-per-block
    column (3293, 1020, 452, 310)."""
    totals = {}
    for batch in (1, 4, 16, 64):
        rng = random.Random(9)
        blocks = [[[rng.randint(-300, 300) for _ in range(8)]
                   for _ in range(8)] for _ in range(batch)]
        library = OuessantLibrary(SoC(racs=[IDCTRac(fifo_depth=128)]),
                                  environment="linux")
        library.idct_batch(blocks)
        totals[batch] = library.last_result.total_cycles
    assert totals == {1: 3293, 4: 4079, 16: 7229, 64: 19_858}


# -- exact pins of the ablation cells (A1, A2, A9, A6) ----------------------
#
# ``benchmarks/`` states the paper-agreement claims as ranges; these pin
# the EXPERIMENTS.md numbers themselves, with the same workloads.

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000


def _q15_signal(n, seed=2016):
    rng = random.Random(seed)
    return ([fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)],
            [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)])


def _boot(soc, program, banks):
    """Stage ``program`` at PROG, program the OCP's registers over the
    backdoor and set S: the benches' register-level boot."""
    ocp = soc.ocp
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, **banks}, len(program))
    return ocp


def _figure4_cycles(soc, out=RAM_BASE + 0x8000, n=256, program=None):
    """Cycles of the Figure 4 DFT on ``soc``, with a correctness check."""
    re, im = _q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    ocp = _boot(soc, program or figure4_program(n), {1: IN, 2: out})
    cycles = soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)
    assert fp.deinterleave_complex(soc.read_ram(out, 2 * n)) == \
        fp.fft_q15(re, im)
    return cycles


def _loopback_program(words, chunk=None):
    kw = {} if chunk is None else {"chunk": chunk}
    return (OuProgram().stream_to(1, words, **kw).execs()
            .stream_from(2, words, **kw).eop())


def test_a1_protocol_sweep_cycles_match_experiments():
    from repro.bus.protocol import ALL_PROTOCOLS

    cycles = {p.name: _figure4_cycles(SoC(racs=[DFTRac(n_points=256)],
                                          protocol=p),
                                      out=RAM_BASE + 0x4000)
              for p in ALL_PROTOCOLS}
    assert cycles == {
        "AXI4": 3815, "Wishbone-B4": 3815, "AHB": 3912, "PLB": 3957,
        "Wishbone": 4791, "AXI4-Lite": 8824,
    }


def test_a7_zynq_port_matches_experiments():
    """The Figure 4 DFT on the Zynq/AXI4 port vs the Leon3/AHB SoC."""
    from repro.zynq import ZynqSoC

    cycles = {name: _figure4_cycles(soc_class(racs=[DFTRac(n_points=256)]))
              for name, soc_class in (("Leon3/AHB", SoC),
                                      ("Zynq/AXI4", ZynqSoC))}
    assert cycles == {"Leon3/AHB": 3912, "Zynq/AXI4": 3973}


def _a2_ouessant():
    rac = PassthroughRac(block_size=512, fifo_depth=128,
                         compute_latency=2485)
    soc = SoC(racs=[rac])
    soc.write_ram(IN, list(range(512)))
    return BaremetalRuntime(soc).run(
        _loopback_program(512, chunk=64).words(),
        {0: PROG, 1: IN, 2: RAM_BASE + 0x8000})


def test_a2_integration_styles_match_experiments():
    """Same 512-word, 2485-cycle datapath behind four integrations, and
    the GPP's share of the Ouessant run."""
    from repro.baselines.dma_slave import (
        SLAVE_WINDOW_BYTES,
        BurstSlaveAccelerator,
        DMAHarness,
    )
    from repro.baselines.molen import molen_run_estimate
    from repro.baselines.pio_slave import PIOHarness, SlaveAccelerator
    from repro.bus.bus import SystemBus
    from repro.mem.dma import DMAEngine
    from repro.mem.memory import Memory
    from repro.sim.kernel import Simulator

    def system(accel_cls, window):
        sim = Simulator()
        bus = sim.add(SystemBus())
        mem = Memory("ram", 1 << 16, access_latency=1)
        bus.attach_slave("ram", 0x0, 1 << 16, mem)
        accel = accel_cls("accel", compute_fn=list, items_in=512,
                          items_out=512, compute_latency=2485)
        bus.attach_slave("accel", 0x9000_0000, window, accel)
        sim.add(accel)
        return sim, bus, mem

    sim, bus, _ = system(SlaveAccelerator, 64)
    outputs, pio = PIOHarness(sim, bus, 0x9000_0000).run(
        list(range(512)), 512)
    assert outputs == list(range(512))
    sim, bus, mem = system(BurstSlaveAccelerator, SLAVE_WINDOW_BYTES)
    dma = sim.add(DMAEngine("dma", bus=bus, buffer_words=64))
    bus.attach_slave("dma", 0x9100_0000, 64, dma)
    mem.load_words(0x100, list(range(512)))
    dma_cycles = DMAHarness(sim, bus, dma, 0x9100_0000, 0x9000_0000).run(
        0x100, 0x4000, 512, 512)
    result = _a2_ouessant()
    molen = molen_run_estimate(512, 512, 2485).total_cycles
    assert (molen, result.total_cycles, dma_cycles, pio) == \
        (3513, 3917, 4832, 6592)
    busy = result.config_cycles + result.ack_cycles
    assert (busy, result.total_cycles - busy) == (24, 3893)


def test_a9_memory_latency_and_technology_match_experiments():
    from repro.mem.sdram import SDRAM

    cycles = {}
    for latency in (0, 1, 2, 4, 8):
        soc = SoC(racs=[DFTRac(n_points=256)])
        soc.memory.access_latency = latency
        cycles[latency] = _figure4_cycles(soc)
    assert cycles == {0: 3841, 1: 3912, 2: 3982, 4: 4130, 8: 4413}
    sdram = SDRAM("sdram", 16 << 20, cas_latency=3, row_miss_penalty=9)
    assert _figure4_cycles(SoC(racs=[DFTRac(n_points=256)],
                               memory=sdram)) == 4114
    assert round(sdram.row_hit_rate, 2) == 0.94


def test_a9_fifo_depth_sweep_matches_experiments():
    """Total cycles and ``cycles.fifo_stall`` per FIFO depth."""
    results = {}
    for depth in (16, 32, 64, 128):
        soc = SoC(racs=[PassthroughRac(block_size=256, fifo_depth=depth)])
        soc.write_ram(IN, list(range(256)))
        result = BaremetalRuntime(soc).run(
            _loopback_program(256, chunk=64).words(),
            {0: PROG, 1: IN, 2: RAM_BASE + 0x8000})
        results[depth] = (result.total_cycles,
                          soc.ocp.controller.stats["cycles.fifo_stall"])
    assert results == {16: (831, 21), 32: (778, 29), 64: (769, 42),
                       128: (771, 77)}


def test_a9_wfi_vs_polling_and_sw_idct_cost_models_match_experiments():
    from repro.baselines.software import software_idct
    from repro.cpu.assembler import assemble
    from repro.cpu.isa import CostModel

    def driver_run(polling):
        soc = SoC(racs=[DFTRac(n_points=256)])
        re, im = _q15_signal(256)
        out = RAM_BASE + 0x8000
        soc.write_ram(IN, fp.interleave_complex(re, im))
        soc.write_ram(PROG, figure4_program(256).words())
        wait = ("spin: lw r4, 0(r1)\n andi r5, r4, 4\n beq r5, r0, spin"
                if polling else "spin: wfi\n lw r4, 0(r1)\n"
                " andi r5, r4, 4\n beq r5, r0, spin")
        soc.cpu.load(assemble(f"""
            li   r1, {OCP_BASE}
            li   r2, {PROG}
            sw   r2, 8(r1)
            li   r2, {IN}
            sw   r2, 12(r1)
            li   r2, {out}
            sw   r2, 16(r1)
            addi r3, r0, 18
            sw   r3, 4(r1)
            addi r3, r0, {CTRL_S | CTRL_IE}
            sw   r3, 0(r1)
        {wait}
            sw   r0, 0(r1)
            halt
        """, text_base=RAM_BASE, data_base=RAM_BASE + 0x10_0000))
        soc.sim.run_until(lambda: soc.cpu.halted, max_cycles=500_000)
        assert fp.deinterleave_complex(soc.read_ram(out, 512)) == \
            fp.fft_q15(re, im)
        return soc.sim.cycle

    assert (driver_run(polling=False), driver_run(polling=True)) == \
        (3960, 3984)
    block = [[100] * 8 for _ in range(8)]
    costs = [CostModel(), CostModel(mul=4), CostModel(load=2),
             CostModel(mul=5, load=2, branch=2)]
    assert [software_idct(block, cost_model=cost)[1].cycles
            for cost in costs] == [5309, 8381, 7357, 11725]


def test_a6_extensions_match_experiments():
    """DPR swap cost, standalone cycles per block, the looped ISA's
    size and cycles, and the HLS wrapper's end-to-end run."""
    from repro.core.dpr import DPRManager, PartialBitstream
    from repro.core.standalone import StandaloneSequencer
    from repro.rac.hls import HLSInterfaceSpec, wrap_function

    out = RAM_BASE + 0x4000
    soc = SoC(racs=[IDCTRac()])
    manager = DPRManager(soc.sim, soc.ocp)
    assert manager.reconfigure(PartialBitstream(
        DFTRac(n_points=64), size_words=25_000)) == 25_000
    assert _figure4_cycles(soc, out=out, n=64) > 0

    soc = SoC(racs=[PassthroughRac(block_size=64, fifo_depth=128)],
              with_cpu=False)
    program = _loopback_program(64)
    soc.write_ram(PROG, program.words())
    soc.write_ram(IN, list(range(64)))
    sequencer = soc.sim.add(StandaloneSequencer(
        "straps", soc.ocp, bank_bases={0: PROG, 1: IN, 2: out},
        prog_size=len(program), restart=True, max_runs=10))
    soc.sim.run_until(lambda: sequencer.runs_completed >= 10,
                      max_cycles=500_000)
    assert soc.sim.cycle == 2540  # 254 cycles per block

    isa = {label: (len(program),
                   _figure4_cycles(SoC(racs=[DFTRac(n_points=256)]),
                                   out=out, program=program))
           for label, program in (("unrolled", figure4_program(256)),
                                  ("looped", figure4_looped_program(256)))}
    assert isa == {"unrolled": (18, 3912), "looped": (12, 3963)}

    spec = HLSInterfaceSpec(items_in=[64], items_out=[64],
                            initiation_interval=1, pipeline_depth=12)
    rac = wrap_function(
        "sum-prefix",
        lambda c: [[sum(c[0][: i + 1]) & 0xFFFFFFFF
                    for i in range(len(c[0]))]], spec)
    soc = SoC(racs=[rac])
    soc.write_ram(IN, [1] * 64)
    result = BaremetalRuntime(soc).run(_loopback_program(64).words(),
                                       {0: PROG, 1: IN, 2: out})
    assert soc.read_ram(out, 64) == list(range(1, 65))
    assert result.total_cycles == 287


def test_a3_dft_size_sweep_matches_experiments():
    """A3: Linux HW against direct software DFT cycles at N = 16, 64 and
    256, and the gains 1.8, 23 and 218 EXPERIMENTS.md quotes."""
    from repro.analysis import measure_dft_sw

    rows = {}
    for n in (16, 64, 256):
        hw, ok = measure_dft_hw(n, environment="linux")
        assert ok
        rows[n] = (hw.total_cycles,
                   measure_dft_sw(n, algorithm="direct").cycles)
    assert rows == {16: (3450, 6146), 64: (4140, 95_186),
                    256: (6935, 1_511_186)}
    assert [round(sw / hw, 1) for hw, sw in rows.values()] == \
        [1.8, 23.0, 217.9]


def _concurrent_loopback_cycles(n_ocps, words=256):
    """Cycles until ``n_ocps`` OCPs sharing one AHB each finish one
    ``words``-word loopback (the A7 bus-sharing bench's workload)."""
    soc = SoC(racs=[PassthroughRac(name=f"loop{i}", block_size=words,
                                   fifo_depth=128, compute_latency=100)
                    for i in range(n_ocps)])
    program = _loopback_program(words, chunk=64)
    for index, ocp in enumerate(soc.ocps):
        base = RAM_BASE + 0x10_0000 * (index + 1)
        soc.write_ram(base, program.words())
        soc.write_ram(base + 0x1000, list(range(words)))
        banks = {0: base, 1: base + 0x1000, 2: base + 0x4000}
        ocp.start(banks, len(program))
    soc.sim.run_until(lambda: all(ocp.done for ocp in soc.ocps),
                      max_cycles=1_000_000)
    for index in range(n_ocps):
        base = RAM_BASE + 0x10_0000 * (index + 1)
        assert soc.read_ram(base + 0x4000, words) == list(range(words))
    return soc.sim.cycle


def test_a7_bus_sharing_matches_experiments():
    """A7: 1, 2 and 4 OCPs on one bus finish one 256-word loopback each
    in exactly 847 / 1343 / 2444 cycles (4 operations in ~2.9x the
    single-OCP time, aggregate 0.60 -> 0.84 words/cycle)."""
    cycles = {n: _concurrent_loopback_cycles(n) for n in (1, 2, 4)}
    assert cycles == {1: 847, 2: 1343, 4: 2444}
    assert round(cycles[4] / cycles[1], 1) == 2.9
    assert [round(2 * 256 * n / c, 2) for n, c in cycles.items()] == \
        [0.6, 0.76, 0.84]
