"""Tests for the Zynq system model and the per-run attribution report."""

import pytest

from repro.core.program import OuProgram, figure4_program
from repro.obs import attribute_run
from repro.core.registers import REG_PROG_SIZE
from repro.rac.dft import DFTRac
from repro.rac.scale import PassthroughRac
from repro.sim.errors import ConfigurationError
from repro.sw.baremetal import BaremetalRuntime
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp
from repro.zynq import ZynqSoC, molen_portability_note

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x8000


def boot_and_run(soc, program, banks, max_cycles=500_000):
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, **banks}, len(program))
    return soc.sim.run_until(lambda: ocp.done, max_cycles=max_cycles)


# ---------------------------------------------------------------------------
# Zynq
# ---------------------------------------------------------------------------

def test_zynq_runs_figure4_correctly(q15_signal):
    n = 256
    soc = ZynqSoC(racs=[DFTRac(n_points=n)])
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    boot_and_run(soc, figure4_program(n), {1: IN, 2: OUT})
    out = fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
    assert out == fp.fft_q15(re, im)


def test_zynq_register_access_pays_bridge_latency(q15_signal):
    leon = SoC(racs=[PassthroughRac(block_size=16)])
    zynq = ZynqSoC(racs=[PassthroughRac(block_size=16)])
    leon_cycles = OuessantDriver(leon).write_register(REG_PROG_SIZE, 1)
    zynq_cycles = OuessantDriver(zynq).write_register(REG_PROG_SIZE, 1)
    assert zynq_cycles >= leon_cycles + zynq.gp_bridge_latency


def test_zynq_dma_still_efficient(q15_signal):
    """Bridge latency hits register accesses, not the HP-port bursts."""
    n = 256
    cycles = {}
    for name, soc in (("leon", SoC(racs=[DFTRac(n_points=n)])),
                      ("zynq", ZynqSoC(racs=[DFTRac(n_points=n)]))):
        re, im = q15_signal(n)
        soc.write_ram(IN, fp.interleave_complex(re, im))
        cycles[name] = boot_and_run(soc, figure4_program(n), {1: IN, 2: OUT})
    # AXI4 long bursts compensate the DDR latency: within 25%
    assert cycles["zynq"] < cycles["leon"] * 1.25


def test_zynq_driver_config_cost_higher_but_bounded():
    leon = SoC(racs=[PassthroughRac(block_size=16)])
    zynq = ZynqSoC(racs=[PassthroughRac(block_size=16)])
    results = {}
    for name, soc in (("leon", leon), ("zynq", zynq)):
        runtime = BaremetalRuntime(soc)
        soc.write_ram(IN, list(range(16)))
        program = (OuProgram().stream_to(1, 16).execs()
                   .stream_from(2, 16).eop())
        results[name] = runtime.run(program.words(),
                                    {0: PROG, 1: IN, 2: OUT})
        assert soc.read_ram(OUT, 16) == list(range(16))
    assert results["zynq"].config_cycles > results["leon"].config_cycles
    # 12 extra cycles x 12 register accesses: still tiny vs the payload
    delta = results["zynq"].config_cycles - results["leon"].config_cycles
    assert delta < 300


def test_zynq_validation_and_note():
    with pytest.raises(ConfigurationError):
        ZynqSoC(gp_bridge_latency=-1)
    assert "AXI" in molen_portability_note()


def test_zynq_has_no_iss_cpu():
    soc = ZynqSoC(racs=[PassthroughRac(block_size=4)])
    assert soc.cpu is None


# ---------------------------------------------------------------------------
# attribution (repro.obs.attribute_run)
# ---------------------------------------------------------------------------

def test_attribute_run_accounts_cycles(q15_signal):
    n = 64
    soc = SoC(racs=[DFTRac(n_points=n)])
    runtime = BaremetalRuntime(soc)
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    program = figure4_program(n)
    result = runtime.run(program.words(), {0: PROG, 1: IN, 2: OUT})
    report = attribute_run(soc, total_cycles=result.total_cycles)
    assert report.consistent
    assert report.total_cycles == result.total_cycles
    assert report.instructions == len(program)  # straight-line
    assert report.words_moved == 4 * n  # 2n words in, 2n out
    # pure data movement per word, FIFO stalls excluded
    busy = report.transfer_cycles - report.stall_cycles
    assert 0.5 < busy / report.words_moved < 3.0
    assert report.compute_cycles == 0  # Figure 4 uses execs
    assert report.fifo_in_high_water > 0


def test_profile_render_is_readable(q15_signal):
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    runtime = BaremetalRuntime(soc)
    soc.write_ram(IN, list(range(16)))
    program = (OuProgram().stream_to(1, 16).execs()
               .stream_from(2, 16).eop())
    result = runtime.run(program.words(), {0: PROG, 1: IN, 2: OUT})
    text = attribute_run(soc, workload="loopback",
                         total_cycles=result.total_cycles).render()
    assert text.startswith(f"loopback: {result.total_cycles} cycles")
    for label in ("transfer", "compute", "control", "stalls"):
        assert label in text
    assert "moved              32 words in 4 instructions" in text


def test_profile_transfer_cycles_match_controller_states(q15_signal):
    soc = SoC(racs=[PassthroughRac(block_size=64, fifo_depth=128)])
    runtime = BaremetalRuntime(soc)
    soc.write_ram(IN, list(range(64)))
    program = (OuProgram().stream_to(1, 64).execs()
               .stream_from(2, 64).eop())
    result = runtime.run(program.words(), {0: PROG, 1: IN, 2: OUT})
    report = attribute_run(soc, total_cycles=result.total_cycles)
    stats = soc.ocp.controller.stats
    assert report.transfer_cycles == (
        stats["cycles.xfer_to"] + stats["cycles.xfer_from"]
    )
    assert report.stall_cycles == stats["cycles.fifo_stall"]
