"""Waveform probe (VCD) and per-run attribution coverage."""

import pytest

from repro.core.program import OuProgram
from repro.obs import attribute_run
from repro.rac.scale import PassthroughRac
from repro.sim.errors import ReproError
from repro.sim.kernel import Component, Simulator
from repro.sim.tracing import VCDWriter
from repro.sim.waveform import WaveformProbe, ocp_probe
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000
BLOCK = 16


class _Counter(Component):
    def __init__(self) -> None:
        super().__init__("ctr")
        self.value = 0

    def tick(self) -> None:
        self.value += 1


def test_vcd_golden():
    """A two-signal probe over four cycles renders a pinned VCD."""
    sim = Simulator()
    counter = sim.add(_Counter())
    vcd = VCDWriter(timescale="20ns")
    sim.add(WaveformProbe("probe", vcd, {
        "count": lambda: counter.value,
        "lsb": lambda: counter.value & 1,
    }, width_hint=8))
    sim.step(4)
    assert vcd.render() == (
        "$timescale 20ns $end\n"
        "$scope module repro $end\n"
        "$var wire 8 ! count $end\n"
        "$var wire 8 \" lsb $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n"
        "b1 !\n"
        "b1 \"\n"
        "#1\n"
        "b10 !\n"
        "b0 \"\n"
        "#2\n"
        "b11 !\n"
        "b1 \"\n"
        "#3\n"
        "b100 !\n"
        "b0 \"\n"
    )


def test_vcd_deduplicates_unchanged_values():
    vcd = VCDWriter()
    vcd.register("sig", width=4)
    vcd.change(0, "sig", 5)
    vcd.change(1, "sig", 5)  # no change, no line
    vcd.change(2, "sig", 6)
    text = vcd.render()
    assert text.count("b101 ") == 1
    assert text.count("b110 ") == 1
    assert "#1\n" not in text


def _run_loopback(soc):
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    program = (
        OuProgram().stream_to(1, BLOCK).execs().stream_from(2, BLOCK).eop()
    )
    return driver.run(program.words(), {0: PROG, 1: IN, 2: OUT})


def test_ocp_probe_captures_a_run():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    vcd = VCDWriter(timescale="20ns")
    probe = soc.sim.add(ocp_probe("probe", vcd, soc.ocp))
    _run_loopback(soc)
    assert probe.samples == soc.sim.cycle
    text = vcd.render()
    # every standard signal declared...
    for signal in ("ctrl_state", "irq", "done",
                   "fifo_in_level", "fifo_out_level", "rac_end_op"):
        assert f"$var wire 8 " in text and signal in text
    # ...and the FSM actually moved through transfer states
    assert text.count("#") > 4


def test_profile_breakdown_sums_to_total():
    """config + compute + ack is the whole measured window."""
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    result = _run_loopback(soc)
    assert (result.config_cycles + result.compute_cycles
            + result.ack_cycles) == result.total_cycles
    assert result.hardware_cycles == result.total_cycles  # no OS model here

    report = attribute_run(soc, total_cycles=result.total_cycles)
    assert report.consistent
    assert report.words_moved == 2 * BLOCK
    # the controller accounts its cycles by state; those states all fit
    # inside the measured window
    assert report.transfer_cycles > 0
    busy = sum(cycles for state, cycles in report.breakdown.items()
               if state != "fifo_stall")
    assert 0 < busy <= result.total_cycles
    assert report.fifo_in_high_water > 0
    assert f" {2 * BLOCK} words in 4 instructions" in report.render()


def test_attribution_covers_only_the_last_run():
    """A second identical run on the same SoC reports that run alone:
    its words, instructions and state breakdown, like its counters."""
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    first_run = _run_loopback(soc)
    first = attribute_run(soc, total_cycles=first_run.total_cycles)
    second_run = _run_loopback(soc)
    second = attribute_run(soc, total_cycles=second_run.total_cycles)
    assert second_run.total_cycles == first_run.total_cycles
    assert second.as_dict() == first.as_dict()
    assert (second.words_moved, second.instructions) == (2 * BLOCK, 4)
    assert second.breakdown["fifo_stall"] == second.stall_cycles
    assert sum(cycles for state, cycles in second.breakdown.items()
               if state != "fifo_stall") <= second.total_cycles
    assert f" {2 * BLOCK} words in 4 instructions" in second.render()


def test_attribution_refuses_a_cumulative_default_total():
    """After a second run on one SoC the simulator's cycle counts both
    runs, so omitting ``total_cycles`` raises instead of reporting the
    first run's cycles as the second's control."""
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    first_run = _run_loopback(soc)
    assert attribute_run(soc).total_cycles == soc.sim.cycle
    second_run = _run_loopback(soc)
    assert soc.sim.cycle > second_run.total_cycles
    with pytest.raises(ReproError, match="started 2 runs.*total_cycles"):
        attribute_run(soc)
    report = attribute_run(soc, total_cycles=second_run.total_cycles)
    assert report.total_cycles == first_run.total_cycles
    assert report.consistent


def test_profile_handles_empty_run():
    """A SoC that never ran reports all-zero figures."""
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    report = attribute_run(soc)
    assert report.consistent
    assert report.total_cycles == 0
    assert (report.words_moved, report.instructions) == (0, 0)
    assert report.breakdown == {}
    report.render()  # must not raise on all-zero stats
