"""Edge-case coverage across modules (small behaviours with no home)."""

import pytest

from repro.analysis import measure_dft_sw, render_table_one, TableOneRow
from repro.core.program import figure4_program
from repro.core.registers import (
    CTRL_IE,
    CTRL_S,
    REG_BANK_BASE,
    REG_CTRL,
    REG_PROG_SIZE,
)
from repro.perfbound import CostModel, bound_program
from repro.rac.hls import HLSInterfaceSpec, wrap_function
from repro.rac.dft import DFTRac
from repro.rac.scale import PassthroughRac
from repro.sim.errors import DriverError
from repro.sw.library import OuessantLibrary
from repro.system import RAM_BASE, SoC
from repro.zynq import ZynqSoC


def test_analysis_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        measure_dft_sw(16, algorithm="quantum")


def test_render_table_one_formats_gain():
    rows = [TableOneRow("X", 1, 2, 10)]
    text = render_table_one(rows)
    assert "5.00" in text


def test_table_row_infinite_gain_when_free():
    assert TableOneRow("X", 0, 0, 10).gain == float("inf")


def test_hls_spec_explicit_widths():
    spec = HLSInterfaceSpec(
        items_in=[2], items_out=[2],
        input_widths=[96], output_widths=[64],
    )
    rac = wrap_function("wide", lambda c: [list(c[0])], spec)
    assert rac.ports.input_widths == [96]
    assert rac.ports.output_widths == [64]


def test_library_run_plan_checks_input_lengths():
    from repro.core.firmware import plan_streaming_run
    soc = SoC(racs=[PassthroughRac(block_size=8)])
    library = OuessantLibrary(soc, environment="baremetal")
    plan = plan_streaming_run(soc.ocp.rac)
    with pytest.raises(DriverError):
        library._run_plan(0, plan, [[1, 2, 3]])  # needs 8 words


def test_estimate_without_prefetch():
    """Switching prefetch off costs Figure 4 cycles (one bus fetch per
    instruction instead of one burst), and the static bound says so:
    neither end of its interval drops, and each holds its run."""
    for n in (64, 256):
        program = figure4_program(n)
        bounds, simulated = {}, {}
        for prefetch in (True, False):
            bounds[prefetch] = bound_program(
                program.instructions, DFTRac(n_points=n),
                model=CostModel(prefetch=prefetch)).total
            soc = SoC(racs=[DFTRac(n_points=n)], prefetch=prefetch)
            prog, data, out = (RAM_BASE + 0x1000, RAM_BASE + 0x2000,
                               RAM_BASE + 0x8000)
            soc.write_ram(data, list(range(2 * n)))
            soc.write_ram(prog, program.words())
            ocp = soc.ocp
            for bank, base in {0: prog, 1: data, 2: out}.items():
                ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
            ocp.interface.write_word(REG_PROG_SIZE, len(program))
            ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
            simulated[prefetch] = soc.run_until(lambda: ocp.done,
                                                max_cycles=500_000)
        assert simulated[False] > simulated[True]
        assert bounds[False].lo >= bounds[True].lo
        assert bounds[False].hi >= bounds[True].hi
        for prefetch in (True, False):
            total = bounds[prefetch]
            assert total.lo <= simulated[prefetch] <= total.hi


def test_interface_window_size():
    soc = SoC(racs=[PassthroughRac()])
    # 10 config registers + 6 perf counters
    assert soc.ocp.interface.window_bytes == 64


def test_zynq_without_racs():
    soc = ZynqSoC()
    assert soc.ocps == []
    with pytest.raises(LookupError):
        soc.ocp


def test_soc_ocp_property_raises_when_empty():
    soc = SoC()
    with pytest.raises(LookupError):
        soc.ocp


def test_add_ocp_after_construction():
    soc = SoC()
    ocp = soc.add_ocp(PassthroughRac(block_size=4))
    assert soc.ocp is ocp
    assert soc.ocp_base(0) == 0x8000_0000


def test_cycle_timer_ignores_writes():
    soc = SoC()
    soc.timer.write_word(0, 123)
    soc.sim.step(5)
    assert soc.timer.read_word(0) == 5


def test_round_robin_rank_unseen_master():
    from repro.bus.arbiter import RoundRobinArbiter
    from repro.bus.types import AccessKind, BusRequest, BusTransfer

    arbiter = RoundRobinArbiter()
    t1 = BusTransfer(
        BusRequest(master="a", kind=AccessKind.READ, address=0x1000),
        issue_cycle=0,
    )
    t2 = BusTransfer(
        BusRequest(master="b", kind=AccessKind.READ, address=0x1000),
        issue_cycle=0,
    )
    first = arbiter.pick([t1, t2])
    second = arbiter.pick([t1, t2])
    assert first is not second  # rotation after a grant


def test_transfer_latency_before_completion_raises():
    from repro.bus.types import AccessKind, BusRequest, BusTransfer

    transfer = BusTransfer(
        BusRequest(master="m", kind=AccessKind.READ, address=0x0),
        issue_cycle=0,
    )
    with pytest.raises(RuntimeError):
        transfer.latency


def test_dft_rejects_non_integer_size():
    from repro.sim.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        DFTRac(n_points="256")  # type: ignore[arg-type]
