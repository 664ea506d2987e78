"""Tests for the FPGA resource estimation substrate."""

import pytest

from repro.rac.dft import DFTRac
from repro.rac.fir import FIRRac
from repro.rac.hls import HLSInterfaceSpec, wrap_function
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ConfigurationError
from repro.synth import (
    ARTIX7_100T,
    ALL_DEVICES,
    ResourceEstimate,
    SPARTAN6_LX45,
    adder,
    comparator,
    counter,
    device_by_name,
    estimate_controller,
    estimate_fifo_control,
    estimate_fifo_memory,
    estimate_interface,
    estimate_ocp,
    estimate_rac,
    fsm,
    multiplier,
    mux,
    ram,
    register,
    utilization_report,
)
from repro.rac.fifo import FIFO
from repro.system import SoC


def test_estimate_algebra():
    a = ResourceEstimate(luts=10, ffs=5, bram18=1)
    b = ResourceEstimate(luts=1, ffs=2, dsps=3)
    total = a + b
    assert (total.luts, total.ffs, total.bram18, total.dsps) == (11, 7, 1, 3)
    doubled = 2 * a
    assert doubled.luts == 20
    assert "LUT" in str(total)


def test_primitive_formulas_sane():
    assert register(32).ffs == 32
    assert adder(32).luts == 32
    assert counter(8).luts == 8 and counter(8).ffs == 8
    assert comparator(14).luts >= 7
    assert mux(2, 32).luts == 32          # 2:1 -> 1 LUT/bit
    assert mux(8, 32).luts > mux(4, 32).luts
    assert mux(1, 32).luts == 0
    assert fsm(10).ffs >= 4
    assert multiplier(16, 16).dsps == 1
    assert multiplier(32, 32).dsps > 1
    assert ram(18 * 1024).bram18 == 1
    assert ram(18 * 1024 + 1).bram18 == 2
    assert ram(512, force_bram=False).bram18 == 0
    assert ram(0).bram18 == 0


def test_paper_envelope_ocp_under_1000_lut_750_ff():
    """Section V-B: OCP overhead < 1000 LUT and < 750 FF."""
    for rac in (IDCTRac(), DFTRac(256), PassthroughRac()):
        soc = SoC(racs=[rac])
        estimate = estimate_ocp(soc.ocp)
        overhead = estimate.ocp_overhead
        assert overhead.luts < 1000, f"{rac.name}: {overhead}"
        assert overhead.ffs < 750, f"{rac.name}: {overhead}"
        # OCP overhead itself uses no DSP
        assert overhead.dsps == 0


def test_fifo_memory_is_bram():
    """Section V-B: "FIFO memory is inferred as BRAM"."""
    soc = SoC(racs=[DFTRac(256)])
    estimate = estimate_ocp(soc.ocp)
    assert estimate.fifo_memory.bram18 >= 2
    assert estimate.fifo_memory.luts == 0


def test_idct_and_dft_similar_except_rac():
    """Section V-B: "IDCT and DFT gives similar results except for the
    FIFO size and the RAC"."""
    est_idct = estimate_ocp(SoC(racs=[IDCTRac()]).ocp)
    est_dft = estimate_ocp(SoC(racs=[DFTRac(256)]).ocp)
    assert est_idct.parts["interface"] == est_dft.parts["interface"]
    assert est_idct.parts["controller"] == est_dft.parts["controller"]
    assert est_idct.rac != est_dft.rac


def test_interface_dominates_then_controller():
    interface = estimate_interface()
    controller = estimate_controller()
    fifo = estimate_fifo_control(FIFO("f", 32, 32, 64))
    assert interface.ffs > controller.ffs > fifo.ffs


def test_serdes_fifo_costs_more_control():
    same = estimate_fifo_control(FIFO("f", 32, 32, 64))
    wide = estimate_fifo_control(FIFO("f", 32, 96, 64))
    assert wide.ffs > same.ffs


def test_fifo_memory_scales_with_depth():
    small = estimate_fifo_memory(FIFO("f", 32, 32, 16))
    large = estimate_fifo_memory(FIFO("f", 32, 32, 1024))
    assert large.bram18 > small.bram18


def test_rac_estimates_dispatch():
    assert estimate_rac(DFTRac(256)).dsps == 4
    assert estimate_rac(IDCTRac()).dsps == 8
    assert estimate_rac(FIRRac(n_taps=16)).dsps == 16
    assert estimate_rac(ScaleRac()).dsps == 1
    hls = wrap_function("x", lambda c: [list(c[0])],
                        HLSInterfaceSpec([8], [8]))
    assert estimate_rac(hls).luts > 0


def test_dft_rac_scales_with_size():
    small = estimate_rac(DFTRac(64))
    large = estimate_rac(DFTRac(1024))
    assert large.bram18 > small.bram18


def test_whole_ocp_fits_artix7():
    """Section V-A: deployed on an Artix7 LX100T with room to spare."""
    for rac in (IDCTRac(), DFTRac(256)):
        estimate = estimate_ocp(SoC(racs=[rac]).ocp).total
        assert ARTIX7_100T.fits(estimate)
        util = ARTIX7_100T.utilization(estimate)
        assert util["luts"] < 0.10  # "very low footprint"


#: EXPERIMENTS.md R1/C3: total LUT utilization of each OCP on Artix7,
#: to 4 places; every other cell is the same for both RACs
_R1_C3_LUT_UTILIZATION = {"IDCT": 0.0208, "DFT": 0.0169}


@pytest.mark.parametrize("name", list(_R1_C3_LUT_UTILIZATION))
def test_r1_c3_numbers_are_pinned(name):
    """Every R1/C3 cell of EXPERIMENTS.md, exactly: 504 LUT / 555 FF of
    OCP overhead, 2 BRAM18 and 0 LUT of FIFO memory, 142.9 MHz fmax on
    Artix7 with 13.0 ns slack at 50 MHz, and under 3% LUT
    utilization."""
    from repro.synth.timing import timing_report

    rac = IDCTRac() if name == "IDCT" else DFTRac(256)
    ocp = SoC(racs=[rac]).ocp
    estimate = estimate_ocp(ocp)
    overhead = estimate.ocp_overhead
    assert (overhead.luts, overhead.ffs) == (504, 555)
    assert (estimate.fifo_memory.bram18, estimate.fifo_memory.luts) == (2, 0)
    report = timing_report(ocp, clock_mhz=50.0)
    # the report rounds fmax to 0.1 MHz and slack to 1 ps
    assert (report.fmax_mhz, report.slack_ns) == (142.9, 13.0)
    util = ARTIX7_100T.utilization(estimate.total)["luts"]
    assert round(util, 4) == _R1_C3_LUT_UTILIZATION[name]
    assert util < 0.03


def test_devices_catalogue():
    assert device_by_name("xc7a100t") is ARTIX7_100T
    with pytest.raises(ConfigurationError):
        device_by_name("xc7vliegenthart")
    assert len(ALL_DEVICES) >= 4


def test_utilization_report_renders():
    soc = SoC(racs=[DFTRac(256)])
    estimate = estimate_ocp(soc.ocp)
    report = utilization_report(estimate.parts, ARTIX7_100T)
    assert "interface" in report
    assert "TOTAL" in report
    assert "utilization" in report


def test_spartan6_also_fits():
    estimate = estimate_ocp(SoC(racs=[DFTRac(256)]).ocp).total
    assert SPARTAN6_LX45.fits(estimate)
