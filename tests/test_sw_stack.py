"""Tests for the software stack: driver, baremetal, Linux model, library."""

import numpy as np
import pytest

from repro.apps import jpeg
from repro.core.program import OuProgram
from repro.core.registers import CTRL_D, CTRL_S, REG_CTRL
from repro.rac.dft import DFTRac
from repro.rac.fir import FIRRac, fir_q15
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sim.errors import DriverError
from repro.sw.baremetal import BaremetalRuntime
from repro.sw.driver import OuessantDriver
from repro.sw import library as library_module
from repro.sw.library import HEAP_BASE_OFFSET, OuessantLibrary
from repro.sw.linux import LinuxCosts, LinuxRuntime
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def simple_program(n=16):
    return OuProgram().stream_to(1, n).execs().stream_from(2, n).eop()


# ---------------------------------------------------------------------------
# register driver
# ---------------------------------------------------------------------------

def test_driver_register_access_costs_cycles(soc_passthrough):
    driver = OuessantDriver(soc_passthrough)
    cycles = driver.write_register(REG_CTRL, 0)
    assert cycles > 0
    value, cycles = driver.read_register(REG_CTRL)
    assert value == 0
    assert cycles > 0


def test_driver_full_run_interrupt_mode(soc_passthrough):
    soc = soc_passthrough
    driver = OuessantDriver(soc, use_interrupt=True)
    soc.write_ram(IN, list(range(16)))
    result = driver.run(simple_program().words(),
                        {0: PROG, 1: IN, 2: OUT})
    assert soc.read_ram(OUT, 16) == list(range(16))
    assert result.total_cycles == (
        result.config_cycles + result.compute_cycles + result.ack_cycles
    )
    assert result.sw_overhead_cycles == 0
    assert not soc.ocp.irq.pending  # acknowledged


def test_driver_polling_mode(soc_passthrough):
    soc = soc_passthrough
    driver = OuessantDriver(soc, use_interrupt=False)
    soc.write_ram(IN, list(range(16)))
    result = driver.run(simple_program().words(), {0: PROG, 1: IN, 2: OUT})
    assert soc.read_ram(OUT, 16) == list(range(16))
    assert driver.poll_count >= 1


def test_polling_costs_more_bus_traffic_than_interrupt():
    results = {}
    for use_interrupt in (True, False):
        soc = SoC(racs=[PassthroughRac(block_size=16, compute_latency=200)])
        driver = OuessantDriver(soc, use_interrupt=use_interrupt)
        soc.write_ram(IN, list(range(16)))
        driver.run(simple_program().words(), {0: PROG, 1: IN, 2: OUT})
        results[use_interrupt] = soc.bus.stats["requests.cpu"]
    assert results[False] > results[True]


def test_driver_validation(soc_passthrough):
    driver = OuessantDriver(soc_passthrough)
    with pytest.raises(DriverError):
        driver.run(simple_program().words(), {1: IN})  # no bank 0
    with pytest.raises(DriverError):
        driver.configure({0: PROG}, prog_size=0)
    with pytest.raises(DriverError):
        driver.place_program([0], 0x100)  # not in RAM


# ---------------------------------------------------------------------------
# baremetal runtime
# ---------------------------------------------------------------------------

def test_baremetal_run_and_data_helpers(soc_passthrough):
    soc = soc_passthrough
    runtime = BaremetalRuntime(soc)
    runtime.write_words(IN, list(range(16)))
    result = runtime.run(simple_program().words(), {0: PROG, 1: IN, 2: OUT})
    assert runtime.read_words(OUT, 16) == list(range(16))
    assert runtime.last_result is result


def test_baremetal_cache_flush_fallback(soc_passthrough):
    from repro.mem.cache import Cache
    cache = Cache(size_bytes=1024, line_bytes=32)
    cache.access_read(OUT)
    runtime = BaremetalRuntime(soc_passthrough, cache=cache)
    runtime.write_words(IN, list(range(16)))
    result = runtime.run(simple_program().words(), {0: PROG, 1: IN, 2: OUT})
    assert result.notes["cache_flush"] == 1
    assert not cache.holds(OUT)


# ---------------------------------------------------------------------------
# Linux model
# ---------------------------------------------------------------------------

def test_linux_overhead_decomposition_is_3000_cycles():
    costs = LinuxCosts()
    assert costs.blocking_run_overhead == 3000


def test_linux_run_adds_overhead_over_baremetal():
    cycles = {}
    for env in ("baremetal", "linux"):
        soc = SoC(racs=[PassthroughRac(block_size=16)])
        if env == "baremetal":
            runtime = BaremetalRuntime(soc)
        else:
            runtime = LinuxRuntime(soc)
            runtime.open_device()
        soc.write_ram(IN, list(range(16)))
        result = runtime.run(simple_program().words(),
                             {0: PROG, 1: IN, 2: OUT})
        cycles[env] = result.total_cycles
    assert cycles["linux"] - cycles["baremetal"] == LinuxCosts().blocking_run_overhead


def test_linux_copy_path_charges_per_word():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    runtime = LinuxRuntime(soc, data_path="copy")
    before = soc.sim.cycle
    staged = runtime.stage_input(IN, list(range(16)))
    costs = LinuxCosts()
    assert staged == costs.syscall_entry + costs.syscall_exit + 16 * costs.copy_per_word
    words, fetched = runtime.fetch_output(IN, 16)
    assert words == list(range(16))
    assert fetched == staged
    assert soc.sim.cycle - before == staged + fetched


def test_linux_mmap_path_is_zero_copy():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    runtime = LinuxRuntime(soc, data_path="mmap")
    runtime.open_device()
    assert runtime.stage_input(IN, [1, 2]) == 0
    _, cost = runtime.fetch_output(IN, 2)
    assert cost == 0


def test_linux_polling_mode_charges_poll_syscalls():
    soc = SoC(racs=[PassthroughRac(block_size=16, compute_latency=300)])
    runtime = LinuxRuntime(soc, use_interrupt=False)
    runtime.open_device()
    soc.write_ram(IN, list(range(16)))
    result = runtime.run(simple_program().words(), {0: PROG, 1: IN, 2: OUT})
    polls = runtime.driver.poll_count
    assert polls > 0
    assert result.sw_overhead_cycles >= LinuxCosts().poll_syscall * polls


def test_linux_rejects_unknown_data_path():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    with pytest.raises(DriverError):
        LinuxRuntime(soc, data_path="zero-copy-magic")


# ---------------------------------------------------------------------------
# transparent library
# ---------------------------------------------------------------------------

def test_library_dft_matches_golden(soc_dft64, q15_signal):
    library = OuessantLibrary(soc_dft64, environment="baremetal")
    re, im = q15_signal(64)
    out = library.dft(re, im)
    assert out == fp.fft_q15(re, im)


def test_library_idct_matches_golden(soc_idct, coef_block):
    library = OuessantLibrary(soc_idct, environment="baremetal")
    assert library.idct(coef_block) == fp.idct2_q15(coef_block)


def test_library_fir_matches_golden(q15_signal):
    soc = SoC(racs=[FIRRac(block_size=32, n_taps=4)])
    library = OuessantLibrary(soc, environment="baremetal")
    samples, _ = q15_signal(32)
    taps = [8192, 4096, 2048, 1024]
    assert library.fir(samples, taps) == fir_q15(samples, taps)


def test_library_multi_accelerator_soc(q15_signal, coef_block):
    soc = SoC(racs=[IDCTRac(), DFTRac(n_points=64)])
    library = OuessantLibrary(soc, environment="baremetal")
    re, im = q15_signal(64)
    assert library.dft(re, im) == fp.fft_q15(re, im)
    assert library.idct(coef_block) == fp.idct2_q15(coef_block)


def test_library_validates_sizes(soc_dft64):
    library = OuessantLibrary(soc_dft64)
    with pytest.raises(DriverError):
        library.dft([0] * 32, [0] * 32)  # RAC is configured for 64


def test_library_missing_accelerator(soc_dft64, coef_block):
    library = OuessantLibrary(soc_dft64)
    with pytest.raises(DriverError):
        library.idct(coef_block)


def test_library_unknown_environment(soc_dft64):
    with pytest.raises(DriverError):
        OuessantLibrary(soc_dft64, environment="windows")


def test_library_repeated_calls_allocate_fresh_buffers(soc_dft64, q15_signal):
    library = OuessantLibrary(soc_dft64, environment="baremetal")
    re, im = q15_signal(64)
    first = library.dft(re, im)
    second = library.dft(re, im)
    assert first == second


def test_library_heap_is_reclaimed_between_calls(coef_block):
    """A call's buffers are freed once its outputs are read back: a heap
    with room for only a few calls' buffers serves a long session."""
    soc = SoC(racs=[IDCTRac()], ram_size=HEAP_BASE_OFFSET + 4096)
    library = OuessantLibrary(soc, environment="baremetal")
    golden = fp.idct2_q15(coef_block)
    for _ in range(100):
        assert library.idct(coef_block) == golden


@pytest.fixture
def plan_calls(monkeypatch):
    """Records the RAC of every firmware plan the library builds."""
    calls = []
    real = library_module.plan_streaming_run

    def counting(rac, **kwargs):
        calls.append(rac)
        return real(rac, **kwargs)

    monkeypatch.setattr(library_module, "plan_streaming_run", counting)
    return calls


def test_library_plans_once_per_rac_and_operation_count(coef_block,
                                                        plan_calls):
    soc = SoC(racs=[IDCTRac()])
    library = OuessantLibrary(soc, environment="baremetal")
    golden = fp.idct2_q15(coef_block)
    cycles = []
    for _ in range(3):
        begin = soc.sim.cycle
        assert library.idct(coef_block) == golden
        cycles.append(soc.sim.cycle - begin)
    assert library.idct_batch([coef_block] * 2) == [golden] * 2
    assert library.idct_batch([coef_block] * 2) == [golden] * 2
    assert cycles[1] == cycles[2]
    assert plan_calls == [soc.ocp.rac, soc.ocp.rac]


def test_library_replans_for_a_swapped_rac(q15_signal, plan_calls):
    """A DPR swap installs a new RAC object, which gets its own plan:
    here a 32-point DFT in place of a 16-point one."""
    soc = SoC(racs=[DFTRac(n_points=16)])
    library = OuessantLibrary(soc, environment="baremetal")
    re, im = q15_signal(16)
    assert library.dft(re, im) == fp.fft_q15(re, im)
    old = soc.ocp.rac
    soc.ocp.swap_rac(DFTRac(n_points=32))
    re, im = q15_signal(32)
    assert library.dft(re, im) == fp.fft_q15(re, im)
    assert library.dft(re, im) == fp.fft_q15(re, im)
    assert plan_calls == [old, soc.ocp.rac]


def test_linux_jpeg_decode_is_unchanged_by_the_plan_memo(plan_calls):
    """Each Linux session plans once for its 256 IDCT calls, and every
    image still decodes to the golden image in 256 x 3293 cycles plus
    the 2500-cycle open/mmap."""
    image = np.random.default_rng(7).integers(-128, 128, size=(128, 128))
    encoded = jpeg.encode(image)
    golden = jpeg.JPEGDecoder().decode(encoded).tolist()
    soc = SoC(racs=[IDCTRac()])
    for session in range(2):
        begin = soc.sim.cycle
        library = OuessantLibrary(soc, environment="linux")
        decoded = jpeg.JPEGDecoder(library).decode(encoded)
        assert decoded.tolist() == golden
        assert soc.sim.cycle - begin == 256 * 3293 + 2500
        assert len(plan_calls) == session + 1
