"""Tests for the SDRAM open-row model and failure injection."""

import pytest

from repro.bus.bus import SystemBus
from repro.bus.types import AccessKind
from repro.core.program import OuProgram
from repro.mem.sdram import SDRAM
from repro.rac.scale import PassthroughRac
from repro.sim.errors import AddressError, ConfigurationError, RACError
from repro.sim.kernel import Simulator
from repro.system import RAM_BASE, SoC


def make_bus(sdram):
    sim = Simulator()
    bus = SystemBus()
    sim.add(bus)
    bus.attach_slave("sdram", 0x0, sdram.size_bytes, sdram)
    return sim, bus


def read_latency(sim, bus, address, burst=1):
    transfer = bus.submit("m", AccessKind.READ, address, burst)
    sim.run_until(lambda: transfer.done, max_cycles=1000)
    return transfer.latency


def test_row_hit_vs_miss_latency():
    sdram = SDRAM(size_bytes=1 << 16, row_bytes=2048, cas_latency=3,
                  row_miss_penalty=9)
    sim, bus = make_bus(sdram)
    first = read_latency(sim, bus, 0x100)    # cold: row miss
    second = read_latency(sim, bus, 0x104)   # same row: hit
    assert first - second == 9
    assert sdram.dram_stats["row_misses"] == 1
    assert sdram.dram_stats["row_hits"] == 1


def test_banks_keep_rows_open_independently():
    sdram = SDRAM(size_bytes=1 << 16, row_bytes=1024, n_banks=4)
    sim, bus = make_bus(sdram)
    read_latency(sim, bus, 0x0)        # bank 0, row 0
    read_latency(sim, bus, 0x400)      # bank 1, row 1
    # returning to bank 0 row 0: still open
    assert read_latency(sim, bus, 0x8) < read_latency(sim, bus, 0x1000)


def test_sequential_bursts_are_row_friendly():
    sdram = SDRAM(size_bytes=1 << 16, row_bytes=2048)
    sim, bus = make_bus(sdram)
    for chunk in range(8):
        read_latency(sim, bus, 0x0 + 64 * chunk, burst=16)
    assert sdram.row_hit_rate > 0.8


def test_scattered_accesses_thrash_rows():
    sdram = SDRAM(size_bytes=1 << 18, row_bytes=1024, n_banks=2)
    sim, bus = make_bus(sdram)
    for i in range(16):
        read_latency(sim, bus, (i * 0x800) % (1 << 18))
    assert sdram.row_hit_rate < 0.3


def test_burst_crossing_row_boundary_charged_once():
    sdram = SDRAM(size_bytes=1 << 16, row_bytes=1024)
    sim, bus = make_bus(sdram)
    sdram.precharge_all()
    # burst straddles offset 0x400 (rows 0 and 1)
    latency = read_latency(sim, bus, 0x3F8, burst=4)
    assert sdram.dram_stats["row_misses"] == 2


def test_precharge_all_closes_rows():
    sdram = SDRAM(size_bytes=1 << 16)
    sim, bus = make_bus(sdram)
    read_latency(sim, bus, 0x0)
    sdram.precharge_all()
    read_latency(sim, bus, 0x0)
    assert sdram.dram_stats["row_misses"] == 2


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        SDRAM(row_bytes=100)
    with pytest.raises(ConfigurationError):
        SDRAM(n_banks=3)


def test_ouessant_runs_from_sdram():
    """Build the SoC on SDRAM instead of SRAM: everything still works."""
    sdram = SDRAM("sdram", 1 << 20)
    soc = SoC(racs=[PassthroughRac(block_size=32, fifo_depth=64)],
              memory=sdram)

    prog, inp, out = (RAM_BASE + 0x1000, RAM_BASE + 0x2000,
                      RAM_BASE + 0x3000)
    program = (OuProgram().stream_to(1, 32).execs()
               .stream_from(2, 32).eop())
    soc.write_ram(inp, list(range(32)))
    soc.write_ram(prog, program.words())
    ocp = soc.ocp
    ocp.start({0: prog, 1: inp, 2: out}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    assert soc.read_ram(out, 32) == list(range(32))
    assert sdram.dram_stats["row_hits"] > 0


# ---------------------------------------------------------------------------
# failure injection
# ---------------------------------------------------------------------------

def test_bank_pointing_at_unmapped_address_faults():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    program = OuProgram().stream_to(1, 16).eop()
    prog = RAM_BASE + 0x1000
    soc.write_ram(prog, program.words())
    ocp = soc.ocp
    ocp.start({0: prog, 1: 0x7000_0000},  # bank 1 unmapped!
              len(program), interrupt=False)
    with pytest.raises(AddressError):
        soc.sim.step(200)


def test_rac_compute_failure_propagates():
    from repro.rac.base import StreamingRAC

    def broken(collected):
        raise RACError("datapath meltdown")

    rac = StreamingRAC("broken", [4], [4], compute_fn=broken)
    soc = SoC(racs=[rac])
    program = OuProgram().stream_to(1, 4).execs().stream_from(2, 4).eop()
    prog, inp = RAM_BASE + 0x1000, RAM_BASE + 0x2000
    soc.write_ram(prog, program.words())
    soc.write_ram(inp, [1, 2, 3, 4])
    ocp = soc.ocp
    ocp.start({0: prog, 1: inp, 2: RAM_BASE + 0x3000}, len(program),
              interrupt=False)
    with pytest.raises(RACError):
        soc.sim.step(500)
