"""Tests for dynamic partial reconfiguration and standalone operation."""

import pytest

from repro.core.dpr import DPRManager, ICAP_WORDS_PER_CYCLE, PartialBitstream
from repro.core.program import OuProgram
from repro.core.registers import REG_CTRL
from repro.core.standalone import StandaloneSequencer
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ConfigurationError, ReconfigurationError
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def boot(soc, program, banks):
    ocp = soc.ocp
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, **banks}, len(program))
    return ocp


def simple_program(n=16):
    return OuProgram().stream_to(1, n).execs().stream_from(2, n).eop()


def test_dpr_swaps_accelerator_and_preserves_ocp():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    manager = DPRManager(soc.sim, soc.ocp)

    # run once with the loopback
    soc.write_ram(IN, list(range(16)))
    boot(soc, simple_program(), {1: IN, 2: OUT})
    soc.sim.run_until(lambda: soc.ocp.done, max_cycles=50_000)
    soc.ocp.interface.write_word(REG_CTRL, 0)  # release

    # swap in a scaler
    cycles = manager.reconfigure(
        PartialBitstream(ScaleRac(block_size=16, factor=2, shift=0),
                         size_words=1000)
    )
    assert cycles == 1000 // ICAP_WORDS_PER_CYCLE
    assert manager.stats["reconfigurations"] == 1

    # run again through the SAME interface/controller
    soc.write_ram(IN, list(range(16)))
    boot(soc, simple_program(), {1: IN, 2: OUT})
    soc.sim.run_until(lambda: soc.ocp.done, max_cycles=50_000)
    assert soc.read_ram(OUT, 16) == [2 * v for v in range(16)]


def test_dpr_swap_to_different_port_count():
    soc = SoC(racs=[PassthroughRac(block_size=4)])
    manager = DPRManager(soc.sim, soc.ocp)
    from repro.rac.fir import FIRRac
    manager.reconfigure(PartialBitstream(FIRRac(block_size=8, n_taps=2),
                                         size_words=10))
    assert len(soc.ocp.fifos_in) == 2
    assert len(soc.ocp.fifos_out) == 1


def test_dpr_refuses_while_running():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    manager = DPRManager(soc.sim, soc.ocp)
    soc.write_ram(IN, list(range(16)))
    boot(soc, simple_program(), {1: IN, 2: OUT})
    # controller is running now
    with pytest.raises(ReconfigurationError):
        manager.reconfigure(PartialBitstream(ScaleRac(), size_words=10))


def test_dpr_refuses_with_s_set():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    manager = DPRManager(soc.sim, soc.ocp)
    soc.write_ram(IN, list(range(16)))
    ocp = boot(soc, simple_program(), {1: IN, 2: OUT})
    soc.sim.run_until(lambda: ocp.done, max_cycles=50_000)
    # done, but software has not released S yet
    with pytest.raises(ReconfigurationError):
        manager.reconfigure(PartialBitstream(ScaleRac(), size_words=10))


def test_dpr_shelves_old_rac():
    soc = SoC(racs=[PassthroughRac("loop0", block_size=4)])
    manager = DPRManager(soc.sim, soc.ocp)
    manager.reconfigure(PartialBitstream(ScaleRac(), size_words=10))
    assert manager.shelved("loop0") is not None
    assert manager.shelved("nope") is None


def test_empty_bitstream_rejected():
    with pytest.raises(ReconfigurationError):
        PartialBitstream(ScaleRac(), size_words=0)


# ---------------------------------------------------------------------------
# standalone (processor-free) operation
# ---------------------------------------------------------------------------

def test_standalone_boots_and_runs_without_any_bus_master():
    soc = SoC(racs=[PassthroughRac(block_size=16)], with_cpu=False)
    program = simple_program()
    soc.write_ram(PROG, program.words())
    soc.write_ram(IN, list(range(16)))
    sequencer = StandaloneSequencer(
        "straps", soc.ocp,
        bank_bases={0: PROG, 1: IN, 2: OUT},
        prog_size=len(program),
    )
    soc.sim.add(sequencer)
    soc.sim.run_until(lambda: sequencer.runs_completed >= 1, max_cycles=50_000)
    assert soc.read_ram(OUT, 16) == list(range(16))


def test_standalone_free_running_restarts():
    soc = SoC(racs=[PassthroughRac(block_size=4)], with_cpu=False)
    program = simple_program(4)
    soc.write_ram(PROG, program.words())
    soc.write_ram(IN, [9, 8, 7, 6])
    sequencer = StandaloneSequencer(
        "straps", soc.ocp,
        bank_bases={0: PROG, 1: IN, 2: OUT},
        prog_size=len(program),
        restart=True,
        max_runs=3,
    )
    soc.sim.add(sequencer)
    soc.sim.run_until(lambda: sequencer.runs_completed >= 3,
                      max_cycles=200_000)
    assert sequencer.stats["restarts"] >= 2
    assert soc.read_ram(OUT, 4) == [9, 8, 7, 6]


def test_standalone_requires_microcode_bank():
    soc = SoC(racs=[PassthroughRac(block_size=4)], with_cpu=False)
    with pytest.raises(ConfigurationError):
        StandaloneSequencer("s", soc.ocp, bank_bases={1: IN}, prog_size=4)
    with pytest.raises(ConfigurationError):
        StandaloneSequencer("s", soc.ocp, bank_bases={0: PROG}, prog_size=0)
