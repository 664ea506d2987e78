"""Differential soundness suite for the system analyzer.

Two directions, per the verifier's soundness discipline:

* **Clean means working** -- 150 seeded SoC configurations that the
  analyzer passes as OU1xx-clean must each run a reference workload on
  the simulator and produce bit-exact results.
* **Broken means caught** -- a corpus of deliberately defective
  configurations (one per defect category) where the analyzer must
  emit the expected code *and*, for error-severity codes, the defect
  must be demonstrated to actually fail: raise at elaboration, trap on
  the bus, deadlock, or miscompute when simulated.
"""

import random

import pytest

from repro.bus.memmap import MemoryMap
from repro.core.coprocessor import OuessantCoprocessor
from repro.core.program import OuProgram
from repro.mem.memory import Memory
from repro.rac.fifo import FIFO
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ConfigurationError, ReproError
from repro.soclint import lint_map_plan, lint_soc
from repro.sw.driver import OuessantDriver
from repro.system import OCP_BASE, RAM_BASE, RAM_SIZE, SoC
from repro.utils.bits import to_signed

N_CLEAN_CONFIGS = 150

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def canonical_program(block):
    """Figure 4 shape: fill bank1 -> start -> drain to bank2."""
    return (OuProgram()
            .mvtc(1, 0, block)
            .execs()
            .mvfc(2, 0, block)
            .eop())


def run_workload(soc, block, banks=None, max_wait=200_000):
    """Drive the canonical workload; returns (inputs, outputs)."""
    banks = banks or {0: PROG, 1: IN, 2: OUT}
    rng = random.Random(0xC0FFEE ^ block)
    words = [rng.randrange(1, 1 << 32) for _ in range(block)]
    soc.write_ram(banks[1], words)
    driver = OuessantDriver(soc)
    driver.run(
        canonical_program(block).words(),
        banks,
        check_status=True,
        max_wait_cycles=max_wait,
    )
    return words, soc.read_ram(banks[2], block)


def codes(report):
    return {finding.code for finding in report.findings}


# ---------------------------------------------------------------------------
# direction 1: OU1xx-clean configurations simulate correctly
# ---------------------------------------------------------------------------

def _seeded_config(seed):
    """One randomized-but-legal SoC configuration."""
    rng = random.Random(seed)
    block = rng.choice([4, 8, 16, 32])
    depth = rng.choice([d for d in (32, 64, 128) if d >= block])
    kind = rng.choice(["passthrough", "scale", "manual-start"])
    if kind == "passthrough":
        rac = PassthroughRac(
            block_size=block,
            compute_latency=rng.randint(0, 3),
            fifo_depth=depth,
        )
        expected = lambda ws: list(ws)
    elif kind == "manual-start":
        # fill-then-start is only legal when the block fits the FIFO
        rac = PassthroughRac(
            block_size=block, fifo_depth=depth, autostart=False
        )
        expected = lambda ws: list(ws)
    else:
        factor = rng.randint(1, 7)
        shift = rng.randint(0, 3)
        rac = ScaleRac(
            block_size=block, factor=factor, shift=shift,
            fifo_depth=depth,
        )
        expected = lambda ws: [
            ((to_signed(w) * factor) >> shift) & 0xFFFFFFFF for w in ws
        ]
    soc = SoC(
        racs=[rac],
        with_dma=rng.random() < 0.3,
        clock_mhz=rng.choice([25.0, 40.0, 50.0, 66.0, 100.0]),
    )
    return soc, block, expected


@pytest.mark.parametrize("seed", range(N_CLEAN_CONFIGS))
def test_clean_config_simulates_correctly(seed):
    soc, block, expected = _seeded_config(seed)
    banks = {0: PROG, 1: IN, 2: OUT}
    report = lint_soc(
        soc, banks=banks, firmware=canonical_program(block)
    )
    assert report.clean, report.render()
    words, out = run_workload(soc, block, banks)
    assert out == expected(words)


# ---------------------------------------------------------------------------
# direction 2: broken configurations are caught, and really are broken
# ---------------------------------------------------------------------------

def test_defect_region_overlap_ou100():
    plan = [("ram", RAM_BASE, 0x1000), ("rom", RAM_BASE + 0x800, 0x1000)]
    assert "OU100" in codes(lint_map_plan(plan))
    # ground truth: elaborating that plan fails
    memmap = MemoryMap()
    memmap.add("ram", RAM_BASE, 0x1000, Memory("ram", 0x1000))
    with pytest.raises(ReproError):
        memmap.add("rom", RAM_BASE + 0x800, 0x1000,
                   Memory("rom", 0x1000))


def test_defect_region_misaligned_ou101():
    assert "OU101" in codes(lint_map_plan([("odd", 0x8000_0002, 64)]))
    memmap = MemoryMap()
    with pytest.raises(ReproError):
        memmap.add("odd", 0x8000_0002, 64, Memory("odd", 64))


def test_defect_truncated_window_ou110():
    soc = SoC(racs=[])
    ocp = OuessantCoprocessor(PassthroughRac(block_size=8), name="ocp",
                              bus=soc.bus)
    soc.sim.add_all(ocp.components())
    soc.bus.attach_slave("ocp", OCP_BASE, 16, ocp.interface)
    soc.irqc.register(ocp.irq)
    soc.ocps.append(ocp)
    assert "OU110" in codes(lint_soc(soc))
    # demonstrably broken: configuring bank 2 writes register offset
    # 0x10, beyond the 16-byte window -- the bus access traps
    with pytest.raises(ReproError):
        run_workload(soc, 8)


def test_defect_unreachable_ocp_ou111():
    soc = SoC(racs=[])
    ocp = OuessantCoprocessor(PassthroughRac(block_size=8), name="ocp",
                              bus=soc.bus)
    soc.sim.add_all(ocp.components())  # never mapped on the bus
    soc.irqc.register(ocp.irq)
    soc.ocps.append(ocp)
    assert "OU111" in codes(lint_soc(soc))
    with pytest.raises(ReproError):
        run_workload(soc, 8)


def test_defect_misaligned_window_ou112():
    soc = SoC(racs=[])
    ocp = OuessantCoprocessor(PassthroughRac(), name="ocp", bus=soc.bus)
    soc.sim.add_all(ocp.components())
    soc.bus.attach_slave(
        "ocp", OCP_BASE + 4, OuessantCoprocessor.WINDOW_BYTES,
        ocp.interface,
    )
    soc.irqc.register(ocp.irq)
    soc.ocps.append(ocp)
    assert "OU112" in codes(lint_soc(soc))
    # the proper elaboration path rejects the same base outright
    other = SoC(racs=[])
    bad = OuessantCoprocessor(PassthroughRac(), name="ocp2",
                              bus=other.bus)
    with pytest.raises(ConfigurationError):
        bad.attach(other.sim, other.bus, OCP_BASE + 4)


def test_defect_unmapped_bank_ou120():
    soc = SoC(racs=[PassthroughRac(block_size=8)])
    banks = {0: PROG, 1: 0x9000_0000, 2: OUT}
    assert "OU120" in codes(lint_soc(soc, banks=banks))
    with pytest.raises(ReproError):
        # the mvtc master burst decodes to nothing
        soc.write_ram(IN, list(range(1, 9)))
        driver = OuessantDriver(soc)
        driver.run(canonical_program(8).words(), banks,
                   check_status=True, max_wait_cycles=50_000)


def test_defect_misaligned_bank_ou121():
    soc = SoC(racs=[PassthroughRac(block_size=8)])
    banks = {0: PROG, 1: IN + 2, 2: OUT}
    assert "OU121" in codes(lint_soc(soc, banks=banks))
    with pytest.raises(ReproError):
        # the bank register write itself traps in the controller
        OuessantDriver(soc).configure(banks, prog_size=4)


def test_defect_bank_targets_registers_ou122():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    banks = {0: PROG, 1: IN, 2: OCP_BASE}
    assert "OU122" in codes(lint_soc(soc, banks=banks))
    # demonstrably broken: the mvfc burst lands in the register
    # window; the first word (all zero here) clears CTRL.S mid-run,
    # so eop never executes and the run hangs or traps
    soc.write_ram(IN, [0] * 16)
    driver = OuessantDriver(soc)
    with pytest.raises(ReproError):
        driver.run(canonical_program(16).words(), banks,
                   check_status=True, max_wait_cycles=50_000)


def test_defect_fifo_underdepth_ou130():
    soc = SoC(racs=[PassthroughRac(block_size=32, fifo_depth=8,
                                   autostart=False)])
    assert "OU130" in codes(lint_soc(soc))
    # fill-then-start with 32 words into an 8-deep FIFO and a RAC that
    # only drains after start: classic structural deadlock
    with pytest.raises(ReproError):
        run_workload(soc, 32, max_wait=20_000)


def test_defect_fabric_width_mismatch_ou131():
    def bad_factory(name, width_push=32, width_pop=32, depth=64):
        return FIFO(name, width_push=width_push, width_pop=64,
                    depth=depth)

    soc = SoC(racs=[])
    soc.add_ocp(PassthroughRac(block_size=16),
                fifo_factory=bad_factory)
    assert "OU131" in codes(lint_soc(soc))
    # the 64-bit pop side re-chunks pairs of words: the RAC starves
    # waiting for 16 items that can never arrive, or emits mangled
    # data -- either way the workload does not complete correctly
    try:
        words, out = run_workload(soc, 16, max_wait=20_000)
    except ReproError:
        pass  # deadlock / trap: demonstrably broken
    else:
        assert out != words  # miscompute: demonstrably broken


def test_defect_timing_violation_ou140():
    from repro.synth.timing import timing_report

    soc = SoC(racs=[ScaleRac()], clock_mhz=200.0)
    assert "OU140" in codes(lint_soc(soc))
    # ground truth is the synthesis model itself: the requested clock
    # exceeds the critical path's fmax
    assert not timing_report(soc.ocp, clock_mhz=200.0).closes
    assert timing_report(soc.ocp, clock_mhz=50.0).closes


def test_defect_irq_double_registration_ou161():
    soc = SoC(racs=[ScaleRac()])
    soc.irqc.register(soc.ocp.irq)  # duplicate vector
    report = lint_soc(soc)
    assert "OU161" in codes(report)
    # hazard, not a proven failure: the duplicate aliases one line
    assert soc.irqc.lines.count(soc.ocp.irq) == 2


def test_defect_firmware_window_overflow_ou022_composed():
    # the system itself is fine; the *combination* of this bank table
    # and this firmware bursts past the end of RAM.  Only the composed
    # pass (microcode vs the actual map) can see it.
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    end_of_ram = RAM_BASE + RAM_SIZE - 8
    banks = {0: PROG, 1: end_of_ram, 2: OUT}
    report = lint_soc(soc, banks=banks,
                      firmware=canonical_program(16))
    assert "OU022" in codes(report)
    # without the firmware the same system and table are clean
    assert lint_soc(soc, banks=banks).clean
    with pytest.raises(ReproError):
        driver = OuessantDriver(soc)
        driver.run(canonical_program(16).words(), banks,
                   check_status=True, max_wait_cycles=50_000)


# ---------------------------------------------------------------------------
# corpus meta-check: the issue demands >= 10 distinct defect categories
# ---------------------------------------------------------------------------

def test_corpus_covers_ten_categories():
    import sys

    module = sys.modules[__name__]
    categories = [name for name in dir(module)
                  if name.startswith("test_defect_")]
    assert len(categories) >= 10, categories
