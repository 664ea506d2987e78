"""Ticked-mode ISS tests: equivalence with fast mode, MMIO, IRQs."""

import pytest

from repro.bus.bus import SystemBus
from repro.bus.irq import IRQController, IRQLine
from repro.cpu.assembler import assemble
from repro.cpu.cpu import CPU
from repro.cpu import kernels
from repro.mem.memory import Memory
from repro.sim.kernel import Simulator


def ticked_cpu(source, mem_bytes=1 << 20, **sim_kw):
    sim = Simulator(**sim_kw)
    memory = Memory("ram", mem_bytes)
    irqc = IRQController()
    cpu = CPU(memory=memory, memory_base=0, irq=irqc)
    sim.add(cpu)
    cpu.load(assemble(source, text_base=0, data_base=0x10000))
    return sim, cpu, irqc


FIB = """
    addi r1, r0, 0
    addi r2, r0, 1
    addi r3, r0, 20
loop:
    add  r4, r1, r2
    mv   r1, r2
    mv   r2, r4
    addi r3, r3, -1
    bne  r3, r0, loop
    halt
"""


def test_ticked_equals_fast_results_and_cycles():
    # fast mode
    memory = Memory("ram", 1 << 20)
    fast = CPU(memory=memory)
    fast.load(assemble(FIB, text_base=0, data_base=0x10000))
    fast_cycles = fast.run()

    # ticked mode
    sim, ticked, _ = ticked_cpu(FIB)
    sim.run_until(lambda: ticked.halted, max_cycles=10_000)
    assert ticked.reg(2) == fast.reg(2)
    assert ticked.cycles == fast_cycles


def test_ticked_equals_fast_on_real_kernel():
    """The whole IDCT kernel, both modes: same memory, same cycles."""
    source = kernels.idct_sw_source()
    block = [v & 0xFFFFFFFF for v in range(-32, 32)]

    memory = Memory("ram", 1 << 20)
    fast = CPU(memory=memory)
    program = assemble(source, text_base=0, data_base=0x10000)
    fast.load(program)
    memory.load_words(program.address_of("idct_in"), block)
    fast_cycles = fast.run()
    fast_out = memory.dump_words(program.address_of("idct_out"), 64)

    sim, ticked, _ = ticked_cpu(source)
    ticked.memory.load_words(program.address_of("idct_in"), block)
    sim.run_until(lambda: ticked.halted, max_cycles=50_000)
    ticked_out = ticked.memory.dump_words(program.address_of("idct_out"), 64)

    assert ticked_out == fast_out
    assert ticked.cycles == fast_cycles


def test_ticked_multicycle_ops_stall():
    source = "div r1, r0, r0\nhalt"
    sim, cpu, _ = ticked_cpu(source)
    sim.run_until(lambda: cpu.halted, max_cycles=100)
    assert cpu.cycles == 35 + 1  # div=35, halt=1


def test_mmio_load_waits_for_bus():
    sim = Simulator()
    bus = SystemBus()
    sim.add(bus)
    memory = Memory("ram", 1 << 16)
    bus.attach_slave("ram", 0x0, 1 << 16, memory)
    mmio = Memory("mmio", 64, access_latency=3)
    mmio.load_words(0, [0xFEED])
    bus.attach_slave("mmio", 0x8000_0000, 64, mmio)
    cpu = CPU(memory=memory, memory_base=0, bus=bus)
    sim.add(cpu)
    cpu.load(assemble("""
        li r1, 0x80000000
        lw r2, 0(r1)
        halt
    """, text_base=0, data_base=0x8000))
    sim.run_until(lambda: cpu.halted, max_cycles=100)
    assert cpu.reg(2) == 0xFEED
    # the MMIO load took multiple cycles (bus + wait states)
    assert cpu.cycles > 4


def test_wfi_wakes_only_on_irq():
    sim, cpu, irqc = ticked_cpu("wfi\naddi r1, r0, 7\nhalt")
    line = IRQLine("ext")
    irqc.register(line)
    sim.step(50)
    assert not cpu.halted
    assert cpu.reg(1) == 0
    line.assert_()
    sim.run_until(lambda: cpu.halted, max_cycles=50)
    assert cpu.reg(1) == 7
    assert cpu.stats["wfi_cycles"] >= 49


@pytest.mark.parametrize("idle_skip", [False, True], ids=["naive", "fast"])
def test_wfi_cycles_count_from_the_cycle_the_wfi_is_reached(idle_skip):
    """A ``wfi`` behind a 35-cycle ``div`` and an ``addi`` waits from
    cycle 36.  The fast schedule sleeps through it without ever ticking
    the ``wfi``, so the wait is stamped where the ``addi`` issues; a
    read mid-wait counts the open interval."""
    sim, cpu, irqc = ticked_cpu(
        "div r2, r1, r1\naddi r1, r0, 1\nwfi\naddi r1, r0, 7\nhalt",
        idle_skip=idle_skip)
    line = IRQLine("ext")
    irqc.register(line)
    sim.step(50)
    assert (cpu.cycles, cpu.stats["wfi_cycles"]) == (50, 14)
    line.assert_()
    sim.run_until(lambda: cpu.halted, max_cycles=50)
    assert (sim.cycle, cpu.cycles, cpu.stats["wfi_cycles"]) == (53, 53, 14)
