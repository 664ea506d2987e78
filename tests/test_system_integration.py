"""Full-system integration: the ISS programs the OCP over the bus.

This is the closest analogue of the paper's board bring-up: real
(simulated) CPU instructions configure the Ouessant registers through
MMIO, the microcode runs, the completion interrupt wakes the CPU, and
the CPU inspects the results -- all inside one clocked simulation.
"""

import pytest

from repro.core.program import OuProgram
from repro.core.registers import CTRL_D, CTRL_IE, CTRL_S
from repro.cpu.assembler import assemble
from repro.rac.scale import ScaleRac
from repro.system import OCP_BASE, RAM_BASE, SoC, TIMER_BASE
from repro.sw.driver import OuessantDriver

PROG = RAM_BASE + 0x1_0000
IN = RAM_BASE + 0x2_0000
OUT = RAM_BASE + 0x3_0000
RESULT_FLAG = RAM_BASE + 0x4_0000

DRIVER_ASM = f"""
# baremetal Ouessant driver, hand-written for the integration test
    li   r1, {OCP_BASE}          # OCP register window
    li   r2, {PROG}              # bank 0: microcode
    sw   r2, 8(r1)
    li   r2, {IN}                # bank 1: input
    sw   r2, 12(r1)
    li   r2, {OUT}               # bank 2: output
    sw   r2, 16(r1)
    addi r3, r0, 4               # PROG_SIZE = 4 instructions
    sw   r3, 4(r1)
    addi r3, r0, {CTRL_S | CTRL_IE}
    sw   r3, 0(r1)               # S | IE: go
wait_irq:
    wfi
    lw   r4, 0(r1)               # read CTRL
    andi r5, r4, {CTRL_D}
    beq  r5, r0, wait_irq        # spurious wakeup: sleep again
    sw   r0, 0(r1)               # acknowledge: clear S
    # check the first output word doubled correctly: out[0] == 2*in[0]
    li   r6, {IN}
    lw   r7, 0(r6)
    add  r7, r7, r7
    li   r6, {OUT}
    lw   r8, 0(r6)
    li   r9, {RESULT_FLAG}
    bne  r7, r8, fail
    addi r10, r0, 1
    sw   r10, 0(r9)
    halt
fail:
    addi r10, r0, 2
    sw   r10, 0(r9)
    halt
"""


def build_soc():
    soc = SoC(racs=[ScaleRac(block_size=16, factor=2, shift=0)])
    soc.irqc  # CPU already wired to the IRQ controller
    microcode = (OuProgram().stream_to(1, 16).execs()
                 .stream_from(2, 16).eop())
    assert len(microcode) == 4
    soc.write_ram(PROG, microcode.words())
    soc.write_ram(IN, list(range(1, 17)))
    return soc


def test_cpu_programs_ocp_via_mmio_and_takes_interrupt():
    soc = build_soc()
    program = assemble(DRIVER_ASM, text_base=RAM_BASE,
                       data_base=RAM_BASE + 0x8000)
    soc.cpu.load(program)
    soc.run_until(lambda: soc.cpu.halted, max_cycles=100_000,
                  what="CPU halt")
    assert soc.read_ram(RESULT_FLAG, 1) == [1]  # CPU verified the result
    assert soc.read_ram(OUT, 16) == [2 * v for v in range(1, 17)]
    assert soc.cpu.stats["mmio"] >= 7  # register writes went over the bus


def test_cpu_wfi_actually_sleeps_until_irq():
    soc = build_soc()
    program = assemble(DRIVER_ASM, text_base=RAM_BASE,
                       data_base=RAM_BASE + 0x8000)
    soc.cpu.load(program)
    soc.run_until(lambda: soc.cpu.halted, max_cycles=100_000)
    assert soc.cpu.stats["wfi_cycles"] > 10  # slept during the microcode run


def test_cycle_timer_readable_over_bus():
    soc = build_soc()
    source = f"""
        li  r1, {TIMER_BASE}
        lw  r2, 0(r1)
        lw  r3, 0(r1)
        li  r4, {RESULT_FLAG}
        sub r5, r3, r2
        sw  r5, 0(r4)
        halt
    """
    soc.cpu.load(assemble(source, text_base=RAM_BASE,
                          data_base=RAM_BASE + 0x8000))
    soc.run_until(lambda: soc.cpu.halted, max_cycles=10_000)
    delta = soc.read_ram(RESULT_FLAG, 1)[0]
    assert delta > 0  # time passed between the two reads


def test_cpu_and_ocp_share_bus_fairly():
    """CPU keeps computing (and touching the bus) while the OCP works."""
    soc = build_soc()
    source = f"""
        li   r1, {OCP_BASE}
        li   r2, {PROG}
        sw   r2, 8(r1)
        li   r2, {IN}
        sw   r2, 12(r1)
        li   r2, {OUT}
        sw   r2, 16(r1)
        addi r3, r0, 4
        sw   r3, 4(r1)
        addi r3, r0, {CTRL_S}
        sw   r3, 0(r1)
    spin:
        lw   r4, 0(r1)            # poll over the bus: contends with OCP
        andi r5, r4, {CTRL_D}
        beq  r5, r0, spin
        sw   r0, 0(r1)
        halt
    """
    soc.cpu.load(assemble(source, text_base=RAM_BASE,
                          data_base=RAM_BASE + 0x8000))
    soc.run_until(lambda: soc.cpu.halted, max_cycles=200_000)
    assert soc.read_ram(OUT, 16) == [2 * v for v in range(1, 17)]
    # both masters used the bus
    assert soc.bus.stats["requests.cpu"] > 0
    assert soc.bus.stats["requests.ocp.if"] > 0


def test_two_ocps_operate_concurrently():
    from repro.rac.scale import PassthroughRac
    soc = SoC(racs=[ScaleRac(block_size=8, factor=3, shift=0),
                    PassthroughRac(block_size=8)])
    d0 = OuessantDriver(soc, ocp_index=0)
    d1 = OuessantDriver(soc, ocp_index=1)
    in0, out0 = RAM_BASE + 0x2000, RAM_BASE + 0x3000
    in1, out1 = RAM_BASE + 0x4000, RAM_BASE + 0x5000
    soc.write_ram(in0, list(range(8)))
    soc.write_ram(in1, list(range(50, 58)))
    microcode = (OuProgram().stream_to(1, 8).execs()
                 .stream_from(2, 8).eop()).words()
    # start both, then wait for both (interleaved operation)
    d0.place_program(microcode, RAM_BASE + 0x1000)
    d1.place_program(microcode, RAM_BASE + 0x6000)
    d0.configure({0: RAM_BASE + 0x1000, 1: in0, 2: out0}, len(microcode))
    d1.configure({0: RAM_BASE + 0x6000, 1: in1, 2: out1}, len(microcode))
    d0.start()
    d1.start()
    soc.run_until(lambda: soc.ocps[0].done and soc.ocps[1].done,
                  max_cycles=100_000)
    assert soc.read_ram(out0, 8) == [3 * v for v in range(8)]
    assert soc.read_ram(out1, 8) == list(range(50, 58))


def test_add_ocp_takes_only_the_next_index():
    # the window sits at ocp_base(index) and the OCP lands in
    # soc.ocps[len(soc.ocps)]: any other index would put them apart
    from repro.rac.scale import PassthroughRac
    from repro.sim.errors import ConfigurationError
    from repro.system import ocp_base

    soc = SoC(racs=[])
    with pytest.raises(ConfigurationError, match="OCP index 3"):
        soc.add_ocp(PassthroughRac(block_size=8), 3)
    assert soc.ocps == []
    soc.add_ocp(PassthroughRac(name="a", block_size=8), 0)
    ocp = soc.add_ocp(PassthroughRac(name="b", block_size=8))
    assert soc.ocps[1] is ocp
    assert soc.bus.memmap.find(ocp_base(1)).slave is ocp.interface


def test_ocp_slave_window_reachable_via_bus():
    soc = build_soc()
    assert soc.bus.read_now(OCP_BASE + 4, 1) == [0]  # PROG_SIZE reset
    soc.bus.write_now(OCP_BASE + 4, [7])
    assert soc.ocp.registers.prog_size == 7
