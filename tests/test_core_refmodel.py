"""Differential testing: cycle-accurate controller vs reference model.

Random microcode programs are generated (structurally valid: chunked
transfers through a loopback RAC, optionally using the extension ISA),
executed both on the full simulated SoC and on the functional
reference model, and the final memory contents compared word for word.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.program import OuProgram
from repro.core.refmodel import ReferenceMemory, ReferenceRAC, execute_reference
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ControllerError
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def run_both(rac_factory, ref_rac_factory, program, input_words,
             out_words_count):
    """Run on the SoC and on the reference model; return both outputs."""
    # --- cycle-accurate ---
    soc = SoC(racs=[rac_factory()])
    soc.write_ram(IN, input_words)
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)
    simulated = soc.read_ram(OUT, out_words_count)

    # --- reference ---
    memory = ReferenceMemory()
    memory.write(IN, input_words)
    reference_rac = ref_rac_factory()
    execute_reference(
        program.instructions, {0: PROG, 1: IN, 2: OUT}, memory,
        reference_rac,
    )
    referenced = memory.read(OUT, out_words_count)
    return simulated, referenced


def test_reference_matches_simple_program():
    block = 16
    program = (OuProgram().stream_to(1, block).execs()
               .stream_from(2, block).eop())
    rac = lambda: PassthroughRac(block_size=block)
    ref = lambda: ReferenceRAC([block], [block], lambda c: [list(c[0])])
    simulated, referenced = run_both(rac, ref, program,
                                     list(range(100, 100 + block)), block)
    assert simulated == referenced


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(1, 4),
    chunk=st.sampled_from([4, 8, 16]),
    use_loop=st.booleans(),
    factor=st.integers(-3, 3),
    data=st.data(),
)
def test_random_programs_differential(n_blocks, chunk, use_loop, factor, data):
    block = 16
    total = n_blocks * block
    input_words = [
        data.draw(st.integers(0, 0xFFFF)) for _ in range(total)
    ]

    if use_loop and total % chunk == 0:
        n_chunks = total // chunk
        program = (
            OuProgram()
            .clrofr()
            .loop(n_chunks).mvtcx(1, 0, chunk).addofr(chunk).endl()
            .execs()
            .clrofr()
            .loop(n_chunks).mvfcx(2, 0, chunk).addofr(chunk).endl()
            .eop()
        )
    else:
        program = (OuProgram()
                   .stream_to(1, total, chunk=chunk)
                   .execs()
                   .stream_from(2, total, chunk=chunk)
                   .eop())

    def compute(collected):
        return [[((v - (1 << 32) if v & (1 << 31) else v) * factor
                  >> 1) & 0xFFFFFFFF for v in collected[0]]]

    rac = lambda: ScaleRac(block_size=block, factor=factor, shift=1,
                           fifo_depth=64)
    ref = lambda: ReferenceRAC([block], [block], compute)
    simulated, referenced = run_both(rac, ref, program, input_words, total)
    assert simulated == referenced


def test_reference_detects_overdrain():
    memory = ReferenceMemory()
    memory.write(IN, [1, 2, 3, 4])
    rac = ReferenceRAC([4], [4], lambda c: [list(c[0])])
    program = (OuProgram().stream_to(1, 4).execs()
               .stream_from(2, 8).eop())  # drains 8, produces 4
    with pytest.raises(ControllerError):
        execute_reference(program.instructions, {0: PROG, 1: IN, 2: OUT},
                          memory, rac)


def test_reference_memory_defaults_to_zero():
    memory = ReferenceMemory()
    assert memory.read(0x100, 2) == [0, 0]
    memory.write(0x100, [7])
    assert memory.read(0x100, 2) == [7, 0]
    assert memory.snapshot() == {0x100: 7}


def test_reference_fires_multi_port_operations():
    rac = ReferenceRAC([2, 1], [2], lambda c: [[c[0][0] + c[1][0],
                                                c[0][1] + c[1][0]]])
    rac.push(0, [10, 20])
    assert rac.ops_fired == 0  # config port still empty
    rac.push(1, [5])
    assert rac.ops_fired == 1
    assert rac.pop(0, 2) == [15, 25]


@settings(max_examples=15, deadline=None)
@given(
    positions=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    filler=st.sampled_from(["nop", "sync", "wait", "waitf"]),
    data=st.data(),
)
def test_timing_only_instructions_never_change_results(positions, filler,
                                                       data):
    """nop/sync/wait/waitf sprinkled anywhere: same memory outcome."""
    from repro.core.isa import OuInstruction, OuOp
    from repro.core.program import OuProgram

    block = 8
    base = (OuProgram().stream_to(1, 2 * block, chunk=block).execs()
            .stream_from(2, 2 * block, chunk=block).eop())
    instructions = base.instructions
    for position in sorted(set(positions)):
        if filler == "nop":
            extra = OuInstruction(OuOp.NOP)
        elif filler == "sync":
            extra = OuInstruction(OuOp.SYNC)
        elif filler == "wait":
            extra = OuInstruction(OuOp.WAIT,
                                  imm=data.draw(st.integers(0, 40)))
        else:
            extra = OuInstruction(OuOp.WAITF, fifo=0,
                                  count=data.draw(st.integers(0, 4)))
        instructions = (instructions[:position] + [extra]
                        + instructions[position:])
    program = OuProgram.from_instructions(instructions)
    rac = lambda: PassthroughRac(block_size=block)
    ref = lambda: ReferenceRAC([block], [block], lambda c: [list(c[0])])
    input_words = [data.draw(st.integers(0, 0xFFFF))
                   for _ in range(2 * block)]
    simulated, referenced = run_both(rac, ref, program, input_words,
                                     2 * block)
    assert simulated == referenced == input_words


@settings(max_examples=20, deadline=None)
@given(
    block=st.sampled_from([8, 16, 32]),
    n_blocks=st.integers(1, 3),
    chunk=st.sampled_from([4, 8, 16, 64]),
    drain_everything=st.booleans(),
)
def test_lint_clean_programs_complete(block, n_blocks, chunk,
                                      drain_everything):
    """Anything the linter passes must run to completion (no deadlock)."""
    from repro.verify import verify_program

    total = block * n_blocks
    drained = total if drain_everything else total - block
    program = OuProgram().stream_to(1, total, chunk=chunk).execs()
    if drained:
        program.stream_from(2, drained, chunk=chunk)
    program.eop()

    rac = PassthroughRac(block_size=block, fifo_depth=64)
    report = verify_program(program.instructions, rac=rac,
                            configured_banks={1, 2})
    if not report.clean:
        return  # verifier rejected it; nothing to check
    soc = SoC(racs=[rac])
    soc.write_ram(IN, list(range(total)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=200_000)
    if drained:
        assert soc.read_ram(OUT, drained) == list(range(drained))


def test_reference_rejects_runaway_program():
    memory = ReferenceMemory()
    rac = ReferenceRAC([1], [1], lambda c: [list(c[0])])
    program = OuProgram().jmp(0)  # infinite loop, no eop
    with pytest.raises(ControllerError):
        execute_reference(program.instructions, {}, memory, rac,
                          max_steps=100)
