"""Tests for microcode compression and expansion, and the static cycle
bounds of the programs they produce."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import as_program, compress_program, expand_program
from repro.core.isa import OuInstruction, OuOp
from repro.core.program import (
    OuProgram,
    figure4_looped_program,
    figure4_program,
)
from repro.core.refmodel import ReferenceMemory, ReferenceRAC, execute_reference
from repro.perfbound import bound_program
from repro.rac.dft import DFTRac
from repro.rac.scale import PassthroughRac
from repro.sim.errors import ControllerError
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def run_reference(instructions, input_words, out_count, block=16):
    memory = ReferenceMemory()
    memory.write(IN, input_words)
    rac = ReferenceRAC([block], [block], lambda c: [list(c[0])])
    execute_reference(instructions, {0: PROG, 1: IN, 2: OUT}, memory, rac)
    return memory.read(OUT, out_count)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compress_figure4_matches_hand_written_loop():
    compressed = compress_program(figure4_program(256).instructions)
    assert compressed == figure4_looped_program(256).instructions


def test_compress_preserves_semantics():
    program = figure4_program(64)
    compressed = compress_program(program.instructions)
    data = list(range(128))
    assert run_reference(program.instructions, data, 128, block=128) == \
        run_reference(compressed, data, 128, block=128)


def test_compress_leaves_short_runs_alone():
    program = (OuProgram().mvtc(1, 0, 16).mvtc(1, 16, 16).execs()
               .mvfc(2, 0, 32).eop())
    assert compress_program(program.instructions) == program.instructions


def test_compress_skips_extension_programs():
    program = figure4_looped_program(256)
    assert compress_program(program.instructions) == program.instructions


def test_compress_requires_uniform_stride():
    # second transfer jumps: not an arithmetic progression
    program = (OuProgram().mvtc(1, 0, 16).mvtc(1, 64, 16)
               .mvtc(1, 128, 16).execs().mvfc(2, 0, 48).eop())
    compressed = compress_program(program.instructions)
    assert compressed == program.instructions


@settings(max_examples=20, deadline=None)
@given(n_chunks=st.integers(6, 14), chunk=st.sampled_from([4, 8, 16]))
def test_compress_differential_random(n_chunks, chunk):
    total = n_chunks * chunk
    program = (OuProgram().stream_to(1, total, chunk=chunk).execs()
               .stream_from(2, total, chunk=chunk).eop())
    compressed = compress_program(program.instructions)
    assert len(compressed) < len(program.instructions)
    data = list(range(total))
    assert run_reference(program.instructions, data, total, block=total) == \
        run_reference(compressed, data, total, block=total)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_looped_figure4_to_base_set():
    looped = figure4_looped_program(256)
    expanded = expand_program(looped.instructions)
    assert expanded == figure4_program(256).instructions
    assert all(instr.op in (OuOp.MVTC, OuOp.MVFC, OuOp.EXEC, OuOp.EXECS,
                            OuOp.EOP) for instr in expanded)


def test_expand_resolves_jumps():
    program = (OuProgram().jmp(2).wait(100).mvtc(1, 0, 4).execs()
               .mvfc(2, 0, 4).eop())
    expanded = expand_program(program.instructions)
    assert expanded[0].op is OuOp.MVTC


def test_expand_detects_missing_eop():
    program = OuProgram().nop()
    with pytest.raises(ControllerError):
        expand_program(program.instructions)


def test_expand_detects_runaway():
    program = OuProgram().jmp(0)
    with pytest.raises(ControllerError):
        expand_program(program.instructions, max_instructions=64)


def test_expanded_program_runs_on_base_controller():
    """Extension firmware lowered to base set still computes correctly."""
    looped = figure4_looped_program(64)
    base_words = as_program(expand_program(looped.instructions)).words()
    from repro.utils import fixedpoint as fp
    soc = SoC(racs=[DFTRac(n_points=64)])
    re = [fp.float_to_q15(0.2)] * 64
    im = [0] * 64
    soc.write_ram(IN, fp.interleave_complex(re, im))
    soc.write_ram(PROG, base_words)
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(base_words))
    soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    assert fp.deinterleave_complex(soc.read_ram(OUT, 128)) == \
        fp.fft_q15(re, im)


# ---------------------------------------------------------------------------
# static cycle bounds (repro.perfbound)
# ---------------------------------------------------------------------------

def _simulated_cycles(program, rac):
    soc = SoC(racs=[rac])
    soc.write_ram(IN, list(range(4096)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    return soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)


def test_estimate_within_tolerance_of_simulation():
    """The static bound of a chunked stream brackets the simulated run."""
    for total, latency in ((64, 10), (256, 500), (512, 2485)):
        rac = PassthroughRac(block_size=total, fifo_depth=128,
                             compute_latency=latency)
        program = (OuProgram().stream_to(1, total, chunk=64).execs()
                   .stream_from(2, total, chunk=64).eop())
        bound = bound_program(program.instructions, rac)
        simulated = _simulated_cycles(program, rac)
        assert bound.bounded
        assert bound.total.lo <= simulated <= bound.total.hi, (
            f"total={total} latency={latency}: simulated {simulated} "
            f"outside {bound.total}"
        )


def test_estimate_handles_extension_programs():
    """The looped form is bounded too, and each bound holds its run."""
    for program in (figure4_program(256), figure4_looped_program(256)):
        bound = bound_program(program.instructions, DFTRac(n_points=256))
        simulated = _simulated_cycles(program, DFTRac(n_points=256))
        assert bound.bounded
        assert bound.total.lo <= simulated <= bound.total.hi


def test_estimate_reports_breakdown():
    program = figure4_program(256)
    bound = bound_program(program.instructions, DFTRac(n_points=256))
    buckets = (bound.transfer, bound.compute, bound.control)
    assert bound.total.lo == sum(b.lo for b in buckets)
    assert bound.total.hi == sum(b.hi for b in buckets)
    # Figure 4 uses execs: no blocking compute, one DFT operation
    assert (bound.compute.lo, bound.compute.hi) == (0, 0)
    assert (bound.ops.lo, bound.ops.hi) == (1, 1)
    assert "cycles" in bound.render()


# ---------------------------------------------------------------------------
# batch concatenation: verifier bounds gate
# ---------------------------------------------------------------------------

def _terminated(instructions):
    return OuProgram.from_instructions(
        list(instructions) + [OuInstruction(OuOp.EOP)]
    )


def test_concat_accepts_bounded_looped_constituents():
    from repro.core.codegen import concat_programs

    batched = concat_programs(
        [figure4_looped_program(64), figure4_looped_program(64)]
    )
    # both constituents' loop nests survive (an in/out loop each),
    # one terminator for the whole batch
    assert batched.instructions[-1].op is OuOp.EOP
    assert sum(
        1 for i in batched.instructions if i.op is OuOp.LOOP
    ) == 4


def test_concat_rejects_unboundable_constituent_loudly():
    from repro.core.codegen import concat_programs

    runaway = _terminated([
        OuInstruction(OuOp.MVTC, bank=1, offset=0, count=4),
        OuInstruction(OuOp.JMP, imm=0),
    ])
    with pytest.raises(ValueError, match="program 1"):
        concat_programs([figure4_looped_program(64), runaway])
