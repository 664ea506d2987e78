"""Microcode transformation and planning.

Two tools around the instruction set:

* :func:`compress_program` -- rewrite unrolled Figure-4-style transfer
  runs using the extension ISA's hardware loop (``loop``/``mvtcx``/
  ``addofr``/``endl``), shrinking microcode size independent of the
  data volume.  The rewrite is semantics-preserving (pinned by a
  differential test against the reference model).
* :func:`expand_program` -- the inverse direction: lower an
  extension-ISA program to the paper's base set (plus ``nop`` for
  waits), so firmware written for the extended controller still runs
  on a base-set-only build.

Static cycle prediction is :func:`repro.perfbound.bound_program`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim.errors import ConfigurationError, ControllerError
from .isa import OuInstruction, OuOp
from .program import OuProgram

#: rewrite runs at least this long -- the loop form costs 5 words
#: (clrofr/loop/mvtcx/addofr/endl), so shorter runs would grow
MIN_RUN = 6


def _is_plain_transfer(instr: OuInstruction) -> bool:
    return instr.op in (OuOp.MVTC, OuOp.MVFC)


def _run_length(program: Sequence[OuInstruction], start: int) -> int:
    """Longest uniform-stride transfer run starting at ``start``."""
    first = program[start]
    if not _is_plain_transfer(first):
        return 1
    length = 1
    while start + length < len(program):
        nxt = program[start + length]
        if (
            nxt.op is first.op
            and nxt.bank == first.bank
            and nxt.count == first.count
            and nxt.fifo == first.fifo
            and nxt.offset == first.offset + length * first.count
        ):
            length += 1
        else:
            break
    return length


def _checked(instructions: List[OuInstruction]) -> List[OuInstruction]:
    """Gate a rewriter's output through the static verifier."""
    from ..verify.engine import verify_program

    report = verify_program(instructions)
    if not report.clean:
        raise ConfigurationError(
            "rewritten program failed verification:\n" + report.render()
        )
    return instructions


def compress_program(
    program: Sequence[OuInstruction], check: bool = False
) -> List[OuInstruction]:
    """Collapse unrolled transfer runs into hardware loops.

    Only programs made of the base set are rewritten (a program that
    already uses OFR or loops is returned unchanged -- the rewrite
    would have to reason about interleaved register state).  With
    ``check=True`` the result is gated through the static verifier
    and a :class:`ConfigurationError` raised on any error finding.
    """
    if any(instr.op not in (OuOp.MVTC, OuOp.MVFC, OuOp.EXEC, OuOp.EXECS,
                            OuOp.EOP, OuOp.NOP, OuOp.IRQ, OuOp.SYNC,
                            OuOp.HALT, OuOp.WAIT, OuOp.WAITF)
           for instr in program):
        out = list(program)
        return _checked(out) if check else out
    out: List[OuInstruction] = []
    index = 0
    while index < len(program):
        run = _run_length(program, index)
        first = program[index]
        if run >= MIN_RUN and _is_plain_transfer(first):
            indexed_op = (
                OuOp.MVTCX if first.op is OuOp.MVTC else OuOp.MVFCX
            )
            out.append(OuInstruction(OuOp.CLROFR))
            out.append(OuInstruction(OuOp.LOOP, imm=run))
            out.append(OuInstruction(
                indexed_op, bank=first.bank, offset=first.offset,
                count=first.count, fifo=first.fifo,
            ))
            out.append(OuInstruction(OuOp.ADDOFR, imm=first.count))
            out.append(OuInstruction(OuOp.ENDL))
            index += run
        else:
            out.append(first)
            index += 1
    return _checked(out) if check else out


def expand_program(
    program: Sequence[OuInstruction], max_instructions: int = 16_384,
    check: bool = False,
) -> List[OuInstruction]:
    """Lower extension-ISA microcode to the paper's base set.

    Loops are unrolled, indexed transfers resolved against the OFR,
    jumps followed, and wait instructions dropped (they have no
    functional effect).  The result contains only
    ``mvtc``/``mvfc``/``exec``/``execs``/``eop`` (and ``halt`` is
    mapped to ``eop``-less termination by truncation).  With
    ``check=True`` the lowered program is gated through the static
    verifier before being returned.
    """
    out: List[OuInstruction] = []
    pc = 0
    ofr = 0
    loop_count = 0
    loop_body = 0
    loop_active = False
    steps = 0
    while pc < len(program):
        steps += 1
        if steps > max_instructions * 4 or len(out) > max_instructions:
            raise ControllerError("expansion exceeds the instruction budget")
        instr = program[pc]
        pc += 1
        op = instr.op
        if op in (OuOp.MVTC, OuOp.MVFC, OuOp.EXEC, OuOp.EXECS):
            out.append(instr)
        elif op in (OuOp.MVTCX, OuOp.MVFCX):
            base_op = OuOp.MVTC if op is OuOp.MVTCX else OuOp.MVFC
            out.append(OuInstruction(
                base_op, bank=instr.bank, offset=instr.offset + ofr,
                count=instr.count, fifo=instr.fifo,
            ))
        elif op is OuOp.ADDOFR:
            ofr += instr.imm
        elif op is OuOp.CLROFR:
            ofr = 0
        elif op is OuOp.JMP:
            pc = instr.imm
        elif op is OuOp.LOOP:
            if loop_active:
                raise ControllerError("nested loop in expansion")
            loop_active = True
            loop_count = instr.imm
            loop_body = pc
        elif op is OuOp.ENDL:
            if not loop_active:
                raise ControllerError("endl without loop in expansion")
            loop_count -= 1
            if loop_count > 0:
                pc = loop_body
            else:
                loop_active = False
        elif op in (OuOp.NOP, OuOp.WAIT, OuOp.WAITF, OuOp.SYNC, OuOp.IRQ):
            pass  # timing-only / side-band: no base-set equivalent needed
        elif op in (OuOp.EOP, OuOp.HALT):
            out.append(OuInstruction(OuOp.EOP))
            return _checked(out) if check else out
        else:  # pragma: no cover
            raise ControllerError(f"cannot expand {op}")
    raise ControllerError("expansion ran past the program (missing eop)")


def as_program(instructions: Sequence[OuInstruction]) -> OuProgram:
    """Wrap raw instructions back into a builder object."""
    return OuProgram.from_instructions(list(instructions))


def concat_programs(
    programs: Sequence[OuProgram],
    terminate: bool = True,
) -> OuProgram:
    """Concatenate terminated programs into one batched program.

    The scheduler uses this to fuse several small jobs into a single
    microcode image: each constituent's trailing terminators
    (``eop``/``halt``) are stripped, the bodies are appended in order,
    and a single ``eop`` is emitted at the end (one interrupt for the
    whole batch).

    Absolute control flow (``jmp``) is rejected -- its targets would be
    wrong after relocation.  ``loop``/``endl`` blocks are
    position-independent and pass through unchanged -- but only when
    the verifier can bound their execution: a constituent whose
    worst-case step count is unbounded (malformed loop nest,
    unstructured control flow) raises :class:`ValueError` naming the
    offending program by its position.  Concatenating such a program
    would hang the whole batch -- and every innocent job fused with it.
    """
    batched = OuProgram()
    for position, program in enumerate(programs):
        body = program.instructions
        if any(instr.op in (OuOp.LOOP, OuOp.ENDL, OuOp.JMP)
               for instr in body):
            # only looping/jumping constituents need the verifier; a
            # straight-line body is trivially bounded (hot path: the
            # scheduler concatenates per dispatch)
            from ..verify.engine import verify_program

            if verify_program(body).max_steps is None:
                raise ValueError(
                    f"program {position}: the verifier cannot bound this "
                    "program's execution; concatenating it would let "
                    "one runaway job hang the whole batch"
                )
        while body and body[-1].op in (OuOp.EOP, OuOp.HALT):
            body.pop()
        if not body:
            raise ConfigurationError(
                f"program {position} is empty after stripping terminators"
            )
        for instr in body:
            if instr.op is OuOp.JMP:
                raise ConfigurationError(
                    f"program {position} uses jmp: absolute targets "
                    "cannot be relocated by concatenation"
                )
            if instr.op in (OuOp.EOP, OuOp.HALT):
                raise ConfigurationError(
                    f"program {position} terminates mid-body; "
                    "only trailing terminators can be stripped"
                )
        batched.extend(OuProgram.from_instructions(body))
    if terminate:
        batched.eop()
    return batched

