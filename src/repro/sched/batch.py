"""Batch composition: fuse small jobs into one microcode program.

Each job contributes the canonical Figure-4 shape (stream in, start,
stream out) at a distinct offset inside the batch's shared input and
output arenas; :func:`repro.core.codegen.concat_programs` fuses the
per-job programs into one image that raises a single end-of-program
interrupt for the whole batch.  That program depends only on the
jobs' sizes and the transfer chunk, so each size shape is built and
encoded once and shared by every batch of that shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.codegen import concat_programs
from ..core.isa import MAX_OFFSET, MAX_TRANSFER_WORDS
from ..core.program import OuProgram
from ..sim.errors import ConfigurationError
from .job import Job

#: microcode bank numbers the scheduler configures on every dispatch
PROG_BANK = 0
IN_BANK = 1
OUT_BANK = 2


def job_program(
    job: Job, in_offset: int = 0, out_offset: int = 0, chunk: int = 64,
) -> OuProgram:
    """The standalone (terminated) microcode for one job.

    The sequential reference runner executes exactly this program, so
    batched execution is differentially comparable instruction by
    instruction.
    """
    _check_offsets(job, in_offset, out_offset)
    return _transfer_program(job.size, in_offset, out_offset, chunk)


def _check_offsets(job: Job, in_offset: int, out_offset: int) -> None:
    if in_offset + job.size - 1 > MAX_OFFSET:
        raise ConfigurationError(
            f"job {job.job_id}: input offset {in_offset}+{job.size} "
            f"exceeds the ISA offset field (max {MAX_OFFSET})"
        )
    if out_offset + job.size - 1 > MAX_OFFSET:
        raise ConfigurationError(
            f"job {job.job_id}: output offset {out_offset}+{job.size} "
            f"exceeds the ISA offset field (max {MAX_OFFSET})"
        )


def _transfer_program(size: int, in_offset: int, out_offset: int,
                      chunk: int) -> OuProgram:
    """Stream ``size`` words in, start, stream them out, ``eop``."""
    chunk = min(chunk, MAX_TRANSFER_WORDS)
    return (
        OuProgram()
        .stream_to(IN_BANK, size, chunk=chunk, base_offset=in_offset)
        .execs()
        .stream_from(OUT_BANK, size, chunk=chunk, base_offset=out_offset)
        .eop()
    )


@functools.lru_cache(maxsize=256)
def _shape_program(
    sizes: Tuple[int, ...], chunk: int,
) -> Tuple[OuProgram, Tuple[int, ...]]:
    """The batched program of jobs of ``sizes`` laid out back to back,
    and its encoding.  Cached per shape; the program is shared by every
    batch of that shape and never mutated."""
    programs: List[OuProgram] = []
    offset = 0
    for size in sizes:
        programs.append(_transfer_program(size, offset, offset, chunk))
        offset += size
    program = concat_programs(programs)
    return program, tuple(program.words())


@dataclass
class Batch:
    """A group of jobs fused into one dispatch.

    ``program`` is shared by every batch of the same job sizes and
    chunk and must not be mutated; ``words`` is its encoding.
    """

    batch_id: int
    jobs: List[Job]
    program: OuProgram
    words: Tuple[int, ...]
    in_offsets: List[int] = field(default_factory=list)
    out_offsets: List[int] = field(default_factory=list)
    attempts: int = 0

    @property
    def total_words(self) -> int:
        return sum(job.size for job in self.jobs)


def compose_batch(jobs: List[Job], batch_id: int, chunk: int = 64) -> Batch:
    """Fuse ``jobs`` into a single batched program.

    Jobs are laid out back to back in the input and output arenas, in
    submission order; program order equals submission order, so chains
    batched together keep their dependency order.
    """
    if not jobs:
        raise ConfigurationError("cannot compose an empty batch")
    offsets: List[int] = []
    offset = 0
    for job in jobs:
        _check_offsets(job, offset, offset)
        offsets.append(offset)
        offset += job.size
    program, words = _shape_program(tuple(job.size for job in jobs), chunk)
    return Batch(batch_id, list(jobs), program, words, offsets,
                 list(offsets))
