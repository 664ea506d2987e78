"""Batch composition: fuse small jobs into one microcode program.

Jobs are laid out back to back inside the batch's shared input and
output arenas, so the batch is one run of the canonical streaming
recipe (:func:`repro.core.program.streaming_program`) with one
operation per RAC block: each block is streamed in, started and
drained at its own offset, and the program raises a single
end-of-program interrupt for the whole batch.  That program depends
only on the block count, the block size and the transfer chunk, so each
shape is built and encoded once and shared by every batch of that
shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.program import OuProgram, streaming_program
from ..sim.errors import ConfigurationError
from .job import Job


@functools.lru_cache(maxsize=256)
def shape_program(
    operations: int, block: int, chunk: int,
) -> Tuple[OuProgram, Tuple[int, ...]]:
    """The batched program of ``operations`` blocks of ``block`` words,
    and its encoding.  Cached per shape; the program is shared by every
    batch of that shape and must not be mutated."""
    program = streaming_program([block], [block], operations, chunk)
    return program, tuple(program.words())


@dataclass
class Batch:
    """A group of jobs fused into one dispatch.

    ``program`` is shared by every batch of the same shape and must not
    be mutated; ``words`` is its encoding.
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


def compose_batch(
    jobs: List[Job], batch_id: int, chunk: int = 64,
    block: Optional[int] = None,
) -> Batch:
    """Fuse ``jobs`` into a single batched program.

    ``block`` is the RAC's words per operation (default: the first
    job's size, i.e. one operation per job); every job must be a whole
    number of blocks.  Jobs are laid out back to back in the input and
    output arenas, in submission order; program order equals submission
    order, so chains batched together keep their dependency order.
    """
    if not jobs:
        raise ConfigurationError("cannot compose an empty batch")
    if block is None:
        block = jobs[0].size
    offsets: List[int] = []
    total = 0
    for job in jobs:
        if job.size % block:
            raise ConfigurationError(
                f"job {job.job_id}: {job.size} words are not a whole "
                f"number of {block}-word blocks"
            )
        offsets.append(total)
        total += job.size
    program, words = shape_program(total // block, block, chunk)
    return Batch(batch_id, list(jobs), program, words, offsets,
                 list(offsets))
