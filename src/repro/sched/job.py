"""Job model for the multi-OCP throughput scheduler.

A :class:`Job` is one accelerator invocation: a kernel kind (matched
against RAC ``kind`` strings through the capability table), a block of
unsigned 32-bit input words (checked when the job is built, so every
submission path refuses a bad word), and an optional *chain* tag.
Jobs sharing a chain form a dependency sequence: the scheduler pins
the chain to one OCP and never reorders its members, so chained
outputs are produced in submission order even under batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.errors import ConfigurationError
from ..utils.bits import WORD_MASK


@dataclass(frozen=True)
class Job:
    """One accelerator job (immutable once submitted)."""

    job_id: str
    kind: str
    words: List[int]
    chain: Optional[str] = None

    def __post_init__(self) -> None:
        words = self.words
        if not isinstance(words, list) or not words:
            raise ConfigurationError(
                f"job {self.job_id}: words must be a non-empty list of "
                f"integers, got {words!r}"
            )
        for position, word in enumerate(words):
            # a bus word is an unsigned 32-bit int (a bool is not one)
            if (isinstance(word, bool) or not isinstance(word, int)
                    or not 0 <= word <= WORD_MASK):
                raise ConfigurationError(
                    f"job {self.job_id}: word #{position} ({word!r}) is "
                    "not an unsigned 32-bit integer"
                )
        if self.chain is not None and not isinstance(self.chain, str):
            raise ConfigurationError(
                f"job {self.job_id}: chain must be a string or None, got "
                f"{self.chain!r}"
            )

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass
class JobResult:
    """Completion record for one job."""

    job: Job
    ocp_index: int
    outputs: List[int] = field(default_factory=list)
    submit_cycle: int = 0
    dispatch_cycle: int = 0
    complete_cycle: int = 0
    attempts: int = 1
    batch_id: int = 0

    @property
    def wait_cycles(self) -> int:
        """Cycles spent queued before dispatch began."""
        return self.dispatch_cycle - self.submit_cycle

    @property
    def turnaround_cycles(self) -> int:
        return self.complete_cycle - self.submit_cycle
