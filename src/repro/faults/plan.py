"""Seeded, replayable fault schedules.

The paper's integration argument -- the OCP is "just another slave" on
the bus, so a misbehaving accelerator cannot take the SoC down -- is a
robustness claim, and robustness claims need adversity to be tested
against.  A :class:`FaultPlan` is that adversity, made deterministic:
a list of :class:`FaultEvent` entries, optionally generated from a
seeded RNG, that the injector wrappers in
:mod:`repro.faults.injectors` consult.  Two runs with the same plan see
byte-identical faults at the same trigger points, so every failure is
replayable.

Events trigger either on the *n-th operation at a site* (bus access
number, FIFO push number -- robust against incidental timing drift) or
on an absolute cycle (microcode corruption, exec hangs).  Sites are
short strings naming an interposition point:

========== ====================================================
``ram``     main memory as seen from the bus
``fifo.inN`` / ``fifo.outN``  the OCP's N-th input/output FIFO
``mc``      microcode words in memory (cycle-triggered)
``rac``     the accelerator's ``end_op`` handshake (cycle window)
========== ====================================================
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


class FaultKind(enum.Enum):
    """What goes wrong."""

    #: XOR one bit of a data word crossing the site
    BIT_FLIP = "bit_flip"
    #: a FIFO push handshake is lost: the word silently disappears
    DROP_WORD = "drop_word"
    #: a FIFO push handshake double-fires: the word is enqueued twice
    DUP_WORD = "dup_word"
    #: the slave answers the access with an ERROR response
    SLAVE_ERROR = "slave_error"
    #: the slave inserts ``duration`` extra wait states on one access
    STALL = "stall"
    #: XOR one bit of a microcode word in memory at a given cycle
    CORRUPT_MICROCODE = "corrupt_microcode"
    #: suppress the RAC's ``end_op`` for ``duration`` cycles (0 = forever)
    HANG_EXEC = "hang_exec"


#: fault kinds that cannot change a program's functional outcome --
#: they only add latency, so a run under them must still match the
#: reference model word for word
RECOVERABLE_KINDS = frozenset({FaultKind.STALL})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``index`` is the occurrence number at the site (0-based access /
    push counter) for operation-triggered kinds, or the absolute cycle
    for ``CORRUPT_MICROCODE`` / ``HANG_EXEC``.  ``word`` selects the
    word within a burst (``BIT_FLIP`` on ``ram``) or the absolute byte
    address (``CORRUPT_MICROCODE``).
    """

    kind: FaultKind
    site: str
    index: int = 0
    bit: int = 0
    word: int = 0
    duration: int = 0

    def describe(self) -> str:
        extra = ""
        if self.kind in (FaultKind.BIT_FLIP, FaultKind.CORRUPT_MICROCODE):
            extra = f" bit={self.bit} word={self.word:#x}"
        elif self.kind in (FaultKind.STALL, FaultKind.HANG_EXEC):
            extra = f" duration={self.duration or 'forever'}"
        return f"{self.kind.value}@{self.site}[{self.index}]{extra}"


@dataclass
class FaultPlan:
    """A deterministic schedule of faults.

    Build one explicitly from events, or use :meth:`random` /
    :meth:`random_stalls` to generate a schedule from a seed.  The seed
    is carried along purely for reporting -- replaying a plan never
    consults the RNG again.
    """

    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def random(
        cls,
        seed: int,
        n_events: int = 4,
        sites: Sequence[str] = ("ram",),
        kinds: Sequence[FaultKind] = (
            FaultKind.BIT_FLIP,
            FaultKind.SLAVE_ERROR,
            FaultKind.STALL,
        ),
        max_index: int = 32,
        max_stall: int = 20,
    ) -> "FaultPlan":
        """Draw ``n_events`` faults from a seeded RNG.

        ``word`` is drawn from 0..7 (a word within a RAM burst), so a
        ``CORRUPT_MICROCODE`` event drawn for ``mc`` addresses no RAM
        and ``inject_faults`` rejects it; build those explicitly.
        """
        rng = random.Random(seed)
        events = [
            FaultEvent(
                kind=rng.choice(list(kinds)),
                site=rng.choice(list(sites)),
                index=rng.randrange(max_index),
                bit=rng.randrange(32),
                word=rng.randrange(8),
                duration=rng.randrange(1, max_stall + 1),
            )
            for _ in range(n_events)
        ]
        return cls(seed=seed, events=events)

    @classmethod
    def random_stalls(
        cls,
        seed: int,
        n_events: int = 4,
        sites: Sequence[str] = ("ram",),
        max_index: int = 32,
        max_stall: int = 20,
    ) -> "FaultPlan":
        """A recoverable-only plan: stall windows, no data corruption.

        Runs under such a plan must produce exactly the reference
        model's memory image -- the differential harness leans on this.
        """
        return cls.random(
            seed, n_events=n_events, sites=sites,
            kinds=(FaultKind.STALL,), max_index=max_index,
            max_stall=max_stall,
        )

    # -- queries ---------------------------------------------------------
    def at_site(self, site: str) -> List[FaultEvent]:
        return [e for e in self.events if e.site == site]

    @property
    def recoverable(self) -> bool:
        """True when no event can alter the functional outcome."""
        return all(e.kind in RECOVERABLE_KINDS for e in self.events)

    def describe(self) -> str:
        lines = [f"fault plan (seed={self.seed}, {len(self.events)} events)"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


def fifo_site_for(fifo_name: str) -> Optional[str]:
    """Map an OCP FIFO component name to its plan site.

    ``ocp.fin0`` -> ``fifo.in0``; ``ocp3.fout1.g2`` -> ``fifo.out1``;
    anything that is not an OCP fabric FIFO maps to ``None``.
    """
    for part in fifo_name.split("."):
        if part.startswith("fin") and part[3:].isdigit():
            return f"fifo.in{part[3:]}"
        if part.startswith("fout") and part[4:].isdigit():
            return f"fifo.out{part[4:]}"
    return None
