"""racelint -- static cross-OCP concurrency-hazard analysis.

Takes a planned job stream plus a multi-OCP SoC (live scheduler or
pre-elaboration plan) and reports, before a single simulated cycle,
which jobs can race: may-happen-in-parallel footprint overlaps
(``OU200``/``OU201``), DMA aliasing (``OU202``), unboundable
footprints (``OU203``), arenas outside RAM (``OU204``) and hazards
introduced purely by batch concatenation (``OU205``).

Entry points:

* :func:`check_stream` -- one-shot analysis of a whole stream,
  mirroring :func:`repro.soclint.lint_soc`'s report/JSON/suppression
  shape;
* :class:`RaceChecker` -- the incremental core, driven per submission
  by :class:`~repro.sched.scheduler.ThroughputScheduler` when
  ``racecheck=`` is enabled;
* :class:`StreamModel` -- the placement model, over the scheduler's
  own slot plans (:class:`SlotPlan` and ``ARENA_REGION_BYTES`` are
  re-exported here).
"""

from ..sched.scheduler import ARENA_REGION_BYTES, SlotPlan
from .engine import ProgramFactory, RaceChecker, check_stream
from .model import StreamModel

__all__ = [
    "ARENA_REGION_BYTES",
    "ProgramFactory",
    "RaceChecker",
    "SlotPlan",
    "StreamModel",
    "check_stream",
]
