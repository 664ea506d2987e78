"""Multi-OCP throughput scheduling (MPSoC scale-out).

The paper's Section II-A argument -- OCPs are ordinary bus
peripherals, so one SoC can host many -- only pays off with a
dispatcher that turns N attached coprocessors into aggregate
throughput.  This package provides that dispatcher plus its
correctness machinery:

* :class:`~repro.sched.job.Job` / :class:`~repro.sched.job.JobResult`
  -- the job model (kernel kind, input block, optional dependency
  chain);
* :class:`~repro.sched.capability.CapabilityTable` -- kernel-kind to
  serving-OCP routing, soclint-validated (OU170/OU171);
* :func:`~repro.sched.batch.compose_batch` -- fuse small jobs into one
  run of the streaming microcode recipe, one operation per RAC block
  (single IRQ per batch);
* :class:`~repro.sched.scheduler.ThroughputScheduler` -- the
  cycle-accurate dispatcher (bounded queues, back-pressure, pluggable
  round-robin / shortest-queue / cost-aware fairness, IRQ-driven
  completion, abort-and-retry on traps, perfbound-backed SLA
  admission);
* :func:`~repro.sched.reference.run_sequential_reference` -- the
  sequential single-OCP oracle the differential suite compares
  against.
"""

from .batch import Batch, compose_batch
from .capability import CapabilityTable
from .job import Job, JobResult
from .reference import run_sequential_reference
from .scheduler import (
    CostAwarePolicy,
    RaceHazardError,
    RoundRobinPolicy,
    SchedulerError,
    SchedulingPolicy,
    ShortestQueuePolicy,
    SlaRejectionError,
    ThroughputScheduler,
)

__all__ = [
    "Batch",
    "CapabilityTable",
    "CostAwarePolicy",
    "Job",
    "JobResult",
    "RaceHazardError",
    "RoundRobinPolicy",
    "SchedulerError",
    "SchedulingPolicy",
    "ShortestQueuePolicy",
    "SlaRejectionError",
    "ThroughputScheduler",
    "compose_batch",
    "run_sequential_reference",
]
