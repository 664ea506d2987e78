"""Driver-level job submission facade over the throughput scheduler.

:class:`JobClient` is to the scheduler what
:class:`~repro.sw.driver.OuessantDriver` is to a single OCP: the
software-side entry point.  It owns job-id allocation, blocks on
back-pressure by advancing the simulated clock, and hands results back
in submission order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sched.job import Job, JobResult
from ..sched.scheduler import ThroughputScheduler
from ..verify.diagnostics import Finding, VerifyReport


class JobClient:
    """Submit kernels by kind; collect results in submission order."""

    def __init__(self, scheduler: ThroughputScheduler) -> None:
        self.scheduler = scheduler
        self._order: List[str] = []
        self._serial = 0

    def submit(
        self,
        kind: str,
        words: Sequence[int],
        chain: Optional[str] = None,
    ) -> Job:
        """Submit one job, blocking on back-pressure; returns the Job."""
        self._serial += 1
        job = Job(f"job{self._serial}", kind, list(words), chain=chain)
        self.scheduler.submit_blocking(job)
        self._order.append(job.job_id)
        return job

    def drain(self) -> List[JobResult]:
        """Run the stream to completion; results in submission order."""
        self.scheduler.drain()
        completed = self.scheduler.completed
        return [completed[job_id] for job_id in self._order]

    def results(self) -> Dict[str, JobResult]:
        """Results completed so far, keyed by job id."""
        return dict(self.scheduler.completed)

    def precheck(
        self,
        kind: str,
        words: Sequence[int],
        chain: Optional[str] = None,
    ) -> List[Finding]:
        """Dry-run the racelint submit check without submitting.

        Builds the job the next :meth:`submit` call would build (same
        id, which stays unallocated) and returns the concurrency
        hazards :mod:`repro.racelint` would flag against the jobs
        currently pending -- regardless of the scheduler's
        ``racecheck`` mode.
        """
        job = Job(f"job{self._serial + 1}", kind, list(words),
                  chain=chain)
        return self.scheduler.racecheck_job(job)

    @property
    def racecheck_report(self) -> VerifyReport:
        """The scheduler's accumulated OU2xx findings."""
        return self.scheduler.racecheck_report
