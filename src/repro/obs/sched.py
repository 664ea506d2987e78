"""Per-OCP scheduling attribution: queue depth, utilization, waits.

The MPSoC scale-out argument needs the same attribution discipline as
the single-OCP Figure-4 breakdown: *where did the cycles of a
scheduled run go, per coprocessor?*  This module condenses a
:class:`~repro.sched.scheduler.ThroughputScheduler`'s accounting into
a report whose invariants are testable (completed jobs across OCPs sum
to the scheduler's total; utilization is busy cycles over wall-clock
cycles; queue high-water never exceeds the configured bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class OcpSchedStats:
    """One coprocessor's share of a scheduled run."""

    index: int
    name: str
    kind: str
    jobs: int
    batches: int
    retries: int
    busy_cycles: int
    utilization: float
    queue_high_water: int
    queue_bound: int
    max_wait: int
    mean_wait: float
    #: jobs currently queued or in flight (0 after a drain)
    pending_jobs: int = 0
    #: predicted cycles of the pending jobs (repro.perfbound midpoints)
    est_pending_cycles: int = 0
    #: predicted cycles of the jobs this OCP completed -- the *work*
    #: routed here, so count-based and cost-based policies are
    #: comparable in one report
    predicted_done_cycles: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "kind": self.kind,
            "jobs": self.jobs,
            "batches": self.batches,
            "retries": self.retries,
            "busy_cycles": self.busy_cycles,
            "utilization": round(self.utilization, 6),
            "queue_high_water": self.queue_high_water,
            "queue_bound": self.queue_bound,
            "max_wait": self.max_wait,
            "mean_wait": round(self.mean_wait, 3),
            "pending_jobs": self.pending_jobs,
            "est_pending_cycles": self.est_pending_cycles,
            "predicted_done_cycles": self.predicted_done_cycles,
        }


@dataclass(frozen=True)
class ScheduleReport:
    """Whole-run scheduling attribution."""

    total_cycles: int
    total_jobs: int
    total_batches: int
    total_retries: int
    per_ocp: List[OcpSchedStats]

    @property
    def consistent(self) -> bool:
        """Per-OCP job counts must account for every completed job."""
        return sum(stats.jobs for stats in self.per_ocp) == self.total_jobs

    def as_dict(self) -> Dict[str, object]:
        return {
            "total_cycles": self.total_cycles,
            "total_jobs": self.total_jobs,
            "total_batches": self.total_batches,
            "total_retries": self.total_retries,
            "per_ocp": [stats.as_dict() for stats in self.per_ocp],
        }

    def render(self) -> str:
        lines = [
            f"scheduled run: {self.total_jobs} jobs in "
            f"{self.total_cycles} cycles "
            f"({self.total_batches} batches, {self.total_retries} retries)",
            "  ocp kind          jobs batches util   queue(hw/bound) "
            "wait(max/mean) work(pred)",
        ]
        for stats in self.per_ocp:
            lines.append(
                f"  {stats.index:<3} {stats.kind:<13} {stats.jobs:>4} "
                f"{stats.batches:>7} {stats.utilization:>5.1%}  "
                f"{stats.queue_high_water:>2}/{stats.queue_bound:<12} "
                f"{stats.max_wait}/{stats.mean_wait:.1f} "
                f"{stats.predicted_done_cycles:>10}"
            )
        return "\n".join(lines)


def attribute_schedule(scheduler) -> ScheduleReport:
    """Condense a drained (or mid-flight) scheduler into a report."""
    total_cycles = scheduler.soc.sim.cycle
    per_ocp: List[OcpSchedStats] = []
    waits: Dict[int, List[int]] = {}
    for result in scheduler.completed.values():
        waits.setdefault(result.ocp_index, []).append(result.wait_cycles)
    done_cycles: Dict[int, int] = {}
    slot_by_index = {slot.index: slot for slot in scheduler.slots}
    for result in scheduler.completed.values():
        done_cycles[result.ocp_index] = (
            done_cycles.get(result.ocp_index, 0)
            + scheduler.predicted_job_cycles(
                result.job, slot_by_index[result.ocp_index])
        )
    for slot in scheduler.slots:
        slot_waits = waits.get(slot.index, [])
        in_flight = len(slot.batch.jobs) if slot.batch else 0
        per_ocp.append(OcpSchedStats(
            index=slot.index,
            name=slot.ocp.name,
            kind=slot.ocp.rac.kind,
            jobs=slot.jobs_done,
            batches=slot.batches_done,
            retries=slot.retries,
            busy_cycles=slot.busy_cycles,
            utilization=(slot.busy_cycles / total_cycles
                         if total_cycles else 0.0),
            queue_high_water=slot.queue_high_water,
            queue_bound=scheduler.queue_bound,
            max_wait=max(slot_waits, default=0),
            mean_wait=(sum(slot_waits) / len(slot_waits)
                       if slot_waits else 0.0),
            pending_jobs=len(slot.queue) + in_flight,
            est_pending_cycles=scheduler.pending_cycles(slot.index),
            predicted_done_cycles=done_cycles.get(slot.index, 0),
        ))
    return ScheduleReport(
        total_cycles=total_cycles,
        total_jobs=len(scheduler.completed),
        total_batches=sum(s.batches for s in per_ocp),
        total_retries=sum(s.retries for s in per_ocp),
        per_ocp=per_ocp,
    )
