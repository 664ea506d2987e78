"""Throughput scheduler dispatching job streams across N OCPs.

The scheduler is a :class:`~repro.sim.kernel.Component` living *inside*
the simulated clock: per-OCP dispatch is a small state machine that
configures bank registers over the bus one write at a time, arms
CTRL.S|IE, sleeps on the coprocessor's IRQ line, reads CTRL back to
separate completion from a trap, and acknowledges -- exactly the
sequence a bare-metal interrupt-driven runtime performs, but for many
coprocessors concurrently behind one arbiter.

Routing goes through the kernel-capability table (kind -> serving
OCPs) and a pluggable fairness policy; per-OCP queues are bounded and
``submit`` exerts back-pressure by returning ``False`` when every
eligible queue is full.  Trapped batches (e.g. a watchdog timeout under
an injected execution hang) are aborted with the driver recipe --
CTRL=0, then the coprocessor's soft reset -- and retried after an
exponential backoff.  The register writes and the status decode are
the shared recipe of :mod:`repro.core.registers`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Set, Tuple

from ..bus.types import AccessKind, BusTransfer
from ..core.coprocessor import OuessantCoprocessor
from ..core.program import bank_addresses, check_chunk
from ..core.registers import REG_CTRL, config_writes, start_word, trap_code
from ..sim.errors import ConfigurationError, ReproError
from ..sim.kernel import MAX_WAIT_CYCLES, Component
from ..sim.tracing import elapsed
from ..system import RAM_BASE, ocp_base
from ..verify.diagnostics import (
    Finding,
    VerifyReport,
    has_error_findings,
)
from .batch import Batch, compose_batch, shape_program
from .capability import CapabilityTable
from .job import Job, JobResult

#: scheduler-owned RAM region: per-OCP program/input/output arenas,
#: well clear of the low-RAM addresses the driver examples use
SCHED_ARENA_BASE_OFFSET = 0x0020_0000
SCHED_ARENA_STRIDE = 0x0004_0000
ARENA_WORDS = 0x0001_0000 // 4
#: byte size of each per-slot arena region (program, input, output)
ARENA_REGION_BYTES = 4 * ARENA_WORDS

#: back-off growth cap: retries never sleep longer than this
MAX_BACKOFF_CYCLES = 1 << 14

#: CTRL value that arms a slot's run (the slot sleeps on the IRQ)
_START = start_word(True)


class SchedulerError(ReproError):
    """A job stream could not be completed (unrecoverable trap)."""


class RaceHazardError(SchedulerError):
    """Submission refused: the job may race a pending job (OU2xx).

    Raised by :meth:`ThroughputScheduler.submit` under
    ``racecheck="submit"`` when :mod:`repro.racelint` reports an
    error-severity hazard between the new job and the jobs already
    queued or in flight.
    """


class SlaRejectionError(SchedulerError):
    """Submission refused at admission time: the SLA cannot be met.

    Raised by :meth:`ThroughputScheduler.submit` when ``sla_cycles``
    is configured and, on every eligible OCP, the predicted backlog
    plus the job's worst-case cost bound (OU304 semantics, from
    :mod:`repro.perfbound`) exceeds the budget.
    """


@dataclass(frozen=True)
class SlotPlan:
    """Placement facts for one OCP the scheduler can dispatch to.

    The one owner of an OCP's arena layout, register window and job
    fit: the scheduler dispatches by it and :mod:`repro.racelint`
    analyzes by it.
    """

    index: int
    kind: str
    #: words per operation on each input / output port of the RAC
    items_in: Tuple[int, ...]
    items_out: Tuple[int, ...]
    max_job_words: int
    prog_base: int
    in_base: int
    out_base: int
    reg_base: int
    reg_bytes: int

    @classmethod
    def of(cls, index: int, rac: Any, arena: int) -> "SlotPlan":
        """The plan of OCP ``index`` hosting ``rac``, with its program,
        input and output arenas laid out from ``arena`` upwards."""
        items_in = tuple(int(items) for items in rac.items_in)
        block = items_in[0] if items_in else 1
        return cls(
            index=index,
            kind=str(rac.kind),
            items_in=items_in,
            items_out=tuple(int(items) for items in rac.items_out),
            # the streaming recipe runs one operation per block, so a
            # job is the whole blocks that fit the arena; racelint
            # sizes its batch widening by this bound
            max_job_words=ARENA_WORDS - ARENA_WORDS % block,
            prog_base=arena,
            in_base=arena + ARENA_REGION_BYTES,
            out_base=arena + 2 * ARENA_REGION_BYTES,
            reg_base=ocp_base(index),
            reg_bytes=OuessantCoprocessor.WINDOW_BYTES,
        )

    @property
    def appetite(self) -> int:
        """Words per operation: the block a job is a multiple of."""
        return self.items_in[0]

    def feasible(self, job: Job) -> bool:
        """Can this OCP physically run ``job``?  The RAC must stream one
        input port into an output port of the same size (the shape the
        batch recipe drives), and the job must be whole blocks that fit
        the arenas."""
        items_in = self.items_in
        return (len(items_in) == 1 and self.items_out == items_in
                and job.size % items_in[0] == 0
                and job.size <= self.max_job_words)


def slot_arena(index: int, arena_base: Optional[int] = None,
               arena_stride: Optional[int] = None) -> int:
    """Where OCP ``index``'s arenas start: ``arena_base`` plus ``index``
    strides of ``arena_stride``, defaulting to the scheduler-owned
    region at :data:`SCHED_ARENA_BASE_OFFSET` into RAM and
    :data:`SCHED_ARENA_STRIDE`."""
    if arena_base is None:
        arena_base = RAM_BASE + SCHED_ARENA_BASE_OFFSET
    if arena_stride is None:
        arena_stride = SCHED_ARENA_STRIDE
    return arena_base + index * arena_stride


def feasible_slots(
    job: Job, capability: CapabilityTable, plans: Mapping[int, SlotPlan],
) -> Tuple[int, ...]:
    """Indices of the serving OCPs whose plan fits ``job``.

    Raises :class:`ConfigurationError` when none does.
    """
    serving = capability.serving(job.kind)
    fits = tuple(index for index in serving
                 if index in plans and plans[index].feasible(job))
    if not fits:
        shapes = ", ".join(
            f"OCP {index} ports in {list(plans[index].items_in)} "
            f"out {list(plans[index].items_out)}"
            for index in serving if index in plans)
        raise ConfigurationError(
            f"job {job.job_id} ({job.kind}, {job.size} words) fits "
            f"no serving OCP ({shapes}): the RAC must stream one input "
            "port into an output port of the same size, and the job "
            f"must be whole blocks that fit the {ARENA_WORDS}-word "
            "arena"
        )
    return fits


class _OcpSlot:
    """Per-OCP dispatch state (queue + in-flight batch FSM)."""

    __slots__ = (
        "index", "ocp", "plan", "queue", "state", "batch", "writes",
        "transfer", "resume_at", "jobs_done", "batches_done", "retries",
        "_busy", "_busy_since", "queue_high_water", "master", "irq",
    )

    def __init__(self, ocp, plan: SlotPlan) -> None:
        index = plan.index
        self.index = index
        self.ocp = ocp
        self.plan = plan
        self.queue: Deque[Tuple[Job, int]] = deque()
        self.state = "idle"
        self.batch: Optional[Batch] = None
        self.writes: List[Tuple[int, int]] = []
        self.transfer: Optional[BusTransfer] = None
        self.resume_at = 0
        self.jobs_done = 0
        self.batches_done = 0
        self.retries = 0
        #: busy cycles of finished batches, and the cycle the batch in
        #: flight made the slot busy (None while idle)
        self._busy = 0
        self._busy_since: Optional[int] = None
        self.queue_high_water = 0
        self.master = f"sched{index}"
        #: the OCP's interrupt line, bound once (the scheduler reads it
        #: before every simulated event while the slot runs)
        self.irq = ocp.irq

    @property
    def busy_cycles(self) -> int:
        """Cycles spent outside ``idle``, the open batch included (the
        OCP runs on the scheduler's clock)."""
        return self._busy + elapsed(self._busy_since,
                                    self.ocp.controller.now)


class SchedulingPolicy:
    """Chooses a target among the eligible slots that have queue space."""

    name = "policy"

    def pick(self, job: Job, slots: List[_OcpSlot]) -> _OcpSlot:
        raise NotImplementedError


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate over the serving OCPs, per kernel kind."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def pick(self, job: Job, slots: List[_OcpSlot]) -> _OcpSlot:
        turn = self._counters.get(job.kind, 0)
        self._counters[job.kind] = turn + 1
        return slots[turn % len(slots)]


class ShortestQueuePolicy(SchedulingPolicy):
    """Send each job to the least-loaded serving OCP (ties: lowest index)."""

    name = "shortest-queue"

    def pick(self, job: Job, slots: List[_OcpSlot]) -> _OcpSlot:
        def load(slot: _OcpSlot) -> Tuple[int, int]:
            in_flight = len(slot.batch.jobs) if slot.batch else 0
            return (len(slot.queue) + in_flight, slot.index)

        return min(slots, key=load)


class CostAwarePolicy(SchedulingPolicy):
    """Route by predicted *cycles*, not job count.

    Shortest-queue treats a 16-word scale and a 256-point DFT as equal
    load; this policy asks :mod:`repro.perfbound` what each pending
    job will actually cost and sends the new job to the OCP with the
    least predicted backlog (ties: lowest index).  Routing only --
    dispatch order and results stay bit-exact vs the sequential
    reference.
    """

    name = "cost-aware"

    def __init__(self) -> None:
        self._scheduler: Optional["ThroughputScheduler"] = None

    def bind(self, scheduler: "ThroughputScheduler") -> None:
        self._scheduler = scheduler

    def pick(self, job: Job, slots: List[_OcpSlot]) -> _OcpSlot:
        sched = self._scheduler
        if sched is None:  # pragma: no cover - bind() runs in __init__
            raise ConfigurationError("cost-aware policy is unbound")

        def backlog(slot: _OcpSlot) -> Tuple[int, int]:
            return (sched.pending_cycles(slot.index)
                    + sched.predicted_job_cycles(job, slot), slot.index)

        return min(slots, key=backlog)


_POLICIES = {
    "round-robin": RoundRobinPolicy,
    "shortest-queue": ShortestQueuePolicy,
    "cost-aware": CostAwarePolicy,
}


class ThroughputScheduler(Component):
    """Dispatch a stream of jobs across the SoC's coprocessors.

    Parameters
    ----------
    soc:
        An elaborated :class:`~repro.system.SoC`; the scheduler
        registers itself as a simulation component.
    capability:
        Kind-to-OCP routing table; derived from the SoC when omitted.
        Always validated through soclint (OU170/OU171).
    policy:
        ``"round-robin"``, ``"shortest-queue"``, or a
        :class:`SchedulingPolicy` instance.
    queue_bound:
        Per-OCP queue capacity; ``submit`` returns ``False`` (back
        pressure) when every eligible queue is at its bound.
    batch_jobs:
        Max jobs fused into one microcode program per dispatch
        (1 = no batching).
    chunk:
        Words per ``mvtc``/``mvfc`` of the staged programs, in
        ``1..MAX_TRANSFER_WORDS``.
    max_retries:
        Re-dispatch attempts after a trapped batch before
        :class:`SchedulerError` is raised.
    arena_base / arena_stride:
        Base address and per-OCP stride of the staging arenas;
        defaults keep every slot's program/input/output regions
        disjoint.  Overriding them (e.g. to share arenas) is exactly
        the configuration ``racecheck`` exists to vet.
    racecheck:
        Validate-on-submit concurrency checking through
        :mod:`repro.racelint`.  ``"off"`` (default) disables it;
        ``"submit"`` makes :meth:`submit` raise
        :class:`RaceHazardError` when the new job may race a pending
        one; ``"warn"`` only records findings in
        :attr:`racecheck_report`.
    sla_cycles:
        Admission-time WCET budget.  When set, :meth:`submit` raises
        :class:`SlaRejectionError` for a job whose predicted backlog
        plus worst-case cost (per :mod:`repro.perfbound`) exceeds the
        budget on every eligible OCP -- the stream stays schedulable
        instead of silently running late.
    """

    def __init__(
        self,
        soc,
        capability: Optional[CapabilityTable] = None,
        policy: "SchedulingPolicy | str" = "round-robin",
        queue_bound: int = 8,
        batch_jobs: int = 1,
        chunk: int = 64,
        max_retries: int = 2,
        backoff_cycles: int = 64,
        arena_base: Optional[int] = None,
        arena_stride: Optional[int] = None,
        racecheck: str = "off",
        sla_cycles: Optional[int] = None,
        name: str = "sched",
    ) -> None:
        super().__init__(name)
        if not soc.ocps:
            raise ConfigurationError("scheduler needs at least one OCP")
        if queue_bound < 1:
            raise ConfigurationError("queue_bound must be >= 1")
        if batch_jobs < 1:
            raise ConfigurationError("batch_jobs must be >= 1")
        check_chunk(chunk)
        self._soc = soc
        self.capability = capability or CapabilityTable.from_soc(soc)
        report = self.capability.validate(soc)
        if report.errors:
            raise ConfigurationError(
                "capability table failed soclint validation:\n"
                + report.render()
            )
        if isinstance(policy, str):
            try:
                policy = _POLICIES[policy]()
            except KeyError:
                raise ConfigurationError(
                    f"unknown policy {policy!r}; "
                    f"choose from {sorted(_POLICIES)}"
                ) from None
        self.policy = policy
        if hasattr(policy, "bind"):
            policy.bind(self)
        self.sla_cycles = sla_cycles
        self._cost_cache: Dict[
            Tuple[str, int, int], Optional[Tuple[int, int]]
        ] = {}
        self.queue_bound = queue_bound
        self.batch_jobs = batch_jobs
        self.chunk = chunk
        self.max_retries = max_retries
        self.backoff_cycles = backoff_cycles

        if racecheck not in ("off", "submit", "warn"):
            raise ConfigurationError(
                "racecheck must be 'off', 'submit' or 'warn', "
                f"not {racecheck!r}"
            )
        self.racecheck = racecheck
        self.racecheck_report = VerifyReport()
        self._racechecker = None
        self._racechecked: Dict[
            Tuple[str, str, int, Optional[str]], List[Finding]
        ] = {}
        self._plans: Dict[int, SlotPlan] = {}
        self._slots: Dict[int, _OcpSlot] = {}
        for index in self.capability.indices():
            ocp = soc.ocps[index]
            plan = SlotPlan.of(index, ocp.rac,
                               slot_arena(index, arena_base, arena_stride))
            self._plans[index] = plan
            self._slots[index] = _OcpSlot(ocp, plan)
        self._chains: Dict[str, int] = {}
        self._pending_meta: Dict[str, Tuple[int, int]] = {}
        #: ids of the jobs waiting in any slot queue
        self._queued_ids: Set[str] = set()
        #: slots outside ``"idle"``: ``_dispatch`` leaves it, the ack
        #: completion (``_acked``) returns to it
        self._busy_slots = 0
        #: the slots a blocked submission waits on, and whether one of
        #: them has dispatched (popped its queue) since the wait began
        self._awaited: Set[_OcpSlot] = set()
        self._freed = False
        self._next_batch_id = 0
        self.submitted = 0
        self.completed: Dict[str, JobResult] = {}
        self.completion_order: List[str] = []
        # a running slot sleeps on its OCP's IRQ line: the edge must
        # re-poll the scheduler under the fast schedule
        for slot in self._slots.values():
            slot.irq.watch(self)
        soc.sim.add(self)

    # -- submission (called from outside the clock) -----------------------
    def _feasible(self, job: Job) -> List[_OcpSlot]:
        """Slots whose RAC can physically run this job."""
        slots = self._slots
        return [slots[index] for index in
                feasible_slots(job, self.capability, self._plans)]

    def _candidates(self, job: Job) -> List[_OcpSlot]:
        """Slots that may take this job, queue space aside.

        Chained jobs are pinned: only the chain's home slot qualifies.
        The answer changes only when :meth:`submit` pins a chain.
        """
        feasible = self._feasible(job)
        if job.chain is not None and job.chain in self._chains:
            home = self._slots[self._chains[job.chain]]
            if home not in feasible:
                raise ConfigurationError(
                    f"chain {job.chain!r} is pinned to OCP {home.index}, "
                    f"which cannot run job {job.job_id}"
                )
            return [home]
        return feasible

    def _route(self, job: Job) -> Optional[List[_OcpSlot]]:
        """Candidate slots with queue space, or ``None`` (back-pressure)."""
        open_slots = [s for s in self._candidates(job)
                      if len(s.queue) < self.queue_bound]
        return open_slots or None

    def can_accept(self, job: Job) -> bool:
        """Would :meth:`submit` succeed right now?"""
        return self._route(job) is not None

    # -- static race checking ---------------------------------------------
    def _race_checker(self):
        if self._racechecker is None:
            # local import: racelint imports this module for the slot
            # plans
            from ..racelint import RaceChecker, StreamModel
            self._racechecker = RaceChecker(
                StreamModel.from_scheduler(self))
        return self._racechecker

    def _pending_jobs(self) -> List[Job]:
        """Jobs submitted but not yet completed (queued or in flight)."""
        pending: List[Job] = []
        for slot in self._slots.values():
            if slot.batch is not None:
                pending.extend(slot.batch.jobs)
            pending.extend(job for job, _ in slot.queue)
        return pending

    def racecheck_job(self, job: Job) -> List[Finding]:
        """Statically check ``job`` against every pending job.

        Returns the new findings (cached per job id, so back-pressure
        retries do not duplicate them) and accumulates them in
        :attr:`racecheck_report`.  Usable directly even with
        ``racecheck="off"``.
        """
        key = (job.job_id, job.kind, job.size, job.chain)
        cached = self._racechecked.get(key)
        if cached is not None:
            return cached
        findings = self._race_checker().check_submit(
            job, self._pending_jobs())
        self._racechecked[key] = findings
        self.racecheck_report.findings.extend(findings)
        self.racecheck_report.sort()
        return findings

    # -- static cost estimation -------------------------------------------
    def _job_cost_bounds(
        self, job: Job, slot: _OcpSlot
    ) -> "Optional[Tuple[int, int]]":
        """``(mid, hi)`` of the job's predicted cycle cost on ``slot``.

        Bounds the program the dispatcher stages for the job alone
        (the streaming recipe over its blocks) through
        :mod:`repro.perfbound`, against the slot RAC's timing contract
        and the SoC's real bus protocol and memory latency.  ``None``
        when the cost has no static bound.  Cached per
        (kind, size, slot).
        """
        key = (job.kind, job.size, slot.index)
        if key in self._cost_cache:
            return self._cost_cache[key]
        from ..perfbound import CostModel, bound_program

        bounds: Optional[Tuple[int, int]] = None
        model = CostModel.of_ocp(
            slot.ocp, self._soc.bus.protocol,
            getattr(self._soc.memory, "access_latency", 1))
        block = slot.plan.appetite
        program, _ = shape_program(job.size // block, block, self.chunk)
        bound = bound_program(
            list(program.instructions), slot.ocp.rac, model=model)
        if bound.bounded:
            lo, hi = int(bound.total.lo), int(bound.total.hi)
            bounds = ((lo + hi) // 2, hi)
        self._cost_cache[key] = bounds
        return bounds

    def predicted_job_cycles(self, job: Job, slot: _OcpSlot) -> int:
        """Midpoint cost estimate, with a size-proportional fallback."""
        bounds = self._job_cost_bounds(job, slot)
        if bounds is not None:
            return bounds[0]
        # unbounded (no streaming contract): words moved still beats
        # counting jobs as 1 each
        return 8 * job.size + 64

    def pending_cycles(self, index: int) -> int:
        """Predicted cycles of everything queued or in flight on an OCP."""
        slot = self._slots[index]
        total = 0
        if slot.batch is not None:
            for job in slot.batch.jobs:
                total += self.predicted_job_cycles(job, slot)
        for job, _ in slot.queue:
            total += self.predicted_job_cycles(job, slot)
        return total

    def _check_sla(self, job: Job, candidates: List[_OcpSlot]) -> None:
        budget = self.sla_cycles
        if budget is None:
            return
        best: Optional[int] = None
        for slot in candidates:
            bounds = self._job_cost_bounds(job, slot)
            if bounds is None:
                continue
            worst = self.pending_cycles(slot.index) + bounds[1]
            best = worst if best is None else min(best, worst)
        if best is None:
            raise SlaRejectionError(
                f"job {job.job_id} ({job.kind}, {job.size} words) has "
                f"no bounded cost on any eligible OCP; an SLA of "
                f"{budget} cycles cannot be guaranteed"
            )
        if best > budget:
            raise SlaRejectionError(
                f"job {job.job_id}: predicted worst-case completion "
                f"{best} cycles exceeds the SLA budget {budget} on "
                "every eligible OCP"
            )

    def submit(self, job: Job) -> bool:
        """Enqueue a job; ``False`` means back-pressure (try later).

        With ``racecheck="submit"``, a job whose static footprint may
        race a queued or in-flight job raises
        :class:`RaceHazardError` instead of being enqueued.  With
        ``sla_cycles`` set, a job that cannot meet the budget raises
        :class:`SlaRejectionError`.
        """
        # an id is taken while queued, in flight or completed
        job_id = job.job_id
        if (job_id in self.completed or job_id in self._pending_meta
                or job_id in self._queued_ids):
            raise ConfigurationError(f"duplicate job id {job_id!r}")
        if self.racecheck != "off":
            findings = self.racecheck_job(job)
            if self.racecheck == "submit" and \
                    has_error_findings(findings):
                raise RaceHazardError(
                    f"job {job.job_id} may race pending jobs:\n"
                    + "\n".join(str(f) for f in findings)
                )
        if self.sla_cycles is not None:
            self._check_sla(job, self._feasible(job))
        open_slots = self._route(job)
        if open_slots is None:
            return False
        if len(open_slots) == 1:
            target = open_slots[0]
        else:
            target = self.policy.pick(job, open_slots)
        if job.chain is not None and job.chain not in self._chains:
            self._chains[job.chain] = target.index
        target.queue.append((job, self.now))
        self._queued_ids.add(job_id)
        target.queue_high_water = max(
            target.queue_high_water, len(target.queue)
        )
        self.submitted += 1
        # an idle slot sleeps until a job is queued: re-poll it
        self.poke()
        return True

    def submit_blocking(self, job: Job,
                        max_cycles: int = MAX_WAIT_CYCLES) -> None:
        """Submit, advancing the simulation until space frees up.

        The job is routed once per wait: the clock cannot pin a chain,
        and a refused submit means every candidate queue is full.  Only
        a dispatch shortens a queue, so the wait ends at the first
        dispatch from a candidate.
        """
        while not self.submit(job):
            self._awaited = set(self._candidates(job))
            self._freed = False
            self.sim.run_until(
                lambda: self._freed,
                max_cycles=max_cycles,
                what=f"queue space for job {job.job_id}",
            )

    def run_stream(
        self, jobs: List[Job], max_cycles: int = MAX_WAIT_CYCLES,
    ) -> List[JobResult]:
        """Submit a whole stream, drain it, return results in order."""
        for job in jobs:
            self.submit_blocking(job, max_cycles=max_cycles)
        self.drain(max_cycles=max_cycles)
        return [self.completed[job.job_id] for job in jobs]

    def drain(self, max_cycles: int = MAX_WAIT_CYCLES) -> None:
        """Advance the simulation until every queued job completed."""
        self.sim.run_until(lambda: self.idle, max_cycles, "scheduler drain")

    @property
    def idle(self) -> bool:
        """No job queued and every slot ``"idle"``."""
        return not self._queued_ids and not self._busy_slots

    @property
    def slots(self) -> List[_OcpSlot]:
        return [self._slots[i] for i in sorted(self._slots)]

    @property
    def soc(self):
        return self._soc

    # -- dispatch state machine (inside the clock) ------------------------
    def tick(self) -> None:
        steps = _STEPS
        for slot in self._slots.values():
            steps[slot.state](self, slot)

    def next_activity(self) -> Optional[int]:
        now = self.sim.cycle
        wake: Optional[int] = None
        for slot in self._slots.values():
            state = slot.state
            if state == "idle":
                if slot.queue:
                    return now
            elif state == "running":
                # the IRQ line can only flip during a ticked cycle
                if slot.irq.pending:
                    return now
            elif state == "backoff":
                # no slot wakes earlier than the clock
                if slot.resume_at <= now:
                    return now
                if wake is None or slot.resume_at < wake:
                    wake = slot.resume_at
            else:
                transfer = slot.transfer
                if transfer is not None and transfer.done:
                    return now
        return wake

    def _step_idle(self, slot: _OcpSlot) -> None:
        if not slot.queue:
            return
        self._dispatch(slot)

    def _dispatch(self, slot: _OcpSlot) -> None:
        jobs: List[Job] = []
        total = 0
        dispatch_cycles: List[int] = []
        while slot.queue and len(jobs) < self.batch_jobs:
            job, submitted = slot.queue[0]
            # a batch must fit the shared arenas (each job alone fits
            # them: :meth:`SlotPlan.feasible`)
            if jobs and total + job.size > ARENA_WORDS:
                break
            slot.queue.popleft()
            if slot in self._awaited:
                self._freed = True
            self._queued_ids.discard(job.job_id)
            jobs.append(job)
            dispatch_cycles.append(submitted)
            total += job.size
        batch = compose_batch(jobs, self._next_batch_id, chunk=self.chunk,
                              block=slot.plan.appetite)
        self._next_batch_id += 1
        batch.attempts = 1
        slot.batch = batch
        self._busy_slots += 1
        now = self.sim.cycle
        # busy from the next cycle: this tick saw the slot idle
        slot._busy_since = now + 1
        self._place_batch(slot, batch)
        # remember submit cycles for the results (dispatch == now)
        for job, submitted in zip(jobs, dispatch_cycles):
            self._pending_meta[job.job_id] = (submitted, now)
        self._arm(slot)
        self.trace_event(
            "dispatch", ocp=slot.index, batch=batch.batch_id,
            jobs=len(jobs), words=batch.total_words,
        )

    def _place_batch(self, slot: _OcpSlot, batch: Batch) -> None:
        """Stage program and inputs in the slot's arenas (backdoor).

        Same application-owned-memory convention as the driver's
        ``place_program``: staging models the host preparing buffers
        ahead of time; the traffic the simulation measures is the
        OCP's own mvtc/mvfc stream.
        """
        plan = slot.plan
        self._soc.write_ram(plan.prog_base, batch.words)
        flat: List[int] = []
        for job in batch.jobs:
            flat.extend(job.words)
        self._soc.write_ram(plan.in_base, flat)

    def _arm(self, slot: _OcpSlot) -> None:
        assert slot.batch is not None
        plan = slot.plan
        slot.writes = config_writes(
            bank_addresses(plan.prog_base, [plan.in_base], [plan.out_base]),
            len(slot.batch.words))
        slot.writes.append((REG_CTRL, _START))
        slot.state = "config"
        self._next_write(slot)

    def _write_ctrl(self, slot: _OcpSlot, state: str) -> None:
        """Clear S (abort or acknowledge) and wait for it in ``state``."""
        slot.transfer = self._soc.bus.submit(
            slot.master, AccessKind.WRITE, slot.plan.reg_base + REG_CTRL,
            data=[0], waiter=self)
        slot.state = state

    def _step_bus(self, slot: _OcpSlot) -> None:
        """Wait out the slot's single-beat transfer, then run its
        state's continuation in the same tick."""
        transfer = slot.transfer
        if transfer is None or not transfer.done:
            return
        what, after = _AFTER_BUS[slot.state]
        if transfer.error:
            raise SchedulerError(
                f"OCP {slot.index}: {what} failed: {transfer.error_reason}"
            )
        slot.transfer = None
        after(self, slot, transfer)

    def _next_write(self, slot: _OcpSlot,
                    transfer: Optional[BusTransfer] = None) -> None:
        """Issue the next configuration write; after the last one,
        sleep on the IRQ."""
        if slot.writes:
            offset, value = slot.writes.pop(0)
            slot.transfer = self._soc.bus.submit(
                slot.master, AccessKind.WRITE, slot.plan.reg_base + offset,
                data=[value], waiter=self)
        else:
            slot.state = "running"

    def _step_running(self, slot: _OcpSlot) -> None:
        irq = slot.irq
        if not irq.pending:
            return
        irq.clear()
        slot.transfer = self._soc.bus.submit(
            slot.master, AccessKind.READ, slot.plan.reg_base + REG_CTRL,
            waiter=self)
        slot.state = "status"

    def _status(self, slot: _OcpSlot, transfer: BusTransfer) -> None:
        code = trap_code(transfer.data[0])
        if code is None:
            self._harvest(slot)
        else:
            self._trap(slot, code)

    def _trap(self, slot: _OcpSlot, code: int) -> None:
        batch = slot.batch
        assert batch is not None
        self.trace_event(
            "trap", ocp=slot.index, batch=batch.batch_id, code=code,
            attempt=batch.attempts,
        )
        if batch.attempts > self.max_retries:
            raise SchedulerError(
                f"OCP {slot.index}: batch {batch.batch_id} trapped with "
                f"error code {code} after {batch.attempts} attempts "
                f"(jobs {[job.job_id for job in batch.jobs]})"
            )
        self._write_ctrl(slot, "abort")

    def _aborted(self, slot: _OcpSlot, transfer: BusTransfer) -> None:
        batch = slot.batch
        assert batch is not None
        slot.ocp.soft_reset()
        slot.retries += 1
        backoff = min(
            self.backoff_cycles * (1 << (batch.attempts - 1)),
            MAX_BACKOFF_CYCLES,
        )
        slot.resume_at = self.sim.cycle + backoff
        slot.state = "backoff"

    def _step_backoff(self, slot: _OcpSlot) -> None:
        if self.sim.cycle < slot.resume_at:
            return
        batch = slot.batch
        assert batch is not None
        batch.attempts += 1
        self.trace_event(
            "retry", ocp=slot.index, batch=batch.batch_id,
            attempt=batch.attempts,
        )
        # inputs are still staged; a full reconfigure restarts cleanly
        self._place_batch(slot, batch)
        self._arm(slot)

    def _harvest(self, slot: _OcpSlot) -> None:
        batch = slot.batch
        assert batch is not None
        for job, offset in zip(batch.jobs, batch.out_offsets):
            outputs = self._soc.read_ram(
                slot.plan.out_base + 4 * offset, job.size
            )
            submitted, dispatched = self._pending_meta.pop(job.job_id)
            self.completed[job.job_id] = JobResult(
                job=job, ocp_index=slot.index, outputs=outputs,
                submit_cycle=submitted, dispatch_cycle=dispatched,
                complete_cycle=self.sim.cycle, attempts=batch.attempts,
                batch_id=batch.batch_id,
            )
            self.completion_order.append(job.job_id)
            slot.jobs_done += 1
        slot.batches_done += 1
        self.trace_event(
            "complete", ocp=slot.index, batch=batch.batch_id,
            jobs=len(batch.jobs),
        )
        self._write_ctrl(slot, "ack")

    def _acked(self, slot: _OcpSlot, transfer: BusTransfer) -> None:
        slot.batch = None
        slot.state = "idle"
        self._busy_slots -= 1
        slot._busy += elapsed(slot._busy_since, self.sim.cycle + 1)
        slot._busy_since = None


#: per bus-wait state: the transfer it waits on, and what follows it
_AFTER_BUS = {
    "config": ("config write", ThroughputScheduler._next_write),
    "status": ("status read", ThroughputScheduler._status),
    "abort": ("abort write", ThroughputScheduler._aborted),
    "ack": ("ack write", ThroughputScheduler._acked),
}

#: the slot FSM's step of each state
_STEPS = {
    "idle": ThroughputScheduler._step_idle,
    "running": ThroughputScheduler._step_running,
    "backoff": ThroughputScheduler._step_backoff,
    **dict.fromkeys(_AFTER_BUS, ThroughputScheduler._step_bus),
}
