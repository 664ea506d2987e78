"""Cross-OCP concurrency-hazard analysis for scheduled job streams.

Per job, the engine derives an absolute byte-range *footprint* for
every OCP the job can be resident on, by resolving the microcode
footprint hulls (:func:`repro.verify.footprint.program_footprint`)
against that slot's arena bases -- plus the ranges the *dispatcher*
touches on the job's behalf: the staged program and input images and
the slot's CTRL/perf register window.

Two jobs **may happen in parallel** (MHP) iff they can be resident on
*different* OCPs with no order edge between them: jobs of the same
chain are pinned to one slot (ordered), and two jobs whose only
candidate is the same single slot are serialized by that slot's queue.
Neither fairness policy (round-robin, shortest-queue) restricts the
relation -- under back-pressure either can pick any serving slot.

For every MHP pair the engine intersects the placements' footprints:

* write/write overlap  -> ``OU200`` (last writer wins),
* read/write overlap   -> ``OU201`` (the read races the write),
* an armed DMA window aliasing a footprint -> ``OU202``,
* an unboundable footprint -> ``OU203`` (refuse to certify),
* an arena range outside every RAM region -> ``OU204``.

With ``batch_jobs > 1`` footprints are *widened*: batching slides a
job to a cumulative offset inside the shared arenas, so its ranges
grow by the worst-case batch prefix.  A hazard that only exists under
the widened footprint additionally carries the ``OU205`` warning --
the batch concatenation, not the solo job, created the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.program import OuProgram, bank_addresses, streaming_program
from ..sched.batch import shape_program
from ..sched.capability import CapabilityTable
from ..sched.job import Job
from ..sched.scheduler import ARENA_WORDS, SlotPlan
from ..verify.diagnostics import Finding, VerifyReport, make_finding
from ..verify.footprint import ByteRange, program_footprint
from .model import StreamModel

#: builds the microcode whose transfers racelint analyzes for one job
#: (offset 0: the widening below accounts for batch-relative placement)
ProgramFactory = Callable[[Job, int], OuProgram]


def _default_program(job: Job, chunk: int) -> OuProgram:
    """The job as one streaming operation: per-block operations move
    the same word ranges."""
    return streaming_program([job.size], [job.size], chunk=chunk)


@dataclass(frozen=True)
class _Range:
    """One footprint byte range with its access roles.

    ``device`` marks ranges that legitimately live outside RAM (the
    OCP register window) and are exempt from arena containment.
    """

    span: ByteRange
    reads: bool
    writes: bool
    device: bool = False


@dataclass(frozen=True)
class _Placement:
    """A job's resolved footprint on one candidate slot."""

    job_id: str
    slot: int
    ranges: Tuple[_Range, ...]


class RaceChecker:
    """Incremental hazard checker over one :class:`StreamModel`.

    The scheduler's ``racecheck=`` mode drives :meth:`check_submit`
    per submission; :func:`check_stream` drives the same machinery
    over every pair of a whole planned stream.
    """

    def __init__(
        self,
        model: StreamModel,
        program_factory: Optional[ProgramFactory] = None,
    ) -> None:
        self.model = model
        self._factory: ProgramFactory = (
            program_factory or _default_program
        )
        self._placements: Dict[
            Tuple[str, int, bool], Optional[_Placement]
        ] = {}
        self._unresolved: Dict[str, str] = {}
        self._candidates: Dict[str, Tuple[int, ...]] = {}
        self._chain_first: Dict[str, Tuple[int, ...]] = {}
        self._solo_checked: Set[str] = set()

    # -- placement construction -------------------------------------------
    def candidates(self, job: Job) -> Tuple[int, ...]:
        """Feasible slots, narrowed by chain pinning when known."""
        cached = self._candidates.get(job.job_id)
        if cached is not None:
            return cached
        feasible = self.model.candidate_slots(job)
        if job.chain is not None:
            first = self._chain_first.get(job.chain)
            if first is None:
                # this job opens the chain: later members are pinned
                # to whichever of these slots the scheduler picks
                self._chain_first[job.chain] = feasible
            else:
                narrowed = tuple(s for s in feasible if s in first)
                if narrowed:
                    feasible = narrowed
        self._candidates[job.job_id] = feasible
        return feasible

    def _widen_words(self, job: Job, slot: SlotPlan) -> int:
        if self.model.batch_jobs <= 1:
            return 0
        by_arena = ARENA_WORDS - job.size
        by_batch = (self.model.batch_jobs - 1) * slot.max_job_words
        return max(0, min(by_arena, by_batch))

    def _prog_words(self, job: Job, slot: SlotPlan, widened: bool) -> int:
        """Length of the program the dispatcher stages for ``job``: its
        own blocks, or widened, the longest batch the slot composes."""
        words = job.size
        if widened and self.model.batch_jobs > 1:
            words = slot.max_job_words
        block = slot.appetite
        return len(shape_program(words // block, block,
                                 self.model.chunk)[0])

    def placement(self, job: Job, slot_index: int,
                  widened: bool) -> Optional[_Placement]:
        """Resolve ``job``'s footprint on ``slot_index`` (cached).

        Returns ``None`` when the footprint cannot be bounded or a
        bank cannot be resolved; the reason is reported once per job
        through :meth:`_check_solo` (OU203).
        """
        key = (job.job_id, slot_index, widened)
        if key in self._placements:
            return self._placements[key]
        slot = self.model.slots[slot_index]
        program = self._factory(job, self.model.chunk)
        footprint = program_footprint(program.instructions)
        placement: Optional[_Placement] = None
        if not footprint.bounded:
            self._unresolved.setdefault(
                job.job_id,
                "the interval interpreter cannot bound the job "
                "program's footprint (unstructured control flow)",
            )
        else:
            bases = bank_addresses(slot.prog_base, [slot.in_base],
                                   [slot.out_base])
            unresolved = [b for b in footprint.banks()
                          if b not in bases]
            if unresolved:
                self._unresolved.setdefault(
                    job.job_id,
                    f"the job program transfers through bank "
                    f"{unresolved[0]}, which the scheduler does not "
                    "configure",
                )
            else:
                placement = self._build_placement(
                    job, slot, footprint, widened, bases)
        self._placements[key] = placement
        return placement

    def _build_placement(
        self,
        job: Job,
        slot: SlotPlan,
        footprint: Any,
        widened: bool,
        bases: Dict[int, int],
    ) -> _Placement:
        widen = self._widen_words(job, slot) if widened else 0
        ranges: List[_Range] = []

        def data_span(bank: int, lo: int, hi: int,
                      label: str) -> ByteRange:
            base = bases[bank]
            return ByteRange(base + 4 * lo,
                             base + 4 * (hi + widen) + 4, label)

        for bank in footprint.banks():
            hull = footprint.reads.get(bank)
            if hull is not None:
                ranges.append(_Range(
                    data_span(bank, int(hull.lo), int(hull.hi),
                              f"job {job.job_id} bank{bank} read"),
                    reads=True, writes=False,
                ))
            hull = footprint.writes.get(bank)
            if hull is not None:
                ranges.append(_Range(
                    data_span(bank, int(hull.lo), int(hull.hi),
                              f"job {job.job_id} bank{bank} write"),
                    reads=False, writes=True,
                ))
        # dispatcher-side ranges: the staged program image (written at
        # dispatch, fetched by the controller), the staged input words
        # and the slot's CTRL/perf register window
        prog_bytes = 4 * self._prog_words(job, slot, widened)
        ranges.append(_Range(
            ByteRange(slot.prog_base, slot.prog_base + prog_bytes,
                      f"job {job.job_id} staged program"),
            reads=True, writes=True,
        ))
        ranges.append(_Range(
            ByteRange(slot.in_base,
                      slot.in_base + 4 * (job.size + widen),
                      f"job {job.job_id} staged inputs"),
            reads=False, writes=True,
        ))
        ranges.append(_Range(
            ByteRange(slot.reg_base, slot.reg_base + slot.reg_bytes,
                      f"ocp{slot.index} registers"),
            reads=True, writes=True, device=True,
        ))
        return _Placement(job.job_id, slot.index, tuple(ranges))

    # -- per-job (solo) checks --------------------------------------------
    def _check_solo(self, job: Job,
                    findings: List[Finding]) -> None:
        if job.job_id in self._solo_checked:
            return
        self._solo_checked.add(job.job_id)
        slots = self.candidates(job)
        resolved = False
        for index in slots:
            placed = self.placement(job, index, widened=True)
            if placed is None:
                continue
            resolved = True
            self._check_arena(job, placed, findings)
            self._check_dma(job, placed, findings)
        if not resolved:
            reason = self._unresolved.get(
                job.job_id, "the job footprint could not be resolved")
            findings.append(make_finding(
                "OU203", None, reason, where=f"job {job.job_id}"))

    def _check_arena(self, job: Job, placed: _Placement,
                     findings: List[Finding]) -> None:
        for entry in placed.ranges:
            if entry.device:
                continue
            if not self.model.in_ram(entry.span):
                findings.append(make_finding(
                    "OU204", None,
                    f"arena range {entry.span} is not contained in "
                    "any RAM region of the memory map",
                    where=f"job {job.job_id}@ocp{placed.slot}",
                ))
                return

    def _check_dma(self, job: Job, placed: _Placement,
                   findings: List[Finding]) -> None:
        for window in self.model.dma_writes:
            for entry in placed.ranges:
                if window.overlaps(entry.span):
                    findings.append(make_finding(
                        "OU202", None,
                        f"armed DMA window {window} overlaps "
                        f"{entry.span}",
                        where=f"job {job.job_id}@ocp{placed.slot}",
                    ))
                    return
        for window in self.model.dma_reads:
            for entry in placed.ranges:
                if entry.writes and window.overlaps(entry.span):
                    findings.append(make_finding(
                        "OU202", None,
                        f"armed DMA window {window} reads bytes "
                        f"written by {entry.span}",
                        where=f"job {job.job_id}@ocp{placed.slot}",
                    ))
                    return

    # -- pairwise MHP checks ----------------------------------------------
    @staticmethod
    def _overlap(
        pa: _Placement, pb: _Placement,
    ) -> Tuple[Optional[Tuple[_Range, _Range]],
               Optional[Tuple[_Range, _Range]]]:
        """First write/write and read/write overlapping range pairs."""
        ww: Optional[Tuple[_Range, _Range]] = None
        rw: Optional[Tuple[_Range, _Range]] = None
        for ra in pa.ranges:
            for rb in pb.ranges:
                if not ra.span.overlaps(rb.span):
                    continue
                if ra.writes and rb.writes:
                    ww = ww or (ra, rb)
                elif ra.writes or rb.writes:
                    rw = rw or (ra, rb)
        return ww, rw

    def check_pair(self, a: Job, b: Job,
                   findings: List[Finding]) -> None:
        """Flag hazards between two jobs if they may run in parallel."""
        if a.job_id == b.job_id:
            return
        if a.chain is not None and a.chain == b.chain:
            return  # chain pinning serializes the pair on one slot
        where = f"jobs {a.job_id}/{b.job_id}"
        hit_ww: Optional[str] = None
        hit_rw: Optional[str] = None
        widened_only = False
        for sa in self.candidates(a):
            for sb in self.candidates(b):
                if sa == sb:
                    continue  # same slot: the queue serializes them
                pa = self.placement(a, sa, widened=True)
                pb = self.placement(b, sb, widened=True)
                if pa is None or pb is None:
                    continue  # OU203 is reported by the solo check
                ww, rw = self._overlap(pa, pb)
                if ww is not None and hit_ww is None:
                    hit_ww = (
                        f"may run concurrently on ocp{sa}/ocp{sb}: "
                        f"{ww[0].span} overlaps {ww[1].span}"
                    )
                    widened_only = widened_only or self._widened_only(
                        a, b, sa, sb)
                if rw is not None and hit_rw is None:
                    hit_rw = (
                        f"may run concurrently on ocp{sa}/ocp{sb}: "
                        f"{rw[0].span} overlaps {rw[1].span}"
                    )
                    widened_only = widened_only or self._widened_only(
                        a, b, sa, sb)
            if hit_ww and hit_rw:
                break
        if hit_ww:
            findings.append(
                make_finding("OU200", None, hit_ww, where=where))
        if hit_rw:
            findings.append(
                make_finding("OU201", None, hit_rw, where=where))
        if (hit_ww or hit_rw) and widened_only:
            findings.append(make_finding(
                "OU205", None,
                "the overlap only arises under batch concatenation "
                f"(batch_jobs={self.model.batch_jobs} widens the "
                "jobs' arena offsets); the solo footprints are "
                "disjoint",
                where=where,
            ))

    def _widened_only(self, a: Job, b: Job, sa: int,
                      sb: int) -> bool:
        if self.model.batch_jobs <= 1:
            return False
        pa = self.placement(a, sa, widened=False)
        pb = self.placement(b, sb, widened=False)
        if pa is None or pb is None:
            return False
        ww, rw = self._overlap(pa, pb)
        return ww is None and rw is None

    # -- entry points -----------------------------------------------------
    def check_submit(self, job: Job,
                     pending: Iterable[Job]) -> List[Finding]:
        """Hazards introduced by submitting ``job`` now.

        ``pending`` is every job already submitted but not yet
        completed (queued or in flight); completed jobs' outputs are
        harvested, so later overlaps with their arenas are harmless.
        """
        findings: List[Finding] = []
        self._check_solo(job, findings)
        for other in pending:
            self.check_pair(job, other, findings)
        return findings

    def check_all(self, jobs: Sequence[Job],
                  report: VerifyReport) -> None:
        """Check a whole planned stream, every unordered pair once."""
        for job in jobs:
            self._check_solo(job, report.findings)
        for i, a in enumerate(jobs):
            for b in jobs[i + 1:]:
                self.check_pair(a, b, report.findings)


def check_stream(
    jobs: Sequence[Job],
    scheduler: Optional[Any] = None,
    racs: Optional[Sequence[Any]] = None,
    capability: Optional[CapabilityTable] = None,
    batch_jobs: int = 1,
    chunk: int = 64,
    arena_base: Optional[int] = None,
    arena_stride: Optional[int] = None,
    model: Optional[StreamModel] = None,
    program_factory: Optional[ProgramFactory] = None,
    suppress: Iterable[str] = (),
) -> VerifyReport:
    """Statically check a planned job stream for concurrency hazards.

    The target system is given either as a live ``scheduler`` (model
    extracted, arena/batching parameters inherited), a planned ``racs``
    list (pre-elaboration geometry, see
    :meth:`StreamModel.from_plan`), or an explicit ``model``.
    Returns a :class:`~repro.verify.diagnostics.VerifyReport` whose
    OU200--OU219 findings carry ``where`` labels naming the involved
    jobs; exit semantics, suppression and JSON match soclint.
    """
    if model is None:
        if scheduler is not None:
            model = StreamModel.from_scheduler(scheduler)
        elif racs is not None:
            model = StreamModel.from_plan(
                racs, capability=capability, batch_jobs=batch_jobs,
                chunk=chunk, arena_base=arena_base,
                arena_stride=arena_stride,
            )
        else:
            raise ValueError(
                "check_stream needs a scheduler, a racs list or a "
                "StreamModel")
    checker = RaceChecker(model, program_factory=program_factory)
    report = VerifyReport()
    checker.check_all(list(jobs), report)
    report.sort()
    report.apply_suppressions(suppress)
    return report
