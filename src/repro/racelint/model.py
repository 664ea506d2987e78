"""Static model of a scheduled job stream's placement possibilities.

:class:`StreamModel` captures everything the concurrency analyzer
needs to know about *where* a job's bytes can land, without running a
single cycle:

* one :class:`~repro.sched.scheduler.SlotPlan` per OCP the capability
  table can route to -- its arena bases (the scheduler's
  program/input/output staging regions), its register window and its
  feasibility limits (RAC appetite, output-FIFO depth).  The plans are
  the scheduler's own: :meth:`SlotPlan.of
  <repro.sched.scheduler.SlotPlan.of>` lays them out for both, and
  :func:`~repro.sched.scheduler.feasible_slots` is the one fit rule;
* the capability table itself (kind -> serving OCP indices);
* the batching degree (``batch_jobs``) that widens per-job arena
  offsets;
* the RAM regions arenas must live in, and any armed DMA windows.

A model is extracted either from a live
:class:`~repro.sched.scheduler.ThroughputScheduler`
(:meth:`StreamModel.from_scheduler`) or from a *planned* SoC -- a RAC
list plus the default memory-map layout, before any elaboration
(:meth:`StreamModel.from_plan`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sched.capability import CapabilityTable
from ..sched.job import Job
from ..sched.scheduler import SlotPlan, feasible_slots, slot_arena
from ..sim.errors import ConfigurationError
from ..verify.footprint import ByteRange


class StreamModel:
    """Slots, routing and memory geometry for one scheduled stream."""

    def __init__(
        self,
        slots: Mapping[int, SlotPlan],
        capability: CapabilityTable,
        batch_jobs: int = 1,
        chunk: int = 64,
        ram_ranges: Sequence[ByteRange] = (),
        dma_reads: Sequence[ByteRange] = (),
        dma_writes: Sequence[ByteRange] = (),
    ) -> None:
        if batch_jobs < 1:
            raise ConfigurationError("batch_jobs must be >= 1")
        self.slots: Dict[int, SlotPlan] = dict(slots)
        self.capability = capability
        self.batch_jobs = batch_jobs
        self.chunk = chunk
        self.ram_ranges: Tuple[ByteRange, ...] = tuple(ram_ranges)
        self.dma_reads: Tuple[ByteRange, ...] = tuple(dma_reads)
        self.dma_writes: Tuple[ByteRange, ...] = tuple(dma_writes)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_scheduler(cls, scheduler: Any) -> "StreamModel":
        """Extract the model from a live :class:`ThroughputScheduler`."""
        slots: Dict[int, SlotPlan] = {
            slot.index: slot.plan for slot in scheduler.slots}
        soc = scheduler.soc
        from ..system import RAM_BASE
        ram = ByteRange(RAM_BASE, RAM_BASE + int(soc.memory.size_bytes),
                        "ram")
        dma_reads: List[ByteRange] = []
        dma_writes: List[ByteRange] = []
        if getattr(soc, "dma", None) is not None:
            from ..mem.dma import REG_COUNT, REG_DST, REG_SRC
            dma = soc.dma
            count = int(dma.read_word(REG_COUNT))
            if count > 0:
                src = int(dma.read_word(REG_SRC))
                dst = int(dma.read_word(REG_DST))
                dma_reads.append(
                    ByteRange(src, src + 4 * count, "dma source"))
                dma_writes.append(
                    ByteRange(dst, dst + 4 * count, "dma destination"))
        return cls(
            slots,
            scheduler.capability,
            batch_jobs=int(scheduler.batch_jobs),
            chunk=int(scheduler.chunk),
            ram_ranges=(ram,),
            dma_reads=dma_reads,
            dma_writes=dma_writes,
        )

    @classmethod
    def from_plan(
        cls,
        racs: Sequence[Any],
        capability: Optional[CapabilityTable] = None,
        batch_jobs: int = 1,
        chunk: int = 64,
        arena_base: Optional[int] = None,
        arena_stride: Optional[int] = None,
        ram_size: Optional[int] = None,
    ) -> "StreamModel":
        """Model a *planned* (unelaborated) SoC: a RAC list plus the
        default memory-map layout.

        Each slot is the plan the scheduler would build over
        :func:`repro.system.build_mpsoc` of ``racs`` -- the same
        :meth:`SlotPlan.of` lays out both -- so hazards are caught
        before spending any elaboration or simulation time.
        """
        from ..system import RAM_BASE, RAM_SIZE
        if not racs:
            raise ConfigurationError(
                "cannot model a stream with no planned RACs")
        if capability is None:
            capability = CapabilityTable.of_kinds(
                [str(rac.kind) for rac in racs])
        slots: Dict[int, SlotPlan] = {}
        for index in capability.indices():
            if not 0 <= index < len(racs):
                raise ConfigurationError(
                    f"capability table routes to OCP {index}, but only "
                    f"{len(racs)} RAC(s) are planned"
                )
            slots[index] = SlotPlan.of(
                index, racs[index],
                slot_arena(index, arena_base, arena_stride), chunk)
        size = RAM_SIZE if ram_size is None else ram_size
        ram = ByteRange(RAM_BASE, RAM_BASE + size, "ram")
        return cls(slots, capability, batch_jobs=batch_jobs,
                   chunk=chunk, ram_ranges=(ram,))

    # -- queries ----------------------------------------------------------
    def candidate_slots(self, job: Job) -> Tuple[int, ...]:
        """Slots ``job`` can be resident on (routing + physical fit).

        Neither scheduling policy (round-robin, shortest-queue)
        restricts this set: under back-pressure either policy can pick
        any serving slot with queue space, so the may-happen-in-
        parallel relation must consider them all.
        """
        return feasible_slots(job, self.capability, self.slots)

    def in_ram(self, span: ByteRange) -> bool:
        return any(region.contains(span) for region in self.ram_ranges)
