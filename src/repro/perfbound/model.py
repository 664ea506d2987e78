"""Cycle-cost model: per-instruction ``[lo, hi]`` cycle intervals.

The model reads the simulator's timing contract where it lives, and
``tests/test_timing_contract.py`` pins that contract to the simulator:

* **Bus transactions and FSM states** (:mod:`repro.core.controller`).
  A transaction of ``c`` beats holds its state for
  ``protocol.transfer_cycles(c, L)`` plus ``SUBMIT_CYCLES`` and
  ``CONSUME_CYCLES``.  An instruction costs ``FETCH_CYCLES +
  DECODE_CYCLES``, past the instruction buffer a ``FETCH_BEATS``-word
  bus fetch in place of FETCH.  A blocking ``exec`` holds EXEC_WAIT
  ``END_OP_CYCLES`` past the RAC's operation.
* **Transfer chunking.**  ``mvfc`` chunks by the controller's
  :func:`~repro.core.controller.drain_chunk`; ``mvtc`` by free FIFO
  space, at best depth-sized chunks and at worst one word each.
* **RAC contract** (:attr:`repro.rac.base.StreamingRAC.op_ticks`).  An
  operation's own ticks plus a FIFO handoff
  (:data:`repro.rac.fifo.HANDOFF_CYCLES`) on each side; the stall
  ceiling multiplies that by the op-count upper bound.

The ``*_MARGIN_CYCLES`` constants are slack that no pinned rule
explains, kept so that no bound moves.

Memory latency is a *contract interval*: bounds hold for any slave
latency within ``[mem_latency.lo, mem_latency.hi]``, which is how the
soundness suite exercises "stall-faulted" runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..bus.protocol import AHB, BusProtocol
from ..core.controller import (
    CONSUME_CYCLES,
    DECODE_CYCLES,
    END_OP_CYCLES,
    FETCH_BEATS,
    FETCH_CYCLES,
    SUBMIT_CYCLES,
    drain_chunk,
)
from ..core.isa import (
    FROM_COPROCESSOR_OPS,
    OuInstruction,
    OuOp,
    TO_COPROCESSOR_OPS,
)
from ..rac.base import StreamingRAC
from ..rac.fifo import HANDOFF_CYCLES
from ..verify.domain import INF, Interval

if TYPE_CHECKING:
    from ..core.coprocessor import OuessantCoprocessor

#: cost buckets, matching Fig. 4 / ``repro.obs.attribution``
TRANSFER = "transfer"
COMPUTE = "compute"
CONTROL = "control"
BUCKETS = (TRANSFER, COMPUTE, CONTROL)

#: per RAC operation: a cycle for each phase change (collect to
#: compute, the compute firing, the restart); ``op_ticks`` already
#: spends each inside one of its ticks
OP_MARGIN_CYCLES = 3
#: per blocking ``exec``: the cycle a RAC ticking before its controller
#: would take to see ``start_op``; every OCP registers it after
EXEC_MARGIN_CYCLES = 1
#: per run: two cycles each for the START and DONE edges and the
#: prefetch-to-fetch handoff, which cost none (a run is exactly its
#: FSM states' cycles)
RUN_MARGIN_CYCLES = 6


@dataclass(frozen=True)
class RacTiming:
    """Static timing contract of one streaming accelerator."""

    items_in: Sequence[int]
    items_out: Sequence[int]
    #: the RAC's own ticks per operation (``StreamingRAC.op_ticks``)
    progress_ticks: int
    fifo_depth: int

    @staticmethod
    def of(rac: StreamingRAC) -> "RacTiming":
        return RacTiming(
            items_in=tuple(rac.items_in),
            items_out=tuple(rac.items_out),
            progress_ticks=rac.op_ticks,
            fifo_depth=rac.ports.fifo_depth,
        )

    @property
    def op_ticks(self) -> int:
        """Ceiling on the cycles one op keeps the transfer engine
        waiting: the RAC's own ticks, a FIFO handoff into it and one
        out of it, and the op margin."""
        return (self.progress_ticks + 2 * HANDOFF_CYCLES
                + OP_MARGIN_CYCLES)


@dataclass(frozen=True)
class CostModel:
    """Everything the per-instruction cost function needs.

    ``mem_latency`` is the declared slave-latency contract; the
    produced bounds are sound for every latency inside it.
    """

    protocol: BusProtocol = field(default_factory=lambda: AHB)
    mem_latency: Interval = field(
        default_factory=lambda: Interval.point(1))
    rac: Optional[RacTiming] = None
    ibuf_size: int = 128
    prefetch: bool = True
    masters: int = 1

    def __post_init__(self) -> None:
        if self.mem_latency.lo < 0 or self.mem_latency.hi == INF:
            raise ValueError(
                "mem_latency must be a bounded non-negative interval")

    @staticmethod
    def of_ocp(
        ocp: "OuessantCoprocessor", protocol: BusProtocol, mem_latency: int
    ) -> "CostModel":
        """The model of an elaborated OCP behind ``protocol`` and a
        memory of latency ``mem_latency``: its streaming RAC's timing
        contract (``None`` for any other RAC) and its controller's
        instruction-buffer size and prefetch policy."""
        rac = ocp.rac
        controller = ocp.controller
        return CostModel(
            protocol=protocol,
            mem_latency=Interval.point(mem_latency),
            rac=(RacTiming.of(rac) if isinstance(rac, StreamingRAC)
                 else None),
            ibuf_size=controller.ibuf_size,
            prefetch=controller.prefetch,
        )

    # -- per-site costs ---------------------------------------------------
    def _tx(self, beats: int) -> Interval:
        """FSM cycles one bus transaction of ``beats`` words holds its
        requester: the bus occupancy and the submit and consume ticks."""
        lo, hi = (self.protocol.transfer_cycles(beats, int(latency))
                  + SUBMIT_CYCLES + CONSUME_CYCLES
                  for latency in (self.mem_latency.lo, self.mem_latency.hi))
        return Interval(lo, hi)

    def fetch_decode_cost(self, index: int) -> Interval:
        """FETCH + DECODE cycles for the instruction at ``index``."""
        if self.prefetch and index < self.ibuf_size:
            return Interval.point(FETCH_CYCLES + DECODE_CYCLES)
        # slow path: a bus fetch replaces the FETCH tick
        return self._tx(FETCH_BEATS).add_const(DECODE_CYCLES)

    def mvtc_cost(self, count: int) -> Interval:
        """XFER_TO cycles excluding FIFO-stall waits (pooled): at best
        depth-sized chunks, at worst one word of FIFO space per
        transaction."""
        depth = self.rac.fifo_depth if self.rac is not None else count
        best, left = 0, count
        while left > 0:
            chunk = min(left, depth)
            best += self._tx(chunk).lo
            left -= chunk
        return Interval(best, max(best, count * self._tx(1).hi))

    def mvfc_cost(self, count: int) -> Interval:
        """XFER_FROM cycles excluding FIFO-stall waits (pooled): the
        controller's own drain chunks."""
        depth = self.rac.fifo_depth if self.rac is not None else count
        cost, left = Interval.point(0), count
        while left > 0:
            chunk = drain_chunk(left, self.protocol.max_burst_beats, depth)
            cost += self._tx(chunk)
            left -= chunk
        return cost

    def exec_cost(self) -> Interval:
        """EXEC_WAIT cycles for a blocking ``exec``."""
        if self.rac is None:
            return Interval.point(END_OP_CYCLES)
        return Interval(END_OP_CYCLES, self.rac.op_ticks + END_OP_CYCLES
                        + EXEC_MARGIN_CYCLES)

    def prefetch_cost(self, prog_size: int) -> Interval:
        """PREFETCH-state cycles for the initial microcode burst."""
        if not self.prefetch:
            return Interval.point(0)
        return self._tx(min(prog_size, self.ibuf_size))

    def run_cost(self, prog_size: int) -> Interval:
        """Control cycles a run spends outside its instructions: the
        microcode prefetch burst and the run margin."""
        return (self.prefetch_cost(prog_size)
                + Interval(0, RUN_MARGIN_CYCLES))

    def instruction_cost(
        self, index: int, instr: OuInstruction
    ) -> Dict[str, Interval]:
        """Per-bucket cycle intervals charged when ``instr`` executes.

        Constant per program site, as :data:`repro.verify.absint.
        CostModelFn` requires, so loop acceleration stays exact.
        """
        control = self.fetch_decode_cost(index)
        cost = {CONTROL: control}
        op = instr.op
        if op in TO_COPROCESSOR_OPS:
            cost[TRANSFER] = self.mvtc_cost(instr.count)
        elif op in FROM_COPROCESSOR_OPS:
            cost[TRANSFER] = self.mvfc_cost(instr.count)
        elif op is OuOp.EXEC:
            cost[COMPUTE] = self.exec_cost()
        elif op is OuOp.WAIT:
            cost[CONTROL] = control.add_const(instr.imm)
        return cost

    # -- run-level costs --------------------------------------------------
    def stall_ceiling(self, ops_hi: Interval) -> Interval:
        """Upper bound on FIFO-stall cycles over the whole run.

        Every cycle the transfer engine stalls on a FIFO, the (single)
        streaming RAC is making progress on some operation; total RAC
        progress is at most ``ops * op_ticks``.
        """
        if self.rac is None:
            return Interval.point(0)
        if ops_hi.hi == INF:
            return Interval(0, INF)
        return Interval(0, int(ops_hi.hi) * self.rac.op_ticks)
