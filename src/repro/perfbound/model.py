"""Cycle-cost model: per-instruction ``[lo, hi]`` cycle intervals.

The model mirrors the simulator's timing sources exactly:

* **Bus transactions.**  The bus grants one cycle after submit and the
  controller consumes the data on the finish cycle, so a transaction of
  ``c`` beats against a slave of latency ``L`` occupies the requesting
  FSM state for ``protocol.transfer_cycles(c, L) + 2`` cycles
  (submit tick + occupancy + consume tick), with back-to-back chunks.
* **Controller FSM.**  Every executed instruction costs one FETCH and
  one DECODE cycle (the execute action runs inside the decode tick);
  instructions past the prefetched instruction buffer pay a 1-beat bus
  fetch instead of the FETCH tick.
* **Transfer chunking.**  ``mvfc`` chunks deterministically
  (``min(remaining, max_burst_beats, fifo_depth)``); ``mvtc`` chunks by
  free FIFO space, so its best case is depth-sized chunks and its worst
  case is one word per transaction.
* **RAC contract.**  A :class:`~repro.rac.base.StreamingRAC` op spans at
  most ``collect + compute + emit`` progress ticks; the per-program
  stall ceiling multiplies that by the op-count upper bound.

Memory latency is a *contract interval*: bounds hold for any slave
latency within ``[mem_latency.lo, mem_latency.hi]``, which is how the
soundness suite exercises "stall-faulted" runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..bus.protocol import AHB, BusProtocol
from ..core.isa import (
    FROM_COPROCESSOR_OPS,
    OuInstruction,
    OuOp,
    TO_COPROCESSOR_OPS,
)
from ..rac.base import StreamingRAC
from ..verify.domain import INF, Interval

if TYPE_CHECKING:
    from ..core.coprocessor import OuessantCoprocessor

#: cost buckets, matching Fig. 4 / ``repro.obs.attribution``
TRANSFER = "transfer"
COMPUTE = "compute"
CONTROL = "control"
BUCKETS = (TRANSFER, COMPUTE, CONTROL)

#: submit tick + consume tick around every bus transaction's occupancy
TX_EDGE_CYCLES = 2

#: slack on one RAC operation's progress-tick ceiling (phase
#: transitions: collect->compute, compute fire, done->collect restart)
OP_SLACK_CYCLES = 4

#: run-level control slack: START dispatch + DONE edge + ibuf handoff
RUN_SLACK_CYCLES = 6


def tx_cycles(protocol: BusProtocol, beats: int, latency: int) -> int:
    """FSM cycles one bus transaction holds its requester."""
    return protocol.transfer_cycles(beats, latency) + TX_EDGE_CYCLES


def mvfc_chunks(count: int, protocol: BusProtocol, depth: int) -> List[int]:
    """The deterministic drain chunk sequence the controller issues."""
    chunks: List[int] = []
    remaining = count
    while remaining > 0:
        take = min(remaining, protocol.max_burst_beats, depth)
        chunks.append(take)
        remaining -= take
    return chunks


def mvtc_best_chunks(count: int, depth: int) -> List[int]:
    """Fill chunking when the FIFO is always maximally free."""
    chunks: List[int] = []
    remaining = count
    while remaining > 0:
        take = min(remaining, depth)
        chunks.append(take)
        remaining -= take
    return chunks


@dataclass(frozen=True)
class RacTiming:
    """Static timing contract of one streaming accelerator."""

    items_in: Sequence[int]
    items_out: Sequence[int]
    compute_latency: int
    fifo_depth: int

    @staticmethod
    def of(rac: StreamingRAC) -> "RacTiming":
        return RacTiming(
            items_in=tuple(rac.items_in),
            items_out=tuple(rac.items_out),
            compute_latency=rac.compute_latency,
            fifo_depth=rac.ports.fifo_depth,
        )

    @property
    def op_ticks(self) -> int:
        """Ceiling on one op's RAC progress ticks (collect..emit): one
        word per port per tick."""
        collect = max([0, *self.items_in])
        emit = max([0, *self.items_out])
        return (collect + self.compute_latency + 1 + emit
                + OP_SLACK_CYCLES)


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
    def _lat(self) -> Tuple[int, int]:
        return int(self.mem_latency.lo), int(self.mem_latency.hi)

    def fetch_decode_cost(self, index: int) -> Interval:
        """FETCH + DECODE cycles for the instruction at ``index``."""
        if self.prefetch and index < self.ibuf_size:
            return Interval.point(2)
        lo, hi = self._lat()
        # slow path: a 1-beat bus fetch replaces the FETCH tick
        return Interval(tx_cycles(self.protocol, 1, lo) + 1,
                        tx_cycles(self.protocol, 1, hi) + 1)

    def mvtc_cost(self, count: int) -> Interval:
        """XFER_TO cycles excluding FIFO-stall waits (pooled)."""
        depth = self.rac.fifo_depth if self.rac is not None else count
        lo_lat, hi_lat = self._lat()
        best = sum(tx_cycles(self.protocol, c, lo_lat)
                   for c in mvtc_best_chunks(count, depth))
        # worst chunking: one word of FIFO space per transaction
        worst = count * tx_cycles(self.protocol, 1, hi_lat)
        return Interval(best, max(best, worst))

    def mvfc_cost(self, count: int) -> Interval:
        """XFER_FROM cycles excluding FIFO-stall waits (pooled)."""
        depth = self.rac.fifo_depth if self.rac is not None else count
        lo_lat, hi_lat = self._lat()
        chunks = mvfc_chunks(count, self.protocol, depth)
        return Interval(
            sum(tx_cycles(self.protocol, c, lo_lat) for c in chunks),
            sum(tx_cycles(self.protocol, c, hi_lat) for c in chunks),
        )

    def exec_cost(self) -> Interval:
        """EXEC_WAIT cycles for a blocking ``exec``."""
        if self.rac is None:
            return Interval.point(1)
        return Interval(1, self.rac.op_ticks + TX_EDGE_CYCLES)

    def prefetch_cost(self, prog_size: int) -> Interval:
        """PREFETCH-state cycles for the initial microcode burst."""
        if not self.prefetch:
            return Interval.point(0)
        beats = min(prog_size, self.ibuf_size)
        lo, hi = self._lat()
        return Interval(tx_cycles(self.protocol, beats, lo),
                        tx_cycles(self.protocol, beats, hi))

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
