"""The cost analyzer: sound per-program cycle bounds (OU3xx).

:func:`bound_program` is the entry point.  It reuses the microcode
verifier's CFG builder and interval interpreter, attaching the
:class:`~repro.perfbound.model.CostModel` as the analyzer's cost hook,
so loop acceleration applies to cycle costs exactly as it does to FIFO
volumes.  The result is a :class:`CostBound`: a total-cycle interval
plus a Fig.-4-style transfer/compute/control decomposition, each a
``[lo, hi]`` interval the measured attribution must fall inside.

Soundness contract (enforced by ``tests/test_perfbound_soundness.py``):
for a program the microcode verifier reports clean, running to
completion on an exclusive bus whose memory latency lies inside the
declared ``mem_latency`` contract, the simulator-measured total cycles
and per-bucket attribution land inside the predicted intervals.
Programs the analyzer cannot bound soundly (``waitf`` on external
state, unstructured flow, unbounded volumes, a RAC without a streaming
timing contract) are *refused* with OU300 rather than mis-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Dict, Iterable, Optional, Sequence

from ..core.isa import (
    FROM_COPROCESSOR_OPS,
    OuInstruction,
    OuOp,
    TO_COPROCESSOR_OPS,
    TRANSFER_OPS,
)
from ..rac.base import RAC, StreamingRAC
from ..verify.absint import Analyzer
from ..verify.cfg import build_cfg
from ..verify.diagnostics import VerifyReport
from ..verify.domain import INF, Interval
from .model import (
    BUCKETS,
    COMPUTE,
    CONTROL,
    CostModel,
    RacTiming,
    TRANSFER,
)

_UNBOUNDED = Interval(0, INF)


def _interval_json(value: Interval) -> Dict[str, object]:
    return {
        "lo": int(value.lo),
        "hi": None if value.hi == INF else int(value.hi),
    }


@dataclass(frozen=True)
class CostBound:
    """A sound cycle-cost certificate for one program.

    Every field is a closed interval: the simulator-measured quantity
    is guaranteed to fall inside it (see the module docstring for the
    exact contract).  ``bounded`` is False when the analyzer refused
    (OU300): the upper bounds are then infinite.
    """

    total: Interval
    transfer: Interval
    compute: Interval
    control: Interval
    ops: Interval
    report: VerifyReport

    @property
    def bounded(self) -> bool:
        return self.total.hi != INF

    @property
    def clean(self) -> bool:
        return self.report.clean

    def bucket(self, name: str) -> Interval:
        if name not in BUCKETS:
            raise KeyError(name)
        return getattr(self, name)

    def tightness(self) -> Optional[float]:
        """``hi / lo`` of the total bound (1.0 = exact), None if open."""
        if not self.bounded:
            return None
        if self.total.lo <= 0:
            return float(self.total.hi) if self.total.hi > 0 else 1.0
        return float(self.total.hi) / float(self.total.lo)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "bounded": self.bounded,
            "total": _interval_json(self.total),
            "attribution": {
                name: _interval_json(self.bucket(name))
                for name in BUCKETS
            },
            "ops": _interval_json(self.ops),
            "tightness": self.tightness(),
        }
        payload.update(self.report.to_json())
        return payload

    def render(self) -> str:
        def row(label: str, value: Interval) -> str:
            hi = "inf" if value.hi == INF else str(int(value.hi))
            return f"  {label:<10} [{int(value.lo)}, {hi}] cycles"

        status = "bounded" if self.bounded else "UNBOUNDED"
        lines = [f"cost bound [{status}]", row("total", self.total)]
        lines.extend(row(name, self.bucket(name)) for name in BUCKETS)
        ops_hi = ("inf" if self.ops.hi == INF else str(int(self.ops.hi)))
        lines.append(f"  ops        [{int(self.ops.lo)}, {ops_hi}]")
        tightness = self.tightness()
        if tightness is not None:
            lines.append(f"  tightness  {tightness:.2f}x (hi/lo)")
        findings = self.report.render()
        if findings:
            lines.append(findings)
        return "\n".join(lines)


def _refusal(report: VerifyReport) -> CostBound:
    return CostBound(
        total=_UNBOUNDED, transfer=_UNBOUNDED, compute=_UNBOUNDED,
        control=_UNBOUNDED, ops=_UNBOUNDED, report=report,
    )


def _needs_rac(program: Sequence[OuInstruction]) -> bool:
    return any(
        i.op in TRANSFER_OPS or i.op in (OuOp.EXEC, OuOp.EXECS)
        for i in program
    )


def _ops_interval(
    exit_pushed: Dict[int, Interval], timing: RacTiming
) -> Interval:
    """Bound the number of RAC operations the pushed volumes drive."""
    los = []
    his = []
    for port, need in enumerate(timing.items_in):
        if need <= 0:
            continue
        volume = exit_pushed.get(port, Interval.point(0))
        los.append(int(volume.lo) // need)
        if volume.hi == INF:
            his.append(INF)
        else:
            his.append(ceil(int(volume.hi) / need))
    if not his:
        return Interval.point(0)
    # completed ops are gated by the slowest port; started ops by the
    # fastest-filled one
    return Interval(min(los), max(his))


def bound_program(
    program: Sequence[OuInstruction],
    rac: Optional[RAC] = None,
    *,
    model: Optional[CostModel] = None,
    sla_cycles: Optional[int] = None,
    suppress: Optional[Iterable[str]] = None,
) -> CostBound:
    """Compute a sound cycle-cost bound for ``program``.

    Parameters
    ----------
    rac:
        The accelerator the program drives.  Required (and required to
        be a :class:`StreamingRAC`) when the program touches FIFOs or
        issues ``exec``/``execs``; its timing contract feeds the model
        unless ``model`` already carries one.
    model:
        Bus/latency/ibuf configuration; defaults to the simulator's
        defaults (AHB, memory latency 1, 128-word prefetched ibuf).
        ``model.rac`` is filled in from ``rac`` when absent.
    sla_cycles:
        When given, emit OU304 (error) if the worst-case total exceeds
        this budget -- the admission-time WCET rejection the scheduler
        uses.
    """
    report = VerifyReport()
    program = list(program)
    suppress = tuple(suppress or ())

    def done(bound: CostBound) -> CostBound:
        bound.report.sort()
        bound.report.apply_suppressions(suppress)
        return bound

    if not program:
        report.add("OU300", None, "empty program: nothing to bound")
        return done(_refusal(report))

    for index, instr in enumerate(program):
        if instr.op is OuOp.WAITF:
            report.add(
                "OU300", index,
                "waitf waits on runtime FIFO state; its duration has "
                "no static bound",
            )
            return done(_refusal(report))

    timing: Optional[RacTiming] = None
    if model is not None and model.rac is not None:
        timing = model.rac
    elif isinstance(rac, StreamingRAC):
        timing = RacTiming.of(rac)
    if _needs_rac(program) and timing is None:
        report.add(
            "OU300", None,
            "the program moves data or starts operations but no "
            "streaming timing contract is available for the RAC",
        )
        return done(_refusal(report))

    if model is None:
        model = CostModel(rac=timing)
    elif model.rac is None and timing is not None:
        model = replace(model, rac=timing)

    if timing is not None:
        for index, instr in enumerate(program):
            if (instr.op is OuOp.EXEC
                    and max(timing.items_out) > timing.fifo_depth):
                report.add(
                    "OU300", index,
                    f"exec waits for an op emitting "
                    f"{max(timing.items_out)} words through a "
                    f"{timing.fifo_depth}-deep FIFO no one drains "
                    "meanwhile: the wait has no static bound",
                )
                return done(_refusal(report))

    cfg = build_cfg(program)
    if not cfg.structured or cfg.acyclic_order() is None:
        report.add(
            "OU300", None,
            "control flow is not reducible to loop regions with "
            "static trip counts; cycle costs cannot be accelerated",
        )
        return done(_refusal(report))

    exit_state = Analyzer(cfg, model.instruction_cost).run()
    if exit_state is None:
        report.add("OU300", None,
                   "no terminator is abstractly reachable")
        return done(_refusal(report))

    transfer = exit_state.get_cost(TRANSFER)
    compute = exit_state.get_cost(COMPUTE)
    control = exit_state.get_cost(CONTROL)
    if INF in (transfer.hi, compute.hi, control.hi):
        report.add("OU300", None,
                   "a loop's cost could not be bounded")
        return done(_refusal(report))

    control = control + model.run_cost(len(program))

    ops = Interval.point(0)
    if timing is not None:
        ops = _ops_interval(exit_state.pushed, timing)
        if ops.hi == INF:
            report.add(
                "OU300", None,
                "pushed FIFO volumes are unbounded; the stall "
                "ceiling diverges",
            )
            return done(_refusal(report))
        transfer = transfer + model.stall_ceiling(ops)

    total = transfer + compute + control

    # -- advisory diagnostics --------------------------------------------
    if timing is not None:
        depth = timing.fifo_depth
        burst = model.protocol.max_burst_beats
        for index, instr in enumerate(program):
            if (instr.op in TO_COPROCESSOR_OPS
                    and instr.count > depth):
                report.add(
                    "OU301", index,
                    f"fill of {instr.count} words round-trips a "
                    f"{depth}-deep FIFO: at least "
                    f"{ceil(instr.count / depth)} transactions",
                )
            elif (instr.op in FROM_COPROCESSOR_OPS
                    and depth < min(instr.count, burst)):
                report.add(
                    "OU301", index,
                    f"drain of {instr.count} words is capped at "
                    f"{depth}-word chunks by the FIFO "
                    f"(bus bursts allow {burst})",
                )
    if control.lo > transfer.hi + compute.hi:
        report.add(
            "OU302", None,
            f"guaranteed control overhead ({int(control.lo)} cycles) "
            f"exceeds worst-case transfer + compute "
            f"({int(transfer.hi + compute.hi)} cycles)",
        )
    if model.masters > 1:
        report.add(
            "OU303", None,
            f"{model.masters} bus masters elaborated: the bound "
            "assumes exclusive bus ownership and does not cover "
            "contention",
        )
    if sla_cycles is not None and total.hi > sla_cycles:
        report.add(
            "OU304", None,
            f"worst-case total {int(total.hi)} cycles exceeds the "
            f"SLA budget of {sla_cycles}",
        )

    return done(CostBound(
        total=total, transfer=transfer, compute=compute,
        control=control, ops=ops, report=report,
    ))

