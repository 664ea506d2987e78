"""Transfer / compute / control attribution (the paper's Fig. 4).

"Given the computing time, we have roughly 1500 cycles needed for data
transfer": the evaluation's core argument is a three-way split of a
run's cycles.  :func:`attribute_run` reproduces it for any workload:

* **transfer** -- cycles the controller spent in ``xfer_to`` /
  ``xfer_from`` (FIFO stalls included: the bus may be idle, but the
  cycle is still owned by data movement);
* **compute** -- cycles parked in ``exec_wait`` (blocking on the RAC);
* **control** -- everything else: fetch/decode, GPP register accesses,
  interrupt latency, idle gaps.

``transfer + compute + control == total`` holds *exactly* -- control
is defined as the remainder, so nothing is ever double-counted or
dropped.  ``overlap_cycles`` additionally measures how many transfer
cycles ran while the RAC was busy (``execs``-style pipelining), which
is the paper's overlap argument for why the three buckets may sum to
more than the wall clock on a per-activity reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.perf import (
    PERF_EXECW,
    PERF_FIFO_IN_HW,
    PERF_FIFO_OUT_HW,
    PERF_STALL,
    PERF_XFER,
)
from ..sim.errors import ReproError
from .spans import SpanTrace

#: JSON schema (informal) of :meth:`AttributionReport.as_dict`; the CI
#: schema check in ``scripts/check_profile_schema.py`` enforces it
REPORT_FIELDS = (
    "workload", "total_cycles", "transfer_cycles", "compute_cycles",
    "control_cycles", "stall_cycles", "overlap_cycles", "words_moved",
    "instructions", "fifo_in_high_water", "fifo_out_high_water",
    "breakdown",
)


@dataclass
class AttributionReport:
    """Where one run's cycles went, by activity."""

    workload: str
    total_cycles: int
    transfer_cycles: int
    compute_cycles: int
    control_cycles: int
    stall_cycles: int = 0
    overlap_cycles: int = 0
    words_moved: int = 0
    instructions: int = 0
    fifo_in_high_water: int = 0
    fifo_out_high_water: int = 0
    #: finer-grained controller-state split inside the three buckets
    breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        """The defining invariant: the three buckets tile the run."""
        return (
            self.transfer_cycles + self.compute_cycles
            + self.control_cycles == self.total_cycles
            and self.transfer_cycles >= 0
            and self.compute_cycles >= 0
            and self.control_cycles >= 0
        )

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in REPORT_FIELDS}

    def render(self) -> str:
        def row(label: str, cycles: int) -> str:
            share = cycles / self.total_cycles if self.total_cycles else 0
            return f"  {label:<10} {cycles:>10} cycles ({100 * share:5.1f}%)"

        lines = [
            f"{self.workload}: {self.total_cycles} cycles",
            row("transfer", self.transfer_cycles),
            row("compute", self.compute_cycles),
            row("control", self.control_cycles),
            f"  stalls     {self.stall_cycles:>10} cycles "
            f"(inside transfer)",
            f"  overlap    {self.overlap_cycles:>10} cycles "
            f"(transfer while RAC busy)",
            f"  moved      {self.words_moved:>10} words in "
            f"{self.instructions} instructions",
        ]
        return "\n".join(lines)


def attribute_run(
    soc,
    workload: str = "",
    ocp_index: int = 0,
    total_cycles: Optional[int] = None,
    spans: Optional[SpanTrace] = None,
) -> AttributionReport:
    """Build the attribution of the most recent run on ``soc``.

    Every figure is windowed to that run: the OCP's performance-counter
    block and the controller statistics are both read since run start
    (:meth:`~repro.core.perf.PerfCounterBlock.window`).
    ``total_cycles`` defaults to the simulator's current cycle, which
    is the run's own total only while the OCP has started at most one
    run; after a second start the default would count the earlier runs
    too, so it raises :class:`ReproError` and the caller must pass the
    run's total.  Passing the reconstructed ``spans`` additionally
    fills :attr:`AttributionReport.overlap_cycles`.
    """
    ocp = soc.ocps[ocp_index]
    perf = ocp.controller.perf
    window = perf.window()
    if total_cycles is not None:
        total = total_cycles
    elif ocp.controller.runs_started > 1:
        raise ReproError(
            f"OCP {ocp_index} has started {ocp.controller.runs_started} "
            f"runs; the simulator's cycle {soc.sim.cycle} counts all of "
            "them: pass the last run's total_cycles"
        )
    else:
        total = soc.sim.cycle
    transfer = perf.value(PERF_XFER)
    compute = perf.value(PERF_EXECW)

    overlap = 0
    if spans is not None:
        ctrl = ocp.controller.name
        xfer_spans = [
            s for s in spans.query(category="state", component=ctrl)
            if s.name in ("xfer_to", "xfer_from")
        ]
        rac_spans = spans.query(category="rac",
                                component=ocp.rac.name if ocp.rac else None)
        overlap = spans.overlap_cycles(xfer_spans, rac_spans)

    # a state an earlier run entered but this one did not reads 0:
    # leave it out, as a fresh SoC's report would
    breakdown = {
        key.split(".", 1)[1]: value
        for key, value in window.items()
        if key.startswith("cycles.") and value
    }
    return AttributionReport(
        workload=workload,
        total_cycles=total,
        transfer_cycles=transfer,
        compute_cycles=compute,
        control_cycles=total - transfer - compute,
        stall_cycles=perf.value(PERF_STALL),
        overlap_cycles=overlap,
        words_moved=window.get("words_to_rac", 0)
        + window.get("words_from_rac", 0),
        instructions=window.get("instructions", 0),
        fifo_in_high_water=perf.value(PERF_FIFO_IN_HW),
        fifo_out_high_water=perf.value(PERF_FIFO_OUT_HW),
        breakdown=breakdown,
    )


@dataclass(frozen=True)
class PredictionCheck:
    """Measured attribution vs a :mod:`repro.perfbound` prediction.

    The soundness gate in one object: every measured bucket (and the
    total) must land inside the statically predicted ``[lo, hi]``
    interval.  ``violations`` names the buckets that escaped --
    non-empty means either the cost model or the simulator timing
    drifted, which is exactly the regression this check exists to
    catch.
    """

    workload: str
    sound: bool
    violations: Dict[str, str]
    #: measured value per bucket name (incl. "total")
    measured: Dict[str, int]
    #: predicted (lo, hi) per bucket name; hi is None when unbounded
    predicted: Dict[str, object]
    #: total-bound tightness hi/lo (1.0 = exact), None when unbounded
    tightness: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "sound": self.sound,
            "violations": dict(self.violations),
            "measured": dict(self.measured),
            "predicted": dict(self.predicted),
            "tightness": self.tightness,
        }

    def render(self) -> str:
        status = "sound" if self.sound else "VIOLATED"
        lines = [f"prediction check [{status}] {self.workload}"]
        for name, value in self.measured.items():
            lo, hi = self.predicted[name]  # type: ignore[misc]
            hi_text = "inf" if hi is None else str(hi)
            mark = "" if name not in self.violations else "  <-- out"
            lines.append(
                f"  {name:9s} measured {value:>8} in "
                f"[{lo}, {hi_text}]{mark}"
            )
        return "\n".join(lines)


def compare_attribution(report: AttributionReport, bound) -> PredictionCheck:
    """Check a measured run against its predicted cost bound.

    ``bound`` is a :class:`repro.perfbound.CostBound`; measured total
    and per-bucket cycles must fall inside its intervals.
    """
    pairs = {
        "transfer": (report.transfer_cycles, bound.transfer),
        "compute": (report.compute_cycles, bound.compute),
        "control": (report.control_cycles, bound.control),
        "total": (report.total_cycles, bound.total),
    }
    measured: Dict[str, int] = {}
    predicted: Dict[str, object] = {}
    violations: Dict[str, str] = {}
    for name, (value, interval) in pairs.items():
        measured[name] = value
        hi = None if interval.hi == float("inf") else int(interval.hi)
        predicted[name] = (int(interval.lo), hi)
        if value < interval.lo:
            violations[name] = (
                f"measured {value} under predicted lower bound "
                f"{int(interval.lo)}"
            )
        elif value > interval.hi:
            violations[name] = (
                f"measured {value} over predicted upper bound "
                f"{int(interval.hi)}"
            )
    return PredictionCheck(
        workload=report.workload,
        sound=not violations,
        violations=violations,
        measured=measured,
        predicted=predicted,
        tightness=bound.tightness(),
    )
