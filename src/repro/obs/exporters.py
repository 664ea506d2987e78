"""Span exporters: Chrome/Perfetto trace-event JSON and VCD lanes.

*Perfetto* -- :func:`to_perfetto` emits the Chrome trace-event format
(``ph: "X"`` complete events) that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  Every span root claims a
thread lane; children share their parent's lane, so slices nest by
containment exactly like the span tree.  Bus transactions are the
exception -- they get one track per master, because a driver poll can
straddle instruction slices -- and FIFO occupancy samples ride along
as ``ph: "C"`` counter tracks.

*VCD* -- :func:`to_vcd` renders the same lanes as waveform signals for
GTKWave, next to the signals the RTL debug flow would show: one
``state`` signal per controller (value = FSM state code), one ``busy``
bit per RAC, per-master bus activity, and FIFO occupancy in atoms.
State codes follow :data:`STATE_CODES`; timescale matches the
system-clock convention of :class:`~repro.sim.tracing.VCDWriter`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.controller import STATE_CODES
from ..sim.tracing import Trace, VCDWriter
from .spans import Span, SpanTrace

#: microseconds per cycle used for the Perfetto ``ts`` axis; one unit
#: per cycle keeps durations readable (the UI labels them "us")
_TS_PER_CYCLE = 1


def fifo_occupancy_series(trace: Trace) -> Dict[str, List[Tuple[int, int]]]:
    """Per-FIFO ``(cycle, occupancy_atoms)`` samples from the trace."""
    series: Dict[str, List[Tuple[int, int]]] = {}
    for event in trace:
        if (event.event in ("commit", "pop")
                and "occupancy_atoms" in event.data):
            series.setdefault(event.component, []).append(
                (event.cycle, int(event.data["occupancy_atoms"]))
            )
    return series


def to_perfetto(
    spans: SpanTrace,
    trace: Optional[Trace] = None,
    process_name: str = "repro",
) -> Dict[str, object]:
    """Chrome trace-event JSON (a dict ready for ``json.dump``)."""
    events: List[Dict[str, object]] = []
    lanes: Dict[str, int] = {}

    def lane_of(span: Span) -> int:
        key = f"{span.category}:{span.component}"
        if span.category == "bus":
            # bus transactions of different masters overlap freely and
            # may straddle the slices of their adoptive parent's lane;
            # per-master tracks keep every lane properly nested
            key = f"bus:{span.data.get('master', span.component)}"
        if key not in lanes:
            lanes[key] = len(lanes) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1,
                "tid": lanes[key], "args": {"name": key},
            })
        return lanes[key]

    def emit(span: Span, tid: Optional[int]) -> None:
        if span.category == "bus" or tid is None:
            tid = lane_of(span)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.begin * _TS_PER_CYCLE,
            "dur": span.cycles * _TS_PER_CYCLE,
            "pid": 1,
            "tid": tid,
            "args": {"component": span.component, **span.data},
        })
        for child in span.children:
            emit(child, tid)

    for root in spans.roots:
        emit(root, None)

    if trace is not None:
        for fifo, samples in fifo_occupancy_series(trace).items():
            for cycle, occupancy in samples:
                events.append({
                    "name": f"fifo {fifo}",
                    "ph": "C",
                    "ts": cycle * _TS_PER_CYCLE,
                    "pid": 1,
                    "args": {"occupancy_atoms": occupancy},
                })

    return {
        "displayTimeUnit": "ms",
        "otherData": {"process_name": process_name},
        "traceEvents": events,
    }


def to_vcd(
    spans: SpanTrace,
    trace: Optional[Trace] = None,
    timescale: str = "20ns",
) -> str:
    """Render span lanes as a VCD document (GTKWave-ready text)."""
    vcd = VCDWriter(timescale=timescale)

    def lane(signal: str, width: int,
             intervals: List[Tuple[int, int, int]]) -> None:
        """One signal from (begin, end, code) intervals; a span
        starting at another's end wins over the return-to-zero."""
        vcd.register(signal, width=width)
        changes: Dict[int, int] = {0: 0}
        for _, end, _ in intervals:
            changes.setdefault(end, 0)
        for begin, _, code in intervals:
            changes[begin] = code
        for cycle in sorted(changes):
            vcd.change(cycle, signal, changes[cycle])

    controllers = sorted({
        s.component for s in spans.query(category="state")
    })
    for ctrl in controllers:
        lane(f"{ctrl}.state", 4, [
            (s.begin, s.end, STATE_CODES[s.name])
            for s in spans.query(category="state", component=ctrl)
        ])

    for category, label in (("driver", "op"), ("rac", "busy"),
                            ("dma", "copy"), ("stall", "stall")):
        by_component: Dict[str, List[Tuple[int, int, int]]] = {}
        for span in spans.query(category=category):
            by_component.setdefault(span.component, []).append(
                (span.begin, span.end, 1)
            )
        for component, intervals in sorted(by_component.items()):
            lane(f"{component}.{label}", 1, intervals)

    if trace is not None:
        for fifo, samples in fifo_occupancy_series(trace).items():
            signal = f"{fifo}.atoms"
            vcd.register(signal, width=8)
            vcd.change(0, signal, 0)
            for cycle, occupancy in samples:
                vcd.change(cycle, signal, occupancy)

    return vcd.render()
