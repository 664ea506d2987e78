"""Span reconstruction: from a flat event log to a hierarchy.

The simulator's :class:`~repro.sim.tracing.Trace` is an append-only
list of point events.  The components emit just enough structure to
rebuild *intervals* from it:

* the controller records a ``phase`` event at every FSM transition,
  carrying the explicit boundary cycle ``at`` (first cycle charged to
  the new state), so state spans match the ``cycles.<state>`` counters
  bit-exactly;
* ``instr`` events mark each decoded instruction; an instruction span
  stretches from its decode boundary to the next fetch (or terminal)
  boundary;
* aggregated ``stall`` events close a run of FIFO-stall cycles;
* the bus emits ``grant``/``complete`` pairs, the driver ``op.begin``/
  ``op.end``, the DMA ``start``/``done``, the RAC ``start_op``/
  ``end_op``.

:func:`reconstruct_spans` pairs all of those into :class:`Span` trees:
driver op -> microcode instruction -> FSM state -> bus transaction /
stall, with RAC-busy and DMA lanes alongside.  A truncated trace is
refused loudly -- missing events would silently fabricate wrong spans,
the same rule :func:`repro.faults.harness.fault_history` applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.controller import ACTIVE_STATES
from ..sim.errors import SimulationError
from ..sim.tracing import Trace, TraceEvent

#: states that end an instruction span when entered
_INSTR_END_STATES = ("fetch", "prefetch", "idle", "halted", "error")


@dataclass
class Span:
    """One reconstructed interval: ``[begin, end)`` in cycles."""

    name: str
    category: str       # driver | instr | state | stall | bus | rac | dma
    component: str
    begin: int
    end: int
    data: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.end - self.begin

    def contains(self, other: "Span") -> bool:
        return self.begin <= other.begin and other.end <= self.end

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __str__(self) -> str:
        return (
            f"{self.category}:{self.name} "
            f"[{self.begin}, {self.end}) {self.cycles}c"
        )


class SpanTrace:
    """Query API over the reconstructed span forest."""

    def __init__(self, roots: List[Span], end_cycle: int) -> None:
        self.roots = roots
        self.end_cycle = end_cycle

    def __iter__(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def query(
        self,
        category: Optional[str] = None,
        component: Optional[str] = None,
        name: Optional[str] = None,
        since: Optional[int] = None,
    ) -> List[Span]:
        """Spans filtered by category / component / name / begin cycle."""
        out = []
        for span in self:
            if category is not None and span.category != category:
                continue
            if component is not None and span.component != component:
                continue
            if name is not None and span.name != name:
                continue
            if since is not None and span.begin < since:
                continue
            out.append(span)
        return out

    def total_cycles(self, category: str, **kwargs) -> int:
        """Summed duration of every span in a category."""
        return sum(s.cycles for s in self.query(category=category, **kwargs))

    def overlap_cycles(
        self, spans_a: List[Span], spans_b: List[Span]
    ) -> int:
        """Cycles covered by both span sets (union-of-intersections)."""
        covered = set()
        intervals_b = [(s.begin, s.end) for s in spans_b]
        for a in spans_a:
            for b_begin, b_end in intervals_b:
                lo = max(a.begin, b_begin)
                hi = min(a.end, b_end)
                if lo < hi:
                    covered.update(range(lo, hi))
        return len(covered)


def _pair_driver_ops(events: List[TraceEvent], end_cycle: int) -> List[Span]:
    """``op.begin``/``op.end`` pairs; an unmatched begin (failed run)
    closes at the next begin or at the end of the trace."""
    spans: List[Span] = []
    open_span: Optional[Span] = None
    for event in events:
        if event.event == "op.begin":
            if open_span is not None:
                open_span.end = event.cycle
                spans.append(open_span)
            open_span = Span(
                name=str(event.data.get("op", "op")),
                category="driver",
                component=event.component,
                begin=event.cycle,
                end=end_cycle,
                data=dict(event.data),
            )
        elif event.event == "op.end" and open_span is not None:
            open_span.end = event.cycle
            spans.append(open_span)
            open_span = None
    if open_span is not None:
        spans.append(open_span)
    return [s for s in spans if s.cycles > 0]


def _controller_spans(
    events: List[TraceEvent], component: str, end_cycle: int
) -> Tuple[List[Span], List[Span], List[Span]]:
    """(state spans, instruction spans, stall spans) of one controller."""
    boundaries: List[Tuple[int, str]] = [
        (int(e.data["at"]), str(e.data["state"]))
        for e in events
        if e.event == "phase"
    ]
    state_spans: List[Span] = []
    for index, (at, state) in enumerate(boundaries):
        if state not in ACTIVE_STATES:
            continue
        end = (
            boundaries[index + 1][0]
            if index + 1 < len(boundaries)
            else end_cycle
        )
        if end > at:
            state_spans.append(Span(
                name=state, category="state", component=component,
                begin=at, end=end,
            ))

    instr_spans: List[Span] = []
    for event in events:
        if event.event != "instr":
            continue
        decode = next(
            (s for s in state_spans
             if s.name == "decode" and s.begin <= event.cycle < s.end),
            None,
        )
        if decode is None:
            continue
        end = end_cycle
        for at, state in boundaries:
            if at > decode.begin and state in _INSTR_END_STATES:
                end = at
                break
        instr_spans.append(Span(
            name=str(event.data.get("mnemonic", "?")),
            category="instr",
            component=component,
            begin=decode.begin,
            end=end,
            data=dict(event.data),
        ))

    stall_spans = [
        Span(
            name="fifo_stall", category="stall", component=component,
            begin=int(e.data["at"]) - int(e.data["cycles"]),
            end=int(e.data["at"]),
            data=dict(e.data),
        )
        for e in events
        if e.event == "stall" and int(e.data["cycles"]) > 0
    ]
    return state_spans, instr_spans, stall_spans


def _pair_bus(events: List[TraceEvent]) -> List[Span]:
    """FIFO-pair ``grant``/``complete`` per master into bus spans."""
    outstanding: Dict[str, List[TraceEvent]] = {}
    spans: List[Span] = []
    for event in events:
        master = str(event.data.get("master", "?"))
        if event.event == "grant":
            outstanding.setdefault(master, []).append(event)
        elif event.event == "complete":
            queue = outstanding.get(master)
            if not queue:
                continue
            grant = queue.pop(0)
            kind = str(grant.data.get("kind", "?"))
            spans.append(Span(
                name=f"{kind} {grant.data.get('address', '?')}",
                category="bus",
                component=event.component,
                begin=grant.cycle,
                end=event.cycle + 1,
                data={
                    "master": master,
                    "kind": kind,
                    "address": grant.data.get("address"),
                    "burst": grant.data.get("burst"),
                    "latency": event.data.get("latency"),
                },
            ))
    return spans


def _pair_simple(
    events: List[TraceEvent],
    begin_event: str,
    end_event: str,
    category: str,
    name: str,
    end_cycle: int,
    end_inclusive: bool = False,
) -> List[Span]:
    spans: List[Span] = []
    open_event: Optional[TraceEvent] = None
    for event in events:
        if event.event == begin_event:
            open_event = event
        elif event.event == end_event and open_event is not None:
            end = event.cycle + (1 if end_inclusive else 0)
            if end > open_event.cycle:
                spans.append(Span(
                    name=name, category=category,
                    component=event.component,
                    begin=open_event.cycle, end=end,
                    data=dict(open_event.data),
                ))
            open_event = None
    if open_event is not None and end_cycle > open_event.cycle:
        spans.append(Span(
            name=name, category=category, component=open_event.component,
            begin=open_event.cycle, end=end_cycle,
            data=dict(open_event.data),
        ))
    return spans


def _adopt(parents: List[Span], orphans: List[Span]) -> List[Span]:
    """Attach each orphan to the smallest containing parent; return
    the orphans left without one."""
    rest: List[Span] = []
    for orphan in orphans:
        best: Optional[Span] = None
        for parent in parents:
            if parent is orphan or not parent.contains(orphan):
                continue
            if best is None or best.contains(parent):
                best = parent
        if best is not None:
            best.children.append(orphan)
        else:
            rest.append(orphan)
    return rest


def reconstruct_spans(
    trace: Trace, end_cycle: Optional[int] = None
) -> SpanTrace:
    """Build the span forest of a finished (or aborted) run.

    ``end_cycle`` closes any span still open when the trace ends;
    it defaults to one past the last recorded event.

    Raises
    ------
    SimulationError
        If no trace exists (a hot-mode run records none) or the trace
        is truncated: dropped events would silently turn into wrong
        span durations, so -- like the fault history -- the
        reconstruction refuses to guess.
    """
    if trace is None:
        raise SimulationError(
            "span reconstruction requested but no trace was recorded: "
            "the run executed in hot mode (the fast schedule with "
            "trace=None compiles spans down to plain counters). "
            "Attach a Trace to the Simulator to reconstruct spans."
        )
    if trace.truncated:
        raise SimulationError(
            f"span reconstruction requested from a truncated trace "
            f"({trace.dropped} events dropped at capacity "
            f"{trace.capacity}); raise the capacity or use an "
            f"unbounded Trace()"
        )
    events = list(trace)
    if end_cycle is None:
        end_cycle = max((e.cycle for e in events), default=0) + 1

    by_component: Dict[str, List[TraceEvent]] = {}
    for event in events:
        by_component.setdefault(event.component, []).append(event)

    driver_ops: List[Span] = []
    state_spans: List[Span] = []
    instr_spans: List[Span] = []
    stall_spans: List[Span] = []
    bus_spans: List[Span] = []
    rac_spans: List[Span] = []
    dma_spans: List[Span] = []

    for component, comp_events in by_component.items():
        kinds = {e.event for e in comp_events}
        if "op.begin" in kinds:
            driver_ops.extend(_pair_driver_ops(comp_events, end_cycle))
        if "phase" in kinds:
            states, instrs, stalls = _controller_spans(
                comp_events, component, end_cycle
            )
            state_spans.extend(states)
            instr_spans.extend(instrs)
            stall_spans.extend(stalls)
        if "grant" in kinds:
            bus_spans.extend(_pair_bus(comp_events))
        if "start_op" in kinds:
            rac_spans.extend(_pair_simple(
                comp_events, "start_op", "end_op", "rac", "busy",
                end_cycle, end_inclusive=True,
            ))
        if "start" in kinds and "done" in kinds and "phase" not in kinds:
            dma_spans.extend(_pair_simple(
                comp_events, "start", "done", "dma", "copy",
                end_cycle, end_inclusive=True,
            ))

    # nest: stall and OCP-master bus transactions under FSM states,
    # states under instructions, DMA-master bus bursts under DMA copies
    def _ocp_prefix(name: str) -> str:
        return name.rsplit(".", 1)[0]

    ctrl_prefixes = {_ocp_prefix(s.component) for s in state_spans}
    ocp_bus, dma_bus, cpu_bus = [], [], []
    dma_components = {s.component for s in dma_spans}
    for span in bus_spans:
        master = str(span.data.get("master", ""))
        if _ocp_prefix(master) in ctrl_prefixes:
            ocp_bus.append(span)
        elif master in dma_components:
            dma_bus.append(span)
        else:
            cpu_bus.append(span)

    unplaced = _adopt(state_spans, stall_spans + ocp_bus)
    unplaced += _adopt(instr_spans, state_spans)
    unplaced += _adopt(dma_spans, dma_bus)
    # instructions, pre-instruction states (prefetch), cpu-side bus
    # transactions and anything still unadopted nest under a driver op
    unplaced = _adopt(driver_ops, instr_spans + cpu_bus + unplaced)
    roots = driver_ops + unplaced + rac_spans + dma_spans
    roots.sort(key=lambda s: (s.begin, s.end))
    return SpanTrace(roots, end_cycle)
