"""Tracing, statistics and VCD export.

Three small facilities used across the simulator:

* :class:`Trace` -- an append-only event log ``(cycle, component, event,
  data)``.  Cheap enough to leave on in tests; benchmarks run without it.
* :class:`Stats` -- named monotonically increasing counters with a
  pretty report, used by the bus / controller / drivers to account for
  cycles spent in each activity.
* :class:`VCDWriter` -- minimal value-change-dump writer so waveforms of
  selected scalar signals can be inspected in GTKWave.  This mirrors how
  the original project was debugged in RTL simulation.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    component: str
    event: str
    data: Dict[str, object]

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.cycle:>8}] {self.component}: {self.event} {payload}".rstrip()


class Trace:
    """Append-only event log with simple query helpers.

    A bounded trace (``capacity=N``) stops storing events once full, but
    it never *silently* loses history: every rejected event bumps
    :attr:`dropped`, and :attr:`truncated` tells consumers the log they
    are about to analyse is incomplete.  Anything that treats the trace
    as a record (span reconstruction, fault-history diffing) must check it.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._events: List[TraceEvent] = []
        self._capacity = capacity
        self.dropped = 0

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def truncated(self) -> bool:
        """True if at least one event was rejected for lack of space."""
        return self.dropped > 0

    def record(
        self, cycle: int, component: str, event: str, data: Dict[str, object]
    ) -> None:
        if self._capacity is not None and len(self._events) >= self._capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(cycle, component, event, dict(data)))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def events(
        self,
        component: Optional[str] = None,
        event: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events filtered by component and/or event name."""
        out = self._events
        if component is not None:
            out = [e for e in out if e.component == component]
        if event is not None:
            out = [e for e in out if e.event == event]
        return list(out)

    def with_prefix(self, prefix: str) -> List[TraceEvent]:
        """Events whose name starts with ``prefix``.

        Fault injectors emit ``fault.<kind>`` events; recovery shows up
        as ``trap`` / ``error`` / ``abort`` / ``retry`` / ``degraded``.
        ``with_prefix("fault.")`` therefore yields a run's complete
        injected-fault history, which replays can be diffed against.
        """
        return [e for e in self._events if e.event.startswith(prefix)]

    def first(self, component: str, event: str) -> Optional[TraceEvent]:
        for entry in self._events:
            if entry.component == component and entry.event == event:
                return entry
        return None

    def dump(self) -> str:
        return "\n".join(str(e) for e in self._events)


def elapsed(since: Optional[int], now: int) -> int:
    """Cycles an interval that began at cycle ``since`` holds at ``now``.

    Cycle statistics are charged at the transition that ends their
    interval, from the cycle it began; a live read adds the open
    interval through this helper.  It covers the cycles ``since`` to
    ``now - 1``, exactly those the naive schedule has ticked before
    cycle ``now``.  A stamp taken inside a tick may name the next
    cycle, which reads as 0 until that cycle begins; ``None`` means no
    interval is open.
    """
    if since is None or now <= since:
        return 0
    return now - since


class Stats:
    """Named counters with categories.

    ``Stats`` instances support ``+`` so per-component statistics can be
    merged into a system-level report.  Counters come in two flavours:
    monotonically increasing sums (:meth:`incr`) and gauge-style maxima
    (:meth:`maximize`).  Merging sums the former and takes the maximum
    of the latter -- summing two FIFOs' ``max_occupancy_atoms`` would
    fabricate an occupancy neither ever reached.

    A sum may also hold one open cycle interval (:meth:`start` /
    :meth:`stop`): a component charges the cycles it spends in a state
    when it leaves the state, and publishes the copy :meth:`at` its
    clock, which counts the intervals still open.

    A hook the simulation kernel calls per event counts through the
    public mapping, ``stats.counts[name] += amount``, which creates a
    key exactly when :meth:`incr` would and costs no Python call.  Such
    a hook opens and closes intervals through the public ``open`` map
    the same way: ``open.setdefault(name, at)`` opens one, and closing
    one pops its start and adds ``at - since`` only when positive.
    """

    def __init__(self) -> None:
        #: the counters by name; a missing one reads 0
        self.counts: Counter = Counter()
        self._gauges: set = set()
        #: cycle intervals still open, by counter: the cycle each began
        self.open: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def start(self, name: str, at: int) -> None:
        """Open a cycle interval of ``name`` at cycle ``at`` (kept if
        one is open already); :meth:`at` counts it until :meth:`stop`."""
        self.open.setdefault(name, at)

    def stop(self, name: str, at: int) -> int:
        """Close ``name``'s open interval at cycle ``at``: charge its
        cycles and return them (0 when none was open)."""
        since = self.open.pop(name, None)
        if since is None or at <= since:
            return 0
        cycles = at - since
        self.counts[name] += cycles
        return cycles

    def at(self, now: int) -> "Stats":
        """A copy as read at cycle ``now``: every open interval is
        charged up to ``now`` and closed."""
        live = Stats()
        live._gauges = set(self._gauges)
        live.counts = self.counts.copy()
        for name, since in self.open.items():
            cycles = elapsed(since, now)
            if cycles:
                live.counts[name] += cycles
        return live

    def maximize(self, name: str, value: int) -> None:
        """Keep the running maximum of a gauge-style statistic."""
        self._gauges.add(name)
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def items(self) -> Iterable[Tuple[str, int]]:
        return sorted(self.counts.items())

    def is_gauge(self, name: str) -> bool:
        """True if ``name`` was ever updated through :meth:`maximize`."""
        return name in self._gauges

    def __add__(self, other: "Stats") -> "Stats":
        merged = Stats()
        merged._gauges = self._gauges | other._gauges
        merged.counts = self.counts + other.counts
        for name in merged._gauges:
            merged.counts[name] = max(
                self.counts.get(name, 0), other.counts.get(name, 0)
            )
        return merged

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def report(self, title: str = "stats") -> str:
        lines = [title]
        width = max((len(k) for k in self.counts), default=0)
        for key, value in self.items():
            lines.append(f"  {key:<{width}} {value}")
        return "\n".join(lines)


@dataclass
class _VCDSignal:
    name: str
    width: int
    ident: str
    last: Optional[int] = None


class VCDWriter:
    """Minimal VCD (value change dump) writer.

    Usage::

        vcd = VCDWriter(timescale="20ns")      # 50 MHz clock
        vcd.register("ocp.start", width=1)
        ...
        vcd.change(cycle, "ocp.start", 1)
        text = vcd.render()
    """

    _IDENT_ALPHABET = "".join(chr(c) for c in range(33, 127))

    def __init__(self, timescale: str = "1ns") -> None:
        self._timescale = timescale
        self._signals: Dict[str, _VCDSignal] = {}
        self._changes: List[Tuple[int, str, int]] = []

    def register(self, name: str, width: int = 1) -> None:
        if name in self._signals:
            return
        ident = self._make_ident(len(self._signals))
        self._signals[name] = _VCDSignal(name, width, ident)

    def _make_ident(self, index: int) -> str:
        alphabet = self._IDENT_ALPHABET
        ident = ""
        index += 1
        while index:
            index, rem = divmod(index - 1, len(alphabet))
            ident = alphabet[rem] + ident
        return ident

    def change(self, cycle: int, name: str, value: int) -> None:
        if name not in self._signals:
            self.register(name, width=max(1, int(value).bit_length()))
        sig = self._signals[name]
        # widen the declaration when a later value needs more bits; the
        # header is rendered last, so every change stays in range
        sig.width = max(sig.width, int(value).bit_length())
        if sig.last == value:
            return
        sig.last = value
        self._changes.append((cycle, name, value))

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"$timescale {self._timescale} $end\n")
        out.write("$scope module repro $end\n")
        for sig in self._signals.values():
            kind = "wire"
            out.write(
                f"$var {kind} {sig.width} {sig.ident} "
                f"{sig.name.replace('.', '_')} $end\n"
            )
        out.write("$upscope $end\n$enddefinitions $end\n")
        current: Optional[int] = None
        for cycle, name, value in sorted(self._changes, key=lambda c: c[0]):
            if cycle != current:
                out.write(f"#{cycle}\n")
                current = cycle
            sig = self._signals[name]
            if sig.width == 1:
                out.write(f"{value & 1}{sig.ident}\n")
            else:
                out.write(f"b{value:b} {sig.ident}\n")
        return out.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.render())
