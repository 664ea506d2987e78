"""Fault-injecting wrapper components.

Each injector interposes on one integration seam of the OCP --
exactly the seams the paper argues make Ouessant pluggable:

* :class:`FaultySlave` wraps any :class:`~repro.bus.types.BusSlave`
  (normally main memory) and can flip bits in read data, answer with a
  bus ERROR response, or stretch an access with extra wait states;
* :class:`FaultyFIFO` is a drop-in :class:`~repro.rac.fifo.FIFO` whose
  push handshake can drop, duplicate or corrupt words;
* :class:`MicrocodeCorruptor` flips a bit of a program word in memory
  at a scheduled cycle (a soft error in the instruction store);
* :class:`ExecHang` suppresses the RAC's ``end_op`` during a cycle
  window (or forever), modelling a wedged accelerator.

Every injection is recorded in the simulation trace as a
``fault.<kind>`` event, so a run's complete fault history can be
diffed between replays.

Faulted runs take the kernel's fast schedule; each class docstring
names the pokes its faults rely on or issue.
"""

from __future__ import annotations

from typing import List, Optional

from ..bus.types import BusSlave
from ..mem.memory import Memory
from ..rac.base import RAC
from ..rac.fifo import FIFO
from ..sim.errors import BusFaultError
from ..sim.kernel import Component
from .plan import FaultEvent, FaultKind, FaultPlan, fifo_site_for


class FaultySlave(Component, BusSlave):
    """Bus-slave wrapper injecting data, error and timing faults.

    Occurrence counting is per *granted transfer* (the bus calls
    :meth:`latency_for` exactly once per grant, before the data moves),
    so event indices line up with the order transfers win arbitration
    regardless of how long each one takes.

    Every fault lands inside a bus data-path call, and the bus pokes
    the waiting master when the transfer completes.
    """

    def __init__(
        self,
        name: str,
        inner: BusSlave,
        plan: FaultPlan,
        site: str = "ram",
    ) -> None:
        Component.__init__(self, name)
        self.inner = inner
        self.site = site
        self._events = plan.at_site(site)
        self._access = -1

    def next_activity(self):
        # purely reactive: everything happens inside bus data-path
        # calls, never in a tick of its own
        return None

    # -- timing path --------------------------------------------------------
    def latency_for(self, offset: int, count: int) -> int:
        self._access += 1
        inner_latency_for = getattr(self.inner, "latency_for", None)
        if inner_latency_for is not None:
            latency = inner_latency_for(offset, count)
        else:
            latency = self.inner.access_latency
        for event in self._matching(FaultKind.STALL):
            latency += event.duration
            self.trace_event(
                "fault.stall", access=self._access, extra=event.duration
            )
        return latency

    @property
    def access_latency(self) -> int:  # pragma: no cover - latency_for wins
        return self.inner.access_latency

    def _matching(self, kind: FaultKind) -> List[FaultEvent]:
        return [
            e for e in self._events
            if e.kind is kind and e.index == self._access
        ]

    # -- data path --------------------------------------------------------
    def read_burst(self, offset: int, count: int) -> List[int]:
        for _ in self._matching(FaultKind.SLAVE_ERROR):
            self.trace_event(
                "fault.slave_error", access=self._access, offset=hex(offset)
            )
            raise BusFaultError(
                f"{self.site}: injected ERROR response on read "
                f"access {self._access}"
            )
        data = list(self.inner.read_burst(offset, count))
        for event in self._matching(FaultKind.BIT_FLIP):
            where = event.word % count
            data[where] ^= 1 << (event.bit % 32)
            self.trace_event(
                "fault.bit_flip", access=self._access, word=where,
                bit=event.bit % 32,
            )
        return data

    def write_burst(self, offset: int, values: List[int]) -> None:
        for _ in self._matching(FaultKind.SLAVE_ERROR):
            self.trace_event(
                "fault.slave_error", access=self._access, offset=hex(offset)
            )
            raise BusFaultError(
                f"{self.site}: injected ERROR response on write "
                f"access {self._access}"
            )
        values = list(values)
        for event in self._matching(FaultKind.BIT_FLIP):
            where = event.word % len(values)
            values[where] ^= 1 << (event.bit % 32)
            self.trace_event(
                "fault.bit_flip", access=self._access, word=where,
                bit=event.bit % 32,
            )
        self.inner.write_burst(offset, values)

    def read_word(self, offset: int) -> int:
        return self.inner.read_word(offset)

    def write_word(self, offset: int, value: int) -> None:
        self.inner.write_word(offset, value)


class FaultyFIFO(FIFO):
    """FIFO whose push handshake can drop, duplicate or corrupt words.

    Built by passing a ``fifo_factory`` to
    :class:`~repro.core.coprocessor.OuessantCoprocessor`; the plan site
    is derived from the fabric name (``fifo.in0``, ``fifo.out1``, ...)
    unless given explicitly.

    Faulted words take the staging path, whose commit wakes the FIFO's
    watchers.  :meth:`push_many` is overridden to walk the words one at
    a time, so every push (the controller's bursts and the RAC's emit
    alike) meets the plan at its own index; a streaming RAC keeps its
    emit into such a FIFO off the batch lane.
    """

    def __init__(
        self,
        name: str,
        plan: Optional[FaultPlan] = None,
        site: Optional[str] = None,
        **kwargs: int,
    ) -> None:
        super().__init__(name, **kwargs)
        self.site = site if site is not None else fifo_site_for(name)
        self._events = plan.at_site(self.site) if plan and self.site else []
        self._push_index = -1

    def push_many(self, values: List[int]) -> None:
        for value in values:
            self._push_one(value)

    def _push_one(self, value: int) -> None:
        self._push_index += 1
        stage = super().push_many
        for event in self._events:
            if event.index != self._push_index:
                continue
            if event.kind is FaultKind.DROP_WORD:
                self.stats.incr("faults.dropped")
                self.trace_event("fault.drop_word", index=self._push_index)
                return
            if event.kind is FaultKind.BIT_FLIP:
                value ^= 1 << (event.bit % self.width_push)
                self.stats.incr("faults.flipped")
                self.trace_event(
                    "fault.bit_flip", index=self._push_index,
                    bit=event.bit % self.width_push,
                )
            elif event.kind is FaultKind.DUP_WORD:
                stage([value])
                if self.can_push():
                    self.stats.incr("faults.duplicated")
                    self.trace_event(
                        "fault.dup_word", index=self._push_index
                    )
                    stage([value])
                return
        stage([value])


class MicrocodeCorruptor(Component):
    """Flips bits of program words in memory at scheduled cycles.

    Uses the memory backdoor (no bus cycles) -- this is a soft error in
    the instruction store, not bus traffic.  ``word`` in the event is
    the absolute byte address of the microcode word; ``index`` is the
    trigger cycle.  With prefetch enabled, corrupt before the program
    starts (the controller snapshots bank 0 in one burst).

    Pokes nothing: no quiescence claim depends on memory contents.
    """

    def __init__(
        self,
        name: str,
        memory: Memory,
        memory_base: int,
        plan: FaultPlan,
        site: str = "mc",
    ) -> None:
        super().__init__(name)
        self.memory = memory
        self.memory_base = memory_base
        self._pending = [
            e for e in plan.at_site(site)
            if e.kind is FaultKind.CORRUPT_MICROCODE
        ]

    def next_activity(self):
        if not self._pending:
            return None
        # sleep until the earliest scheduled corruption cycle
        return min(max(e.index, self.now) for e in self._pending)

    def tick(self) -> None:
        if not self._pending:
            return
        due = [e for e in self._pending if e.index <= self.now]
        for event in due:
            self._pending.remove(event)
            offset = event.word - self.memory_base
            word = self.memory.read_word(offset)
            self.memory.write_word(offset, word ^ (1 << (event.bit % 32)))
            self.trace_event(
                "fault.corrupt_microcode",
                address=hex(event.word),
                bit=event.bit % 32,
            )


class ExecHang(Component):
    """Suppresses a RAC's ``end_op`` during a cycle window.

    ``index`` is the window's first cycle, ``duration`` its length in
    cycles (0 = hang forever).  A suppressed completion is re-asserted
    when the window closes, so finite hangs are purely a timing fault;
    an infinite hang is what the controller watchdog exists for.

    Ticks through an open window, eating a completion on the cycle the
    RAC raises it (a poke from the last tick of a batch slab would land
    a cycle late), and calls ``rac.wake_watchers()`` whenever it clears
    or re-asserts ``end_op``, poking the controller.
    """

    def __init__(
        self,
        name: str,
        rac: RAC,
        plan: FaultPlan,
        site: str = "rac",
    ) -> None:
        super().__init__(name)
        self.rac = rac
        self._events = [
            e for e in plan.at_site(site) if e.kind is FaultKind.HANG_EXEC
        ]
        self._suppressed = False
        self._announced: set = set()

    def _open_window(self) -> Optional[FaultEvent]:
        now = self.now
        for event in self._events:
            if event.index <= now and (
                event.duration == 0 or now < event.index + event.duration
            ):
                return event
        return None

    def next_activity(self):
        # tick through an open window and on the cycle that re-asserts
        # a suppressed end_op; otherwise sleep until a window opens
        if self._suppressed or self._open_window() is not None:
            return self.now
        return min((e.index for e in self._events if e.index > self.now),
                   default=None)

    def tick(self) -> None:
        event = self._open_window()
        if event is not None:
            if id(event) not in self._announced:
                self._announced.add(id(event))
                self.trace_event(
                    "fault.hang_exec", duration=event.duration or "forever"
                )
            if self.rac.end_op:
                self._suppressed = True
                self.rac.end_op = False
                self.rac.wake_watchers()
        elif self._suppressed:
            self._suppressed = False
            self.rac.end_op = True
            self.rac.wake_watchers()
