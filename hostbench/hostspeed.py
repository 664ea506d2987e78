"""Host-speed reference: seconds on a nominal host.

The machines this benchmark runs on are shared: the simulator runs up
to twice as slow for seconds to minutes at a time while neighbours are
busy, which would swamp any bound a code change could be judged by.
While a measuring child runs timed code, a :class:`Sampler` therefore
runs a fixed reference loop once every :data:`PERIOD_S` of wall time,
from a ``SIGALRM`` handler in the same thread, so the samples fall
inside the very interval they correct.  Each timed interval is charged
its wall time minus the handler's time (the *net* time), scaled by the
host speed the samples measured: ``NOMINAL_REF_S`` over the loop's
mean duration.  The result is in *nominal seconds*: the time the work
would take on a host that runs the loop in :data:`NOMINAL_REF_S`.

The loop is a frozen miniature of the simulator's hot path -- slotted
components polled for their next activity and ticked through method
calls, list FIFOs, a dict, and reads and writes to a list-of-int RAM --
and runs no ``repro`` code, so a change under test cannot move it.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Any, List, Tuple

#: the reference loop's duration on the host the baseline was
#: recorded on (2-vCPU Xeon VM, Python 3.11); only a scale constant
NOMINAL_REF_S = 0.0009
#: wall time between two samples of a running :class:`Sampler`
PERIOD_S = 0.025

#: the reference RAM: a list of ints, like the simulator's memory model
_RAM: List[int] = [0] * (1 << 18)


class _Part:
    """A simulated component: a FIFO, a counter and a view of the RAM."""

    __slots__ = ("count", "fifo", "ram")

    def __init__(self, ram: List[int]) -> None:
        self.count = 0
        self.fifo: List[int] = []
        self.ram = ram

    def next_activity(self, cycle: int) -> int:
        return cycle + (1 if self.fifo else 4)

    def tick(self, cycle: int) -> int:
        if cycle & 3 == 0:
            self.fifo.append(cycle)
        elif self.fifo:
            value = self.fifo.pop()
            self.count += value
            address = (value * 2654435761) & (len(self.ram) - 1)
            self.ram[address] = self.ram[address ^ 0x1555] + 1
        return self.count


def _loop(cycles: int = 1500) -> int:
    parts = [_Part(_RAM) for _ in range(8)]
    table: dict = {}
    for cycle in range(cycles):
        for part in parts:
            if part.next_activity(cycle) <= cycle + 1:
                table[cycle & 63] = part.tick(cycle)
    return len(table)


def speed(spent: float, loops: int) -> float:
    """Host speed relative to the nominal host from ``loops`` reference
    loops that took ``spent`` seconds; with no loops, samples one now."""
    if not loops:
        start = perf_counter()
        _loop()
        spent, loops = perf_counter() - start, 1
    return NOMINAL_REF_S * loops / spent


class Sampler:
    """Reference samples inside timed intervals, as a context manager.

    Between :meth:`begin` and :meth:`end` the loop runs once per
    :data:`PERIOD_S`; :meth:`end` returns the seconds those runs took
    and their number.
    """

    def __init__(self) -> None:
        self._active = False
        self._spent = 0.0
        self._loops = 0
        self._previous: Any = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum: int, frame: Any) -> None:
        if self._active:
            start = perf_counter()
            _loop()
            self._spent += perf_counter() - start
            self._loops += 1

    def begin(self) -> None:
        self._spent, self._loops = 0.0, 0
        self._active = True

    def end(self) -> Tuple[float, int]:
        self._active = False
        return self._spent, self._loops
