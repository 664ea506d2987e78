"""Interrupt lines.

The Ouessant interface raises a GPP interrupt when the ``IE`` control
bit is set and the program executes ``eop`` (Figure 3's "GPP interrupt"
signal).  :class:`IRQLine` models a level-sensitive line: the source
raises it, the handler acknowledges it.  :class:`IRQController` fans
multiple lines into the CPU with fixed priorities.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class IRQLine:
    """One level-sensitive interrupt line."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: the line's level (True: asserted); a field, because a driver
        #: waiting on the line reads it before every simulated event
        self.pending = False
        self.raise_count = 0
        #: components whose quiescence claim depends on this line
        #: (CPU in WFI, scheduler slots); poked on every edge
        self._watchers: List[object] = []

    def watch(self, component: object) -> None:
        """Poke ``component`` (wake-cache invalidation) on line edges."""
        if component not in self._watchers:
            self._watchers.append(component)

    def _notify(self) -> None:
        for watcher in self._watchers:
            watcher.poke()

    def assert_(self) -> None:
        """Drive the line high (idempotent)."""
        if not self.pending:
            self.raise_count += 1
        self.pending = True
        self._notify()

    def clear(self) -> None:
        """Acknowledge: drive the line low."""
        self.pending = False
        self._notify()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self.pending else "idle"
        return f"<IRQLine {self.name} {state}>"


class IRQController:
    """Fixed-priority interrupt controller (smaller index wins)."""

    def __init__(self) -> None:
        self._lines: List[IRQLine] = []
        self._watchers: List[object] = []

    def watch(self, component: object) -> None:
        """Watch every line, present and future (e.g. a WFI'd CPU)."""
        if component not in self._watchers:
            self._watchers.append(component)
        for line in self._lines:
            line.watch(component)

    def register(self, line: IRQLine) -> int:
        """Attach a line; returns its interrupt number."""
        self._lines.append(line)
        for watcher in self._watchers:
            line.watch(watcher)
        return len(self._lines) - 1

    def line(self, number: int) -> IRQLine:
        return self._lines[number]

    @property
    def lines(self) -> List[IRQLine]:
        return list(self._lines)

    def highest_pending(self) -> Optional[int]:
        """Number of the highest-priority pending line, or ``None``."""
        for number, line in enumerate(self._lines):
            if line.pending:
                return number
        return None

    def any_pending(self) -> bool:
        return self.highest_pending() is not None

    def snapshot(self) -> Dict[str, bool]:
        return {line.name: line.pending for line in self._lines}
