"""Bus arbitration policies.

The bus keeps a queue of pending :class:`~repro.bus.types.BusTransfer`
objects; whenever it goes idle it asks its arbiter to pick the next one.
Two classic policies are provided -- fixed priority (the AMBA2 default
used in the paper's Leon3 system) and round robin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .types import BusTransfer


class Arbiter:
    """Arbitration policy interface."""

    name = "abstract"

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        """Choose one of the pending transfers (list is non-empty)."""
        raise NotImplementedError


class FixedPriorityArbiter(Arbiter):
    """Lowest ``priority`` value wins; ties broken by submission order."""

    name = "fixed-priority"

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        if len(pending) == 1:
            return pending[0]
        return min(
            pending,
            key=lambda t: (t.request.priority, t.issue_cycle),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<FixedPriorityArbiter>"


class RoundRobinArbiter(Arbiter):
    """Rotate fairness among master names.

    The master that was granted most recently becomes the lowest
    priority for the next grant.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._last_grant: Optional[str] = None
        self._order: List[str] = []

    def _rank(self, master: str) -> int:
        if master not in self._order:
            self._order.append(master)
        rank = self._order.index(master)
        if self._last_grant is not None and self._last_grant in self._order:
            pivot = self._order.index(self._last_grant)
            rank = (rank - pivot - 1) % len(self._order)
        return rank

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        choice = min(
            pending,
            key=lambda t: (self._rank(t.request.master), t.issue_cycle),
        )
        self._last_grant = choice.request.master
        return choice

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoundRobinArbiter last={self._last_grant!r}>"
