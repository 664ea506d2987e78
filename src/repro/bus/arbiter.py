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
    #: whether :meth:`pick` updates the policy's state; a policy that
    #: keeps none is not asked about a sole pending request, which the
    #: bus grants directly
    stateful = True

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        """Choose one of the pending transfers (list is non-empty)."""
        raise NotImplementedError


class FixedPriorityArbiter(Arbiter):
    """Lowest ``priority`` value wins; ties broken by submission order."""

    name = "fixed-priority"
    stateful = False

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        return min(
            pending,
            key=lambda t: (t.priority, t.issue_cycle),
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
        rank = self._order.index(master)
        if self._last_grant is not None:
            pivot = self._order.index(self._last_grant)
            rank = (rank - pivot - 1) % len(self._order)
        return rank

    def pick(self, pending: List[BusTransfer]) -> BusTransfer:
        # register every unseen master before ranking any of them, so
        # all ranks of one pick rotate over the same list
        order = self._order
        for transfer in pending:
            if transfer.master not in order:
                order.append(transfer.master)
        choice = min(
            pending,
            key=lambda t: (self._rank(t.master), t.issue_cycle),
        )
        self._last_grant = choice.master
        return choice

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RoundRobinArbiter last={self._last_grant!r}>"
