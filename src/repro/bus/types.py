"""Bus transaction types shared by masters, slaves and the bus itself.

The reproduction models the system interconnect at *transaction level
with cycle accounting*: a master submits a transaction (single word or
burst) and gets its :class:`BusTransfer` handle; the bus arbitrates,
charges the protocol-defined number of cycles, performs the data
movement against the selected slave, and completes the handle.  This
is the standard fidelity used by architecture simulators and is
sufficient to reproduce the paper's transfer-efficiency numbers (cycles
per word, burst behaviour) without modelling individual bus wires.
"""

from __future__ import annotations

import enum
from typing import List, Optional


class AccessKind(enum.Enum):
    """Direction of a bus transaction, as seen from the master."""

    READ = "read"
    WRITE = "write"


class BusTransfer:
    """One bus transaction: the master's request and its completion.

    Made only by :meth:`SystemBus.submit`, which checks the request and
    returns the handle.  ``address`` is a byte address, word aligned;
    the transaction moves ``burst`` words.  ``priority`` only matters
    under the fixed-priority arbiter (lower value wins).

    Attributes
    ----------
    done:
        True once the transaction has fully completed on the bus.
    data:
        For writes, the ``burst`` words to write (given at submit); for
        reads, ``None`` until completion, then the words read.
    issue_cycle / grant_cycle / complete_cycle:
        Cycle accounting for latency measurements.
    error:
        The slave terminated the transfer with an ERROR response
        (AMBA-style).  The transfer still counts as ``done`` -- masters
        must check ``error`` before trusting ``data``.
    waiter:
        Component blocked on this transfer; the bus pokes it (wake-cache
        invalidation for the fast schedule) when the transfer finishes.
    route:
        Decode result cached at submit, so the grant and the data
        movement skip the memory-map walk: ``(region, byte offset of
        address in the region)``.

    Handles compare by identity: two transfers with equal fields are
    still two bus transactions.
    """

    __slots__ = (
        "master", "kind", "address", "burst", "data", "priority",
        "issue_cycle", "done", "grant_cycle", "complete_cycle", "error",
        "error_reason", "waiter", "route",
    )

    def __init__(
        self,
        master: str,
        kind: AccessKind,
        address: int,
        burst: int,
        data: Optional[List[int]],
        priority: int,
        issue_cycle: int,
        waiter: Optional[object] = None,
        route: Optional[tuple] = None,
    ) -> None:
        self.master = master
        self.kind = kind
        self.address = address
        self.burst = burst
        self.data = data
        self.priority = priority
        self.issue_cycle = issue_cycle
        self.done = False
        self.grant_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.error = False
        self.error_reason: Optional[str] = None
        self.waiter = waiter
        self.route = route

    @property
    def latency(self) -> int:
        """Cycles from submission to completion (valid once done)."""
        if self.complete_cycle is None:
            raise RuntimeError("transfer not complete")
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return (f"<BusTransfer {self.master!r} {self.kind.value} "
                f"{self.address:#x} burst={self.burst} {state}>")


class BusSlave:
    """Interface every bus-attached peripheral implements.

    Addresses passed to the access methods are *byte offsets within the
    slave's mapped region* (the bus performs the subtraction), always
    word aligned.  ``access_latency`` is the extra wait-state count the
    slave inserts on the first beat of a burst.
    """

    access_latency: int = 0

    def read_word(self, offset: int) -> int:
        raise NotImplementedError

    def write_word(self, offset: int, value: int) -> None:
        raise NotImplementedError

    def read_burst(self, offset: int, count: int) -> List[int]:
        return [self.read_word(offset + 4 * i) for i in range(count)]

    def write_burst(self, offset: int, values: List[int]) -> None:
        for i, value in enumerate(values):
            self.write_word(offset + 4 * i, value)
