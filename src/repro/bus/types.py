"""Bus transaction types shared by masters, slaves and the bus itself.

The reproduction models the system interconnect at *transaction level
with cycle accounting*: a master submits a :class:`BusRequest` (single
word or burst), the bus arbitrates, charges the protocol-defined number
of cycles, performs the data movement against the selected slave, and
completes the associated :class:`BusTransfer` handle.  This is the
standard fidelity used by architecture simulators and is sufficient to
reproduce the paper's transfer-efficiency numbers (cycles per word,
burst behaviour) without modelling individual bus wires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional


class AccessKind(enum.Enum):
    """Direction of a bus transaction, as seen from the master."""

    READ = "read"
    WRITE = "write"


@dataclass
class BusRequest:
    """A master's wish: move ``burst`` words starting at ``address``.

    ``address`` is a byte address and must be word aligned.  For writes,
    ``data`` must hold exactly ``burst`` 32-bit words.  ``priority`` only
    matters under the fixed-priority arbiter (lower value wins).
    """

    master: str
    kind: AccessKind
    address: int
    burst: int = 1
    data: Optional[List[int]] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.address % 4 != 0:
            raise ValueError(f"unaligned bus address {self.address:#x}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.kind is AccessKind.WRITE:
            if self.data is None or len(self.data) != self.burst:
                raise ValueError(
                    "write request needs exactly `burst` data words"
                )
        elif self.data is not None:
            raise ValueError("read request must not carry data")


@dataclass
class BusTransfer:
    """Completion handle returned by :meth:`SystemBus.submit`.

    Attributes
    ----------
    done:
        True once the transaction has fully completed on the bus.
    data:
        For reads, the words read (filled at completion).
    issue_cycle / complete_cycle:
        Cycle accounting for latency measurements.
    error:
        The slave terminated the transfer with an ERROR response
        (AMBA-style).  The transfer still counts as ``done`` -- masters
        must check ``error`` before trusting ``data``.
    """

    request: BusRequest
    issue_cycle: int
    done: bool = False
    data: List[int] = field(default_factory=list)
    grant_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    on_complete: Optional[Callable[["BusTransfer"], None]] = None
    #: the slave answered with an ERROR response; ``data`` is garbage
    error: bool = False
    error_reason: Optional[str] = None
    #: component blocked on this transfer; the bus pokes it (wake-cache
    #: invalidation for the fast schedule) when the transfer finishes
    waiter: Optional[object] = None
    #: decode result cached at submit so grant/data beats skip the
    #: memory-map walk: (slave, byte offset of ``address`` in its region)
    route: Optional[tuple] = None

    @property
    def latency(self) -> int:
        """Cycles from submission to completion (valid once done)."""
        if self.complete_cycle is None:
            raise RuntimeError("transfer not complete")
        return self.complete_cycle - self.issue_cycle

    def complete(self, cycle: int) -> None:
        self.done = True
        self.complete_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(self)


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
