"""The system bus component.

:class:`SystemBus` is the spine of the simulated SoC: every master
(CPU, Ouessant master engine, DMA peripheral) submits
:class:`~repro.bus.types.BusRequest` objects, the arbiter picks among
pending transfers whenever the bus is idle, and the selected protocol's
timing model decides how many cycles the transfer occupies.

Data movement happens atomically at completion time -- the words of a
read burst appear in the transfer handle on the cycle the burst would
have delivered its last beat on real hardware.  This keeps the model
simple while preserving end-to-end cycle counts (what the paper
measures).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.errors import BusError, BusFaultError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from .arbiter import Arbiter, FixedPriorityArbiter
from .memmap import MemoryMap, Region
from .protocol import AHB, BusProtocol
from .types import AccessKind, BusRequest, BusSlave, BusTransfer


class SystemBus(Component):
    """Cycle-accounted shared bus with pluggable protocol and arbiter.

    Parameters
    ----------
    protocol:
        Timing model (default: AMBA2 AHB, as in the paper's Leon3 SoC).
    arbiter:
        Arbitration policy (default: fixed priority, the AMBA2 scheme).
    """

    def __init__(
        self,
        name: str = "bus",
        protocol: BusProtocol = AHB,
        arbiter: Optional[Arbiter] = None,
    ) -> None:
        super().__init__(name)
        self.protocol = protocol
        self.arbiter = arbiter or FixedPriorityArbiter()
        self.memmap = MemoryMap()
        self._stats = Stats()
        self._pending: List[BusTransfer] = []
        self._current: Optional[BusTransfer] = None
        self._busy_until = 0

    # -- topology ------------------------------------------------------
    def attach_slave(
        self, slave_name: str, base: int, size: int, slave: BusSlave
    ) -> Region:
        """Map a slave into the address space."""
        return self.memmap.add(slave_name, base, size, slave)

    # -- master API ------------------------------------------------------
    def submit(
        self, request: BusRequest, waiter: Optional[Component] = None
    ) -> BusTransfer:
        """Queue a transaction; returns its completion handle.

        The address span is validated eagerly so that software bugs
        (unmapped banks, bursts running off the end of a region) surface
        at the submitting instruction, like a bus error would.  The
        decode result is cached on the handle so the grant and the data
        movement skip the memory-map walk.  ``waiter``, if given, is
        poked when the transfer completes (fast schedule).
        """
        route = self.memmap.lookup(request.address, span_bytes=4 * request.burst)
        transfer = BusTransfer(
            request=request, issue_cycle=self.now, waiter=waiter, route=route
        )
        self._pending.append(transfer)
        self._stats.incr("requests")
        self._stats.incr(f"requests.{request.master}")
        # a new request makes the bus due (grant) this very cycle if
        # idle -- drop its cached quiescence claim
        self.poke()
        return transfer

    # -- zero-time debug access -------------------------------------------
    def read_now(self, address: int, count: int = 1) -> List[int]:
        """Backdoor read (no cycles charged).  For tests and loaders."""
        region, offset = self.memmap.lookup(address, span_bytes=4 * count)
        return region.slave.read_burst(offset, count)

    def write_now(self, address: int, values: List[int]) -> None:
        """Backdoor write (no cycles charged).  For tests and loaders."""
        region, offset = self.memmap.lookup(address, span_bytes=4 * len(values))
        region.slave.write_burst(offset, list(values))

    # -- clocked behaviour --------------------------------------------------
    def reset(self) -> None:
        self._pending.clear()
        self._current = None
        self._busy_until = 0
        self._stats = Stats()

    def tick(self) -> None:
        if self._current is not None and self.now >= self._busy_until:
            self._finish(self._current)
            self._current = None
        if self._current is None and self._pending:
            self._grant(self.arbiter.pick(self._pending))

    def next_activity(self):
        # an in-flight transfer occupies the bus until _busy_until; the
        # ticks in between are no-ops, so the completion cycle is the
        # next real work
        if self._current is not None:
            return max(self._busy_until, self.now)
        if self._pending:
            return self.now  # a grant is due this cycle
        return None  # idle until a master submits a request

    # -- internals -----------------------------------------------------------
    def _grant(self, transfer: BusTransfer) -> None:
        self._pending.remove(transfer)
        request = transfer.request
        if transfer.route is not None:
            region, offset = transfer.route
        else:
            region, offset = self.memmap.lookup(
                request.address, span_bytes=4 * request.burst
            )
        latency_for = getattr(region.slave, "latency_for", None)
        if latency_for is not None:
            # address-aware slaves (e.g. SDRAM open-row model) charge
            # a latency that depends on where the burst lands
            latency = latency_for(offset, request.burst)
        else:
            latency = region.slave.access_latency
        occupancy = self.protocol.transfer_cycles(request.burst, latency)
        transfer.grant_cycle = self.now
        self._busy_until = self.now + occupancy
        self._current = transfer
        # the bus is busy from the next cycle through the finishing one
        self._stats.start("busy_cycles", self.now + 1)
        self._stats.incr("grants")
        self._stats.incr("beats", request.burst)
        self._stats.incr(f"beats.{request.master}", request.burst)
        self.trace_event(
            "grant",
            master=request.master,
            kind=request.kind.value,
            address=hex(request.address),
            burst=request.burst,
            occupancy=occupancy,
        )

    def _finish(self, transfer: BusTransfer) -> None:
        self._stats.stop("busy_cycles", self.now + 1)
        request = transfer.request
        if transfer.route is not None:
            region, offset = transfer.route
        else:
            region, offset = self.memmap.lookup(
                request.address, span_bytes=4 * request.burst
            )
        # the completion rule: the waiting master is unblocked, and a
        # clocked slave (a register window) may change state its own
        # claim or its watchers' claims depend on -- re-poll exactly
        # those.  A raw submit (no waiter) from outside the clock is
        # awaited by a run_until predicate, which needs no poke.
        waiter = transfer.waiter
        if waiter is not None:
            waiter.poke()
        slave = region.slave
        if isinstance(slave, Component):
            slave.wake_watchers()
        try:
            if request.kind is AccessKind.READ:
                transfer.data = region.slave.read_burst(offset, request.burst)
                if len(transfer.data) != request.burst:
                    raise BusError(
                        f"slave {region.name!r} returned "
                        f"{len(transfer.data)} words for a "
                        f"{request.burst}-beat read"
                    )
            else:
                region.slave.write_burst(offset, list(request.data or []))
        except BusFaultError as exc:
            # ERROR response: the transfer terminates, the master must
            # check the handle -- the rest of the SoC keeps running.
            transfer.error = True
            transfer.error_reason = str(exc)
            if request.kind is AccessKind.READ:
                transfer.data = [0] * request.burst
            transfer.complete(self.now)
            self._stats.incr("slave_errors")
            self.trace_event(
                "slave_error",
                master=request.master,
                kind=request.kind.value,
                address=hex(request.address),
                reason=str(exc),
            )
            return
        transfer.complete(self.now)
        self.trace_event(
            "complete",
            master=request.master,
            kind=request.kind.value,
            address=hex(request.address),
            latency=transfer.latency,
        )

    # -- introspection ----------------------------------------------------
    @property
    def stats(self) -> Stats:
        """Statistics as of now, the cycle intervals still open
        included."""
        return self._stats.at(self.now)

    @property
    def idle(self) -> bool:
        return self._current is None and not self._pending

    @property
    def pending_count(self) -> int:
        return len(self._pending) + (1 if self._current else 0)

    def utilization(self) -> float:
        """Fraction of elapsed cycles the bus was occupied."""
        if self.now == 0:
            return 0.0
        return self.stats.get("busy_cycles") / self.now
