"""The system bus component.

:class:`SystemBus` is the spine of the simulated SoC: every master
(CPU, Ouessant master engine, DMA peripheral) submits transactions,
each one a :class:`~repro.bus.types.BusTransfer` handle, the arbiter
picks among pending transfers whenever the bus is idle, and the
selected protocol's timing model decides how many cycles the transfer
occupies.

Data movement happens atomically at completion time -- the words of a
read burst appear in the transfer handle on the cycle the burst would
have delivered its last beat on real hardware.  This keeps the model
simple while preserving end-to-end cycle counts (what the paper
measures).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.errors import BusError, BusFaultError
from ..sim.kernel import MAX_WAIT_CYCLES, Component, inlined_claim
from ..sim.tracing import Stats, elapsed
from .arbiter import Arbiter, FixedPriorityArbiter
from .memmap import MemoryMap, Region
from .protocol import AHB, BusProtocol
from .types import AccessKind, BusSlave, BusTransfer

#: entries the occupancy memo holds before it starts afresh; a system
#: uses a handful of (burst, latency) pairs
OCCUPANCY_MEMO_SIZE = 1024


def _failed(transfer: BusTransfer, what: str) -> BusError:
    """The error of a blocking access answered with an ERROR response."""
    return BusError(
        f"{what} by {transfer.master!r} at {transfer.address:#x} failed: "
        f"{transfer.error_reason}"
    )


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
        #: the granted transfer; the bus is busy from the cycle after
        #: its grant through the cycle it finishes (``busy_cycles``)
        self._current: Optional[BusTransfer] = None
        self._busy_until = 0
        #: per master, its ``requests.<master>`` and ``beats.<master>``
        #: statistic keys (formatted once, not per transfer)
        self._master_keys: Dict[str, Tuple[str, str]] = {}

    @property
    def protocol(self) -> BusProtocol:
        """The timing model; assigning one starts a fresh occupancy
        memo, so the memo always answers for the current protocol."""
        return self._protocol

    @protocol.setter
    def protocol(self, protocol: BusProtocol) -> None:
        self._protocol = protocol
        #: ``protocol.transfer_cycles(burst, latency)`` by ``(burst,
        #: latency)``: exact, because a protocol is frozen and the
        #: formula reads nothing else
        self._occupancy: Dict[Tuple[int, int], int] = {}

    # -- topology ------------------------------------------------------
    def attach_slave(
        self, slave_name: str, base: int, size: int, slave: BusSlave
    ) -> Region:
        """Map a slave into the address space."""
        return self.memmap.add(slave_name, base, size, slave)

    # -- master API ------------------------------------------------------
    def submit(
        self,
        master: str,
        kind: AccessKind,
        address: int,
        burst: int = 1,
        data: Optional[List[int]] = None,
        priority: int = 0,
        waiter: Optional[Component] = None,
    ) -> BusTransfer:
        """Queue a transaction of ``burst`` words; returns its handle.

        ``address`` is a byte address and must be word aligned.  A
        write carries exactly ``burst`` words in ``data``; a read
        carries none.  ``priority`` only matters under the
        fixed-priority arbiter (lower value wins).

        The address span is validated eagerly so that software bugs
        (unmapped banks, bursts running off the end of a region) surface
        at the submitting instruction, like a bus error would.  The
        decode result is cached on the handle so the grant and the data
        movement skip the memory-map walk.  ``waiter``, if given, is
        poked when the transfer completes (fast schedule).
        """
        if address % 4 != 0:
            raise ValueError(f"unaligned bus address {address:#x}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if kind is AccessKind.WRITE:
            if data is None or len(data) != burst:
                raise ValueError(
                    "write request needs exactly `burst` data words"
                )
        elif data is not None:
            raise ValueError("read request must not carry data")
        route = self.memmap.lookup(address, 4 * burst)
        transfer = BusTransfer(master, kind, address, burst, data, priority,
                               self.now, waiter, route)
        self._pending.append(transfer)
        counts = self._stats.counts
        counts["requests"] += 1
        keys = self._master_keys.get(master) or self._keys(master)
        counts[keys[0]] += 1
        # a new request makes the bus due (grant) this very cycle if
        # idle; its claim is inlined, never cached: drop its cluster's
        self._cluster._wake_valid = False
        return transfer

    def access(
        self,
        master: str,
        address: int,
        value: Optional[int] = None,
        what: str = "bus access",
    ) -> int:
        """One blocking single-beat access, for software that runs
        outside the clock (a driver, a test harness): reads the word at
        ``address``, or writes ``value`` there, and returns the word
        read or written.

        ``what`` names the wait in the
        :class:`~repro.sim.errors.DeadlockError` of a transfer that
        does not complete within the kernel's wait bound; an ERROR
        response raises :class:`BusError`.
        """
        if value is None:
            transfer = self.submit(master, AccessKind.READ, address)
        else:
            transfer = self.submit(master, AccessKind.WRITE, address,
                                   data=[value & 0xFFFFFFFF])
        self.sim.run_until(lambda: transfer.done, what=what)
        if transfer.error:
            raise _failed(transfer, what)
        return transfer.data[0]

    def poll(
        self,
        master: str,
        address: int,
        mask: int,
        what: str,
        max_cycles: int = MAX_WAIT_CYCLES,
    ) -> int:
        """The poll loop of software outside the clock: read ``address``
        until a word has a bit of ``mask`` set; returns the reads made.

        Each read is submitted in the cycle the one before completed,
        as a loop of :meth:`access` calls would, but all of them share
        one wait named ``what`` of at most ``max_cycles`` cycles.  An
        ERROR response raises :class:`BusError`, as in :meth:`access`.
        """
        transfer = self.submit(master, AccessKind.READ, address)
        reads = 1

        def found() -> bool:
            nonlocal transfer, reads
            if not transfer.done:
                return False
            if transfer.error:
                raise _failed(transfer, what)
            if transfer.data[0] & mask:
                return True
            transfer = self.submit(master, AccessKind.READ, address)
            reads += 1
            return False

        self.sim.run_until(found, max_cycles, what)
        return reads

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
        now = self.sim.cycle
        current = self._current
        if current is not None:
            if now < self._busy_until:
                return
            self._finish(current, now)
        if self._pending:
            self._grant(now)

    #: an in-flight transfer occupies the bus until ``_busy_until``; the
    #: ticks in between are no-ops, so the completion cycle is the next
    #: real work.  A pending request makes a grant due this cycle;
    #: otherwise the bus is idle until a master submits one.  The walk
    #: inlines this claim, so ``submit`` drops the claim of the bus's
    #: cluster (a tick drops it in the walk)
    next_activity = inlined_claim(
        "({c}._busy_until if {c}._busy_until > {now} else {now}) "
        "if {c}._current is not None else {now} if {c}._pending else None")

    # -- internals -----------------------------------------------------------
    def _keys(self, master: str) -> Tuple[str, str]:
        """Format and keep ``master``'s statistic keys (its first
        request; later ones read ``_master_keys``)."""
        keys = (f"requests.{master}", f"beats.{master}")
        self._master_keys[master] = keys
        return keys

    def _occupy(self, key: Tuple[int, int]) -> int:
        """A miss of the occupancy memo: compute and keep ``key``'s
        occupancy (the memo starts afresh when it is full)."""
        memo = self._occupancy
        if len(memo) >= OCCUPANCY_MEMO_SIZE:
            memo.clear()
        occupancy = memo[key] = self._protocol.transfer_cycles(*key)
        return occupancy

    def _grant(self, now: int) -> None:
        pending = self._pending
        if len(pending) == 1 and not self.arbiter.stateful:
            transfer = pending.pop()
        else:
            transfer = self.arbiter.pick(pending)
            pending.remove(transfer)
        burst = transfer.burst
        region, offset = transfer.route
        latency_for = region.latency_for
        if latency_for is not None:
            # address-aware slaves (e.g. SDRAM open-row model) charge
            # a latency that depends on where the burst lands
            key = (burst, latency_for(offset, burst))
        else:
            key = (burst, region.slave.access_latency)
        occupancy = self._occupancy.get(key) or self._occupy(key)
        transfer.grant_cycle = now
        self._busy_until = now + occupancy
        self._current = transfer
        counts = self._stats.counts
        counts["grants"] += 1
        counts["beats"] += burst
        counts[self._master_keys[transfer.master][1]] += burst
        # named in deadlock diagnostics; a payload only under a trace
        sim = self.sim
        sim.last_active = self.name
        if sim.trace is not None:
            self.trace_event(
                "grant",
                master=transfer.master,
                kind=transfer.kind.value,
                address=hex(transfer.address),
                burst=burst,
                occupancy=occupancy,
            )

    def _finish(self, transfer: BusTransfer, now: int) -> None:
        self._current = None
        self._stats.counts["busy_cycles"] += now - transfer.grant_cycle
        region, offset = transfer.route
        # the completion rule: the waiting master is unblocked, and a
        # clocked slave (a register window) may change state its own
        # claim or its watchers' claims depend on -- re-poll exactly
        # those.  A submit with no waiter comes from outside the clock
        # (``access``, ``poll``) and is awaited by a run_until
        # predicate, which needs no poke.
        waiter = transfer.waiter
        if waiter is not None:
            waiter.poke()
        slave = region.slave
        if region.clocked:
            slave.wake_watchers()
        fault = None
        burst = transfer.burst
        try:
            if transfer.kind is AccessKind.READ:
                data = transfer.data = slave.read_burst(offset, burst)
                if len(data) != burst:
                    raise BusError(
                        f"slave {region.name!r} returned "
                        f"{len(data)} words for a "
                        f"{burst}-beat read"
                    )
            else:
                slave.write_burst(offset, transfer.data)
        except BusFaultError as exc:
            # ERROR response: the transfer terminates, the master must
            # check the handle -- the rest of the SoC keeps running.
            fault = exc
            transfer.error = True
            transfer.error_reason = str(exc)
            if transfer.kind is AccessKind.READ:
                transfer.data = [0] * burst
        transfer.done = True
        transfer.complete_cycle = now
        if fault is not None:
            self._stats.counts["slave_errors"] += 1
            self.trace_event(
                "slave_error",
                master=transfer.master,
                kind=transfer.kind.value,
                address=hex(transfer.address),
                reason=str(fault),
            )
            return
        # named in deadlock diagnostics; a payload only under a trace
        sim = self.sim
        sim.last_active = self.name
        if sim.trace is not None:
            self.trace_event(
                "complete",
                master=transfer.master,
                kind=transfer.kind.value,
                address=hex(transfer.address),
                latency=transfer.latency,
            )

    # -- introspection ----------------------------------------------------
    @property
    def stats(self) -> Stats:
        """Statistics as of now, the cycle intervals still open
        included."""
        now = self.now
        live = self._stats.at(now)
        current = self._current
        if current is not None:
            busy = elapsed(current.grant_cycle + 1, now)
            if busy:
                live.counts["busy_cycles"] += busy
        return live

    @property
    def idle(self) -> bool:
        return self._current is None and not self._pending

    def utilization(self) -> float:
        """Fraction of elapsed cycles the bus was occupied."""
        if self.now == 0:
            return 0.0
        return self.stats.get("busy_cycles") / self.now
