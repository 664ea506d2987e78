"""The Ouessant interface (Figure 3).

"OCP interface is designed to translate Ouessant internal addressing
mechanism to the SoC communication system."  It has two halves:

* the **bus-independent** part: the ten configuration registers, the
  ``(bank, offset) -> address`` translation (bank base + offset), and
  the done/interrupt signalling;
* the **bus-dependent** part: the slave FSM (register access) and the
  master FSM (burst data transfers), realized here by speaking the
  transaction protocol of :class:`repro.bus.bus.SystemBus`, whose
  pluggable :class:`~repro.bus.protocol.BusProtocol` plays the role of
  the per-bus adapter.

The interface is also where write snooping is reported (Section IV's
cache-coherency remark): any attached
:class:`~repro.mem.cache.Cache` is informed of master writes.
"""

from __future__ import annotations

from typing import List, Optional

from ..bus.bus import SystemBus
from ..bus.irq import IRQLine
from ..bus.types import AccessKind, BusSlave, BusTransfer
from ..mem.cache import Cache
from ..sim.errors import ControllerError
from ..sim.kernel import Component, inlined_claim
from ..sim.tracing import Stats
from .isa import MAX_OFFSET, N_BANKS
from .perf import PERF_WINDOW_BYTES, PerfCounterBlock
from .registers import N_REGISTERS, OuessantRegisters


class OuessantInterface(Component, BusSlave):
    """Register file + address translation + bus master engine.

    Parameters
    ----------
    bus:
        The system bus; the interface is both a slave on it (registers)
        and a master (microcode-driven bursts).
    master_priority:
        Bus priority of data transfers (the CPU defaults to 0; giving
        the OCP 1 mirrors the AMBA2 setup where the processor wins).
    """

    #: register file responds with no wait state
    access_latency = 0

    def __init__(
        self,
        name: str = "ocp.if",
        bus: Optional[SystemBus] = None,
        master_priority: int = 1,
    ) -> None:
        Component.__init__(self, name)
        self.bus = bus
        self.master_priority = master_priority
        self.registers = OuessantRegisters()
        self.irq = IRQLine(f"{name}.irq")
        self.snooped_caches: List[Cache] = []
        self.stats = Stats()
        #: performance-counter block, bound by the controller; reads
        #: past the configuration registers return 0 until then
        self.perf: Optional[PerfCounterBlock] = None

    #: the interface has no clocked behaviour of its own: registers are
    #: written by bus transfers, signalling happens inside the
    #: controller's tick -- always safe to skip, so the walk emits no
    #: block for it
    next_activity = inlined_claim("None")

    # -- slave side (configuration registers + perf counters) ---------------
    def read_word(self, offset: int) -> int:
        if 0 <= offset < 4 * N_REGISTERS:
            return self.registers.read(offset)
        if self.perf is not None and offset < PERF_WINDOW_BYTES:
            return self.perf.read_word(offset)
        return 0

    def write_word(self, offset: int, value: int) -> None:
        # the perf counters are read-only: writes past the
        # configuration registers are ignored, as in hardware
        if 0 <= offset < 4 * N_REGISTERS:
            self.registers.write(offset, value)

    @property
    def window_bytes(self) -> int:
        """Size of the slave register window (config + perf counters)."""
        return PERF_WINDOW_BYTES

    # -- address translation ------------------------------------------------
    def translate(self, bank: int, word_offset: int, words: int = 1) -> int:
        """Resolve ``(bank, offset)`` to an absolute byte address.

        The transfer must stay inside the 14-bit offset window of the
        bank (the hardware adder width of Figure 3), and the bank must
        be configured (the errors of
        :meth:`~repro.core.registers.OuessantRegisters.bank_base`).
        """
        if word_offset < 0 or word_offset + words - 1 > MAX_OFFSET:
            raise ControllerError(
                f"transfer [{word_offset}+{words}] exceeds the "
                f"{MAX_OFFSET + 1}-word bank window"
            )
        registers = self.registers
        if 0 <= bank < N_BANKS and registers.configured[bank]:
            return registers.banks[bank] + 4 * word_offset
        return registers.bank_base(bank)  # raises

    # -- master side (burst engine) ---------------------------------------
    def submit_read(
        self,
        bank: int,
        word_offset: int,
        words: int,
        waiter: Optional[Component] = None,
    ) -> BusTransfer:
        """Issue a burst read of ``words`` from a bank.

        ``waiter`` is the component blocked on the transfer's
        completion; the bus pokes it (re-polls its quiescence claim)
        when the transfer finishes.
        """
        if self.bus is None:
            raise ControllerError(f"{self.name} has no bus attached")
        address = self.translate(bank, word_offset, words)
        counts = self.stats.counts
        counts["master_reads"] += 1
        counts["words_read"] += words
        return self.bus.submit(self.name, AccessKind.READ, address, words,
                               None, self.master_priority, waiter)

    def submit_write(
        self,
        bank: int,
        word_offset: int,
        data: List[int],
        waiter: Optional[Component] = None,
    ) -> BusTransfer:
        """Issue a burst write of ``data`` into a bank (with snooping)."""
        if self.bus is None:
            raise ControllerError(f"{self.name} has no bus attached")
        address = self.translate(bank, word_offset, len(data))
        for cache in self.snooped_caches:
            cache.snoop_write_burst(address, len(data))
        counts = self.stats.counts
        counts["master_writes"] += 1
        counts["words_written"] += len(data)
        return self.bus.submit(self.name, AccessKind.WRITE, address,
                               len(data), list(data), self.master_priority,
                               waiter)

    # -- done / interrupt signalling ----------------------------------------
    def signal_done(self) -> None:
        """``eop`` semantics: set D, raise the GPP interrupt if IE."""
        self.registers.set_done()
        if self.registers.interrupt_enabled:
            self.irq.assert_()
        self.trace_event("done", interrupt=self.registers.interrupt_enabled)
        # observers polling D without interrupts (standalone straps,
        # register-poll drivers) sleep on this flag: re-poll them
        self.wake_watchers()

    def signal_irq(self) -> None:
        """Extension ``irq`` instruction: interrupt without ending."""
        if self.registers.interrupt_enabled:
            self.irq.assert_()

    def signal_error(self, code: int) -> None:
        """Controller trap: latch E + code, set D, interrupt if IE.

        D is set alongside E so software waiting for completion (poll
        or IRQ) wakes up and can read the error status, instead of
        hanging on a run that will never finish normally.
        """
        self.registers.set_error(code)
        self.registers.set_done()
        if self.registers.interrupt_enabled:
            self.irq.assert_()
        self.stats.counts["errors"] += 1
        self.trace_event(
            "error",
            code=code,
            name=self.registers.error_name,
            interrupt=self.registers.interrupt_enabled,
        )
        self.wake_watchers()

    def attach_snooped_cache(self, cache: Cache) -> None:
        self.snooped_caches.append(cache)

    def reset(self) -> None:
        self.registers.reset()
        self.irq.clear()
        self.stats = Stats()
