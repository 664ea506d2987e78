"""Standalone DMA peripheral.

Section II of the paper describes the classical integration style where
"communication can be offloaded to a Direct Memory Access (DMA)
peripheral, in order to free GPP time" -- but the GPP remains
responsible for scheduling transfers and launching operations.  This
component models exactly that peripheral; the
:mod:`repro.baselines.dma_slave` baseline builds the classical design
around it so it can be compared against Ouessant's integrated DMA.

Register map (word offsets):

====== =======================================================
0x00   CTRL: bit0 START, bit1 IE (interrupt enable), bit2 DONE
0x04   SRC  source byte address
0x08   DST  destination byte address
0x0C   COUNT transfer length in 32-bit words
====== =======================================================
"""

from __future__ import annotations

import enum
from typing import Optional

from ..bus.bus import SystemBus
from ..bus.irq import IRQLine
from ..bus.types import AccessKind, BusSlave, BusTransfer
from ..sim.errors import ConfigurationError
from ..sim.kernel import Component
from ..utils import bits

CTRL_START = 1 << 0
CTRL_IE = 1 << 1
CTRL_DONE = 1 << 2

REG_CTRL = 0x00
REG_SRC = 0x04
REG_DST = 0x08
REG_COUNT = 0x0C


class _State(enum.Enum):
    IDLE = "idle"
    READ = "read"
    WRITE = "write"


class DMAEngine(Component, BusSlave):
    """Memory-to-memory DMA with a small internal staging buffer.

    The engine reads up to ``buffer_words`` per chunk, then writes them
    out, alternating until COUNT words have moved.  It is both a bus
    slave (register file) and a bus master (the transfers).
    """

    access_latency = 0

    def __init__(
        self,
        name: str = "dma",
        bus: Optional[SystemBus] = None,
        buffer_words: int = 64,
        priority: int = 1,
    ) -> None:
        Component.__init__(self, name)
        if buffer_words < 1:
            raise ConfigurationError("buffer_words must be >= 1")
        self.bus = bus
        self.buffer_words = buffer_words
        self.priority = priority
        self.irq = IRQLine(f"{name}.irq")
        self._ctrl = 0
        self._src = 0
        self._dst = 0
        self._count = 0
        self._state = _State.IDLE
        self._remaining = 0
        self._transfer: Optional[BusTransfer] = None
        self._buffer: list = []

    # -- register file (bus slave) ------------------------------------
    def read_word(self, offset: int) -> int:
        if offset == REG_CTRL:
            return self._ctrl
        if offset == REG_SRC:
            return self._src
        if offset == REG_DST:
            return self._dst
        if offset == REG_COUNT:
            return self._count
        return 0

    def write_word(self, offset: int, value: int) -> None:
        value &= bits.WORD_MASK
        if offset == REG_CTRL:
            starting = value & CTRL_START and not (self._ctrl & CTRL_START)
            self._ctrl = value & (CTRL_START | CTRL_IE)
            if starting:
                self._begin()
        elif offset == REG_SRC:
            self._src = value
        elif offset == REG_DST:
            self._dst = value
        elif offset == REG_COUNT:
            self._count = value

    # -- behaviour --------------------------------------------------------
    @property
    def done(self) -> bool:
        return bool(self._ctrl & CTRL_DONE)

    @property
    def busy(self) -> bool:
        return self._state is not _State.IDLE

    def _begin(self) -> None:
        # CTRL writes arrive through a bus transfer mid-cycle: drop the
        # cached indefinite-idle claim so dispatch re-polls us
        self.poke()
        if self._count == 0:
            self._finish()
            return
        self._remaining = self._count
        self._state = _State.READ
        self._transfer = None
        self.trace_event("start", src=hex(self._src), dst=hex(self._dst),
                         count=self._count)

    def _finish(self) -> None:
        self._state = _State.IDLE
        self._ctrl &= ~CTRL_START
        self._ctrl |= CTRL_DONE
        if self._ctrl & CTRL_IE:
            self.irq.assert_()
        self.trace_event("done")

    def next_activity(self):
        if self._state is _State.IDLE or self.bus is None:
            return None  # woken by a CTRL write (a bus-master action)
        if self._transfer is not None and not self._transfer.done:
            return None  # the bus completion wakes the system
        return self.now  # ready to consume a completion / issue a burst

    def tick(self) -> None:
        if self._state is _State.IDLE or self.bus is None:
            return
        if self._transfer is not None:
            if not self._transfer.done:
                return
            if self._state is _State.READ:
                self._buffer = list(self._transfer.data)
                self._transfer = None
                self._state = _State.WRITE
            else:
                moved = len(self._buffer)
                self._src += 4 * moved
                self._dst += 4 * moved
                self._remaining -= moved
                self._buffer = []
                self._transfer = None
                if self._remaining == 0:
                    self._finish()
                    return
                self._state = _State.READ
        if self._transfer is None and self._state is not _State.IDLE:
            self._issue()

    def _issue(self) -> None:
        if self._state is _State.READ:
            kind, address = AccessKind.READ, self._src
            burst = min(self._remaining, self.buffer_words)
            data = None
        else:
            kind, address = AccessKind.WRITE, self._dst
            burst = len(self._buffer)
            data = list(self._buffer)
        self.trace_event(
            "burst", kind=kind.name.lower(), address=hex(address),
            words=burst,
        )
        self._transfer = self.bus.submit(self.name, kind, address, burst,
                                         data, self.priority, self)

    def reset(self) -> None:
        self._ctrl = 0
        self._src = self._dst = self._count = 0
        self._state = _State.IDLE
        self._remaining = 0
        self._transfer = None
        self._buffer = []
        self.irq.clear()
