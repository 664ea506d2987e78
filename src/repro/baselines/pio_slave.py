"""Classical bus-slave accelerator with programmed I/O.

Section II-A: "The typical way is to connect coprocessors on a bus ...
usually seen as slaves, with different registers for the
configuration."  In the simplest (and very common) variant the GPP
feeds data word by word through a data register and polls a status
register -- no DMA, no microcode.

:class:`SlaveAccelerator` is that peripheral, wrapping the *same*
datapath models the RACs use so the comparison against Ouessant is
purely about integration style.  :class:`PIOHarness` plays the GPP
driver, with every access a real (cycle-charged) bus transaction.

Register map (byte offsets):

====== =========================================================
0x00   CTRL: bit0 START, bit2 DONE (write 0 to acknowledge)
0x04   DATA_IN: write pushes one word into the input buffer
0x08   DATA_OUT: read pops one word from the output buffer
====== =========================================================
"""

from __future__ import annotations

from typing import Callable, List

from ..bus.bus import SystemBus
from ..bus.types import BusSlave
from ..sim.errors import DriverError
from ..sim.kernel import Component, Simulator
from ..sim.tracing import Stats

REG_CTRL = 0x00
REG_DATA_IN = 0x04
REG_DATA_OUT = 0x08

CTRL_START = 1 << 0
CTRL_DONE = 1 << 2


class SlaveAccelerator(Component, BusSlave):
    """Accelerator datapath behind plain slave registers.

    Parameters
    ----------
    compute_fn:
        Maps the list of collected input words to output words (use the
        same golden function as the equivalent RAC).
    items_in / items_out:
        Words consumed/produced per operation.
    compute_latency:
        Datapath cycles between START and DONE (identical to the
        matching RAC's latency so only the integration differs).
    """

    access_latency = 0

    def __init__(
        self,
        name: str,
        compute_fn: Callable[[List[int]], List[int]],
        items_in: int,
        items_out: int,
        compute_latency: int,
    ) -> None:
        Component.__init__(self, name)
        self.compute_fn = compute_fn
        self.items_in = items_in
        self.items_out = items_out
        self.compute_latency = compute_latency
        self.stats = Stats()
        self._in: List[int] = []
        self._out: List[int] = []
        self._ctrl = 0
        #: the cycle the datapath delivers its results
        self._done_at = 0
        self._running = False

    # -- slave interface --------------------------------------------------
    def read_word(self, offset: int) -> int:
        if offset == REG_CTRL:
            return self._ctrl
        if offset == REG_DATA_OUT:
            if not self._out:
                return 0  # reading past the end returns junk, like HW
            return self._out.pop(0)
        return 0

    def write_word(self, offset: int, value: int) -> None:
        if offset == REG_CTRL:
            if value & CTRL_START and not self._running:
                self._begin()
            if not value:
                self._ctrl = 0
        elif offset == REG_DATA_IN:
            self._in.append(value & 0xFFFFFFFF)

    def _begin(self) -> None:
        if len(self._in) < self.items_in:
            raise DriverError(
                f"{self.name}: started with {len(self._in)} of "
                f"{self.items_in} input words"
            )
        self._running = True
        self._ctrl = CTRL_START
        self._done_at = self.now + self.compute_latency
        self.poke()

    def next_activity(self):
        if not self._running:
            return None  # woken by a CTRL write over the bus
        # datapath latency: the compute fires at the deadline
        return self._done_at

    def tick(self) -> None:
        if not self._running or self.now < self._done_at:
            return
        inputs = self._in[: self.items_in]
        self._in = self._in[self.items_in:]
        self._out = list(self.compute_fn(inputs))
        if len(self._out) != self.items_out:
            raise DriverError(
                f"{self.name}: datapath produced {len(self._out)} words, "
                f"expected {self.items_out}"
            )
        self._running = False
        self._ctrl = CTRL_DONE
        self.stats.incr("operations")

    def reset(self) -> None:
        self._in = []
        self._out = []
        self._ctrl = 0
        self._done_at = 0
        self._running = False


class PIOHarness:
    """The GPP-side driver loop for a :class:`SlaveAccelerator`.

    Every word in and out is an individual bus transaction, plus a poll
    loop on CTRL -- the cost structure Ouessant was designed to kill.
    """

    def __init__(
        self, sim: Simulator, bus: SystemBus, base: int,
        master: str = "cpu",
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.base = base
        self.master = master
        self.stats = Stats()

    def _write(self, offset: int, value: int) -> None:
        self.bus.access(self.master, self.base + offset, value,
                        what="PIO write")

    def _read(self, offset: int) -> int:
        return self.bus.access(self.master, self.base + offset,
                               what="PIO read")

    def run(self, inputs: List[int], n_outputs: int) -> "tuple[List[int], int]":
        """Push inputs, start, poll, pull outputs; returns (out, cycles)."""
        begin = self.sim.cycle
        for word in inputs:
            self._write(REG_DATA_IN, word)
        self._write(REG_CTRL, CTRL_START)
        # the polls that found DONE clear
        polls = self.bus.poll(self.master, self.base + REG_CTRL, CTRL_DONE,
                              "PIO done bit") - 1
        outputs = [self._read(REG_DATA_OUT) for _ in range(n_outputs)]
        self._write(REG_CTRL, 0)
        cycles = self.sim.cycle - begin
        self.stats.incr("runs")
        self.stats.incr("cycles", cycles)
        self.stats.incr("polls", polls)
        return outputs, cycles
