"""Bus-slave accelerator fed by a separate DMA peripheral.

Section II-A's middle option: "Communication can be offloaded to a
Direct Memory Access (DMA) peripheral, in order to free GPP time" --
but "the GPP is still responsible for scheduling transfers and
launching operations".  The GPP must program the DMA engine twice
(in and out), take two interrupts, and start the accelerator itself.

:class:`BurstSlaveAccelerator` is the peripheral (same datapaths as the
RACs, but with burst-capable data windows); :class:`DMAHarness` is the
GPP-side scheduling code.
"""

from __future__ import annotations

from ..bus.bus import SystemBus
from ..mem.dma import (
    CTRL_IE as DMA_IE,
    CTRL_START as DMA_START,
    DMAEngine,
    REG_COUNT as DMA_COUNT,
    REG_CTRL as DMA_CTRL,
    REG_DST as DMA_DST,
    REG_SRC as DMA_SRC,
)
from ..sim.kernel import Simulator
from .pio_slave import CTRL_DONE, CTRL_START, REG_CTRL, SlaveAccelerator

#: byte offset of the write-only input window inside the slave
IN_WINDOW = 0x1000
#: byte offset of the read-only output window
OUT_WINDOW = 0x2000
#: total slave size (CTRL page + two 4 KB data windows, 1024 words each)
SLAVE_WINDOW_BYTES = 0x3000


class BurstSlaveAccelerator(SlaveAccelerator):
    """Slave accelerator with burstable streaming data windows.

    Any write into ``[IN_WINDOW, OUT_WINDOW)`` pushes a word; any read
    from ``[OUT_WINDOW, ...)`` pops one.  Addresses inside the windows
    are don't-care (the DMA engine naturally increments them).
    """

    def read_word(self, offset: int) -> int:
        if offset >= OUT_WINDOW:
            if not self._out:
                return 0
            return self._out.pop(0)
        return super().read_word(offset)

    def write_word(self, offset: int, value: int) -> None:
        if IN_WINDOW <= offset < OUT_WINDOW:
            self._in.append(value & 0xFFFFFFFF)
            return
        super().write_word(offset, value)


class DMAHarness:
    """GPP driver using a DMA peripheral for the data movement.

    The GPP still performs: 4 register writes + 1 interrupt wait per
    DMA direction, 1 accelerator start, and a completion poll -- the
    scheduling burden the paper contrasts with Ouessant's autonomous
    microcode.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: SystemBus,
        dma: DMAEngine,
        dma_base: int,
        accel_base: int,
        master: str = "cpu",
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.dma = dma
        self.dma_base = dma_base
        self.accel_base = accel_base
        self.master = master

    def _write(self, address: int, value: int) -> None:
        self.bus.access(self.master, address, value, what="harness write")

    def _dma_move(self, src: int, dst: int, words: int) -> None:
        self._write(self.dma_base + DMA_SRC, src)
        self._write(self.dma_base + DMA_DST, dst)
        self._write(self.dma_base + DMA_COUNT, words)
        self._write(self.dma_base + DMA_CTRL, DMA_START | DMA_IE)
        self.sim.run_until(lambda: self.dma.irq.pending, what="DMA interrupt")
        self.dma.irq.clear()

    def run(
        self, in_addr: int, out_addr: int, n_in: int, n_out: int
    ) -> int:
        """Move data in, run the accelerator, move data out.

        Returns total cycles for the operation as seen by the GPP.
        """
        begin = self.sim.cycle
        self._dma_move(in_addr, self.accel_base + IN_WINDOW, n_in)
        self._write(self.accel_base + REG_CTRL, CTRL_START)
        self.bus.poll(self.master, self.accel_base + REG_CTRL, CTRL_DONE,
                      "accelerator done bit")
        self._dma_move(self.accel_base + OUT_WINDOW, out_addr, n_out)
        self._write(self.accel_base + REG_CTRL, 0)
        return self.sim.cycle - begin
