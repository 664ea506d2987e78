"""OCP performance-counter registers.

The paper's evaluation is an attribution argument (Fig. 4: which
cycles go to transfer, which to computation, which to control); this
module gives the OCP the hardware counters that make the same
measurement possible *from software*, without a simulator trace.

Six read-only 32-bit counters sit in the slave register window
directly after the ten configuration registers
(:data:`~repro.core.registers.N_REGISTERS`):

========  ======================  =======================================
offset    name                    meaning
========  ======================  =======================================
``0x28``  ``PERF_BUSY``           cycles the controller FSM was in any
                                  non-idle state since start
``0x2C``  ``PERF_XFER``           cycles in ``xfer_to`` + ``xfer_from``
``0x30``  ``PERF_EXECW``          cycles in ``exec_wait``
``0x34``  ``PERF_STALL``          transfer cycles lost to FIFO stalls
                                  (overlaps ``PERF_XFER``)
``0x38``  ``PERF_FIFO_IN_HW``     input-FIFO occupancy high-water mark,
                                  in atoms
``0x3C``  ``PERF_FIFO_OUT_HW``    output-FIFO high-water mark, in atoms
========  ======================  =======================================

All six are cleared when ``S`` is set (run start), so one completed run
leaves its own attribution behind; reads are side-effect free.  The
window occupies ``4 * N_PERF_REGISTERS`` bytes; ``soclint`` warns
(``OU113``) when an OCP's bus window truncates it.

Implementation note: the counters are *views* over the controller's
cumulative :class:`~repro.sim.tracing.Stats`, less a snapshot taken at
run start (:meth:`PerfCounterBlock.window`), because the controller's
``stats`` stay cumulative across runs like every other component's.
Those statistics read live (the open state interval included), so a
bus read at cycle C sees exactly the cycles before C: the bus ticks
before every OCP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .registers import N_REGISTERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .controller import OuessantController

#: word indices of the counters, relative to the start of the window
PERF_BUSY = 0
PERF_XFER = 1
PERF_EXECW = 2
PERF_STALL = 3
PERF_FIFO_IN_HW = 4
PERF_FIFO_OUT_HW = 5

N_PERF_REGISTERS = 6

#: byte offset of the first counter inside the slave window
PERF_BASE = 4 * N_REGISTERS

#: byte size of the full slave window: config registers + counters
PERF_WINDOW_BYTES = 4 * (N_REGISTERS + N_PERF_REGISTERS)

#: human-readable counter names, by word index
PERF_NAMES = (
    "busy", "xfer", "exec_wait", "fifo_stall",
    "fifo_in_high_water", "fifo_out_high_water",
)

_MASK32 = 0xFFFFFFFF


class PerfCounterBlock:
    """The six hardware counters of one OCP.

    Bound by the controller at construction; the interface routes
    slave reads in ``[PERF_BASE, PERF_WINDOW_BYTES)`` here.
    """

    def __init__(self, controller: "OuessantController") -> None:
        self._controller = controller
        self._baseline: Dict[str, int] = {}

    def clear(self) -> None:
        """Run start: re-baseline every statistic at the current totals."""
        self._baseline = dict(self._controller.stats.items())
        for fifo in self._controller.fifos_in:
            fifo.clear_high_water()
        for fifo in self._controller.fifos_out:
            fifo.clear_high_water()

    def window(self) -> Dict[str, int]:
        """The controller's statistics since run start, by key."""
        baseline = self._baseline
        return {
            key: value - baseline.get(key, 0)
            for key, value in self._controller.stats.items()
        }

    def value(self, index: int) -> int:
        """Current value of counter ``index`` (word index, unmasked)."""
        ctrl = self._controller
        if index == PERF_FIFO_IN_HW:
            return max(
                (f.high_water_atoms for f in ctrl.fifos_in), default=0
            )
        if index == PERF_FIFO_OUT_HW:
            return max(
                (f.high_water_atoms for f in ctrl.fifos_out), default=0
            )
        window = self.window()
        if index == PERF_BUSY:
            return sum(
                value
                for key, value in window.items()
                if key.startswith("cycles.") and key != "cycles.fifo_stall"
            )
        if index == PERF_XFER:
            return (window.get("cycles.xfer_to", 0)
                    + window.get("cycles.xfer_from", 0))
        if index == PERF_EXECW:
            return window.get("cycles.exec_wait", 0)
        if index == PERF_STALL:
            return window.get("cycles.fifo_stall", 0)
        return 0

    def read_word(self, offset: int) -> int:
        """Slave read at byte ``offset`` within the register window."""
        if offset % 4 or not PERF_BASE <= offset < PERF_WINDOW_BYTES:
            return 0
        return self.value((offset - PERF_BASE) // 4) & _MASK32

    def snapshot(self) -> Dict[str, int]:
        """All counters by name (for reports and tests)."""
        return {
            name: self.value(index) & _MASK32
            for index, name in enumerate(PERF_NAMES)
        }
