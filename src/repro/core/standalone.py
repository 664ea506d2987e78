"""Processor-free (standalone) OCP operation.

Paper, Section VI: "Standalone operation is also studied, to provide
control for processor-free designs."  In such a design nothing ever
writes the configuration registers over the bus; instead a small
hardwired sequencer (strap logic / configuration ROM) programs the
register file at power-up and optionally restarts the microcode every
time it completes -- turning the OCP into an autonomous streaming
engine.

:class:`StandaloneSequencer` is that strap logic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.errors import ConfigurationError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from .coprocessor import OuessantCoprocessor
from .registers import REG_CTRL


class StandaloneSequencer(Component):
    """Boots an OCP without any processor and optionally re-arms it.

    Parameters
    ----------
    ocp:
        The coprocessor to drive.
    bank_bases:
        ``bank -> byte base address`` configuration (bank 0 must hold
        the microcode, already placed in memory by the system builder).
    prog_size:
        Number of microcode instructions.
    restart:
        When True, the sequencer clears and re-sets ``S`` every time
        the program reaches ``eop``, giving free-running operation.
    max_runs:
        Stop re-arming after this many completed runs (None = forever).
    """

    def __init__(
        self,
        name: str,
        ocp: OuessantCoprocessor,
        bank_bases: Dict[int, int],
        prog_size: int,
        restart: bool = False,
        max_runs: Optional[int] = None,
    ) -> None:
        super().__init__(name)
        if 0 not in bank_bases:
            raise ConfigurationError("standalone boot needs bank 0 (microcode)")
        if prog_size < 1:
            raise ConfigurationError("prog_size must be >= 1")
        self.ocp = ocp
        self.bank_bases = dict(bank_bases)
        self.prog_size = prog_size
        self.restart = restart
        self.max_runs = max_runs
        self.runs_completed = 0
        self.stats = Stats()
        self._booted = False
        self._rearm = False
        # the done-poll below sleeps indefinitely: the interface pokes
        # its watchers whenever D is raised
        ocp.interface.watch(self)

    def next_activity(self):
        if not self._booted or self._rearm:
            return self.now  # boot / re-arm writes are due this cycle
        if self.ocp.done and self.ocp.registers.started:
            return self.now  # a completed run must be acknowledged
        # armed and waiting on ocp.done, which only a controller tick
        # can raise -- idle until the rest of the system acts
        return None

    def tick(self) -> None:
        if not self._booted:
            self.ocp.start(self.bank_bases, self.prog_size, interrupt=False)
            self._booted = True
            self.stats.incr("boots")
            self.trace_event("boot", prog_size=self.prog_size)
            return
        if self._rearm:
            # one idle cycle between clearing and re-setting S, like a
            # real strap FSM would insert
            self.ocp.start(self.bank_bases, self.prog_size, interrupt=False)
            self._rearm = False
            self.stats.incr("restarts")
            return
        if self.ocp.done and self.ocp.registers.started:
            self.runs_completed += 1
            self.trace_event("run_done", runs=self.runs_completed)
            more = self.max_runs is None or self.runs_completed < self.max_runs
            self.ocp.interface.write_word(REG_CTRL, 0)
            self._rearm = self.restart and more

    def reset(self) -> None:
        self._booted = False
        self._rearm = False
        self.runs_completed = 0
