"""OCP assembly: interface + controller + FIFO fabric + RAC (Figure 1).

"The resulting global Ouessant architecture is thus modular, and
provides independent interfaces between each part."  This module is
where the parts meet: :class:`OuessantCoprocessor` builds the FIFO
fabric demanded by the RAC's port specification, wires the controller
to the interface, and attaches the whole as one slave window on the
system bus.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional

from ..bus.bus import SystemBus
from ..bus.memmap import Region
from ..rac.base import RAC
from ..rac.fifo import FIFO
from ..sim.errors import ConfigurationError, ReconfigurationError
from ..sim.kernel import Component, Simulator
from .controller import OuessantController
from .interface import OuessantInterface
from .registers import REG_CTRL, config_writes, start_word


class OuessantCoprocessor:
    """One complete OCP around a user-supplied RAC.

    Parameters
    ----------
    rac:
        The accelerator.  Its :class:`~repro.rac.base.RACPortSpec`
        dictates how many FIFOs are built and their widths.
    bus:
        System bus for both the slave window and master transfers.
    prefetch / ibuf_size:
        Controller microcode-fetch policy (see
        :class:`~repro.core.controller.OuessantController`).
    watchdog_cycles:
        Forwarded to the controller: abort a hung ``exec`` after this
        many cycles (0 disables).
    fifo_factory:
        Callable with the signature of :class:`~repro.rac.fifo.FIFO`
        used to build the fabric; fault harnesses substitute
        :class:`~repro.faults.injectors.FaultyFIFO` here.
    """

    #: slave window size (registers padded to a power of two)
    WINDOW_BYTES = 64

    def __init__(
        self,
        rac: RAC,
        name: str = "ocp",
        bus: Optional[SystemBus] = None,
        prefetch: bool = True,
        ibuf_size: int = 128,
        master_priority: int = 1,
        watchdog_cycles: int = 0,
        fifo_factory: Optional[Callable[..., FIFO]] = None,
    ) -> None:
        self.name = name
        self.bus = bus
        self._fifo_factory = fifo_factory or FIFO
        self.interface = OuessantInterface(
            f"{name}.if", bus=bus, master_priority=master_priority
        )
        self.controller = OuessantController(
            f"{name}.ctrl",
            interface=self.interface,
            prefetch=prefetch,
            ibuf_size=ibuf_size,
            watchdog_cycles=watchdog_cycles,
        )
        self.rac: Optional[RAC] = None
        self.fifos_in: List[FIFO] = []
        self.fifos_out: List[FIFO] = []
        self._sim: Optional[Simulator] = None
        self._fifo_generation = 0
        self._install_rac(rac)

    # -- construction ----------------------------------------------------
    def _build_fifos(self, rac: RAC) -> "tuple[List[FIFO], List[FIFO]]":
        depth = rac.ports.fifo_depth
        generation = self._fifo_generation
        suffix = f".g{generation}" if generation else ""
        fifos_in = [
            self._fifo_factory(
                f"{self.name}.fin{i}{suffix}",
                width_push=32,
                width_pop=width,
                depth=depth,
            )
            for i, width in enumerate(rac.ports.input_widths)
        ]
        fifos_out = [
            self._fifo_factory(
                f"{self.name}.fout{i}{suffix}",
                width_push=width,
                width_pop=32,
                depth=depth,
            )
            for i, width in enumerate(rac.ports.output_widths)
        ]
        return fifos_in, fifos_out

    def _install_rac(self, rac: RAC) -> None:
        fifos_in, fifos_out = self._build_fifos(rac)
        rac.bind(fifos_in, fifos_out)
        self.controller.bind_fabric(fifos_in, fifos_out, rac)
        self.rac = rac
        self.fifos_in = fifos_in
        self.fifos_out = fifos_out

    def components(self) -> List[Component]:
        """Everything that must tick, in a sensible order."""
        parts: List[Component] = [self.interface, self.controller]
        parts.extend(self.fifos_in)
        parts.extend(self.fifos_out)
        if self.rac is not None:
            parts.append(self.rac)
        return parts

    def attach(self, sim: Simulator, bus: SystemBus, base: int) -> Region:
        """Register with a simulator and map the slave window."""
        if base % self.WINDOW_BYTES:
            raise ConfigurationError(
                f"OCP base {base:#x} must be {self.WINDOW_BYTES}-byte aligned"
            )
        self.bus = bus
        self.interface.bus = bus
        region = bus.attach_slave(
            self.name, base, self.WINDOW_BYTES, self.interface
        )
        sim.add_all(self.components())
        self._sim = sim
        return region

    # -- convenience -----------------------------------------------------
    @property
    def irq(self):
        return self.interface.irq

    @property
    def registers(self):
        return self.interface.registers

    @property
    def done(self) -> bool:
        return self.registers.done

    def start(self, banks: Mapping[int, int], prog_size: int,
              interrupt: bool = True) -> None:
        """Configure and start a run through the slave port, in zero
        time: the driver's register recipe without bus cycles."""
        write = self.interface.write_word
        for offset, value in config_writes(banks, prog_size):
            write(offset, value)
        write(REG_CTRL, start_word(interrupt))

    def soft_reset(self) -> None:
        """Recover from a hung or trapped run without reconfiguring.

        Clears S (aborting any in-flight run via the controller's stop
        hook), empties the FIFO fabric, clears the RAC handshake and
        drops the IRQ line.  Bank bases and PROG_SIZE are preserved so
        a driver can retry the run immediately.
        """
        self.registers.write(REG_CTRL, 0)  # clear S -> controller aborts
        for fifo in self.fifos_in + self.fifos_out:
            fifo.reset()
        if self.rac is not None:
            self.rac.reset()
        self.irq.clear()

    # -- dynamic partial reconfiguration hook ------------------------------
    def swap_rac(self, new_rac: RAC) -> RAC:
        """Replace the accelerator (the DPR manager calls this).

        The controller must be idle or halted; the FIFO fabric is
        rebuilt to the new RAC's port specification (fresh, empty FIFOs
        -- exactly what a partial bitstream swap gives you).

        Returns the previous RAC.
        """
        if self.controller.running:
            raise ReconfigurationError(
                "cannot swap the RAC while the controller is running"
            )
        old_rac = self.rac
        if self._sim is not None:
            for fifo in self.fifos_in + self.fifos_out:
                self._sim.remove(fifo)
            if old_rac is not None:
                self._sim.remove(old_rac)
        self._fifo_generation += 1
        self._install_rac(new_rac)
        if self._sim is not None:
            for fifo in self.fifos_in + self.fifos_out:
                self._sim.add(fifo)
            self._sim.add(new_rac)
        return old_rac
