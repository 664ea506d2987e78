"""SoC top-level builder.

Assembles the platform the paper evaluates on: a CPU (Leon3 stand-in),
SRAM main memory, a system bus (AMBA2 AHB by default) and one or more
Ouessant coprocessors -- plus the interrupt controller tying OCP IRQ
lines back to the CPU.

The default memory map mirrors a typical Leon3/GRLIB layout:

=============== ============ =======================
``0x4000_0000``  RAM          16 MB SRAM (Nexys4)
``0x8000_0000``  OCP #0       first coprocessor
``0x8000_0040``  OCP #1 ...   further coprocessors
``0x8001_0000``  DMA          optional DMA peripheral
``0x8002_0000``  TIMER        free-running cycle counter
=============== ============ =======================
"""

from __future__ import annotations

from typing import List, Optional

from .bus.bus import SystemBus
from .bus.irq import IRQController
from .bus.protocol import AHB, BusProtocol
from .bus.types import BusSlave
from .core.coprocessor import OuessantCoprocessor
from .cpu.cpu import CPU
from .cpu.isa import CostModel
from .mem.dma import DMAEngine
from .mem.memory import Memory
from .rac.base import RAC
from .sim.errors import ConfigurationError
from .sim.kernel import Simulator
from .sim.tracing import Trace

RAM_BASE = 0x4000_0000
RAM_SIZE = 16 << 20
OCP_BASE = 0x8000_0000
DMA_BASE = 0x8001_0000
TIMER_BASE = 0x8002_0000


def ocp_base(index: int) -> int:
    """Base address of OCP ``index``'s register window."""
    return OCP_BASE + index * OuessantCoprocessor.WINDOW_BYTES


class CycleTimer(BusSlave):
    """Free-running cycle counter readable over the bus.

    Models the timer unit software uses for the paper's "time markers
    in the software code".
    """

    access_latency = 0

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def read_word(self, offset: int) -> int:
        return self._sim.cycle & 0xFFFFFFFF

    def write_word(self, offset: int, value: int) -> None:
        """Writes are ignored (the counter is free running)."""


class SoC:
    """A complete simulated system.

    Parameters
    ----------
    racs:
        Accelerators; one OCP is built per RAC.
    protocol:
        Bus protocol timing model (AHB, as in the paper, by default).
    prefetch:
        Microcode prefetch policy applied to every OCP controller.
    with_dma / with_cpu:
        Optional peripherals (baselines need the DMA engine; pure
        OCP-driven runs can skip the CPU entirely).
    clock_mhz:
        The system clock the design must close at (the paper uses
        50 MHz); consumed by the system linter's timing check.
    idle_skip:
        Runs the kernel's fast schedule (default); ``False`` selects
        the naive oracle (see ``docs/SIMULATION.md``).
    strict:
        Runs the system-level integrity analyzer (:mod:`repro.soclint`)
        after elaboration and after every later :meth:`add_ocp`,
        raising :class:`ConfigurationError` on any error-severity
        finding.
    """

    def __init__(
        self,
        racs: Optional[List[RAC]] = None,
        protocol: BusProtocol = AHB,
        prefetch: bool = True,
        with_cpu: bool = True,
        with_dma: bool = False,
        ram_size: int = RAM_SIZE,
        cost_model: Optional[CostModel] = None,
        trace: Optional[Trace] = None,
        memory: Optional[Memory] = None,
        idle_skip: bool = True,
        strict: bool = False,
        clock_mhz: float = 50.0,
    ) -> None:
        self.sim = Simulator(trace=trace, idle_skip=idle_skip)
        self.bus = SystemBus("bus", protocol=protocol)
        self.sim.add(self.bus)
        # main memory is injectable (e.g. an SDRAM open-row model)
        self.memory = memory or Memory("ram", ram_size, access_latency=1)
        self.bus.attach_slave(
            "ram", RAM_BASE, self.memory.size_bytes, self.memory
        )
        self.irqc = IRQController()
        self.timer = CycleTimer(self.sim)
        self.bus.attach_slave("timer", TIMER_BASE, 64, self.timer)

        self.cpu: Optional[CPU] = None
        if with_cpu:
            self.cpu = CPU(
                "cpu",
                memory=self.memory,
                memory_base=RAM_BASE,
                bus=self.bus,
                irq=self.irqc,
                cost_model=cost_model,
            )
            self.sim.add(self.cpu)

        self.dma: Optional[DMAEngine] = None
        if with_dma:
            self.dma = DMAEngine("dma", bus=self.bus)
            self.bus.attach_slave("dma", DMA_BASE, 64, self.dma)
            self.sim.add(self.dma)
            self.irqc.register(self.dma.irq)

        self._prefetch = prefetch
        self.clock_mhz = clock_mhz
        self.strict = strict
        self.ocps: List[OuessantCoprocessor] = []
        self._elaborated = False
        for index, rac in enumerate(racs or []):
            self.add_ocp(rac, index)
        self._elaborated = True
        if strict:
            self.check_integrity()

    # -- construction -----------------------------------------------------
    def add_ocp(self, rac: RAC, index: Optional[int] = None, **kwargs) -> OuessantCoprocessor:
        """Build an OCP around ``rac`` and map it on the bus.

        ``index``, when given, must be the next free one
        (``len(self.ocps)``): an OCP's window (:func:`ocp_base`), its
        slot in :attr:`ocps` and its registration order follow one
        order.
        """
        if index is None:
            index = len(self.ocps)
        elif index != len(self.ocps):
            raise ConfigurationError(
                f"OCP index {index} is not the next free one "
                f"({len(self.ocps)}): OCPs are added in window order"
            )
        name = f"ocp{index}" if index else "ocp"
        kwargs.setdefault("prefetch", self._prefetch)
        ocp = OuessantCoprocessor(rac, name=name, bus=self.bus, **kwargs)
        ocp.attach(self.sim, self.bus, ocp_base(index))
        self.irqc.register(ocp.irq)
        self.ocps.append(ocp)
        if self.strict and self._elaborated:
            self.check_integrity()
        return ocp

    # -- static analysis ---------------------------------------------------
    def lint(self, **kwargs):
        """Run the system-level integrity analyzer over this SoC.

        Keyword arguments are forwarded to
        :func:`repro.soclint.lint_soc` (``banks``, ``firmware``,
        ``clock_mhz``, ``suppress``, ...).  Returns a
        :class:`~repro.verify.diagnostics.VerifyReport`.
        """
        from .soclint import lint_soc

        return lint_soc(self, **kwargs)

    def check_integrity(self) -> None:
        """Lint the elaborated system; raise on any error finding."""
        report = self.lint()
        if not report.clean:
            raise ConfigurationError(
                "SoC failed elaboration-time integrity analysis:\n"
                + report.render()
            )

    @property
    def ocp(self) -> OuessantCoprocessor:
        """The first (usually only) coprocessor."""
        if not self.ocps:
            raise LookupError("this SoC has no OCP")
        return self.ocps[0]

    def ocp_base(self, index: int = 0) -> int:
        return ocp_base(index)

    # -- memory helpers (backdoor, zero simulated time) ----------------------
    def write_ram(self, address: int, words: List[int]) -> None:
        self.memory.load_words(address - RAM_BASE, words)

    def read_ram(self, address: int, count: int) -> List[int]:
        return self.memory.dump_words(address - RAM_BASE, count)


# ---------------------------------------------------------------------------
# MPSoC elaboration helpers
# ---------------------------------------------------------------------------

def build_mpsoc(racs: List[RAC], ocp_kwargs=None, **soc_kwargs) -> SoC:
    """Elaborate an N-OCP SoC from a heterogeneous RAC list.

    Convenience over ``SoC(racs=...)`` for scale-out work:

    * component names are uniquified (two ``PassthroughRac()`` share
      the default name ``"loopback"``, which the kernel would reject);
    * ``ocp_kwargs`` (e.g. ``{"watchdog_cycles": 5000}``) are forwarded
      to *every* :meth:`SoC.add_ocp` call, which plain construction
      cannot express.
    """
    soc = SoC(racs=[], **soc_kwargs)
    seen: set = set()
    for index, rac in enumerate(racs):
        if rac.name in seen:
            rac.name = f"{rac.name}{index}"
        seen.add(rac.name)
        soc.add_ocp(rac, index, **(ocp_kwargs or {}))
    return soc


def plan_mpsoc_map(
    n_ocps: int,
    ocp_stride: int = OuessantCoprocessor.WINDOW_BYTES,
    ram_size: int = RAM_SIZE,
):
    """The planned memory map of an N-OCP SoC, for pre-elaboration lint.

    Returns ``(name, base, size)`` tuples for
    :func:`repro.soclint.lint_map_plan`.  A non-default ``ocp_stride``
    below the window size models a mis-planned layout (overlapping OCP
    windows) that the linter must catch before any slave exists.
    """
    plan = [
        ("ram", RAM_BASE, ram_size),
        ("timer", TIMER_BASE, 64),
    ]
    for index in range(n_ocps):
        name = f"ocp{index}" if index else "ocp"
        plan.append((
            name,
            OCP_BASE + index * ocp_stride,
            OuessantCoprocessor.WINDOW_BYTES,
        ))
    return plan
