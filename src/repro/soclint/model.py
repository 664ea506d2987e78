"""Analyzable view of an elaborated (but not yet simulated) system.

The checks in :mod:`repro.soclint.checks` do not walk live objects
directly; they read a :class:`SystemModel` extracted here.  That keeps
every check a pure function over plain data, lets the same checks run
on a *planned* memory map (a list of :class:`PlannedRegion`) before any
slave object exists, and gives the differential test suite a single
place to fabricate broken systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..bus.memmap import MemoryMap, Region
from ..bus.protocol import BusProtocol
from ..bus.types import BusSlave
from ..core.coprocessor import OuessantCoprocessor
from ..core.registers import N_REGISTERS
from ..mem.cache import Cache
from ..mem.memory import Memory
from ..rac.base import StreamingRAC


@dataclass(frozen=True)
class PlannedRegion:
    """One region of a memory-map *plan* (pre-elaboration).

    Unlike :class:`~repro.bus.memmap.Region`, a plan may be
    inconsistent -- that is exactly what the map checks exist to catch
    before :meth:`MemoryMap.add` raises mid-elaboration.
    """

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "PlannedRegion") -> bool:
        return self.base < other.end and other.base < self.end

    def __str__(self) -> str:
        return f"{self.name}: [{self.base:#010x}, {self.end:#010x})"


@dataclass
class FabricPort:
    """One built FIFO next to what the RAC's port spec demands."""

    direction: str          # "in" | "out"
    index: int
    fifo_name: str
    bus_width: int          # the 32-bit system-word side
    rac_width: int          # accelerator-side width actually built
    spec_width: int         # accelerator-side width the spec demands
    depth: int
    spec_depth: int


@dataclass
class OcpModel:
    """Everything the checks need to know about one coprocessor."""

    name: str
    ocp: OuessantCoprocessor
    region: Optional[Region]
    fabric: List[FabricPort]
    n_input_fifos: int
    n_output_fifos: int
    spec_inputs: int
    spec_outputs: int
    #: per-operation input appetite (words), for streaming RACs
    items_in: Optional[List[int]] = None
    autostart: bool = True
    irq_registrations: int = 0


@dataclass
class SystemModel:
    """The extracted component graph the checks run over."""

    regions: List[Region] = field(default_factory=list)
    memmap: Optional[MemoryMap] = None
    ocps: List[OcpModel] = field(default_factory=list)
    #: bus-slave components registered with the kernel, mapped or not
    slave_components: List[BusSlave] = field(default_factory=list)
    #: IRQ lines registered with the interrupt controller, in order
    irq_lines: List[object] = field(default_factory=list)
    #: IRQ sources that *should* be routed: (owner name, line)
    irq_sources: List[tuple] = field(default_factory=list)
    #: CPU-side caches that must be snooped by memory-writing masters
    caches: List[Cache] = field(default_factory=list)
    #: names of masters that write memory behind the CPU's back
    writeback_masters: List[str] = field(default_factory=list)
    clock_mhz: float = 50.0
    #: bus burst protocol, for cost-bound checks (None when no bus)
    bus_protocol: Optional[BusProtocol] = None
    #: main-memory access latency in cycles (1 when unknown)
    mem_latency: int = 1

    def region_of(self, slave: BusSlave) -> Optional[Region]:
        for region in self.regions:
            if region.slave is slave:
                return region
        return None


def _fabric_ports(ocp: OuessantCoprocessor) -> List[FabricPort]:
    ports = []
    spec = ocp.rac.ports if ocp.rac is not None else None
    if spec is None:
        return ports
    for index, fifo in enumerate(ocp.fifos_in):
        spec_width = (spec.input_widths[index]
                      if index < len(spec.input_widths) else 0)
        ports.append(FabricPort(
            direction="in", index=index, fifo_name=fifo.name,
            bus_width=fifo.width_push, rac_width=fifo.width_pop,
            spec_width=spec_width, depth=fifo.depth,
            spec_depth=spec.fifo_depth,
        ))
    for index, fifo in enumerate(ocp.fifos_out):
        spec_width = (spec.output_widths[index]
                      if index < len(spec.output_widths) else 0)
        ports.append(FabricPort(
            direction="out", index=index, fifo_name=fifo.name,
            bus_width=fifo.width_pop, rac_width=fifo.width_push,
            spec_width=spec_width, depth=fifo.depth,
            spec_depth=spec.fifo_depth,
        ))
    return ports


def extract_model(
    soc,
    clock_mhz: Optional[float] = None,
    caches: Optional[Sequence[Cache]] = None,
) -> SystemModel:
    """Build the analyzable view of a :class:`~repro.system.SoC`.

    Accepts anything SoC-shaped: the attributes actually read are
    ``sim``, ``bus``, ``irqc``, ``ocps``, ``dma`` and (optionally)
    ``clock_mhz``, so hand-rolled systems from the test corpus work
    unchanged.
    """
    model = SystemModel()
    bus = getattr(soc, "bus", None)
    if bus is not None:
        model.memmap = bus.memmap
        model.regions = bus.memmap.regions
        model.bus_protocol = getattr(bus, "protocol", None)
    memory = getattr(soc, "memory", None)
    if memory is not None:
        model.mem_latency = getattr(memory, "access_latency", 1)
    model.clock_mhz = (
        clock_mhz if clock_mhz is not None
        else getattr(soc, "clock_mhz", 50.0)
    )
    model.caches = list(caches or ())

    sim = getattr(soc, "sim", None)
    if sim is not None:
        for comp in sim.components:
            if isinstance(comp, BusSlave):
                model.slave_components.append(comp)

    irqc = getattr(soc, "irqc", None)
    if irqc is not None:
        model.irq_lines = list(irqc.lines)

    for index, ocp in enumerate(getattr(soc, "ocps", ())):
        rac = ocp.rac
        streaming = isinstance(rac, StreamingRAC)
        registrations = sum(
            1 for line in model.irq_lines if line is ocp.irq
        )
        model.ocps.append(OcpModel(
            name=ocp.name,
            ocp=ocp,
            region=model.region_of(ocp.interface),
            fabric=_fabric_ports(ocp),
            n_input_fifos=len(ocp.fifos_in),
            n_output_fifos=len(ocp.fifos_out),
            spec_inputs=len(rac.ports.input_widths) if rac else 0,
            spec_outputs=len(rac.ports.output_widths) if rac else 0,
            items_in=list(rac.items_in) if streaming else None,
            autostart=getattr(rac, "autostart", True),
            irq_registrations=registrations,
        ))
        model.irq_sources.append((ocp.name, ocp.irq))
        model.writeback_masters.append(ocp.name)

    dma = getattr(soc, "dma", None)
    if dma is not None:
        model.irq_sources.append((dma.name, dma.irq))
        model.writeback_masters.append(dma.name)

    return model


def planned_regions(regions: Sequence) -> List[PlannedRegion]:
    """Coerce (name, base, size) tuples / Regions into a plan."""
    plan: List[PlannedRegion] = []
    for item in regions:
        if isinstance(item, PlannedRegion):
            plan.append(item)
        elif isinstance(item, Region):
            plan.append(PlannedRegion(item.name, item.base, item.size))
        else:
            name, base, size = item
            plan.append(PlannedRegion(str(name), int(base), int(size)))
    return plan


def is_memory_slave(slave: BusSlave) -> bool:
    """True for plain storage (transfers through it are data moves)."""
    return isinstance(slave, Memory)


#: byte size of the OCP register file (the minimum usable window)
REGISTER_FILE_BYTES = 4 * N_REGISTERS
