"""System interconnect: bus, protocols, arbitration, memory map, IRQs."""

from .arbiter import Arbiter, FixedPriorityArbiter, RoundRobinArbiter
from .bus import SystemBus
from .irq import IRQController, IRQLine
from .memmap import MemoryMap, Region
from .protocol import (
    AHB,
    ALL_PROTOCOLS,
    AXI4,
    AXI4_LITE,
    PLB,
    WISHBONE,
    WISHBONE_B4,
    BusProtocol,
    protocol_by_name,
)
from .types import AccessKind, BusSlave, BusTransfer

__all__ = [
    "AHB",
    "ALL_PROTOCOLS",
    "AXI4",
    "AXI4_LITE",
    "AccessKind",
    "Arbiter",
    "BusProtocol",
    "BusSlave",
    "BusTransfer",
    "FixedPriorityArbiter",
    "IRQController",
    "IRQLine",
    "MemoryMap",
    "PLB",
    "Region",
    "RoundRobinArbiter",
    "SystemBus",
    "WISHBONE",
    "WISHBONE_B4",
    "protocol_by_name",
]
