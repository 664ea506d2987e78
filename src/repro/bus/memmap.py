"""System address map.

A :class:`MemoryMap` maps absolute byte addresses to slave peripherals.
Regions must be word aligned and non-overlapping; lookups return the
region plus the offset inside it, which the bus passes to the slave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..sim.errors import AddressError, ConfigurationError
from ..sim.kernel import Component
from .types import BusSlave


@dataclass(frozen=True)
class Region:
    """One decoded window of the address space.

    ``latency_for`` is the slave's address-aware latency method (an
    SDRAM open-row model, a fault injector), or None when the slave
    charges its fixed ``access_latency``.  ``clocked`` says whether
    the slave is a clocked component (a register window), whose
    watchers a finished transfer re-polls.  Both are resolved once,
    when the region is made, not on every grant or finish.
    """

    name: str
    base: int
    size: int
    slave: BusSlave
    latency_for: Optional[Callable[[int, int], int]] = field(
        init=False, repr=False, compare=False)
    clocked: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "latency_for",
                           getattr(self.slave, "latency_for", None))
        object.__setattr__(self, "clocked",
                           isinstance(self.slave, Component))

    @property
    def end(self) -> int:
        """First byte address *after* the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.end and other.base < self.end

    def __str__(self) -> str:
        return f"{self.name}: [{self.base:#010x}, {self.end:#010x})"


class MemoryMap:
    """Ordered, overlap-checked collection of :class:`Region`."""

    def __init__(self) -> None:
        self._regions: List[Region] = []

    def add(self, name: str, base: int, size: int, slave: BusSlave) -> Region:
        """Register a slave window; returns the created region."""
        if base % 4 != 0 or size % 4 != 0:
            raise ConfigurationError(
                f"region {name!r} must be word aligned "
                f"(base={base:#x}, size={size:#x})"
            )
        if size <= 0:
            raise ConfigurationError(f"region {name!r} has size {size}")
        region = Region(name, base, size, slave)
        for existing in self._regions:
            if region.overlaps(existing):
                raise ConfigurationError(
                    f"region {region} overlaps {existing}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    def replace_slave(self, name: str, slave: BusSlave) -> Region:
        """Swap the slave behind a mapped window (same base and size).

        The interposition point for wrapper slaves (e.g. fault
        injectors): the address decode is untouched, only the endpoint
        changes.  Returns the new region.
        """
        for index, region in enumerate(self._regions):
            if region.name == name:
                replacement = Region(region.name, region.base,
                                     region.size, slave)
                self._regions[index] = replacement
                return replacement
        raise ConfigurationError(f"no region named {name!r} to replace")

    def find(self, address: int) -> Optional[Region]:
        """The region that decodes ``address``, or None (for the static
        analyzers; the bus decodes through :meth:`lookup`)."""
        for region in self._regions:
            if region.base <= address < region.base + region.size:
                return region
        return None

    def span_from(self, address: int) -> Optional[int]:
        """Bytes from ``address`` to the end of its region.

        ``None`` when no slave decodes ``address``.  Static analyzers
        use this to bound how far a burst starting at ``address`` may
        run before falling off the mapped window.
        """
        region = self.find(address)
        if region is None:
            return None
        return region.end - address

    def lookup(self, address: int, span_bytes: int = 4) -> Tuple[Region, int]:
        """Resolve an access; the whole span must fit in one region.

        Returns ``(region, byte_offset_within_region)``.  Every bus
        submit decodes here, so the decode and the bounds check are one
        loop, with no call.
        """
        for region in self._regions:
            base = region.base
            end = base + region.size
            if base <= address < end:
                if address + span_bytes > end:
                    raise AddressError(
                        f"access [{address:#x}+{span_bytes}] crosses the "
                        f"end of region {region}"
                    )
                return region, address - base
        raise AddressError(f"no slave decodes address {address:#010x}")

    def render(self) -> str:
        """Human-readable memory map listing."""
        return "\n".join(str(r) for r in self._regions)
