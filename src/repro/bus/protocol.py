"""Bus protocol timing models.

The paper's architecture deliberately separates the bus-independent part
of the Ouessant interface from a per-bus adapter ("The system bus
interface ... must be implemented for each bus supported by Ouessant").
We mirror this with :class:`BusProtocol`: a timing model the
:class:`~repro.bus.bus.SystemBus` consults to charge cycles for each
transaction.  Swapping protocols changes only timing, never behaviour --
exactly the modularity the paper claims.

The catalogue covers the buses named in the paper's Figure 3 ("AHB, AXI,
PLB, ...") plus Wishbone, and distinguishes AXI4 (burst-capable, the
future-work Zynq port) from AXI4-Lite (single-beat, the naive port).

Timing model per burst chunk::

    arbitration + address_cycles + slave_latency + beats * cycles_per_beat

with back-to-back chunks of one logical transfer saving the arbitration
cycles when the protocol supports locked/pipelined transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.errors import ConfigurationError


@dataclass(frozen=True)
class BusProtocol:
    """Cycle-cost model of one bus protocol.

    Attributes
    ----------
    name:
        Human-readable protocol name.
    arbitration_cycles:
        Cycles to win the bus when it is idle.
    address_cycles:
        Address/handshake phase cycles per burst.
    cycles_per_beat:
        Data cycles per 32-bit beat once the burst is running.
    max_burst_beats:
        Longest legal burst; longer transfers are split into chunks.
    locked_chunks:
        True if consecutive chunks of one logical transfer keep bus
        ownership (no re-arbitration between chunks).
    bus_width_bits:
        Data bus width (all catalogued protocols are 32-bit here, as in
        the paper's AMBA2 system).
    """

    name: str
    arbitration_cycles: int
    address_cycles: int
    cycles_per_beat: int
    max_burst_beats: int
    locked_chunks: bool = True
    bus_width_bits: int = 32

    def __post_init__(self) -> None:
        if self.max_burst_beats < 1:
            raise ConfigurationError("max_burst_beats must be >= 1")
        if self.cycles_per_beat < 1:
            raise ConfigurationError("cycles_per_beat must be >= 1")

    def split_burst(self, total_beats: int) -> List[int]:
        """Split a logical transfer into protocol-legal chunk lengths."""
        if total_beats < 1:
            raise ValueError("burst must move at least one word")
        chunks = []
        remaining = total_beats
        while remaining > 0:
            take = min(remaining, self.max_burst_beats)
            chunks.append(take)
            remaining -= take
        return chunks

    def chunk_cycles(self, beats: int, slave_latency: int, first: bool) -> int:
        """Cycles consumed by one chunk of ``beats`` beats.

        ``first`` selects whether arbitration is charged (subsequent
        chunks of a locked transfer skip it).
        """
        cycles = self.address_cycles + slave_latency
        cycles += beats * self.cycles_per_beat
        if first or not self.locked_chunks:
            cycles += self.arbitration_cycles
        return cycles

    def transfer_cycles(self, total_beats: int, slave_latency: int = 0) -> int:
        """Total bus occupancy of one logical transfer of ``total_beats``.

        Closed form over the chunked model (the per-chunk sum is kept
        in :meth:`chunk_cycles`/:meth:`split_burst` and cross-checked
        by the protocol test suite): every chunk pays the address phase
        and the slave's first-beat latency, every beat pays its data
        cycles, and arbitration is paid once for a locked transfer or
        once per chunk otherwise.
        """
        if total_beats < 1:
            raise ValueError("burst must move at least one word")
        chunks = -(-total_beats // self.max_burst_beats)
        total = chunks * (self.address_cycles + slave_latency)
        total += total_beats * self.cycles_per_beat
        total += self.arbitration_cycles * (1 if self.locked_chunks else chunks)
        return total

    def cycles_per_word(self, total_beats: int, slave_latency: int = 0) -> float:
        """Amortized cycles per 32-bit word for a transfer."""
        return self.transfer_cycles(total_beats, slave_latency) / total_beats


# ---------------------------------------------------------------------------
# Protocol catalogue
# ---------------------------------------------------------------------------

#: AMBA2 AHB, the bus of the paper's Leon3 system.  Pipelined
#: address/data, one beat per cycle, INCR16 bursts, single-cycle grant.
AHB = BusProtocol(
    name="AHB",
    arbitration_cycles=1,
    address_cycles=1,
    cycles_per_beat=1,
    max_burst_beats=16,
)

#: AXI4 full -- the paper's future-work Zynq integration target.  Long
#: bursts (256 beats) amortize the heavier channel handshake.
AXI4 = BusProtocol(
    name="AXI4",
    arbitration_cycles=1,
    address_cycles=2,
    cycles_per_beat=1,
    max_burst_beats=256,
)

#: AXI4-Lite -- no bursts; every word pays the full handshake.  Included
#: to show why a burst-capable adapter matters on Zynq.
AXI4_LITE = BusProtocol(
    name="AXI4-Lite",
    arbitration_cycles=1,
    address_cycles=2,
    cycles_per_beat=1,
    max_burst_beats=1,
    locked_chunks=False,
)

#: Wishbone classic cycle: two cycles per beat (strobe + ack).
WISHBONE = BusProtocol(
    name="Wishbone",
    arbitration_cycles=1,
    address_cycles=0,
    cycles_per_beat=2,
    max_burst_beats=64,
)

#: Wishbone with registered-feedback burst cycles (B4 spec): one beat
#: per cycle after a two-cycle setup.
WISHBONE_B4 = BusProtocol(
    name="Wishbone-B4",
    arbitration_cycles=1,
    address_cycles=2,
    cycles_per_beat=1,
    max_burst_beats=64,
)

#: IBM CoreConnect PLB (named in the paper's Figure 3).
PLB = BusProtocol(
    name="PLB",
    arbitration_cycles=2,
    address_cycles=1,
    cycles_per_beat=1,
    max_burst_beats=16,
)

ALL_PROTOCOLS = [AHB, AXI4, AXI4_LITE, WISHBONE, WISHBONE_B4, PLB]


def protocol_by_name(name: str) -> BusProtocol:
    """Look up a catalogued protocol by (case-insensitive) name."""
    for protocol in ALL_PROTOCOLS:
        if protocol.name.lower() == name.lower():
            return protocol
    known = ", ".join(p.name for p in ALL_PROTOCOLS)
    raise KeyError(f"unknown bus protocol {name!r} (known: {known})")
