"""Build fault-injected systems out of ordinary ones.

The injectors in :mod:`repro.faults.injectors` are wrappers; this
module does the wrapping.  :func:`build_faulty_soc` constructs a SoC
whose main memory, FIFO fabric, microcode store and RAC handshake are
all interposed by the same :class:`~repro.faults.plan.FaultPlan`, so
one seed deterministically drives every fault in the system.

Interposition points (all of them seams the architecture already
exposes, which is rather the point of the exercise):

* the ``ram`` region is re-pointed at a :class:`FaultySlave` via
  :meth:`~repro.bus.memmap.MemoryMap.replace_slave` -- address decode
  untouched, endpoint swapped;
* the OCP builds its fabric through a ``fifo_factory`` returning
  :class:`FaultyFIFO` instances;
* a :class:`MicrocodeCorruptor` and an :class:`ExecHang` are appended
  to the component list (the latter *after* the RAC, so a suppressed
  ``end_op`` is gone before the controller's next look at it).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..rac.base import RAC
from ..rac.fifo import FIFO
from ..sim.errors import ConfigurationError, SimulationError
from ..sim.tracing import Trace, TraceEvent
from ..system import RAM_BASE, SoC
from .injectors import ExecHang, FaultySlave, FaultyFIFO, MicrocodeCorruptor
from .plan import FaultEvent, FaultKind, FaultPlan

#: the fault kinds the injectors read, by site (``fifo``: ``fifo.*``)
_SITE_KINDS = {
    "ram": {FaultKind.BIT_FLIP, FaultKind.SLAVE_ERROR, FaultKind.STALL},
    "fifo": {FaultKind.BIT_FLIP, FaultKind.DROP_WORD, FaultKind.DUP_WORD},
    "mc": {FaultKind.CORRUPT_MICROCODE},
    "rac": {FaultKind.HANG_EXEC},
}


def faulty_fifo_factory(plan: FaultPlan) -> Callable[..., FIFO]:
    """A ``fifo_factory`` for :class:`OuessantCoprocessor`.

    Every FIFO of the fabric becomes a :class:`FaultyFIFO` consulting
    ``plan`` (its site derived from the fabric naming convention).
    """

    def factory(name: str, **kwargs: int) -> FIFO:
        return FaultyFIFO(name, plan=plan, **kwargs)

    return factory


def inject_faults(soc: SoC, plan: FaultPlan) -> SoC:
    """Interpose ``plan``'s memory/microcode/RAC faults on a built SoC.

    FIFO faults cannot be added after the fact (the fabric is built at
    OCP construction); use :func:`build_faulty_soc` or pass
    :func:`faulty_fifo_factory` to ``add_ocp`` for those.

    Raises :class:`ConfigurationError` before touching the SoC if no
    injector would act on some event of ``plan``.
    """
    for event in plan.events:
        _check_event(soc, event)
    faulty_ram = FaultySlave("faults.ram", soc.memory, plan, site="ram")
    soc.bus.memmap.replace_slave("ram", faulty_ram)
    soc.sim.add(faulty_ram)
    soc.sim.add(
        MicrocodeCorruptor("faults.mc", soc.memory, RAM_BASE, plan)
    )
    for index, ocp in enumerate(soc.ocps):
        if ocp.rac is not None:
            suffix = f".{index}" if index else ""
            # registered after the RAC: a suppressed end_op never
            # survives into the controller's next tick
            soc.sim.add(ExecHang(f"faults.rac{suffix}", ocp.rac, plan))
    return soc


def _check_event(soc: SoC, event: FaultEvent) -> None:
    """Raise unless an injector of ``soc`` will act on ``event``."""
    site = "fifo" if event.site.startswith("fifo.") else event.site
    if event.kind not in _SITE_KINDS.get(site, ()):
        problem = f"no injector reads {event.kind.value} at {event.site!r}"
    elif site == "fifo" and not any(
        isinstance(fifo, FaultyFIFO) and event in fifo._events
        for ocp in soc.ocps for fifo in ocp.fifos_in + ocp.fifos_out
    ):
        problem = (f"no FIFO at {event.site!r} reads this plan; build the "
                   "OCP with faulty_fifo_factory(plan)")
    elif site == "rac" and all(ocp.rac is None for ocp in soc.ocps):
        problem = "the SoC has no RAC to hang"
    elif site == "mc" and (event.word % 4 or not RAM_BASE <= event.word
                           < RAM_BASE + soc.memory.size_bytes):
        problem = (f"microcode address {event.word:#x} is unaligned or "
                   "outside RAM")
    else:
        return
    raise ConfigurationError(f"fault {event.describe()}: {problem}")


def build_faulty_soc(
    rac: RAC,
    plan: FaultPlan,
    watchdog_cycles: int = 0,
    trace: Optional[Trace] = None,
    with_cpu: bool = False,
    prefetch: bool = True,
) -> SoC:
    """One OCP around ``rac``, every seam interposed by ``plan``."""
    soc = SoC(trace=trace if trace is not None else Trace(),
              with_cpu=with_cpu, prefetch=prefetch)
    soc.add_ocp(
        rac,
        watchdog_cycles=watchdog_cycles,
        fifo_factory=faulty_fifo_factory(plan),
    )
    return inject_faults(soc, plan)


def fault_history(trace: Trace) -> List[TraceEvent]:
    """All injected-fault events of a run, in order.

    Raises :class:`~repro.sim.errors.SimulationError` if the trace
    overflowed its capacity: a truncated log cannot be trusted as a
    fault history (the missing tail may well contain injections), and
    diffing it against a replay would produce spurious matches.
    """
    if trace.truncated:
        raise SimulationError(
            f"fault history requested from a truncated trace "
            f"({trace.dropped} events dropped at capacity "
            f"{trace.capacity}); raise the capacity or use an "
            f"unbounded Trace()"
        )
    return trace.with_prefix("fault.")


def fault_signature(trace: Trace) -> List[str]:
    """Replay-comparable rendering of a run's fault history.

    Two runs of the same plan on the same workload must produce equal
    signatures; ``repro faults`` demonstrates exactly that.
    """
    return [str(event) for event in fault_history(trace)]
