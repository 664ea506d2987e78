"""The individual system-level integrity checks (OU1xx).

Each check is a pure function appending findings to a
:class:`~repro.verify.diagnostics.VerifyReport`; the engine decides
which checks run for which inputs.  Severity discipline mirrors the
microcode verifier: *error* findings correspond to configurations that
demonstrably fail (raise at elaboration, trap, deadlock or miscompute
when simulated); hazards that may be benign are warnings.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..core.coprocessor import OuessantCoprocessor
from ..core.perf import PERF_WINDOW_BYTES
from ..synth.timing import Technology, timing_report
from ..verify.diagnostics import VerifyReport
from .model import (
    PlannedRegion,
    REGISTER_FILE_BYTES,
    SystemModel,
    is_memory_slave,
)

#: slack under this fraction of the clock period is flagged marginal
MARGINAL_SLACK_FRACTION = 0.05


# -- memory-map structure (OU10x) ---------------------------------------

def check_map_plan(
    plan: Sequence[PlannedRegion], report: VerifyReport
) -> None:
    """Overlap / alignment / shadowing over a (possibly broken) plan."""
    for region in plan:
        if region.size <= 0:
            report.add("OU101", None,
                       f"size {region.size:#x} is not positive",
                       where=f"region {region.name!r}")
        elif region.base % 4 or region.size % 4:
            report.add(
                "OU101", None,
                f"base {region.base:#x} / size {region.size:#x} "
                "not word aligned",
                where=f"region {region.name!r}",
            )
    for i, first in enumerate(plan):
        for second in plan[i + 1:]:
            if first.size > 0 and second.size > 0 and \
                    first.overlaps(second):
                report.add(
                    "OU100", None,
                    f"overlaps {second}",
                    where=f"region {first}",
                )
            if first.name == second.name:
                report.add(
                    "OU102", None,
                    f"name {first.name!r} also decodes "
                    f"[{second.base:#010x}, {second.end:#010x}); "
                    "by-name operations bind to the first",
                    where=f"region {first.name!r}",
                )


# -- slave windows & reachability (OU11x) --------------------------------

def check_windows(model: SystemModel, report: VerifyReport) -> None:
    mapped = {id(region.slave) for region in model.regions}
    for slave in model.slave_components:
        if id(slave) not in mapped:
            name = getattr(slave, "name", type(slave).__name__)
            report.add(
                "OU111", None,
                "registered with the simulation kernel but no bus "
                "region decodes to it",
                where=f"component {name!r}",
            )
    for ocp in model.ocps:
        if ocp.region is None:
            continue  # unreachable: already flagged above
        if ocp.region.size < REGISTER_FILE_BYTES:
            report.add(
                "OU110", None,
                f"window is {ocp.region.size} bytes but the register "
                f"file needs {REGISTER_FILE_BYTES}; bank registers "
                f"above offset {ocp.region.size:#x} are unreachable",
                where=ocp.name,
            )
        elif ocp.region.size < PERF_WINDOW_BYTES:
            report.add(
                "OU113", None,
                f"window is {ocp.region.size} bytes: the register file "
                f"fits but the performance counters end at "
                f"{PERF_WINDOW_BYTES}; profiling reads above offset "
                f"{ocp.region.size:#x} return garbage",
                where=ocp.name,
            )
        if ocp.region.base % OuessantCoprocessor.WINDOW_BYTES:
            report.add(
                "OU112", None,
                f"window base {ocp.region.base:#x} is not "
                f"{OuessantCoprocessor.WINDOW_BYTES}-byte aligned",
                where=ocp.name,
            )


# -- driver bank tables (OU12x) ------------------------------------------

def check_banks(
    model: SystemModel,
    report: VerifyReport,
    banks: Mapping[int, int],
    ocp_name: str = "ocp",
) -> None:
    seen_bases: dict = {}
    for bank, address in sorted(banks.items()):
        where = f"{ocp_name} bank {bank}"
        if address % 4:
            report.add(
                "OU121", None,
                f"base {address:#010x} is not word aligned; the bank "
                "register write traps",
                where=where,
            )
            continue
        if address in seen_bases:
            report.add(
                "OU123", None,
                f"base {address:#010x} already bound to bank "
                f"{seen_bases[address]}",
                where=where,
            )
        else:
            seen_bases[address] = bank
        if model.memmap is None:
            continue
        region = model.memmap.find(address)
        if region is None:
            report.add(
                "OU120", None,
                f"base {address:#010x} is not decoded by any bus "
                "slave",
                where=where,
            )
        elif not is_memory_slave(region.slave):
            report.add(
                "OU122", None,
                f"base {address:#010x} lands in register window "
                f"{region} -- transfers clobber control state",
                where=where,
            )


# -- FIFO fabric sizing (OU13x) ------------------------------------------

def check_fabric(model: SystemModel, report: VerifyReport) -> None:
    for ocp in model.ocps:
        if ocp.n_input_fifos != ocp.spec_inputs or \
                ocp.n_output_fifos != ocp.spec_outputs:
            report.add(
                "OU131", None,
                f"fabric has {ocp.n_input_fifos} in / "
                f"{ocp.n_output_fifos} out FIFOs, port spec demands "
                f"{ocp.spec_inputs} in / {ocp.spec_outputs} out",
                where=ocp.name,
            )
            continue
        for port in ocp.fabric:
            where = f"{ocp.name} {port.fifo_name}"
            if port.bus_width != 32:
                report.add(
                    "OU131", None,
                    f"bus-side width is {port.bus_width}, the system "
                    "word is 32",
                    where=where,
                )
            if port.rac_width != port.spec_width:
                report.add(
                    "OU131", None,
                    f"accelerator-side width is {port.rac_width}, the "
                    f"port spec demands {port.spec_width}",
                    where=where,
                )
            if port.depth != port.spec_depth:
                report.add(
                    "OU131", None,
                    f"depth is {port.depth}, the port spec demands "
                    f"{port.spec_depth}",
                    where=where,
                )
        if ocp.items_in is not None and not ocp.autostart:
            for index, appetite in enumerate(ocp.items_in):
                depth = next(
                    (p.depth for p in ocp.fabric
                     if p.direction == "in" and p.index == index),
                    None,
                )
                if depth is not None and appetite > depth:
                    report.add(
                        "OU130", None,
                        f"input port {index} needs {appetite} words "
                        f"per operation but the FIFO holds {depth} "
                        "and the RAC does not autostart: the "
                        "fill-then-start pattern deadlocks",
                        where=ocp.name,
                    )


# -- timing closure (OU14x) ----------------------------------------------

def check_timing(
    model: SystemModel,
    report: VerifyReport,
    technology: Optional[Technology] = None,
) -> None:
    for ocp in model.ocps:
        kwargs = {} if technology is None else {"technology": technology}
        timing = timing_report(
            ocp.ocp, clock_mhz=model.clock_mhz, **kwargs
        )
        if not timing.closes:
            report.add(
                "OU140", None,
                f"cannot close at {model.clock_mhz:.0f} MHz on "
                f"{timing.technology}: critical path "
                f"{timing.critical.component} reaches "
                f"{timing.fmax_mhz:.1f} MHz "
                f"(slack {timing.slack_ns} ns)",
                where=ocp.name,
            )
        else:
            period_ns = 1000.0 / model.clock_mhz
            if timing.slack_ns < MARGINAL_SLACK_FRACTION * period_ns:
                report.add(
                    "OU141", None,
                    f"closes at {model.clock_mhz:.0f} MHz with only "
                    f"{timing.slack_ns} ns slack "
                    f"({timing.critical.component})",
                    where=ocp.name,
                )


# -- coherence (OU15x) ---------------------------------------------------

def check_coherence(model: SystemModel, report: VerifyReport) -> None:
    if not model.caches:
        return
    for ocp in model.ocps:
        snooped = ocp.ocp.interface.snooped_caches
        for index, cache in enumerate(model.caches):
            if cache not in snooped:
                report.add(
                    "OU150", None,
                    f"CPU cache #{index} is not snooped by the "
                    "master engine; reads after an accelerated run "
                    "can return stale lines",
                    where=ocp.name,
                )
    if "dma" in {name for name in model.writeback_masters}:
        report.add(
            "OU150", None,
            "the DMA engine writes memory and has no snoop path; "
            "software must flush the cache around DMA transfers",
            where="dma",
        )


# -- interrupt routing (OU16x) -------------------------------------------

def check_irq(model: SystemModel, report: VerifyReport) -> None:
    for owner, line in model.irq_sources:
        count = sum(1 for l in model.irq_lines if l is line)
        if count == 0:
            report.add(
                "OU160", None,
                "interrupt line is not registered with the "
                "interrupt controller; wfi-based software never "
                "wakes on completion",
                where=owner,
            )
        elif count > 1:
            report.add(
                "OU161", None,
                f"interrupt line is registered {count} times; the "
                "duplicate vectors alias one line",
                where=owner,
            )


# -- throughput closure (OU162/OU163) -------------------------------------

#: worst cases consuming more than this share of the budget are marginal
MARGINAL_BUDGET_FRACTION = 0.90


def check_throughput(
    model: SystemModel,
    report: VerifyReport,
    program: Sequence,
    ocp_index: int,
    budget_cycles: int,
) -> None:
    """Does the firmware's static WCET fit a per-run cycle budget?

    The timing pass (OU14x) closes the *clock*; this closes the
    *throughput*: the cost analyzer's worst-case cycle count for the
    firmware, on the RAC actually hosted by the target OCP and over
    the elaborated bus/memory timing, must fit ``budget_cycles``.
    """
    from ..bus.protocol import AHB
    from ..perfbound import CostModel, bound_program

    if budget_cycles < 1:
        raise ValueError(f"budget_cycles must be >= 1: {budget_cycles}")
    if not 0 <= ocp_index < len(model.ocps):
        return
    ocp_model = model.ocps[ocp_index]
    ocp = ocp_model.ocp
    protocol = (AHB if model.bus_protocol is None
                else model.bus_protocol)
    cost_model = CostModel.of_ocp(ocp, protocol, model.mem_latency)
    bound = bound_program(program, ocp.rac, model=cost_model)
    if not bound.bounded:
        refusals = ", ".join(sorted(set(bound.report.codes()))) or "?"
        report.add(
            "OU162", None,
            f"the firmware has no static cycle bound ({refusals}); "
            f"the {budget_cycles}-cycle throughput budget cannot be "
            "closed",
            where=ocp_model.name,
        )
        return
    wcet = int(bound.total.hi)
    if wcet > budget_cycles:
        report.add(
            "OU162", None,
            f"worst-case firmware cost {wcet} cycles exceeds the "
            f"{budget_cycles}-cycle throughput budget "
            f"(best case {int(bound.total.lo)})",
            where=ocp_model.name,
        )
    elif wcet > MARGINAL_BUDGET_FRACTION * budget_cycles:
        report.add(
            "OU163", None,
            f"worst-case firmware cost {wcet} cycles consumes over "
            f"{100 * MARGINAL_BUDGET_FRACTION:.0f}% of the "
            f"{budget_cycles}-cycle throughput budget",
            where=ocp_model.name,
        )


# -- scheduler capability tables (OU17x) ----------------------------------

def check_capability_kinds(
    kinds: Sequence[str],
    report: VerifyReport,
    capabilities: Mapping[str, Sequence[int]],
) -> None:
    """Validate a kind->OCP routing table against a kind list.

    ``kinds[i]`` is the kernel kind OCP ``i`` serves; the list can
    come from an elaborated SoC (:func:`check_capabilities`) or from a
    *planned* RAC lineup
    (:meth:`repro.sched.capability.CapabilityTable.validate_plan`), so
    routing mistakes surface before elaboration.
    """
    for kind, indices in capabilities.items():
        valid = 0
        for index in indices:
            where = f"capability[{kind!r}]"
            if not 0 <= index < len(kinds):
                report.add(
                    "OU171", None,
                    f"routes to OCP {index}, but only "
                    f"{len(kinds)} OCP(s) are elaborated",
                    where=where,
                )
            elif kinds[index] != kind:
                report.add(
                    "OU171", None,
                    f"routes to OCP {index}, whose RAC serves "
                    f"{kinds[index]!r}",
                    where=where,
                )
            else:
                valid += 1
        if not valid:
            report.add(
                "OU170", None,
                "no elaborated RAC serves this kernel kind; jobs of "
                "this kind can never be dispatched",
                where=f"capability[{kind!r}]",
            )


def check_capabilities(
    model: SystemModel,
    report: VerifyReport,
    capabilities: Mapping[str, Sequence[int]],
) -> None:
    """Validate a kind->OCP routing table against the elaborated SoC.

    The scheduler dispatches by kernel kind; a table naming a kind no
    RAC serves (OU170) or routing to a wrong/absent OCP (OU171) is a
    dispatch-time failure, so both are errors.
    """
    check_capability_kinds(
        [ocp.ocp.rac.kind for ocp in model.ocps], report, capabilities
    )
