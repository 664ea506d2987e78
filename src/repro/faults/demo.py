"""The ``repro faults`` demonstrations.

Two stories, both scripted against :mod:`repro.faults.harness`:

1. **Replay determinism** -- the same seed produces the same fault
   plan, and two fault-injected runs of the same workload produce
   identical ``fault.*`` trace histories.  Debugging an injected
   failure is therefore always possible offline.
2. **Detection and degradation** -- a plan that hangs the accelerator
   forever: the controller watchdog traps the hung ``exec``, the
   driver times out/retries with backoff, then declares the OCP dead
   and falls back to the software path, which still produces the
   right answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.program import bank_addresses, streaming_program
from ..rac.scale import PassthroughRac
from ..sw.driver import OuessantDriver, RecoveryResult
from ..system import RAM_BASE
from .harness import build_faulty_soc, fault_signature
from .plan import FaultEvent, FaultKind, FaultPlan

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000
BANKS = bank_addresses(PROG, [IN], [OUT])

BLOCK = 16


def _program() -> List[int]:
    # exec (not execs): the controller waits on end_op, which is what
    # the hung-accelerator scenario needs to actually wedge
    return streaming_program([BLOCK], [BLOCK], blocking_exec=True).words()


def _run_once(plan: FaultPlan) -> "tuple[List[str], List[int]]":
    """One fault-injected loopback run; returns (signature, output)."""
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan, watchdog_cycles=2000
    )
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    driver.run_with_recovery(
        _program(), BANKS, timeout_cycles=20_000
    )
    return fault_signature(soc.sim.trace), soc.read_ram(OUT, BLOCK)


@dataclass
class ReplayReport:
    """Outcome of the determinism demonstration."""

    plan: FaultPlan
    signature: List[str]
    identical: bool


def demo_replay(seed: int) -> ReplayReport:
    """Run the same seeded plan twice; fault histories must match."""
    # a loopback run makes only a handful of RAM bursts (microcode
    # prefetch + one read burst + one write burst), so keep indices low
    plan = FaultPlan.random(
        seed,
        n_events=6,
        sites=("ram",),
        kinds=(FaultKind.BIT_FLIP, FaultKind.SLAVE_ERROR, FaultKind.STALL),
        max_index=3,
    )
    first, _ = _run_once(plan)
    second, _ = _run_once(plan)
    return ReplayReport(
        plan=plan, signature=first, identical=first == second
    )


@dataclass
class DegradationReport:
    """Outcome of the watchdog/retry/fallback demonstration."""

    recovery: RecoveryResult
    watchdog_traps: int
    driver_events: List[str]
    output_correct: bool


def demo_degradation(seed: int = 0) -> DegradationReport:
    """Hang the accelerator forever; end-to-end recovery must engage.

    The fallback is the honest software equivalent of the loopback
    workload: a CPU copy loop (:func:`software_memcpy`) moving the
    same words the OCP would have.
    """
    from ..baselines.software import software_memcpy

    plan = FaultPlan(
        seed=seed,
        events=[FaultEvent(FaultKind.HANG_EXEC, "rac", index=0,
                           duration=0)],
    )
    soc = build_faulty_soc(
        PassthroughRac(block_size=BLOCK), plan, watchdog_cycles=1500
    )
    driver = OuessantDriver(soc)
    data = list(range(BLOCK))
    soc.write_ram(IN, data)

    def fallback() -> List[int]:
        out, _ = software_memcpy(data)
        soc.write_ram(OUT, out)
        return out

    recovery = driver.run_with_recovery(
        _program(),
        BANKS,
        max_attempts=2,
        timeout_cycles=20_000,
        backoff_cycles=32,
        fallback=fallback,
    )
    trace = soc.sim.trace
    traps = trace.events(event="trap")
    driver_events = [
        f"{e.event}({', '.join(f'{k}={v}' for k, v in e.data.items())})"
        for e in trace.events(component="driver")
        # op.begin/op.end are span markers for the observability
        # layer; the recovery narrative reads better without them
        if not e.event.startswith("op.")
    ]
    return DegradationReport(
        recovery=recovery,
        watchdog_traps=len(traps),
        driver_events=driver_events,
        output_correct=soc.read_ram(OUT, BLOCK) == data,
    )


def render_report(seed: int) -> str:
    """Text rendering of both demonstrations (the CLI's output)."""
    lines: List[str] = []
    replay = demo_replay(seed)
    lines.append(replay.plan.describe())
    lines.append("")
    lines.append(f"run 1 / run 2 fault history "
                 f"({len(replay.signature)} events):")
    lines.extend(f"  {entry}" for entry in replay.signature)
    lines.append(
        "replay identical: " + ("YES" if replay.identical else "NO")
    )
    lines.append("")
    degraded = demo_degradation(seed)
    lines.append("hung-exec scenario (end_op suppressed forever):")
    lines.append(f"  watchdog traps:     {degraded.watchdog_traps}")
    lines.append(f"  driver attempts:    {degraded.recovery.attempts}")
    lines.append(f"  degraded to SW:     {degraded.recovery.degraded}")
    lines.append(f"  output correct:     {degraded.output_correct}")
    for event in degraded.driver_events:
        lines.append(f"  driver: {event}")
    return "\n".join(lines)
