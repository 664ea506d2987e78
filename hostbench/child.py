"""Child process: one workload in a fresh interpreter, no threads.

    python -m hostbench.child '{"mode": "measure", "name": "fig4_dft",
                                "seed": 0, "rounds": 10}'

prints one JSON object as the last line of standard output.  Modes:

``measure``
    import ``repro``, build the system, run one untimed warm-up op
    (the set-up), then ``rounds`` timed rounds on the inputs of rounds
    ``first``, ``first + 1``, ..., all under a
    :class:`~hostbench.hostspeed.Sampler`.
``trace``
    setup, the traced-run rounds untraced as the reference, then the
    same rounds on a fresh system under :class:`~hostbench.tracer.Tracer`.

Only :attr:`~hostbench.workloads.Unit.run` is timed; inputs, goldens,
output checks and garbage collection between rounds are not.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import pathlib
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import hostspeed
from .spec import OUT_DIR, ROOT, SPECS


@dataclass
class Outcome:
    """One executed unit."""

    round: int
    #: net wall seconds (see :mod:`hostbench.hostspeed`)
    seconds: float
    #: host speed measured during the unit's round; 1.0 when unmeasured
    speed: float
    ops: int
    cycles: int
    failed: int
    output: Any = None


def setup(name: str, seed: int, workload: Any = None, sampler: Any = None):
    """Import ``repro``, build the system and warm up; time each step.

    ``workload`` substitutes a prepared instance (the self-tests use
    it for smoke sizes and wrong goldens).  With a ``sampler`` the
    times also hold the whole set-up in nominal seconds, and the host
    speed that scaled it.
    """
    if sampler is not None:
        sampler.begin()
    start = perf_counter()
    module = importlib.import_module("hostbench.workloads")
    imported = perf_counter()
    workload = workload or module.get(name)
    system = workload.build()
    built = perf_counter()
    workload.warmup(system, seed)
    warm = perf_counter()
    times = {
        "import_s": imported - start,
        "build_s": built - imported,
        "warmup_s": warm - built,
    }
    if sampler is not None:
        spent, loops = sampler.end()
        times["speed"] = hostspeed.speed(spent, loops)
        times["nominal_s"] = (warm - start - spent) * times["speed"]
    gc.collect()
    return workload, system, times


def _execute(unit: Any, tracer: Any, record: bool, sampler: Any):
    """Run one unit: its net seconds (wall time less the sampler's),
    the sampler's seconds and loops, output and simulated cycles."""
    if tracer is not None:
        tracer.begin(record)
    if sampler is not None:
        sampler.begin()
    start = perf_counter()
    try:
        output, cycles = unit.run()
    except Exception:  # an op that raises is a failed op; the run goes on
        elapsed = perf_counter() - start
        output, cycles = None, None
        print(traceback.format_exc(), file=sys.stderr)
    else:
        elapsed = perf_counter() - start
    spent, loops = sampler.end() if sampler is not None else (0.0, 0)
    if tracer is not None:
        tracer.end(elapsed, unit.ops)
    return elapsed - spent, spent, loops, output, cycles


def run_rounds(
    workload: Any,
    system: Any,
    seed: int,
    rounds: int,
    tracer: Any = None,
    keep_outputs: bool = False,
    first: int = 0,
    sampler: Any = None,
) -> List[Outcome]:
    """Run ``rounds`` rounds on the inputs of rounds ``first``,
    ``first + 1``, ...; with a ``sampler``, measure the host speed
    during each round's units."""
    outcomes: List[Outcome] = []
    for index in range(first, first + rounds):
        units = workload.round(system, seed, index)
        done = []
        spent, loops = 0.0, 0
        for position, unit in enumerate(units):
            record = (tracer is not None and index == first
                      and position == 0)
            seconds, unit_spent, unit_loops, output, cycles = _execute(
                unit, tracer, record, sampler)
            spent += unit_spent
            loops += unit_loops
            failed = (unit.ops if cycles is None
                      else unit.failures(output, cycles))
            done.append((seconds, unit.ops, cycles or 0, failed,
                         output if keep_outputs else None))
        # per-round systems are garbage with reference cycles: collect
        # them here so peak RSS does not depend on collector timing
        del units
        gc.collect()
        speed = (hostspeed.speed(spent, loops) if sampler is not None
                 else 1.0)
        outcomes.extend(Outcome(index, seconds, speed, *rest)
                        for seconds, *rest in done)
    return outcomes


def round_records(outcomes: Sequence[Outcome]) -> List[Dict[str, Any]]:
    """Per-round sums of net wall and nominal time, ops, simulated
    cycles and failures."""
    records: Dict[int, Dict[str, Any]] = {}
    for outcome in outcomes:
        record = records.setdefault(outcome.round, {
            "seconds": 0.0, "nominal_s": 0.0, "ops": 0, "cycles": 0,
            "failed": 0})
        record["seconds"] += outcome.seconds
        record["nominal_s"] += outcome.seconds * outcome.speed
        record["ops"] += outcome.ops
        record["cycles"] += outcome.cycles
        record["failed"] += outcome.failed
    return [records[index] for index in sorted(records)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(
    name: str,
    seed: int,
    rounds: int,
    first: int = 0,
    workload: Any = None,
) -> Dict[str, Any]:
    with hostspeed.Sampler() as sampler:
        workload, system, times = setup(name, seed, workload, sampler)
        outcomes = run_rounds(workload, system, seed, rounds, first=first,
                              sampler=sampler)
    return {
        "setup": times,
        "rounds": round_records(outcomes),
        "peak_rss_mb": _peak_rss_mb(),
    }


def trace(
    name: str,
    seed: int,
    spans_path: Optional[str] = None,
    extra: Sequence[Tuple[str, str, str]] = (),
    workload: Any = None,
) -> Dict[str, Any]:
    from .tracer import Tracer

    workload, system, times = setup(name, seed, workload)
    from .workloads import same  # imported by setup, with repro

    rounds = SPECS[name].trace_rounds
    reference = run_rounds(workload, system, seed, rounds,
                           keep_outputs=True)
    del system
    gc.collect()
    with Tracer(extra=[tuple(target) for target in extra]) as tracer:
        tracer.calibrate()
        traced = run_rounds(workload, workload.build(), seed, rounds,
                            tracer=tracer, keep_outputs=True)
    matches = len(traced) == len(reference) and all(
        a.cycles == b.cycles and same(a.output, b.output)
        for a, b in zip(reference, traced)
    )
    untraced_op_s = statistics.median(o.seconds / o.ops for o in reference)
    layers = tracer.report(times, untraced_op_s)
    document = tracer.span_document(name)
    path = pathlib.Path(spans_path or OUT_DIR / f"{name}.trace.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
    everything = reference + traced
    return {
        "attempted": sum(o.ops for o in everything),
        "failed": sum(o.failed for o in everything),
        "matches_untraced": matches,
        "cycles": [o.cycles for o in traced],
        "layers": layers,
        "missing": tracer.missing,
        "spans": {"path": os.path.relpath(path, ROOT), **{
            key: document["otherData"][key]
            for key in ("spans", "truncated", "dropped")}},
    }


def main(argv: Sequence[str]) -> int:
    request = json.loads(argv[1])
    mode = request.pop("mode")
    if mode == "measure":
        result = measure(**request)
    elif mode == "trace":
        result = trace(**request)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
