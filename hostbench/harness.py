"""Parent-process side: spawn the children of a run, aggregate.

The parent never imports ``repro``.  Children run one at a time, each
in a fresh interpreter with ``PYTHONPATH`` set to the ``src`` directory
under test, so two source trees can be compared with identical
benchmark code (see :mod:`hostbench.compare`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .spec import ROOT, SPECS

#: most children per run (fewer when a run has fewer rounds).  Each
#: sets up from scratch and measures its share of the rounds, so
#: ``setup_s`` is a median of fresh starts, and per-process luck (hash
#: seeds, heap layout) averages out instead of setting a whole run's
#: throughput.
CHILDREN = 5
#: a run must end within this many seconds, children included
RUN_DEADLINE_S = 170

#: end-to-end metrics: name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "sim_cycles_per_s": "cycle/s",
    "peak_rss_mb": "MB",
}


class HostbenchError(RuntimeError):
    """A child failed or the checkout cannot be benchmarked."""


def run_child(
    request: Dict[str, Any],
    src: Optional[str] = None,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Run ``python -m hostbench.child`` and parse its last stdout line."""
    src_dir = os.path.abspath(src or ROOT / "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        raise HostbenchError(f"no repro package under {src_dir}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hostbench.child", json.dumps(request)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HostbenchError(
            f"{request['mode']} child of {request['name']} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise HostbenchError(
            f"{request['mode']} child of {request['name']} exited with "
            f"code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles (``statistics.quantiles``, n=4) and n."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def measurement_result(measured: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one run from its children's reports.

    Times are nominal seconds (:mod:`hostbench.hostspeed`).  The host
    speed that scaled them is reported beside, as ``host_speed``.
    """
    setups = [child["setup"] for child in measured]
    rounds = [r for child in measured for r in child["rounds"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "attempted": attempted,
        "failed": failed,
        "op_error_rate": failed / attempted,
        "metrics": {
            "setup_s": summarize([s["nominal_s"] for s in setups],
                                 E2E_UNITS["setup_s"]),
            "ops_per_s": summarize(
                [r["ops"] / r["nominal_s"] for r in rounds],
                E2E_UNITS["ops_per_s"]),
            "sim_cycles_per_s": summarize(
                [r["cycles"] / r["nominal_s"] for r in rounds],
                E2E_UNITS["sim_cycles_per_s"]),
            "peak_rss_mb": summarize(
                [child["peak_rss_mb"] for child in measured],
                E2E_UNITS["peak_rss_mb"]),
        },
        "host_speed": summarize(
            [r["nominal_s"] / r["seconds"] for r in rounds]
            + [s["speed"] for s in setups], "x"),
    }


def trace_result(traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of one traced run from its child's report."""
    from .tracer import layer_metrics

    units = {name: unit for name, unit, _ in layer_metrics()}
    return {
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "matches_untraced": traced["matches_untraced"],
        "layers": {name: {"value": value, "unit": units[name]}
                   for name, value in traced["layers"].items()},
        "trace": {"missing": traced["missing"], **traced["spans"]},
    }


def shares(rounds: int) -> List[Dict[str, int]]:
    """Split rounds ``0 .. rounds - 1`` into consecutive runs of rounds,
    one per child: at most :data:`CHILDREN` children, none empty."""
    children = min(CHILDREN, rounds)
    result = []
    first = 0
    for index in range(children):
        count = rounds // children + int(index < rounds % children)
        result.append({"rounds": count, "first": first})
        first += count
    return result


def run_workload(
    name: str, seed: int, src: Optional[str] = None
) -> Dict[str, Any]:
    """One untraced run of the workload's fixed size
    (``SPECS[name].rounds``), shared out over the children."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    return measurement_result([
        run_child({"mode": "measure", "name": name, "seed": seed, **share},
                  src, deadline)
        for share in shares(SPECS[name].rounds)
    ])


def trace_workload(
    name: str, seed: int, src: Optional[str] = None
) -> Dict[str, Any]:
    """One traced run, of the fixed traced-run size."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    return trace_result(run_child(
        {"mode": "trace", "name": name, "seed": seed}, src, deadline))


def summary_line(result: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The one-line summary: correctness, op counts, bare metric values."""
    metrics = result["layers"] if traced else result["metrics"]
    correct = result["failed"] == 0 and result.get("matches_untraced", True)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }


def environment() -> Dict[str, Any]:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def combine(run: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's result-file entry from its two runs."""
    entry = dict(run)
    entry.update({key: traced[key] for key in
                  ("layers", "trace", "matches_untraced")})
    entry["trace_failed"] = traced["failed"]
    return entry


def run_all(seed: int, names: Sequence[str]) -> Dict[str, Any]:
    """``python -m hostbench run``: every workload at its fixed size,
    untraced then traced; prints each metric as it lands."""
    result: Dict[str, Any] = {"seed": seed, **environment(), "workloads": {}}
    for name in names:
        entry = combine(run_workload(name, seed), trace_workload(name, seed))
        result["workloads"][name] = entry
        print(render_workload(name, entry), flush=True)
    return result


def render_workload(name: str, entry: Dict[str, Any]) -> str:
    lines = [
        f"== {name}: {entry['attempted']} ops (op = one "
        f"{SPECS[name].op}), {entry['failed']} failed "
        f"(op_error_rate {entry['op_error_rate']:.4g}); traced run "
        f"{'matches' if entry['matches_untraced'] else 'DIFFERS FROM'} "
        f"untraced; missing hooks: {entry['trace']['missing'] or 'none'}",
    ]
    for metric, m in [*entry["metrics"].items(),
                      ("host_speed", entry["host_speed"])]:
        lines.append(
            f"  {metric:<40} {m['value']:>14.6g} {m['unit']:<8} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]")
    for metric, m in entry["layers"].items():
        lines.append(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  spans: {entry['trace']['path']} "
                 f"({entry['trace']['spans']} kept, "
                 f"{entry['trace']['dropped']} dropped)")
    return "\n".join(lines)
