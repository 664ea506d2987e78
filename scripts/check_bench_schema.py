#!/usr/bin/env python
"""Validate a ``BENCH_simulator.json`` bench artifact.

CI gate (the ``bench-artifact`` job): the artifact is a contract for
downstream dashboards, so its shape is checked field by field:

* top level: ``bench == "simulator"`` plus a ``workloads`` list whose
  rows carry the :class:`repro.bench.BenchResult` fields (kernel
  counters as non-negative integers with ``ticked + skipped ==
  cycles`` and ``batched <= ticked``; attribution, when present,
  satisfying transfer+compute+control == total; perfbound check, when
  present, sound: measured cycles inside the statically predicted
  ``[lo, hi]``);
* the optional ``mpsoc`` section: sweep parameters plus a scaling
  curve of per-OCP-count points, strictly increasing in OCP count,
  each with ``batched <= ticked <= cycles``, and the smallest point
  pinned at ``speedup_vs_1 == 1.0``;
* ``--require-mpsoc`` makes the section mandatory and
  ``--min-mpsoc-speedup X`` fails the gate if the largest point's
  aggregate throughput regresses below ``X`` times the 1-OCP baseline;
* ``--baseline PATH`` requires the fresh artifact to equal the
  committed one exactly and names every JSON path that differs.  The
  artifact holds no host-dependent field, so any difference is a
  change in simulated behaviour or in the fast schedule's work (a lost
  skip or batch window shows up as more ticked or fewer batched
  cycles); a deliberate change regenerates the committed file.

Reads stdin by default (pipe the CLI into it) or a file argument.
A *missing* artifact file is itself a failure: the artifact is the
deliverable, so "nothing to check" must not pass the gate.
Exits non-zero with one line per violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOAD_FIELDS = (
    "workload", "cycles", "ticked", "skipped", "skip_windows", "batched",
    "skip_ratio", "attribution", "perfbound",
)
#: per-workload kernel counters: non-negative integers
COUNTER_FIELDS = ("cycles", "ticked", "skipped", "skip_windows", "batched")
PERFBOUND_FIELDS = (
    "predicted_lo", "predicted_hi", "measured", "tightness", "sound",
)
MPSOC_FIELDS = (
    "workload", "jobs", "job_words", "compute_latency", "batch_jobs",
    "clock_mhz", "points",
)
POINT_FIELDS = (
    "ocps", "jobs", "cycles", "ops_per_sec", "words_per_cycle",
    "speedup_vs_1", "utilization", "ticked", "batched",
)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_fields(obj: dict, fields: tuple, label: str) -> list:
    problems = []
    missing = [f for f in fields if f not in obj]
    extra = [f for f in obj if f not in fields]
    if missing:
        problems.append(f"{label}: missing fields {missing}")
    if extra:
        problems.append(f"{label}: unknown fields {extra}")
    return problems


def check_workload(row: object, label: str) -> list:
    if not isinstance(row, dict):
        return [f"{label}: not a JSON object"]
    problems = _check_fields(row, WORKLOAD_FIELDS, label)
    if not isinstance(row.get("workload"), str):
        problems.append(f"{label}: workload is not a string")
    counters_ok = True
    for field in COUNTER_FIELDS:
        value = row.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{label}: {field} is {value!r}")
            counters_ok = False
    if counters_ok:
        # a batch lane counted once per lane instead of once per cycle
        # would break these
        if row["ticked"] + row["skipped"] != row["cycles"]:
            problems.append(
                f"{label}: ticked {row['ticked']} + skipped "
                f"{row['skipped']} != cycles {row['cycles']}"
            )
        if row["batched"] > row["ticked"]:
            problems.append(
                f"{label}: batched {row['batched']} exceeds ticked "
                f"{row['ticked']}"
            )
    if "skip_ratio" in row and not _is_number(row["skip_ratio"]):
        problems.append(f"{label}: skip_ratio is not a number")
    attribution = row.get("attribution")
    if attribution is not None and isinstance(attribution, dict):
        try:
            summed = (attribution["transfer_cycles"]
                      + attribution["compute_cycles"]
                      + attribution["control_cycles"])
            if summed != attribution["total_cycles"]:
                problems.append(
                    f"{label}: attribution buckets sum to {summed}, "
                    f"not total_cycles {attribution['total_cycles']}"
                )
        except (KeyError, TypeError):
            problems.append(f"{label}: attribution is malformed")
    elif attribution is not None:
        problems.append(f"{label}: attribution is neither null nor object")
    perfbound = row.get("perfbound")
    if perfbound is not None and isinstance(perfbound, dict):
        problems.extend(
            _check_fields(perfbound, PERFBOUND_FIELDS,
                          f"{label}.perfbound")
        )
        lo = perfbound.get("predicted_lo")
        hi = perfbound.get("predicted_hi")
        measured = perfbound.get("measured")
        if perfbound.get("sound") is not True:
            problems.append(
                f"{label}: perfbound check is not sound "
                f"(measured cycles escaped the static bound)"
            )
        if _is_number(lo) and _is_number(measured) and measured < lo:
            problems.append(
                f"{label}: measured {measured} under predicted_lo {lo}"
            )
        if _is_number(hi) and _is_number(measured) and measured > hi:
            problems.append(
                f"{label}: measured {measured} over predicted_hi {hi}"
            )
    elif perfbound is not None:
        problems.append(f"{label}: perfbound is neither null nor object")
    return problems


def check_mpsoc(section: object, min_speedup: float | None) -> list:
    label = "mpsoc"
    if not isinstance(section, dict):
        return [f"{label}: not a JSON object"]
    problems = _check_fields(section, MPSOC_FIELDS, label)
    points = section.get("points")
    if not isinstance(points, list) or not points:
        problems.append(f"{label}: points is not a non-empty list")
        return problems
    last_ocps = 0
    for index, point in enumerate(points):
        plabel = f"{label}.points[{index}]"
        if not isinstance(point, dict):
            problems.append(f"{plabel}: not a JSON object")
            continue
        problems.extend(_check_fields(point, POINT_FIELDS, plabel))
        for field in POINT_FIELDS:
            if field in point and not _is_number(point[field]):
                problems.append(f"{plabel}: {field} is not a number")
        ocps = point.get("ocps")
        if isinstance(ocps, int) and not isinstance(ocps, bool):
            if ocps <= last_ocps:
                problems.append(
                    f"{plabel}: ocps {ocps} does not increase "
                    f"(previous {last_ocps})"
                )
            last_ocps = ocps
        cycles = point.get("cycles")
        if _is_number(cycles) and cycles <= 0:
            problems.append(f"{plabel}: cycles {cycles!r} not positive")
        ticked = point.get("ticked")
        batched = point.get("batched")
        if (_is_number(cycles) and _is_number(ticked)
                and _is_number(batched)
                and not batched <= ticked <= cycles):
            problems.append(
                f"{plabel}: expected batched <= ticked <= cycles, got "
                f"{batched} / {ticked} / {cycles}"
            )
    if problems:
        return problems
    if abs(points[0]["speedup_vs_1"] - 1.0) > 1e-9:
        problems.append(
            f"{label}: smallest point has speedup_vs_1 = "
            f"{points[0]['speedup_vs_1']}, expected 1.0"
        )
    if min_speedup is not None:
        top = points[-1]
        if top["speedup_vs_1"] < min_speedup:
            problems.append(
                f"{label}: {top['ocps']}-OCP aggregate throughput is "
                f"{top['speedup_vs_1']:.2f}x the 1-OCP baseline, below "
                f"the committed floor of {min_speedup:g}x"
            )
    return problems


def check_against_baseline(payload: object, baseline: object,
                           path: str = "") -> list:
    """Exact-equality gate vs the committed artifact: one line per JSON
    path whose value differs, appeared or disappeared."""
    where = path or "<root>"
    if isinstance(payload, dict) and isinstance(baseline, dict):
        problems = []
        for key in sorted(set(payload) | set(baseline)):
            sub = f"{path}.{key}" if path else key
            if key not in payload:
                problems.append(f"baseline: {sub} missing from the fresh "
                                f"artifact")
            elif key not in baseline:
                problems.append(f"baseline: {sub} not in the committed "
                                f"artifact")
            else:
                problems.extend(
                    check_against_baseline(payload[key], baseline[key], sub)
                )
        return problems
    if isinstance(payload, list) and isinstance(baseline, list):
        if len(payload) != len(baseline):
            return [f"baseline: {where} has {len(payload)} entries, the "
                    f"committed artifact {len(baseline)}"]
        problems = []
        for index, (new, old) in enumerate(zip(payload, baseline)):
            problems.extend(
                check_against_baseline(new, old, f"{path}[{index}]")
            )
        return problems
    if type(payload) is not type(baseline) or payload != baseline:
        return [f"baseline: {where} is {payload!r}, committed "
                f"{baseline!r}"]
    return []


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?",
                        help="artifact path (default: stdin)")
    parser.add_argument("--require-mpsoc", action="store_true",
                        help="fail if the mpsoc section is absent")
    parser.add_argument("--min-mpsoc-speedup", type=float, default=None,
                        help="largest-point speedup_vs_1 floor")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="committed artifact the fresh one must "
                             "equal exactly")
    args = parser.parse_args(argv[1:])

    if args.report:
        if not os.path.exists(args.report):
            print(
                f"bench artifact missing: {args.report} was not "
                f"produced (the bench must write it, not just pass)",
                file=sys.stderr,
            )
            return 1
        with open(args.report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(sys.stdin)

    problems = []
    if not isinstance(payload, dict):
        problems.append("input: not a JSON object")
    else:
        if payload.get("bench") != "simulator":
            problems.append(
                f"input: bench is {payload.get('bench')!r}, "
                f"expected 'simulator'"
            )
        workloads = payload.get("workloads")
        if not isinstance(workloads, list):
            problems.append("input: workloads is not a list")
        else:
            for index, row in enumerate(workloads):
                name = (row.get("workload", index)
                        if isinstance(row, dict) else index)
                problems.extend(check_workload(row, f"workload[{name}]"))
        if "mpsoc" in payload:
            problems.extend(
                check_mpsoc(payload["mpsoc"], args.min_mpsoc_speedup)
            )
        elif args.require_mpsoc:
            problems.append("input: mpsoc section is missing")
        if args.baseline is not None:
            if not os.path.exists(args.baseline):
                problems.append(
                    f"baseline: committed artifact {args.baseline} not "
                    f"found (commit BENCH_simulator.json alongside the "
                    f"code)"
                )
            else:
                with open(args.baseline, "r", encoding="utf-8") as handle:
                    problems.extend(
                        check_against_baseline(payload, json.load(handle))
                    )

    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        n_points = len(payload.get("mpsoc", {}).get("points", []))
        print(
            f"bench schema ok ({len(payload.get('workloads', []))} "
            f"workload(s), {n_points} mpsoc point(s))"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
