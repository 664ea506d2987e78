"""``python -m hostbench check FILE``: validate a result file.

Checks ``BENCHMARK.json`` itself (keys, counts, names, units,
directions, bounds, a golden for every workload) and then every
workload entry of the result: each emitted metric is declared, with
the declared unit and a finite value, a run emits all metrics of a
section it reports, and no op failed.  ``FILE`` is what
``python -m hostbench run --out`` writes, or a file holding several
such results under ``runs`` (the recorded baseline).
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List

from .spec import SPECS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}\Z")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}
#: the largest bound the benchmark contract admits (not the bounds in use)
MAX_BOUND = 0.25


def _entries(bench: Dict[str, Any], section: str, keys: set,
             low: int, high: int, errors: List[str]) -> List[dict]:
    entries = bench.get(section)
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        errors.append(f"{section}: need {low} to {high} entries")
        return []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            errors.append(f"{section}: entry {entry!r} must have keys "
                          f"{sorted(keys)}")
            continue
        if not NAME_RE.match(str(entry["name"])):
            errors.append(f"{section}: bad name {entry['name']!r}")
        if "unit" in keys and not UNIT_RE.match(str(entry["unit"])):
            errors.append(f"{section}: {entry['name']}: bad unit "
                          f"{entry['unit']!r}")
        if "better" in keys and entry["better"] not in ("higher", "lower"):
            errors.append(f"{section}: {entry['name']}: better must be "
                          "'higher' or 'lower'")
    return [entry for entry in entries
            if isinstance(entry, dict) and set(entry) == keys]


def check_benchmark(bench: Dict[str, Any]) -> List[str]:
    """Every way ``BENCHMARK.json`` breaks the benchmark contract."""
    errors: List[str] = []
    if set(bench) != BENCHMARK_KEYS:
        errors.append(f"BENCHMARK.json keys must be {sorted(BENCHMARK_KEYS)}")
    command = bench.get("command")
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200
                       for a in command)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    paths = bench.get("paths")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: need 1 to 16 directories")
    else:
        for path in paths:
            if (not PATH_RE.match(str(path)) or str(path).startswith("/")
                    or ".." in str(path).split("/")):
                errors.append(f"paths: bad path {path!r}")
    run_seconds = bench.get("run_seconds")
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        errors.append("run_seconds: a whole number from 1 to 60")

    workloads = _entries(bench, "workloads", {"name", "why"}, 2, 8, errors)
    for entry in workloads:
        why = str(entry["why"])
        if "\n" in why or not 0 < len(why) <= 200:
            errors.append(f"workloads: {entry['name']}: why must be one "
                          "line of at most 200 characters")
        spec = SPECS.get(entry["name"])
        if spec is None or spec.golden_cycles <= 0:
            errors.append(f"workloads: {entry['name']} has no golden")
    e2e = _entries(bench, "end_to_end", {"name", "unit", "better", "bound"},
                   1, 16, errors)
    for entry in e2e:
        bound = entry["bound"]
        if (not isinstance(bound, (int, float)) or isinstance(bound, bool)
                or not 0 <= bound <= MAX_BOUND):
            errors.append(f"end_to_end: {entry['name']}: bound must be a "
                          f"number from 0 to {MAX_BOUND}")
    setup = [entry for entry in e2e if entry["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end: setup_s in s, lower is better, required")
    elif any(entry["bound"] > setup[0]["bound"] for entry in e2e):
        errors.append("end_to_end: setup_s must have the largest bound")
    per_layer = _entries(bench, "per_layer", {"name", "unit", "better"},
                         1, 128, errors)
    for section, entries in (("workloads", workloads),
                             ("metrics", e2e + per_layer)):
        names = [entry["name"] for entry in entries]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            errors.append(f"{section}: names used twice: {duplicates}")
    return errors


def _check_section(where: str, emitted: Dict[str, Any],
                   declared: Dict[str, dict]) -> List[str]:
    errors = []
    for name, metric in emitted.items():
        if not NAME_RE.match(name):
            errors.append(f"{where}: bad metric name {name!r}")
        if name not in declared:
            errors.append(f"{where}: {name} is not declared in "
                          "BENCHMARK.json")
            continue
        if metric.get("unit") != declared[name]["unit"]:
            errors.append(f"{where}: {name} has unit {metric.get('unit')!r}"
                          f", declared {declared[name]['unit']!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} is not finite")
    missing = sorted(set(declared) - set(emitted))
    if emitted and missing:
        errors.append(f"{where}: declared but not emitted: {missing}")
    return errors


def check_result(result: Dict[str, Any], bench: Dict[str, Any]) -> List[str]:
    """Every way a result breaks the declarations in ``bench``."""
    errors = check_benchmark(bench)
    sections = {
        "metrics": {entry["name"]: entry for entry in bench["end_to_end"]},
        "layers": {entry["name"]: entry for entry in bench["per_layer"]},
    }
    workloads = {entry["name"] for entry in bench["workloads"]}
    for index, run in enumerate(result.get("runs", [result])):
        for name, entry in run.get("workloads", {}).items():
            where = f"run {index}: {name}"
            if name not in workloads:
                errors.append(f"{where}: workload is not declared")
            for section, declared in sections.items():
                errors += _check_section(f"{where}: {section}",
                                         entry.get(section, {}), declared)
            if entry.get("failed") or entry.get("trace_failed"):
                errors.append(f"{where}: failed ops")
            if entry.get("matches_untraced") is False:
                errors.append(f"{where}: traced run differs from untraced")
        if not run.get("workloads"):
            errors.append(f"run {index}: no workloads")
    return errors


def main(path: str, bench: Dict[str, Any]) -> int:
    with open(path, encoding="utf-8") as handle:
        errors = check_result(json.load(handle), bench)
    for error in errors:
        print(f"check: {error}")
    print(f"check: {path}: " + ("ok" if not errors else
                                f"{len(errors)} problem(s)"))
    return 1 if errors else 0
