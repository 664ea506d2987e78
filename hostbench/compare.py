"""``python -m hostbench compare``: paired runs of two source trees.

    python -m hostbench compare --parent-src A/src --change-src B/src \\
        [--workload W] [--pairs 10] [--seed 0]

Each pair runs the same fixed-size measurement (``run``'s round
counts) once on each tree with the same benchmark code, alternating
which side goes first.  Per workload and end-to-end metric the verdict
is:

``gain``
    the change wins at least 9 of 10 pairs (ties count for neither
    side) and the medians differ by more than the parent's IQR;
``unresolved``
    the parent's own spread exceeds the metric's bound, and not every
    change run beats every parent run;
``regression``
    the change's median is worse than the parent's by more than the
    bound in ``BENCHMARK.json``;
``no regression``
    otherwise.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from .harness import run_workload
from .spec import declared

#: share of pairs the change must win for a gain
WIN_SHARE = 0.9


def verdict(decl: Dict[str, Any], parent: Sequence[float],
            change: Sequence[float]) -> Dict[str, Any]:
    """Judge one metric from paired samples (parent[i] with change[i])."""
    sign = 1.0 if decl["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    iqr = p_q3 - p_q1
    worse = sign * (p_med - c_med) / abs(p_med)
    if sign > 0:
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > iqr:
        outcome = "gain"
    elif iqr / abs(p_med) > decl["bound"] and not separated:
        outcome = "unresolved"
    elif worse > decl["bound"]:
        outcome = "regression"
    else:
        outcome = "no regression"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": wins, "pairs": len(parent), "verdict": outcome,
    }


def compare(parent_src: str, change_src: str, names: Sequence[str],
            pairs: int, seed: int) -> List[Dict[str, Any]]:
    if pairs < 2:
        raise ValueError("need at least 2 pairs for quartiles")
    e2e = declared("end_to_end")
    rows = []
    for name in names:
        samples: Dict[str, List[Dict[str, Any]]] = {"parent": [],
                                                    "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for side in order:
                src = parent_src if side == "parent" else change_src
                samples[side].append(run_workload(name, seed, src=src))
        for metric, decl in e2e.items():
            values = {side: [run["metrics"][metric]["value"]
                             for run in runs]
                      for side, runs in samples.items()}
            rows.append({"workload": name, "metric": metric,
                         **verdict(decl, values["parent"], values["change"])})
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':>36}"
             f" {'change median [q1, q3]':>36} {'wins':>7}  verdict"]
    for row in rows:
        cells = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]"
                 for m, q1, q3 in (row["parent"], row["change"])]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} {cells[0]:>36} "
            f"{cells[1]:>36} {row['wins']:>3}/{row['pairs']:<3}  "
            f"{row['verdict']}")
    return "\n".join(lines)
