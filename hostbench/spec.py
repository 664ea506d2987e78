"""Workload table and goldens shared by every hostbench process.

Nothing here imports ``repro``: the parent process, ``check`` and
``compare`` must run -- and fail cleanly -- where the package under
test cannot be imported.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, Tuple

#: the package directory; span files and scratch output go to ``out/``
HERE = pathlib.Path(__file__).resolve().parent
#: the checkout root holding ``BENCHMARK.json`` and ``src/``
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Table I as EXPERIMENTS.md T1 records it: (name, Lat., HW, SW)
TABLE_ONE_ROWS: Tuple[Tuple[str, int, int, int], ...] = (
    ("IDCT", 18, 3293, 5309),
    ("DFT", 2485, 6935, 1_511_186),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and goldens of one workload.

    A *unit* is what one timed call executes: one table, one
    transform, one image, or one whole 768-job stream.  ``rounds`` is
    the fixed run length of ``python -m hostbench run``;
    ``trace_rounds`` that of the traced run.
    """

    name: str
    op: str
    ops_per_unit: int
    units_per_round: int
    rounds: int
    trace_rounds: int
    #: exact simulated cycles of one unit
    golden_cycles: int


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # SW DFT + SW IDCT + HW rows: sum of the T1 HW and SW columns
        WorkloadSpec("table1", "table", 1, 1, 6, 1,
                     sum(hw + sw for _, _, hw, sw in TABLE_ONE_ROWS)),
        # EXPERIMENTS.md F4 / C1: Figure 4 baremetal
        WorkloadSpec("fig4_dft", "transform", 1, 100, 20, 1, 3935),
        # 256 blocks x 3293 (T1 IDCT HW) + 2500 open/mmap per session
        WorkloadSpec("jpeg_linux", "image", 1, 3, 10, 1, 256 * 3293 + 2500),
        WorkloadSpec("sched_mpsoc8", "job", 768, 1, 12, 2, 51_254),
    )
}


def load_benchmark() -> dict:
    """The declared contract (``BENCHMARK.json`` at the checkout root)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared(section: str) -> Dict[str, dict]:
    """``BENCHMARK.json`` metric declarations of one section, by name."""
    return {entry["name"]: entry for entry in load_benchmark()[section]}
