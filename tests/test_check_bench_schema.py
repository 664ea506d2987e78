"""The bench artifact's CI gate: ``scripts/check_bench_schema.py``.

The artifact holds no host-dependent field, so ``--baseline`` requires
the fresh artifact to equal the committed one exactly.
"""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "BENCH_simulator.json"

_spec = importlib.util.spec_from_file_location(
    "check_bench_schema", ROOT / "scripts" / "check_bench_schema.py")
schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(schema)


@pytest.fixture
def artifact():
    return json.loads(COMMITTED.read_text())


def test_committed_artifact_passes_the_schema():
    assert schema.main(["check", str(COMMITTED), "--require-mpsoc",
                        "--min-mpsoc-speedup", "5.0"]) == 0


def test_identical_artifact_passes_the_baseline_gate(artifact):
    assert schema.check_against_baseline(copy.deepcopy(artifact),
                                         artifact) == []
    assert schema.main(["check", str(COMMITTED),
                        "--baseline", str(COMMITTED)]) == 0


def test_changed_counter_fails_and_names_its_path(artifact, tmp_path,
                                                  capsys):
    fresh = copy.deepcopy(artifact)
    index = [row["workload"] for row in fresh["workloads"]].index("dft")
    fresh["workloads"][index]["batched"] -= 1
    problems = schema.check_against_baseline(fresh, artifact)
    assert len(problems) == 1
    assert f"workloads[{index}].batched" in problems[0]
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(fresh))
    assert schema.main(["check", str(path),
                        "--baseline", str(COMMITTED)]) == 1
    assert f"workloads[{index}].batched" in capsys.readouterr().err


def test_added_removed_and_retyped_fields_fail(artifact):
    fresh = copy.deepcopy(artifact)
    del fresh["mpsoc"]["points"][0]["ticked"]
    fresh["mpsoc"]["points"][1]["host_seconds"] = 0.1
    fresh["workloads"][0]["cycles"] = float(fresh["workloads"][0]["cycles"])
    problems = "\n".join(schema.check_against_baseline(fresh, artifact))
    assert "mpsoc.points[0].ticked missing" in problems
    assert "mpsoc.points[1].host_seconds not in the committed" in problems
    assert "workloads[0].cycles" in problems
    fresh["workloads"].pop()
    assert any("workloads has" in line for line in
               schema.check_against_baseline(fresh, artifact))


def test_missing_baseline_fails(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert schema.main(["check", str(COMMITTED),
                        "--baseline", str(missing)]) == 1
    assert "not found" in capsys.readouterr().err


def test_counter_invariants_hold_on_the_committed_artifact(artifact):
    for row in artifact["workloads"]:
        assert schema.check_workload(row, row["workload"]) == []
    assert schema.check_mpsoc(artifact["mpsoc"], 5.0) == []


@pytest.mark.parametrize("field, delta, message", [
    ("ticked", 1, "ticked .* != cycles"),
    ("skipped", -1, "ticked .* != cycles"),
    ("batched", None, "batched .* exceeds ticked"),
])
def test_workload_counter_invariants_fail(artifact, field, delta, message):
    row = copy.deepcopy(artifact["workloads"][0])
    row[field] = row["ticked"] + 1 if delta is None else row[field] + delta
    problems = schema.check_workload(row, "w")
    assert len(problems) == 1
    assert re.search(message, problems[0])


@pytest.mark.parametrize("field, value", [
    ("batched", "ticked+1"),
    ("ticked", "cycles+1"),
])
def test_mpsoc_point_counter_invariants_fail(artifact, field, value):
    """A lane counted once per lane, not once per cycle, would push
    ``batched`` past ``ticked`` on the multi-OCP points."""
    section = copy.deepcopy(artifact["mpsoc"])
    point = section["points"][-1]
    base, _ = value.split("+")
    point[field] = point[base] + 1
    problems = schema.check_mpsoc(section, None)
    assert len(problems) == 1
    assert "batched <= ticked <= cycles" in problems[0]
