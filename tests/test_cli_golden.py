"""The stdout of four CLI runs and of every shipped example, pinned.

Each run is deterministic: the CLI demos take explicit seeds and the
examples seed their own inputs, so their output depends only on the
simulated behaviour.  ``cli_golden.json`` holds what each printed; any
change to simulated timing, statistics or results shows up here as a
text diff.

Regenerate (only for a deliberate change of what a run prints)::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI_GOLDEN = Path(__file__).with_name("cli_golden.json")

#: run name -> the arguments after ``python``
RUNS = {
    "repro table1": ["-m", "repro.cli", "table1"],
    "repro faults --seed 2024": ["-m", "repro.cli", "faults",
                                 "--seed", "2024"],
    "repro faults --seed 7": ["-m", "repro.cli", "faults", "--seed", "7"],
    "repro transfer --words 64": ["-m", "repro.cli", "transfer",
                                  "--words", "64"],
    **{f"examples/{path.name}": [str(path)]
       for path in sorted((ROOT / "examples").glob("*.py"))},
}


def _stdout(args):
    """What ``python <args>`` prints, run from the repo root; it must
    exit 0."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stdout_matches_golden(run):
    golden = json.loads(CLI_GOLDEN.read_text())
    assert _stdout(RUNS[run]).splitlines() == golden[run]


def test_golden_covers_every_run():
    """A new example needs a golden entry, and a stale entry goes."""
    assert sorted(json.loads(CLI_GOLDEN.read_text())) == sorted(RUNS)


if __name__ == "__main__":
    CLI_GOLDEN.write_text(json.dumps(
        {name: _stdout(args).splitlines() for name, args in RUNS.items()},
        indent=1, sort_keys=True) + "\n")
