"""The exit-code contract, uniformly across every analyzer CLI.

Each analyzer promises the same three-way contract: ``0`` for a clean
input (warnings included), ``1`` when error findings are reported,
``2`` for usage errors (bad flags, bad specs, missing files).  The CI
``analyzer-cli`` matrix job runs this file filtered per analyzer
(``pytest -k verify``, ``-k lint``, ``-k racecheck``, ``-k
perfbound``, ``-k diag``), so test ids carry the analyzer token.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

STREAMS = Path(__file__).resolve().parent.parent / "examples" / "streams"

FIGURE4_16 = """\
mvtc BANK1,0,DMA16,FIFO0
execs
mvfc BANK2,0,DMA16,FIFO0
eop
"""

BANK_ARGS = ["--bank", "0=0x40001000", "--bank", "1=0x40002000",
             "--bank", "2=0x40003000"]


@pytest.fixture
def prog16(tmp_path):
    path = tmp_path / "prog16.ouasm"
    path.write_text(FIGURE4_16)
    return str(path)


@pytest.fixture
def truncated(tmp_path):
    path = tmp_path / "bad.ouasm"
    path.write_text("mvtc BANK1,0,DMA16,FIFO0\n")  # no eop
    return str(path)


# -- verify ---------------------------------------------------------------


def test_verify_clean_exits_0(prog16):
    assert main(["verify", prog16, "--rac", "passthrough:16"]) == 0


def test_verify_findings_exit_1(truncated):
    assert main(["verify", truncated, "--rac", "passthrough:16"]) == 1


def test_verify_usage_error_exits_2(prog16, capsys):
    assert main(["verify", prog16, "--rac", "nosuchrac:9"]) == 2
    assert main(["verify", "/nonexistent.ouasm"]) == 2
    capsys.readouterr()
    # a non-integer RAC parameter is a bad spec, not a crash
    assert main(["verify", prog16, "--rac", "dft:x"]) == 2
    assert capsys.readouterr().err.startswith("error: bad RAC spec 'dft:x'")


# -- lint -----------------------------------------------------------------


def test_lint_clean_exits_0():
    assert main(["lint", "--rac", "scale:16", *BANK_ARGS]) == 0


def test_lint_findings_exit_1():
    assert main(["lint", "--rac", "idct", "--clock", "400"]) == 1


def test_lint_usage_error_exits_2():
    assert main(["lint", "--bank", "one=2"]) == 2
    assert main(["lint", "--rac", "fir:x,3"]) == 2
    # a throughput budget needs firmware to bound
    assert main(["lint", "--rac", "scale:16",
                 "--budget-cycles", "5000"]) == 2


# -- racecheck ------------------------------------------------------------


def test_racecheck_clean_exits_0():
    assert main(["racecheck", str(STREAMS / "clean_mixed.json")]) == 0


def test_racecheck_findings_exit_1():
    assert main(
        ["racecheck", str(STREAMS / "racy_shared_arena.json")]) == 1


def test_racecheck_usage_error_exits_2():
    assert main(["racecheck", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("job, capability", [
    ({"kind": "passthrough", "words": ["x"]}, None),
    ({"kind": "passthrough", "words": 5}, None),
    ({"kind": "passthrough", "size": 16}, {"passthrough": 3}),
    ({"kind": "passthrough", "words": [4294967296]}, None),
    ({"kind": "passthrough", "size": 16, "chain": ["a"]}, None),
], ids=["words-not-integers", "words-not-a-list", "capability-not-a-list",
        "words-out-of-range", "chain-not-a-string"])
def test_racecheck_malformed_stream_exits_2(tmp_path, capsys, job,
                                            capability):
    doc = {"ocps": ["passthrough:16"], "jobs": [job]}
    if capability is not None:
        doc["capability"] = capability
    path = tmp_path / "stream.json"
    path.write_text(json.dumps(doc))
    assert main(["racecheck", str(path)]) == 2
    err = capsys.readouterr().err
    assert "job #0" in err or "'passthrough'" in err


# -- perfbound ------------------------------------------------------------


def test_perfbound_clean_exits_0(prog16):
    assert main(["perfbound", prog16, "--rac", "passthrough:16"]) == 0


def test_perfbound_findings_exit_1(prog16):
    # OU304: worst case cannot fit a 1-cycle SLA
    assert main(["perfbound", prog16, "--rac", "passthrough:16",
                 "--sla-cycles", "1"]) == 1
    # OU300: transfers with no RAC timing contract
    assert main(["perfbound", prog16]) == 1


def test_perfbound_usage_error_exits_2(prog16):
    assert main(["perfbound", prog16, "--rac", "passthrough:16",
                 "--mem-latency", "3:1"]) == 2
    assert main(["perfbound", prog16, "--rac", "passthrough:16",
                 "--masters", "0"]) == 2
    assert main(["perfbound", prog16, "--rac", "passthrough:1.5"]) == 2
    assert main(["perfbound", "/nonexistent.ouasm"]) == 2


# -- diag -----------------------------------------------------------------


def test_diag_known_code_exits_0():
    assert main(["diag", "OU300"]) == 0


def test_diag_listing_exits_0():
    assert main(["diag"]) == 0


def test_diag_unknown_code_exits_2():
    assert main(["diag", "OU999"]) == 2
