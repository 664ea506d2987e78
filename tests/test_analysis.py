"""Tests for the experiment drivers (fast variants of the benchmarks)."""

import random

import pytest

from repro.analysis import (
    TableOneRow,
    measure_dft_hw,
    measure_idct_hw,
    measure_idct_sw,
    measure_transfer_efficiency,
    render_table_one,
    table_one,
)
from repro.rac.idct import IDCTRac
from repro.sw.library import OuessantLibrary
from repro.system import SoC


def test_table_row_gain():
    row = TableOneRow("X", lat=10, hw=100, sw=250)
    assert row.gain == 2.5


def test_idct_hw_measurement_correct_and_in_band():
    result, correct = measure_idct_hw(environment="linux")
    assert correct
    # paper: 3000 cycles for IDCT under Linux
    assert 2500 <= result.total_cycles <= 4500


def test_idct_sw_measurement_in_band():
    run = measure_idct_sw()
    # paper: 5000 cycles
    assert 4000 <= run.cycles <= 7000


def test_dft_hw_baremetal_vs_linux_overhead():
    bare, ok_b = measure_dft_hw(64, environment="baremetal")
    lin, ok_l = measure_dft_hw(64, environment="linux")
    assert ok_b and ok_l
    overhead = lin.total_cycles - bare.total_cycles
    # paper in-text: ~3000 cycles of Linux overhead
    assert 2800 <= overhead <= 3200


def test_transfer_efficiency_near_paper():
    m = measure_transfer_efficiency(1024)
    assert m.words == 1024
    # paper in-text: ~1.5 cycles per word
    assert 1.0 <= m.cycles_per_word <= 1.8


def test_transfer_efficiency_validates_input():
    with pytest.raises(ValueError):
        measure_transfer_efficiency(33)


@pytest.mark.slow
def test_table_one_small_dft_shape():
    """Scaled-down Table I (DFT-64 to keep the ISS run short)."""
    rows = table_one(dft_points=64, environment="linux")
    idct, dft = rows
    assert idct.name == "IDCT" and dft.name == "DFT"
    assert idct.lat == 18
    # who-wins: hardware beats software on both rows
    assert idct.gain > 1.0
    assert dft.gain > 5.0
    text = render_table_one(rows)
    assert "Gain" in text and "IDCT" in text


def test_table_one_full_size_rows_match_experiments():
    """The full Table I (256-point DFT) pins the EXPERIMENTS.md T1 rows:
    Lat / HW / SW exactly, and with them the gains 1.61 and 218."""
    rows = table_one()
    assert [(r.name, r.lat, r.hw, r.sw) for r in rows] == [
        ("IDCT", 18, 3293, 5309),
        ("DFT", 2485, 6935, 1_511_186),
    ]
    assert [round(r.gain, 2) for r in rows] == [1.61, 217.91]


def test_linux_overhead_and_transfer_cycles_match_experiments():
    """The EXPERIMENTS.md numbers measured through the driver and the
    Linux model, exactly: C1 (DFT-256 baremetal 3935, Linux 6935,
    overhead 3000) and C2 (1024 words in 1433 cycles)."""
    bare, ok_b = measure_dft_hw(256, environment="baremetal")
    linux, ok_l = measure_dft_hw(256, environment="linux")
    assert ok_b and ok_l
    assert (bare.total_cycles, linux.total_cycles) == (3935, 6935)
    assert linux.total_cycles - bare.total_cycles == 3000
    transfer = measure_transfer_efficiency(1024)
    assert (transfer.words, transfer.cycles) == (1024, 1433)


def test_idct_batch_totals_match_experiments():
    """A8: one Linux ``idct_batch`` call over 1 / 4 / 16 / 64 blocks
    (the seed-9 blocks of ``benchmarks/test_bench_batching.py``) costs
    exactly the totals behind the EXPERIMENTS.md cycles-per-block
    column (3293, 1020, 452, 310)."""
    totals = {}
    for batch in (1, 4, 16, 64):
        rng = random.Random(9)
        blocks = [[[rng.randint(-300, 300) for _ in range(8)]
                   for _ in range(8)] for _ in range(batch)]
        library = OuessantLibrary(SoC(racs=[IDCTRac(fifo_depth=128)]),
                                  environment="linux")
        library.idct_batch(blocks)
        totals[batch] = library.last_result.total_cycles
    assert totals == {1: 3293, 4: 4079, 16: 7229, 64: 19_858}
