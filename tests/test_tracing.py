"""Unit tests for tracing, stats and the VCD writer."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.sim.tracing import Stats, Trace, VCDWriter


def test_trace_capacity_limits_recording():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.record(i, "c", "e", {})
    assert len(trace) == 2


def test_trace_counts_dropped_events_and_reports_truncation():
    trace = Trace(capacity=2)
    assert not trace.truncated and trace.dropped == 0
    for i in range(5):
        trace.record(i, "c", "e", {})
    assert trace.dropped == 3
    assert trace.truncated
    assert trace.capacity == 2


def test_unbounded_trace_never_truncates():
    trace = Trace()
    for i in range(100):
        trace.record(i, "c", "e", {})
    assert trace.dropped == 0
    assert not trace.truncated
    assert trace.capacity is None


def test_fault_history_refuses_truncated_trace():
    import pytest

    from repro.faults.harness import fault_history, fault_signature
    from repro.sim.errors import SimulationError

    trace = Trace(capacity=1)
    trace.record(0, "faults.ram", "fault.stall", {})
    trace.record(1, "faults.ram", "fault.stall", {})  # dropped
    with pytest.raises(SimulationError, match="truncated"):
        fault_history(trace)
    with pytest.raises(SimulationError, match="truncated"):
        fault_signature(trace)


def test_fault_history_accepts_complete_trace():
    from repro.faults.harness import fault_signature

    trace = Trace(capacity=10)
    trace.record(0, "faults.ram", "fault.stall", {"extra": 3})
    trace.record(1, "bus", "grant", {})
    assert len(fault_signature(trace)) == 1


def test_trace_filters_and_first():
    trace = Trace()
    trace.record(0, "a", "x", {"v": 1})
    trace.record(1, "b", "x", {})
    trace.record(2, "a", "y", {})
    assert len(trace.events(component="a")) == 2
    assert len(trace.events(event="x")) == 2
    assert trace.first("a", "y").cycle == 2
    assert trace.first("a", "zzz") is None


def test_trace_dump_is_readable():
    trace = Trace()
    trace.record(7, "bus", "grant", {"master": "cpu"})
    assert "bus: grant master=cpu" in trace.dump()


def test_stats_incr_get_and_merge():
    a = Stats()
    a.incr("x")
    a.incr("x", 2)
    b = Stats()
    b.incr("x")
    b.incr("y", 5)
    merged = a + b
    assert merged["x"] == 4
    assert merged["y"] == 5
    assert merged["missing"] == 0


def test_stats_maximize_keeps_running_max():
    stats = Stats()
    stats.maximize("depth", 3)
    stats.maximize("depth", 1)
    stats.maximize("depth", 9)
    assert stats["depth"] == 9


def test_stats_merge_takes_max_of_gauges_not_sum():
    # regression: merging used plain Counter addition, so gauges like
    # max_occupancy_atoms came out as the *sum* of the two maxima
    a = Stats()
    a.maximize("max_occupancy_atoms", 7)
    a.incr("pushes", 10)
    b = Stats()
    b.maximize("max_occupancy_atoms", 5)
    b.incr("pushes", 3)
    merged = a + b
    assert merged["max_occupancy_atoms"] == 7
    assert merged["pushes"] == 13
    assert merged.is_gauge("max_occupancy_atoms")
    assert not merged.is_gauge("pushes")


def test_stats_merge_gauge_present_on_one_side_only():
    a = Stats()
    a.maximize("depth", 4)
    b = Stats()
    assert (a + b)["depth"] == 4
    assert (b + a)["depth"] == 4


def test_stats_report_contains_all_counters():
    stats = Stats()
    stats.incr("alpha", 3)
    stats.incr("beta")
    report = stats.report("title")
    assert report.startswith("title")
    assert "alpha" in report and "beta" in report


def test_vcd_writer_renders_header_and_changes():
    vcd = VCDWriter(timescale="20ns")
    vcd.register("clk", width=1)
    vcd.register("data", width=8)
    vcd.change(0, "clk", 1)
    vcd.change(0, "data", 0xAB)
    vcd.change(3, "clk", 0)
    text = vcd.render()
    assert "$timescale 20ns $end" in text
    assert "$var wire 1" in text
    assert "$var wire 8" in text
    assert "#0" in text and "#3" in text
    assert "b10101011" in text


def test_vcd_deduplicates_unchanged_values():
    vcd = VCDWriter()
    vcd.register("s", width=1)
    vcd.change(0, "s", 1)
    vcd.change(1, "s", 1)  # no change
    vcd.change(2, "s", 0)
    text = vcd.render()
    assert text.count("#1") == 0


def test_vcd_autoregisters_unknown_signal():
    vcd = VCDWriter()
    vcd.change(0, "auto", 5)
    assert "auto" in vcd.render()


def test_vcd_autoregistered_signal_widens_for_later_values():
    # regression: auto-registration pinned the width to the *first*
    # value's bit length, so a later wider value overflowed its lane
    vcd = VCDWriter()
    vcd.change(0, "auto", 1)     # would pin width=1
    vcd.change(5, "auto", 0xAB)  # needs 8 bits
    text = vcd.render()
    assert "$var wire 8" in text
    assert "b10101011" in text


def test_vcd_explicit_width_also_widens_on_overflow():
    vcd = VCDWriter()
    vcd.register("s", width=2)
    vcd.change(0, "s", 3)
    vcd.change(1, "s", 12)
    assert "$var wire 4" in vcd.render()


def test_vcd_write_to_file(tmp_path):
    vcd = VCDWriter()
    vcd.change(0, "x", 1)
    path = tmp_path / "out.vcd"
    vcd.write(str(path))
    assert path.read_text().startswith("$timescale")


# -- the trace stream, pinned ------------------------------------------------
#
# Every component builds its trace payloads at its own call sites.  These
# two traced runs pin the whole stream -- event count and the sha256 of
# ``Trace.dump()`` -- so an edit to a call site cannot drop, reorder or
# reformat an event.  The golden was recorded before the call sites were
# guarded by ``sim.trace is not None``.

TRACE_GOLDEN = Path(__file__).with_name("trace_golden.json")


def _traced_figure4(**kernel):
    """The Figure 4 DFT-256 on an AHB SoC through ``BaremetalRuntime``."""
    from repro.core.program import figure4_program
    from repro.rac.dft import DFTRac
    from repro.sw.baremetal import BaremetalRuntime
    from repro.system import RAM_BASE, SoC
    from repro.utils import fixedpoint as fp

    trace = Trace()
    soc = SoC(racs=[DFTRac(n_points=256)], trace=trace, **kernel)
    rng = random.Random(2016)
    re, im = ([fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(256)]
              for _ in range(2))
    banks = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
             2: RAM_BASE + 0x8000}
    soc.write_ram(banks[1], fp.interleave_complex(re, im))
    result = BaremetalRuntime(soc).run(figure4_program(256).words(), banks)
    assert result.total_cycles == 3935
    assert fp.deinterleave_complex(soc.read_ram(banks[2], 512)) == \
        fp.fft_q15(re, im)
    return trace


def _traced_scheduler(**kernel):
    """A 16-job ``ThroughputScheduler`` stream on two passthrough OCPs."""
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    trace = Trace()
    soc = build_mpsoc([PassthroughRac(name=f"pt{index}", block_size=8,
                                      compute_latency=40)
                       for index in range(2)], trace=trace, **kernel)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=4)
    rng = random.Random(230)
    jobs = [Job(f"j{index}", "passthrough",
                [rng.getrandbits(32) for _ in range(8)])
            for index in range(16)]
    results = sched.run_stream(jobs)
    assert [result.outputs for result in results] == \
        [job.words for job in jobs]
    return trace


TRACED_RUNS = {"figure4": _traced_figure4, "scheduler": _traced_scheduler}


def _trace_digest(trace):
    assert not trace.truncated
    return {"events": len(trace),
            "sha256": hashlib.sha256(trace.dump().encode()).hexdigest()}


@pytest.mark.parametrize("kernel", [{"idle_skip": False}, {}],
                         ids=["naive", "fast"])
@pytest.mark.parametrize("run", sorted(TRACED_RUNS))
def test_trace_stream_matches_golden(run, kernel):
    """The whole traced event stream of each run equals the golden,
    under the naive and the fast schedule."""
    golden = json.loads(TRACE_GOLDEN.read_text())[run]
    assert _trace_digest(TRACED_RUNS[run](**kernel)) == golden
