"""Self-tests of the benchmark, at smoke size (one round, a few ops).

    PYTHONPATH=src python -m pytest hostbench/tests -q

They run the child-side functions in this process; the tracer
restores every attribute it patches, which one test checks.
"""

import json
import signal
import time

import pytest

from hostbench import (check, child, compare, harness, hostspeed, spec,
                       tracer, workloads)
from repro.sim.kernel import Simulator

SMOKE_UNITS = {"table1": 1, "fig4_dft": 3, "jpeg_linux": 1,
               "sched_mpsoc8": 1}
MISSING = ("bus", "repro.bus.bus", "SystemBus.no_such_method")


def smoke(name, **overrides):
    workload = workloads.get(name)
    workload.units_per_round = SMOKE_UNITS[name]
    for attr, value in overrides.items():
        setattr(workload, attr, value)
    return workload


@pytest.mark.parametrize("name", sorted(spec.SPECS))
def test_golden_holds(name):
    measured = child.measure(name, 0, rounds=1, workload=smoke(name))
    (record,) = measured["rounds"]
    assert record["failed"] == 0
    assert record["ops"] == SMOKE_UNITS[name] * spec.SPECS[name].ops_per_unit
    assert record["cycles"] == (SMOKE_UNITS[name]
                                * spec.SPECS[name].golden_cycles)


def test_wrong_golden_fails_every_op_without_crashing():
    workload = smoke("fig4_dft", golden_cycles=3936)
    measured = child.measure("fig4_dft", 0, rounds=1, workload=workload)
    result = harness.measurement_result([measured])
    assert result["attempted"] == SMOKE_UNITS["fig4_dft"]
    assert result["op_error_rate"] == 1.0


@pytest.fixture(scope="module")
def fig4_runs(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "fig4_dft.trace.json"
    measured = child.measure("fig4_dft", 0, rounds=1,
                             workload=smoke("fig4_dft"))
    traced = child.trace("fig4_dft", 0, spans_path=str(spans),
                         extra=[MISSING], workload=smoke("fig4_dft"))
    return measured, traced, spans


def test_traced_run_reproduces_untraced_cycles_and_outputs(fig4_runs):
    _, traced, _ = fig4_runs
    assert traced["matches_untraced"]
    assert traced["failed"] == 0
    assert traced["cycles"] == [3935] * SMOKE_UNITS["fig4_dft"]


def test_missing_hook_is_reported_not_fatal(fig4_runs):
    _, traced, _ = fig4_runs
    assert traced["missing"] == ["repro.bus.bus:SystemBus.no_such_method"]
    assert traced["layers"]["bus.calls_per_op"] > 0


def test_traced_run_emits_every_layer_metric_and_a_span_file(fig4_runs):
    _, traced, spans = fig4_runs
    assert set(traced["layers"]) == {m for m, _, _ in tracer.layer_metrics()}
    document = json.loads(spans.read_text())
    names = {event["name"] for event in document["traceEvents"]}
    assert {"op", "bus:tick", "sim:Simulator.run_until"} <= names
    assert document["otherData"]["spans"] == traced["spans"]["spans"]


def test_tracer_restores_what_it_patches():
    from repro import analysis
    from repro.sw.driver import OuessantDriver

    before = (Simulator.add, Simulator.__init__, analysis.table_one,
              vars(OuessantDriver)["run"])
    with tracer.Tracer():
        assert Simulator.add is not before[0]
    assert (Simulator.add, Simulator.__init__, analysis.table_one,
            vars(OuessantDriver)["run"]) == before


def test_sampler_samples_only_inside_intervals_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        sampler.begin()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        spent, loops = sampler.end()
        time.sleep(0.1)
        assert sampler.end() == (spent, loops)
    assert loops >= 3 and 0 < spent < 0.2
    assert hostspeed.speed(spent, loops) > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_check_accepts_produced_result(fig4_runs):
    measured, traced, _ = fig4_runs
    entry = harness.combine(
        harness.measurement_result([measured]),
        harness.trace_result(traced))
    result = {"seed": 0, **harness.environment(),
              "workloads": {"fig4_dft": entry}}
    assert check.check_result(result, spec.load_benchmark()) == []


def test_check_rejects_undeclared_metric(fig4_runs):
    measured, _, _ = fig4_runs
    entry = harness.measurement_result([measured])
    entry["metrics"]["bogus_metric"] = {"value": 1.0, "unit": "s"}
    errors = check.check_result({"workloads": {"fig4_dft": entry}},
                                spec.load_benchmark())
    assert any("bogus_metric is not declared" in e for e in errors)


def test_benchmark_declares_exactly_what_the_tracer_emits():
    bench = spec.load_benchmark()
    assert check.check_benchmark(bench) == []
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == tracer.layer_metrics()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        harness.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(spec.SPECS)


@pytest.mark.parametrize("parent, change, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], "gain"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "regression"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [99, 102, 98, 101, 100, 99, 101, 100, 100, 99], "no regression"),
    ([60, 140, 70, 130, 80, 120, 90, 110, 65, 135],
     [60, 140, 70, 130, 80, 120, 90, 110, 65, 135], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    decl = spec.declared("end_to_end")["ops_per_s"]
    assert compare.verdict(decl, parent, change)["verdict"] == expected


@pytest.mark.parametrize("name", sorted(spec.SPECS))
def test_children_share_out_exactly_the_fixed_rounds(name):
    rounds = spec.SPECS[name].rounds
    shares = harness.shares(rounds)
    assert len(shares) == min(harness.CHILDREN, rounds)
    assert all(share["rounds"] > 0 for share in shares)
    covered = [index for share in shares
               for index in range(share["first"],
                                  share["first"] + share["rounds"])]
    assert covered == list(range(rounds))
