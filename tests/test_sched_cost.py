"""Cost-aware scheduling and SLA admission (perfbound x sched).

The ``cost-aware`` policy routes on *predicted work* (per-job
``repro.perfbound`` midpoints plus the queue's pending-cycle
estimate), not queue length.  Placement is a pure scheduling decision:
the outputs must stay bit-exact against the one-job-at-a-time
sequential reference, while the makespan on a skewed stream (one big
job then small ones -- ``examples/streams/cost_skewed.json``) must
match or beat the count-based shortest-queue policy, which parks small
jobs behind the big one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List

import pytest

from repro.bus.protocol import AXI4
from repro.core.program import streaming_program
from repro.mem.memory import Memory
from repro.obs import attribute_schedule
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sched import Job, ThroughputScheduler, run_sequential_reference
from repro.sched.scheduler import SlaRejectionError
from repro.soclint import lint_soc
from repro.system import RAM_SIZE, build_mpsoc
from repro.verify.domain import Interval

SKEWED = (Path(__file__).resolve().parent.parent
          / "examples" / "streams" / "cost_skewed.json")
BLOCK = 16
COMPUTE_LATENCY = 200


def _rac(name: str) -> PassthroughRac:
    return PassthroughRac(name=name, block_size=BLOCK,
                          compute_latency=COMPUTE_LATENCY)


def _skewed_jobs() -> List[Job]:
    doc = json.loads(SKEWED.read_text())
    assert doc["ocps"] == ["passthrough:16", "passthrough:16"]
    rng = random.Random(20240)
    return [
        Job(job_id=entry["id"], kind=entry["kind"],
            words=[rng.randrange(1 << 15) for _ in
                   range(entry["size"])])
        for entry in doc["jobs"]
    ]


def _run(policy: str, jobs: List[Job]):
    soc = build_mpsoc([_rac("pt0"), _rac("pt1")])
    sched = ThroughputScheduler(soc, policy=policy, queue_bound=4)
    results = sched.run_stream(jobs)
    return soc.sim.cycle, results, sched


def test_cost_aware_is_bit_exact_on_the_skewed_stream():
    jobs = _skewed_jobs()
    _, results, _ = _run("cost-aware", jobs)
    reference = run_sequential_reference(
        jobs, {"passthrough": lambda: _rac("ref")})
    for result in results:
        assert result.outputs == reference[result.job.job_id]


def test_cost_aware_beats_shortest_queue_on_the_skewed_stream():
    jobs = _skewed_jobs()
    sq_cycles, sq_results, _ = _run("shortest-queue", jobs)
    ca_cycles, ca_results, _ = _run("cost-aware", jobs)
    # same outputs either way: placement never changes data
    for sq, ca in zip(sq_results, ca_results):
        assert sq.outputs == ca.outputs
    assert ca_cycles <= sq_cycles


def test_cost_aware_is_bit_exact_on_mixed_kinds():
    """A heterogeneous stream (non-identity kernel included) stays
    bit-exact under cost-aware placement."""
    rng = random.Random(77)
    racs = [
        PassthroughRac(name="pt0", block_size=8),
        ScaleRac(name="sc1", block_size=8, factor=3, shift=1),
    ]
    soc = build_mpsoc(racs)
    sched = ThroughputScheduler(soc, policy="cost-aware", queue_bound=4)
    jobs = [
        Job(job_id=f"m{index}",
            kind=rng.choice(("passthrough", "scale")),
            words=[rng.randrange(1 << 15) for _ in range(8)])
        for index in range(12)
    ]
    results = sched.run_stream(jobs)
    reference = run_sequential_reference(jobs, {
        "passthrough": lambda: PassthroughRac(block_size=8),
        "scale": lambda: ScaleRac(block_size=8, factor=3, shift=1),
    })
    for result in results:
        assert result.outputs == reference[result.job.job_id]


def test_sla_admission_rejects_unschedulable_jobs():
    soc = build_mpsoc([_rac("pt0")])
    sched = ThroughputScheduler(soc, policy="cost-aware",
                                sla_cycles=50)
    with pytest.raises(SlaRejectionError):
        sched.submit(Job(job_id="big", kind="passthrough",
                         words=list(range(64))))
    assert sched.submitted == 0


def test_sla_admission_accepts_schedulable_jobs():
    soc = build_mpsoc([_rac("pt0")])
    sched = ThroughputScheduler(soc, policy="cost-aware",
                                sla_cycles=1_000_000)
    job = Job(job_id="ok", kind="passthrough", words=list(range(16)))
    assert sched.submit(job)
    sched.drain()
    assert sched.completed["ok"].outputs == job.words


def test_attribute_schedule_reports_predicted_work():
    jobs = _skewed_jobs()
    soc = build_mpsoc([_rac("pt0"), _rac("pt1")])
    sched = ThroughputScheduler(soc, policy="cost-aware",
                                queue_bound=4)
    # mid-flight: queued jobs carry a pending-cycle estimate
    for job in jobs[:4]:
        assert sched.submit(job)
    report = attribute_schedule(sched)
    assert sum(s.pending_jobs for s in report.per_ocp) == 4
    assert sum(s.est_pending_cycles for s in report.per_ocp) > 0
    # drained: pending collapses to zero, completed work is attributed
    for job in jobs[4:]:
        sched.submit_blocking(job)
    sched.drain()
    report = attribute_schedule(sched)
    assert report.consistent
    assert all(s.pending_jobs == 0 for s in report.per_ocp)
    assert all(s.est_pending_cycles == 0 for s in report.per_ocp)
    assert all(s.predicted_done_cycles > 0 for s in report.per_ocp)
    assert "work(pred)" in report.render()


@pytest.mark.parametrize("prefetch", [False, True])
def test_cost_bound_follows_the_elaborated_ocp(prefetch):
    """The scheduler's admission bound and soclint's OU162 budget check
    both read the OCP as elaborated: bus protocol, memory latency,
    prefetch and instruction-buffer size, not the defaults."""
    rac = _rac("pt0")
    soc = build_mpsoc(
        [rac], ocp_kwargs={"ibuf_size": 2}, protocol=AXI4,
        prefetch=prefetch, memory=Memory("ram", RAM_SIZE, access_latency=3))
    sched = ThroughputScheduler(soc)
    job = Job("j", "passthrough", list(range(2 * BLOCK)))
    program = streaming_program([BLOCK], [BLOCK], 2,
                                sched.chunk).instructions
    spelled_out = CostModel(
        protocol=AXI4, mem_latency=Interval.point(3),
        rac=RacTiming.of(rac), ibuf_size=2, prefetch=prefetch)
    bound = bound_program(program, rac, model=spelled_out)
    assert bound.bounded
    lo, hi = int(bound.total.lo), int(bound.total.hi)
    # the non-default SoC really costs something else than the defaults
    assert hi != int(bound_program(program, rac).total.hi)

    assert sched._job_cost_bounds(job, sched.slots[0]) == ((lo + hi) // 2, hi)
    fits = lint_soc(soc, firmware=program, budget_cycles=hi)
    assert "OU162" not in fits.codes()
    over = lint_soc(soc, firmware=program, budget_cycles=hi - 1)
    [finding] = [f for f in over.findings if f.code == "OU162"]
    assert f"worst-case firmware cost {hi} cycles" in finding.message
