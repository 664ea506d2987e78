"""Property suite for the throughput scheduler.

Invariants the scheduler must uphold on every stream, independent of
the differential (bit-exactness) gate:

* every submitted job completes exactly once;
* no per-OCP queue ever exceeds its configured bound (back-pressure
  is real, not advisory);
* no serving OCP starves under round-robin -- distribution is even
  and the worst-case wait is bounded by the stream's makespan;
* batching never reorders jobs within a dependency chain, and a chain
  never migrates between OCPs;
* malformed submissions (duplicate ids, unknown kinds, infeasible
  sizes, RACs the batch recipe cannot stream) are rejected loudly at
  submit time, not lost at dispatch;
* ``idle``, read from the queued-job set and the busy-slot count, is
  what every slot's state and queue say, through faulted retries.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.bus.types import BusSlave
from repro.core.registers import REG_CTRL, REG_PROG_SIZE
from repro.faults import FaultEvent, FaultKind, FaultPlan, inject_faults
from repro.rac.base import RACPortSpec, StreamingRAC
from repro.rac.fir import FIRRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sched import (
    CapabilityTable,
    Job,
    RoundRobinPolicy,
    SchedulerError,
    ThroughputScheduler,
)
from repro.sched.scheduler import ARENA_WORDS, SCHED_ARENA_BASE_OFFSET
from repro.sim.errors import BusFaultError, ConfigurationError
from repro.system import RAM_BASE, build_mpsoc

BLOCK = 8


def _soc(n_ocps: int = 4):
    return build_mpsoc([
        PassthroughRac(name=f"pt{i}", block_size=BLOCK)
        for i in range(n_ocps)
    ])


def _jobs(seed: int, count: int, prefix: str = "p") -> List[Job]:
    rng = random.Random(seed)
    return [
        Job(
            f"{prefix}{index}",
            "passthrough",
            [rng.getrandbits(32) for _ in range(BLOCK * rng.randrange(1, 4))],
        )
        for index in range(count)
    ]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch_jobs", [1, 3])
def test_every_job_completes_exactly_once(seed, batch_jobs):
    sched = ThroughputScheduler(_soc(), batch_jobs=batch_jobs)
    jobs = _jobs(seed, 18)
    sched.run_stream(jobs)
    assert sched.submitted == len(jobs)
    assert len(sched.completion_order) == len(jobs)
    assert len(set(sched.completion_order)) == len(jobs)
    assert set(sched.completion_order) == {job.job_id for job in jobs}
    assert sum(slot.jobs_done for slot in sched.slots) == len(jobs)


@pytest.mark.parametrize("queue_bound", [1, 2, 3])
def test_queue_depth_never_exceeds_bound(queue_bound):
    """High-water marks respect the bound even under blocking pressure."""
    sched = ThroughputScheduler(
        _soc(2), queue_bound=queue_bound, batch_jobs=2
    )
    jobs = _jobs(11, 20)
    for job in jobs:
        sched.submit_blocking(job)
        for slot in sched.slots:
            assert len(slot.queue) <= queue_bound
    sched.drain()
    for slot in sched.slots:
        assert slot.queue_high_water <= queue_bound


def test_submit_exerts_back_pressure_when_all_queues_full():
    """submit() returns False (and mutates nothing) once queues fill."""
    sched = ThroughputScheduler(_soc(2), queue_bound=1)
    accepted = 0
    refused = None
    for job in _jobs(5, 10):
        if sched.submit(job):
            accepted += 1
        else:
            refused = job
            break
    # two queues of depth 1, plus whatever dispatch drained at cycle 0:
    # pressure must appear well before the stream ends
    assert refused is not None
    assert not sched.can_accept(refused)
    assert sched.submitted == accepted
    assert all(len(slot.queue) <= 1 for slot in sched.slots)


def test_round_robin_starves_no_ocp():
    """Uniform streams spread evenly; worst wait is within the makespan."""
    n_ocps, n_jobs = 4, 32
    sched = ThroughputScheduler(
        _soc(n_ocps), policy=RoundRobinPolicy(), queue_bound=n_jobs
    )
    rng = random.Random(21)
    jobs = [
        Job(f"rr{index}", "passthrough",
            [rng.getrandbits(32) for _ in range(BLOCK)])
        for index in range(n_jobs)
    ]
    results = sched.run_stream(jobs)
    per_ocp = [slot.jobs_done for slot in sched.slots]
    assert all(done > 0 for done in per_ocp), f"starved OCP: {per_ocp}"
    assert max(per_ocp) - min(per_ocp) <= 1
    makespan = max(r.complete_cycle for r in results)
    assert all(0 <= r.wait_cycles <= makespan for r in results)


def test_batching_preserves_order_within_chain():
    """Chained jobs complete in submission order, on one pinned OCP."""
    rng = random.Random(31)
    chains = ("a", "b", "c")
    jobs = [
        Job(f"cj{index}", "passthrough",
            [rng.getrandbits(32) for _ in range(BLOCK)],
            chain=chains[index % len(chains)])
        for index in range(15)
    ]
    sched = ThroughputScheduler(_soc(4), batch_jobs=3)
    results = sched.run_stream(jobs)
    position = {jid: i for i, jid in enumerate(sched.completion_order)}
    by_result = {r.job.job_id: r for r in results}
    for chain in chains:
        members = [job for job in jobs if job.chain == chain]
        homes = {by_result[job.job_id].ocp_index for job in members}
        assert len(homes) == 1, f"chain {chain} migrated across {homes}"
        order = [position[job.job_id] for job in members]
        assert order == sorted(order), (
            f"chain {chain} completed out of submission order: {order}"
        )


def test_duplicate_job_id_is_rejected():
    sched = ThroughputScheduler(_soc(2))
    job = Job("dup", "passthrough", list(range(BLOCK)))
    assert sched.submit(job)
    with pytest.raises(ConfigurationError, match="duplicate job id"):
        sched.submit(Job("dup", "passthrough", list(range(BLOCK))))


def test_duplicate_of_an_in_flight_job_id_is_rejected():
    """A dispatched job has left the queue but not completed: its id
    is still taken, and the first job's results are not overwritten."""
    soc = _soc(1)
    sched = ThroughputScheduler(soc)
    first = list(range(BLOCK))
    assert sched.submit(Job("a", "passthrough", first))
    soc.sim.step(5)
    assert sched.slots[0].state == "config"
    with pytest.raises(ConfigurationError, match="duplicate job id"):
        sched.submit(Job("a", "passthrough", [7] * BLOCK))
    sched.drain()
    assert sched.completion_order == ["a"]
    assert sched.completed["a"].outputs == first


def test_duplicate_of_a_completed_job_id_is_rejected():
    """A completed id stays taken after it has left both the queue and
    the in-flight set."""
    soc = _soc(2)
    sched = ThroughputScheduler(soc)
    sched.run_stream([Job(f"c{index}", "passthrough", list(range(BLOCK)))
                      for index in range(3)])
    for job_id in ("c0", "c2"):
        with pytest.raises(ConfigurationError, match="duplicate job id"):
            sched.submit(Job(job_id, "passthrough", [7] * BLOCK))
    assert sched.submit(Job("c3", "passthrough", list(range(BLOCK))))


def test_unknown_kind_is_rejected():
    sched = ThroughputScheduler(_soc(2))
    with pytest.raises(ConfigurationError, match="no OCP serves"):
        sched.submit(Job("x", "dft", list(range(BLOCK))))


def test_infeasible_size_is_rejected():
    sched = ThroughputScheduler(_soc(2))
    with pytest.raises(ConfigurationError, match="fits no serving OCP"):
        sched.submit(Job("odd", "passthrough", list(range(BLOCK + 1))))
    with pytest.raises(ConfigurationError, match="fits no serving OCP"):
        sched.submit(Job("huge", "passthrough",
                         list(range(ARENA_WORDS + BLOCK))))


def test_rac_the_scheduler_cannot_stream_is_refused():
    # FIR takes its taps on a second input port and a RAC may emit
    # fewer words than it takes: the batch recipe streams one input
    # port into an equal output port, so such jobs would hang
    short = StreamingRAC(
        "short", [BLOCK], [BLOCK // 2],
        lambda collected: [collected[0][:BLOCK // 2]],
        ports=RACPortSpec([32], [32]),
    )
    soc = build_mpsoc([FIRRac(name="fir0", block_size=16, n_taps=4), short])
    sched = ThroughputScheduler(soc)
    with pytest.raises(ConfigurationError,
                       match=r"OCP 0 ports in \[16, 4\] out \[16\]"):
        sched.submit(Job("f", "fir", list(range(16))))
    with pytest.raises(ConfigurationError,
                       match=r"OCP 1 ports in \[8\] out \[4\]"):
        sched.submit(Job("s", "streaming", list(range(BLOCK))))


@pytest.mark.parametrize("chunk", [0, 129, 200])
def test_chunk_outside_the_transfer_count_is_refused(chunk):
    with pytest.raises(ConfigurationError, match="chunk must be in"):
        ThroughputScheduler(_soc(2), chunk=chunk)


def test_empty_job_is_rejected():
    with pytest.raises(ConfigurationError):
        Job("empty", "passthrough", [])


@pytest.mark.parametrize("word", [1 << 32, -1, True, 1.0],
                         ids=["out-of-range", "negative", "bool", "float"])
def test_job_words_must_be_unsigned_32_bit(word):
    # a bad word is refused when the job is built, naming the job and
    # the word's position -- not truncated or failing inside the clock
    with pytest.raises(ConfigurationError, match=r"job w: word #2"):
        Job("w", "passthrough", [0, 0xFFFF_FFFF, word, 7])


@pytest.mark.parametrize("chain", [["a"], 3, ("a",)],
                         ids=["list", "int", "tuple"])
def test_job_chain_must_be_a_string(chain):
    # a chain tag keys dicts and sets downstream (chain pinning,
    # racecheck's candidate slots): refuse an unhashable or non-string
    # one when the job is built
    with pytest.raises(ConfigurationError, match="job c: chain must be"):
        Job("c", "passthrough", [1, 2], chain=chain)


def test_unknown_policy_is_rejected():
    with pytest.raises(ConfigurationError, match="choose from"):
        ThroughputScheduler(_soc(2), policy="lottery")


def test_capability_table_round_trip():
    soc = build_mpsoc([
        PassthroughRac(name="pt0"),
        ScaleRac(name="sc1"),
        PassthroughRac(name="pt2"),
    ])
    table = CapabilityTable.from_soc(soc)
    assert table.as_dict() == {"passthrough": [0, 2], "scale": [1]}
    assert table.serving("scale") == (1,)
    assert not table.validate(soc).errors


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_idle_matches_every_slot_after_every_tick(seed):
    """The busy-slot count behind ``idle`` agrees with the slots after
    every scheduler tick and every submit of a random stream, whose
    first batch traps on corrupted microcode and is retried after a
    backoff."""
    soc = build_mpsoc([PassthroughRac(name=f"pt{i}", block_size=BLOCK)
                       for i in range(3)],
                      ocp_kwargs={"watchdog_cycles": 2000})
    # bit 28 of the first staged instruction turns mvtc into a blocking
    # exec: the watchdog traps, the scheduler aborts and backs off
    inject_faults(soc, FaultPlan(seed=seed, events=[FaultEvent(
        FaultKind.CORRUPT_MICROCODE, "mc", index=2, bit=28,
        word=RAM_BASE + SCHED_ARENA_BASE_OFFSET)]))
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=2,
                                backoff_cycles=64)
    checks = []

    def check():
        busy = sum(slot.state != "idle" for slot in sched.slots)
        assert sched._busy_slots == busy
        assert sched.idle == all(slot.state == "idle" and not slot.queue
                                 for slot in sched.slots)
        checks.append(sched.idle)

    tick = sched.tick

    def checked_tick():
        tick()
        check()

    sched.tick = checked_tick
    rng = random.Random(seed)
    waiting = _jobs(seed, 24)
    while waiting or not sched.idle:
        if waiting and rng.random() < 0.5 and sched.submit(waiting[0]):
            waiting.pop(0)
            check()
        else:
            soc.sim.step(rng.randint(1, 60))
    assert sum(slot.retries for slot in sched.slots) >= 1
    assert len(sched.completed) == 24
    assert True in checks and False in checks


class _FailingWindow(BusSlave):
    """An OCP's register window that answers the accesses ``fails``
    picks with an ERROR response and forwards every other one."""

    def __init__(self, interface, fails):
        self.interface = interface
        self.fails = fails

    def read_word(self, offset):
        if self.fails("read", offset, None):
            raise BusFaultError(f"stub: ERROR on read at {offset:#x}")
        return self.interface.read_word(offset)

    def write_word(self, offset, value):
        if self.fails("write", offset, value):
            raise BusFaultError(f"stub: ERROR on write at {offset:#x}")
        self.interface.write_word(offset, value)


#: each of the slot FSM's bus waits, and the register access that makes
#: it fail (CTRL = 0 is the ack of a clean batch, the abort of a trap)
_FAILING = {
    "config write": lambda kind, offset, value: offset == REG_PROG_SIZE,
    "status read": lambda kind, offset, value: (
        kind == "read" and offset == REG_CTRL),
    "ack write": lambda kind, offset, value: (
        kind == "write" and offset == REG_CTRL and value == 0),
    "abort write": lambda kind, offset, value: (
        kind == "write" and offset == REG_CTRL and value == 0),
}


@pytest.mark.parametrize("what", list(_FAILING))
def test_every_error_response_stops_the_scheduler(what):
    """An ERROR response to any of the slot's register accesses raises
    :class:`SchedulerError` naming that access: an errored status read
    is not a clean status, and an errored ack or abort does not
    release the OCP."""
    soc = build_mpsoc([PassthroughRac(name="pt0", block_size=BLOCK)],
                      ocp_kwargs={"watchdog_cycles": 2000})
    if what == "abort write":
        # the first batch traps (see above), so its CTRL = 0 is an abort
        inject_faults(soc, FaultPlan(events=[FaultEvent(
            FaultKind.CORRUPT_MICROCODE, "mc", index=2, bit=28,
            word=RAM_BASE + SCHED_ARENA_BASE_OFFSET)]))
    sched = ThroughputScheduler(soc, batch_jobs=2, backoff_cycles=64)
    soc.bus.memmap.replace_slave(
        "ocp", _FailingWindow(soc.ocp.interface, _FAILING[what]))
    with pytest.raises(SchedulerError,
                       match=f"^OCP 0: {what} failed: stub: ERROR"):
        sched.run_stream(_jobs(7, 4))
    assert soc.bus.stats["slave_errors"] == 1
    # only the ack follows a harvest
    assert bool(sched.completed) == (what == "ack write")
