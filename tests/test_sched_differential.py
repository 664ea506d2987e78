"""Differential gate for the multi-OCP throughput scheduler.

Every case runs a seeded job stream twice:

* scheduled -- through :class:`repro.sched.ThroughputScheduler` on a
  heterogeneous 2/4/8-OCP SoC (mixed kernels, mixed sizes, with and
  without batching);
* reference -- one job at a time, in submission order, on a
  single-OCP SoC per kernel kind via the ordinary blocking driver.

Kernels are pure functions of their input block, so placement,
batching, fairness and bus interleaving must not change a single
output word: the comparison is bit-exact, never approximate.

Fault variants rerun the scheduled side under ``repro.faults``:

* recoverable RAM stall plans must still drain bit-exact (timing-only
  faults cannot alter data);
* a microcode corruption that turns a staged ``mvtc`` into a blocking
  ``exec`` parks the engine in EXEC_WAIT, traps the watchdog, and must
  be healed by the scheduler's abort/backoff/re-stage retry path.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import pytest

from repro.core.codegen import concat_programs
from repro.core.program import OuProgram
from repro.faults import FaultEvent, FaultKind, FaultPlan, inject_faults
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sched import Job, ThroughputScheduler, run_sequential_reference
from repro.sched.scheduler import SCHED_ARENA_BASE_OFFSET
from repro.sim.errors import ConfigurationError
from repro.system import RAM_BASE, build_mpsoc

PT_BLOCK = 8
SC_BLOCK = 4
SEED_BASE = 20240
N_SEEDS = 14
OCP_COUNTS = (2, 4, 8)


def _scale_params(seed: int) -> Dict[str, int]:
    rng = random.Random(seed * 7919)
    return {"factor": rng.randrange(-7, 8) or 5, "shift": rng.randrange(0, 4)}


def _build_soc(n_ocps: int, seed: int, **ocp_kwargs):
    """Heterogeneous SoC: alternate passthrough / scale coprocessors."""
    params = _scale_params(seed)
    racs = []
    for index in range(n_ocps):
        if index % 2 == 0:
            racs.append(PassthroughRac(name=f"pt{index}", block_size=PT_BLOCK))
        else:
            racs.append(
                ScaleRac(name=f"sc{index}", block_size=SC_BLOCK, **params)
            )
    return build_mpsoc(racs, ocp_kwargs=ocp_kwargs or None)


def _factories(n_ocps: int, seed: int) -> Dict[str, Callable[[], object]]:
    params = _scale_params(seed)
    factories: Dict[str, Callable[[], object]] = {
        "passthrough": lambda: PassthroughRac(block_size=PT_BLOCK),
    }
    if n_ocps > 1:
        factories["scale"] = lambda: ScaleRac(block_size=SC_BLOCK, **params)
    return factories


def _stream(seed: int, n_ocps: int, n_jobs: int = 14) -> List[Job]:
    """A seeded mixed-kind, mixed-size job stream."""
    rng = random.Random(seed)
    kinds = ["passthrough"] + (["scale"] if n_ocps > 1 else [])
    jobs = []
    for index in range(n_jobs):
        kind = rng.choice(kinds)
        block = PT_BLOCK if kind == "passthrough" else SC_BLOCK
        size = block * rng.randrange(1, 5)
        words = [rng.getrandbits(32) for _ in range(size)]
        jobs.append(Job(f"j{seed}-{index}", kind, words))
    return jobs


def _run_scheduled(
    jobs: List[Job], n_ocps: int, seed: int, plan=None, **sched_kwargs
) -> Dict[str, List[int]]:
    soc = _build_soc(n_ocps, seed, **sched_kwargs.pop("ocp_kwargs", {}))
    if plan is not None:
        inject_faults(soc, plan)
    sched = ThroughputScheduler(soc, **sched_kwargs)
    results = sched.run_stream(jobs)
    assert len(results) == len(jobs)
    return {r.job.job_id: r.outputs for r in results}


CASES = [
    (SEED_BASE + offset, n_ocps)
    for offset in range(N_SEEDS)
    for n_ocps in OCP_COUNTS
]
assert len(CASES) >= 40


@pytest.mark.parametrize("seed,n_ocps", CASES)
def test_scheduled_stream_matches_sequential_reference(seed, n_ocps):
    """Scheduled multi-OCP output is bit-exact vs the sequential run."""
    jobs = _stream(seed, n_ocps)
    # odd seeds exercise batching, even seeds dispatch one job at a time
    batch_jobs = 4 if seed % 2 else 1
    policy = "shortest-queue" if seed % 3 == 0 else "round-robin"
    scheduled = _run_scheduled(
        jobs, n_ocps, seed, batch_jobs=batch_jobs, policy=policy
    )
    reference = run_sequential_reference(jobs, _factories(n_ocps, seed))
    assert scheduled == reference


@pytest.mark.parametrize("seed", [SEED_BASE + o for o in range(6)])
def test_scheduled_stream_bit_exact_under_ram_stalls(seed):
    """Recoverable stall plans drain cleanly and change no output word."""
    n_ocps = 4
    jobs = _stream(seed, n_ocps)
    plan = FaultPlan.random_stalls(
        seed, n_events=6, sites=("ram",), max_index=64, max_stall=20
    )
    assert plan.recoverable
    faulted = _run_scheduled(jobs, n_ocps, seed, plan=plan, batch_jobs=2)
    reference = run_sequential_reference(jobs, _factories(n_ocps, seed))
    assert faulted == reference


def test_corrupted_batch_traps_watchdog_and_retries_bit_exact():
    """A corrupted staged program is healed by the retry re-stage.

    Flipping bit 28 of the first staged instruction turns the opening
    ``mvtc`` (0x01) into a blocking ``exec`` (0x03); with no input data
    the engine parks in EXEC_WAIT until the watchdog traps.  The
    scheduler must abort (CTRL=0 + soft reset), back off, re-stage the
    arena (which rewrites the corrupted word) and complete bit-exact.
    """
    seed = SEED_BASE + 99
    n_ocps = 2
    jobs = _stream(seed, n_ocps, n_jobs=8)
    plan = FaultPlan(seed=seed, events=[
        FaultEvent(
            FaultKind.CORRUPT_MICROCODE, "mc", index=2, bit=28,
            word=RAM_BASE + SCHED_ARENA_BASE_OFFSET,
        ),
    ])
    soc = _build_soc(n_ocps, seed, watchdog_cycles=2000)
    inject_faults(soc, plan)
    sched = ThroughputScheduler(soc, batch_jobs=2, backoff_cycles=64)
    results = sched.run_stream(jobs)

    retried = [r for r in results if r.attempts > 1]
    assert retried, "the corrupted batch must have been re-dispatched"
    assert sum(slot.retries for slot in sched.slots) >= 1
    scheduled = {r.job.job_id: r.outputs for r in results}
    reference = run_sequential_reference(jobs, _factories(n_ocps, seed))
    assert scheduled == reference


def _fresh_batch_words(jobs: List[Job], block: int,
                       chunk: int) -> List[int]:
    """The batch program of ``jobs`` built from scratch: the standalone
    program of each ``block``-word RAC operation (a whole job, for
    one-block jobs) at its own offset, laid end to end."""
    total = sum(job.size for job in jobs)
    return concat_programs([
        OuProgram()
        .stream_to(1, block, chunk=chunk, base_offset=offset).execs()
        .stream_from(2, block, chunk=chunk, base_offset=offset).eop()
        for offset in range(0, total, block)
    ]).words()


def test_batch_programs_are_shared_per_shape_and_stay_intact():
    """Batches of one shape (RAC block count and size) share one
    composed program.  Each dispatch must still stage, word for word,
    what a fresh composition of its own blocks gives, and a corruption
    of the staged copy (healed by the retry) must leave the shared
    program as it was."""
    seed = SEED_BASE + 99
    n_ocps = 2
    jobs = _stream(seed, n_ocps, n_jobs=24)
    assert len({job.size for job in jobs}) > 2
    plan = FaultPlan(seed=seed, events=[
        FaultEvent(
            FaultKind.CORRUPT_MICROCODE, "mc", index=2, bit=28,
            word=RAM_BASE + SCHED_ARENA_BASE_OFFSET,
        ),
    ])
    soc = _build_soc(n_ocps, seed, watchdog_cycles=2000)
    inject_faults(soc, plan)
    sched = ThroughputScheduler(soc, batch_jobs=2, backoff_cycles=64)
    staged = []
    place = sched._place_batch

    def spy(slot, batch):
        place(slot, batch)
        staged.append((batch, slot.plan.appetite,
                       soc.read_ram(slot.plan.prog_base, len(batch.words))))

    sched._place_batch = spy
    results = sched.run_stream(jobs)
    assert any(result.attempts > 1 for result in results)
    shared = {}
    for batch, block, words in staged:
        assert words == _fresh_batch_words(batch.jobs, block, sched.chunk)
        shape = (batch.total_words // block, block)
        assert shared.setdefault(shape, batch.program) is batch.program
    assert len(shared) < len({batch.batch_id for batch, _, _ in staged})
    for batch, block, _ in staged:
        assert batch.program.words() == list(batch.words) \
            == _fresh_batch_words(batch.jobs, block, sched.chunk)
    scheduled = {r.job.job_id: r.outputs for r in results}
    assert scheduled == run_sequential_reference(
        jobs, _factories(n_ocps, seed))


def test_multi_block_job_starts_the_rac_once_per_block():
    """A RAC that waits for its start gets one per block: a two-block
    job batched behind a one-block job completes bit-exact."""
    def rac():
        return PassthroughRac(block_size=PT_BLOCK, autostart=False)

    jobs = [Job("two", "passthrough", list(range(100, 100 + 2 * PT_BLOCK))),
            Job("one", "passthrough", list(range(PT_BLOCK)))]
    sched = ThroughputScheduler(build_mpsoc([rac()]), batch_jobs=2)
    results = sched.run_stream(jobs, max_cycles=50_000)
    assert {r.job.job_id: r.outputs for r in results} == \
        run_sequential_reference(jobs, {"passthrough": rac})


@pytest.mark.parametrize("words", [128, 2048])
def test_job_larger_than_the_output_fifo_runs_bit_exact(words):
    """The streaming recipe runs one operation per block, so only a
    block has to fit the FIFOs: a job of many 64-word FIFOs on a RAC
    with 8-word blocks is accepted and streams bit-exact, batched
    behind a one-block job, and the reference's arenas hold it too."""
    def rac():
        return PassthroughRac(block_size=PT_BLOCK, fifo_depth=64)

    rng = random.Random(SEED_BASE + 11)
    jobs = [Job("long", "passthrough", [rng.getrandbits(32)
                                        for _ in range(words)]),
            Job("one", "passthrough", list(range(PT_BLOCK)))]
    sched = ThroughputScheduler(build_mpsoc([rac()]), batch_jobs=2)
    results = sched.run_stream(jobs, max_cycles=50_000)
    assert {r.job.job_id: r.outputs for r in results} == \
        run_sequential_reference(jobs, {"passthrough": rac})


def test_batch_is_cut_before_its_program_outgrows_the_program_bank():
    """One-word blocks take three program words each, so 256 jobs of
    64 words would make one 49 153-word batch program: the dispatcher
    cuts each batch where its program still fits the 16 384-word
    program bank, and the stream runs bit-exact."""
    def rac():
        return PassthroughRac(block_size=1)

    rng = random.Random(SEED_BASE + 13)
    jobs = [Job(f"j{index}", "passthrough",
                [rng.getrandbits(32) for _ in range(64)])
            for index in range(256)]
    sched = ThroughputScheduler(build_mpsoc([rac()]), batch_jobs=256,
                                queue_bound=256)
    results = sched.run_stream(jobs)
    assert {r.job.job_id: r.outputs for r in results} == \
        run_sequential_reference(jobs, {"passthrough": rac})
    assert sched.slots[0].plan.max_job_words == 5461


def test_job_whose_program_outgrows_the_program_bank_is_refused():
    """A 6000-word job of one-word blocks needs an 18 001-word program:
    :meth:`ThroughputScheduler.submit` refuses it instead of letting
    the run fault past the program bank."""
    sched = ThroughputScheduler(build_mpsoc([PassthroughRac(block_size=1)]))
    with pytest.raises(ConfigurationError, match="program bank"):
        sched.submit(Job("big", "passthrough", list(range(6000))))
    assert sched.submitted == 0


def test_chained_jobs_bit_exact_with_batching():
    """Dependency chains stay bit-exact when fused into batches."""
    seed = SEED_BASE + 7
    rng = random.Random(seed)
    jobs = []
    for index in range(12):
        chain = f"c{index % 3}"
        words = [rng.getrandbits(32) for _ in range(PT_BLOCK)]
        jobs.append(Job(f"ch{index}", "passthrough", words, chain=chain))
    scheduled = _run_scheduled(jobs, 4, seed, batch_jobs=3)
    reference = run_sequential_reference(jobs, _factories(1, seed))
    assert scheduled == reference
