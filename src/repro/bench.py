"""Kernel work benchmarks: naive vs fast schedule.

The paper's workloads spend most of their simulated time *waiting* --
the controller parked in ``exec_wait`` while a deep datapath crunches,
a driver backing off on a busy device, a timeout running to its
deadline -- or *streaming* FIFO slabs and bus bursts.  The kernel's
fast schedule (see ``docs/SIMULATION.md``) turns those waits into O(1)
jumps, dispatches only the components that are due, and batches
trace-free streaming into single slab operations; this module records
how much per-cycle work that leaves, per workload.

Each workload runs once under ``naive`` (every component, every cycle:
the oracle) and once under ``fast`` (the shipping trace-free schedule),
and both runs are required to land on the *same simulated cycle count*
(anything else is a kernel equivalence bug, and the bench refuses to
report numbers for it).  Each row carries the fast run's kernel
counters from :meth:`repro.sim.Simulator.profile`: cycles ``ticked``
and ``skipped``, the number of ``skip_windows`` and the ticked cycles
the batch lane consumed (``batched``).  They are bit-stable on every
host, so the artifact holds no host-dependent field and CI gates it by
exact equality; a lost skip or batch window shows up as more ticked or
fewer batched cycles.  Host time is measured by ``hostbench``.

Each ``BenchResult`` also carries the run's cycle attribution
(transfer / compute / control, from ``repro.obs``); naive and fast
runs must agree on it exactly, extending the equivalence check from
"same final cycle" to "same cycle-by-cycle story".  Workloads that run
a coprocessor program additionally carry the ``repro.perfbound``
static cost-bound check: the measured cycles must land inside the
predicted ``[lo, hi]`` interval (the bench *fails* on a violation --
it doubles as the cost model's soundness gate on real workloads).

Entry points:

* :func:`run_benchmarks` -- programmatic, returns ``BenchResult`` rows;
* ``python -m repro.cli bench`` -- human-readable table plus the
  ``BENCH_simulator.json`` machine-readable artifact (``--output``
  overrides the path).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .bus.protocol import AHB, AXI4, BusProtocol
from .core.program import OuProgram
from .faults import FaultPlan, inject_faults
from .rac.dft import DFTRac
from .rac.idct import IDCTRac
from .rac.scale import PassthroughRac
from .sim.errors import DeadlockError, SimulationError
from .sim.kernel import SimProfile
from .system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000

#: kernel configurations each workload runs under
_MODE_KW: Dict[str, Dict[str, bool]] = {
    "naive": {"idle_skip": False},
    "fast": {"idle_skip": True},
}

#: (kernel counters, attribution dict or None, perfbound check dict or
#: None) of one run in one kernel mode
WorkloadRun = Tuple[SimProfile, Optional[Dict[str, object]],
                    Optional[Dict[str, object]]]
WorkloadFn = Callable[[str], WorkloadRun]


@dataclass
class BenchResult:
    """Naive / fast-checked measurement of one workload."""

    workload: str
    cycles: int
    #: kernel counters of the fast (trace-free, batch lane) run
    ticked: int
    skipped: int
    skip_windows: int
    batched: int
    #: cycle attribution of the run (``AttributionReport.as_dict``),
    #: ``None`` for workloads that never start a coprocessor
    attribution: Optional[Dict[str, object]] = None
    #: static cost-bound check (``repro.perfbound`` predicted interval
    #: vs the measured total), ``None`` when no program ran
    perfbound: Optional[Dict[str, object]] = None

    @property
    def skip_ratio(self) -> float:
        """Fraction of the cycles the fast schedule skipped."""
        return self.skipped / self.cycles if self.cycles else 0.0

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["skip_ratio"] = self.skip_ratio
        return out


@lru_cache(maxsize=None)
def _stream_program(words: int, repeats: int, chunk: int) -> OuProgram:
    """``repeats`` x (stream in, exec, stream out); built once, reused
    by every mode run (the program is immutable after ``eop``)."""
    program = OuProgram()
    for _ in range(repeats):
        (program.stream_to(1, words, chunk=chunk).execs()
                .stream_from(2, words, chunk=chunk))
    program.eop()
    return program


def _run_ocp(
    mode: str,
    rac_factory: Callable[[], object],
    words: int,
    repeats: int,
    max_cycles: int,
    data: Optional[List[int]] = None,
    expected: Optional[List[int]] = None,
    chunk: int = 64,
    protocol: BusProtocol = AHB,
    plan: Optional[FaultPlan] = None,
) -> WorkloadRun:
    """One OCP program: ``repeats`` x (stream in, exec, stream out)."""
    soc = SoC(racs=[rac_factory()], protocol=protocol, **_MODE_KW[mode])
    if plan is not None:
        inject_faults(soc, plan)
    program = _stream_program(words, repeats, chunk)
    if data is None:
        data = list(range(words))
    if expected is None:
        expected = list(data)
    soc.write_ram(IN, data)
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=max_cycles)
    if soc.read_ram(OUT, words) != expected:
        raise SimulationError("bench workload produced wrong data")
    from .obs import attribute_run, compare_attribution
    from .perfbound import bound_program
    from .perfbound.model import CostModel

    report = attribute_run(soc)
    model = CostModel.of_ocp(ocp, protocol, soc.memory.access_latency)
    bound = bound_program(list(program.instructions), ocp.rac, model=model)
    check = compare_attribution(report, bound)
    perfbound = {
        "predicted_lo": int(bound.total.lo),
        "predicted_hi": (int(bound.total.hi) if bound.bounded else None),
        "measured": report.total_cycles,
        "tightness": bound.tightness(),
        "sound": check.sound,
    }
    return soc.sim.profile(), report.as_dict(), perfbound


def _stall_heavy(mode: str):
    """Exec-wait dominated: a deep datapath, tiny data movement."""
    return _run_ocp(
        mode,
        lambda: PassthroughRac(block_size=16, fifo_depth=32,
                               compute_latency=50_000),
        words=16, repeats=4, max_cycles=400_000,
    )


def _loopback(mode: str):
    """Transfer dominated: almost nothing to skip (overhead check)."""
    return _run_ocp(
        mode,
        lambda: PassthroughRac(block_size=64, fifo_depth=128,
                               compute_latency=1),
        words=64, repeats=8, max_cycles=100_000,
    )


def _stall_faulted(mode: str):
    """Transfer dominated under injected RAM stalls: the injectors
    ride the same dispatch scan and batch lane as a clean run, so this
    counts the fast schedule's work with a fault plan armed.  The
    recoverable stalls fire inside the program: 4033 cycles against
    3934 without them."""
    return _run_ocp(
        mode,
        lambda: PassthroughRac(block_size=64, fifo_depth=128,
                               compute_latency=1),
        words=64, repeats=16, max_cycles=100_000,
        plan=FaultPlan.random_stalls(7, n_events=4, sites=("ram",),
                                     max_index=30, max_stall=20),
    )


#: deterministic 8x8 coefficient block (sign-extended 16-bit words)
_IDCT_INPUT = [(index * 37 + 11) % 256 for index in range(64)]
#: deterministic interleaved Q15 complex input for the 256-point DFT
_DFT_INPUT = [(index * 97 + 5) % 1024 for index in range(512)]


@lru_cache(maxsize=None)
def _idct_expected() -> Tuple[int, ...]:
    return tuple(IDCTRac().compute_fn([list(_IDCT_INPUT)])[0])


@lru_cache(maxsize=None)
def _dft_expected() -> Tuple[int, ...]:
    return tuple(DFTRac(n_points=256).compute_fn([list(_DFT_INPUT)])[0])


def _jpeg_idct(mode: str):
    """Transfer heavy: the paper's 8x8 IDCT streaming many blocks.

    64 words in + 64 words out per block against an 18-cycle pipeline
    latency -- data movement dominates, which is exactly what the
    burst/slab batch lane accelerates.  Runs on the AXI4 system
    (the paper's Zynq integration target): whole-block bursts keep the
    stream dense, making this the densest-transfer configuration the
    kernel faces.
    """
    return _run_ocp(
        mode,
        lambda: IDCTRac(fifo_depth=64),
        words=64, repeats=48, max_cycles=400_000,
        data=list(_IDCT_INPUT), expected=list(_idct_expected()),
        protocol=AXI4,
    )


def _dft(mode: str):
    """Transfer heavy: the paper's 256-point Spiral DFT.

    1024 words moved per transform (512 in, 512 out) through FIFOs deep
    enough to hold a whole transform: long mvtc/mvfc chunk trains whose
    producer/consumer runs are exactly the slab shapes the hot batch
    lane targets.  Like :func:`_jpeg_idct` this runs on the AXI4
    long-burst system so the transfer stream stays dense.
    """
    return _run_ocp(
        mode,
        lambda: DFTRac(n_points=256, fifo_depth=512),
        words=512, repeats=12, max_cycles=400_000,
        data=list(_DFT_INPUT), expected=list(_dft_expected()), chunk=128,
        protocol=AXI4,
    )


def _idle_timeout(mode: str):
    """A timeout running to its deadline on a quiescent system.

    This is the driver-backoff / watchdog shape: nothing will ever
    happen, and the naive kernel still ticks every component for every
    one of the ``max_cycles`` cycles before raising.
    """
    soc = SoC(racs=[PassthroughRac(block_size=16)], **_MODE_KW[mode])
    try:
        soc.sim.run_until(lambda: False, 200_000, "bench timeout")
    except DeadlockError:
        pass
    else:  # pragma: no cover - the predicate above is constant
        raise SimulationError("bench timeout unexpectedly satisfied")
    # the coprocessor never starts: nothing to attribute or to bound
    return soc.sim.profile(), None, None


WORKLOADS: Dict[str, WorkloadFn] = {
    "stall_heavy": _stall_heavy,
    "loopback": _loopback,
    "stall_faulted": _stall_faulted,
    "jpeg_idct": _jpeg_idct,
    "dft": _dft,
    "idle_timeout": _idle_timeout,
}


def run_benchmarks(
    names: Optional[List[str]] = None,
) -> List[BenchResult]:
    """Run each workload in both modes; verify cycle equality."""
    results: List[BenchResult] = []
    for name in names or list(WORKLOADS):
        naive, naive_att, naive_pb = WORKLOADS[name]("naive")
        fast, fast_att, fast_pb = WORKLOADS[name]("fast")
        if fast.cycles != naive.cycles:
            raise SimulationError(
                f"bench {name!r}: naive finished at cycle {naive.cycles} "
                f"but fast at {fast.cycles} -- kernel equivalence violated"
            )
        if naive.skipped or naive.batched:
            raise SimulationError(
                f"bench {name!r}: naive run skipped {naive.skipped} and "
                f"batched {naive.batched} cycles (must be 0)"
            )
        if fast_att != naive_att:
            raise SimulationError(
                f"bench {name!r}: naive and fast runs disagree on cycle "
                f"attribution -- kernel equivalence violated "
                f"(naive={naive_att} fast={fast_att})"
            )
        if fast_pb != naive_pb:
            raise SimulationError(
                f"bench {name!r}: naive and fast runs disagree on the "
                f"cost-bound check (naive={naive_pb} fast={fast_pb})"
            )
        if fast_pb is not None and not fast_pb["sound"]:
            raise SimulationError(
                f"bench {name!r}: measured attribution escaped the "
                f"static cost bound ({fast_pb}) -- the cost model or "
                f"the simulator timing drifted"
            )
        results.append(BenchResult(
            workload=name,
            cycles=fast.cycles,
            ticked=fast.ticked,
            skipped=fast.skipped,
            skip_windows=fast.skip_windows,
            batched=fast.batched,
            attribution=fast_att,
            perfbound=fast_pb,
        ))
    return results


def render_results(results: List[BenchResult]) -> str:
    header = (
        f"{'workload':<14} {'cycles':>9} {'wcet':>9} {'ticked':>9} "
        f"{'batched':>9} {'windows':>8} {'skip %':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        wcet = "-"
        if r.perfbound is not None and r.perfbound["predicted_hi"]:
            wcet = str(r.perfbound["predicted_hi"])
        lines.append(
            f"{r.workload:<14} {r.cycles:>9} {wcet:>9} {r.ticked:>9} "
            f"{r.batched:>9} {r.skip_windows:>8} "
            f"{100 * r.skip_ratio:>6.1f}"
        )
    return "\n".join(lines)


def write_report(
    results: List[BenchResult],
    path: str,
    mpsoc: Optional["MpsocSweep"] = None,
) -> None:
    """Emit the machine-readable artifact (``BENCH_simulator.json``)."""
    payload: Dict[str, object] = {
        "bench": "simulator",
        "workloads": [r.as_dict() for r in results],
    }
    if mpsoc is not None:
        payload["mpsoc"] = mpsoc.as_dict()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# MPSoC scale-out sweep (throughput scheduler across N OCPs)
# ---------------------------------------------------------------------------

@dataclass
class MpsocPoint:
    """One point of the 1..N OCP scaling curve."""

    ocps: int
    jobs: int
    cycles: int
    #: aggregate throughput at the modelled clock (jobs per second)
    ops_per_sec: float
    #: processed payload words per simulated cycle
    words_per_cycle: float
    #: aggregate throughput relative to the 1-OCP point
    speedup_vs_1: float
    #: mean per-OCP busy fraction over the run
    utilization: float
    #: kernel counters of the fast run (``Simulator.profile()``)
    ticked: int
    batched: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class MpsocSweep:
    """The whole scaling curve plus its workload parameters."""

    workload: str
    jobs: int
    job_words: int
    compute_latency: int
    batch_jobs: int
    clock_mhz: float
    points: List[MpsocPoint]

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["points"] = [p.as_dict() for p in self.points]
        return out


def run_mpsoc_sweep(
    n_jobs: int = 192,
    ocp_counts: Tuple[int, ...] = (1, 2, 4, 8),
    job_words: int = 16,
    compute_latency: int = 400,
    batch_jobs: int = 4,
    queue_bound: int = 8,
    clock_mhz: float = 50.0,
) -> MpsocSweep:
    """Throughput-scheduler scaling curve on the passthrough workload.

    The same ``n_jobs``-job stream is dispatched across 1, 2, 4, 8
    identical passthrough OCPs behind one AHB arbiter; each point
    verifies every output word (passthrough is the identity), and the
    smallest point is additionally re-run under the naive kernel to
    re-assert cycle equivalence before any throughput is reported.
    """
    from .obs import attribute_schedule
    from .sched import Job, ThroughputScheduler

    def job_stream() -> List[Job]:
        # deterministic payload, no RNG: job index mixed with a Weyl
        # constant so neighbouring jobs do not share words
        return [
            Job(
                f"job{index}", "passthrough",
                [(index * 2654435761 + word) & 0xFFFFFFFF
                 for word in range(job_words)],
            )
            for index in range(n_jobs)
        ]

    def run_one(count: int, idle_skip: bool) -> Tuple[SimProfile, float]:
        soc = SoC(
            racs=[
                PassthroughRac(
                    name=f"pt{index}", block_size=job_words,
                    fifo_depth=2 * job_words,
                    compute_latency=compute_latency,
                )
                for index in range(count)
            ],
            idle_skip=idle_skip, clock_mhz=clock_mhz,
        )
        scheduler = ThroughputScheduler(
            soc, batch_jobs=batch_jobs, queue_bound=queue_bound,
        )
        results = scheduler.run_stream(job_stream(), max_cycles=20_000_000)
        for result in results:
            if result.outputs != result.job.words:
                raise SimulationError(
                    f"mpsoc sweep: job {result.job.job_id} corrupted on "
                    f"the {count}-OCP point"
                )
        report = attribute_schedule(scheduler)
        if not report.consistent:
            raise SimulationError(
                "mpsoc sweep: per-OCP job attribution does not sum to "
                "the completed total"
            )
        mean_util = (
            sum(s.utilization for s in report.per_ocp) / len(report.per_ocp)
        )
        return soc.sim.profile(), mean_util

    points: List[MpsocPoint] = []
    base_cycles: Optional[int] = None
    for count in ocp_counts:
        profile, utilization = run_one(count, idle_skip=True)
        cycles = profile.cycles
        if count == min(ocp_counts):
            naive, _ = run_one(count, idle_skip=False)
            if naive.cycles != cycles:
                raise SimulationError(
                    f"mpsoc sweep: naive kernel finished at cycle "
                    f"{naive.cycles} but fast at {cycles} -- "
                    f"kernel equivalence violated"
                )
        if base_cycles is None:
            base_cycles = cycles
        seconds = cycles / (clock_mhz * 1e6)
        points.append(MpsocPoint(
            ocps=count,
            jobs=n_jobs,
            cycles=cycles,
            ops_per_sec=n_jobs / seconds if seconds else 0.0,
            words_per_cycle=n_jobs * job_words / cycles if cycles else 0.0,
            speedup_vs_1=base_cycles / cycles if cycles else 0.0,
            utilization=utilization,
            ticked=profile.ticked,
            batched=profile.batched,
        ))
    return MpsocSweep(
        workload="mpsoc_passthrough",
        jobs=n_jobs,
        job_words=job_words,
        compute_latency=compute_latency,
        batch_jobs=batch_jobs,
        clock_mhz=clock_mhz,
        points=points,
    )


def render_mpsoc(sweep: MpsocSweep) -> str:
    header = (
        f"{'ocps':>4} {'cycles':>10} {'ops/s':>12} {'words/cyc':>10} "
        f"{'speedup':>8} {'util %':>7}"
    )
    lines = [
        f"mpsoc scale-out: {sweep.jobs} x {sweep.job_words}-word "
        f"{sweep.workload} jobs, batch={sweep.batch_jobs}, "
        f"{sweep.clock_mhz:g} MHz",
        header,
        "-" * len(header),
    ]
    for p in sweep.points:
        lines.append(
            f"{p.ocps:>4} {p.cycles:>10} {p.ops_per_sec:>12.0f} "
            f"{p.words_per_cycle:>10.3f} {p.speedup_vs_1:>7.2f}x "
            f"{100 * p.utilization:>6.1f}"
        )
    return "\n".join(lines)
