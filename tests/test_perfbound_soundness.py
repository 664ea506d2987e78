"""Differential soundness gate for ``repro.perfbound`` (OU3xx).

A seeded corpus of >= 60 programs spanning every streaming RAC kind is
bounded statically and then *run* on the full simulator; the measured
total cycles and the per-bucket Fig.-4 attribution must land inside the
predicted ``[lo, hi]`` intervals.  Each program is measured at both
ends of its declared memory-latency contract, so the same corpus
exercises clean runs and stall-faulted runs (a slow slave is exactly a
persistent bus-stall fault from the controller's point of view).

The gate also tracks tightness (``hi / lo`` of the total bound): bounds
that stay sound by being vacuous are a regression too.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable, List, Tuple

import pytest

from repro.core.program import OuProgram
from repro.mem.memory import Memory
from repro.obs import attribute_run, compare_attribution
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.rac.dft import DFTRac
from repro.rac.fir import FIRRac
from repro.rac.idct import IDCTRac
from repro.rac.matmul import MatMulRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.system import RAM_BASE, SoC
from repro.verify import verify_program
from repro.verify.domain import Interval

SEED_BASE = 20240
PROGRAMS_PER_KIND = 10

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x4000

#: every streaming RAC kind in the tree, smallest sensible geometry
KINDS: List[Tuple[str, Callable[[], object]]] = [
    ("idct", lambda: IDCTRac()),
    ("dft", lambda: DFTRac(n_points=16)),
    ("fir", lambda: FIRRac(block_size=16, n_taps=4)),
    ("matmul", lambda: MatMulRac(n=4)),
    ("scale", lambda: ScaleRac(block_size=8, factor=3, shift=1)),
    ("passthrough", lambda: PassthroughRac(block_size=8)),
]

#: declared memory-latency contracts the generator picks from; each
#: program is measured at both endpoints
CONTRACTS = (Interval(1, 1), Interval(1, 2), Interval(1, 3),
             Interval(2, 4))


def _op_block(p: OuProgram, timing: RacTiming) -> None:
    """One balanced accelerator operation: fill all ports, start,
    drain."""
    for port, need in enumerate(timing.items_in):
        p.stream_to(1, need, fifo=port)
    p.execs()
    p.stream_from(2, timing.items_out[0], fifo=0)


def build_seeded_program(seed: int, timing: RacTiming) -> OuProgram:
    """A random well-formed program: op blocks, loops, waits, nops."""
    rng = random.Random(seed)
    p = OuProgram()
    for _ in range(rng.randint(1, 3)):
        segment = rng.choice(("block", "block", "loop", "wait", "nops"))
        if segment == "block":
            for _ in range(rng.randint(1, 2)):
                _op_block(p, timing)
        elif segment == "loop":
            p.loop(rng.randint(2, 4))
            _op_block(p, timing)
            p.endl()
        elif segment == "wait":
            p.wait(rng.randint(1, 40))
        else:
            for _ in range(rng.randint(1, 4)):
                p.nop()
    if not any(True for _ in p.instructions):  # pragma: no cover
        _op_block(p, timing)
    p.eop()
    return p


def measure(program: OuProgram, rac, mem_latency: int,
            max_cycles: int = 2_000_000):
    """Run ``program`` on the real simulator, return the attribution."""
    soc = SoC(racs=[rac],
              memory=Memory("ram", 1 << 20, access_latency=mem_latency))
    soc.write_ram(IN, list(range(512)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=max_cycles)
    return attribute_run(soc)


def check_sound(program: OuProgram, factory, contract: Interval,
                tightness_log: List[float]) -> None:
    """Bound once, measure at both contract endpoints, assert
    containment."""
    instrs = list(program.instructions)
    rac = factory()
    assert verify_program(instrs, rac=rac,
                          configured_banks={0, 1, 2}).clean
    model = CostModel(mem_latency=contract, rac=RacTiming.of(rac))
    bound = bound_program(instrs, rac, model=model)
    assert bound.bounded, bound.report.render()
    tightness = bound.tightness()
    assert tightness is not None
    tightness_log.append(tightness)
    latencies = {int(contract.lo), int(contract.hi)}
    for latency in sorted(latencies):
        report = measure(program, factory(), mem_latency=latency)
        check = compare_attribution(report, bound)
        assert check.sound, (
            f"latency {latency}: {check.violations} "
            f"(measured {check.measured}, predicted {check.predicted})"
        )


@pytest.mark.parametrize("kind,factory", KINDS,
                         ids=[kind for kind, _ in KINDS])
def test_seeded_corpus_is_sound(kind, factory):
    """>= PROGRAMS_PER_KIND seeded programs per RAC kind stay inside
    their bounds at both ends of the latency contract."""
    timing = RacTiming.of(factory())
    tightness: List[float] = []
    for index in range(PROGRAMS_PER_KIND):
        seed = SEED_BASE + index * 31 + sum(map(ord, kind))
        rng = random.Random(seed)
        contract = rng.choice(CONTRACTS)
        program = build_seeded_program(seed, timing)
        check_sound(program, factory, contract, tightness)
    assert len(tightness) == PROGRAMS_PER_KIND
    # sound but vacuous bounds are a regression: the worst-case
    # inflation over the whole corpus stays bounded
    assert max(tightness) < 25.0
    assert statistics.median(tightness) < 12.0


def test_corpus_size_meets_gate_floor():
    """The differential gate covers >= 60 seeded programs."""
    assert len(KINDS) * PROGRAMS_PER_KIND >= 60


def test_blocking_exec_is_sound():
    """Blocking ``exec`` (items_out <= depth) is covered too."""
    factory = lambda: PassthroughRac(  # noqa: E731
        block_size=8, fifo_depth=16, compute_latency=6)
    timing = RacTiming.of(factory())
    p = OuProgram()
    for port, need in enumerate(timing.items_in):
        p.stream_to(1, need, fifo=port)
    p.exec_()
    p.stream_from(2, timing.items_out[0], fifo=0)
    p.eop()
    check_sound(p, factory, Interval(1, 2), [])


def test_shallow_fifo_round_trips_are_sound():
    """Fills larger than the FIFO (OU301 territory) stay sound."""
    factory = lambda: PassthroughRac(  # noqa: E731
        block_size=16, fifo_depth=8, compute_latency=2)
    p = OuProgram()
    p.stream_to(1, 16, chunk=16).execs().stream_from(2, 16).eop()
    rac = factory()
    model = CostModel(mem_latency=Interval(1, 2), rac=RacTiming.of(rac))
    bound = bound_program(list(p.instructions), rac, model=model)
    assert bound.bounded
    assert "OU301" in bound.report.codes()
    for latency in (1, 2):
        report = measure(p, factory(), mem_latency=latency)
        assert compare_attribution(report, bound).sound


def test_past_ibuf_fetch_path_is_sound():
    """Programs longer than the instruction buffer pay per-fetch bus
    transactions; the bound must absorb them."""
    factory = lambda: PassthroughRac(  # noqa: E731
        block_size=8, fifo_depth=16, compute_latency=2)
    p = OuProgram()
    for _ in range(70):
        p.nop()
    p.stream_to(1, 8).execs().stream_from(2, 8)
    for _ in range(70):
        p.nop()
    p.eop()
    check_sound(p, factory, Interval(1, 2), [])


def test_big_indexed_loop_is_sound():
    """Trip counts past the unroll limit (accelerated, not unrolled)
    with offset-indexed transfers stay sound.

    The volume verifier widens the drained interval over the 100-trip
    loop and conservatively flags OU034, so this case checks
    containment without the verifier-clean precondition: the cost
    bound must hold for any program that does run to completion.
    """
    factory = lambda: PassthroughRac(  # noqa: E731
        block_size=2, fifo_depth=8, compute_latency=1)
    p = OuProgram()
    p.clrofr()
    p.loop(100).mvtcx(1, 0, 2, fifo=0).execs().mvfcx(2, 0, 2, fifo=0)
    p.addofr(2).endl().eop()
    rac = factory()
    model = CostModel(mem_latency=Interval(1, 4), rac=RacTiming.of(rac))
    bound = bound_program(list(p.instructions), rac, model=model)
    assert bound.bounded, bound.report.render()
    for latency in (1, 4):
        report = measure(p, factory(), mem_latency=latency)
        check = compare_attribution(report, bound)
        assert check.sound, check.violations
