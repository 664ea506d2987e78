"""Every cost bound the analyzer reports on a fixed program set, pinned.

The cost-aware scheduler routes on :func:`repro.perfbound.bound_program`
intervals, so a moved interval can move simulated cycles; the
soundness gate (``tests/test_perfbound_soundness.py``) only checks that
bounds contain the measured run, not that they stay where they are.
``perfbound_golden.json`` holds ``CostBound.to_json()`` for:

* every program of the soundness gate's seeded corpus, bounded under
  its declared memory-latency contract and under each end of it as a
  point contract;
* the gate's hand-written cases (blocking ``exec``, a shallow FIFO, the
  past-ibuf fetch path with and without prefetch, a 100-trip indexed
  loop) a few refusals, one per OU300 cause, and the OU303 and OU304
  advisories;
* the program and elaborated-OCP model of each coprocessor workload in
  ``BENCH_simulator.json``;
* the scheduler's per-job program (:func:`repro.sched.batch.
  shape_program`) for each job shape of the scheduler benchmarks.

Regenerate (only for a deliberate change of what the analyzer
reports)::

    PYTHONPATH=src:. python tests/test_perfbound_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.bus.protocol import AHB, AXI4
from repro.core.program import OuProgram, streaming_program
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.rac.dft import DFTRac
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sched.batch import shape_program
from repro.verify.domain import Interval

from tests.test_perfbound_soundness import (
    CONTRACTS,
    KINDS,
    PROGRAMS_PER_KIND,
    SEED_BASE,
    build_seeded_program,
)

PERFBOUND_GOLDEN = Path(__file__).with_name("perfbound_golden.json")


def _bound(program, rac, sla_cycles=None, **model_kw) -> Dict[str, object]:
    model = CostModel(rac=RacTiming.of(rac) if rac is not None else None,
                      **model_kw)
    return bound_program(list(program.instructions), rac, model=model,
                         sla_cycles=sla_cycles).to_json()


def _contracts(contract: Interval) -> Iterator[Tuple[str, Interval]]:
    """The contract itself, then each of its ends as a point."""
    lo, hi = int(contract.lo), int(contract.hi)
    yield f"{lo}-{hi}", contract
    for end in sorted({lo, hi}):
        yield f"{end}", Interval.point(end)


def _corpus() -> Dict[str, object]:
    out: Dict[str, object] = {}
    for kind, factory in KINDS:
        timing = RacTiming.of(factory())
        for index in range(PROGRAMS_PER_KIND):
            seed = SEED_BASE + index * 31 + sum(map(ord, kind))
            contract = random.Random(seed).choice(CONTRACTS)
            program = build_seeded_program(seed, timing)
            for label, latency in _contracts(contract):
                out[f"corpus/{kind}/{index}/{label}"] = _bound(
                    program, factory(), mem_latency=latency)
    return out


def _cases() -> Dict[str, object]:
    def passthrough(block, depth, latency):
        return PassthroughRac(block_size=block, fifo_depth=depth,
                              compute_latency=latency)

    blocking = OuProgram().stream_to(1, 8).exec_().stream_from(2, 8).eop()
    shallow = (OuProgram().stream_to(1, 16, chunk=16).execs()
               .stream_from(2, 16).eop())
    past_ibuf = OuProgram()
    for _ in range(70):
        past_ibuf.nop()
    past_ibuf.stream_to(1, 8).execs().stream_from(2, 8)
    for _ in range(70):
        past_ibuf.nop()
    past_ibuf.eop()
    indexed = OuProgram().clrofr()
    indexed.loop(100).mvtcx(1, 0, 2, fifo=0).execs().mvfcx(2, 0, 2, fifo=0)
    indexed.addofr(2).endl().eop()
    control = OuProgram().nop().wait(25).loop(3).nop().endl().eop()
    waitf = (OuProgram().stream_to(1, 8).execs().stream_from(2, 8)
             .waitf("out", 0, 1).eop())
    unbounded = OuProgram().stream_to(1, 8).execs().eop()

    cases = [
        ("blocking_exec", blocking, (8, 16, 6), Interval(1, 2), {}),
        ("shallow_fifo", shallow, (16, 8, 2), Interval(1, 2), {}),
        ("past_ibuf", past_ibuf, (8, 16, 2), Interval(1, 2), {}),
        ("past_ibuf/no_prefetch", past_ibuf, (8, 16, 2), Interval(1, 2),
         {"prefetch": False}),
        ("past_ibuf/ibuf_4", past_ibuf, (8, 16, 2), Interval(1, 2),
         {"ibuf_size": 4}),
        ("indexed_loop", indexed, (2, 8, 1), Interval(1, 4), {}),
        ("indexed_loop/axi4", indexed, (2, 8, 1), Interval(1, 4),
         {"protocol": AXI4}),
        ("long_drain/axi4", streaming_program([300], [300], 2, 128),
         (300, 512, 3), Interval(1, 3), {"protocol": AXI4}),
        ("control_only", control, None, Interval(1, 3), {}),
        ("refused/waitf", waitf, (8, 16, 2), Interval(1, 1), {}),
        ("refused/no_contract", shallow, None, Interval(1, 1), {}),
        ("refused/empty", OuProgram(), (8, 16, 2), Interval(1, 1), {}),
        ("unbalanced", unbounded, (8, 16, 2), Interval(1, 2), {}),
        ("two_masters", shallow, (16, 8, 2), Interval(1, 2),
         {"masters": 2}),
        ("sla", shallow, (16, 8, 2), Interval(1, 2), {"sla_cycles": 100}),
    ]
    out: Dict[str, object] = {}
    for name, program, shape, contract, model_kw in cases:
        for label, latency in _contracts(contract):
            rac = passthrough(*shape) if shape is not None else None
            out[f"cases/{name}/{label}"] = _bound(
                program, rac, mem_latency=latency, **model_kw)
    return out


def _bench() -> Dict[str, object]:
    """Each ``repro.bench`` coprocessor workload: its program on the
    OCP it runs on (AHB or AXI4, memory latency 1, default ibuf)."""
    workloads = [
        ("stall_heavy", PassthroughRac(block_size=16, fifo_depth=32,
                                       compute_latency=50_000),
         16, 4, 64, AHB),
        ("loopback", PassthroughRac(block_size=64, fifo_depth=128,
                                    compute_latency=1), 64, 8, 64, AHB),
        ("stall_faulted", PassthroughRac(block_size=64, fifo_depth=128,
                                         compute_latency=1),
         64, 16, 64, AHB),
        ("jpeg_idct", IDCTRac(fifo_depth=64), 64, 48, 64, AXI4),
        ("dft", DFTRac(n_points=256, fifo_depth=512), 512, 12, 128, AXI4),
        ("figure4", DFTRac(n_points=256), 512, 1, 64, AHB),
    ]
    return {
        f"bench/{name}": _bound(
            streaming_program([words], [words], repeats, chunk), rac,
            protocol=protocol, mem_latency=Interval.point(1))
        for name, rac, words, repeats, chunk, protocol in workloads
    }


def _sched() -> Dict[str, object]:
    """The scheduler's job program for every job shape its benchmarks
    and examples submit, up to a four-block job."""
    shapes = [
        # repro bench's MPSoC sweep and hostbench's sched_mpsoc8
        ("sweep", 16, 32, 400),
        # examples/streams (passthrough:16)
        ("streams", 16, 64, 1),
        # tests/test_stats_golden.py's scheduler run
        ("stats", 8, 64, 40),
    ]
    out: Dict[str, object] = {}
    for name, block, depth, latency in shapes:
        for operations in range(1, 5):
            program, _ = shape_program(operations, block, 64)
            out[f"sched/{name}/{operations}"] = _bound(
                program, PassthroughRac(block_size=block, fifo_depth=depth,
                                        compute_latency=latency),
                mem_latency=Interval.point(1))
    return out


SECTIONS = {"corpus": _corpus, "cases": _cases, "bench": _bench,
            "sched": _sched}


def _all() -> Dict[str, object]:
    out: Dict[str, object] = {}
    for build in SECTIONS.values():
        out.update(build())
    return out


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_bounds_match_golden(section):
    """Every bound of the section equals the golden, field for field."""
    golden = json.loads(PERFBOUND_GOLDEN.read_text())
    fresh = SECTIONS[section]()
    assert sorted(fresh) == sorted(
        key for key in golden if key.startswith(f"{section}/"))
    for key, value in fresh.items():
        assert value == golden[key], key


if __name__ == "__main__":
    # one bound per line, so a diff of the golden names each moved bound
    PERFBOUND_GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(bound, sort_keys=True)}"
        for key, bound in sorted(_all().items())) + "\n}\n")
