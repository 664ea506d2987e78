"""Every statistic of three untraced runs, pinned exactly.

``trace_golden.json`` pins only traced runs, while the hooks the fast
schedule calls count their statistics on the untraced path as well.
``stats_golden.json`` holds, for each run below, every registered
component's ``stats.items()`` and each controller's performance
registers, so an edit to a counting call site cannot change a count,
nor make a zero-count key appear or vanish.

Regenerate (only for a deliberate change of what is counted)::

    PYTHONPATH=src python tests/test_stats_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

STATS_GOLDEN = Path(__file__).with_name("stats_golden.json")


def _component_stats(soc):
    """Each registered component's statistics and each OCP's perf
    registers, as JSON-ready lists."""
    components = {
        comp.name: [list(item) for item in comp.stats.items()]
        for comp in soc.sim.components if hasattr(comp, "stats")
    }
    perf = [ocp.controller.perf.snapshot() for ocp in soc.ocps]
    return {"cycle": soc.sim.cycle, "components": components, "perf": perf}


def _figure4():
    """The Figure 4 DFT-256 on an AHB SoC through ``BaremetalRuntime``."""
    from repro.core.program import figure4_program
    from repro.rac.dft import DFTRac
    from repro.sw.baremetal import BaremetalRuntime
    from repro.system import RAM_BASE, SoC
    from repro.utils import fixedpoint as fp

    soc = SoC(racs=[DFTRac(n_points=256)])
    rng = random.Random(2016)
    re, im = ([fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(256)]
              for _ in range(2))
    banks = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
             2: RAM_BASE + 0x8000}
    soc.write_ram(banks[1], fp.interleave_complex(re, im))
    result = BaremetalRuntime(soc).run(figure4_program(256).words(), banks)
    assert result.total_cycles == 3935
    return soc


def _scheduler():
    """A 24-job ``ThroughputScheduler`` stream on two passthrough OCPs."""
    from repro.rac.scale import PassthroughRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    soc = build_mpsoc([PassthroughRac(name=f"pt{index}", block_size=8,
                                      compute_latency=40)
                       for index in range(2)])
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=4)
    rng = random.Random(280)
    jobs = [Job(f"j{index}", "passthrough",
                [rng.getrandbits(32) for _ in range(8)])
            for index in range(24)]
    results = sched.run_stream(jobs)
    assert [result.outputs for result in results] == \
        [job.words for job in jobs]
    return soc


def _faulty_fifos():
    """A loopback run whose input FIFO drops one word and duplicates
    another, and whose output FIFO duplicates one (untraced)."""
    from repro.core.program import OuProgram
    from repro.faults import FaultEvent, FaultKind, FaultPlan
    from repro.faults.harness import faulty_fifo_factory
    from repro.rac.scale import PassthroughRac
    from repro.sw.driver import OuessantDriver
    from repro.system import RAM_BASE, SoC

    plan = FaultPlan(events=[
        FaultEvent(FaultKind.DROP_WORD, "fifo.in0", index=3),
        FaultEvent(FaultKind.DUP_WORD, "fifo.in0", index=9),
        FaultEvent(FaultKind.DUP_WORD, "fifo.out0", index=5),
    ])
    soc = SoC(with_cpu=False)
    soc.add_ocp(PassthroughRac(block_size=16),
                fifo_factory=faulty_fifo_factory(plan))
    banks = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
             2: RAM_BASE + 0x3000}
    soc.write_ram(banks[1], list(range(100, 116)))
    program = (OuProgram().stream_to(1, 16).execs()
               .stream_from(2, 16).eop())
    OuessantDriver(soc).run(program.words(), banks)
    return soc


RUNS = {"figure4": _figure4, "scheduler": _scheduler,
        "faulty_fifos": _faulty_fifos}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stats_match_golden(run):
    """Every component's statistics and the perf registers of each run
    equal the golden, key for key."""
    golden = json.loads(STATS_GOLDEN.read_text())[run]
    assert _component_stats(RUNS[run]()) == golden


if __name__ == "__main__":
    STATS_GOLDEN.write_text(json.dumps(
        {name: _component_stats(run()) for name, run in RUNS.items()},
        indent=1, sort_keys=True) + "\n")
