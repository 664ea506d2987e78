#!/usr/bin/env python
"""Count the Python-level calls one simulated op makes.

Two ops, each on a warmed-up system with fixed inputs:

* ``fig4_op``: one Figure 4 DFT-256 on a persistent AHB SoC through
  ``BaremetalRuntime`` (write the input bank, run, read the output);
* ``sched_job``: a 96-job passthrough stream over 8 OCPs through
  ``ThroughputScheduler``, divided by its job count;
* ``jpeg_block``: one 8x8 block through ``OuessantLibrary.idct`` under
  the Linux model (the per-call control path of the JPEG use case:
  register configuration, start, interrupt, acknowledge).

Calls are counted with ``sys.setprofile`` ``call`` events.  List, dict
and set comprehension frames are left out, because Python 3.12 inlines
them; every other Python frame counts, a resumed generator included.
Nothing here reads a clock, so the counts repeat exactly for a given
Python version.  The hooks the fast schedule calls per event should do
their bookkeeping with attribute and subscript operations, and these
counts show when one starts paying for a Python call instead.

The kernel's compiled walk is listed under the synthetic filenames of
its generated source, such as ``<sim walk 5ba48dd3 scan>:2
dispatch_scan`` on the Figure 4 SoC; they depend only on the shape of
the component list, so they are the same in every run.

Usage::

    PYTHONPATH=src python scripts/hook_calls.py            # counts
    PYTHONPATH=src python scripts/hook_calls.py --top 15   # + hottest
    PYTHONPATH=src python scripts/hook_calls.py --check    # CI budget

``--check`` exits 1 when a count exceeds its entry in :data:`BUDGET`.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from typing import Callable, Dict, Tuple

from repro.core.program import figure4_program
from repro.rac.dft import DFTRac
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sched import Job, ThroughputScheduler
from repro.sw.baremetal import BaremetalRuntime
from repro.sw.library import OuessantLibrary
from repro.system import RAM_BASE, SoC, build_mpsoc
from repro.utils import fixedpoint as fp

#: calls per op allowed by ``--check``: 3% above the counts measured
#: with CPython 3.11 when each entry was set (3855, 365.8 and 700), for
#: the interpreter differences between CPython versions
BUDGET = {"fig4_op": 3971, "sched_job": 377, "jpeg_block": 721}

#: frames that CPython 3.12 inlines into their caller
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

SCHED_OCPS = 8
SCHED_JOBS = 96
SCHED_JOB_WORDS = 16


def _fig4() -> Tuple[Callable[[], object], int]:
    """The Figure 4 op and its op count (1), after one warm-up op."""
    soc = SoC(racs=[DFTRac(n_points=256)])
    runtime = BaremetalRuntime(soc)
    words = figure4_program(256).words()
    banks = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
             2: RAM_BASE + 0x4000}
    rng = random.Random(2016)
    signal = fp.interleave_complex(
        *([fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(256)]
          for _ in range(2)))

    def op() -> object:
        soc.write_ram(banks[1], signal)
        runtime.run(words, banks)
        return soc.read_ram(banks[2], len(signal))

    op()
    return op, 1


def _sched() -> Tuple[Callable[[], object], int]:
    """The scheduler stream and its job count, after one warm-up job."""
    scheduler = ThroughputScheduler(
        build_mpsoc([PassthroughRac(name=f"pt{index}",
                                    block_size=SCHED_JOB_WORDS,
                                    fifo_depth=2 * SCHED_JOB_WORDS,
                                    compute_latency=400)
                     for index in range(SCHED_OCPS)]),
        batch_jobs=4, queue_bound=8)
    scheduler.run_stream([Job("warmup", "passthrough",
                              list(range(SCHED_JOB_WORDS)))])
    rng = random.Random(2016)
    jobs = [Job(f"job{n}", "passthrough",
                [rng.getrandbits(32) for _ in range(SCHED_JOB_WORDS)])
            for n in range(SCHED_JOBS)]
    return (lambda: scheduler.run_stream(jobs, max_cycles=2_000_000),
            SCHED_JOBS)


def _jpeg() -> Tuple[Callable[[], object], int]:
    """One library IDCT call under the Linux model and its op count
    (1), after one warm-up call (which plans and encodes the
    firmware)."""
    library = OuessantLibrary(SoC(racs=[IDCTRac()]), environment="linux")
    rng = random.Random(2016)
    block = [[rng.randint(-1024, 1023) for _ in range(8)] for _ in range(8)]

    def op() -> object:
        return library.idct(block)

    op()
    return op, 1


OPS: Dict[str, Callable[[], Tuple[Callable[[], object], int]]] = {
    "fig4_op": _fig4, "sched_job": _sched, "jpeg_block": _jpeg,
}


def count_calls(op: Callable[[], object]) -> Counter:
    """Python-level calls made by ``op()``, by ``file:line name``."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name not in _INLINED:
                calls[code] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    # drop the op's own frame
    calls[op.__code__] -= 1
    return Counter({f"{code.co_filename.rsplit('/src/', 1)[-1]}:"
                    f"{code.co_firstlineno} {code.co_name}": n
                    for code, n in calls.items() if n > 0})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N most-called functions")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a count exceeds its budget")
    args = parser.parse_args(argv)
    over = []
    for name, build in OPS.items():
        op, ops = build()
        calls = count_calls(op)
        per_op = sum(calls.values()) / ops
        print(f"{name:<10} {per_op:>10.1f} calls per op"
              f"  (budget {BUDGET[name]})")
        for where, n in calls.most_common(args.top):
            print(f"  {n / ops:>10.1f}  {where}")
        if per_op > BUDGET[name]:
            over.append(name)
    if args.check and over:
        print(f"over budget: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
