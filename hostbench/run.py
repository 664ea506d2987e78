"""One benchmark run of one workload, summarized on one JSON line.

    python3 hostbench/run.py --workload fig4_dft --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run is untraced, at the workload's fixed size
(the same as ``python -m hostbench run`` and ``compare``); the last
line carries every end-to-end metric.  With ``--trace 1`` it is the
fixed-size traced run and the last line carries every per-layer
metric.  The run length never depends on how fast the code is, so two
commits do the same work; the fixed sizes measure about
``run_seconds`` of ``BENCHMARK.json`` on the baseline host, and
``--seconds`` (that value) does not change them.  Every run ends
within ``harness.RUN_DEADLINE_S``.  Run from the checkout root;
``src/repro`` is the code under test.  Exits 1 without a result line
when a child fails or the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from hostbench import harness  # noqa: E402
from hostbench.spec import SPECS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run_seconds of BENCHMARK.json; the run "
                             "length is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into an exception so the running child is killed and
    # reaped on the way out instead of outliving this process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            result = harness.trace_workload(args.workload, args.seed)
        else:
            result = harness.run_workload(args.workload, args.seed)
    except harness.HostbenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(harness.summary_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
