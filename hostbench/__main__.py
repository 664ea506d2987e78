"""Command line: ``python -m hostbench {run,compare,check}``.

    PYTHONPATH=src python -m hostbench run [--seed N] [--out FILE]
    python -m hostbench compare --parent-src A/src --change-src B/src
    python -m hostbench check FILE

Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from . import check, compare, harness
from .spec import OUT_DIR, SPECS, load_benchmark


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m hostbench")
    commands = parser.add_subparsers(dest="command", required=True)
    workload_help = "restrict to this workload (repeatable)"

    run = commands.add_parser(
        "run", help="every workload at its fixed size, untraced + traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=str(OUT_DIR / "result.json"))
    run.add_argument("--workload", action="append", choices=sorted(SPECS),
                     help=workload_help)

    pair = commands.add_parser(
        "compare", help="paired runs of a parent and a changed src tree")
    pair.add_argument("--parent-src", required=True)
    pair.add_argument("--change-src", required=True)
    pair.add_argument("--workload", action="append", choices=sorted(SPECS),
                      help=workload_help)
    pair.add_argument("--pairs", type=int, default=10)
    pair.add_argument("--seed", type=int, default=0)

    verify = commands.add_parser(
        "check", help="validate a result file against BENCHMARK.json")
    verify.add_argument("file")

    args = parser.parse_args(argv)
    if args.command == "check":
        return check.main(args.file, load_benchmark())
    names = args.workload or list(SPECS)
    try:
        if args.command == "run":
            result = harness.run_all(args.seed, names)
            pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.out}")
            failed = any(entry["failed"] or entry["trace_failed"]
                         or not entry["matches_untraced"]
                         for entry in result["workloads"].values())
            return 1 if failed else 0
        rows = compare.compare(args.parent_src, args.change_src, names,
                               args.pairs, args.seed)
        print(compare.render(rows))
        return 0
    except harness.HostbenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
