"""Command-line tools for the Ouessant reproduction.

``python -m repro.cli <command>`` provides the developer workflow the
original project shipped alongside its RTL:

* ``assemble``  -- microcode text -> instruction words (hex, one/line)
* ``disasm``    -- instruction words -> Figure 4 style text
* ``lint``      -- system-level SoC integrity analysis (OU1xx), with
  optional ``--firmware`` composition of the microcode pass
* ``verify``    -- microcode static analysis incl. cross-layer
  contracts (OU0xx)
* ``racecheck`` -- cross-OCP concurrency-hazard analysis of a planned
  job stream (OU2xx)
* ``perfbound`` -- static cycle-cost / WCET bound for a microcode
  program (OU3xx), with optional SLA budget check
* ``diag``      -- print diagnostic-catalog entries (code, title,
  severity, doc anchor)
* ``estimate``  -- FPGA resource report for an OCP + RAC
* ``table1``    -- regenerate the paper's Table I
* ``transfer``  -- regenerate the cycles-per-word analysis
* ``faults``    -- fault-injection demo (replay + recovery)
* ``bench``     -- kernel work counters per workload, naive vs fast
  schedule checked equal (deterministic JSON artifact)
* ``profile``   -- traced workload run with cycle attribution,
  Perfetto/VCD export and a counter read-back differential check

Every command reads/writes plain text so it composes with shell
pipelines; ``main`` returns a process exit code and is directly
callable from tests.

Exit codes for the analysis commands (``lint``, ``verify``,
``racecheck``, ``perfbound``) are a documented contract for scripting:

* ``0`` -- the program is clean (no error-severity findings),
* ``1`` -- at least one error finding,
* ``2`` -- usage or input problems (unreadable file, bad RAC spec,
  malformed options).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.assembler import assemble_microcode, disassemble
from .core.encoding import decode as ou_decode
from .rac.base import RAC
from .rac.dft import DFTRac
from .rac.fir import FIRRac
from .rac.idct import IDCTRac
from .rac.matmul import MatMulRac
from .rac.scale import PassthroughRac, ScaleRac
from .sim.errors import ReproError


def _make_rac(spec: str) -> RAC:
    """Parse ``idct`` / ``dft:256`` / ``fir:128,16`` / ... into a RAC."""
    name, _, args = spec.partition(":")
    try:
        values = [int(v) for v in args.split(",") if v]
    except ValueError:
        raise ReproError(
            f"bad RAC spec {spec!r}: parameters must be integers"
        ) from None
    name = name.lower()
    if name == "idct":
        return IDCTRac()
    if name == "dft":
        return DFTRac(n_points=values[0] if values else 256)
    if name == "fir":
        block = values[0] if values else 128
        taps = values[1] if len(values) > 1 else 16
        return FIRRac(block_size=block, n_taps=taps)
    if name == "matmul":
        return MatMulRac(n=values[0] if values else 8)
    if name == "scale":
        return ScaleRac(block_size=values[0] if values else 16)
    if name in ("passthrough", "loopback"):
        return PassthroughRac(block_size=values[0] if values else 16)
    raise ReproError(
        f"unknown RAC {name!r} (known: idct, dft[:N], fir[:BLOCK,TAPS], "
        "matmul[:N], scale[:N], passthrough[:N])"
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_words(path: str) -> List[int]:
    return [int(token, 16) for token in _read_text(path).split()]


def _cmd_assemble(args: argparse.Namespace) -> int:
    words = assemble_microcode(_read_text(args.input))
    for word in words:
        print(f"{word:08x}")
    print(f"# {len(words)} instructions", file=sys.stderr)
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    print(disassemble(_read_words(args.input)))
    return 0


def _load_program(path: str) -> List["object"]:
    """Read microcode (assembly text or hex words) into instructions."""
    text = _read_text(path)
    try:
        words = assemble_microcode(text)
    except ReproError:
        words = [int(token, 16) for token in text.split()]
    return [ou_decode(word) for word in words]


def _parse_bank_sizes(specs: Optional[List[str]]) -> Optional[dict]:
    """Parse repeated ``BANK=WORDS`` options into a window map."""
    if not specs:
        return None
    windows = {}
    for spec in specs:
        bank, sep, words = spec.partition("=")
        if not sep or not bank.isdigit() or not words.isdigit():
            raise ReproError(
                f"bad --bank-size {spec!r} (expected BANK=WORDS)"
            )
        windows[int(bank)] = int(words)
    return windows


def _run_verifier(args: argparse.Namespace,
                  bank_windows: Optional[dict]) -> int:
    from .verify.engine import verify_program

    program = _load_program(args.input)
    rac = _make_rac(args.rac) if args.rac else None
    banks = set(args.banks) if args.banks else None
    extra = {}
    budget = getattr(args, "step_budget", None)
    if budget is not None:  # otherwise keep the engine's default
        extra["step_budget"] = budget
    report = verify_program(
        program,
        rac=rac,
        configured_banks=banks,
        bank_windows=bank_windows,
        suppress=getattr(args, "suppress", None) or (),
        **extra,
    )
    print(report.render_json() if args.json else report.render())
    return 0 if report.clean else 1


def _parse_bank_table(specs: Optional[List[str]]) -> Optional[dict]:
    """Parse repeated ``BANK=ADDR`` options (hex ok) into a table."""
    if not specs:
        return None
    banks = {}
    for spec in specs:
        bank, sep, addr = spec.partition("=")
        if not sep or not bank.isdigit():
            raise ReproError(
                f"bad --bank {spec!r} (expected BANK=ADDR)"
            )
        try:
            banks[int(bank)] = int(addr, 0)
        except ValueError:
            raise ReproError(
                f"bad --bank address {addr!r} (expected an integer, "
                "hex with 0x ok)"
            ) from None
    return banks


def _cmd_lint(args: argparse.Namespace) -> int:
    from .soclint import lint_soc
    from .system import SoC

    racs = [_make_rac(spec) for spec in (args.rac or ["dft:256"])]
    soc = SoC(racs=racs, with_dma=args.with_dma,
              clock_mhz=args.clock)
    firmware = None
    if args.firmware:
        firmware = _load_program(args.firmware)
    if args.budget_cycles is not None and firmware is None:
        raise ReproError(
            "--budget-cycles needs --firmware: the throughput check "
            "bounds a concrete program"
        )
    report = lint_soc(
        soc,
        banks=_parse_bank_table(args.bank),
        firmware=firmware,
        ocp_index=args.ocp,
        technology=args.device,
        budget_cycles=args.budget_cycles,
        suppress=args.suppress or (),
    )
    print(report.render_json() if args.json else report.render())
    return 0 if report.clean else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    return _run_verifier(args, _parse_bank_sizes(args.bank_size))


def _stream_int(doc: dict, key: str) -> Optional[int]:
    """Read an optional integer field; hex strings (``"0x.."``) ok."""
    value = doc.get(key)
    if value is None:
        return None
    try:
        return int(value, 0) if isinstance(value, str) else int(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"bad stream field {key!r}: {value!r} is not an integer"
        ) from None


def _is_int_list(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, int) and not isinstance(item, bool)
        for item in value
    )


def _load_stream(path: str) -> dict:
    """Parse a job-stream description JSON file."""
    import json

    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ReproError(f"bad stream file {path!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ReproError(
            f"bad stream file {path!r}: expected a JSON object"
        )
    return doc


def _cmd_racecheck(args: argparse.Namespace) -> int:
    from .racelint import check_stream
    from .sched.capability import CapabilityTable
    from .sched.job import Job

    doc = _load_stream(args.input)
    specs = doc.get("ocps")
    if not specs or not isinstance(specs, list):
        raise ReproError("stream file needs a non-empty 'ocps' list")
    racs = [_make_rac(str(spec)) for spec in specs]
    capability = None
    table = doc.get("capability")
    if table is not None:
        if not isinstance(table, dict):
            raise ReproError("'capability' must map kind -> OCP list")
        for kind, indices in table.items():
            if not _is_int_list(indices):
                raise ReproError(
                    f"capability for kind {kind!r}: expected a list of "
                    f"OCP indices, got {indices!r}"
                )
        capability = CapabilityTable(
            {str(kind): indices for kind, indices in table.items()}
        )
    jobs = []
    for position, entry in enumerate(doc.get("jobs", [])):
        if not isinstance(entry, dict) or not entry.get("kind"):
            raise ReproError(
                f"job #{position}: each job needs at least a 'kind'"
            )
        words = entry.get("words")
        if words is None:
            size = _stream_int(entry, "size")
            if not size or size < 1:
                raise ReproError(
                    f"job #{position}: needs 'words' or a positive "
                    "'size'"
                )
            words = [0] * size
        try:
            jobs.append(Job(
                str(entry.get("id", f"job{position}")),
                str(entry["kind"]),
                words,
                chain=entry.get("chain"),
            ))
        except ReproError as exc:
            raise ReproError(f"job #{position}: {exc}") from None
    if not jobs:
        raise ReproError("stream file has no jobs")
    batch_jobs = (args.batch_jobs if args.batch_jobs is not None
                  else _stream_int(doc, "batch_jobs") or 1)
    report = check_stream(
        jobs,
        racs=racs,
        capability=capability,
        batch_jobs=batch_jobs,
        chunk=_stream_int(doc, "chunk") or 64,
        arena_base=_stream_int(doc, "arena_base"),
        arena_stride=_stream_int(doc, "arena_stride"),
        suppress=args.suppress or (),
    )
    print(report.render_json() if args.json else report.render())
    return 0 if report.clean else 1


def _parse_latency(spec: str):
    """Parse ``--mem-latency LO[:HI]`` into a latency contract."""
    from .verify.domain import Interval

    lo_text, sep, hi_text = spec.partition(":")
    try:
        lo = int(lo_text, 0)
        hi = int(hi_text, 0) if sep else lo
    except ValueError:
        raise ReproError(
            f"bad --mem-latency {spec!r} (expected LO or LO:HI cycles)"
        ) from None
    if lo < 0 or hi < lo:
        raise ReproError(
            f"bad --mem-latency {spec!r}: need 0 <= LO <= HI"
        )
    return Interval(lo, hi)


def _cmd_perfbound(args: argparse.Namespace) -> int:
    import json

    from .perfbound import CostModel, RacTiming, bound_program
    from .rac.base import StreamingRAC

    if args.masters < 1:
        raise ReproError(
            f"bad --masters {args.masters}: need at least one"
        )
    program = _load_program(args.input)
    rac = _make_rac(args.rac) if args.rac else None
    timing = RacTiming.of(rac) if isinstance(rac, StreamingRAC) else None
    model = CostModel(
        mem_latency=_parse_latency(args.mem_latency),
        rac=timing,
        masters=args.masters,
    )
    bound = bound_program(
        program, rac,
        model=model,
        sla_cycles=args.sla_cycles,
        suppress=args.suppress or (),
    )
    print(json.dumps(bound.to_json(), indent=2) if args.json
          else bound.render())
    return 0 if bound.clean else 1


#: diagnostic family -> anchor inside docs/ANALYSIS.md
_DIAG_ANCHORS = {
    "OU0": "diagnostics-catalog",
    "OU1": "system-level-analysis-repro-lint",
    "OU2": "concurrency-analysis-repro-racecheck-ou2xx",
    "OU3": "cost-bound-analysis-repro-perfbound-ou3xx",
}


def _cmd_diag(args: argparse.Namespace) -> int:
    from .verify.diagnostics import CATALOG

    codes = [code.upper() for code in args.codes]
    unknown = sorted(set(codes) - set(CATALOG))
    if unknown:
        raise ReproError(
            f"unknown diagnostic code(s): {', '.join(unknown)} "
            "(run 'repro diag' for the full catalog)"
        )
    if not codes:
        for entry in CATALOG.values():
            print(f"{entry.code}  {entry.severity:<8} {entry.title}")
        return 0
    for code in codes:
        entry = CATALOG[code]
        anchor = _DIAG_ANCHORS.get(code[:3], "diagnostics-catalog")
        print(f"{entry.code} [{entry.severity}] {entry.title}")
        print(f"  {entry.description}")
        print(f"  docs: docs/ANALYSIS.md#{anchor}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .synth import device_by_name, estimate_ocp, utilization_report
    from .system import SoC

    soc = SoC(racs=[_make_rac(args.rac)])
    estimate = estimate_ocp(soc.ocp)
    device = device_by_name(args.device)
    print(utilization_report(estimate.parts, device))
    overhead = estimate.ocp_overhead
    print(f"\nOCP overhead (paper envelope <1000 LUT / <750 FF): {overhead}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from .core.codegen import as_program, compress_program, expand_program

    words = assemble_microcode(_read_text(args.input))
    program = [ou_decode(word) for word in words]
    transformed = (expand_program(program, check=True) if args.expand
                   else compress_program(program, check=True))
    result = as_program(list(transformed))
    print(result.listing())
    print(
        f"# {len(program)} -> {len(transformed)} instructions",
        file=sys.stderr,
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .core.binary import pack

    words = assemble_microcode(_read_text(args.input))
    data = pack(words)
    with open(args.output, "wb") as handle:
        handle.write(data)
    print(f"packed {len(words)} instructions -> {args.output} "
          f"({len(data)} bytes)", file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.binary import unpack

    with open(args.input, "rb") as handle:
        image = unpack(handle.read())
    print(f"OUFW image: {len(image.words)} instructions")
    print(f"banks referenced: {image.banks_referenced}")
    print(disassemble(image.words))
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from .synth.timing import ARTIX7_TECH, SPARTAN6_TECH, timing_report
    from .system import SoC

    technology = SPARTAN6_TECH if args.device == "spartan6" else ARTIX7_TECH
    soc = SoC(racs=[_make_rac(args.rac)])
    report = timing_report(soc.ocp, clock_mhz=args.clock,
                           technology=technology)
    print(report.render())
    return 0 if report.closes else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from .analysis import render_table_one, table_one

    rows = table_one(dft_points=args.dft_points, environment=args.env)
    print(render_table_one(rows))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults.demo import render_report

    print(render_report(args.seed))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        WORKLOADS,
        render_mpsoc,
        render_results,
        run_benchmarks,
        run_mpsoc_sweep,
        write_report,
    )

    names = args.workloads or None
    for name in names or []:
        if name not in WORKLOADS:
            raise ReproError(
                f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})"
            )
    results = []
    if not args.only_mpsoc:
        results = run_benchmarks(names)
        print(render_results(results))
    sweep = None
    if not args.no_mpsoc:
        try:
            ocp_counts = tuple(
                int(part) for part in args.mpsoc_ocps.split(",") if part
            )
        except ValueError:
            raise ReproError(
                f"bad --mpsoc-ocps {args.mpsoc_ocps!r}: expected "
                "comma-separated OCP counts"
            ) from None
        sweep = run_mpsoc_sweep(
            n_jobs=args.mpsoc_jobs,
            ocp_counts=ocp_counts,
            batch_jobs=args.mpsoc_batch,
        )
        print(render_mpsoc(sweep))
    output = args.output or "BENCH_simulator.json"
    write_report(results, output, mpsoc=sweep)
    print(f"# wrote {output}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .core.perf import N_PERF_REGISTERS, PERF_BASE, PERF_NAMES
    from .obs import (attribute_run, derive_counters, reconstruct_spans,
                      to_perfetto, to_vcd)
    from .obs.workloads import PROFILE_WORKLOADS
    from .sw.driver import OuessantDriver

    names = args.workloads or list(PROFILE_WORKLOADS)
    for name in names:
        if name not in PROFILE_WORKLOADS:
            raise ReproError(
                f"unknown workload {name!r} "
                f"(known: {', '.join(PROFILE_WORKLOADS)})"
            )

    status = 0
    reports = []
    for name in names:
        run = PROFILE_WORKLOADS[name](idle_skip=not args.no_idle_skip)
        soc = run.soc
        ocp = soc.ocps[run.ocp_index]
        spans = reconstruct_spans(soc.sim.trace,
                                  end_cycle=run.total_cycles)
        report = attribute_run(soc, workload=name,
                               ocp_index=run.ocp_index,
                               total_cycles=run.total_cycles, spans=spans)

        # differential check: the counters software reads back over
        # the bus must equal the values re-derived from the trace alone
        derived = derive_counters(soc.sim.trace, ocp,
                                  end_cycle=run.total_cycles)
        driver = OuessantDriver(soc, ocp_index=run.ocp_index)
        readback = {}
        for index in range(N_PERF_REGISTERS):
            value, _ = driver.read_register(PERF_BASE + 4 * index)
            readback[PERF_NAMES[index]] = value
        ok = report.consistent and readback == derived
        if not ok:
            status = 1
            print(f"# {name}: INCONSISTENT "
                  f"(readback={readback} derived={derived} "
                  f"consistent={report.consistent})", file=sys.stderr)

        reports.append((run, spans, report, readback))
        if not args.json:
            print(report.render())
            print(f"  counters   {'ok' if ok else 'MISMATCH'} "
                  f"({len(spans)} spans, bus read-back == trace-derived)")

    if args.json:
        payload = [r.as_dict() for _, _, r, _ in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    if args.perfetto:
        merged = {"displayTimeUnit": "ms", "traceEvents": []}
        for run, spans, _, _ in reports:
            doc = to_perfetto(spans, trace=run.soc.sim.trace,
                              process_name=run.name)
            merged["traceEvents"].extend(doc["traceEvents"])
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            json.dump(merged if len(reports) > 1 else doc, handle)
        print(f"# wrote {args.perfetto}", file=sys.stderr)
    if args.vcd:
        run, spans, _, _ = reports[0]
        if len(reports) > 1:
            print(f"# --vcd: writing first workload ({run.name}) only",
                  file=sys.stderr)
        with open(args.vcd, "w", encoding="utf-8") as handle:
            handle.write(to_vcd(spans, trace=run.soc.sim.trace))
        print(f"# wrote {args.vcd}", file=sys.stderr)
    return status


def _cmd_transfer(args: argparse.Namespace) -> int:
    from .analysis import measure_transfer_efficiency

    m = measure_transfer_efficiency(args.words)
    print(f"{m.words} words in {m.cycles} cycles "
          f"= {m.cycles_per_word:.2f} cycles/word")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Ouessant reproduction toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="microcode text -> hex words")
    p.add_argument("input", help="source file ('-' for stdin)")
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("disasm", help="hex words -> microcode text")
    p.add_argument("input", help="hex word file ('-' for stdin)")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser(
        "lint",
        help="system-level SoC integrity analysis "
             "(exit: 0 clean, 1 errors, 2 usage)",
    )
    p.add_argument("--rac", action="append", metavar="SPEC",
                   help="accelerator spec, e.g. dft:256; repeat for "
                        "multiple OCPs (default: dft:256)")
    p.add_argument("--firmware", metavar="FILE",
                   help="microcode (asm or hex) to cross-check "
                        "against the live memory map")
    p.add_argument("--bank", action="append", metavar="BANK=ADDR",
                   help="driver bank table entry, hex ok "
                        "(repeatable, e.g. --bank 1=0x40002000)")
    p.add_argument("--ocp", type=int, default=0,
                   help="coprocessor index the bank table targets")
    p.add_argument("--clock", type=float, default=50.0,
                   help="system clock constraint in MHz (paper: 50)")
    p.add_argument("--device", default="artix7",
                   choices=("artix7", "spartan6"))
    p.add_argument("--with-dma", action="store_true",
                   help="include the DMA peripheral in the system")
    p.add_argument("--budget-cycles", type=int, default=None,
                   help="per-run throughput budget: the firmware's "
                        "static worst case must fit it (OU162/OU163; "
                        "needs --firmware)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report")
    p.add_argument("--suppress", nargs="*", metavar="CODE",
                   help="diagnostic codes to suppress (e.g. OU141)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "verify",
        help="full static analysis with cross-layer contracts "
             "(exit: 0 clean, 1 errors, 2 usage)",
    )
    p.add_argument("input", help="source or hex file ('-' for stdin)")
    p.add_argument("--rac", help="accelerator spec, e.g. dft:256")
    p.add_argument("--banks", type=int, nargs="*",
                   help="configured bank numbers")
    p.add_argument("--bank-size", action="append", metavar="BANK=WORDS",
                   help="mapped window of a bank in words (repeatable)")
    p.add_argument("--step-budget", type=int,
                   help="flag programs executing more instructions")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report")
    p.add_argument("--suppress", nargs="*", metavar="CODE",
                   help="diagnostic codes to suppress (e.g. OU010)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "racecheck",
        help="static concurrency-hazard analysis of a planned job "
             "stream (exit: 0 clean, 1 hazards, 2 usage)",
    )
    p.add_argument("input",
                   help="stream description JSON ('-' for stdin): "
                        "{'ocps': [SPEC, ...], 'jobs': [{'id', 'kind', "
                        "'size'|'words', 'chain'?}, ...], "
                        "'capability'?, 'batch_jobs'?, 'chunk'?, "
                        "'arena_base'?, 'arena_stride'?}")
    p.add_argument("--batch-jobs", type=int, default=None,
                   help="override the stream's batching degree")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report")
    p.add_argument("--suppress", nargs="*", metavar="CODE",
                   help="diagnostic codes to suppress (e.g. OU205)")
    p.set_defaults(fn=_cmd_racecheck)

    p = sub.add_parser(
        "perfbound",
        help="static cycle-cost / WCET bound for a microcode program "
             "(exit: 0 clean, 1 errors, 2 usage)",
    )
    p.add_argument("input", help="source or hex file ('-' for stdin)")
    p.add_argument("--rac", help="accelerator spec, e.g. dft:256")
    p.add_argument("--mem-latency", default="1", metavar="LO[:HI]",
                   help="memory-latency contract in cycles the bound "
                        "must cover (default: 1)")
    p.add_argument("--masters", type=int, default=1,
                   help="bus masters in the target system; >1 emits "
                        "OU303 (contention not modelled)")
    p.add_argument("--sla-cycles", type=int, default=None,
                   help="cycle budget: emit OU304 (error) when the "
                        "worst case exceeds it")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report")
    p.add_argument("--suppress", nargs="*", metavar="CODE",
                   help="diagnostic codes to suppress (e.g. OU301)")
    p.set_defaults(fn=_cmd_perfbound)

    p = sub.add_parser(
        "diag",
        help="print diagnostic-catalog entries (no codes: list all)",
    )
    p.add_argument("codes", nargs="*", metavar="CODE",
                   help="diagnostic codes to describe, e.g. OU300")
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("estimate", help="FPGA resource report")
    p.add_argument("--rac", default="dft:256")
    p.add_argument("--device", default="xc7a100t")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("compress",
                       help="rewrite unrolled transfers with hardware loops")
    p.add_argument("input", help="source file ('-' for stdin)")
    p.add_argument("--expand", action="store_true",
                   help="lower to the base ISA instead")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("pack", help="microcode text -> OUFW image")
    p.add_argument("input", help="source file ('-' for stdin)")
    p.add_argument("output", help="image file to write")
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser("info", help="inspect an OUFW image")
    p.add_argument("input", help="image file")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("timing", help="static timing closure check")
    p.add_argument("--rac", default="dft:256")
    p.add_argument("--clock", type=float, default=50.0,
                   help="constraint in MHz (paper: 50)")
    p.add_argument("--device", default="artix7",
                   choices=("artix7", "spartan6"))
    p.set_defaults(fn=_cmd_timing)

    p = sub.add_parser("table1", help="regenerate Table I")
    p.add_argument("--dft-points", type=int, default=256)
    p.add_argument("--env", default="linux",
                   choices=("linux", "baremetal"))
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser(
        "bench",
        help="kernel work counters per workload (ticked, skipped, "
             "batched cycles), naive vs fast schedule checked equal",
    )
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: all)")
    p.add_argument("--output", "-o",
                   help="machine-readable JSON report path "
                        "(default: BENCH_simulator.json)")
    p.add_argument("--mpsoc-jobs", type=int, default=192,
                   help="jobs in the MPSoC scale-out sweep "
                        "(default: 192)")
    p.add_argument("--mpsoc-ocps", default="1,2,4,8",
                   help="comma-separated OCP counts for the sweep "
                        "(default: 1,2,4,8)")
    p.add_argument("--mpsoc-batch", type=int, default=4,
                   help="jobs fused per batched dispatch (default: 4)")
    p.add_argument("--no-mpsoc", action="store_true",
                   help="skip the MPSoC scale-out sweep")
    p.add_argument("--only-mpsoc", action="store_true",
                   help="run only the MPSoC sweep (skip the kernel "
                        "workloads)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "profile",
        help="run a workload with full tracing and attribute its "
             "cycles (exit: 0 consistent, 1 mismatch, 2 usage)",
    )
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: all; known: "
                        "jpeg-idct, dft)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable attribution report")
    p.add_argument("--perfetto", metavar="FILE",
                   help="write Chrome/Perfetto trace-event JSON here")
    p.add_argument("--vcd", metavar="FILE",
                   help="write span lanes as a VCD waveform here")
    p.add_argument("--no-idle-skip", action="store_true",
                   help="simulate every cycle naively (same counters, "
                        "slower wall clock)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("transfer", help="cycles-per-word analysis")
    p.add_argument("--words", type=int, default=1024)
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser(
        "faults",
        help="fault-injection demo: replay determinism + recovery",
    )
    p.add_argument("--seed", type=int, default=2024,
                   help="fault plan seed (same seed = same faults)")
    p.set_defaults(fn=_cmd_faults)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
