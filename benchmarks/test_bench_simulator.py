"""[S1] Simulator performance (host-side, not a paper artifact).

Unlike the other benches, these measure the *reproduction's* own speed
-- simulated cycles and instructions per host second -- so regressions
in the simulation kernel show up.  They use pytest-benchmark
conventionally (multiple rounds, statistics meaningful).

``test_idle_skip_speedup`` runs the ``repro bench`` workloads, which
check naive ticking against the fast schedule per workload, and
asserts floors on the fast schedule's deterministic work counters.
It writes no file: only ``python -m repro.cli bench -o PATH`` writes
the ``BENCH_simulator.json`` artifact.
"""

from repro.bench import run_benchmarks
from repro.core.program import OuProgram
from repro.core.registers import CTRL_IE, CTRL_S, REG_BANK_BASE, REG_CTRL, REG_PROG_SIZE
from repro.cpu.assembler import assemble
from repro.cpu.cpu import CPU
from repro.mem.memory import Memory
from repro.rac.fifo import FIFO
from repro.rac.scale import PassthroughRac
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000

SPIN = """
    li r1, 20000
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def test_iss_instructions_per_second(benchmark):
    program = assemble(SPIN, text_base=0, data_base=0x10000)

    def run():
        memory = Memory("ram", 1 << 16)
        cpu = CPU(memory=memory)
        cpu.load(program)
        return cpu.run()

    cycles = benchmark(run)
    assert cycles == 2 + 2 * 20_000 + 1
    benchmark.extra_info["simulated_cycles"] = cycles


def test_fifo_throughput(benchmark):
    def run():
        fifo = FIFO("f", depth=64)
        moved = 0
        for _ in range(500):
            fifo.push_many(list(range(32)))
            fifo.commit()
            moved += len(fifo.pop_many(32))
        return moved

    moved = benchmark(run)
    assert moved == 16_000


def test_ocp_loopback_cycles_per_second(benchmark):
    program = (OuProgram().stream_to(1, 64).execs()
               .stream_from(2, 64).eop())

    def run():
        soc = SoC(racs=[PassthroughRac(block_size=64, fifo_depth=128)])
        soc.write_ram(IN, list(range(64)))
        soc.write_ram(PROG, program.words())
        ocp = soc.ocp
        for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
            ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
        ocp.interface.write_word(REG_PROG_SIZE, len(program))
        ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
        return soc.run_until(lambda: ocp.done, max_cycles=50_000)

    cycles = benchmark(run)
    assert cycles < 1000
    benchmark.extra_info["simulated_cycles"] = cycles


def test_idle_skip_speedup():
    """Naive vs fast kernel across the bench workloads.

    ``run_benchmarks`` itself asserts cycle-count equality between both
    modes, so this doubles as an equivalence smoke test.  The floors
    are on the fast run's kernel counters, which are the same on every
    host, and sit a little below what the workloads get (see the
    committed artifact).
    """
    by_name = {r.workload: r for r in run_benchmarks()}
    assert by_name["stall_heavy"].skip_ratio > 0.9
    assert by_name["idle_timeout"].skip_ratio == 1.0
    # the batch lane earns its keep on the transfer-heavy workloads,
    # where almost nothing can be skipped: it must consume most of
    # the cycles that do tick
    for name in ("jpeg_idct", "dft"):
        row = by_name[name]
        assert row.batched / row.ticked >= 0.85
