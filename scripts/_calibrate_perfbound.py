"""Scratch calibration: measured vs predicted cost buckets (dev aid)."""
import sys

sys.path.insert(0, "src")

from repro.core.program import OuProgram
from repro.mem.memory import Memory
from repro.obs.attribution import attribute_run
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.rac.scale import PassthroughRac
from repro.system import RAM_BASE, SoC
from repro.verify.domain import Interval

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def measure(program, rac, mem_latency=1, max_cycles=2_000_000):
    soc = SoC(racs=[rac],
              memory=Memory("ram", 1 << 20, access_latency=mem_latency))
    soc.write_ram(IN, list(range(512)))
    soc.write_ram(PROG, program.words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(program))
    soc.sim.run_until(lambda: ocp.done, max_cycles=max_cycles)
    return attribute_run(soc)


def check(name, program, rac_factory, latencies=(1,), contract=None):
    rac = rac_factory()
    timing = RacTiming.of(rac)
    lat = contract or Interval(min(latencies), max(latencies))
    model = CostModel(mem_latency=lat, rac=timing)
    bound = bound_program(list(program.instructions), rac, model=model)
    print(f"== {name} bounded={bound.bounded} "
          f"codes={bound.report.codes()}")
    for L in latencies:
        rep = measure(program, rac_factory(), mem_latency=L)
        ok = True
        for bucket, meas in (("transfer", rep.transfer_cycles),
                             ("compute", rep.compute_cycles),
                             ("control", rep.control_cycles),
                             ("total", rep.total_cycles)):
            iv = getattr(bound, bucket)
            inside = iv.lo <= meas <= iv.hi
            ok = ok and inside
            flag = "" if inside else "   <<< OUT OF BOUNDS"
            print(f"   L={L} {bucket:9s} measured={meas:6d} "
                  f"pred=[{iv.lo}, {iv.hi}]{flag}")
        print(f"   L={L} {'OK' if ok else 'FAIL'}")


def main():
    blocks = [(4, 8), (8, 16), (16, 8), (32, 64)]
    for block, depth in blocks:
        p = OuProgram()
        p.stream_to(1, block).execs().stream_from(2, block).eop()
        check(
            f"pass b={block} d={depth}", p,
            lambda block=block, depth=depth: PassthroughRac(
                block_size=block, fifo_depth=depth, compute_latency=4),
            latencies=(1, 3), contract=Interval(1, 3),
        )

    p = OuProgram()
    for _ in range(3):
        p.stream_to(1, 8).execs().stream_from(2, 8)
    p.wait(25).eop()
    check("3x + wait", p,
          lambda: PassthroughRac(block_size=8, fifo_depth=16,
                                 compute_latency=2),
          latencies=(1, 2), contract=Interval(1, 2))

    p = OuProgram()
    p.loop(5).stream_to(1, 8).execs().stream_from(2, 8).endl().eop()
    check("loop5", p,
          lambda: PassthroughRac(block_size=8, fifo_depth=16,
                                 compute_latency=2),
          latencies=(1, 2), contract=Interval(1, 2))

    p = OuProgram()
    p.stream_to(1, 8).exec_().stream_from(2, 8).eop()
    check("exec blocking", p,
          lambda: PassthroughRac(block_size=8, fifo_depth=16,
                                 compute_latency=6),
          latencies=(1,))


if __name__ == "__main__":
    main()


def extra():
    # long program: slow fetch path past the 128-word ibuf
    p = OuProgram()
    for _ in range(70):
        p.nop()
    p.stream_to(1, 8).execs().stream_from(2, 8)
    for _ in range(70):
        p.nop()
    p.eop()
    check("past-ibuf", p,
          lambda: PassthroughRac(block_size=8, fifo_depth=16,
                                 compute_latency=2),
          latencies=(1, 2), contract=Interval(1, 2))

    # big loop (trip > CHECK_UNROLL_LIMIT) with indexed transfers
    p = OuProgram()
    p.clrofr()
    p.loop(100).mvtcx(1, 0, 2, fifo=0).execs().mvfcx(2, 0, 2, fifo=0)
    p.addofr(2).endl().eop()
    check("loop100 indexed", p,
          lambda: PassthroughRac(block_size=2, fifo_depth=8,
                                 compute_latency=1),
          latencies=(1, 4), contract=Interval(1, 4))


extra()
