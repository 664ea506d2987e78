#!/usr/bin/env python3
"""Processor-free operation and dynamic partial reconfiguration.

Two of the paper's announced extensions (Section VI), working together:

1. **Standalone mode** -- the SoC is built *without a CPU*; a strap
   sequencer boots the OCP from memory-resident microcode and re-arms
   it after every completion, turning the coprocessor into a
   free-running streaming engine.
2. **DPR** -- the RAC region is then reconfigured at runtime (IDCT
   swapped in for the loopback core) without touching the interface,
   controller, or microcode format; the reconfiguration time is
   charged at ICAP speed.

Run:  python examples/standalone_pipeline.py
"""

from repro import IDCTRac, OuProgram, PassthroughRac, SoC
from repro.core.dpr import DPRManager, PartialBitstream
from repro.core.standalone import StandaloneSequencer
from repro.system import RAM_BASE
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000


def main() -> None:
    # ---- a SoC with NO processor at all ----
    soc = SoC(racs=[PassthroughRac(block_size=64, fifo_depth=128)],
              with_cpu=False)
    program = (OuProgram().stream_to(1, 64).execs()
               .stream_from(2, 64).eop())
    soc.write_ram(PROG, program.words())
    soc.write_ram(IN, list(range(64)))

    sequencer = StandaloneSequencer(
        "straps", soc.ocp,
        bank_bases={0: PROG, 1: IN, 2: OUT},
        prog_size=len(program),
        restart=True, max_runs=8,
    )
    soc.sim.add(sequencer)
    soc.sim.run_until(lambda: sequencer.runs_completed >= 8,
                      max_cycles=500_000)
    per_run = soc.sim.cycle / sequencer.runs_completed
    print("standalone (processor-free) mode:")
    print(f"    {sequencer.runs_completed} back-to-back runs, "
          f"{per_run:.0f} cycles per 64-word block")
    print(f"    throughput at 50 MHz: "
          f"{50e6 * 64 / per_run / 1e6:.1f} Mwords/s, zero CPU cycles")
    assert soc.read_ram(OUT, 64) == list(range(64))

    # ---- swap the RAC while the system is live ----
    print("\ndynamic partial reconfiguration:")
    soc.sim.remove(sequencer)  # retire the old strap FSM with its RAC
    manager = DPRManager(soc.sim, soc.ocp)
    cycles = manager.reconfigure(
        PartialBitstream(IDCTRac(fifo_depth=128), size_words=25_000)
    )
    print(f"    streamed a 25k-word partial bitstream in {cycles} cycles "
          f"({1e3 * cycles / 50e6:.2f} ms at 50 MHz)")

    # the same microcode format now drives a completely different core
    block = [[(r * 8 + c) % 64 - 32 for c in range(8)] for r in range(8)]
    soc.write_ram(IN, fp.block_to_words(block))
    restart = StandaloneSequencer(
        "straps2", soc.ocp,
        bank_bases={0: PROG, 1: IN, 2: OUT},
        prog_size=len(program),
    )
    soc.sim.add(restart)
    soc.sim.run_until(lambda: restart.runs_completed >= 1, max_cycles=100_000)
    decoded = fp.words_to_block(soc.read_ram(OUT, 64))
    assert decoded == fp.idct2_q15(block)
    print("    IDCT now runs behind the unchanged interface/controller --")
    print("    results verified against the fixed-point golden model.")


if __name__ == "__main__":
    main()
