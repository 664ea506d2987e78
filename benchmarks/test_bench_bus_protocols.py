"""[A1] Bus-protocol ablation: the per-bus adapter of Figure 3.

The paper's system runs on AMBA2 AHB; Figure 3 names "AHB, AXI, PLB,
..." as interchangeable adapters, and Section VI announces the Zynq
(AXI4) port.  This bench runs the identical Figure 4 workload over
every catalogued protocol and shows (a) behaviour is unchanged and (b)
only timing shifts -- with burst-less AXI4-Lite as the cautionary tale.
"""

from conftest import once

from repro.bus.protocol import ALL_PROTOCOLS, protocol_by_name
from repro.core.program import figure4_program
from repro.rac.dft import DFTRac
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x4000


def _run(protocol, q15_signal, n=256):
    soc = SoC(racs=[DFTRac(n_points=n)], protocol=protocol)
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    soc.write_ram(PROG, figure4_program(n).words())
    ocp = soc.ocp
    ocp.start({0: PROG, 1: IN, 2: OUT}, len(figure4_program(n)))
    cycles = soc.sim.run_until(lambda: ocp.done, max_cycles=500_000)
    out = fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
    return cycles, out == fp.fft_q15(re, im)


def test_protocol_sweep_same_results_different_timing(benchmark, q15_signal):
    def sweep():
        return {p.name: _run(p, q15_signal) for p in ALL_PROTOCOLS}

    results = once(benchmark, sweep)
    print()
    for name, (cycles, correct) in sorted(results.items(),
                                          key=lambda kv: kv[1][0]):
        print(f"  {name:<12} {cycles:>7} cycles")
        assert correct, f"{name} corrupted data"
        benchmark.extra_info[name] = cycles

    ahb = results["AHB"][0]
    axi4 = results["AXI4"][0]
    lite = results["AXI4-Lite"][0]
    wishbone = results["Wishbone"][0]
    # AXI4 with 256-beat bursts matches/beats AHB's 16-beat bursts
    assert axi4 <= ahb * 1.05
    # burst-less AXI4-Lite pays heavily: the Zynq port needs real AXI4
    assert lite > ahb * 1.3
    # Wishbone classic's 2-cycle beats sit in between
    assert ahb < wishbone < lite


def test_protocol_lookup_used_by_config(benchmark):
    protocol = once(benchmark, lambda: protocol_by_name("axi4"))
    assert protocol.max_burst_beats == 256
