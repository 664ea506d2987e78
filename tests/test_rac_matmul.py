"""Tests for the matrix-multiply RAC and waveform probing."""

import numpy as np
import pytest

from repro.rac.matmul import MatMulRac, matmul_q15
from repro.sim.errors import ConfigurationError
from repro.sim.tracing import VCDWriter
from repro.sim.waveform import WaveformProbe, ocp_probe
from repro.sw.library import OuessantLibrary
from repro.system import SoC
from repro.utils import fixedpoint as fp


def random_matrix(rng, n, scale=8000):
    return [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(n)]


def test_matmul_golden_vs_numpy(rng):
    n = 4
    a = random_matrix(rng, n)
    b = random_matrix(rng, n)
    got = np.array(matmul_q15(a, b), dtype=float)
    expected = (np.array(a) @ np.array(b)) / (1 << 15)
    assert np.max(np.abs(got - expected)) <= 1.0


def test_matmul_golden_identity(rng):
    n = 4
    identity = [[(1 << 15) - 1 if i == j else 0 for j in range(n)]
                for i in range(n)]
    a = random_matrix(rng, n, scale=4000)
    got = matmul_q15(a, identity)
    # (Q15_MAX/Q15) ~ 1: off by at most 1 LSB per element
    for i in range(n):
        for j in range(n):
            assert abs(got[i][j] - a[i][j]) <= 1


def test_matmul_golden_validation():
    with pytest.raises(ValueError):
        matmul_q15([[1, 2]], [[1], [2]])


def test_matmul_rac_through_library(rng):
    n = 4
    soc = SoC(racs=[MatMulRac(n=n)])
    library = OuessantLibrary(soc, environment="baremetal")
    a = random_matrix(rng, n)
    b = random_matrix(rng, n)
    assert library.matmul(a, b) == matmul_q15(a, b)


def test_matmul_rac_latency_model():
    rac = MatMulRac(n=8)
    assert rac.compute_latency == 8 * 8 + 16
    assert rac.items_in == [64, 64]
    assert rac.items_out == [64]


def test_matmul_size_validation():
    with pytest.raises(ConfigurationError):
        MatMulRac(n=1)
    with pytest.raises(ConfigurationError):
        MatMulRac(n=128)


def test_matmul_library_size_check(rng):
    from repro.sim.errors import DriverError
    soc = SoC(racs=[MatMulRac(n=4)])
    library = OuessantLibrary(soc, environment="baremetal")
    with pytest.raises(DriverError):
        library.matmul([[0] * 8] * 8, [[0] * 8] * 8)


# ---------------------------------------------------------------------------
# waveform probing
# ---------------------------------------------------------------------------

def test_waveform_probe_samples_signals():
    from repro.sim.kernel import Simulator

    sim = Simulator()
    value = {"v": 0}
    vcd = VCDWriter()
    probe = WaveformProbe("probe", vcd, {"level": lambda: value["v"]})
    sim.add(probe)
    for v in (0, 1, 1, 3):
        value["v"] = v
        sim.step()
    assert probe.samples == 4
    text = vcd.render()
    assert "#0" in text and "#3" in text
    assert "level" in text


def test_ocp_probe_traces_a_real_run(rng, tmp_path):
    from repro.core.program import OuProgram
    from repro.rac.scale import PassthroughRac
    from repro.system import RAM_BASE

    soc = SoC(racs=[PassthroughRac(block_size=16)])
    vcd = VCDWriter(timescale="20ns")
    soc.sim.add(ocp_probe("probe", vcd, soc.ocp))

    program = (OuProgram().stream_to(1, 16).execs()
               .stream_from(2, 16).eop())
    prog, inp, out = RAM_BASE + 0x1000, RAM_BASE + 0x2000, RAM_BASE + 0x3000
    soc.write_ram(inp, list(range(16)))
    soc.write_ram(prog, program.words())
    soc.ocp.start({0: prog, 1: inp, 2: out}, len(program))
    soc.sim.run_until(lambda: soc.ocp.done, max_cycles=50_000)

    path = tmp_path / "run.vcd"
    vcd.write(str(path))
    text = path.read_text()
    # the controller walked through fetch/xfer states and raised done+irq
    assert "ctrl_state" in text
    assert "fifo_in_level" in text
    assert "irq" in text
    assert text.count("#") > 10  # many change timestamps
