"""Experiment drivers that regenerate the paper's reported numbers.

Each function builds the relevant system(s), runs the measurement the
way the paper describes (Linux, interrupt mode, time markers around the
call), and returns structured rows.  The benchmark suite prints and
asserts on these; EXPERIMENTS.md records them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .baselines.software import (
    SoftwareRun,
    software_dft_direct,
    software_fft,
    software_idct,
)
from .rac.dft import DFTRac, dft_latency
from .rac.idct import IDCT_PIPELINE_LATENCY, IDCTRac
from .sim.errors import SimulationError
from .sw.driver import RunResult
from .sw.library import OuessantLibrary
from .system import SoC
from .utils import fixedpoint as fp


@dataclass
class TableOneRow:
    """One row of Table I: Lat. / HW / SW / Gain (all in cycles)."""

    name: str
    lat: int
    hw: int
    sw: int

    @property
    def gain(self) -> float:
        return self.sw / self.hw if self.hw else float("inf")


def _random_block(seed: int = 7) -> List[List[int]]:
    rng = random.Random(seed)
    return [[rng.randint(-400, 400) for _ in range(8)] for _ in range(8)]


def _random_signal(n: int, seed: int = 11) -> Tuple[List[int], List[int]]:
    rng = random.Random(seed)
    re = [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)]
    im = [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)]
    return re, im


def measure_idct_hw(
    environment: str = "linux", use_interrupt: bool = True
) -> Tuple[RunResult, bool]:
    """One 8x8 IDCT through an OCP; returns (timing, results-correct)."""
    soc = SoC(racs=[IDCTRac()])
    library = OuessantLibrary(
        soc, environment=environment, use_interrupt=use_interrupt
    )
    block = _random_block()
    result = library.idct(block)
    correct = result == fp.idct2_q15(block)
    assert library.last_result is not None
    return library.last_result, correct


def measure_dft_hw(
    n_points: int = 256,
    environment: str = "linux",
    use_interrupt: bool = True,
) -> Tuple[RunResult, bool]:
    """One DFT through an OCP; returns (timing, results-correct)."""
    soc = SoC(racs=[DFTRac(n_points=n_points)])
    library = OuessantLibrary(
        soc, environment=environment, use_interrupt=use_interrupt
    )
    re, im = _random_signal(n_points)
    out_re, out_im = library.dft(re, im)
    golden = fp.fft_q15(re, im)
    correct = (out_re, out_im) == golden
    assert library.last_result is not None
    return library.last_result, correct


def measure_idct_sw() -> SoftwareRun:
    block = _random_block()
    result, run = software_idct(block)
    if result != fp.idct2_q15(block):
        raise SimulationError("software IDCT produced wrong results")
    return run


def measure_dft_sw(n_points: int = 256, algorithm: str = "direct") -> SoftwareRun:
    re, im = _random_signal(n_points)
    if algorithm == "direct":
        _, run = software_dft_direct(re, im)
    elif algorithm == "fft":
        outputs, run = software_fft(re, im)
        if outputs != fp.fft_q15(re, im):
            raise SimulationError("software FFT produced wrong results")
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return run


def table_one(
    dft_points: int = 256,
    environment: str = "linux",
    sw_dft_algorithm: str = "direct",
) -> List[TableOneRow]:
    """Regenerate Table I (IDCT and DFT rows).

    ``Lat.`` is the accelerator compute latency (no transfers), ``HW``
    the end-to-end accelerated time in the chosen environment, ``SW``
    the measured software kernel time on the ISS.
    """
    idct_hw, idct_ok = measure_idct_hw(environment=environment)
    if not idct_ok:
        raise SimulationError("hardware IDCT results incorrect")
    dft_hw, dft_ok = measure_dft_hw(dft_points, environment=environment)
    if not dft_ok:
        raise SimulationError("hardware DFT results incorrect")
    idct_sw = measure_idct_sw()
    dft_sw = measure_dft_sw(dft_points, algorithm=sw_dft_algorithm)
    return [
        TableOneRow(
            "IDCT", IDCT_PIPELINE_LATENCY, idct_hw.total_cycles, idct_sw.cycles
        ),
        TableOneRow(
            "DFT", dft_latency(dft_points), dft_hw.total_cycles, dft_sw.cycles
        ),
    ]


def render_table_one(rows: List[TableOneRow]) -> str:
    """Print rows the way the paper formats Table I."""
    lines = [f"{'':>6} {'Lat.':>8} {'HW':>10} {'SW':>10} {'Gain':>8}"]
    for row in rows:
        lines.append(
            f"{row.name:>6} {row.lat:>8} {row.hw:>10} {row.sw:>10} "
            f"{row.gain:>8.2f}"
        )
    return "\n".join(lines)


@dataclass
class TransferMeasurement:
    """Cycles-per-word measurement for the in-text transfer analysis."""

    words: int
    cycles: int

    @property
    def cycles_per_word(self) -> float:
        return self.cycles / self.words


def measure_transfer_efficiency(
    total_words: int = 1024, chunk: int = 64
) -> TransferMeasurement:
    """Pure transfer microcode (mvtc+mvfc, passthrough RAC).

    Reproduces the in-text claim: "roughly 1500 cycles needed for data
    transfer, and 1024 32-bits words to transfer ... around 1.5 cycles
    per word".
    """
    from .core.program import bank_addresses, streaming_program
    from .rac.scale import PassthroughRac
    from .sw.baremetal import BaremetalRuntime
    from .system import RAM_BASE

    if total_words % 2:
        raise ValueError("total_words counts both directions; must be even")
    half = total_words // 2
    rac = PassthroughRac(block_size=half, fifo_depth=128)
    soc = SoC(racs=[rac])
    runtime = BaremetalRuntime(soc)
    in_addr = RAM_BASE + 0x10_0000
    out_addr = RAM_BASE + 0x20_0000
    prog_addr = RAM_BASE + 0x30_0000
    soc.write_ram(in_addr, list(range(half)))
    program = streaming_program([half], [half], chunk=chunk)
    result = runtime.run(
        program.words(), bank_addresses(prog_addr, [in_addr], [out_addr])
    )
    if soc.read_ram(out_addr, half) != list(range(half)):
        raise SimulationError("loopback transfer corrupted data")
    # both directions moved `half` words each => total_words... the
    # paper counts words in + words out, so report the sum.
    return TransferMeasurement(words=2 * half, cycles=result.total_cycles)
