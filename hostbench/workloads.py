"""The four hostbench workloads, written against public ``repro`` APIs.

Importing this module imports ``repro``; the child process times that
import as ``setup.import_s``.  Module-level ``repro`` functions are
called through their modules (``analysis.table_one``), never through
names bound here, so the tracer's outside-in wrappers see every call.

Input and golden generation happens in :meth:`Workload.round`, which
the child calls outside the timed region; only :attr:`Unit.run` is
timed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import analysis
from repro.apps import jpeg
from repro.core.assembler import assemble_microcode
from repro.rac.dft import DFTRac
from repro.rac.idct import IDCTRac
from repro.rac.scale import PassthroughRac
from repro.sched import Job, ThroughputScheduler
from repro.sw.baremetal import BaremetalRuntime
from repro.sw.library import OuessantLibrary
from repro.system import RAM_BASE, SoC, build_mpsoc
from repro.utils import fixedpoint as fp

from .spec import SPECS, TABLE_ONE_ROWS

#: the paper's Figure 4 microcode, verbatim
FIGURE4_TEXT = """\
mvtc BANK1,0,DMA64,FIFO0
mvtc BANK1,64,DMA64,FIFO0
mvtc BANK1,128,DMA64,FIFO0
mvtc BANK1,192,DMA64,FIFO0
mvtc BANK1,256,DMA64,FIFO0
mvtc BANK1,320,DMA64,FIFO0
mvtc BANK1,384,DMA64,FIFO0
mvtc BANK1,448,DMA64,FIFO0
execs
mvfc BANK2,0,DMA64,FIFO0
mvfc BANK2,64,DMA64,FIFO0
mvfc BANK2,128,DMA64,FIFO0
mvfc BANK2,192,DMA64,FIFO0
mvfc BANK2,256,DMA64,FIFO0
mvfc BANK2,320,DMA64,FIFO0
mvfc BANK2,384,DMA64,FIFO0
mvfc BANK2,448,DMA64,FIFO0
eop
"""

DFT_POINTS = 256
FIG4_BANKS = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000, 2: RAM_BASE + 0x4000}
JPEG_SIDE = 128
SCHED_OCPS = 8
SCHED_JOB_WORDS = 16
SCHED_JOBS = 768


def same(a: Any, b: Any) -> bool:
    """Exact equality that also compares NumPy arrays element-wise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


@dataclass
class Unit:
    """One timed call and what it must produce.

    ``run`` returns ``(output, simulated cycles)``.  A unit of several
    ops (a job stream) has one golden per op.
    """

    run: Callable[[], Tuple[Any, int]]
    golden: Any
    cycles: int
    ops: int = 1

    def failures(self, output: Any, cycles: int) -> int:
        """Failed ops: all of them on a cycle mismatch, else per op."""
        if cycles != self.cycles:
            return self.ops
        if self.ops == 1:
            return 0 if same(output, self.golden) else 1
        if len(output) != len(self.golden):
            return self.ops
        return sum(not same(o, g) for o, g in zip(output, self.golden))


def _rng(name: str, seed: int, index: int) -> random.Random:
    """Independent stream per (workload, seed, round); -1 = warm-up."""
    return random.Random(f"hostbench/{name}/{seed}/{index}")


class Workload:
    """Base: a persistent system, a warm-up op and seeded rounds."""

    name = ""

    def __init__(self) -> None:
        spec = SPECS[self.name]
        self.units_per_round = spec.units_per_round
        self.golden_cycles = spec.golden_cycles

    def build(self) -> Any:
        """The system every round runs on (``None``: built per op)."""
        return None

    def warmup(self, system: Any, seed: int) -> None:
        """One untimed op, so lazy set-up is not charged to round 0."""
        unit = self.round(system, seed, -1)[0]
        unit.run()

    def round(self, system: Any, seed: int, index: int) -> List[Unit]:
        raise NotImplementedError


class TableOne(Workload):
    """``analysis.table_one()``: ~95% of its host time is the CPU ISS
    running the 1.5 M-cycle software DFT.  Inputs are fixed."""

    name = "table1"

    def warmup(self, system: Any, seed: int) -> None:
        # a 16-point table takes every code path of the op at ~3% of
        # its cost (the 1.5 M-cycle software DFT dominates the op)
        analysis.table_one(dft_points=16)

    def round(self, system: Any, seed: int, index: int) -> List[Unit]:
        return [Unit(self._table, list(TABLE_ONE_ROWS), self.golden_cycles)]

    @staticmethod
    def _table() -> Tuple[Any, int]:
        rows = [(r.name, r.lat, r.hw, r.sw) for r in analysis.table_one()]
        return rows, sum(hw + sw for _, _, hw, sw in rows)


class Figure4(Workload):
    """The literal Figure 4 program on a persistent AHB DFT SoC."""

    name = "fig4_dft"

    def build(self) -> Any:
        soc = SoC(racs=[DFTRac(n_points=DFT_POINTS)])
        return soc, BaremetalRuntime(soc), assemble_microcode(FIGURE4_TEXT)

    def round(self, system: Any, seed: int, index: int) -> List[Unit]:
        rng = _rng(self.name, seed, index)

        def signal() -> List[int]:
            return [fp.float_to_q15(rng.uniform(-0.4, 0.4))
                    for _ in range(DFT_POINTS)]

        units = []
        for _ in range(self.units_per_round):
            re, im = signal(), signal()
            units.append(Unit(
                functools.partial(self._transform, system, re, im),
                fp.fft_q15(re, im), self.golden_cycles,
            ))
        return units

    @staticmethod
    def _transform(system: Any, re: List[int], im: List[int]):
        soc, runtime, words = system
        soc.write_ram(FIG4_BANKS[1], fp.interleave_complex(re, im))
        result = runtime.run(words, FIG4_BANKS)
        out = soc.read_ram(FIG4_BANKS[2], 2 * DFT_POINTS)
        return fp.deinterleave_complex(out), result.total_cycles


class JpegLinux(Workload):
    """Decode seeded 128x128 images on the IDCT OCP under the Linux
    model, one library session per image (the library's bump heap
    never frees, so one session cannot decode many images)."""

    name = "jpeg_linux"

    def build(self) -> Any:
        return SoC(racs=[IDCTRac()])

    def round(self, system: Any, seed: int, index: int) -> List[Unit]:
        rng = np.random.default_rng(
            _rng(self.name, seed, index).getrandbits(64))
        units = []
        for _ in range(self.units_per_round):
            image = rng.integers(-128, 128, size=(JPEG_SIDE, JPEG_SIDE))
            encoded = jpeg.encode(image)
            units.append(Unit(
                functools.partial(self._decode, system, encoded),
                jpeg.JPEGDecoder().decode(encoded), self.golden_cycles,
            ))
        return units

    @staticmethod
    def _decode(soc: SoC, encoded: Any) -> Tuple[Any, int]:
        begin = soc.sim.cycle
        decoder = jpeg.JPEGDecoder(OuessantLibrary(soc, environment="linux"))
        image = decoder.decode(encoded)
        return image, soc.sim.cycle - begin


class SchedMpsoc8(Workload):
    """A seeded 768-job passthrough stream over 8 OCPs.  Each round
    gets a fresh SoC, built before the round is timed."""

    name = "sched_mpsoc8"

    def build(self) -> Any:
        racs = [
            PassthroughRac(name=f"pt{index}", block_size=SCHED_JOB_WORDS,
                           fifo_depth=2 * SCHED_JOB_WORDS,
                           compute_latency=400)
            for index in range(SCHED_OCPS)
        ]
        return ThroughputScheduler(build_mpsoc(racs), batch_jobs=4,
                                   queue_bound=8)

    def warmup(self, system: Any, seed: int) -> None:
        job = Job("warmup", "passthrough", list(range(SCHED_JOB_WORDS)))
        system.run_stream([job])

    def round(self, system: Any, seed: int, index: int) -> List[Unit]:
        rng = _rng(self.name, seed, index)
        jobs = [
            Job(f"job{n}", "passthrough",
                [rng.getrandbits(32) for _ in range(SCHED_JOB_WORDS)])
            for n in range(SCHED_JOBS)
        ]
        return [Unit(
            functools.partial(self._stream, self.build(), jobs),
            [job.words for job in jobs], self.golden_cycles, ops=SCHED_JOBS,
        )]

    @staticmethod
    def _stream(scheduler: ThroughputScheduler, jobs: List[Job]):
        sim = scheduler.soc.sim
        begin = sim.cycle
        results = scheduler.run_stream(jobs, max_cycles=20_000_000)
        return [result.outputs for result in results], sim.cycle - begin


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TableOne, Figure4, JpegLinux, SchedMpsoc8)
}


def get(name: str) -> Workload:
    return WORKLOADS[name]()
