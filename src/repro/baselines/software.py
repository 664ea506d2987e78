"""Pure-software baselines (the "SW" column of Table I).

Each helper assembles the corresponding hand-written kernel from
:mod:`repro.cpu.kernels`, runs it to completion on the GPP
instruction-set simulator in fast mode, and returns both the computed
results and the measured cycle count.  Nothing is modelled with closed
formulas: the cycles are what the ISS actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..cpu.assembler import assemble
from ..cpu.cpu import CPU
from ..cpu.isa import CostModel
from ..cpu import kernels
from ..mem.memory import Memory
from ..utils.bits import to_signed

_TEXT_BASE = 0x0000_0000
_DATA_BASE = 0x0008_0000
_MEM_BYTES = 1 << 20


@dataclass
class SoftwareRun:
    """Outcome of a software baseline execution."""

    cycles: int
    instructions: int
    outputs: dict


def _fresh_cpu(cost_model: "CostModel | None" = None) -> CPU:
    memory = Memory("ram", _MEM_BYTES)
    return CPU(memory=memory, memory_base=0, cost_model=cost_model)


def software_idct(
    block: Sequence[Sequence[int]],
    cost_model: "CostModel | None" = None,
) -> Tuple[List[List[int]], SoftwareRun]:
    """2-D 8x8 IDCT in software; returns (block, measurement)."""
    program = assemble(
        kernels.idct_sw_source(), text_base=_TEXT_BASE, data_base=_DATA_BASE
    )
    cpu = _fresh_cpu(cost_model)
    cpu.load(program)
    flat = [int(v) & 0xFFFFFFFF for row in block for v in row]
    cpu.memory.load_words(program.address_of("idct_in"), flat)
    cycles = cpu.run()
    raw = cpu.memory.dump_words(program.address_of("idct_out"), 64)
    signed = [to_signed(w) for w in raw]
    result = [signed[8 * r : 8 * r + 8] for r in range(8)]
    return result, SoftwareRun(cycles, cpu.instret, {"block": result})


def software_dft_direct(
    re: Sequence[int],
    im: Sequence[int],
    cost_model: "CostModel | None" = None,
) -> Tuple[Tuple[List[int], List[int]], SoftwareRun]:
    """Direct O(N^2) Q15 DFT in software (the Table I SW scale)."""
    n = len(re)
    program = assemble(
        kernels.dft_sw_source(n), text_base=_TEXT_BASE, data_base=_DATA_BASE
    )
    cpu = _fresh_cpu(cost_model)
    cpu.load(program)
    cpu.memory.load_words(
        program.address_of("xr"), [int(v) & 0xFFFFFFFF for v in re]
    )
    cpu.memory.load_words(
        program.address_of("xi"), [int(v) & 0xFFFFFFFF for v in im]
    )
    cycles = cpu.run()
    yr = [to_signed(w) for w in
          cpu.memory.dump_words(program.address_of("yr"), n)]
    yi = [to_signed(w) for w in
          cpu.memory.dump_words(program.address_of("yi"), n)]
    return (yr, yi), SoftwareRun(cycles, cpu.instret, {"re": yr, "im": yi})


def software_fft(
    re: Sequence[int],
    im: Sequence[int],
    cost_model: "CostModel | None" = None,
) -> Tuple[Tuple[List[int], List[int]], SoftwareRun]:
    """Radix-2 FFT in software (ablation: the best possible SW DFT)."""
    n = len(re)
    program = assemble(
        kernels.fft_sw_source(n), text_base=_TEXT_BASE, data_base=_DATA_BASE
    )
    cpu = _fresh_cpu(cost_model)
    cpu.load(program)
    cpu.memory.load_words(
        program.address_of("xr"), [int(v) & 0xFFFFFFFF for v in re]
    )
    cpu.memory.load_words(
        program.address_of("xi"), [int(v) & 0xFFFFFFFF for v in im]
    )
    cycles = cpu.run()
    yr = [to_signed(w) for w in
          cpu.memory.dump_words(program.address_of("xr"), n)]
    yi = [to_signed(w) for w in
          cpu.memory.dump_words(program.address_of("xi"), n)]
    return (yr, yi), SoftwareRun(cycles, cpu.instret, {"re": yr, "im": yi})


def software_memcpy(
    words: Sequence[int],
    cost_model: "CostModel | None" = None,
) -> Tuple[List[int], SoftwareRun]:
    """CPU copy loop; calibrates the PIO baseline's per-word cost."""
    program = assemble(
        kernels.memcpy_source(len(words)),
        text_base=_TEXT_BASE,
        data_base=_DATA_BASE,
    )
    cpu = _fresh_cpu(cost_model)
    cpu.load(program)
    cpu.memory.load_words(
        program.address_of("src"), [int(v) & 0xFFFFFFFF for v in words]
    )
    cycles = cpu.run()
    out = cpu.memory.dump_words(program.address_of("dst"), len(words))
    return out, SoftwareRun(cycles, cpu.instret, {"dst": out})
