"""Reference ISS: a per-instruction ``if/elif`` interpreter.

This is the interpreter :class:`repro.cpu.cpu.CPU` ran before it
translated basic blocks, kept here as the oracle of the differential
test (``test_cpu_translation.py``), with two fixes the translated core
shares:

* ``jalr`` reads ``rs1`` before it writes the link register, so
  ``jalr r5, r5, 0`` jumps to the old ``r5``;
* an unaligned ``lw``/``sw`` inside the direct window raises instead of
  rounding the address down to a word.

It has no bus: every access outside the window raises, as fast mode
does.  ``run(ticked=True)`` models a ticked CPU whose interrupt is
always pending -- ``wfi`` retires as a one-cycle no-op and ``instret``
counts every retired instruction even when a later one raises, ``halt``
charges one cycle whatever its cost, since a halted CPU stops counting
-- and has no instruction limit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cpu.assembler import AssembledProgram
from repro.cpu.isa import CostModel, Instruction, Op, decode
from repro.mem.memory import Memory
from repro.sim.errors import SimulationError

_MASK = 0xFFFF_FFFF
_SIGN = 1 << 31


def _signed(value: int) -> int:
    return value - (1 << 32) if value & _SIGN else value


class OracleCPU:
    """The reference interpreter over the same state as ``CPU``."""

    def __init__(
        self,
        memory: Memory,
        memory_base: int = 0,
        cost_model: Optional[CostModel] = None,
        name: str = "cpu",
    ) -> None:
        self.name = name
        self.memory = memory
        self.memory_base = memory_base
        self.cost = cost_model or CostModel()
        self.regs: List[int] = [0] * 32
        self.pc = 0
        self.halted = True
        self.cycles = 0
        self.instret = 0
        self._decoded: Dict[int, Instruction] = {}

    def load(self, program: AssembledProgram) -> None:
        self.memory.load_words(
            program.text_base - self.memory_base, program.text
        )
        if program.data:
            self.memory.load_words(
                program.data_base - self.memory_base, program.data
            )
        self._decoded = {
            program.text_base + 4 * index: decode(word)
            for index, word in enumerate(program.text)
        }
        self.pc = program.entry
        self.halted = False

    def set_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & _MASK

    def run(
        self, max_instructions: int = 50_000_000, ticked: bool = False
    ) -> int:
        start_cycles = self.cycles
        executed = 0
        while not self.halted:
            if not ticked and executed >= max_instructions:
                raise SimulationError(
                    f"fast run exceeded {max_instructions} instructions"
                )
            instr = self._fetch(self.pc)
            cost = self._execute(instr, ticked)
            # a ticked CPU stops counting cycles once it has halted
            self.cycles += 1 if ticked and self.halted else cost
            executed += 1
            if ticked:
                self.instret += 1
        if not ticked:
            self.instret += executed
        return self.cycles - start_cycles

    def _fetch(self, pc: int) -> Instruction:
        instr = self._decoded.get(pc)
        if instr is None:
            offset = pc - self.memory_base
            if not 0 <= offset < self.memory.size_bytes:
                raise SimulationError(
                    f"{self.name}: fetch/load outside memory at {pc:#x}"
                )
            if offset & 3:
                raise SimulationError(f"{self.name}: unaligned pc {pc:#x}")
            instr = decode(self.memory.words[offset >> 2])
            self._decoded[pc] = instr
        return instr

    def _mem_index(self, address: int, kind: str) -> int:
        offset = address - self.memory_base
        if not 0 <= offset < self.memory.size_bytes:
            raise SimulationError(
                f"{self.name}: MMIO access to {address:#x} "
                f"outside fast-mode memory"
            )
        if offset & 3:
            raise SimulationError(
                f"{self.name}: unaligned {kind} at {address:#x} "
                f"(pc {self.pc:#x})"
            )
        return offset >> 2

    def _execute(self, instr: Instruction, ticked: bool) -> int:
        """Execute one instruction; returns its cycle cost."""
        op = instr.op
        regs = self.regs
        pc_next = self.pc + 4

        if op is Op.ADDI:
            self.set_reg(instr.rd, regs[instr.rs1] + instr.imm)
        elif op is Op.LW:
            address = (regs[instr.rs1] + instr.imm) & _MASK
            index = self._mem_index(address, "read")
            self.set_reg(instr.rd, self.memory.words[index])
        elif op is Op.SW:
            address = (regs[instr.rs1] + instr.imm) & _MASK
            index = self._mem_index(address, "write")
            if instr.rd == 0:
                self.memory.words[index] = 0
            else:
                self.memory.words[index] = regs[instr.rd]
        elif op is Op.ADD:
            self.set_reg(instr.rd, regs[instr.rs1] + regs[instr.rs2])
        elif op is Op.SUB:
            self.set_reg(instr.rd, regs[instr.rs1] - regs[instr.rs2])
        elif op is Op.MUL:
            self.set_reg(
                instr.rd, _signed(regs[instr.rs1]) * _signed(regs[instr.rs2])
            )
        elif op is Op.AND:
            self.set_reg(instr.rd, regs[instr.rs1] & regs[instr.rs2])
        elif op is Op.OR:
            self.set_reg(instr.rd, regs[instr.rs1] | regs[instr.rs2])
        elif op is Op.XOR:
            self.set_reg(instr.rd, regs[instr.rs1] ^ regs[instr.rs2])
        elif op is Op.SLL:
            self.set_reg(instr.rd, regs[instr.rs1] << (regs[instr.rs2] & 31))
        elif op is Op.SRL:
            self.set_reg(instr.rd, regs[instr.rs1] >> (regs[instr.rs2] & 31))
        elif op is Op.SRA:
            self.set_reg(
                instr.rd, _signed(regs[instr.rs1]) >> (regs[instr.rs2] & 31)
            )
        elif op is Op.SLT:
            self.set_reg(
                instr.rd,
                1 if _signed(regs[instr.rs1]) < _signed(regs[instr.rs2]) else 0,
            )
        elif op is Op.SLTU:
            self.set_reg(instr.rd, 1 if regs[instr.rs1] < regs[instr.rs2] else 0)
        elif op is Op.DIV:
            divisor = _signed(regs[instr.rs2])
            if divisor == 0:
                self.set_reg(instr.rd, _MASK)
            else:
                quotient = int(_signed(regs[instr.rs1]) / divisor)
                self.set_reg(instr.rd, quotient)
        elif op is Op.REM:
            divisor = _signed(regs[instr.rs2])
            if divisor == 0:
                self.set_reg(instr.rd, regs[instr.rs1])
            else:
                dividend = _signed(regs[instr.rs1])
                self.set_reg(instr.rd, dividend - divisor * int(dividend / divisor))
        elif op is Op.ANDI:
            self.set_reg(instr.rd, regs[instr.rs1] & instr.imm)
        elif op is Op.ORI:
            self.set_reg(instr.rd, regs[instr.rs1] | instr.imm)
        elif op is Op.XORI:
            self.set_reg(instr.rd, regs[instr.rs1] ^ instr.imm)
        elif op is Op.SLLI:
            self.set_reg(instr.rd, regs[instr.rs1] << (instr.imm & 31))
        elif op is Op.SRLI:
            self.set_reg(instr.rd, regs[instr.rs1] >> (instr.imm & 31))
        elif op is Op.SRAI:
            self.set_reg(instr.rd, _signed(regs[instr.rs1]) >> (instr.imm & 31))
        elif op is Op.SLTI:
            self.set_reg(
                instr.rd, 1 if _signed(regs[instr.rs1]) < instr.imm else 0
            )
        elif op is Op.LUI:
            self.set_reg(instr.rd, instr.imm << 16)
        elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            a, b = regs[instr.rs1], regs[instr.rs2]
            if op is Op.BEQ:
                taken = a == b
            elif op is Op.BNE:
                taken = a != b
            elif op is Op.BLT:
                taken = _signed(a) < _signed(b)
            elif op is Op.BGE:
                taken = _signed(a) >= _signed(b)
            elif op is Op.BLTU:
                taken = a < b
            else:
                taken = a >= b
            if taken:
                pc_next = self.pc + 4 + 4 * instr.imm
        elif op is Op.JAL:
            self.set_reg(instr.rd, pc_next)
            pc_next = self.pc + 4 + 4 * instr.imm
        elif op is Op.JALR:
            target = (regs[instr.rs1] + instr.imm) & ~3 & _MASK
            self.set_reg(instr.rd, pc_next)
            pc_next = target
        elif op is Op.HALT:
            self.halted = True
            pc_next = self.pc
        elif op is Op.WFI:
            if not ticked:
                raise SimulationError("wfi is not allowed in fast mode")
        else:  # pragma: no cover - decode rejects undefined opcodes
            raise SimulationError(f"unimplemented opcode {op}")

        self.pc = pc_next
        return self.cost.cost(op)
