"""The GPP instruction-set simulator (Leon3 stand-in).

Two execution modes share one instruction-execution core:

* **fast mode** (:meth:`CPU.run`): a tight fetch/execute loop with no
  simulator in sight, used for the pure-software baselines of Table I
  (hundreds of thousands to millions of instructions).  Loads and
  stores must stay inside the directly attached memory.
* **ticked mode** (:meth:`CPU.tick` under a
  :class:`~repro.sim.kernel.Simulator`): one instruction retires per
  cost-model cycles; accesses outside the direct memory window become
  bus transactions (MMIO) -- this is how assembly drivers program the
  Ouessant coprocessor's registers in the integration tests.

Both modes charge cycles through the same :class:`~repro.cpu.isa.CostModel`,
so a kernel measured in fast mode costs exactly what it would cost
inline in a ticked run (as long as it performs no MMIO).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bus.bus import SystemBus
from ..bus.irq import IRQController
from ..bus.types import AccessKind, BusRequest, BusTransfer
from ..mem.memory import Memory
from ..sim.errors import SimulationError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from ..utils import bits
from .assembler import AssembledProgram
from .isa import CostModel, Instruction, Op, decode

_MASK = bits.WORD_MASK
_SIGN = 1 << 31


def _signed(value: int) -> int:
    return value - (1 << 32) if value & _SIGN else value


class CPU(Component):
    """In-order scalar RISC core with direct memory + MMIO over a bus.

    Parameters
    ----------
    memory:
        Directly attached RAM (instruction + data).  Accesses inside
        ``[memory_base, memory_base + size)`` cost ``cost_model.load``
        cycles (warm-cache model); everything else goes over ``bus``.
    bus:
        Optional system bus for MMIO (required in ticked mode when the
        program touches peripheral addresses).
    irq:
        Optional interrupt controller observed by ``wfi``.
    """

    def __init__(
        self,
        name: str = "cpu",
        memory: Optional[Memory] = None,
        memory_base: int = 0,
        bus: Optional[SystemBus] = None,
        irq: Optional[IRQController] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(name)
        self.memory = memory
        self.memory_base = memory_base
        self.bus = bus
        self.irq = irq
        if irq is not None:
            # a WFI'd CPU declares indefinite idleness; interrupt
            # edges must re-poll it under the fast schedule
            irq.watch(self)
        self.cost = cost_model or CostModel()
        self.regs: List[int] = [0] * 32
        self.pc = 0
        self.halted = True
        self.cycles = 0
        self.instret = 0
        self.stats = Stats()
        self._decoded: Dict[int, Instruction] = {}
        self._stall = 0
        self._pending: Optional[BusTransfer] = None
        self._pending_rd: Optional[int] = None

    # -- program loading ------------------------------------------------
    def load(self, program: AssembledProgram) -> None:
        """Copy a program into memory, predecode it and point pc at it."""
        if self.memory is None:
            raise SimulationError("CPU has no memory to load into")
        self.memory.load_words(
            program.text_base - self.memory_base, program.text
        )
        if program.data:
            self.memory.load_words(
                program.data_base - self.memory_base, program.data
            )
        self._decoded = {}
        for index, word in enumerate(program.text):
            self._decoded[program.text_base + 4 * index] = decode(word)
        self.pc = program.entry
        self.halted = False

    def reset(self) -> None:
        self.regs = [0] * 32
        self.pc = 0
        self.halted = True
        self.cycles = 0
        self.instret = 0
        self._stall = 0
        self._pending = None
        self._pending_rd = None

    # -- register access -----------------------------------------------
    def reg(self, index: int) -> int:
        """Unsigned value of a register."""
        return self.regs[index]

    def reg_signed(self, index: int) -> int:
        return _signed(self.regs[index])

    def set_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & _MASK

    # -- fast mode --------------------------------------------------------
    def run(self, max_instructions: int = 50_000_000) -> int:
        """Execute until ``halt``; returns cycles consumed by this call.

        MMIO (any access outside the direct memory window) raises
        :class:`SimulationError` -- fast mode is for pure-software
        kernels only.
        """
        start_cycles = self.cycles
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise SimulationError(
                    f"fast run exceeded {max_instructions} instructions"
                )
            instr = self._fetch(self.pc)
            self.cycles += self._execute(instr, allow_mmio=False)
            executed += 1
        self.instret += executed
        return self.cycles - start_cycles

    # -- ticked mode -------------------------------------------------------
    def tick(self) -> None:
        if self.halted:
            return
        if self._pending is not None:
            self.cycles += 1
            if not self._pending.done:
                return
            if self._pending_rd is not None:
                self.set_reg(self._pending_rd, self._pending.data[0])
            self._pending = None
            self._pending_rd = None
            return
        if self._stall > 0:
            self._stall -= 1
            self.cycles += 1
            return
        instr = self._fetch(self.pc)
        if instr.op is Op.WFI and (self.irq is None or not self.irq.any_pending()):
            self.cycles += 1
            self.stats.incr("wfi_cycles")
            return  # stay on the wfi until an interrupt arrives
        cost = self._execute(instr, allow_mmio=True)
        self.cycles += 1
        self.instret += 1
        if self._pending is None:
            self._stall = cost - 1

    def next_activity(self):
        if self.halted:
            return None
        if self._pending is not None:
            # waiting on an MMIO bus transfer; the bus wakes the system
            return self.now if self._pending.done else None
        if self._stall > 0:
            # multi-cycle instruction cost: pure counter burn-down
            return self.now + self._stall
        # consult only the predecoded map -- next_activity must not
        # fault where the naive tick would (a bad pc faults in tick)
        instr = self._decoded.get(self.pc)
        if (instr is not None and instr.op is Op.WFI
                and (self.irq is None or not self.irq.any_pending())):
            return None  # asleep until an interrupt is raised
        return self.now

    def on_skip(self, cycles: int) -> None:
        if self.halted:
            return
        if self._pending is not None:
            self.cycles += cycles
            return
        if self._stall > 0:
            self._stall -= cycles
            self.cycles += cycles
            return
        # skippable only while parked on wfi with no pending interrupt
        self.cycles += cycles
        self.stats.incr("wfi_cycles", cycles)

    # -- core ------------------------------------------------------------
    def _fetch(self, pc: int) -> Instruction:
        instr = self._decoded.get(pc)
        if instr is None:
            word = self._load_word(pc)
            instr = decode(word)
            self._decoded[pc] = instr
        return instr

    def _mem_index(self, address: int) -> Optional[int]:
        if self.memory is None:
            return None
        offset = address - self.memory_base
        if 0 <= offset < self.memory.size_bytes:
            return offset >> 2
        return None

    def _load_word(self, address: int) -> int:
        index = self._mem_index(address)
        if index is None:
            raise SimulationError(
                f"{self.name}: fetch/load outside memory at {address:#x}"
            )
        return self.memory.words[index]

    def _execute(self, instr: Instruction, allow_mmio: bool) -> int:
        """Execute one instruction; returns its cycle cost.

        In ticked mode an MMIO access sets ``self._pending`` and the
        cost is paid by waiting for the bus transfer instead.
        """
        op = instr.op
        regs = self.regs
        pc_next = self.pc + 4

        if op is Op.ADDI:
            self.set_reg(instr.rd, regs[instr.rs1] + instr.imm)
        elif op is Op.LW:
            address = (regs[instr.rs1] + instr.imm) & _MASK
            index = self._mem_index(address)
            if index is not None:
                self.set_reg(instr.rd, self.memory.words[index])
            else:
                self._mmio(AccessKind.READ, address, instr.rd, allow_mmio)
        elif op is Op.SW:
            address = (regs[instr.rs1] + instr.imm) & _MASK
            index = self._mem_index(address)
            if index is not None:
                if instr.rd == 0:
                    self.memory.words[index] = 0
                else:
                    self.memory.words[index] = regs[instr.rd]
            else:
                self._mmio(AccessKind.WRITE, address, instr.rd, allow_mmio)
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
            self.set_reg(instr.rd, pc_next)
            pc_next = (regs[instr.rs1] + instr.imm) & ~3 & _MASK
        elif op is Op.HALT:
            self.halted = True
            pc_next = self.pc
        elif op is Op.WFI:
            if not allow_mmio:
                raise SimulationError("wfi is not allowed in fast mode")
            # reached only when an interrupt is already pending
        else:  # pragma: no cover - decode rejects undefined opcodes
            raise SimulationError(f"unimplemented opcode {op}")

        self.pc = pc_next
        return self.cost.cost(op)

    def _mmio(
        self, kind: AccessKind, address: int, reg_index: int, allowed: bool
    ) -> None:
        if not allowed or self.bus is None:
            raise SimulationError(
                f"{self.name}: MMIO access to {address:#x} outside fast-mode memory"
            )
        if kind is AccessKind.READ:
            request = BusRequest(master=self.name, kind=kind,
                                 address=address, priority=0)
            self._pending_rd = reg_index
        else:
            value = 0 if reg_index == 0 else self.regs[reg_index]
            request = BusRequest(master=self.name, kind=kind, address=address,
                                 burst=1, data=[value], priority=0)
            self._pending_rd = None
        self._pending = self.bus.submit(request, waiter=self)
        self.stats.incr("mmio")
