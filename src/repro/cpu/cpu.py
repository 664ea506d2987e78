"""The GPP instruction-set simulator (Leon3 stand-in).

Two execution modes share one instruction-execution core, a basic-block
translator.  One opcode table (:data:`_OPS`) maps each instruction to a
Python statement; :meth:`CPU._translate` joins the statements of a
straight-line run of instructions into one function, compiles it, and
caches it by entry pc until the next :meth:`CPU.load`.  A block's cycle
cost and instruction count are summed once, at translation time.

* **fast mode** (:meth:`CPU.run`): chains whole blocks with no
  simulator in sight, used for the pure-software baselines of Table I
  (hundreds of thousands to millions of instructions).  Loads and
  stores must stay inside the directly attached memory.
* **ticked mode** (:meth:`CPU.tick` under a
  :class:`~repro.sim.kernel.Simulator`): single-instruction
  translations, one retiring per cost-model cycles; accesses outside
  the direct memory window become bus transactions (MMIO) -- this is
  how assembly drivers program the Ouessant coprocessor's registers in
  the integration tests.

Both modes charge cycles through the same :class:`~repro.cpu.isa.CostModel`,
so a kernel measured in fast mode costs exactly what it would cost
inline in a ticked run (as long as it performs no MMIO).  An unaligned
``lw``/``sw`` inside the direct window raises :class:`SimulationError`
in both modes.  ``docs/SIMULATION.md`` ("ISS block translation")
documents block boundaries and cache lifetime.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..bus.bus import SystemBus
from ..bus.irq import IRQController
from ..bus.types import AccessKind, BusRequest, BusTransfer
from ..mem.memory import Memory
from ..sim.errors import SimulationError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from ..utils import bits
from .assembler import AssembledProgram
from .isa import BRANCH_OPS, CostModel, Instruction, Op, decode

_MASK = bits.WORD_MASK
_SIGN = 1 << 31

#: The one opcode table: the Python statement each instruction becomes
#: inside a block function ``block(cpu, r, m, mmio)`` over the register
#: list ``r`` and the memory word list ``m``; ``mmio`` is true in ticked
#: mode.  Placeholders: ``{a}`` / ``{b}`` rs1 / rs2 (``{sa}`` / ``{sb}``
#: signed), ``{v}`` the rd register (a store's value), ``{rd}`` its
#: number, ``{w}`` the ``r[rd] = `` prefix (empty for r0, whose writes
#: are dropped), ``{i}`` the immediate, ``{k}`` its low five bits,
#: ``{j}`` the immediate minus the memory base, ``{ok}`` the test that
#: word offset ``o`` is aligned and inside the window, ``{pc}``,
#: ``{link}`` (pc + 4) and ``{t}`` (branch/jal target), ``{c}`` the
#: block's cycles before this instruction.  A block function returns
#: the next pc; the translator appends the fall-through ``return``.
_OPS: Dict[Op, str] = {
    Op.ADD: "{w}({a} + {b}) & 0xFFFFFFFF",
    Op.SUB: "{w}({a} - {b}) & 0xFFFFFFFF",
    # the low word of a product does not depend on operand signedness
    Op.MUL: "{w}({a} * {b}) & 0xFFFFFFFF",
    Op.AND: "{w}{a} & {b}",
    Op.OR: "{w}{a} | {b}",
    Op.XOR: "{w}{a} ^ {b}",
    Op.SLL: "{w}({a} << ({b} & 31)) & 0xFFFFFFFF",
    Op.SRL: "{w}{a} >> ({b} & 31)",
    Op.SRA: "{w}({sa} >> ({b} & 31)) & 0xFFFFFFFF",
    Op.SLT: "{w}1 if {sa} < {sb} else 0",
    Op.SLTU: "{w}1 if {a} < {b} else 0",
    # truncating division; x / 0 = all ones, x % 0 = x
    Op.DIV: "{w}int({sa} / d) & 0xFFFFFFFF if (d := {sb}) else 0xFFFFFFFF",
    Op.REM: "{w}({sa} - d * int({sa} / d)) & 0xFFFFFFFF "
            "if (d := {sb}) else {a}",
    Op.ADDI: "{w}({a} + {i}) & 0xFFFFFFFF",
    Op.ANDI: "{w}{a} & {i}",
    Op.ORI: "{w}{a} | {i}",
    Op.XORI: "{w}{a} ^ {i}",
    Op.SLLI: "{w}({a} << {k}) & 0xFFFFFFFF",
    Op.SRLI: "{w}{a} >> {k}",
    Op.SRAI: "{w}({sa} >> {k}) & 0xFFFFFFFF",
    Op.SLTI: "{w}1 if {sa} < {i} else 0",
    Op.LUI: "{w}({i} << 16) & 0xFFFFFFFF",
    Op.LW: "o = ({a} + {j}) & 0xFFFFFFFF\n"
           "if {ok}: {w}m[o >> 2]\n"
           "else: cpu._stray({pc}, {c}, READ, o, {rd}, mmio)",
    Op.SW: "o = ({a} + {j}) & 0xFFFFFFFF\n"
           "if {ok}: m[o >> 2] = {v}\n"
           "else: cpu._stray({pc}, {c}, WRITE, o, {rd}, mmio)",
    Op.BEQ: "if {a} == {b}: return {t}",
    Op.BNE: "if {a} != {b}: return {t}",
    Op.BLT: "if {sa} < {sb}: return {t}",
    Op.BGE: "if {sa} >= {sb}: return {t}",
    Op.BLTU: "if {a} < {b}: return {t}",
    Op.BGEU: "if {a} >= {b}: return {t}",
    Op.JAL: "{w}{link}\nreturn {t}",
    # rs1 is read before rd is written: jalr r5, r5, 0 jumps to old r5
    Op.JALR: "t = ({a} + {i}) & 0xFFFFFFFC\n{w}{link}\nreturn t",
    Op.HALT: "cpu.halted = True\nreturn {pc}",
    # ticked mode reaches a wfi only once an interrupt is pending
    Op.WFI: "if not mmio: "
            "cpu._fault({pc}, {c}, 'wfi is not allowed in fast mode')",
}

_BLOCK_ENDS = BRANCH_OPS | {Op.JAL, Op.JALR, Op.HALT, Op.WFI}

#: a translated block: (function, instruction count, cycle cost)
_Block = Tuple[Callable[..., int], int, int]


def _signed(value: int) -> int:
    return value - (1 << 32) if value & _SIGN else value


def _operand(reg: int) -> str:
    return f"r[{reg}]" if reg else "0"


def _signed_operand(reg: int) -> str:
    return f"((r[{reg}] ^ 0x80000000) - 0x80000000)" if reg else "0"


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
        #: translated blocks by entry pc: whole blocks (fast mode) and
        #: single instructions (ticked mode, and fast mode at its limit)
        self._blocks: Dict[int, _Block] = {}
        self._steps: Dict[int, _Block] = {}
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
        self._blocks = {}
        self._steps = {}
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
        blocks = self._blocks
        regs = self.regs
        words = None if self.memory is None else self.memory.words
        pc = self.pc
        while not self.halted:
            if executed >= max_instructions:
                raise SimulationError(
                    f"fast run exceeded {max_instructions} instructions"
                )
            block = blocks.get(pc) or self._translate(pc, 0)
            if executed + block[1] > max_instructions:
                # the block would cross the limit: one instruction at a
                # time, so the limit fires where it always has
                block = self._steps.get(pc) or self._translate(pc, 1)
            function, count, cycles = block
            self.pc = pc = function(self, regs, words, False)
            self.cycles += cycles
            executed += count
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
        pc = self.pc
        function, _, cost = self._steps.get(pc) or self._translate(pc, 1)
        if (self._decoded[pc].op is Op.WFI
                and (self.irq is None or not self.irq.any_pending())):
            self.cycles += 1
            self.stats.incr("wfi_cycles")
            return  # stay on the wfi until an interrupt arrives
        self.pc = function(self, self.regs, self.memory.words, True)
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
            offset = pc - self.memory_base
            if self.memory is None or not 0 <= offset < self.memory.size_bytes:
                raise SimulationError(
                    f"{self.name}: fetch/load outside memory at {pc:#x}"
                )
            if offset & 3:
                raise SimulationError(f"{self.name}: unaligned pc {pc:#x}")
            instr = decode(self.memory.words[offset >> 2])
            self._decoded[pc] = instr
        return instr

    def _translate(self, pc: int, limit: int) -> _Block:
        """Translate, compile and cache the block entered at ``pc``.

        The block holds at most ``limit`` instructions (0: no limit;
        1: the single-instruction cache).  It ends at a branch, jump,
        ``halt`` or ``wfi``, or just before a pc that is not decoded
        yet: that pc is fetched and decoded only when control reaches
        it, so a bad fetch or decode raises exactly where it always has.
        """
        instr = self._fetch(pc)
        entry = pc
        ok = f"o < {self.memory.size_bytes} and not o & 3"
        statements: List[str] = []
        count = cycles = 0
        while True:
            statements.append(_OPS[instr.op].format(
                a=_operand(instr.rs1), b=_operand(instr.rs2),
                sa=_signed_operand(instr.rs1), sb=_signed_operand(instr.rs2),
                v=_operand(instr.rd), rd=instr.rd,
                w=f"r[{instr.rd}] = " if instr.rd else "",
                i=instr.imm, k=instr.imm & 31, j=instr.imm - self.memory_base,
                ok=ok, pc=pc, link=(pc + 4) & _MASK, t=pc + 4 + 4 * instr.imm,
                c=cycles,
            ))
            count += 1
            cycles += self.cost.cost(instr.op)
            pc += 4
            if instr.op in _BLOCK_ENDS or count == limit:
                break
            instr = self._decoded.get(pc)
            if instr is None:
                break
        statements.append(f"return {pc}")
        body = "".join(f"\n    {line}" for statement in statements
                       for line in statement.split("\n"))
        namespace = {"READ": AccessKind.READ, "WRITE": AccessKind.WRITE}
        exec(compile(f"def block(cpu, r, m, mmio):{body}",
                     f"<{self.name} block {entry:#x}>", "exec"), namespace)
        block = (namespace["block"], count, cycles)
        (self._steps if limit == 1 else self._blocks)[entry] = block
        return block

    def _fault(self, pc: int, cycles: int, message: str) -> None:
        """Stop a block at ``pc`` with ``cycles`` of it charged, and raise."""
        self.pc = pc
        self.cycles += cycles
        raise SimulationError(message)

    def _stray(
        self, pc: int, cycles: int, kind: AccessKind, offset: int,
        reg: int, mmio: bool,
    ) -> None:
        """Slow path of a ``lw``/``sw`` that is not an aligned word of
        the direct window: an unaligned access faults, an access outside
        the window goes over the bus (ticked mode only)."""
        address = (offset + self.memory_base) & _MASK
        if offset < self.memory.size_bytes:
            self._fault(pc, cycles, f"{self.name}: unaligned {kind.value} "
                                    f"at {address:#x} (pc {pc:#x})")
        if not mmio or self.bus is None:
            self._fault(pc, cycles, f"{self.name}: MMIO access to "
                                    f"{address:#x} outside fast-mode memory")
        if kind is AccessKind.READ:
            request = BusRequest(master=self.name, kind=kind,
                                 address=address, priority=0)
            self._pending_rd = reg
        else:
            value = 0 if reg == 0 else self.regs[reg]
            request = BusRequest(master=self.name, kind=kind, address=address,
                                 burst=1, data=[value], priority=0)
            self._pending_rd = None
        self._pending = self.bus.submit(request, waiter=self)
        self.stats.incr("mmio")
