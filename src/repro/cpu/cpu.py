"""The GPP instruction-set simulator (Leon3 stand-in).

Two execution modes share one instruction-execution core, a basic-block
translator.  One opcode table (:data:`_OPS`) maps each instruction to a
Python statement; :meth:`CPU._translate` joins the statements of a
straight-line run of instructions into one function and indexes it by
entry pc until the next :meth:`CPU.load`.  A block's cycle cost and
instruction count are summed once, at translation time.  Compiled
functions are shared by every CPU through a bounded cache keyed by the
generated source, so a fresh CPU running a known kernel compiles
nothing.

* **fast mode** (:meth:`CPU.run`): chains whole blocks with no
  simulator in sight, used for the pure-software baselines of Table I
  (hundreds of thousands to millions of instructions).  Loads and
  stores must stay inside the directly attached memory.  A block that
  branches back to its own entry becomes a ``while`` loop over
  register locals, run for as many whole iterations as the
  instruction limit allows.
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

from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bus.bus import SystemBus
from ..bus.irq import IRQController
from ..bus.types import AccessKind, BusTransfer
from ..mem.memory import Memory
from ..sim.errors import SimulationError
from ..sim.kernel import Component
from ..sim.tracing import Stats, elapsed
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
#: number, ``{w}`` the ``rd = `` prefix (empty for r0, whose writes are
#: dropped), ``{i}`` the immediate, ``{k}`` its low five bits, ``{o}``
#: the window offset of a ``lw``/``sw`` address, ``{ok}`` the test that
#: word offset ``o`` is aligned and inside the window, ``{pc}``,
#: ``{link}`` (pc + 4), ``{go}`` the taken branch/jal (``return`` the
#: target, or ``continue`` a loop block), ``{x}`` the statement that
#: stores a loop block's register locals back before a raise, ``{c}``
#: the block's cycles before this instruction.  A block function returns
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
    Op.LW: "o = {o}\n"
           "if {ok}: {w}m[o >> 2]\n"
           "else: {x}cpu._stray({pc}, {c}, READ, o, {rd}, mmio)",
    Op.SW: "o = {o}\n"
           "if {ok}: m[o >> 2] = {v}\n"
           "else: {x}cpu._stray({pc}, {c}, WRITE, o, {rd}, mmio)",
    Op.BEQ: "if {a} == {b}: {go}",
    Op.BNE: "if {a} != {b}: {go}",
    Op.BLT: "if {sa} < {sb}: {go}",
    Op.BGE: "if {sa} >= {sb}: {go}",
    Op.BLTU: "if {a} < {b}: {go}",
    Op.BGEU: "if {a} >= {b}: {go}",
    Op.JAL: "{w}{link}\n{go}",
    # rs1 is read before rd is written: jalr r5, r5, 0 jumps to old r5
    Op.JALR: "t = ({a} + {i}) & 0xFFFFFFFC\n{w}{link}\nreturn t",
    Op.HALT: "cpu.halted = True\nreturn {pc}",
    # ticked mode reaches a wfi only once an interrupt is pending
    Op.WFI: "if not mmio: "
            "{x}cpu._fault({pc}, {c}, 'wfi is not allowed in fast mode')",
}

_BLOCK_ENDS = BRANCH_OPS | {Op.JAL, Op.JALR, Op.HALT, Op.WFI}
#: block ends with a static target; one back to its own entry is a loop
_JUMPS = BRANCH_OPS | {Op.JAL}

#: a translated block: (function, instruction count, cycle cost, loop);
#: a loop block runs whole iterations -- see :meth:`CPU._translate`
_Block = Tuple[Callable[..., Any], int, int, bool]

#: how many compiled block functions :func:`_compile` keeps
_COMPILED_BLOCKS = 4096


@lru_cache(maxsize=_COMPILED_BLOCKS)
def _compile(source: str) -> Callable[..., Any]:
    """The function a block's source defines, shared by every CPU.

    The source bakes in everything the function depends on (memory
    window, cycle costs, decoded instructions), so it is the whole key.
    """
    namespace = {"READ": AccessKind.READ, "WRITE": AccessKind.WRITE}
    exec(compile(source, "<iss block>", "exec"), namespace)
    return namespace["block"]


def _signed(value: int) -> int:
    return value - (1 << 32) if value & _SIGN else value


def _operand(reg: int, name: str) -> str:
    """Register ``reg`` read through ``name`` (``r[{}]`` or ``r{}``)."""
    return name.format(reg) if reg else "0"


def _signed_operand(reg: int, name: str) -> str:
    return f"(({name.format(reg)} ^ 0x80000000) - 0x80000000)" if reg else "0"


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
        #: cycles charged so far; :attr:`cycles` adds the open run
        self._cycles = 0
        #: the cycle the current ticked run began (the last load)
        self._since = 0
        self.instret = 0
        self._stats = Stats()
        self._decoded: Dict[int, Instruction] = {}
        #: translated blocks by entry pc: whole blocks (fast mode) and
        #: single instructions (ticked mode, and fast mode at its limit)
        self._blocks: Dict[int, _Block] = {}
        self._steps: Dict[int, _Block] = {}
        #: the cycle the next instruction issues (multi-cycle costs)
        self._stall_until = 0
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
        self._cycles = self.cycles
        self._since = self.now
        self._stats.stop("wfi_cycles", self.now)
        self._reach(self.now)
        self.halted = False
        # a halted CPU claims indefinite idleness: re-poll it
        self.poke()

    def reset(self) -> None:
        # the statistics survive a reset; an open wfi interval does not
        self._stats.stop("wfi_cycles", self.now)
        self.regs = [0] * 32
        self.pc = 0
        self.halted = True
        self._cycles = 0
        self.instret = 0
        self._stall_until = 0
        self._pending = None
        self._pending_rd = None

    @property
    def cycles(self) -> int:
        """Cycles executed: every fast-mode block's cost, plus each
        ticked cycle from a load to the ``halt`` (live while running)."""
        if self.halted:
            return self._cycles
        return self._cycles + elapsed(self._since, self.now)

    @property
    def stats(self) -> Stats:
        """Statistics as of now, the cycle intervals still open
        included."""
        return self._stats.at(self.now)

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
        # charge the ticked cycles so far; the clock stands still here
        self._cycles = start_cycles = self.cycles
        self._since = self.now
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
            function, count, cycles, loop = (
                blocks.get(pc) or self._translate(pc, 0))
            if executed + count > max_instructions:
                # the block would cross the limit: one instruction at a
                # time, so the limit fires where it always has
                function, count, cycles, loop = (
                    self._steps.get(pc) or self._translate(pc, 1))
            if loop:
                # whole iterations only, as many as fit under the limit
                pc, trips = function(self, regs, words, False,
                                     (max_instructions - executed) // count)
                cycles *= trips
                count *= trips
            else:
                pc = function(self, regs, words, False)
            self.pc = pc
            self._cycles += cycles
            executed += count
        self.instret += executed
        return self._cycles - start_cycles

    # -- ticked mode -------------------------------------------------------
    def tick(self) -> None:
        if self.halted:
            return
        if self._pending is not None:
            if not self._pending.done:
                return
            if self._pending_rd is not None:
                self.set_reg(self._pending_rd, self._pending.data[0])
            self._pending = None
            self._pending_rd = None
            self._reach(self.now + 1)
            return
        now = self.now
        if now < self._stall_until:
            return
        pc = self.pc
        function, _, cost, _ = self._steps.get(pc) or self._translate(pc, 1)
        if self._decoded[pc].op is Op.WFI:
            if self.irq is None or not self.irq.any_pending():
                self._stats.start("wfi_cycles", now)
                return  # stay on the wfi until an interrupt arrives
            self._stats.stop("wfi_cycles", now)
        self.pc = function(self, self.regs, self.memory.words, True)
        self.instret += 1
        if self.halted:
            self._cycles += now + 1 - self._since
        elif self._pending is None:
            self._stall_until = now + cost
            self._reach(now + cost)

    def _reach(self, at: int) -> None:
        """The instruction at pc issues at cycle ``at``.  A predecoded
        ``wfi`` waits from then on -- :meth:`next_activity` sleeps
        through it without a tick -- until an interrupt lets it
        execute (one already pending ends the wait empty)."""
        instr = self._decoded.get(self.pc)
        if instr is not None and instr.op is Op.WFI:
            self._stats.start("wfi_cycles", at)

    def next_activity(self):
        if self.halted:
            return None
        if self._pending is not None:
            # waiting on an MMIO bus transfer; the bus wakes the system
            return self.now if self._pending.done else None
        if self._stall_until > self.now:
            # multi-cycle instruction cost
            return self._stall_until
        # consult only the predecoded map -- next_activity must not
        # fault where the naive tick would (a bad pc faults in tick)
        instr = self._decoded.get(self.pc)
        if (instr is not None and instr.op is Op.WFI
                and (self.irq is None or not self.irq.any_pending())):
            return None  # asleep until an interrupt is raised
        return self.now

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

        A fast-mode block (``limit`` 0) whose branch or ``jal`` targets
        its own entry is a *loop block*: ``block(cpu, r, m, mmio,
        budget)`` runs at most ``budget`` whole iterations over register
        locals and returns ``(next pc, iterations run)``.  It stores the
        registers it writes back into ``r`` on every exit, and a fault
        charges the finished iterations' cycles before its own.
        """
        entry = pc
        code: List[Tuple[int, Instruction, int]] = []  # (pc, instr, {c})
        instr = self._fetch(pc)
        cycles = 0
        while True:
            code.append((pc, instr, cycles))
            cycles += self.cost.cost(instr.op)
            pc += 4
            if instr.op in _BLOCK_ENDS or len(code) == limit:
                break
            instr = self._decoded.get(pc)
            if instr is None:
                break
        last_pc, last, _ = code[-1]
        loop = (not limit and last.op in _JUMPS
                and last_pc + 4 + 4 * last.imm == entry)
        name, store = "r[{}]", ""
        if loop:
            name = "r{}"
            used = sorted({n for _, i, _ in code
                           for n in (i.rs1, i.rs2, i.rd) if n})
            written = sorted({i.rd for _, i, _ in code
                              if i.rd and "{w}" in _OPS[i.op]})
            if written:
                store = (", ".join(f"r[{n}]" for n in written) + " = "
                         + ", ".join(f"r{n}" for n in written) + "; ")
        ok = f"o < {self.memory.size_bytes} and not o & 3"
        statements: List[str] = []
        for at, instr, before in code:
            a = _operand(instr.rs1, name)
            offset = instr.imm - self.memory_base
            statements.append(_OPS[instr.op].format(
                a=a, b=_operand(instr.rs2, name),
                sa=_signed_operand(instr.rs1, name),
                sb=_signed_operand(instr.rs2, name),
                v=_operand(instr.rd, name), rd=instr.rd,
                w=f"{name.format(instr.rd)} = " if instr.rd else "",
                i=instr.imm, k=instr.imm & 31,
                # registers hold 32-bit values: no mask for offset 0
                o=f"({a} + {offset}) & 0xFFFFFFFF" if offset else a,
                ok=ok, pc=at, link=(at + 4) & _MASK,
                go="continue" if loop else f"return {at + 4 + 4 * instr.imm}",
                # a fault in a loop charges the finished iterations first
                x=store, c=f"(trips - 1) * {cycles} + {before}" if loop
                else before,
            ))
        lines = [line for statement in statements
                 for line in statement.split("\n")]
        if loop:
            lines = [f"r{n} = r[{n}]" for n in used] + [
                "trips = 0", "while trips < budget:", "    trips += 1",
                *(f"    {line}" for line in lines),
                f"    {store}return {pc}, trips",
                f"{store}return {entry}, trips",
            ]
            signature = "cpu, r, m, mmio, budget"
        else:
            lines.append(f"return {pc}")
            signature = "cpu, r, m, mmio"
        body = "".join(f"\n    {line}" for line in lines)
        block = (_compile(f"def block({signature}):{body}"),
                 len(code), cycles, loop)
        (self._steps if limit == 1 else self._blocks)[entry] = block
        return block

    def _fault(self, pc: int, cycles: int, message: str) -> None:
        """Stop a block at ``pc`` with ``cycles`` of it charged, and raise."""
        self.pc = pc
        self._cycles += cycles
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
            data = None
            self._pending_rd = reg
        else:
            data = [0 if reg == 0 else self.regs[reg]]
            self._pending_rd = None
        self._pending = self.bus.submit(self.name, kind, address, data=data,
                                        waiter=self)
        self._stats.incr("mmio")
