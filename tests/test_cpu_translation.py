"""The block-translating ISS against the reference interpreter.

Random programs run three ways -- translated fast mode
(:meth:`CPU.run`), translated ticked mode (:meth:`CPU.tick` under a
:class:`Simulator`) and the ``if/elif`` oracle of ``iss_oracle.py`` --
and must agree on registers, memory, ``pc``, ``cycles``, ``instret``
and ``halted``, and on the exception (type and message) when one is
raised.  The programs always terminate: control flow only goes forward
except for counted loops whose counters no other instruction writes.
Each loop also walks a pointer register, which may leave the direct
window or turn unaligned a few iterations in, so faults land inside the
translator's loop blocks as well as in straight-line code.

The Hypothesis seed can be shifted with ``REPRO_ISS_SEED`` (the CI
differential job pins it) without touching the file.
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.bus.bus import SystemBus
from repro.bus.irq import IRQController, IRQLine
from repro.baselines.software import software_idct
from repro.cpu import kernels
from repro.cpu.assembler import AssembledProgram, assemble
from repro.cpu.cpu import CPU, _compile
from repro.cpu.isa import (
    ALU_I_OPS,
    ALU_R_OPS,
    BRANCH_OPS,
    CostModel,
    Instruction,
    Op,
    encode,
    op_zero_extends,
)
from repro.mem.memory import Memory
from repro.sim.errors import SimulationError
from repro.sim.kernel import Simulator

from tests.iss_oracle import OracleCPU

ISS_SEED = int(os.environ.get("REPRO_ISS_SEED", "20241"))

#: registers random instructions read and write (many, so a result
#: often survives to the final comparison); r16/r17 are the loop
#: counters, r18 the address scratch and r19 the loops' walking
#: pointer, written only by their idioms
DATA_REGS = range(16)
COUNTERS = (16, 17)
SCRATCH = 18
WALKER = 19

#: division by zero, INT_MIN / -1, shifts of 32 and more
SPECIAL = [0, 1, 2, 3, 31, 32, 33, 63, 64, 0x7FFF_FFFF, 0x8000_0000,
           0xFFFF_FFFF, 0xFFFF_FFFE]
reg_values = st.one_of(st.sampled_from(SPECIAL),
                       st.integers(0, 0x7FFF_FFFF),
                       st.integers(0x8000_0000, 0xFFFF_FFFF))
reg = st.sampled_from(DATA_REGS)
#: a forward distance in items; clamped to the final ``halt``
forward = st.one_of(st.integers(0, 2), st.integers(0, 12))


def _imm(op):
    low, high = (0, 0xFFFF) if op_zero_extends(op) else (-0x8000, 0x7FFF)
    edges = [low, high, 0, 1, 31, 32, 33, low + high >> 1, high + 1 >> 1]
    return st.one_of(st.integers(low, high), st.sampled_from(edges))


#: weighted leaf kinds: mostly straight-line work that keeps running,
#: a little control flow, and rare program-ending faults
KINDS = (["alu"] * 50 + ["load", "store"] * 8 + ["walk"] * 6
         + ["branch"] * 12 + ["jal", "jalr"] * 4 + ["stray"] * 2
         + ["halt", "wfi"])


@st.composite
def _leaf(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "alu":
        op = draw(st.sampled_from(sorted(ALU_R_OPS | ALU_I_OPS | {Op.LUI})))
        if op in ALU_R_OPS:
            return ("ins", Instruction(op, draw(reg), draw(reg), draw(reg)))
        rs1 = 0 if op is Op.LUI else draw(reg)
        return ("ins", Instruction(op, draw(reg), rs1, imm=draw(_imm(op))))
    if kind in ("load", "store"):
        op = Op.LW if kind == "load" else Op.SW
        return ("mem", op, draw(reg), "aligned",
                draw(st.integers(0, 1 << 16)), draw(st.integers(-8, 8)))
    if kind == "walk":
        # an access through the walking pointer of the enclosing loop
        op = draw(st.sampled_from([Op.LW, Op.SW]))
        return ("ins", Instruction(op, draw(reg), WALKER,
                                   imm=draw(st.sampled_from([0, 0, 4, -4]))))
    if kind == "stray":
        op = draw(st.sampled_from([Op.LW, Op.SW]))
        if draw(st.booleans()):
            # random base register and offset
            return ("ins", Instruction(op, draw(reg), draw(reg),
                                       imm=draw(_imm(op))))
        place = draw(st.sampled_from(["unaligned", "above", "below"]))
        return ("mem", op, draw(reg), place, draw(st.integers(0, 1 << 16)),
                draw(st.integers(-8, 8)))
    if kind == "branch":
        op = draw(st.sampled_from(sorted(BRANCH_OPS)))
        return ("branch", op, draw(reg), draw(reg), draw(forward))
    if kind == "jal":
        return ("jal", draw(reg), draw(forward))
    if kind == "jalr":
        # rd == rs1 == the scratch register is the link-overwrite case
        rd = draw(st.sampled_from([0, SCRATCH, 1, 31]))
        where = draw(st.sampled_from(["item"] * 4 + ["outside", "bad"]))
        return ("jalr", rd, where, draw(forward), draw(st.integers(0, 3)))
    return ("ins", Instruction(Op.HALT if kind == "halt" else Op.WFI))


#: (min, max) items per nesting level; the largest program fits the
#: smallest window
LIST_SIZES = ((4, 16), (1, 8), (1, 6))


def _items(depth):
    low, high = LIST_SIZES[depth]
    if depth == len(COUNTERS):
        return st.lists(_leaf(), min_size=low, max_size=high)
    # up to ~40 trips, so a drawn instruction limit lands mid-loop; the
    # walking pointer starts near either end of the window and steps by
    # a word (leaving it after ``distance`` trips) or a half word
    loop = st.tuples(st.just("loop"),
                     st.one_of(st.integers(0, 3), st.integers(0, 40)),
                     st.deferred(lambda: _items(depth + 1)),
                     st.sampled_from(["top", "bottom"]), st.integers(0, 12),
                     st.sampled_from([4, -4, 2, -2]))
    return st.lists(st.one_of(_leaf(), _leaf(), loop),
                    min_size=low, max_size=high)


def _flatten(items, depth=0, flat=None):
    """Items in layout order; loops become init / body / back-edge."""
    flat = [] if flat is None else flat
    for item in items:
        if item[0] == "loop":
            _, trips, body, place, distance, step = item
            counter = COUNTERS[depth]
            flat.append(("init", counter, trips, place, distance))
            head = len(flat)
            _flatten(body, depth + 1, flat)
            flat.append(("back", counter, head, step))
        else:
            flat.append(item)
    return flat


_SIZE = {"init": 3, "back": 3, "mem": 3, "jalr": 3}


def _li(rd, value):
    return [Instruction(Op.LUI, rd, imm=(value >> 16) & 0xFFFF),
            Instruction(Op.ORI, rd, rd, imm=value & 0xFFFF)]


def _encode(flat, base, size):
    """Lay the items out from ``base``; returns the text words."""
    starts = []
    address = base
    for item in flat:
        starts.append(address)
        address += 4 * _SIZE.get(item[0], 1)
    last = len(flat) - 1

    def target(index, distance):
        return starts[min(index + 1 + distance, last)]

    words = []
    for index, item in enumerate(flat):
        pc = starts[index]
        kind = item[0]
        if kind == "ins":
            code = [item[1]]
        elif kind == "init":
            _, counter, trips, place, distance = item
            walker = (base + size - 4 - 4 * distance if place == "top"
                      else base + 4 * distance)
            code = _li(WALKER, walker) + [
                Instruction(Op.ADDI, counter, 0, imm=trips)]
        elif kind == "back":
            # loop while 0 < counter (signed): a counter entered at 0 or
            # below, by a jump into the body, exits at once
            _, counter, head, step = item
            back = (starts[head] - pc - 12) // 4
            code = [Instruction(Op.ADDI, WALKER, WALKER, imm=step),
                    Instruction(Op.ADDI, counter, counter, imm=-1),
                    Instruction(Op.BLT, rs1=0, rs2=counter, imm=back)]
        elif kind == "mem":
            _, op, rd, place, pick, imm = item
            word = base + 4 * (pick % (size // 4))
            address = {
                "aligned": word,
                "unaligned": word + 1 + pick % 3,
                "above": base + size + 4 * (pick % 2),
                "below": base - 4 - 4 * (pick % 2),
            }[place]
            code = _li(SCRATCH, (address - imm) & 0xFFFF_FFFF) + [
                Instruction(op, rd, SCRATCH, imm=imm)]
        elif kind == "branch":
            _, op, rs1, rs2, distance = item
            offset = (target(index, distance) - pc - 4) // 4
            code = [Instruction(op, rs1=rs1, rs2=rs2, imm=offset)]
        elif kind == "jal":
            offset = (target(index, item[2]) - pc - 4) // 4
            code = [Instruction(Op.JAL, item[1], imm=offset)]
        else:  # jalr
            _, rd, where, distance, imm = item
            dest = {"item": target(index, distance),
                    "outside": base + size + 64, "bad": base + size - 4,
                    }[where]
            code = _li(SCRATCH, dest) + [
                Instruction(Op.JALR, rd, SCRATCH, imm=imm)]
        words += [encode(instr) for instr in code]
    return words


@st.composite
def programs(draw):
    base = draw(st.sampled_from([0, 0x1_0000]))
    size = draw(st.sampled_from([16384, 12288]))  # power of two or not
    text = _encode(
        _flatten(draw(_items(0))) + [("ins", Instruction(Op.HALT))],
        base, size)
    cost = CostModel(
        alu=draw(st.integers(1, 2)), load=draw(st.integers(1, 3)),
        store=draw(st.integers(1, 3)), mul=draw(st.integers(1, 4)),
        div=draw(st.integers(1, 40)), branch=draw(st.integers(1, 3)),
        jump=draw(st.integers(1, 3)),
    )
    regs = [0] + [draw(reg_values) for _ in DATA_REGS[1:]]
    return base, size, text, cost, regs


#: the last word of the window holds an undefined opcode, a jump target
BAD_WORD = 0x3F << 26


def _loaded(cls, base, size, text, cost, regs, **kwargs):
    cpu = cls(memory=Memory("ram", size), memory_base=base,
              cost_model=cost, **kwargs)
    cpu.load(AssembledProgram(text=text, data=[BAD_WORD], text_base=base,
                              data_base=base + size - 4))
    cpu.regs[:len(regs)] = regs
    return cpu


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


def _error(call):
    """The (type, message) of the exception ``call`` raises, or None."""
    outcome = _outcome(call)
    return None if outcome[0] == "ok" else outcome


def _state(cpu):
    return (list(cpu.regs), list(cpu.memory.words), cpu.pc, cpu.cycles,
            cpu.instret, cpu.halted)


def _ticked(program):
    sim = Simulator()
    irqc = IRQController()
    line = IRQLine("ext")
    irqc.register(line)
    line.assert_()  # always pending: every wfi retires at once
    cpu = _loaded(CPU, *program, irq=irqc)
    sim.add(cpu)
    error = _error(
        lambda: sim.run_until(lambda: cpu.halted, max_cycles=2_000_000))
    return cpu, error


def check_fast(program, limit):
    fast = _loaded(CPU, *program)
    oracle = _loaded(OracleCPU, *program)
    assert (_outcome(lambda: fast.run(max_instructions=limit))
            == _outcome(lambda: oracle.run(max_instructions=limit)))
    assert _state(fast) == _state(oracle)
    return oracle


def check_ticked(program):
    ticked, error = _ticked(program)
    oracle = _loaded(OracleCPU, *program)
    expected = _error(lambda: oracle.run(ticked=True))
    assert (error, _state(ticked)) == (expected, _state(oracle))


@seed(ISS_SEED)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.one_of(st.none(), st.integers(0, 400)))
def test_translated_modes_match_oracle(program, limit):
    check_fast(program, 50_000_000 if limit is None else limit)
    check_ticked(program)


LOOPS = """
    addi r1, r0, 3
outer:
    addi r2, r0, 4
inner:
    add  r3, r3, r1
    slli r4, r3, 2
    la   r5, buf
    sw   r4, 0(r5)
    lw   r6, 0(r5)
    div  r7, r6, r1
    addi r2, r2, -1
    bne  r2, r0, inner
    addi r1, r1, -1
    bne  r1, r0, outer
    la   r8, buf
    addi r9, r0, 5
walk:
    sw   r9, 4(r8)
    addi r8, r8, 4
    addi r9, r9, -1
    bne  r9, r0, walk
    halt
.data
buf:
    .space 24
"""


def test_instruction_limit_at_every_offset():
    """The runaway limit fires at the same instruction for every limit,
    including every offset inside a multi-instruction block and every
    iteration of a loop block."""
    program = assemble(LOOPS, text_base=0, data_base=0x800)
    config = (0, 4096, program.text, CostModel(), [0])

    def load(cls):
        cpu = _loaded(cls, *config)
        cpu.memory.load_words(program.data_base, program.data)
        return cpu

    total = load(OracleCPU)
    total.run()
    translated = load(CPU)
    translated.run()
    for label in ("inner", "walk"):
        assert translated._blocks[program.address_of(label)][3], label
    for limit in range(total.instret + 2):
        fast, oracle = load(CPU), load(OracleCPU)
        assert (_outcome(lambda: fast.run(max_instructions=limit))
                == _outcome(lambda: oracle.run(max_instructions=limit)))
        assert _state(fast) == _state(oracle), limit


WALK_OFF = """
    li   r8, {start}
    addi r9, r0, 10
walk:
    addi r9, r9, -1
    sw   r9, 0(r8)
    addi r8, r8, {step}
    bne  r9, r0, walk
    halt
"""


@pytest.mark.parametrize("step, start, message", [
    (4, 4096 - 12, "outside fast-mode memory"),  # leaves on trip 4
    (-4, 8, "outside fast-mode memory"),         # under the base, trip 4
    (2, 0x800, "unaligned"),                     # unaligned on trip 2
])
def test_walking_pointer_faults_inside_a_loop_block(step, start, message):
    """A loop block stops at the faulting access with the finished
    iterations charged and the registers it wrote stored back."""
    base = 0x40 if step < 0 else 0
    program = assemble(WALK_OFF.format(start=base + start, step=step),
                       text_base=base, data_base=base)
    config = (base, 4096, program.text, CostModel(), [0])
    oracle = check_fast(config, 1000)
    check_ticked(config)
    fast = _loaded(CPU, *config)
    with pytest.raises(SimulationError, match=message):
        fast.run()
    assert fast._blocks[program.address_of("walk")][3]
    assert oracle.pc == program.address_of("walk") + 4


def test_dft_inner_loop_is_a_loop_block():
    """The Table I software DFT spends its time in ``t_loop``: the
    translator must keep compiling it as a loop block."""
    program = assemble(kernels.dft_sw_source(256), text_base=0,
                       data_base=0x8_0000)
    cpu = CPU(memory=Memory("ram", 1 << 20))
    cpu.load(program)
    assert cpu.run() == 1_511_186
    _, count, _, loop = cpu._blocks[program.address_of("t_loop")]
    assert loop and count == 23


def test_compiled_blocks_are_shared_across_cpus():
    """Each software IDCT call builds a fresh CPU; the second call finds
    every block in the shared cache and compiles none."""
    block = [[(7 * r + 3 * c) % 50 - 25 for c in range(8)] for r in range(8)]
    first, _ = software_idct(block)
    misses = _compile.cache_info().misses
    second, _ = software_idct(block)
    assert _compile.cache_info().misses == misses
    assert second == first


JALR_SAME_REG = """
    la   r5, target
    jalr r5, r5, 0
    addi r1, r0, 1
    halt
target:
    addi r2, r0, 2
    halt
"""


def _ticked_source(source):
    sim = Simulator()
    cpu = CPU(memory=Memory("ram", 1 << 12), memory_base=0)
    sim.add(cpu)
    cpu.load(assemble(source, text_base=0, data_base=0x800))
    return sim, cpu


def test_jalr_link_register_equal_to_target_register():
    fast = CPU(memory=Memory("ram", 1 << 12))
    program = assemble(JALR_SAME_REG, text_base=0, data_base=0x800)
    fast.load(program)
    fast.run()
    sim, ticked = _ticked_source(JALR_SAME_REG)
    sim.run_until(lambda: ticked.halted, max_cycles=100)
    for cpu in (fast, ticked):
        assert cpu.reg(2) == 2 and cpu.reg(1) == 0
        # the link is the address after the jalr (la is lui + ori)
        assert cpu.reg(5) == 12


@pytest.mark.parametrize("access", ["lw r2, 2(r0)", "sw r1, 0x801(r0)"])
def test_unaligned_access_in_window_raises_in_both_modes(access):
    source = f"addi r1, r0, 9\n{access}\nhalt"
    fast = CPU(memory=Memory("ram", 1 << 12))
    fast.load(assemble(source, text_base=0, data_base=0x800))
    with pytest.raises(SimulationError, match=r"unaligned .* \(pc 0x4\)"):
        fast.run()
    sim, ticked = _ticked_source(source)
    with pytest.raises(SimulationError, match=r"unaligned .* \(pc 0x4\)"):
        sim.run_until(lambda: ticked.halted, max_cycles=100)
    for cpu in (fast, ticked):
        # stopped on the access, with the first instruction charged
        assert (cpu.pc, cpu.cycles, cpu.reg(2)) == (4, 1, 0)
        assert cpu.memory.read_word(0x800) == 0


def test_store_ahead_of_execution_is_seen_past_the_loaded_text():
    """Only loaded text is decoded ahead of execution: a word past it
    is decoded when control reaches it, after the store that wrote it."""
    patch = encode(Instruction(Op.ADDI, 1, 1, imm=5))
    source = f"""
        la   r10, tail
        li   r11, {patch:#x}
        sw   r11, 0(r10)
    tail:
    """
    program = assemble(source, text_base=0, data_base=0x800)
    config = (0, 4096, program.text, CostModel(), [0])
    oracle = check_fast(config, 100)
    check_ticked(config)
    # the patched addi ran, then the zero word after it (halt)
    assert oracle.regs[1] == 5 and oracle.pc == program.address_of("tail") + 4


def test_fast_mode_refuses_mmio_even_with_a_bus():
    memory = Memory("ram", 1 << 12)
    bus = SystemBus()
    bus.attach_slave("ram", 0, 1 << 12, memory)
    cpu = CPU(memory=memory, bus=bus)
    cpu.load(assemble("addi r1, r0, 1\nli r2, 0x80000000\nsw r1, 0(r2)\nhalt"))
    with pytest.raises(SimulationError, match="outside fast-mode memory"):
        cpu.run()
    assert (cpu.pc, cpu.cycles, cpu.instret) == (12, 3, 0)


@pytest.mark.parametrize("size", [4096, 3072])  # power of two or not
@pytest.mark.parametrize("base", [0, 0x1_0000])
@pytest.mark.parametrize("edge", [-4, -8, -2, 0, 1, "below"])
@pytest.mark.parametrize("access", ["lw r2, 0(r10)", "sw r1, 0(r10)"])
def test_window_edges_match_oracle(size, base, edge, access):
    """Accesses at both ends of the direct window, in both modes."""
    address = base - 4 if edge == "below" else base + size + edge
    source = f"addi r1, r0, 7\nli r10, {address & 0xFFFF_FFFF:#x}\n"
    program = assemble(f"{source}{access}\nhalt", text_base=base,
                       data_base=base)
    config = (base, size, program.text, CostModel(), [0])
    check_fast(config, 100)
    check_ticked(config)
