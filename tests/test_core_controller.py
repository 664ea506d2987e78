"""Controller + coprocessor integration tests (microcode end-to-end)."""

import pytest

from repro.core.program import OuProgram, figure4_looped_program, figure4_program
from repro.core.registers import CTRL_IE, CTRL_S, REG_CTRL, REG_PROG_SIZE, REG_BANK_BASE
from repro.rac.dft import DFTRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ControllerError, DeadlockError
from repro.system import RAM_BASE, SoC
from repro.utils import fixedpoint as fp

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000
TAPS = RAM_BASE + 0x4000


def boot(soc, program, banks):
    """Configure registers directly (zero-cycle) and set S."""
    ocp = soc.ocp
    soc.write_ram(PROG, program.words())
    ocp.start({0: PROG, **banks}, len(program))
    return ocp


def run_to_done(soc, max_cycles=200_000):
    return soc.sim.run_until(lambda: soc.ocp.done, max_cycles=max_cycles,
                             what="OCP done")


def simple_program(n=16):
    return (OuProgram().stream_to(1, n).execs()
            .stream_from(2, n).eop())


def test_basic_loopback_program(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(100, 116)))
    boot(soc, simple_program(), {1: IN, 2: OUT})
    run_to_done(soc)
    assert soc.read_ram(OUT, 16) == list(range(100, 116))
    assert soc.ocp.irq.pending  # IE was set


def test_eop_without_ie_does_not_interrupt(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    ocp = soc.ocp
    soc.write_ram(PROG, simple_program().words())
    for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
        ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
    ocp.interface.write_word(REG_PROG_SIZE, len(simple_program()))
    ocp.interface.write_word(REG_CTRL, CTRL_S)  # no IE
    run_to_done(soc)
    assert not ocp.irq.pending


def test_figure4_dft_end_to_end(q15_signal):
    n = 256
    soc = SoC(racs=[DFTRac(n_points=n)])
    re, im = q15_signal(n)
    soc.write_ram(IN, fp.interleave_complex(re, im))
    boot(soc, figure4_program(n), {1: IN, 2: OUT})
    cycles = run_to_done(soc)
    out_re, out_im = fp.deinterleave_complex(soc.read_ram(OUT, 2 * n))
    assert (out_re, out_im) == fp.fft_q15(re, im)
    # the paper's baremetal in-text measurement: ~4000 cycles
    assert 3000 <= cycles <= 5000


def test_looped_program_equivalent_to_unrolled(q15_signal):
    n = 64
    re, im = q15_signal(n)
    results = []
    for program in (figure4_program(n), figure4_looped_program(n)):
        soc = SoC(racs=[DFTRac(n_points=n)])
        soc.write_ram(IN, fp.interleave_complex(re, im))
        boot(soc, program, {1: IN, 2: OUT})
        run_to_done(soc)
        results.append(soc.read_ram(OUT, 2 * n))
    assert results[0] == results[1]


def test_exec_blocking_waits_for_end_op():
    # exec (blocking) then mvfc: works even without autostart overlap
    soc = SoC(racs=[PassthroughRac(block_size=8, compute_latency=50)])
    soc.write_ram(IN, list(range(8)))
    program = (OuProgram().stream_to(1, 8).exec_()
               .stream_from(2, 8).eop())
    boot(soc, program, {1: IN, 2: OUT})
    run_to_done(soc)
    assert soc.read_ram(OUT, 8) == list(range(8))


def test_wait_instruction_adds_cycles(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    base_prog = simple_program()
    boot(soc, base_prog, {1: IN, 2: OUT})
    base_cycles = run_to_done(soc)

    soc2 = SoC(racs=[PassthroughRac(block_size=16)])
    soc2.write_ram(IN, list(range(16)))
    slow_prog = (OuProgram().wait(500).stream_to(1, 16).execs()
                 .stream_from(2, 16).eop())
    boot(soc2, slow_prog, {1: IN, 2: OUT})
    slow_cycles = soc2.sim.run_until(lambda: soc2.ocp.done, max_cycles=100_000)
    assert slow_cycles - base_cycles == pytest.approx(500, abs=20)


def test_waitf_output_level(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    program = (OuProgram().stream_to(1, 16).execs()
               .waitf("out", 0, 16)        # wait until all 16 emitted
               .stream_from(2, 16).eop())
    boot(soc, program, {1: IN, 2: OUT})
    run_to_done(soc)
    assert soc.read_ram(OUT, 16) == list(range(16))


def test_irq_instruction_interrupts_without_ending():
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    soc.write_ram(IN, list(range(16)))
    program = (OuProgram().irq().wait(50).stream_to(1, 16).execs()
               .stream_from(2, 16).eop())
    ocp = boot(soc, program, {1: IN, 2: OUT})
    soc.sim.run_until(lambda: ocp.irq.pending, max_cycles=1000)
    assert not ocp.done  # interrupted but still running
    ocp.irq.clear()
    run_to_done(soc)


def test_halt_stops_without_done(soc_passthrough):
    soc = soc_passthrough
    program = OuProgram().nop().halt()
    ocp = boot(soc, program, {})
    soc.sim.step(200)
    assert ocp.controller.halted
    assert not ocp.done
    assert not ocp.irq.pending


def test_sync_and_nop_are_neutral(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    program = (OuProgram().nop().sync().stream_to(1, 16).execs()
               .stream_from(2, 16).sync().eop())
    boot(soc, program, {1: IN, 2: OUT})
    run_to_done(soc)
    assert soc.read_ram(OUT, 16) == list(range(16))


def test_offset_register_indexed_transfers():
    soc = SoC(racs=[PassthroughRac(block_size=8)])
    soc.write_ram(IN, list(range(8)))
    # use mvtcx with OFR = 4 to read the upper half first
    program = (
        OuProgram()
        .addofr(4)
        .mvtcx(1, 0, 4)       # words 4..7
        .clrofr()
        .mvtcx(1, 0, 4)       # words 0..3
        .execs()
        .stream_from(2, 8)
        .eop()
    )
    boot(soc, program, {1: IN, 2: OUT})
    run_to_done(soc)
    assert soc.read_ram(OUT, 8) == [4, 5, 6, 7, 0, 1, 2, 3]


def test_jmp_skips_instructions(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    program = (
        OuProgram()
        .jmp(2)                      # skip the wait
        .wait(10_000)
        .stream_to(1, 16).execs().stream_from(2, 16).eop()
    )
    boot(soc, program, {1: IN, 2: OUT})
    cycles = run_to_done(soc, max_cycles=5_000)
    assert cycles < 2_000


def test_nested_loop_rejected(soc_passthrough):
    soc = soc_passthrough
    program = (OuProgram().loop(2).loop(2).nop().endl().endl().eop())
    boot(soc, program, {})
    with pytest.raises(ControllerError):
        soc.sim.step(100)


def test_endl_without_loop_rejected(soc_passthrough):
    soc = soc_passthrough
    program = OuProgram().endl().eop()
    boot(soc, program, {})
    with pytest.raises(ControllerError):
        soc.sim.step(100)


def test_jmp_out_of_program_rejected(soc_passthrough):
    soc = soc_passthrough
    program = OuProgram().jmp(100).eop()
    boot(soc, program, {})
    with pytest.raises(ControllerError):
        soc.sim.step(100)


def test_missing_eop_runs_off_the_end(soc_passthrough):
    soc = soc_passthrough
    program = OuProgram().nop().nop()
    boot(soc, program, {})
    with pytest.raises(ControllerError):
        soc.sim.step(200)


def test_unconfigured_bank_faults(soc_passthrough):
    soc = soc_passthrough
    program = OuProgram().stream_to(5, 4).eop()  # bank 5 never set
    boot(soc, program, {})
    with pytest.raises(ControllerError):
        soc.sim.step(200)


def test_invalid_fifo_index_faults(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, [0] * 4)
    program = OuProgram().mvtc(1, 0, 4, fifo=3).eop()
    boot(soc, program, {1: IN})
    with pytest.raises(ControllerError):
        soc.sim.step(200)


def test_start_with_zero_prog_size_faults(soc_passthrough):
    ocp = soc_passthrough.ocp
    with pytest.raises(ControllerError):
        ocp.interface.write_word(REG_CTRL, CTRL_S)


def test_fifo_overfill_deadlocks_without_autostart():
    # Figure 4 pattern needs the RAC to drain while mvtc streams; with
    # a non-autostart RAC and more data than FIFO depth, the transfer
    # engine stalls forever -- a real hardware property.
    rac = PassthroughRac(block_size=128, fifo_depth=64, autostart=False)
    soc = SoC(racs=[rac])
    soc.write_ram(IN, list(range(128)))
    program = (OuProgram().stream_to(1, 128).exec_()
               .stream_from(2, 128).eop())
    boot(soc, program, {1: IN, 2: OUT})
    with pytest.raises(DeadlockError):
        run_to_done(soc, max_cycles=20_000)


def test_prefetch_faster_than_percycle_fetch(q15_signal):
    n = 64
    re, im = q15_signal(n)
    cycles = {}
    for prefetch in (True, False):
        soc = SoC(racs=[DFTRac(n_points=n)], prefetch=prefetch)
        soc.write_ram(IN, fp.interleave_complex(re, im))
        boot(soc, figure4_program(n), {1: IN, 2: OUT})
        cycles[prefetch] = run_to_done(soc)
    assert cycles[True] < cycles[False]


def test_controller_stats_collected(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    boot(soc, simple_program(), {1: IN, 2: OUT})
    run_to_done(soc)
    stats = soc.ocp.controller.stats
    assert stats["instructions"] == len(simple_program())
    assert stats["instr.mvtc"] == 1
    assert stats["words_to_rac"] == 16
    assert stats["words_from_rac"] == 16


def test_restart_after_completion(soc_passthrough):
    soc = soc_passthrough
    soc.write_ram(IN, list(range(16)))
    ocp = boot(soc, simple_program(), {1: IN, 2: OUT})
    run_to_done(soc)
    ocp.irq.clear()
    # release and re-arm with new input
    ocp.interface.write_word(REG_CTRL, 0)
    soc.write_ram(IN, list(range(50, 66)))
    ocp.interface.write_word(REG_CTRL, CTRL_S)
    soc.sim.run_until(lambda: ocp.done, max_cycles=100_000)
    assert soc.read_ram(OUT, 16) == list(range(50, 66))


def test_every_state_is_parked_or_has_a_dispatch_entry():
    """``tick`` dispatches on each state's table entry: a state the
    table missed would silently never tick."""
    from repro.core.controller import (_PARKED, _TABLE, OuessantController,
                                       _State)

    for state in _State:
        if state in _PARKED:
            assert state.step is None
            assert state not in _TABLE
        else:
            assert state.step == _TABLE[state]
            assert getattr(OuessantController,
                           state.step.__name__) is state.step


def test_prefetch_decode_memo_still_traps_undefined_words():
    """Prefetch decodes through a bounded per-word memo.  A clean
    program runs; a program whose instruction buffer holds an undefined
    opcode traps ERR_ILLEGAL_OP at the fetch that reaches the word (not
    at the prefetch), every time it is run, memo hit or not."""
    from repro.core.controller import DECODE_MEMO_SIZE, _decode_defined
    from repro.core.registers import ERR_ILLEGAL_OP
    from repro.sim.tracing import Trace

    undefined = 0x15 << 27  # opcode 0x15 is outside the defined set
    soc = SoC(racs=[PassthroughRac(block_size=16)], trace=Trace())
    ocp = soc.ocp
    clean = simple_program()
    soc.write_ram(IN, list(range(16)))
    boot(soc, clean, {1: IN, 2: OUT})
    run_to_done(soc)
    assert not ocp.registers.error
    assert soc.read_ram(OUT, 16) == list(range(16))
    words = OuProgram().nop().nop().words() + [undefined] + \
        OuProgram().eop().words()
    for attempt in range(2):
        ocp.interface.write_word(REG_CTRL, 0)
        soc.write_ram(PROG, words)
        ocp.interface.write_word(REG_PROG_SIZE, len(words))
        ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
        run_to_done(soc)
        assert ocp.registers.error
        assert ocp.registers.error_code == ERR_ILLEGAL_OP
        (trap,) = soc.sim.trace.events(event="trap")[attempt:]
        assert trap.data["pc"] == 2, attempt
        # the two nops before it were fetched and executed
        instrs = soc.sim.trace.events(event="instr")
        assert [e.data["mnemonic"] for e in instrs[-2:]] == ["nop", "nop"]
        assert instrs[-1].cycle < trap.cycle
    info = _decode_defined.cache_info()
    assert info.maxsize == DECODE_MEMO_SIZE
    assert info.currsize <= DECODE_MEMO_SIZE
    assert _decode_defined(undefined) is None
