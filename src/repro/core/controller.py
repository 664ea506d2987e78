"""The Ouessant controller.

"Ouessant controller is responsible for instruction decoding and actual
control of data transfer and coprocessor operations based on provided
microcode.  It is based on a classical unpipelined
Fetch/Decode/Execute microcontroller architecture.  It roughly consists
of a Finite State Machine to control execution, and of registers to
store the state it is in."  (Section III-D)

This class is that FSM, cycle by cycle:

* **fetch**: microcode is read from memory bank 0 over the bus.  By
  default the whole program is prefetched into an instruction buffer
  with one burst when ``S`` is set (the behaviour that yields the
  paper's ~1.5 cycles/word overall efficiency); per-instruction
  fetching is available for the ablation study.
* **decode**: one cycle.
* **execute**: transfer instructions drive the interface's master
  engine in FIFO-paced chunks; ``exec`` waits on the RAC's ``end_op``;
  the extension instructions manipulate the loop/offset registers.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from ..bus.types import BusTransfer
from ..rac.base import RAC
from ..rac.fifo import FIFO
from ..sim.errors import ControllerError, EncodingError, FIFOError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from .encoding import decode
from .interface import OuessantInterface
from .isa import FIFODirection, OuInstruction, OuOp
from .perf import PerfCounterBlock
from .registers import ERR_BUS, ERR_FIFO, ERR_ILLEGAL_OP, ERR_WATCHDOG
from .registers import PROGRAM_BANK


class _State(enum.Enum):
    """FSM states; each one that ticks charges ``cycles.<value>``.

    A ticking state's ``step`` and ``claim`` are its entries in the
    controller's dispatch table (:data:`_TABLE`): the controller method
    its tick runs and the one that answers ``next_activity``.  A parked
    state has neither.
    """

    IDLE = "idle"
    PREFETCH = "prefetch"
    FETCH = "fetch"
    DECODE = "decode"
    XFER_TO = "xfer_to"
    XFER_FROM = "xfer_from"
    EXEC_WAIT = "exec_wait"
    WAITING = "waiting"
    WAITF = "waitf"
    HALTED = "halted"
    ERROR = "error"

    def __init__(self, value: str) -> None:
        #: the state's cycle statistic, None for a parked state (an
        #: attribute, because a plain Enum hashes in Python)
        self.cycle_key: Optional[str] = (
            None if value in ("idle", "halted", "error")
            else f"cycles.{value}")
        self.step: Optional[Callable[["OuessantController"], None]] = None
        self.claim: Optional[
            Callable[["OuessantController"], Optional[int]]] = None


#: the states that never tick
_PARKED = tuple(state for state in _State if state.cycle_key is None)

#: the states that tick, each charged to ``cycles.<state>``
ACTIVE_STATES = tuple(s.value for s in _State if s not in _PARKED)

#: the waveform code of every state: 1.. in ``ACTIVE_STATES`` order,
#: 0 for a parked one
STATE_CODES: Dict[str, int] = {s.value: 0 for s in _PARKED}
STATE_CODES.update(zip(ACTIVE_STATES, range(1, len(ACTIVE_STATES) + 1)))

#: the ``instr.<mnemonic>`` statistic of each opcode
_INSTR_KEYS = {op: f"instr.{op.name.lower()}" for op in OuOp}


#: The FSM's timing contract in cycles, read by :mod:`repro.perfbound`
#: and pinned by ``tests/test_timing_contract.py``.  A bus transaction
#: holds its requester for the bus occupancy plus the tick submitting
#: it (the bus grants from the next cycle) and the one consuming it.
SUBMIT_CYCLES = 1
CONSUME_CYCLES = 1
#: FETCH from the instruction buffer, and the DECODE that executes
FETCH_CYCLES = 1
DECODE_CYCLES = 1
#: words of the bus fetch that replaces FETCH past the buffer
FETCH_BEATS = 1
#: EXEC_WAIT spans the RAC op's ticks after the DECODE that pulsed
#: ``start_op`` (the RAC ticks after the controller) and the tick that
#: sees ``end_op``
END_OP_CYCLES = 1


def drain_chunk(remaining: int, max_burst: int, depth: int) -> int:
    """Words the next ``mvfc`` chunk drains: what is left, capped by
    the longest bus burst and by the FIFO depth."""
    return min(remaining, max_burst, depth)


#: microcode words :func:`_decode_defined` remembers; a program is at
#: most ``ibuf_size`` words, and a stream reuses a few programs
DECODE_MEMO_SIZE = 4096


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def _decode_defined(word: int) -> Optional[OuInstruction]:
    """Decode one microcode word, or None if its opcode is undefined.

    Memoized per word: an :class:`OuInstruction` is frozen, so every
    prefetch of a word may share one decode of it.
    """
    try:
        return decode(word)
    except EncodingError:
        return None


class OuessantController(Component):
    """Fetch/decode/execute FSM of the OCP.

    Parameters
    ----------
    interface:
        The :class:`OuessantInterface` providing registers, address
        translation and the bus master engine.
    prefetch:
        Fetch the whole program in one burst at start (default True).
    ibuf_size:
        Instruction-buffer capacity in instructions; programs longer
        than this fall back to per-instruction fetch past the buffer.
    watchdog_cycles:
        Abort a hung ``exec`` after this many consecutive cycles in
        EXEC_WAIT (0 disables the watchdog, the paper's behaviour).
        The trap latches ``ERR_WATCHDOG`` in the control register.
    """

    def __init__(
        self,
        name: str = "ocp.ctrl",
        interface: Optional[OuessantInterface] = None,
        prefetch: bool = True,
        ibuf_size: int = 128,
        watchdog_cycles: int = 0,
    ) -> None:
        super().__init__(name)
        if interface is None:
            raise ControllerError("controller needs an interface")
        if ibuf_size < 1:
            raise ControllerError("ibuf_size must be >= 1")
        if watchdog_cycles < 0:
            raise ControllerError("watchdog_cycles must be >= 0")
        self.interface = interface
        self.prefetch = prefetch
        self.ibuf_size = ibuf_size
        self.watchdog_cycles = watchdog_cycles
        self.rac: Optional[RAC] = None
        self.fifos_in: List[FIFO] = []
        self.fifos_out: List[FIFO] = []
        self._stats = Stats()
        self._state = _State.IDLE
        #: the first cycle charged to the current state (the exec
        #: watchdog counts EXEC_WAIT cycles from it)
        self._entered = 0
        self._clear_program()
        # transfer engine state
        self._xfer_bank = 0
        self._xfer_offset = 0
        self._xfer_remaining = 0
        self._xfer_fifo = 0
        #: the ``mvfc`` chunk the engine waits for, set wherever
        #: ``_xfer_remaining`` changes
        self._xfer_chunk = 0
        #: the bus protocol's longest burst, read at registration
        self._max_burst = 1
        # extension registers
        self._resume_at = 0
        self._loop_count = 0
        self._loop_body = 0
        #: runs started (S set) since power-on or the last reset
        self.runs_started = 0
        #: hardware performance counters, readable through the slave
        #: window after the configuration registers
        self.perf = PerfCounterBlock(self)
        self.interface.perf = self.perf
        # hook into the register file's S bit
        self.interface.registers.on_start = self._on_start
        self.interface.registers.on_stop = self._on_stop

    # -- wiring ------------------------------------------------------------
    def attach(self, sim) -> None:
        super().attach(sim)
        # matching the protocol's maximum burst keeps outbound
        # cycles/word near the paper's 1.5 while bounding FIFO latency
        bus = self.interface.bus
        if bus is not None:
            self._max_burst = bus.protocol.max_burst_beats

    def bind_fabric(
        self, fifos_in: List[FIFO], fifos_out: List[FIFO], rac: RAC
    ) -> None:
        """Attach the FIFO fabric and accelerator (done by the OCP)."""
        self.fifos_in = list(fifos_in)
        self.fifos_out = list(fifos_out)
        self.rac = rac
        # the controller's quiescence claims are conditioned on FIFO
        # occupancy and the RAC's end_op: re-poll whenever they change
        for fifo in self.fifos_in:
            fifo.watch(self)
        for fifo in self.fifos_out:
            fifo.watch(self)
        rac.watch(self)

    # -- control ------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state.value

    @property
    def stats(self) -> Stats:
        """Statistics as of now, the cycle intervals still open
        included."""
        return self._stats.at(self.now)

    @property
    def running(self) -> bool:
        return self._state not in _PARKED

    @property
    def halted(self) -> bool:
        return self._state is _State.HALTED

    @property
    def errored(self) -> bool:
        return self._state is _State.ERROR

    def _phase(self, at: int, old: _State) -> None:
        """Cross a state-machine boundary from state ``old``.

        ``at`` is the first cycle charged to the new state (the
        *boundary*): transitions taken inside :meth:`tick` at cycle C
        take effect at C+1 (the current tick already charged the old
        state), while external CTRL-write transitions take effect at C
        (the bus ticks before the controller, so the new state is
        charged from the very same cycle).  The old state's
        ``cycles.<state>`` interval closes here and the new one's
        opens; the boundary is also traced for span reconstruction.
        """
        state = self._state
        if old.cycle_key is not None:
            self._stats.stop(old.cycle_key, at)
        if state.cycle_key is not None:
            self._stats.start(state.cycle_key, at)
        self._entered = at
        if self.sim is not None and self.sim.trace is not None:
            self.trace_quiet("phase", state=state.value, at=at)

    def _flush_stall(self, at: int) -> None:
        """End the FIFO-stall interval (if one is open) at ``at``.

        Its cycles are charged to ``cycles.fifo_stall`` and emitted as
        one aggregated ``stall`` event covering ``[at - cycles, at)``:
        one event per run (not per cycle) keeps declared-idle windows
        event-free, as the quiescence protocol requires.
        """
        cycles = self._stats.stop("cycles.fifo_stall", at)
        if cycles:
            self.trace_quiet("stall", cycles=cycles, at=at)

    def _open_stall(self) -> None:
        """The transfer engine has no bus transfer in flight from the
        next cycle on: every cycle until it issues one is a FIFO stall
        (an unstalled engine issues at once, closing the interval
        empty)."""
        self._stats.start("cycles.fifo_stall", self.sim.cycle + 1)

    def _on_start(self) -> None:
        if self.interface.registers.prog_size < 1:
            raise ControllerError("S set with PROG_SIZE == 0")
        old = self._state
        self._clear_program()
        # a restart drops the open stall run's event, not its cycles
        self._stats.stop("cycles.fifo_stall", self.now)
        self._state = _State.PREFETCH if self.prefetch else _State.FETCH
        self.perf.clear()
        self.runs_started += 1
        self.trace_event("start", prog_size=self.interface.registers.prog_size)
        self._phase(at=self.now, old=old)
        self.poke()

    def _on_stop(self) -> None:
        # clearing S is also the recovery path: abort whatever run is
        # in flight (hung exec, trapped state, ...) back to IDLE so the
        # driver can retry.  An in-flight bus transfer simply completes
        # with nobody waiting on its handle.
        old = self._state
        if old is _State.IDLE:
            return
        if old not in (_State.HALTED, _State.ERROR):
            self.trace_event("abort", state=old.value, pc=self._pc)
        self._park(_State.IDLE)
        self._phase(at=self.now, old=old)
        self.poke()

    def _park(self, state: _State) -> None:
        """Leave the run for parked ``state``: close the stall run,
        disarm the FIFO watches, drop the instruction and transfer."""
        self._flush_stall(at=self.now)
        for fifo in self.fifos_in:
            fifo.set_free_watch(None)
        for fifo in self.fifos_out:
            fifo.set_occ_watch(None)
        self._state = state
        self._pending = None
        self._instr = None
        self._loop_active = False

    def _clear_program(self) -> None:
        """Forget the program: pc 0, no buffered words, no loop or
        offset, nothing in flight."""
        self._pc = 0
        self._ibuf: List[int] = []
        #: ``_ibuf`` decoded once at prefetch (None: undefined word)
        self._decoded: List[Optional[OuInstruction]] = []
        self._pending: Optional[BusTransfer] = None
        self._instr: Optional[OuInstruction] = None
        self._loop_active = False
        self._ofr = 0

    def reset(self) -> None:
        self._state = _State.IDLE
        self._clear_program()
        self._stats = Stats()
        self.runs_started = 0
        self.perf.clear()

    # -- traps ---------------------------------------------------------------
    def _trap(self, code: int, reason: str) -> None:
        """Abort the run: latch the error in CTRL and park in ERROR.

        The ERROR state is left by writing CTRL (clearing S aborts,
        setting S starts a fresh run which clears E and the code).
        """
        self._park(_State.ERROR)
        self._stats.counts["traps"] += 1
        self.trace_event("trap", code=code, reason=reason, pc=self._pc)
        self.interface.signal_error(code)

    # -- per-cycle behaviour ----------------------------------------------
    def tick(self) -> None:
        state = self._state
        step = state.step
        if step is None:  # parked
            return
        step(self)
        if self._state is not state:
            # internal transition: the new state is charged from the
            # next cycle (this tick already charged the old one)
            self._phase(at=self.sim.cycle + 1, old=state)

    def _tick_exec_wait(self) -> None:
        if self.rac is not None and self.rac.end_op:
            self._state = _State.FETCH
        elif self.watchdog_cycles > 0:
            # consecutive EXEC_WAIT cycles, this one included
            hung = self.sim.cycle + 1 - self._entered
            if hung >= self.watchdog_cycles:
                self._trap(ERR_WATCHDOG, f"exec hung for {hung} cycles")

    def _tick_waiting(self) -> None:
        if self.sim.cycle >= self._resume_at:
            self._state = _State.FETCH

    def _tick_waitf(self) -> None:
        if self._waitf_satisfied():
            self._waitf_watch(None)
            self._state = _State.FETCH

    # -- quiescence protocol --------------------------------------------------
    def next_activity(self):
        """Declare idleness for the stall-shaped FSM states.

        The controller is data-driven in most states (waiting on a bus
        transfer, on FIFO occupancy, on the RAC's ``end_op``): those
        conditions only change when *another* component ticks, so the
        controller may declare indefinite idleness and rely on the
        global quiescence rule.  Self-timed waits (``wait`` imm, the
        exec watchdog) declare their expiry cycle instead.  The
        state's ``claim`` answers; a parked state is idle.
        """
        claim = self._state.claim
        return None if claim is None else claim(self)

    def _claim_due(self) -> int:
        return self.sim.cycle  # DECODE: always active

    def _claim_fetch(self) -> Optional[int]:
        pending = self._pending
        if pending is not None and not pending.done:
            return None  # the bus completion wakes us
        return self.sim.cycle

    def _claim_xfer_to(self) -> Optional[int]:
        if self._pending is not None:
            return self.sim.cycle if self._pending.done else None
        fifo = self.fifos_in[self._xfer_fifo]
        stalled = fifo.free_push_words < 1
        # under idle skipping the stalled tick branch (which arms the
        # watch on the naive path) never runs: declare the resume
        # threshold here so a hot-mode batch on the other side of the
        # FIFO stops at the crossing cycle
        fifo.set_free_watch(1 if stalled else None)
        return None if stalled else self.sim.cycle

    def _claim_xfer_from(self) -> Optional[int]:
        if self._pending is not None:
            return self.sim.cycle if self._pending.done else None
        fifo = self.fifos_out[self._xfer_fifo]
        chunk = self._xfer_chunk
        stalled = fifo.occupancy < chunk
        fifo.set_occ_watch(chunk if stalled else None)
        return None if stalled else self.sim.cycle

    def _claim_exec_wait(self) -> Optional[int]:
        if self.rac is not None and self.rac.end_op:
            return self.sim.cycle
        if self.watchdog_cycles > 0:
            # the trap fires on the watchdog_cycles-th EXEC_WAIT tick
            return self._entered + self.watchdog_cycles - 1
        return None

    def _claim_waiting(self) -> int:
        return self._resume_at

    def _claim_waitf(self) -> Optional[int]:
        return self.sim.cycle if self._waitf_satisfied() else None

    # -- fetch path ---------------------------------------------------------
    def _read_program(
        self, offset: int, words: int, what: str
    ) -> Optional[List[int]]:
        """Read microcode over the bus, one tick at a time: submit the
        read, then return its words on the tick that consumes it (None
        before, and on a bus error, which traps)."""
        pending = self._pending
        if pending is None:
            self._pending = self.interface.submit_read(
                PROGRAM_BANK, offset, words, waiter=self)
            return None
        if not pending.done:
            return None
        if pending.error:
            self._trap(ERR_BUS, f"{what}: {pending.error_reason}")
            return None
        self._pending = None
        return pending.data

    def _tick_prefetch(self) -> None:
        words = self._read_program(
            0, min(self.interface.registers.prog_size, self.ibuf_size),
            "microcode prefetch")
        if words is not None:
            self._ibuf = list(words)
            # decode once; an undefined word still traps at the fetch
            # that reaches it
            self._decoded = [_decode_defined(word) for word in self._ibuf]
            self._state = _State.FETCH

    def _decode_or_trap(self, word: int) -> Optional[OuInstruction]:
        """Decode one microcode word; undefined opcodes trap."""
        try:
            return decode(word)
        except EncodingError as exc:
            self._trap(ERR_ILLEGAL_OP, f"pc={self._pc}: {exc}")
            return None

    def _tick_fetch(self) -> None:
        pc = self._pc
        prog_size = self.interface.registers.prog_size
        if pc >= prog_size:
            raise ControllerError(
                f"PC {pc} ran past PROG_SIZE {prog_size} "
                "(missing eop/halt?)"
            )
        if pc < len(self._ibuf):
            instr = self._decoded[pc] or self._decode_or_trap(self._ibuf[pc])
        else:
            # slow path: fetch the instruction word over the bus
            words = self._read_program(pc, FETCH_BEATS, f"fetch pc={pc}")
            instr = None if words is None else self._decode_or_trap(words[0])
        if instr is not None:
            self._instr = instr
            self._pc = pc + 1
            self._state = _State.DECODE

    def _tick_decode(self) -> None:
        instr = self._instr
        if instr is None:  # pragma: no cover - fetch always latches one
            raise ControllerError("decode without fetched instruction")
        counts = self._stats.counts
        counts["instructions"] += 1
        counts[_INSTR_KEYS[instr.op]] += 1
        if self.sim.trace is not None:
            self.trace_quiet("instr", pc=self._pc - 1,
                             mnemonic=instr.mnemonic())
        self._execute(instr)

    # -- execute -------------------------------------------------------------
    def _execute(self, instr: OuInstruction) -> None:
        # an instruction fetches the next one unless it goes elsewhere
        self._state = _State.FETCH
        op = instr.op
        if op in (OuOp.MVTC, OuOp.MVTCX, OuOp.MVFC, OuOp.MVFCX):
            self._begin_transfer(instr)
        elif op is OuOp.EXEC or op is OuOp.EXECS:
            if self.rac is None:
                raise ControllerError("exec with no RAC bound")
            self.rac.start_op()
            if op is OuOp.EXEC:
                self._state = _State.EXEC_WAIT
        elif op is OuOp.EOP:
            self.interface.signal_done()
            self._state = _State.HALTED
            self.trace_event("eop", pc=self._pc)
        elif op is OuOp.WAIT:
            if instr.imm:
                # WAITING ticks imm times; the last one resumes
                self._resume_at = self.sim.cycle + instr.imm
                self._state = _State.WAITING
        elif op is OuOp.WAITF:
            self._instr = instr
            self._state = _State.WAITF
            self._waitf_watch(instr.count)
        elif op is OuOp.JMP:
            if instr.imm >= self.interface.registers.prog_size:
                raise ControllerError(
                    f"jmp target {instr.imm} outside program"
                )
            self._pc = instr.imm
        elif op is OuOp.LOOP:
            if self._loop_active:
                raise ControllerError("nested loop: single-level only")
            self._loop_active = True
            self._loop_count = instr.imm
            self._loop_body = self._pc
        elif op is OuOp.ENDL:
            if not self._loop_active:
                raise ControllerError("endl without loop")
            self._loop_count -= 1
            if self._loop_count > 0:
                self._pc = self._loop_body
            else:
                self._loop_active = False
        elif op is OuOp.ADDOFR:
            self._ofr += instr.imm
        elif op is OuOp.CLROFR:
            self._ofr = 0
        elif op is OuOp.IRQ:
            self.interface.signal_irq()
        elif op is OuOp.HALT:
            self._state = _State.HALTED
        # nop fetches on; so does sync: the transfer engine is
        # synchronous per instruction, so its barrier already holds
        elif op is not OuOp.NOP and op is not OuOp.SYNC:  # pragma: no cover
            raise ControllerError(f"unimplemented opcode {op}")

    # -- transfer engine ------------------------------------------------------
    def _begin_transfer(self, instr: OuInstruction) -> None:
        offset = instr.offset
        if instr.op in (OuOp.MVTCX, OuOp.MVFCX):
            offset += self._ofr
        fifos = (
            self.fifos_in
            if instr.to_coprocessor()
            else self.fifos_out
        )
        if instr.fifo >= len(fifos):
            raise ControllerError(
                f"{instr.mnemonic()} addresses FIFO{instr.fifo} but the "
                f"RAC provides {len(fifos)}"
            )
        self._xfer_bank = instr.bank
        self._xfer_offset = offset
        self._xfer_remaining = instr.count
        self._xfer_fifo = instr.fifo
        # validate the whole window now (hardware would fault mid-burst)
        self.interface.translate(instr.bank, offset, instr.count)
        if instr.to_coprocessor():
            self._state = _State.XFER_TO
        else:
            self._state = _State.XFER_FROM
            self._xfer_chunk = drain_chunk(
                instr.count, self._max_burst, fifos[instr.fifo].depth)
        self._open_stall()

    def _tick_xfer_to(self) -> None:
        fifo = self.fifos_in[self._xfer_fifo]
        if self._pending is not None:
            if not self._pending.done:
                return
            if self._pending.error:
                self._trap(
                    ERR_BUS,
                    f"mvtc read: {self._pending.error_reason}",
                )
                return
            data = self._pending.data
            self._pending = None
            try:
                fifo.push_many(data)
            except FIFOError as exc:
                self._trap(ERR_FIFO, f"mvtc push: {exc}")
                return
            self._stats.counts["words_to_rac"] += len(data)
            if self._xfer_remaining == 0:
                self._state = _State.FETCH
            else:
                self._open_stall()
            return
        chunk = self._xfer_remaining
        if fifo.free_push_words < chunk:
            chunk = fifo.free_push_words
        if chunk < 1:
            # bound any consumer-side batch at the cycle one word frees
            fifo.set_free_watch(1)
            return
        self._flush_stall(at=self.sim.cycle)
        fifo.set_free_watch(None)
        self._pending = self.interface.submit_read(
            self._xfer_bank, self._xfer_offset, chunk, waiter=self
        )
        self._xfer_offset += chunk
        self._xfer_remaining -= chunk

    def _tick_xfer_from(self) -> None:
        fifo = self.fifos_out[self._xfer_fifo]
        if self._pending is not None:
            if not self._pending.done:
                return
            if self._pending.error:
                self._trap(
                    ERR_BUS,
                    f"mvfc write: {self._pending.error_reason}",
                )
                return
            self._pending = None
            if self._xfer_remaining == 0:
                self._state = _State.FETCH
            else:
                self._open_stall()
            return
        chunk = self._xfer_chunk
        if fifo.occupancy < chunk:
            # bound any producer-side batch at the cycle the chunk fills
            fifo.set_occ_watch(chunk)
            return
        self._flush_stall(at=self.sim.cycle)
        fifo.set_occ_watch(None)
        try:
            data = fifo.pop_many(chunk)
        except FIFOError as exc:
            self._trap(ERR_FIFO, f"mvfc pop: {exc}")
            return
        self._stats.counts["words_from_rac"] += len(data)
        self._pending = self.interface.submit_write(
            self._xfer_bank, self._xfer_offset, data, waiter=self
        )
        self._xfer_offset += chunk
        self._xfer_remaining -= chunk
        self._xfer_chunk = drain_chunk(
            self._xfer_remaining, self._max_burst, fifo.depth)

    # -- waitf ---------------------------------------------------------------
    def _waitf_watch(self, words: Optional[int]) -> None:
        """Bound batches at the cycle the waited-on threshold of
        ``waitf`` crosses (``words``), or stop bounding them (None)."""
        instr = self._instr
        if instr.direction is FIFODirection.INPUT:
            if instr.fifo < len(self.fifos_in):
                self.fifos_in[instr.fifo].set_free_watch(words)
        elif instr.fifo < len(self.fifos_out):
            self.fifos_out[instr.fifo].set_occ_watch(words)

    def _waitf_satisfied(self) -> bool:
        instr = self._instr
        if instr is None:  # pragma: no cover
            return True
        if instr.direction is FIFODirection.INPUT:
            fifos = self.fifos_in
            if instr.fifo >= len(fifos):
                raise ControllerError(f"waitf: no input FIFO{instr.fifo}")
            return fifos[instr.fifo].free_push_words >= instr.count
        fifos = self.fifos_out
        if instr.fifo >= len(fifos):
            raise ControllerError(f"waitf: no output FIFO{instr.fifo}")
        return fifos[instr.fifo].occupancy >= instr.count


#: the controller's dispatch table: each ticking state's tick step and
#: quiescence claim, kept on the state itself (a dict keyed by a plain
#: Enum would hash in Python on every event)
_TABLE = {
    _State.PREFETCH: (OuessantController._tick_prefetch,
                      OuessantController._claim_fetch),
    _State.FETCH: (OuessantController._tick_fetch,
                   OuessantController._claim_fetch),
    _State.DECODE: (OuessantController._tick_decode,
                    OuessantController._claim_due),
    _State.XFER_TO: (OuessantController._tick_xfer_to,
                     OuessantController._claim_xfer_to),
    _State.XFER_FROM: (OuessantController._tick_xfer_from,
                       OuessantController._claim_xfer_from),
    _State.EXEC_WAIT: (OuessantController._tick_exec_wait,
                       OuessantController._claim_exec_wait),
    _State.WAITING: (OuessantController._tick_waiting,
                     OuessantController._claim_waiting),
    _State.WAITF: (OuessantController._tick_waitf,
                   OuessantController._claim_waitf),
}
for _state, _entry in _TABLE.items():
    _state.step, _state.claim = _entry
