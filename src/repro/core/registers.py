"""The Ouessant configuration register file (Figure 3).

Ten 32-bit registers, mapped at word offsets from the OCP's slave base
address:

======= ============ ==================================================
0x00    CTRL         bit 0 ``S`` (start), bit 1 ``IE`` (interrupt
                     enable), bit 2 ``D`` (done) -- "only 3 bits are
                     used" by the paper; this implementation adds
                     bit 3 ``E`` (error) and bits [7:4] (error code)
                     for the fault-recovery extension (docs/FAULTS.md)
0x04    PROG_SIZE    number of microcode instructions
0x08    BANK0        byte base address of memory bank 0
...     ...
0x24    BANK7        byte base address of memory bank 7
======= ============ ==================================================

By convention of this implementation the microcode itself is fetched
from **bank 0** (the paper stores "the OCP microcode ... in the
memory" and Figure 4 uses banks 1 and 2 for data, leaving bank 0 free
for the program).
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Tuple

from ..sim.errors import ControllerError
from ..utils import bits
from .isa import N_BANKS

CTRL_S = 1 << 0
CTRL_IE = 1 << 1
CTRL_D = 1 << 2
#: error flag: the controller trapped instead of completing normally
CTRL_E = 1 << 3
#: 4-bit error code field, valid while ``E`` is set
ERR_SHIFT = 4
ERR_MASK = 0xF << ERR_SHIFT

#: error codes reported in CTRL[7:4]
ERR_NONE = 0
ERR_ILLEGAL_OP = 1
ERR_BUS = 2
ERR_WATCHDOG = 3
ERR_FIFO = 4

ERROR_NAMES = {
    ERR_NONE: "none",
    ERR_ILLEGAL_OP: "illegal_opcode",
    ERR_BUS: "bus_error",
    ERR_WATCHDOG: "watchdog",
    ERR_FIFO: "fifo_fault",
}

REG_CTRL = 0x00
REG_PROG_SIZE = 0x04
REG_BANK_BASE = 0x08

#: word offset of the microcode bank (implementation convention)
PROGRAM_BANK = 0

N_REGISTERS = 2 + N_BANKS


# -- the command recipe: every master (the driver's bus accesses, the
# scheduler's transfers, OuessantCoprocessor.start's zero-time writes)
# configures, starts, checks and stops an OCP with these -----------------

def config_writes(
    banks: Mapping[int, int], prog_size: int
) -> List[Tuple[int, int]]:
    """``(offset, value)`` writes that configure a run: each bank base
    in bank order, then PROG_SIZE."""
    writes = [(REG_BANK_BASE + 4 * bank, base)
              for bank, base in sorted(banks.items())]
    writes.append((REG_PROG_SIZE, prog_size))
    return writes


def start_word(interrupt: bool) -> int:
    """The CTRL value that starts a run; writing 0 stops it."""
    return CTRL_S | CTRL_IE if interrupt else CTRL_S


def trap_code(ctrl: int) -> Optional[int]:
    """The error code latched in a CTRL word, or None while E is clear."""
    return (ctrl & ERR_MASK) >> ERR_SHIFT if ctrl & CTRL_E else None


def trap_name(code: int) -> str:
    return ERROR_NAMES.get(code, f"code{code}")


class OuessantRegisters:
    """State + access logic of the configuration registers.

    The bus-facing interface delegates its slave reads/writes here;
    the controller reads bank bases and control bits directly.
    """

    def __init__(self) -> None:
        self.ctrl = 0
        self.prog_size = 0
        self.banks: List[int] = [0] * N_BANKS
        #: per bank, whether software has written its base register
        self.configured = [False] * N_BANKS
        self.on_start: Optional[Callable[[], None]] = None
        self.on_stop: Optional[Callable[[], None]] = None

    # -- bit helpers -------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self.ctrl & CTRL_S)

    @property
    def interrupt_enabled(self) -> bool:
        return bool(self.ctrl & CTRL_IE)

    @property
    def done(self) -> bool:
        return bool(self.ctrl & CTRL_D)

    @property
    def error(self) -> bool:
        return bool(self.ctrl & CTRL_E)

    @property
    def error_code(self) -> int:
        """4-bit error code; ``ERR_NONE`` while :attr:`error` is clear."""
        return trap_code(self.ctrl) or ERR_NONE

    @property
    def error_name(self) -> str:
        return trap_name(self.error_code)

    def set_done(self) -> None:
        self.ctrl |= CTRL_D

    def set_error(self, code: int) -> None:
        """Latch E plus the error code (sticky until the next start)."""
        self.ctrl = (self.ctrl & ~ERR_MASK) | CTRL_E | (
            (code & 0xF) << ERR_SHIFT
        )

    # -- bank access -----------------------------------------------------
    def bank_base(self, bank: int) -> int:
        """Byte base address of a bank; raises if never configured."""
        if not 0 <= bank < N_BANKS:
            raise ControllerError(f"bank {bank} out of range")
        if not self.configured[bank]:
            raise ControllerError(
                f"bank {bank} used by microcode but never configured"
            )
        return self.banks[bank]

    def set_bank(self, bank: int, base: int) -> None:
        if not 0 <= bank < N_BANKS:
            raise ControllerError(f"bank {bank} out of range")
        if base % 4:
            raise ControllerError(f"bank base {base:#x} must be word aligned")
        self.banks[bank] = base & bits.WORD_MASK
        self.configured[bank] = True

    def is_configured(self, bank: int) -> bool:
        return 0 <= bank < N_BANKS and self.configured[bank]

    # -- register-file access (byte offsets) -------------------------------
    def read(self, offset: int) -> int:
        if offset == REG_CTRL:
            return self.ctrl
        if offset == REG_PROG_SIZE:
            return self.prog_size
        bank = (offset - REG_BANK_BASE) // 4
        if 0 <= bank < N_BANKS and offset % 4 == 0:
            return self.banks[bank]
        return 0

    def write(self, offset: int, value: int) -> None:
        value &= bits.WORD_MASK
        if offset == REG_CTRL:
            was_started = self.started
            # D, E and the error code are read-only from the bus:
            # writing S clears them (start of a new run), IE is taken
            # as written.
            new_ctrl = value & (CTRL_S | CTRL_IE)
            if value & CTRL_S and not was_started:
                self.ctrl = new_ctrl  # D/E/code cleared on start
                if self.on_start is not None:
                    self.on_start()
            else:
                self.ctrl = new_ctrl | (self.ctrl & (CTRL_D | CTRL_E
                                                     | ERR_MASK))
                if was_started and not (value & CTRL_S):
                    if self.on_stop is not None:
                        self.on_stop()
        elif offset == REG_PROG_SIZE:
            self.prog_size = value
        else:
            bank = (offset - REG_BANK_BASE) // 4
            if 0 <= bank < N_BANKS and offset % 4 == 0:
                self.set_bank(bank, value)

    def reset(self) -> None:
        self.ctrl = 0
        self.prog_size = 0
        self.banks = [0] * N_BANKS
        self.configured = [False] * N_BANKS
