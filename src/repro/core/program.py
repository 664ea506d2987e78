"""Programmatic microcode construction.

:class:`OuProgram` is the Python-level twin of the microcode assembler:
drivers and examples build programs by calling methods instead of
formatting assembly text.  :func:`streaming_program` is the one recipe
of an accelerated call (stream in, start, drain, per operation, over
the canonical bank layout): the firmware planner, the scheduler's
batches, the bench and the paper's canonical programs (the DFT
microcode of Figure 4, and the analogous IDCT program) all emit it, so
every benchmark runs exactly the published microcode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.errors import ConfigurationError
from .assembler import disassemble
from .encoding import encode
from .isa import (
    MAX_OFFSET,
    MAX_TRANSFER_WORDS,
    N_BANKS,
    FIFODirection,
    OuInstruction,
    OuOp,
)
from .registers import PROGRAM_BANK


class OuProgram:
    """A microcode program under construction.

    Every mutator returns ``self`` so programs can be written fluently::

        program = (OuProgram()
                   .mvtc(bank=1, offset=0, count=64)
                   .execs()
                   .mvfc(bank=2, offset=0, count=64)
                   .eop())
    """

    def __init__(self) -> None:
        self._instructions: List[OuInstruction] = []

    @classmethod
    def from_instructions(
        cls, instructions: List[OuInstruction]
    ) -> "OuProgram":
        """Wrap already-built instructions (used by the code generator)."""
        program = cls()
        program._instructions = list(instructions)
        return program

    # -- base instruction set ---------------------------------------------
    def mvtc(
        self, bank: int, offset: int, count: int, fifo: int = 0
    ) -> "OuProgram":
        """Burst ``count`` words from ``bank[offset]`` into FIFO ``fifo``."""
        self._instructions.append(
            OuInstruction(OuOp.MVTC, bank=bank, offset=offset,
                          count=count, fifo=fifo)
        )
        return self

    def mvfc(
        self, bank: int, offset: int, count: int, fifo: int = 0
    ) -> "OuProgram":
        """Burst ``count`` words from FIFO ``fifo`` into ``bank[offset]``."""
        self._instructions.append(
            OuInstruction(OuOp.MVFC, bank=bank, offset=offset,
                          count=count, fifo=fifo)
        )
        return self

    def exec_(self) -> "OuProgram":
        """Start the accelerator and wait for its ``end_op``."""
        self._instructions.append(OuInstruction(OuOp.EXEC))
        return self

    def execs(self) -> "OuProgram":
        """Start the accelerator and continue immediately (Figure 4)."""
        self._instructions.append(OuInstruction(OuOp.EXECS))
        return self

    def eop(self) -> "OuProgram":
        """End of program: set D, interrupt the GPP if IE, halt."""
        self._instructions.append(OuInstruction(OuOp.EOP))
        return self

    # -- extension set ----------------------------------------------------
    def nop(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.NOP))
        return self

    def wait(self, cycles: int) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.WAIT, imm=cycles))
        return self

    def waitf(
        self, direction: str, fifo: int, level: int
    ) -> "OuProgram":
        """Wait until a FIFO level condition holds.

        ``direction='in'``: wait until input FIFO ``fifo`` has at least
        ``level`` free push words; ``'out'``: wait until output FIFO
        ``fifo`` holds at least ``level`` words.
        """
        if direction not in ("in", "out"):
            raise ConfigurationError("waitf direction must be 'in' or 'out'")
        self._instructions.append(
            OuInstruction(
                OuOp.WAITF,
                direction=(FIFODirection.INPUT if direction == "in"
                           else FIFODirection.OUTPUT),
                fifo=fifo,
                count=level,
            )
        )
        return self

    def jmp(self, target: int) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.JMP, imm=target))
        return self

    def loop(self, count: int) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.LOOP, imm=count))
        return self

    def endl(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.ENDL))
        return self

    def mvtcx(
        self, bank: int, offset: int, count: int, fifo: int = 0
    ) -> "OuProgram":
        self._instructions.append(
            OuInstruction(OuOp.MVTCX, bank=bank, offset=offset,
                          count=count, fifo=fifo)
        )
        return self

    def mvfcx(
        self, bank: int, offset: int, count: int, fifo: int = 0
    ) -> "OuProgram":
        self._instructions.append(
            OuInstruction(OuOp.MVFCX, bank=bank, offset=offset,
                          count=count, fifo=fifo)
        )
        return self

    def addofr(self, delta: int) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.ADDOFR, imm=delta))
        return self

    def clrofr(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.CLROFR))
        return self

    def irq(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.IRQ))
        return self

    def sync(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.SYNC))
        return self

    def halt(self) -> "OuProgram":
        self._instructions.append(OuInstruction(OuOp.HALT))
        return self

    # -- bulk helpers ----------------------------------------------------
    def stream_to(
        self, bank: int, total_words: int, fifo: int = 0,
        chunk: int = 64, base_offset: int = 0,
    ) -> "OuProgram":
        """Emit the Figure 4 pattern: chunked ``mvtc`` over a block."""
        self._chunked(OuOp.MVTC, bank, total_words, fifo, chunk, base_offset)
        return self

    def stream_from(
        self, bank: int, total_words: int, fifo: int = 0,
        chunk: int = 64, base_offset: int = 0,
    ) -> "OuProgram":
        """Emit the Figure 4 pattern: chunked ``mvfc`` over a block."""
        self._chunked(OuOp.MVFC, bank, total_words, fifo, chunk, base_offset)
        return self

    def _chunked(
        self, op: OuOp, bank: int, total: int, fifo: int,
        chunk: int, base_offset: int,
    ) -> None:
        if total < 1:
            raise ConfigurationError("nothing to transfer")
        check_chunk(chunk)
        offset = base_offset
        remaining = total
        while remaining > 0:
            take = min(chunk, remaining)
            self._instructions.append(
                OuInstruction(op, bank=bank, offset=offset,
                              count=take, fifo=fifo)
            )
            offset += take
            remaining -= take

    # -- composition -------------------------------------------------------
    def extend(self, other: "OuProgram") -> "OuProgram":
        """Append another program's instructions (batching composition).

        The other program is copied instruction by instruction; callers
        concatenating *terminated* programs (trailing ``eop``/``halt``)
        should go through :func:`repro.core.codegen.concat_programs`,
        which strips the inner terminators and rejects programs whose
        control flow would break under relocation.
        """
        self._instructions.extend(other.instructions)
        return self

    # -- analysis ----------------------------------------------------------
    def verify(self, rac=None, configured_banks=None, bank_windows=None,
               step_budget: Optional[int] = None, **kwargs):
        """Run the static verifier over this program.

        Convenience front-end to
        :func:`repro.verify.engine.verify_program`; returns its
        :class:`~repro.verify.diagnostics.VerifyReport`.  A ``None``
        ``step_budget`` keeps the engine's default (the reference
        model's step limit).
        """
        from ..verify.engine import verify_program

        if step_budget is not None:
            kwargs["step_budget"] = step_budget
        return verify_program(
            self._instructions, rac=rac,
            configured_banks=configured_banks,
            bank_windows=bank_windows, **kwargs,
        )

    # -- output ------------------------------------------------------------
    @property
    def instructions(self) -> List[OuInstruction]:
        return list(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def words(self) -> List[int]:
        """Encode into 32-bit instruction words."""
        return [encode(instr) for instr in self._instructions]

    def listing(self) -> str:
        """Disassembly listing (Figure 4 style)."""
        return disassemble(self.words())


def check_chunk(chunk: int) -> None:
    """Refuse a transfer chunk the ``mvtc``/``mvfc`` count field cannot
    encode."""
    if not 1 <= chunk <= MAX_TRANSFER_WORDS:
        raise ConfigurationError(
            f"chunk must be in [1, {MAX_TRANSFER_WORDS}]"
        )


# ---------------------------------------------------------------------------
# canonical programs
# ---------------------------------------------------------------------------

def data_banks(n_in: int, n_out: int) -> Tuple[List[int], List[int]]:
    """The input-port and output-port banks of the canonical layout.

    Bank :data:`~repro.core.registers.PROGRAM_BANK` (0) holds the
    microcode, banks ``1..n_in`` the data of input ports
    ``0..n_in-1`` and the next ``n_out`` banks the data of the output
    ports.
    """
    if 1 + n_in + n_out > N_BANKS:
        raise ConfigurationError(
            f"RAC needs {n_in}+{n_out} data banks; only {N_BANKS - 1} exist"
        )
    return (list(range(1, 1 + n_in)),
            list(range(1 + n_in, 1 + n_in + n_out)))


def bank_addresses(
    prog: int, inputs: Sequence[int], outputs: Sequence[int],
) -> Dict[int, int]:
    """The ``bank -> address`` map of the canonical layout: the program,
    then one address per input port, then one per output port."""
    in_banks, out_banks = data_banks(len(inputs), len(outputs))
    return dict(zip([PROGRAM_BANK, *in_banks, *out_banks],
                    [prog, *inputs, *outputs]))


def max_operations(items_in: Sequence[int], items_out: Sequence[int],
                   chunk: int) -> int:
    """The most operations whose :func:`streaming_program` (per
    operation each port's transfers and the start, then ``eop``) fits
    the program bank's ``MAX_OFFSET + 1``-word window."""
    check_chunk(chunk)
    per_op = 1 + sum(-(-items // chunk) for items in (*items_in, *items_out))
    return MAX_OFFSET // per_op


def streaming_program(
    items_in: Sequence[int],
    items_out: Sequence[int],
    operations: int = 1,
    chunk: int = 64,
    blocking_exec: bool = False,
) -> OuProgram:
    """The canonical microcode of ``operations`` back-to-back runs of a
    streaming RAC with ``items_in`` / ``items_out`` words per port and
    operation: Figure 4, generalized.

    Per operation ``k``: the configuration ports (every input port but
    0, last first) and then the data port 0 are streamed in from offset
    ``k x items`` of their banks, then ``execs`` (or a blocking
    ``exec``) starts the RAC, then every output port is drained to
    offset ``k x items``; one ``eop`` ends the program.  Ports use the
    banks of :func:`data_banks`.

    Raises
    ------
    ConfigurationError
        If there is no operation, the ports outnumber the bank file,
        the data volume or the program outgrows the 14-bit bank
        window, or ``chunk`` is not a valid transfer count.
    """
    if operations < 1:
        raise ConfigurationError("need at least one operation")
    if operations > max_operations(items_in, items_out, chunk):
        raise ConfigurationError(
            f"{operations} operations outgrow the {MAX_OFFSET + 1}-word "
            f"program bank (bank {PROGRAM_BANK})")
    in_banks, out_banks = data_banks(len(items_in), len(items_out))
    for direction, items_of in (("input", items_in), ("output", items_out)):
        for port, items in enumerate(items_of):
            if operations * items - 1 > MAX_OFFSET:
                raise ConfigurationError(
                    f"{direction} port {port}: {operations} x {items} "
                    f"words exceed the {MAX_OFFSET + 1}-word bank window"
                )
    program = OuProgram()
    for op_index in range(operations):
        for port in range(len(items_in) - 1, -1, -1):
            items = items_in[port]
            program.stream_to(in_banks[port], items, fifo=port, chunk=chunk,
                              base_offset=op_index * items)
        (program.exec_ if blocking_exec else program.execs)()
        for port, items in enumerate(items_out):
            program.stream_from(out_banks[port], items, fifo=port,
                                chunk=chunk, base_offset=op_index * items)
    return program.eop()


def figure4_program(n_points: int = 256) -> OuProgram:
    """The paper's Figure 4 microcode, parameterized by DFT size.

    Eight ``mvtc BANK1,k*64,DMA64,FIFO0`` transfers (for 256 points,
    two words per complex sample), ``execs``, eight matching ``mvfc``
    to BANK2, then ``eop`` -- byte for byte the published program when
    called with the defaults.
    """
    return streaming_program([2 * n_points], [2 * n_points])


def idct_program(n_blocks: int = 1) -> OuProgram:
    """Microcode processing ``n_blocks`` 8x8 blocks through the IDCT RAC."""
    return streaming_program([64], [64], operations=n_blocks)


def figure4_looped_program(
    n_points: int = 256,
    in_bank: int = 1,
    out_bank: int = 2,
    chunk: int = 64,
) -> OuProgram:
    """Figure 4 rewritten with the extension ISA's hardware loop.

    Demonstrates the announced instruction-set evolution: the 18-word
    unrolled program collapses to 12 words regardless of DFT size.
    """
    total_words = 2 * n_points
    if total_words % chunk:
        raise ConfigurationError("loop form needs total divisible by chunk")
    n_chunks = total_words // chunk
    return (
        OuProgram()
        .clrofr()
        .loop(n_chunks)
        .mvtcx(in_bank, 0, chunk, fifo=0)
        .addofr(chunk)
        .endl()
        .execs()
        .clrofr()
        .loop(n_chunks)
        .mvfcx(out_bank, 0, chunk, fifo=0)
        .addofr(chunk)
        .endl()
        .eop()
    )
