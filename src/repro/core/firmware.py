"""Firmware planning: canonical microcode for any streaming RAC.

Every accelerated call follows the same shape — stream each input
port's words in, start, drain each output port — and getting the word
counts wrong is the main way to hang an OCP.  :func:`plan_streaming_run`
emits that shape from the accelerator's own port specification through
the one recipe, :func:`repro.core.program.streaming_program` (which
also owns the canonical bank layout), and runs the static verifier
over the result before returning it, so drivers and the user library
never hand-count words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from ..rac.base import StreamingRAC
from ..sim.errors import ConfigurationError
from ..verify.engine import verify_program
from .program import OuProgram, data_banks, streaming_program


@dataclass
class FirmwarePlan:
    """A ready-to-run program plus its bank/buffer contract.

    Attributes
    ----------
    program:
        The microcode (ends with ``eop``).
    input_banks / output_banks:
        Bank number assigned to each RAC port.
    words_in / words_out:
        Total words the caller must place / will receive per port
        (= operations x items per operation).
    words:
        The program's 32-bit instruction words, encoded at first use
        and kept: a plan is not edited once made, and a library that
        memoizes plans runs each one many times.
    """

    program: OuProgram
    input_banks: List[int]
    output_banks: List[int]
    words_in: List[int]
    words_out: List[int]
    operations: int

    @cached_property
    def words(self) -> List[int]:
        return self.program.words()

    @property
    def banks_used(self) -> List[int]:
        return [0] + self.input_banks + self.output_banks

    def bank_map(self, addresses: Dict[int, int]) -> Dict[int, int]:
        """Validate a caller-supplied ``bank -> address`` map."""
        missing = [b for b in self.banks_used if b not in addresses]
        if missing:
            raise ConfigurationError(
                f"plan needs addresses for banks {missing}"
            )
        return {bank: addresses[bank] for bank in self.banks_used}


def plan_streaming_run(
    rac: StreamingRAC,
    operations: int = 1,
    chunk: int = 64,
    blocking_exec: bool = False,
) -> FirmwarePlan:
    """The canonical program for ``operations`` back-to-back runs of
    ``rac`` (:func:`~repro.core.program.streaming_program` over its
    port specification), statically checked against the RAC.

    Raises
    ------
    ConfigurationError
        If the program cannot be built (see ``streaming_program``), a
        blocking ``exec`` would deadlock, or it fails verification.
    """
    if blocking_exec and any(
        items > rac.ports.fifo_depth for items in rac.items_out
    ):
        raise ConfigurationError(
            "blocking exec would deadlock: an output block exceeds the "
            "FIFO depth, so end_op cannot assert before mvfc drains"
        )
    program = streaming_program(rac.items_in, rac.items_out, operations,
                                chunk, blocking_exec)
    input_banks, output_banks = data_banks(len(rac.items_in),
                                           len(rac.items_out))
    report = verify_program(
        program.instructions, rac=rac,
        configured_banks=set(input_banks + output_banks),
    )
    if not report.clean:
        raise ConfigurationError(
            "generated firmware failed verification:\n" + report.render()
        )
    return FirmwarePlan(
        program=program,
        input_banks=input_banks,
        output_banks=output_banks,
        words_in=[operations * items for items in rac.items_in],
        words_out=[operations * items for items in rac.items_out],
        operations=operations,
    )
