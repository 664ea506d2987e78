"""Firmware planning: canonical microcode for any streaming RAC.

Every accelerated call follows the same shape — stream each input
port's words in, start, drain each output port — and getting the word
counts wrong is the main way to hang an OCP.  :func:`plan_streaming_run`
derives the whole program from the accelerator's own port
specification, assigns a canonical bank layout, and runs the static
verifier over the result before returning it, so drivers and the user
library never hand-count words.

Canonical bank layout:

* bank 0 — microcode (the controller's fetch convention),
* banks 1..k — input port 0..k-1 data,
* banks k+1..k+m — output port 0..m-1 data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

from ..rac.base import StreamingRAC
from ..sim.errors import ConfigurationError
from ..verify.engine import verify_program
from .isa import MAX_OFFSET, N_BANKS
from .program import OuProgram


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
    """Generate the canonical program for ``operations`` back-to-back runs.

    Per operation: configuration ports (all input ports except 0) are
    streamed first, then the main data port, then ``execs`` (or a
    blocking ``exec``), then every output port is drained.  The result
    is statically checked against the RAC before being returned.

    Raises
    ------
    ConfigurationError
        If the plan cannot fit (too many ports for the bank file, data
        volume beyond the 14-bit bank window) or fails lint.
    """
    if operations < 1:
        raise ConfigurationError("need at least one operation")
    if blocking_exec and any(
        items > rac.ports.fifo_depth for items in rac.items_out
    ):
        raise ConfigurationError(
            "blocking exec would deadlock: an output block exceeds the "
            "FIFO depth, so end_op cannot assert before mvfc drains"
        )
    n_in = len(rac.items_in)
    n_out = len(rac.items_out)
    if 1 + n_in + n_out > N_BANKS:
        raise ConfigurationError(
            f"RAC needs {n_in}+{n_out} data banks; only {N_BANKS - 1} exist"
        )
    input_banks = list(range(1, 1 + n_in))
    output_banks = list(range(1 + n_in, 1 + n_in + n_out))
    for port, items in enumerate(rac.items_in):
        if operations * items - 1 > MAX_OFFSET:
            raise ConfigurationError(
                f"input port {port}: {operations} x {items} words exceed "
                f"the {MAX_OFFSET + 1}-word bank window"
            )
    for port, items in enumerate(rac.items_out):
        if operations * items - 1 > MAX_OFFSET:
            raise ConfigurationError(
                f"output port {port}: volume exceeds the bank window"
            )

    program = OuProgram()
    for op_index in range(operations):
        # configuration ports first (taps, weights, ...), data port last
        for port in range(n_in - 1, -1, -1):
            items = rac.items_in[port]
            program.stream_to(
                input_banks[port], items, fifo=port, chunk=chunk,
                base_offset=op_index * items,
            )
        if blocking_exec:
            program.exec_()
        else:
            program.execs()
        for port in range(n_out):
            items = rac.items_out[port]
            program.stream_from(
                output_banks[port], items, fifo=port, chunk=chunk,
                base_offset=op_index * items,
            )
    program.eop()

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
