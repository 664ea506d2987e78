"""The paper's contribution: the Ouessant coprocessor architecture."""

from .assembler import assemble_microcode, disassemble
from .binary import FirmwareImage, pack, unpack
from .codegen import as_program, compress_program, expand_program
from .controller import OuessantController
from .coprocessor import OuessantCoprocessor
from .dpr import DPRManager, PartialBitstream
from .encoding import decode, encode
from .firmware import FirmwarePlan, plan_streaming_run
from .interface import OuessantInterface
from .refmodel import (
    ReferenceMemory,
    ReferenceRAC,
    execute_reference,
)
from .isa import (
    BASE_SET,
    FIFODirection,
    MAX_TRANSFER_WORDS,
    N_BANKS,
    OuInstruction,
    OuOp,
)
from .program import (
    OuProgram,
    figure4_looped_program,
    figure4_program,
    idct_program,
    streaming_program,
)
from .registers import (
    CTRL_D,
    CTRL_IE,
    CTRL_S,
    OuessantRegisters,
    PROGRAM_BANK,
    REG_BANK_BASE,
    REG_CTRL,
    REG_PROG_SIZE,
)
from .standalone import StandaloneSequencer

__all__ = [
    "BASE_SET",
    "FirmwareImage",
    "FirmwarePlan",
    "pack",
    "plan_streaming_run",
    "unpack",
    "as_program",
    "compress_program",
    "expand_program",
    "ReferenceMemory",
    "ReferenceRAC",
    "execute_reference",
    "CTRL_D",
    "CTRL_IE",
    "CTRL_S",
    "DPRManager",
    "FIFODirection",
    "MAX_TRANSFER_WORDS",
    "N_BANKS",
    "OuInstruction",
    "OuOp",
    "OuProgram",
    "OuessantController",
    "OuessantCoprocessor",
    "OuessantInterface",
    "OuessantRegisters",
    "PROGRAM_BANK",
    "PartialBitstream",
    "REG_BANK_BASE",
    "REG_CTRL",
    "REG_PROG_SIZE",
    "StandaloneSequencer",
    "assemble_microcode",
    "decode",
    "disassemble",
    "encode",
    "figure4_looped_program",
    "figure4_program",
    "idct_program",
    "streaming_program",
]
