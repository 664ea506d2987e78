"""The streaming recipe, :func:`repro.core.program.streaming_program`,
is the one place a stream-in / start / drain program is spelled out:
under ``src/repro`` only ``core/program.py`` emits chunked transfers."""

import pathlib
import re

import pytest

from repro.core.isa import OuOp
from repro.core.program import bank_addresses, streaming_program
from repro.sim.errors import ConfigurationError

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_only_the_recipe_module_streams_transfers():
    callers = sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if re.search(r"\bstream_(to|from)\(", path.read_text())
    )
    assert callers == ["core/program.py"]


def test_each_operation_streams_config_ports_first_at_its_offset():
    program = streaming_program([8, 2], [8], operations=2, chunk=4)
    shape = [(i.op, i.bank, i.fifo, i.offset, i.count)
             if i.op in (OuOp.MVTC, OuOp.MVFC) else (i.op,)
             for i in program.instructions]
    assert shape == [
        (OuOp.MVTC, 2, 1, 0, 2),
        (OuOp.MVTC, 1, 0, 0, 4), (OuOp.MVTC, 1, 0, 4, 4),
        (OuOp.EXECS,),
        (OuOp.MVFC, 3, 0, 0, 4), (OuOp.MVFC, 3, 0, 4, 4),
        (OuOp.MVTC, 2, 1, 2, 2),
        (OuOp.MVTC, 1, 0, 8, 4), (OuOp.MVTC, 1, 0, 12, 4),
        (OuOp.EXECS,),
        (OuOp.MVFC, 3, 0, 8, 4), (OuOp.MVFC, 3, 0, 12, 4),
        (OuOp.EOP,),
    ]


def test_canonical_bank_map():
    assert bank_addresses(0x100, [0x200, 0x300], [0x400]) == {
        0: 0x100, 1: 0x200, 2: 0x300, 3: 0x400}


@pytest.mark.parametrize("kwargs, message", [
    ({"operations": 0}, "at least one operation"),
    ({"operations": 2049}, "input port 0: 2049 x 8 words exceed"),
    ({"chunk": 129}, "chunk must be in"),
])
def test_recipe_refuses_what_the_isa_cannot_encode(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        streaming_program([8], [8], **kwargs)


def test_recipe_refuses_a_program_the_program_bank_cannot_hold():
    """One-word blocks take three program words each (``mvtc``,
    ``execs``, ``mvfc``): 5461 operations and the ``eop`` fill the
    16 384-word program bank exactly, and one more outgrows it."""
    assert len(streaming_program([1], [1], 5461)) == 16384
    with pytest.raises(ConfigurationError, match="5462 operations "
                       "outgrow the 16384-word program bank"):
        streaming_program([1], [1], 5462)


def test_recipe_refuses_more_ports_than_banks():
    with pytest.raises(ConfigurationError, match="only 7 exist"):
        streaming_program([4] * 5, [4] * 3)
