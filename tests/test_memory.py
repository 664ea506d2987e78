"""Tests for the memory models, IRQ lines and the cycle timer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bus.irq import IRQController, IRQLine
from repro.mem.memory import Memory, ROM
from repro.sim.errors import MemoryError_


def test_read_write_roundtrip():
    mem = Memory("m", 4096)
    mem.write_word(0x10, 0xCAFEBABE)
    assert mem.read_word(0x10) == 0xCAFEBABE


def test_values_masked_to_32_bits():
    mem = Memory("m", 64)
    mem.write_word(0, 1 << 40 | 5)
    assert mem.read_word(0) == 5


def test_unaligned_access_rejected():
    mem = Memory("m", 64)
    with pytest.raises(MemoryError_):
        mem.read_word(2)
    with pytest.raises(MemoryError_):
        mem.write_word(5, 0)


def test_out_of_range_rejected():
    mem = Memory("m", 64)
    with pytest.raises(MemoryError_):
        mem.read_word(64)
    with pytest.raises(MemoryError_):
        mem.read_burst(56, 4)
    with pytest.raises(MemoryError_):
        mem.write_burst(60, [1, 2])


def test_bad_size_rejected():
    with pytest.raises(MemoryError_):
        Memory("m", 0)
    with pytest.raises(MemoryError_):
        Memory("m", 10)


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
def test_burst_roundtrip(words):
    mem = Memory("m", 4096)
    mem.write_burst(0x100, words)
    assert mem.read_burst(0x100, len(words)) == words


def test_load_bytes_little_endian():
    mem = Memory("m", 64)
    mem.load_bytes(0, b"\x01\x02\x03\x04\x05")
    assert mem.read_word(0) == 0x04030201
    assert mem.read_word(4) == 0x05


def test_clear_zeroes_everything():
    mem = Memory("m", 64, fill=0xFFFFFFFF)
    assert mem.read_word(0) == 0xFFFFFFFF
    mem.clear()
    assert mem.read_word(0) == 0


def test_clear_keeps_the_live_word_reference():
    """A reference to ``words`` taken before ``clear()`` (as the ISS
    holds one) sees the zeroed storage, and writes through it land."""
    mem = Memory("m", 64, fill=0xFFFFFFFF)
    words = mem.words
    mem.clear()
    assert words == [0] * 16
    words[3] = 7
    assert mem.read_word(12) == 7


def test_rom_rejects_bus_writes_but_allows_loads():
    rom = ROM("rom", [1, 2, 3])
    assert rom.read_word(4) == 2
    with pytest.raises(MemoryError_):
        rom.write_word(0, 9)
    with pytest.raises(MemoryError_):
        rom.write_burst(0, [9])
    rom.load_words(0, [7])
    assert rom.read_word(0) == 7
    # lock restored after load
    with pytest.raises(MemoryError_):
        rom.write_word(0, 1)


def test_irq_line_semantics():
    line = IRQLine("test")
    assert not line.pending
    line.assert_()
    line.assert_()  # idempotent
    assert line.pending
    assert line.raise_count == 1
    line.clear()
    assert not line.pending
    line.assert_()
    assert line.raise_count == 2


def test_irq_controller_priorities():
    ctrl = IRQController()
    a = IRQLine("a")
    b = IRQLine("b")
    assert ctrl.register(a) == 0
    assert ctrl.register(b) == 1
    assert ctrl.highest_pending() is None
    b.assert_()
    assert ctrl.highest_pending() == 1
    a.assert_()
    assert ctrl.highest_pending() == 0  # lower number wins
    assert ctrl.any_pending()
    assert ctrl.snapshot() == {"a": True, "b": True}
    assert ctrl.line(0) is a
