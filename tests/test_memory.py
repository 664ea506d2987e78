"""Tests for the memory models, IRQ lines and the cycle timer."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.irq import IRQController, IRQLine
from repro.mem.memory import Memory, ROM
from repro.mem.sdram import SDRAM
from repro.sim.errors import MemoryError_
from repro.system import SoC


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


class FlatMemory:
    """Reference model: every word of the memory in one list, built up
    front, with the bounds, alignment and ROM-lock rules of
    :class:`Memory` and :class:`ROM`."""

    def __init__(self, name, size_bytes, fill=0, contents=(), rom=False):
        self.name = name
        self.size_bytes = size_bytes
        self.words = [fill & 0xFFFFFFFF] * (size_bytes // 4)
        self.words[: len(contents)] = contents
        self.rom = rom

    def _index(self, offset):
        if offset % 4 != 0:
            raise MemoryError_(f"unaligned access at offset {offset:#x}")
        index = offset // 4
        if not 0 <= index < len(self.words):
            raise MemoryError_(
                f"offset {offset:#x} outside {self.name} "
                f"(size {self.size_bytes:#x})"
            )
        return index

    def read_word(self, offset):
        return self.words[self._index(offset)]

    def write_word(self, offset, value):
        if self.rom:
            raise MemoryError_(f"write to ROM {self.name} at {offset:#x}")
        self.words[self._index(offset)] = value & 0xFFFFFFFF

    def read_burst(self, offset, count):
        start = self._index(offset)
        if start + count > len(self.words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        return self.words[start : start + count]

    def write_burst(self, offset, values, backdoor=False):
        if self.rom and not backdoor:
            raise MemoryError_(f"burst write to ROM {self.name}")
        start = self._index(offset)
        if start + len(values) > len(self.words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * len(values)}] overruns {self.name}"
            )
        self.words[start : start + len(values)] = [
            v & 0xFFFFFFFF for v in values
        ]

    def load_words(self, offset, words):
        self.write_burst(offset, list(words), backdoor=True)

    def dump_words(self, offset, count):
        return self.read_burst(offset, count)

    def clear(self):
        self.words[:] = [0] * len(self.words)


_SIZES = (4, 32, 160)
_VALUES = st.integers(0, (1 << 36) - 1)  # masking included


def _ops(size_bytes):
    n = size_bytes // 4
    offsets = st.integers(-8, size_bytes + 8)  # unaligned and out of range
    counts = st.integers(0, n + 2)
    bursts = st.lists(_VALUES, max_size=n + 2)
    return st.lists(st.one_of(
        st.tuples(st.just("read_word"), offsets),
        st.tuples(st.just("write_word"), offsets, _VALUES),
        st.tuples(st.just("read_burst"), offsets, counts),
        st.tuples(st.just("write_burst"), offsets, bursts),
        st.tuples(st.just("load_words"), offsets, bursts),
        st.tuples(st.just("dump_words"), offsets, counts),
        st.tuples(st.just("clear")),
        st.tuples(st.just("words")),
        st.tuples(st.just("poke"), st.integers(0, n - 1),
                  st.integers(0, 0xFFFFFFFF)),
    ), max_size=40)


def _outcome(call):
    try:
        return "ok", call()
    except MemoryError_ as exc:
        return type(exc), str(exc)


def _run_differential(mem, oracle, ops):
    assert mem.size_bytes == oracle.size_bytes
    assert mem.size_words == len(oracle.words)
    refs = []
    for op, *args in ops:
        if op == "words":
            refs.append(mem.words)
            continue
        if op == "poke":
            # the ISS writes through its reference, bypassing the bus
            if not refs:
                continue
            index, value = args
            refs[-1][index] = value
            oracle.words[index] = value
            continue
        got = _outcome(lambda: getattr(mem, op)(*args))
        want = _outcome(lambda: getattr(oracle, op)(*args))
        assert got == want, (op, args)
        for ref in refs:
            assert ref == oracle.words
    assert mem.dump_words(0, len(oracle.words)) == oracle.words
    assert mem.words == oracle.words
    for ref in refs:
        assert ref is mem.words


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(_SIZES),
       st.sampled_from([0, 0xDEADBEEF, (1 << 40) | 7]))
def test_memory_matches_flat_list_oracle(data, size_bytes, fill):
    """The touched-prefix list behaves exactly as a flat list of every
    word: values, exceptions and messages, and live references."""
    _run_differential(
        Memory("m", size_bytes, fill=fill),
        FlatMemory("m", size_bytes, fill=fill),
        data.draw(_ops(size_bytes)),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(_SIZES))
def test_sdram_matches_flat_list_oracle(data, size_bytes):
    _run_differential(
        SDRAM("d", size_bytes),
        FlatMemory("d", size_bytes),
        data.draw(_ops(size_bytes)),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(_VALUES, max_size=40))
def test_rom_matches_flat_list_oracle(data, contents):
    rom = ROM("r", contents)
    masked = [v & 0xFFFFFFFF for v in contents]
    _run_differential(
        rom,
        FlatMemory("r", rom.size_bytes, contents=masked, rom=True),
        data.draw(_ops(rom.size_bytes)),
    )


def test_soc_construction_holds_no_full_size_ram():
    """The paper's 16 MB RAM costs nothing until a run touches it."""
    SoC()  # first build pays the one-time import and cache costs
    tracemalloc.start()
    try:
        soc = SoC()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert soc.memory.size_bytes == 16 << 20
    assert peak < 2 << 20


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
