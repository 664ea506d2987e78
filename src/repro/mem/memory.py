"""Word-addressed memory models.

:class:`Memory` is the SRAM of the paper's Nexys4 board (16 MB, one wait
state) as seen from the bus: a flat array of 32-bit words with a
configurable first-access latency.  Sequential beats of a burst stream
at bus speed, which is what makes Ouessant's burst DMA efficient.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..sim.errors import MemoryError_
from ..utils import bits
from ..bus.types import BusSlave


class Memory(BusSlave):
    """Flat 32-bit word memory with configurable access latency.

    Parameters
    ----------
    size_bytes:
        Capacity; must be a multiple of 4.
    access_latency:
        Wait states inserted on the first beat of a bus burst.
    fill:
        Initial word value (default 0).
    """

    def __init__(
        self,
        name: str = "sram",
        size_bytes: int = 1 << 20,
        access_latency: int = 1,
        fill: int = 0,
    ) -> None:
        if size_bytes <= 0 or size_bytes % 4 != 0:
            raise MemoryError_(f"bad memory size {size_bytes}")
        self.name = name
        self.size_bytes = size_bytes
        self.access_latency = access_latency
        self._words: List[int] = [fill & bits.WORD_MASK] * (size_bytes // 4)

    # -- helpers --------------------------------------------------------
    @property
    def size_words(self) -> int:
        return len(self._words)

    @property
    def words(self) -> List[int]:
        """Live reference to the backing word list.

        Exposed so the instruction-set simulator can run loads/stores
        without per-access bounds re-checks; mutating it bypasses the
        ROM write lock, so only simulators should use it.
        """
        return self._words

    def _index(self, offset: int) -> int:
        if offset % 4 != 0:
            raise MemoryError_(f"unaligned access at offset {offset:#x}")
        index = offset // 4
        if not 0 <= index < len(self._words):
            raise MemoryError_(
                f"offset {offset:#x} outside {self.name} "
                f"(size {self.size_bytes:#x})"
            )
        return index

    # -- BusSlave interface ------------------------------------------------
    def read_word(self, offset: int) -> int:
        return self._words[self._index(offset)]

    def write_word(self, offset: int, value: int) -> None:
        self._words[self._index(offset)] = value & bits.WORD_MASK

    def read_burst(self, offset: int, count: int) -> List[int]:
        start = self._index(offset)
        if start + count > len(self._words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        return self._words[start : start + count]

    def write_burst(self, offset: int, values: List[int]) -> None:
        start = self._index(offset)
        if start + len(values) > len(self._words):
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * len(values)}] overruns {self.name}"
            )
        self._words[start : start + len(values)] = [
            v & bits.WORD_MASK for v in values
        ]

    # -- loader convenience ---------------------------------------------
    def load_words(self, offset: int, words: Sequence[int]) -> None:
        """Backdoor bulk initialization (no cycles)."""
        self.write_burst(offset, list(words))

    def dump_words(self, offset: int, count: int) -> List[int]:
        """Backdoor bulk readout (no cycles)."""
        return list(self.read_burst(offset, count))

    def load_bytes(self, offset: int, data: bytes) -> None:
        self.load_words(offset, bits.words_from_bytes(data))

    def clear(self) -> None:
        """Zero every word in place, so :attr:`words` stays live."""
        self._words[:] = [0] * len(self._words)


class ROM(Memory):
    """Read-only memory: bus writes raise, backdoor loads allowed."""

    def __init__(
        self,
        name: str = "rom",
        contents: Iterable[int] = (),
        access_latency: int = 1,
    ) -> None:
        words = [w & bits.WORD_MASK for w in contents]
        size = max(4, 4 * len(words))
        super().__init__(name, size, access_latency)
        if words:
            self._words[: len(words)] = words
        self._locked = True

    def write_word(self, offset: int, value: int) -> None:
        if getattr(self, "_locked", False):
            raise MemoryError_(f"write to ROM {self.name} at {offset:#x}")
        super().write_word(offset, value)

    def write_burst(self, offset: int, values: List[int]) -> None:
        if getattr(self, "_locked", False):
            raise MemoryError_(f"burst write to ROM {self.name}")
        super().write_burst(offset, values)

    def load_words(self, offset: int, words: Sequence[int]) -> None:
        self._locked = False
        try:
            super().load_words(offset, words)
        finally:
            self._locked = True
