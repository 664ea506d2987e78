"""Word-addressed memory models.

:class:`Memory` is the SRAM of the paper's Nexys4 board (16 MB, one wait
state) as seen from the bus: a flat array of 32-bit words with a
configurable first-access latency.  Sequential beats of a burst stream
at bus speed, which is what makes Ouessant's burst DMA efficient.

The backing list holds only the prefix of words a run has touched: a
write extends it with the fill value up to the highest word written,
and a read past its end returns the fill value.  The first use of
:attr:`Memory.words` extends it to the full size.  A system whose CPU
never runs therefore holds its memory only up to the highest word a
run wrote, not the paper's 16 MB as a 4 M-element list that each
construction has to build and every full garbage collection to walk.
"""

from __future__ import annotations

from itertools import repeat
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
        self._size_words = size_bytes // 4
        self._fill = fill & bits.WORD_MASK
        # the touched prefix; every word past it reads as ``_fill``
        self._words: List[int] = []

    # -- helpers --------------------------------------------------------
    @property
    def size_words(self) -> int:
        """Capacity in words (not the length of the touched prefix)."""
        return self._size_words

    @property
    def words(self) -> List[int]:
        """Live reference to the backing word list, at full size.

        Exposed so the instruction-set simulator can run loads/stores
        without per-access bounds re-checks; mutating it bypasses the
        ROM write lock, so only simulators should use it.  The first
        use extends the list in place to :attr:`size_words`, so a
        reference taken earlier stays live.
        """
        words = self._words
        if len(words) < self._size_words:
            self._grow(self._size_words)
        return words

    def _grow(self, end: int) -> None:
        """Extend the touched prefix in place to ``end`` words."""
        words = self._words
        words.extend(repeat(self._fill, end - len(words)))

    def _index(self, offset: int) -> int:
        if offset % 4 != 0:
            raise MemoryError_(f"unaligned access at offset {offset:#x}")
        index = offset // 4
        if not 0 <= index < self._size_words:
            raise MemoryError_(
                f"offset {offset:#x} outside {self.name} "
                f"(size {self.size_bytes:#x})"
            )
        return index

    # -- BusSlave interface ------------------------------------------------
    def read_word(self, offset: int) -> int:
        index = self._index(offset)
        words = self._words
        return words[index] if index < len(words) else self._fill

    def write_word(self, offset: int, value: int) -> None:
        index = self._index(offset)
        words = self._words
        if index >= len(words):
            self._grow(index + 1)
        words[index] = value & bits.WORD_MASK

    def read_burst(self, offset: int, count: int) -> List[int]:
        start = self._index(offset)
        end = start + count
        burst = self._words[start:end]
        if len(burst) == count:
            return burst
        # short slice: the burst crosses the end of the touched prefix
        # (pad it with the fill value) or of the memory itself
        if end > self._size_words:
            raise MemoryError_(
                f"burst [{offset:#x}+{4 * count}] overruns {self.name}"
            )
        return burst + [self._fill] * (count - len(burst))

    def write_burst(self, offset: int, values: List[int]) -> None:
        start = self._index(offset)
        end = start + len(values)
        words = self._words
        if end > len(words):
            if end > self._size_words:
                raise MemoryError_(
                    f"burst [{offset:#x}+{4 * len(values)}] overruns "
                    f"{self.name}"
                )
            self._grow(end)
        words[start:end] = [v & bits.WORD_MASK for v in values]

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
        self._fill = 0


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
        self._words.extend(words)
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
