"""Variable-width FIFOs with (de)serialization.

Figure 2 of the paper shows the RAC integration pattern: the Ouessant
project "provides variable width FIFOs, which can be used to interface
with many accelerators.  They provide serializing and deserializing
functionalities, and can thus serve as simple data formatting entities"
-- e.g. a 32-bit bus side feeding a 96-bit accelerator port.

:class:`FIFO` implements exactly that: the push side and pop side may
have different widths (any pair with an integer bit ratio through their
GCD), and words are re-chunked little-endian-first.  Pushes performed
during a cycle become visible to the pop side on the *next* cycle
(registered full/empty flags), matching synchronous FIFO behaviour.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..sim.errors import ConfigurationError, FIFOError
from ..sim.kernel import Component, inlined_claim
from ..sim.tracing import Stats


class FIFO(Component):
    """Synchronous FIFO with independent push/pop widths.

    Parameters
    ----------
    width_push / width_pop:
        Bit widths of the two ports.  Both must be multiples of their
        GCD such that each port word maps to a whole number of internal
        atoms (always true by GCD construction); widths of 8..1024 bits
        are accepted.
    depth:
        Capacity in *pop-side* words.

    Data is re-chunked least-significant-atom first: pushing 32-bit
    words ``w0, w1, w2`` into a 96-bit pop port yields the single word
    ``w2 << 64 | w1 << 32 | w0``.

    One push port and one pop port: every word enters through
    :meth:`push_many` and leaves through :meth:`pop_many`
    (:meth:`push` and :meth:`pop` wrap them for single words).  A
    subclass interposing on the push side overrides :meth:`push_many`
    and stages what it accepts through :meth:`_stage`.

    The levels :attr:`occupancy`, :attr:`occupancy_atoms` and
    :attr:`free_push_words` are fields, kept current by the only code
    that changes the contents (:meth:`_stage`, :meth:`pop_many`,
    :meth:`commit` and :meth:`reset`), so reading one costs no call.
    """

    def __init__(
        self,
        name: str,
        width_push: int = 32,
        width_pop: int = 32,
        depth: int = 64,
    ) -> None:
        super().__init__(name)
        for width in (width_push, width_pop):
            if not 8 <= width <= 1024:
                raise ConfigurationError(f"FIFO width {width} out of range")
        if depth < 1:
            raise ConfigurationError(f"FIFO depth {depth} must be >= 1")
        self.width_push = width_push
        self.width_pop = width_pop
        self.depth = depth
        self._atom_bits = math.gcd(width_push, width_pop)
        self._push_ratio = width_push // self._atom_bits
        self._pop_ratio = width_pop // self._atom_bits
        self._capacity_atoms = depth * self._pop_ratio
        # ``_atoms[_head:]`` is the live contents; pops advance ``_head``
        # (O(1)) and the dead prefix is compacted away periodically
        self._atoms: List[int] = []
        self._head = 0
        self._staged: List[int] = []
        self._pops_pending = 0
        #: complete pop-side words available to pop
        self.occupancy = 0
        #: atoms available to pop
        self.occupancy_atoms = 0
        #: push-side words that fit right now (staged words included)
        self.free_push_words = self._capacity_atoms // self._push_ratio
        # stall watches: a producer stalled until ``free_push_words >=
        # _min_free_watch`` / a consumer stalled until ``occupancy >=
        # _min_occ_watch``.  They bound the hot-mode batch lane (the
        # batch must end on the exact cycle the threshold crosses so the
        # watcher resumes on the same cycle as the naive schedule).
        self._min_free_watch: Optional[int] = None
        self._min_occ_watch: Optional[int] = None
        #: windowed occupancy maximum, resettable by the perf-counter
        #: block at run start (the cumulative gauge lives in ``stats``)
        self.high_water_atoms = 0
        self.stats = Stats()

    # -- capacity ----------------------------------------------------------
    @property
    def empty(self) -> bool:
        return self.occupancy == 0

    @property
    def full(self) -> bool:
        return self.free_push_words == 0

    def can_push(self, count: int = 1) -> bool:
        return self.free_push_words >= count

    def can_pop(self, count: int = 1) -> bool:
        return self.occupancy >= count

    # -- data --------------------------------------------------------------
    def push(self, value: int) -> None:
        """Stage one push-side word (visible to pop side next cycle)."""
        self.push_many([value])

    def push_many(self, values: List[int]) -> None:
        """Stage push-side words, visible to the pop side next cycle.

        The words that fit are staged in order.  A malformed word among
        them stages the valid prefix and raises naming that word; words
        past the free space raise "full" once the rest is staged.
        """
        n = len(values)
        fit = self.free_push_words
        if n < fit:
            fit = n
        accepted = values if fit == n else values[:fit]
        width = self.width_push
        if accepted and (min(accepted) < 0 or max(accepted) >> width):
            bad = next(i for i, value in enumerate(accepted)
                       if value < 0 or value >> width)
            self._stage(accepted[:bad])
            raise FIFOError(
                f"value {accepted[bad]:#x} does not fit {width} bits"
            )
        self._stage(accepted)
        if fit < n:
            raise FIFOError(f"push to full FIFO {self.name}")

    def _stage(self, values: List[int]) -> None:
        """Stage well-formed words that fit (split into atoms)."""
        if not values:
            return
        ratio = self._push_ratio
        if ratio == 1:
            self._staged.extend(values)
        else:
            bits = self._atom_bits
            atom_mask = (1 << bits) - 1
            staged = self._staged
            for value in values:
                for i in range(ratio):
                    staged.append((value >> (i * bits)) & atom_mask)
        self.free_push_words -= len(values)
        self.stats.counts["pushes"] += len(values)
        # the claim is inlined, never cached: only the cluster's drops
        self._cluster._wake_valid = False

    def pop(self) -> int:
        """Remove and return one pop-side word."""
        return self.pop_many(1)[0]

    def pop_many(self, count: int) -> List[int]:
        """Remove ``count`` pop-side words in order.

        If fewer are available, the available ones are consumed (and
        counted), then the empty-FIFO error is raised.
        """
        take = self.occupancy
        if count < take:
            take = count
        values: List[int] = []
        if take > 0:
            head = self._head
            ratio = self._pop_ratio
            end = head + take * ratio
            if ratio == 1:
                values = self._atoms[head:end]
            else:
                bits = self._atom_bits
                atoms = self._atoms
                for base in range(head, end, ratio):
                    value = 0
                    for i in range(ratio):
                        value |= atoms[base + i] << (i * bits)
                    values.append(value)
            self._head = end
            if end > 512 and end * 2 > len(self._atoms):
                # compact the dead prefix away
                del self._atoms[:end]
                self._head = 0
            self.occupancy -= take
            self.occupancy_atoms -= take * ratio
            self.free_push_words = (
                (self._capacity_atoms - self.occupancy_atoms
                 - len(self._staged)) // self._push_ratio)
            self.stats.counts["pops"] += take
            self._pops_pending += take
            self.wake_watchers()
        if take < count:
            raise FIFOError(f"pop from empty FIFO {self.name}")
        return values

    def peek(self) -> int:
        """Next pop-side word without removing it."""
        if not self.can_pop():
            raise FIFOError(f"peek on empty FIFO {self.name}")
        head = self._head
        value = 0
        for i in range(self._pop_ratio):
            value |= self._atoms[head + i] << (i * self._atom_bits)
        return value

    def drain(self) -> List[int]:
        """Pop everything currently visible (testing convenience)."""
        return self.pop_many(self.occupancy)

    # -- stall watches (batch-lane bounds) ----------------------------------
    def set_free_watch(self, words: Optional[int]) -> None:
        """Arm (or clear) a stalled producer's free-space threshold."""
        self._min_free_watch = words

    def set_occ_watch(self, words: Optional[int]) -> None:
        """Arm (or clear) a stalled consumer's occupancy threshold."""
        self._min_occ_watch = words

    def pop_crossing(self) -> Optional[int]:
        """Pops after which an armed free-space watch first crosses.

        Returns the smallest ``k >= 1`` such that popping ``k`` words
        makes ``free_push_words >= _min_free_watch``, or ``None`` when
        no producer watch is armed.  A batching consumer must not pop
        more than ``k`` words past this cycle boundary in one host
        call, so the stalled producer resumes on the naive cycle.
        """
        watch = self._min_free_watch
        if watch is None:
            return None
        have = self._capacity_atoms - self.occupancy_atoms - len(self._staged)
        need = watch * self._push_ratio - have
        if need <= 0:
            return 1
        return max(1, -(-need // self._pop_ratio))

    def push_crossing(self) -> Optional[int]:
        """Pushes after which an armed occupancy watch first crosses.

        Smallest ``k >= 1`` such that ``k`` more committed push-side
        words make ``occupancy >= _min_occ_watch`` (``None`` when no
        consumer watch is armed).
        """
        watch = self._min_occ_watch
        if watch is None:
            return None
        need = watch * self._pop_ratio - self.occupancy_atoms
        if need <= 0:
            return 1
        return max(1, -(-need // self._push_ratio))

    # -- clocked behaviour ------------------------------------------------
    #: a FIFO acts only in commit, and only when a push staged data or a
    #: pop awaits its trace flush this cycle; otherwise it is idle until
    #: some other component pushes or pops (which makes that component
    #: active anyway).  The walk inlines this claim, so ``_stage`` and
    #: ``pop_many`` drop the claim of the FIFO's cluster
    next_activity = inlined_claim(
        "{now} if {c}._staged or {c}._pops_pending else None")

    def commit(self) -> None:
        # the payloads below are built only under a trace (a FIFO is
        # also committed by hand, outside any simulator)
        traced = self.sim is not None and self.sim.trace is not None
        if self._pops_pending:
            # pops only happen inside an *active* consumer's tick, so
            # flushing here never records during a declared-idle window
            if traced:
                self.trace_quiet("pop", words=self._pops_pending,
                                 occupancy_atoms=self.occupancy_atoms)
            self._pops_pending = 0
        if self._staged:
            staged = len(self._staged)
            self._atoms.extend(self._staged)
            self._staged.clear()
            self.occupancy_atoms = occupancy = self.occupancy_atoms + staged
            self.occupancy = occupancy // self._pop_ratio
            if occupancy > self.stats.counts["max_occupancy_atoms"]:
                self.stats.maximize("max_occupancy_atoms", occupancy)
            if occupancy > self.high_water_atoms:
                self.high_water_atoms = occupancy
            if traced:
                self.trace_quiet("commit", atoms=staged,
                                 occupancy_atoms=occupancy)
            # newly published words may unstall a watching consumer
            self.wake_watchers()

    def audit_state(self) -> Dict[str, object]:
        """Fields the test suite's slab audit compares: the live
        contents replace the ring layout, which depends on when it was
        compacted."""
        state = dict(vars(self))
        state["_atoms"] = self._atoms[self._head:]
        state["_head"] = 0
        return state

    def clear_high_water(self) -> None:
        """Restart the windowed occupancy maximum (perf-counter clear)."""
        self.high_water_atoms = self.occupancy_atoms

    def reset(self) -> None:
        self._atoms.clear()
        self._head = 0
        self._staged.clear()
        self._pops_pending = 0
        self.occupancy = 0
        self.occupancy_atoms = 0
        self.free_push_words = self._capacity_atoms // self._push_ratio
        self._min_free_watch = None
        self._min_occ_watch = None
        self.high_water_atoms = 0
        self.stats = Stats()

    # -- sizing (for the synthesis estimator) -------------------------------
    @property
    def storage_bits(self) -> int:
        return self._capacity_atoms * self._atom_bits
