"""RAC (Reconfigurable Acceleration Coprocessor) framework.

A RAC is the user-defined accelerator of Figure 1: it sees only FIFO
interfaces plus the ``start_op``/``end_op`` handshake of Figure 2, and
"can be changed independently from other components of the OCP".

:class:`RAC` defines that contract.  :class:`StreamingRAC` implements
the ubiquitous collect/compute/emit behaviour (consume N input words,
compute after a pipeline latency, stream M output words) that covers
both accelerators evaluated in the paper and is the target of the
HLS-wrapper generator (:mod:`repro.rac.hls`).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.errors import ConfigurationError, RACError
from ..sim.kernel import Component
from ..sim.tracing import Stats
from .fifo import FIFO


class RACPortSpec:
    """Static description of a RAC's FIFO ports.

    ``input_widths`` / ``output_widths`` are the accelerator-side widths
    in bits (the bus side of every FIFO is always 32, the system word).
    """

    def __init__(
        self,
        input_widths: Sequence[int] = (32,),
        output_widths: Sequence[int] = (32,),
        fifo_depth: int = 64,
    ) -> None:
        if not input_widths or not output_widths:
            raise ConfigurationError("a RAC needs >= 1 input and output port")
        self.input_widths = list(input_widths)
        self.output_widths = list(output_widths)
        self.fifo_depth = fifo_depth


class RAC(Component):
    """Accelerator base class: FIFO ports + start/end handshake.

    Subclasses implement :meth:`tick` to consume from ``self.inputs``
    and produce into ``self.outputs``, and must raise :attr:`end_op`
    when an operation's results have been fully emitted.
    """

    #: human-readable accelerator kind (used in reports)
    kind = "generic"

    def __init__(self, name: str, ports: Optional[RACPortSpec] = None) -> None:
        super().__init__(name)
        self.ports = ports or RACPortSpec()
        self.inputs: List[FIFO] = []
        self.outputs: List[FIFO] = []
        self.end_op = False
        self.busy = False
        self.ops_completed = 0
        self.stats = Stats()

    # -- wiring -----------------------------------------------------------
    def bind(self, inputs: List[FIFO], outputs: List[FIFO]) -> None:
        """Attach the FIFO fabric (done by the OCP assembly)."""
        if len(inputs) != len(self.ports.input_widths):
            raise ConfigurationError(
                f"{self.name}: expected {len(self.ports.input_widths)} "
                f"input FIFOs, got {len(inputs)}"
            )
        if len(outputs) != len(self.ports.output_widths):
            raise ConfigurationError(
                f"{self.name}: expected {len(self.ports.output_widths)} "
                f"output FIFOs, got {len(outputs)}"
            )
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        # the RAC's quiescence claims (starved collect, blocked emit,
        # autostart) are conditioned on FIFO state: re-poll on changes
        for fifo in self.inputs:
            fifo.watch(self)
        for fifo in self.outputs:
            fifo.watch(self)

    # -- handshake -----------------------------------------------------------
    def start_op(self) -> None:
        """Pulse from the controller's ``exec``/``execs`` instruction."""
        self.end_op = False
        self.busy = True
        self.stats.incr("start_ops")
        self.trace_event("start_op", op=self.ops_completed + 1)
        # the handshake gates both our own wake and the controller's
        # EXEC_WAIT claim
        self.wake_watchers()

    def _finish_op(self) -> None:
        self.busy = False
        self.end_op = True
        self.ops_completed += 1
        self.trace_event("end_op", completed=self.ops_completed)
        self.wake_watchers()

    def reset(self) -> None:
        self.end_op = False
        self.busy = False
        self.ops_completed = 0


class _Phase(enum.Enum):
    COLLECT = "collect"
    COMPUTE = "compute"
    EMIT = "emit"
    DONE = "done"


#: computes output word lists from input word lists (one list per port)
ComputeFn = Callable[[List[List[int]]], List[List[int]]]


class StreamingRAC(RAC):
    """Collect / compute / emit accelerator behaviour.

    Parameters
    ----------
    items_in:
        Words consumed per operation on each input port.
    items_out:
        Words produced per operation on each output port.
    compute_fn:
        Pure function mapping collected input words to output words
        (bit-exact datapath model).
    compute_latency:
        Cycles between the last input word and the first output word
        (the paper's ``Lat.`` column).
    input_rate / output_rate:
        Port words moved per cycle while streaming.
    autostart:
        When True (default) the accelerator consumes input as soon as
        it appears in the FIFOs -- the behaviour Figure 4's microcode
        relies on (eight ``mvtc`` fill transfers before ``execs``).
        When False, collection begins only at ``start_op``.
    """

    kind = "streaming"

    def __init__(
        self,
        name: str,
        items_in: Sequence[int],
        items_out: Sequence[int],
        compute_fn: ComputeFn,
        compute_latency: int = 1,
        input_rate: int = 1,
        output_rate: int = 1,
        autostart: bool = True,
        ports: Optional[RACPortSpec] = None,
    ) -> None:
        n_in = len(items_in)
        n_out = len(items_out)
        if ports is None:
            ports = RACPortSpec([32] * n_in, [32] * n_out)
        if len(ports.input_widths) != n_in or len(ports.output_widths) != n_out:
            raise ConfigurationError(f"{name}: port/item count mismatch")
        if compute_latency < 0:
            raise ConfigurationError("compute_latency must be >= 0")
        if input_rate < 1 or output_rate < 1:
            raise ConfigurationError("streaming rates must be >= 1")
        super().__init__(name, ports)
        self.items_in = list(items_in)
        self.items_out = list(items_out)
        self.compute_fn = compute_fn
        self.compute_latency = compute_latency
        self.input_rate = input_rate
        self.output_rate = output_rate
        self.autostart = autostart
        self._phase = _Phase.DONE
        self._collected: List[List[int]] = []
        self._to_emit: List[List[int]] = []
        self._emitted: List[int] = []
        #: the cycle the compute fires: ``compute_latency`` cycles after
        #: the tick that completes collection
        self._compute_at = 0
        #: one input and one output port, stock collect/compute/emit
        #: behaviour: the shape the batch lane handles
        self._single_stream = (n_in == 1 and n_out == 1
                               and type(self).tick is StreamingRAC.tick)

    # -- handshake ---------------------------------------------------------
    def start_op(self) -> None:
        super().start_op()
        if self._phase is _Phase.DONE:
            self._begin_collect()

    def _begin_collect(self) -> None:
        self._phase = _Phase.COLLECT
        self._collected = [[] for _ in self.items_in]
        self._to_emit = []
        self._emitted = []

    # -- quiescence protocol -------------------------------------------------
    def next_activity(self):
        if self._phase is _Phase.DONE:
            if self.autostart and any(not f.empty for f in self.inputs):
                return self.now
            return None  # woken by data arriving or by start_op
        if self._phase is _Phase.COLLECT:
            complete = True
            for port, fifo in enumerate(self.inputs):
                if len(self._collected[port]) < self.items_in[port]:
                    complete = False
                    if fifo.occupancy > 0:
                        return self.now  # words to take this cycle
            # complete: the transition to COMPUTE is due this cycle;
            # otherwise starved until a FIFO fills
            return self.now if complete else None
        if self._phase is _Phase.COMPUTE:
            # pipeline latency: nothing happens until the deadline
            return self._compute_at
        # EMIT: progress whenever any unfinished port has FIFO space
        for port, fifo in enumerate(self.outputs):
            if self._emitted[port] < self.items_out[port] and fifo.can_push():
                return self.now
        return None  # all remaining output FIFOs are full

    # -- per-cycle behaviour -----------------------------------------------
    def tick(self) -> None:
        if self._phase is _Phase.DONE:
            if self.autostart and any(not f.empty for f in self.inputs):
                self._begin_collect()
            else:
                return
        if self._phase is _Phase.COLLECT:
            self._tick_collect()
        elif self._phase is _Phase.COMPUTE:
            self._tick_compute()
        if self._phase is _Phase.EMIT:
            self._tick_emit()

    def _tick_collect(self) -> None:
        done = True
        for port, fifo in enumerate(self.inputs):
            need = self.items_in[port] - len(self._collected[port])
            take = min(need, self.input_rate, fifo.occupancy)
            if take:
                self._collected[port].extend(fifo.pop_many(take))
                self.stats.incr("words_in", take)
            if len(self._collected[port]) < self.items_in[port]:
                done = False
        if done:
            self._phase = _Phase.COMPUTE
            self._compute_at = self.now + 1 + self.compute_latency
            self.trace_event("collect_done")

    def _tick_compute(self) -> None:
        if self.now < self._compute_at:
            return
        outputs = self.compute_fn(self._collected)
        if len(outputs) != len(self.items_out):
            raise RACError(
                f"{self.name}: compute_fn returned {len(outputs)} ports, "
                f"expected {len(self.items_out)}"
            )
        for port, words in enumerate(outputs):
            if len(words) != self.items_out[port]:
                raise RACError(
                    f"{self.name}: compute_fn port {port} produced "
                    f"{len(words)} words, expected {self.items_out[port]}"
                )
        self._to_emit = [list(w) for w in outputs]
        self._emitted = [0] * len(outputs)
        self._phase = _Phase.EMIT
        self.trace_event("compute_done")

    def _tick_emit(self) -> None:
        all_done = True
        for port, fifo in enumerate(self.outputs):
            sent = self._emitted[port]
            total = self.items_out[port]
            budget = self.output_rate
            while sent < total and budget and fifo.can_push():
                fifo.push(self._to_emit[port][sent])
                sent += 1
                budget -= 1
                self.stats.incr("words_out")
            self._emitted[port] = sent
            if sent < total:
                all_done = False
        if all_done:
            self._phase = _Phase.DONE
            self._finish_op()

    # -- hot-mode batch lane -------------------------------------------------
    @property
    def can_batch(self) -> bool:  # type: ignore[override]
        """True while :meth:`tick_batch` would move a slab: a
        single-stream RAC with input still to collect, or emitting.

        Phase transitions (autostart pickup, compute expiry, a tick
        that completes collection) stay single dispatched cycles: their
        pushes are staged and need the kernel's commit phase.  A FIFO
        overriding ``push`` gets no emit slab (as in ``push_many``).
        """
        phase = self._phase
        if phase is _Phase.EMIT:
            return (self._single_stream
                    and type(self.outputs[0]).push is FIFO.push)
        return (phase is _Phase.COLLECT and self._single_stream
                and len(self._collected[0]) < self.items_in[0])

    def batch_span(self, budget: int) -> int:
        """Cycles :meth:`tick_batch` would consume: the same crossing
        arithmetic, without moving a word."""
        if self._phase is _Phase.COLLECT:
            return self._collect_slab(budget)[0]
        return self._emit_slab(budget)[0]

    def tick_batch(self, budget: int) -> int:
        """Fast-forward up to ``budget`` consecutive streaming ticks.

        Granted only in hot mode (no trace) while :attr:`can_batch`
        holds and every due component is a lane driving its own FIFOs,
        so nothing can observe the intermediate per-cycle FIFO states;
        the aggregate state after ``consumed`` cycles is bit-identical
        to ``consumed`` naive ticks and commits.  Batches are bounded by
        the armed FIFO stall watches (:meth:`FIFO.pop_crossing` /
        :meth:`FIFO.push_crossing`) so a stalled controller resumes on
        exactly the naive cycle.
        """
        if self._phase is _Phase.COLLECT:
            return self._batch_collect(budget)
        return self._batch_emit(budget)

    def _collect_slab(self, budget: int) -> Tuple[int, int]:
        """``(cycles, words)`` of a collect slab within ``budget``."""
        fifo = self.inputs[0]
        ready = min(self.items_in[0] - len(self._collected[0]),
                    fifo.occupancy)
        return _slab(ready, self.input_rate, fifo.pop_crossing(), budget)

    def _emit_slab(self, budget: int) -> Tuple[int, int]:
        """``(cycles, words)`` of an emit slab within ``budget``."""
        fifo = self.outputs[0]
        ready = min(self.items_out[0] - self._emitted[0],
                    fifo.free_push_words)
        return _slab(ready, self.output_rate, fifo.push_crossing(), budget)

    def _batch_collect(self, budget: int) -> int:
        cycles, words = self._collect_slab(budget)
        self._collected[0].extend(self.inputs[0].slab_pop_now(words))
        self.stats.incr("words_in", words)
        if len(self._collected[0]) >= self.items_in[0]:
            # the tick that takes the last word also transitions
            self._phase = _Phase.COMPUTE
            self._compute_at = self.now + cycles + self.compute_latency
            self.trace_event("collect_done")
        return cycles

    def _batch_emit(self, budget: int) -> int:
        cycles, words = self._emit_slab(budget)
        fifo = self.outputs[0]
        sent = self._emitted[0]
        fifo.slab_push_now(self._to_emit[0][sent:sent + words])
        fifo.note_high_water()
        self._emitted[0] = sent + words
        self.stats.incr("words_out", words)
        if self._emitted[0] >= self.items_out[0]:
            # finish on the same tick as the last push, like the
            # naive emit loop
            self._phase = _Phase.DONE
            self._finish_op()
        return cycles

    def reset(self) -> None:
        super().reset()
        self._phase = _Phase.DONE
        self._collected = []
        self._to_emit = []
        self._emitted = []
        self._compute_at = 0


def _slab(ready: int, rate: int, crossing: Optional[int],
          budget: int) -> Tuple[int, int]:
    """``(cycles, words)`` of a one-port slab: move the ``ready`` words
    at ``rate`` per cycle, but end on the cycle an armed stall watch
    crosses (``crossing`` words, see :meth:`FIFO.pop_crossing`) and
    within ``budget`` cycles."""
    cycles = -(-ready // rate)
    if crossing is not None:
        cycles = min(cycles, -(-crossing // rate))
    cycles = min(cycles, budget)
    return cycles, min(ready, cycles * rate)
