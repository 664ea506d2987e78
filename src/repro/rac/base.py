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
from typing import Callable, List, Optional, Sequence

from ..sim.errors import ConfigurationError, RACError
from ..sim.kernel import Component, inlined_claim
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
        self.stats.counts["start_ops"] += 1
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

#: the :class:`StreamingRAC` hooks that a RAC with one port each way
#: runs as straight single-port bodies (``_<name>_single``), chosen at
#: construction unless its class overrides the general one
SINGLE_STREAM_BODIES = ("_collect", "_emit")


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
    autostart:
        When True (default) the accelerator consumes input as soon as
        it appears in the FIFOs -- the behaviour Figure 4's microcode
        relies on (eight ``mvtc`` fill transfers before ``execs``).
        When False, collection begins only at ``start_op``.

    Each port moves one word per cycle while streaming.  :meth:`tick`
    and the hot batch lane's :meth:`tick_batch` share one body,
    :meth:`_collect` / :meth:`_emit`, which runs a given number of
    those cycles at once.  A RAC with one port each way (every RAC of
    the paper) gets straight single-port bodies of those two at
    construction (:data:`SINGLE_STREAM_BODIES`); a multi-port RAC loops
    over its ports.
    """

    kind = "streaming"

    def __init__(
        self,
        name: str,
        items_in: Sequence[int],
        items_out: Sequence[int],
        compute_fn: ComputeFn,
        compute_latency: int = 1,
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
        if min(items_in, default=0) < 1 or min(items_out, default=0) < 1:
            raise ConfigurationError(
                f"{name}: items per operation must be >= 1")
        super().__init__(name, ports)
        self.items_in = list(items_in)
        self.items_out = list(items_out)
        self.compute_fn = compute_fn
        self.compute_latency = compute_latency
        self.autostart = autostart
        self._phase = _Phase.DONE
        self._collected: List[List[int]] = []
        self._to_emit: List[List[int]] = []
        self._emitted: List[int] = []
        #: the cycle the compute fires: ``compute_latency`` cycles after
        #: the tick that completes collection (None outside COMPUTE)
        self._compute_at: Optional[int] = None
        #: what the claim of a RAC with one port each way reads: its
        #: FIFOs (bound in :meth:`bind`; None on a multi-port RAC), the
        #: words left to collect (an autostart RAC at rest awaits its
        #: next operation's) and the words left to emit
        self._in: Optional[FIFO] = None
        self._out: Optional[FIFO] = None
        self._to_collect = self._at_rest()
        self._to_send = 0
        #: one input and one output port, stock collect/compute/emit
        #: behaviour: the shape the batch lane handles
        self._single_stream = (n_in == 1 and n_out == 1
                               and type(self).tick is StreamingRAC.tick)
        if n_in == 1 and n_out == 1 and all(
                getattr(type(self), name) is getattr(StreamingRAC, name)
                for name in SINGLE_STREAM_BODIES):
            # one port each way: the straight single-port bodies, chosen
            # once here instead of a loop over the ports on every call
            for name in SINGLE_STREAM_BODIES:
                setattr(self, name,
                        getattr(self, f"_{name.lstrip('_')}_single"))

    def bind(self, inputs: List[FIFO], outputs: List[FIFO]) -> None:
        super().bind(inputs, outputs)
        single = len(self.inputs) == 1 == len(self.outputs)
        self._in = self.inputs[0] if single else None
        self._out = self.outputs[0] if single else None

    def _at_rest(self) -> int:
        """Words an idle RAC awaits: its next operation's, if autostart
        collects them as they arrive."""
        return self.items_in[0] if self.autostart else 0

    @property
    def op_ticks(self) -> int:
        """Ticks of one operation, input ready and output unblocked:
        collect, ``compute_latency``, emit (firing on the first emit)."""
        return (max(self.items_in) + self.compute_latency
                + max(self.items_out))

    # -- handshake ---------------------------------------------------------
    def start_op(self) -> None:
        super().start_op()
        if self._phase is _Phase.DONE:
            self._begin_collect()

    def _begin_collect(self) -> None:
        self._phase = _Phase.COLLECT
        self._to_collect = self.items_in[0]
        self._collected = [[] for _ in self.items_in]
        self._to_emit = []
        self._emitted = []

    # -- quiescence protocol -------------------------------------------------
    #: A RAC with one port each way is due while a word it awaits is in
    #: its input FIFO (collecting, or at rest under autostart) or while
    #: it has words to emit and output space; computing, it wakes at the
    #: deadline.  The walk inlines this claim; a multi-port RAC answers
    #: through the port loops of :meth:`_port_claim`, called in place
    #: (a :class:`MultiPortRAC` has them polled and cached instead).
    next_activity = inlined_claim(
        "{c}._port_claim() if {c}._in is None"
        " else ({now} if {c}._in.occupancy else None) if {c}._to_collect"
        " else ({now} if {c}._out.free_push_words else None)"
        " if {c}._to_send else {c}._compute_at")

    def _port_claim(self) -> Optional[int]:
        """The claim of a RAC with several ports on a side."""
        phase = self._phase
        if phase is _Phase.COMPUTE:
            # pipeline latency: nothing happens until the deadline
            return self._compute_at
        now = self.sim.cycle
        if phase is _Phase.DONE:
            if self.autostart:
                for fifo in self.inputs:
                    if fifo.occupancy:
                        return now
            return None  # woken by data arriving or by start_op
        if phase is _Phase.COLLECT:
            complete = True
            for port, fifo in enumerate(self.inputs):
                if len(self._collected[port]) < self.items_in[port]:
                    complete = False
                    if fifo.occupancy > 0:
                        return now  # words to take this cycle
            # complete: the transition to COMPUTE is due this cycle;
            # otherwise starved until a FIFO fills
            return now if complete else None
        # EMIT: progress whenever any unfinished port has FIFO space
        for port, fifo in enumerate(self.outputs):
            if (self._emitted[port] < self.items_out[port]
                    and fifo.free_push_words):
                return now
        return None  # all remaining output FIFOs are full

    # -- per-cycle behaviour -----------------------------------------------
    def tick(self) -> None:
        if self._phase is _Phase.DONE:
            if not self.autostart:
                return
            for fifo in self.inputs:
                if fifo.occupancy:
                    break
            else:
                return
            self._begin_collect()
        if self._phase is _Phase.COLLECT:
            self._collect(1)
        elif self._phase is _Phase.COMPUTE:
            self._tick_compute()
        if self._phase is _Phase.EMIT:
            self._emit(1)

    def _collect(self, cycles: int) -> None:
        """``cycles`` collect ticks: each takes one word per input port
        that still needs one; the tick that takes the last word
        schedules the compute."""
        done = True
        for port, fifo in enumerate(self.inputs):
            collected = self._collected[port]
            take = self.items_in[port] - len(collected)
            if cycles < take:
                take = cycles
            if fifo.occupancy < take:
                take = fifo.occupancy
            if take:
                collected.extend(fifo.pop_many(take))
                self.stats.counts["words_in"] += take
            if len(collected) < self.items_in[port]:
                done = False
        self._to_collect = self.items_in[0] - len(self._collected[0])
        if done:
            self._phase = _Phase.COMPUTE
            self._compute_at = (self.sim.cycle + cycles
                                + self.compute_latency)
            self.trace_event("collect_done")

    def _collect_single(self, cycles: int) -> None:
        """:meth:`_collect` of a RAC with one port each way."""
        collected = self._collected[0]
        fifo = self.inputs[0]
        take = self._to_collect
        if cycles < take:
            take = cycles
        if fifo.occupancy < take:
            take = fifo.occupancy
        if take:
            collected.extend(fifo.pop_many(take))
            self.stats.counts["words_in"] += take
        self._to_collect = left = self._to_collect - take
        if not left:
            self._phase = _Phase.COMPUTE
            self._compute_at = (self.sim.cycle + cycles
                                + self.compute_latency)
            self.trace_event("collect_done")

    def _tick_compute(self) -> None:
        if self.sim.cycle < self._compute_at:
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
        self._to_send = self.items_out[0]
        self._compute_at = None
        self._phase = _Phase.EMIT
        self.trace_event("compute_done")

    def _emit(self, cycles: int) -> None:
        """``cycles`` emit ticks: each pushes one word per output port
        that has one left and FIFO space; the op ends on the tick of
        the last push."""
        all_done = True
        for port, fifo in enumerate(self.outputs):
            sent = self._emitted[port]
            total = self.items_out[port]
            words = total - sent
            if cycles < words:
                words = cycles
            if fifo.free_push_words < words:
                words = fifo.free_push_words
            if words:
                fifo.push_many(self._to_emit[port][sent:sent + words])
                self._emitted[port] = sent = sent + words
                self.stats.counts["words_out"] += words
            if sent < total:
                all_done = False
        self._to_send = self.items_out[0] - self._emitted[0]
        if all_done:
            self._phase = _Phase.DONE
            self._to_collect = self._at_rest()
            self._finish_op()

    def _emit_single(self, cycles: int) -> None:
        """:meth:`_emit` of a RAC with one port each way."""
        fifo = self.outputs[0]
        sent = self._emitted[0]
        total = self.items_out[0]
        words = total - sent
        if cycles < words:
            words = cycles
        if fifo.free_push_words < words:
            words = fifo.free_push_words
        if words:
            fifo.push_many(self._to_emit[0][sent:sent + words])
            self._emitted[0] = sent = sent + words
            self.stats.counts["words_out"] += words
        self._to_send = total - sent
        if sent >= total:
            self._phase = _Phase.DONE
            self._to_collect = self._at_rest()
            self._finish_op()

    # -- hot-mode batch lane -------------------------------------------------
    @property
    def can_batch(self) -> bool:  # type: ignore[override]
        """True while :meth:`tick_batch` would move words: a
        single-stream RAC with input still to collect, or emitting.

        Phase transitions (autostart pickup, compute expiry, a tick
        that completes collection) stay single dispatched cycles.  An
        output FIFO overriding ``push_many`` (fault injection) keeps
        the emit on single ticks, where it sees every word on its
        naive cycle.
        """
        phase = self._phase
        if phase is _Phase.EMIT:
            return (self._single_stream
                    and type(self.outputs[0]).push_many is FIFO.push_many)
        return (phase is _Phase.COLLECT and self._single_stream
                and self._to_collect > 0)

    def batch_span(self, budget: int) -> int:
        """Cycles :meth:`tick_batch` would consume: one per word it can
        move, ending on the cycle an armed FIFO stall watch crosses
        (:meth:`FIFO.pop_crossing` / :meth:`FIFO.push_crossing`)."""
        if self._phase is _Phase.COLLECT:
            fifo = self.inputs[0]
            ready = self._to_collect
            if fifo.occupancy < ready:
                ready = fifo.occupancy
            crossing = fifo.pop_crossing()
        else:
            fifo = self.outputs[0]
            ready = self._to_send
            if fifo.free_push_words < ready:
                ready = fifo.free_push_words
            crossing = fifo.push_crossing()
        if crossing is not None and crossing < ready:
            ready = crossing
        return ready if ready < budget else budget

    def tick_batch(self, budget: int) -> int:
        """Fast-forward :meth:`batch_span` consecutive streaming ticks.

        The span runs through the same :meth:`_collect` / :meth:`_emit`
        body as :meth:`tick`, then commits the one FIFO it moved words
        through -- exactly the commit a naive cycle would run.  Granted
        only in hot mode (no trace) while :attr:`can_batch` holds and
        every due component is a lane driving its own FIFOs, so
        nothing observes the intermediate per-cycle FIFO states; the
        span ends where an armed stall watch crosses, so a stalled
        controller resumes on exactly the naive cycle.
        """
        cycles = self.batch_span(budget)
        if self._phase is _Phase.COLLECT:
            self._collect(cycles)
            self.inputs[0].commit()
        else:
            self._emit(cycles)
            self.outputs[0].commit()
        return cycles

    def reset(self) -> None:
        super().reset()
        self._phase = _Phase.DONE
        self._collected = []
        self._to_emit = []
        self._emitted = []
        self._compute_at = None
        self._to_collect = self._at_rest()
        self._to_send = 0


class MultiPortRAC(StreamingRAC):
    """A :class:`StreamingRAC` built with several ports on a side (FIR,
    MatMul, a multi-port HLS core).  Its claim is the port loop of
    :meth:`_port_claim`, which the walk polls once and caches until a
    poke, where an inlined call would run it at every scan."""

    next_activity = StreamingRAC._port_claim
