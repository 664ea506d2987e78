"""Waveform probing: sample simulation state into a VCD.

The original project was debugged in RTL simulation; the equivalent
workflow here is a :class:`WaveformProbe` that samples chosen signals
(any zero-argument callables returning ints) every cycle and emits a
value-change dump viewable in GTKWave.

Example::

    vcd = VCDWriter(timescale="20ns")   # 50 MHz
    probe = WaveformProbe("probe", vcd, {
        "ctrl_state": lambda: hash(ocp.controller.state) & 0xF,
        "fifo_in_level": lambda: ocp.fifos_in[0].occupancy,
        "irq": lambda: int(ocp.irq.pending),
    })
    sim.add(probe)
    ...
    vcd.write("run.vcd")
"""

from __future__ import annotations

from typing import Callable, Dict

from .kernel import Component
from .tracing import VCDWriter

Signal = Callable[[], int]


class WaveformProbe(Component):
    """Samples named signals into a :class:`VCDWriter` every cycle."""

    #: a probe samples live per-cycle state (FIFO levels, bus counters)
    #: that the fast schedule reconciles lazily: while one is
    #: registered the kernel runs the naive stepper
    requires_full_dispatch = True

    def __init__(
        self,
        name: str,
        vcd: VCDWriter,
        signals: Dict[str, Signal],
        width_hint: int = 8,
    ) -> None:
        super().__init__(name)
        self.vcd = vcd
        self.signals = dict(signals)
        for signal_name in self.signals:
            vcd.register(signal_name, width=width_hint)
        self.samples = 0

    def tick(self) -> None:
        for signal_name, fn in self.signals.items():
            self.vcd.change(self.now, signal_name, int(fn()))
        self.samples += 1


def ocp_probe(name: str, vcd: VCDWriter, ocp) -> WaveformProbe:
    """Standard probe set for one coprocessor.

    Captures the controller FSM (as a small enum code), the first
    input/output FIFO levels, the busy/done handshake and the IRQ line
    -- the signals one watches when bringing up an OCP.
    """
    state_codes = {
        "idle": 0, "prefetch": 1, "fetch": 2, "decode": 3,
        "xfer_to": 4, "xfer_from": 5, "exec_wait": 6, "waiting": 7,
        "waitf": 8, "halted": 9,
    }
    signals: Dict[str, Signal] = {
        "ctrl_state": lambda: state_codes.get(ocp.controller.state, 15),
        "irq": lambda: int(ocp.irq.pending),
        "done": lambda: int(ocp.done),
    }
    if ocp.fifos_in:
        fifo_in = ocp.fifos_in[0]
        signals["fifo_in_level"] = lambda: fifo_in.occupancy
    if ocp.fifos_out:
        fifo_out = ocp.fifos_out[0]
        signals["fifo_out_level"] = lambda: fifo_out.occupancy
    if ocp.rac is not None:
        rac = ocp.rac
        signals["rac_end_op"] = lambda: int(rac.end_op)
    return WaveformProbe(name, vcd, signals)
