"""Waveform probing: sample simulation state into a VCD.

The original project was debugged in RTL simulation; the equivalent
workflow here is a :class:`WaveformProbe` that samples chosen signals
(any zero-argument callables returning ints) every cycle and emits a
value-change dump viewable in GTKWave.

Example, with :data:`repro.core.controller.STATE_CODES`::

    vcd = VCDWriter(timescale="20ns")   # 50 MHz
    probe = WaveformProbe("probe", vcd, {
        "ctrl_state": lambda: STATE_CODES[ocp.controller.state],
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
    """Samples named signals into a :class:`VCDWriter` every cycle.

    A probe never declares quiescence, so every cycle is dispatched
    while one is registered; the components it samples keep their own
    claims, and their cycle statistics read live.  A cycle statistic
    sampled after its owner's tick counts the cycles before the
    current one.
    """

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
    from ..core.controller import STATE_CODES  # core imports sim
    signals: Dict[str, Signal] = {
        "ctrl_state": lambda: STATE_CODES[ocp.controller.state],
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
