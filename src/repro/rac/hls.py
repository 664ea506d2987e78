"""HLS-style RAC wrapper generation.

The paper's future work: "automatic generation of Ouessant interfaces
for High-Level Synthesis of accelerators is under study."  This module
realizes that idea at the behavioural level: give it a pure Python
function over integer blocks plus a latency/interface specification,
and it produces a ready-to-integrate :class:`~repro.rac.base.RAC` --
the same contract an HLS flow would emit RTL against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from ..sim.errors import ConfigurationError
from .base import MultiPortRAC, RACPortSpec, StreamingRAC


@dataclass(frozen=True)
class HLSInterfaceSpec:
    """Interface contract for a generated accelerator.

    Attributes
    ----------
    items_in / items_out:
        Words per operation on each input/output port.
    input_widths / output_widths:
        Accelerator-side port widths in bits (default: all 32).
    initiation_interval:
        Cycles between accepted input words (1 = fully pipelined).
    pipeline_depth:
        Latency from last input to first output, in cycles.
    """

    items_in: Sequence[int]
    items_out: Sequence[int]
    input_widths: Sequence[int] = field(default=())
    output_widths: Sequence[int] = field(default=())
    initiation_interval: int = 1
    pipeline_depth: int = 4

    def resolved_input_widths(self) -> List[int]:
        return list(self.input_widths) or [32] * len(self.items_in)

    def resolved_output_widths(self) -> List[int]:
        return list(self.output_widths) or [32] * len(self.items_out)


def wrap_function(
    name: str,
    fn: Callable[[List[List[int]]], List[List[int]]],
    spec: HLSInterfaceSpec,
    fifo_depth: int = 64,
) -> StreamingRAC:
    """Generate a RAC from a block function and an interface spec.

    ``fn`` receives one word list per input port and must return one
    word list per output port (unsigned 32-bit word values).  The
    generated accelerator obeys ``spec``'s timing: it accepts one word
    every ``initiation_interval`` cycles and produces its first output
    ``pipeline_depth`` cycles after the last input.

    Raises
    ------
    ConfigurationError
        If the spec is inconsistent (empty ports, bad timing values).
    """
    if spec.initiation_interval < 1:
        raise ConfigurationError("initiation_interval must be >= 1")
    if spec.pipeline_depth < 0:
        raise ConfigurationError("pipeline_depth must be >= 0")
    if not spec.items_in or not spec.items_out:
        raise ConfigurationError("spec needs at least one port per side")

    ports = RACPortSpec(
        spec.resolved_input_widths(),
        spec.resolved_output_widths(),
        fifo_depth=fifo_depth,
    )
    # II > 1 is modelled by slowing the input side down: a core that
    # accepts a word every II cycles is equivalent (at block granularity)
    # to consuming 1 word per cycle but waiting (II-1) extra cycles per
    # word in the compute phase.
    extra = (spec.initiation_interval - 1) * sum(spec.items_in)
    single = len(spec.items_in) == 1 == len(spec.items_out)
    rac = (StreamingRAC if single else MultiPortRAC)(
        name,
        items_in=list(spec.items_in),
        items_out=list(spec.items_out),
        compute_fn=fn,
        compute_latency=spec.pipeline_depth + extra,
        ports=ports,
    )
    rac.kind = f"hls:{name}"
    return rac
