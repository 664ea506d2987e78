"""Trivial accelerators for tests, bring-up and the quickstart example.

On the real platform "the OCP integration on the bus had already been
validated" with simple cores before the DFT was dropped in; these play
that role here.
"""

from __future__ import annotations

from typing import List

from ..sim.errors import ConfigurationError
from ..utils.bits import to_signed
from .base import RACPortSpec, StreamingRAC


class PassthroughRac(StreamingRAC):
    """Loopback: emits its input block unchanged (latency configurable)."""

    kind = "passthrough"

    def __init__(
        self,
        name: str = "loopback",
        block_size: int = 16,
        compute_latency: int = 1,
        fifo_depth: int = 64,
        autostart: bool = True,
    ) -> None:
        super().__init__(
            name,
            items_in=[block_size],
            items_out=[block_size],
            compute_fn=lambda collected: [list(collected[0])],
            compute_latency=compute_latency,
            ports=RACPortSpec([32], [32], fifo_depth=fifo_depth),
            autostart=autostart,
        )
        self.block_size = block_size


class ScaleRac(StreamingRAC):
    """Fixed-point scaler: ``y = (x * factor) >> shift`` per word.

    The quickstart accelerator: simple enough to follow every word
    through the OCP, real enough to show signed datapath behaviour.
    """

    kind = "scale"

    def __init__(
        self,
        name: str = "scale",
        block_size: int = 16,
        factor: int = 3,
        shift: int = 1,
        fifo_depth: int = 64,
    ) -> None:
        if shift < 0 or shift > 31:
            raise ConfigurationError("shift must be in [0, 31]")
        self.block_size = block_size
        self.factor = factor
        self.shift = shift

        def compute(collected: List[List[int]]) -> List[List[int]]:
            out = [
                ((to_signed(word) * factor) >> shift) & 0xFFFFFFFF
                for word in collected[0]
            ]
            return [out]

        super().__init__(
            name,
            items_in=[block_size],
            items_out=[block_size],
            compute_fn=compute,
            compute_latency=2,
            ports=RACPortSpec([32], [32], fifo_depth=fifo_depth),
        )
