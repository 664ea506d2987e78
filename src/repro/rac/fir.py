"""FIR filter RAC with a dedicated configuration FIFO.

Section III-B: "The number of input and output interfaces can be
adapted according to the accelerator requirements.  For example, a
dedicated configuration FIFO can be added if the accelerator requires
additional configuration."

This accelerator demonstrates exactly that: port 0 streams the signal
block, port 1 receives the filter taps (the configuration), and one
output port streams the filtered block.  It is the third integrated
accelerator of the reproduction (beyond the paper's IDCT and DFT),
showing that adding a new RAC requires no change anywhere else.
"""

from __future__ import annotations

from typing import List

from ..sim.errors import ConfigurationError
from ..utils.bits import to_signed
from ..utils.fixedpoint import saturate
from .base import MultiPortRAC, RACPortSpec


def fir_q15(samples: List[int], taps: List[int]) -> List[int]:
    """Bit-exact Q15 FIR: ``y[n] = sat(sum_t h[t] * x[n-t] >> 15)``.

    Samples before the block are taken as zero (block-boundary
    convention of the hardware, which starts from a flushed delay
    line).
    """
    out: List[int] = []
    for n in range(len(samples)):
        acc = 0
        for t, tap in enumerate(taps):
            if n - t < 0:
                break
            acc += tap * samples[n - t]
        out.append(saturate(acc >> 15))
    return out


class FIRRac(MultiPortRAC):
    """Block FIR filter: data on port 0, taps on config port 1.

    Parameters
    ----------
    block_size:
        Samples consumed/produced per operation.
    n_taps:
        Filter length (taps loaded through the configuration FIFO on
        every operation, so the filter can be retuned per block).
    """

    kind = "fir"

    def __init__(
        self,
        name: str = "fir",
        block_size: int = 128,
        n_taps: int = 16,
        fifo_depth: int = 64,
    ) -> None:
        if block_size < 1 or n_taps < 1:
            raise ConfigurationError("block_size and n_taps must be >= 1")
        self.block_size = block_size
        self.n_taps = n_taps

        def compute(collected: List[List[int]]) -> List[List[int]]:
            samples = [to_signed(w) for w in collected[0]]
            taps = [to_signed(w) for w in collected[1]]
            filtered = fir_q15(samples, taps)
            return [[v & 0xFFFFFFFF for v in filtered]]

        super().__init__(
            name,
            items_in=[block_size, n_taps],
            items_out=[block_size],
            compute_fn=compute,
            # one MAC per tap per sample, `n_taps` parallel MACs assumed:
            # a new sample every cycle plus a short drain.
            compute_latency=block_size + n_taps,
            ports=RACPortSpec([32, 32], [32], fifo_depth=fifo_depth),
        )
