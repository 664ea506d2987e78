"""Fixed-point matrix-multiply RAC.

A fourth accelerator demonstrating that "adding new accelerators is
also made easier": a systolic-array-style N x N matrix multiplier with
the weight matrix loaded through the dedicated configuration FIFO
(port 1) and activations streamed through port 0 -- the structure of
every neural-network / linear-algebra offload engine.

Data format: row-major, one sign-extended Q15 element per 32-bit word.
Result: ``C = sat((A @ B) >> 15)`` element-wise in Q15 (activations A
on port 0, weights B on the config port).
"""

from __future__ import annotations

from typing import List

from ..sim.errors import ConfigurationError
from ..utils.bits import to_signed
from ..utils.fixedpoint import saturate
from .base import RACPortSpec, StreamingRAC


def matmul_q15(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    """Bit-exact golden model: Q15 matrix product with wide accumulate."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n or any(
        len(row) != n for row in b
    ):
        raise ValueError("matrices must be square and equal-sized")
    out: List[List[int]] = []
    for i in range(n):
        row: List[int] = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += a[i][k] * b[k][j]
            row.append(saturate(acc >> 15))
        out.append(row)
    return out


def _to_matrix(words: List[int], n: int) -> List[List[int]]:
    return [[to_signed(words[i * n + j]) for j in range(n)] for i in range(n)]


class MatMulRac(StreamingRAC):
    """N x N Q15 matrix multiplier behind FIFO ports.

    Latency model: an N-wide systolic row pipeline computes one output
    row per N cycles after an N-cycle fill -- ``N*N + 2N`` cycles per
    operation.
    """

    kind = "matmul"

    def __init__(
        self, n: int = 8, name: str = "matmul", fifo_depth: int = 64
    ) -> None:
        if not 2 <= n <= 64:
            raise ConfigurationError(f"matrix size {n} out of range [2, 64]")
        self.n = n
        words = n * n

        def compute(collected: List[List[int]]) -> List[List[int]]:
            a = _to_matrix(collected[0], n)
            b = _to_matrix(collected[1], n)
            product = matmul_q15(a, b)
            return [[v & 0xFFFFFFFF for row in product for v in row]]

        super().__init__(
            name,
            items_in=[words, words],
            items_out=[words],
            compute_fn=compute,
            compute_latency=n * n + 2 * n,
            ports=RACPortSpec([32, 32], [32], fifo_depth=fifo_depth),
        )
