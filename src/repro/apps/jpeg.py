"""JPEG-style image codec around the IDCT accelerator.

The paper motivates the IDCT RAC with JPEG decoding; this module is
the decoder pipeline around it: forward DCT + quantization (the
"encoder" producing test bitstreams), zig-zag coefficient ordering,
and a block decoder that can run on the OCP (hardware), on the ISS
software kernel, or on the pure golden model -- all bit-identical,
since they share the fixed-point arithmetic.

Entropy coding is out of scope (it never touches the accelerator);
blocks are carried as plain coefficient arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.software import software_idct
from ..sim.errors import ConfigurationError
from ..sw.library import OuessantLibrary
from ..utils.fixedpoint import idct2_q15

#: JPEG Annex K luminance quantization table
LUMA_QUANT = [
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
]


def zigzag_order() -> List[Tuple[int, int]]:
    """The 64 (row, col) pairs in JPEG zig-zag order."""
    order: List[Tuple[int, int]] = []
    for s in range(15):
        diag = [(r, s - r) for r in range(8) if 0 <= s - r < 8]
        order.extend(diag if s % 2 else reversed(diag))
    return order


_ZIGZAG = zigzag_order()

#: per block row, the zig-zag index of each of its entries
_UNZIGZAG = [[_ZIGZAG.index((r, c)) for c in range(8)] for r in range(8)]


def to_zigzag(block: Sequence[Sequence[int]]) -> List[int]:
    """8x8 block -> 64-entry zig-zag vector."""
    return [block[r][c] for r, c in _ZIGZAG]


def from_zigzag(vector: Sequence[int]) -> List[List[int]]:
    """64-entry zig-zag vector -> 8x8 block."""
    if len(vector) != 64:
        raise ConfigurationError(f"expected 64 coefficients, got {len(vector)}")
    return [[int(vector[index]) for index in row] for row in _UNZIGZAG]


def _dct_basis() -> np.ndarray:
    basis = np.zeros((8, 8))
    for n in range(8):
        for k in range(8):
            alpha = np.sqrt(1 / 8) if k == 0 else np.sqrt(2 / 8)
            basis[n, k] = alpha * np.cos((2 * n + 1) * k * np.pi / 16)
    return basis


_BASIS = _dct_basis()


def quality_scaled_table(quality: int) -> List[List[int]]:
    """IJG quality scaling (1..100) of the luminance table."""
    if not 1 <= quality <= 100:
        raise ConfigurationError(f"quality {quality} outside [1, 100]")
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    table = []
    for row in LUMA_QUANT:
        table.append([
            int(min(255, max(1, (v * scale + 50) // 100))) for v in row
        ])
    return table


class EncodedImage:
    """Quantized DCT coefficients of one greyscale image."""

    def __init__(
        self,
        height: int,
        width: int,
        quant: List[List[int]],
        blocks: Dict[Tuple[int, int], List[int]],
    ) -> None:
        self.height = height
        self.width = width
        self.quant = quant
        self.blocks = blocks  # (by, bx) -> zig-zag coefficient vector

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def encode(image: np.ndarray, quality: int = 75) -> EncodedImage:
    """Forward DCT + quantization, 8x8 block by block.

    ``image`` must be a 2-D array with dimensions divisible by 8,
    values in roughly [-128, 127] (level-shifted samples).
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] % 8 or image.shape[1] % 8:
        raise ConfigurationError(
            "image must be 2-D with dimensions divisible by 8"
        )
    quant = quality_scaled_table(quality)
    quant_arr = np.array(quant, dtype=float)
    blocks: Dict[Tuple[int, int], List[int]] = {}
    for by in range(0, image.shape[0], 8):
        for bx in range(0, image.shape[1], 8):
            tile = image[by:by + 8, bx:bx + 8]
            coefs = _BASIS.T @ tile @ _BASIS
            quantized = np.round(coefs / quant_arr).astype(int)
            blocks[(by, bx)] = to_zigzag(quantized.tolist())
    return EncodedImage(image.shape[0], image.shape[1], quant, blocks)


class JPEGDecoder:
    """Block decoder with selectable IDCT backend.

    Parameters
    ----------
    library:
        When given, blocks are decoded on the IDCT RAC through this
        :class:`~repro.sw.library.OuessantLibrary` ("hardware").  When
        ``None``, the pure golden model is used.
    use_iss:
        Decode on the instruction-set simulator's software kernel
        instead (the SW baseline); mutually exclusive with ``library``.
    """

    def __init__(
        self,
        library: Optional[OuessantLibrary] = None,
        use_iss: bool = False,
    ) -> None:
        if library is not None and use_iss:
            raise ConfigurationError("choose one backend, not both")
        self.library = library
        self.use_iss = use_iss
        self.cycles = 0
        self.blocks_decoded = 0

    def _idct(self, block: List[List[int]]) -> List[List[int]]:
        if self.library is not None:
            result = self.library.idct(block)
            assert self.library.last_result is not None
            self.cycles += self.library.last_result.total_cycles
            return result
        if self.use_iss:
            result, run = software_idct(block)
            self.cycles += run.cycles
            return result
        return idct2_q15(block)

    def decode(self, encoded: EncodedImage) -> np.ndarray:
        """Dequantize + IDCT every block; returns the decoded image."""
        image = np.zeros((encoded.height, encoded.width), dtype=int)
        quant = np.array(encoded.quant, dtype=int)
        for (by, bx), vector in encoded.blocks.items():
            coefs = np.array(from_zigzag(vector), dtype=int) * quant
            tile = self._idct(coefs.tolist())
            image[by:by + 8, bx:bx + 8] = tile
            self.blocks_decoded += 1
        return image


def psnr(reference: np.ndarray, decoded: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB."""
    mse = float(np.mean((np.asarray(reference, dtype=float)
                         - np.asarray(decoded, dtype=float)) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def test_card(size: int = 64) -> np.ndarray:
    """Synthetic greyscale test image (level-shifted to [-128, 127])."""
    y, x = np.mgrid[0:size, 0:size]
    image = 40 * np.sin(2 * np.pi * x / size) + 30 * np.cos(
        2 * np.pi * y / (size / 2)
    )
    disc = ((x - size / 2) ** 2 + (y - size / 2) ** 2) < (size / 4) ** 2
    image = image + 50 * disc
    return np.clip(image, -128, 127)
