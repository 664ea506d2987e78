"""Fixed-point arithmetic helpers and golden references.

The two accelerators reproduced from the paper (the 2-D IDCT and the
Spiral-style iterative DFT) are fixed-point datapaths.  This module holds

* Q15 conversion / saturation / rounding primitives,
* the *bit-exact* fixed-point algorithms the RAC behavioural models
  execute (:func:`fft_q15`, :func:`idct2_q15`), and
* floating-point references (:func:`dft_reference`,
  :func:`idct2_reference`) used by tests to bound quantization error.

Keeping the golden arithmetic here -- rather than inside the RAC models --
lets the instruction-set-simulator software kernels, the RACs and the
tests all agree on one definition of "the right answer".
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

Q15_ONE = 1 << 15
Q15_MAX = Q15_ONE - 1
Q15_MIN = -Q15_ONE

# Number of fractional bits used by the IDCT coefficient matrix.
IDCT_COEF_BITS = 13


def saturate(value: int, lo: int = Q15_MIN, hi: int = Q15_MAX) -> int:
    """Clamp ``value`` into ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def float_to_q15(value: float) -> int:
    """Convert a float in roughly [-1, 1) to Q15 with saturation."""
    return saturate(int(round(value * Q15_ONE)))


def q15_to_float(value: int) -> float:
    return value / Q15_ONE


def q15_mul(a: int, b: int) -> int:
    """Q15 x Q15 -> Q15 with round-half-up, no saturation.

    This matches the rounding used by typical DSP multiplier blocks:
    ``(a*b + 2^14) >> 15`` in two's complement (arithmetic shift).
    """
    return (a * b + (1 << 14)) >> 15


def q15_mul_sat(a: int, b: int) -> int:
    return saturate(q15_mul(a, b))


def twiddle_table_q15(n: int) -> Tuple[List[int], List[int]]:
    """Q15 twiddle factors for an ``n``-point forward DFT.

    Returns ``(cos_table, sin_table)`` where entry ``k`` holds
    ``round(cos(2*pi*k/n) * 2^15)`` and ``round(-sin(2*pi*k/n) * 2^15)``
    saturated to Q15 (so ``cos(0)`` becomes ``Q15_MAX`` rather than
    ``2^15``, exactly as a 16-bit ROM would store it).
    """
    cos_t: List[int] = []
    sin_t: List[int] = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        cos_t.append(saturate(int(round(math.cos(angle) * Q15_ONE))))
        sin_t.append(saturate(int(round(-math.sin(angle) * Q15_ONE))))
    return cos_t, sin_t


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


# Per-size FFT plan: bit-reversal permutation, per-stage butterfly index
# arrays and twiddle tables, all as int64 ndarrays.  Sizes in practice
# are a handful of powers of two, so an unbounded cache is fine.
_FFT_PLANS: dict = {}


def _fft_plan(n: int):
    plan = _FFT_PLANS.get(n)
    if plan is None:
        stages = n.bit_length() - 1
        rev = np.array([bit_reverse(i, stages) for i in range(n)],
                       dtype=np.int64)
        cos_t, sin_t = twiddle_table_q15(n)
        cos_a = np.array(cos_t, dtype=np.int64)
        sin_a = np.array(sin_t, dtype=np.int64)
        stage_ix = []
        span = 1
        every = np.arange(n, dtype=np.int64)
        for _stage in range(stages):
            stride = n // (2 * span)
            top = every[(every & span) == 0]
            widx = (top & (span - 1)) * stride
            stage_ix.append((top, top + span, cos_a[widx], sin_a[widx]))
            span *= 2
        plan = (rev, stage_ix)
        _FFT_PLANS[n] = plan
    return plan


def fft_q15(
    re: Sequence[int], im: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Bit-exact iterative radix-2 DIT FFT in Q15.

    Scales by 1/2 at every stage, so the output equals ``DFT(x) / N`` --
    the standard fixed-point convention (guarantees no overflow).  This
    is the arithmetic the DFT RAC behavioural model executes.

    Parameters are the real and imaginary parts as Q15 integers; the
    result is returned the same way.

    Internally the butterflies of each stage run as whole-array int64
    operations; int64 ``*``, ``+`` and arithmetic ``>>`` are exact, so
    the result is bit-identical to a one-butterfly-at-a-time scalar
    reference (the oracle in ``tests/test_fixedpoint.py``).
    """
    n = len(re)
    if n != len(im):
        raise ValueError("re/im length mismatch")
    if n == 0 or n & (n - 1):
        raise ValueError(f"FFT size must be a power of two, got {n}")
    rev, stage_ix = _fft_plan(n)
    half = 1 << 14

    xr = np.asarray(re, dtype=np.int64)[rev]
    xi = np.asarray(im, dtype=np.int64)[rev]
    for top, bot, wr, wi in stage_ix:
        br = xr[bot]
        bi = xi[bot]
        tr = ((br * wr + half) >> 15) - ((bi * wi + half) >> 15)
        ti = ((br * wi + half) >> 15) + ((bi * wr + half) >> 15)
        ar = xr[top]
        ai = xi[top]
        xr[top] = (ar + tr) >> 1
        xi[top] = (ai + ti) >> 1
        xr[bot] = (ar - tr) >> 1
        xi[bot] = (ai - ti) >> 1
    return xr.tolist(), xi.tolist()


def direct_dft_q15(
    re: Sequence[int], im: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Bit-exact direct O(N^2) DFT in Q15, scaled by 1/N.

    This is the arithmetic of the hand-written "time-optimized software"
    assembly kernel run on the GPP instruction-set simulator (the paper's
    SW baseline for the DFT row of Table I).  Accumulation happens in a
    wide register (Python int), with one final shift by log2(N).
    """
    n = len(re)
    if n == 0 or n & (n - 1):
        raise ValueError(f"DFT size must be a power of two, got {n}")
    shift = n.bit_length() - 1
    cos_t, sin_t = twiddle_table_q15(n)
    out_r: List[int] = []
    out_i: List[int] = []
    for k in range(n):
        acc_r = 0
        acc_i = 0
        idx = 0
        for t in range(n):
            wr = cos_t[idx]
            wi = sin_t[idx]
            acc_r += re[t] * wr - im[t] * wi
            acc_i += re[t] * wi + im[t] * wr
            idx = (idx + k) & (n - 1)
        out_r.append(saturate((acc_r >> (15 + shift))))
        out_i.append(saturate((acc_i >> (15 + shift))))
    return out_r, out_i


def dft_reference(
    re: Sequence[int], im: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Floating point DFT/N of a Q15 signal, returned in Q15 units.

    Used by tests to bound the quantization error of :func:`fft_q15`.
    """
    x = np.asarray(re, dtype=np.float64) + 1j * np.asarray(im, dtype=np.float64)
    spectrum = np.fft.fft(x) / len(x)
    return spectrum.real, spectrum.imag


# ---------------------------------------------------------------------------
# 2-D IDCT (8x8), JPEG style
# ---------------------------------------------------------------------------

IDCT_SIZE = 8


def idct_coefficient_matrix() -> List[List[int]]:
    """The fixed-point 1-D IDCT basis matrix, ``Q(2.13)`` entries.

    ``M[n][k] = round(alpha(k) * cos((2n+1) k pi / 16) * 2^13)`` with
    ``alpha(0)=sqrt(1/8)`` and ``alpha(k)=sqrt(2/8)``; a 1-D IDCT is then
    ``out[n] = (sum_k M[n][k] * in[k]) >> 13`` (with rounding).
    """
    n_pts = IDCT_SIZE
    matrix: List[List[int]] = []
    for n in range(n_pts):
        row: List[int] = []
        for k in range(n_pts):
            alpha = math.sqrt(1.0 / n_pts) if k == 0 else math.sqrt(2.0 / n_pts)
            value = alpha * math.cos((2 * n + 1) * k * math.pi / (2 * n_pts))
            row.append(int(round(value * (1 << IDCT_COEF_BITS))))
        matrix.append(row)
    return matrix


_IDCT_MATRIX = idct_coefficient_matrix()


def idct1_q15(coefs: Sequence[int]) -> List[int]:
    """Bit-exact fixed-point 1-D 8-point IDCT (row of the 2-D transform)."""
    if len(coefs) != IDCT_SIZE:
        raise ValueError(f"expected {IDCT_SIZE} coefficients, got {len(coefs)}")
    half = 1 << (IDCT_COEF_BITS - 1)
    out: List[int] = []
    for n in range(IDCT_SIZE):
        acc = 0
        row = _IDCT_MATRIX[n]
        for k in range(IDCT_SIZE):
            acc += row[k] * int(coefs[k])
        out.append((acc + half) >> IDCT_COEF_BITS)
    return out


_IDCT_MATRIX_NP = np.array(_IDCT_MATRIX, dtype=np.int64)


def idct2_q15(block: Sequence[Sequence[int]]) -> List[List[int]]:
    """Bit-exact fixed-point 2-D 8x8 IDCT (rows then columns).

    Input: 8x8 integer DCT coefficients (JPEG dequantized range).
    Output: 8x8 integers saturated to 16 bits.  This is the arithmetic
    of the IDCT RAC and of the software IDCT kernel.

    Implemented as two int64 matrix products with rounding shifts --
    exact integer arithmetic, bit-identical to scalar :func:`idct1_q15`
    row/column passes (the oracle in ``tests/test_fixedpoint.py``).
    """
    if len(block) != IDCT_SIZE or any(len(r) != IDCT_SIZE for r in block):
        raise ValueError("block must be 8x8")
    half = 1 << (IDCT_COEF_BITS - 1)
    arr = np.asarray(block, dtype=np.int64)
    # Row pass: rows[r] = idct1(block[r]); column pass: one more 1-D
    # transform down each column of the row result.
    rows = (arr @ _IDCT_MATRIX_NP.T + half) >> IDCT_COEF_BITS
    cols = (_IDCT_MATRIX_NP @ rows + half) >> IDCT_COEF_BITS
    return np.clip(cols, -(1 << 15), (1 << 15) - 1).tolist()


def idct2_reference(block: Sequence[Sequence[int]]) -> np.ndarray:
    """Floating-point separable 2-D IDCT used to bound quantization error."""
    arr = np.asarray(block, dtype=np.float64)
    basis = np.zeros((IDCT_SIZE, IDCT_SIZE))
    for n in range(IDCT_SIZE):
        for k in range(IDCT_SIZE):
            alpha = math.sqrt(1.0 / 8) if k == 0 else math.sqrt(2.0 / 8)
            basis[n, k] = alpha * math.cos((2 * n + 1) * k * math.pi / 16)
    return basis @ arr @ basis.T


def block_to_words(block: Sequence[Sequence[int]]) -> List[int]:
    """Flatten an 8x8 block row-major into 64 sign-extended 32-bit words."""
    return [int(value) & 0xFFFFFFFF for row in block for value in row]


def words_to_block(words: Sequence[int]) -> List[List[int]]:
    """Inverse of :func:`block_to_words` (values re-signed from 32 bits)."""
    if len(words) != IDCT_SIZE * IDCT_SIZE:
        raise ValueError(f"expected 64 words, got {len(words)}")
    # (raw ^ 2**31) - 2**31 re-signs a 32-bit word
    signed = [((word & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
              for word in words]
    return [signed[start:start + IDCT_SIZE]
            for start in range(0, IDCT_SIZE * IDCT_SIZE, IDCT_SIZE)]


def complex_to_words(re: Sequence[int], im: Sequence[int]) -> List[int]:
    """Interleave Q15 (re, im) pairs into 32-bit words, one pair per word.

    Real part in bits 15:0, imaginary part in bits 31:16 -- the packing
    used on the DFT RAC's 32-bit FIFO interface.
    """
    if len(re) != len(im):
        raise ValueError("re/im length mismatch")
    return [((int(i) & 0xFFFF) << 16) | (int(r) & 0xFFFF)
            for r, i in zip(re, im)]


def _int_array(values: object) -> "np.ndarray | None":
    """``values`` as an int64 array when NumPy infers an integer (or
    bool) array for it, else None: a value outside int64 (NumPy infers
    float or object) or a non-integer element keeps the scalar path,
    so the vectorised callers raise exactly what it raises."""
    array = np.array(values)
    if array.dtype.kind not in "iub":
        return None
    return array.astype(np.int64)


def interleave_complex(re: Sequence[int], im: Sequence[int]) -> List[int]:
    """Interleave (re, im) into separate sign-extended 32-bit words.

    Word ``2i`` holds ``re[i]``, word ``2i+1`` holds ``im[i]`` -- the
    transfer format of the DFT RAC (two words per complex point, which
    is what makes the paper's 256-point DFT move 1024 words total).
    """
    if len(re) != len(im):
        raise ValueError("re/im length mismatch")
    pairs = _int_array((re, im))
    if pairs is None:
        return [int(value) & 0xFFFFFFFF
                for pair in zip(re, im) for value in pair]
    return (pairs.T & 0xFFFFFFFF).ravel().tolist()


def deinterleave_complex(words: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Inverse of :func:`interleave_complex` (values re-signed)."""
    if len(words) % 2:
        raise ValueError("interleaved stream must have even length")
    array = _int_array(words)
    if array is None:
        def resign(word: int) -> int:
            word &= 0xFFFFFFFF
            return word - (1 << 32) if word & (1 << 31) else word

        return ([resign(w) for w in words[0::2]],
                [resign(w) for w in words[1::2]])
    array &= 0xFFFFFFFF
    array -= (array & 0x80000000) << 1
    return array[0::2].tolist(), array[1::2].tolist()


def words_to_complex(words: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Inverse of :func:`complex_to_words`."""
    re: List[int] = []
    im: List[int] = []
    for word in words:
        r = word & 0xFFFF
        i = (word >> 16) & 0xFFFF
        re.append(r - (1 << 16) if r & 0x8000 else r)
        im.append(i - (1 << 16) if i & 0x8000 else i)
    return re, im
