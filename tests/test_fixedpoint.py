"""Tests for the fixed-point golden models (Q15, FFT, IDCT, packing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import fixedpoint as fp

q15 = st.integers(fp.Q15_MIN, fp.Q15_MAX)


@given(st.floats(-2.0, 2.0, allow_nan=False))
def test_float_q15_roundtrip_saturates(value):
    q = fp.float_to_q15(value)
    assert fp.Q15_MIN <= q <= fp.Q15_MAX
    if -1.0 < value < 0.999:
        assert abs(fp.q15_to_float(q) - value) < 1e-4


@given(q15, q15)
def test_q15_mul_close_to_real_product(a, b):
    got = fp.q15_mul(a, b)
    expected = (a / fp.Q15_ONE) * (b / fp.Q15_ONE)
    assert abs(got / fp.Q15_ONE - expected) <= 1.0 / fp.Q15_ONE


def test_q15_mul_rounds_half_up():
    # 0.5 * 0.5 = 0.25 exactly
    half = 1 << 14
    assert fp.q15_mul(half, half) == 1 << 13


@given(q15, q15)
def test_q15_mul_sat_bounded(a, b):
    assert fp.Q15_MIN <= fp.q15_mul_sat(a, b) <= fp.Q15_MAX


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_twiddle_tables_match_trig(n):
    cos_t, sin_t = fp.twiddle_table_q15(n)
    ks = np.arange(n)
    np.testing.assert_allclose(
        np.array(cos_t) / fp.Q15_ONE, np.cos(2 * np.pi * ks / n), atol=2e-4
    )
    np.testing.assert_allclose(
        np.array(sin_t) / fp.Q15_ONE, -np.sin(2 * np.pi * ks / n), atol=2e-4
    )


@given(st.integers(0, 255))
def test_bit_reverse_involution(value):
    assert fp.bit_reverse(fp.bit_reverse(value, 8), 8) == value


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_fft_q15_matches_float_reference(n, ):
    rng = np.random.default_rng(n)
    re = [int(v) for v in rng.integers(-12000, 12000, n)]
    im = [int(v) for v in rng.integers(-12000, 12000, n)]
    out_re, out_im = fp.fft_q15(re, im)
    ref_re, ref_im = fp.dft_reference(re, im)
    # per-stage scaling truncation: error grows with log2(n)
    tol = 2 * int(np.log2(n)) + 2
    assert np.max(np.abs(np.array(out_re) - ref_re)) <= tol
    assert np.max(np.abs(np.array(out_im) - ref_im)) <= tol


def test_fft_q15_impulse_is_flat():
    n = 16
    re = [fp.Q15_MAX] + [0] * (n - 1)
    out_re, out_im = fp.fft_q15(re, [0] * n)
    expected = fp.Q15_MAX // n
    assert all(abs(v - expected) <= 2 for v in out_re)
    assert all(abs(v) <= 2 for v in out_im)


def test_fft_q15_rejects_bad_sizes():
    with pytest.raises(ValueError):
        fp.fft_q15([0] * 12, [0] * 12)
    with pytest.raises(ValueError):
        fp.fft_q15([0] * 8, [0] * 4)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_direct_dft_agrees_with_fft(n):
    rng = np.random.default_rng(n + 1)
    re = [int(v) for v in rng.integers(-12000, 12000, n)]
    im = [int(v) for v in rng.integers(-12000, 12000, n)]
    d_re, d_im = fp.direct_dft_q15(re, im)
    f_re, f_im = fp.fft_q15(re, im)
    tol = 2 * int(np.log2(n)) + 3
    assert max(abs(a - b) for a, b in zip(d_re, f_re)) <= tol
    assert max(abs(a - b) for a, b in zip(d_im, f_im)) <= tol


def test_idct_matrix_orthogonality():
    m = np.array(fp.idct_coefficient_matrix(), dtype=float) / (1 << fp.IDCT_COEF_BITS)
    # M is the IDCT basis: M @ M.T should be close to identity
    np.testing.assert_allclose(m @ m.T, np.eye(8), atol=1e-3)


def test_idct2_q15_close_to_float_reference(coef_block):
    fixed = np.array(fp.idct2_q15(coef_block))
    ref = fp.idct2_reference(coef_block)
    assert np.max(np.abs(fixed - ref)) <= 2.0


def test_idct2_dc_only_block_is_constant():
    block = [[0] * 8 for _ in range(8)]
    block[0][0] = 800
    out = fp.idct2_q15(block)
    values = {v for row in out for v in row}
    assert len(values) == 1
    assert abs(next(iter(values)) - 100) <= 1  # 800/8


def test_idct2_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fp.idct2_q15([[0] * 8] * 7)
    with pytest.raises(ValueError):
        fp.idct1_q15([0] * 7)


def test_idct2_saturates_extremes():
    block = [[32767] * 8 for _ in range(8)]
    out = fp.idct2_q15(block)
    assert all(-32768 <= v <= 32767 for row in out for v in row)


@given(st.lists(q15, min_size=1, max_size=32))
def test_block_word_helpers_roundtrip(values):
    padded = (values * 64)[:64]
    block = [padded[8 * i : 8 * i + 8] for i in range(8)]
    assert fp.words_to_block(fp.block_to_words(block)) == block


@given(st.lists(q15, min_size=4, max_size=16), st.lists(q15, min_size=4, max_size=16))
def test_complex_packing_roundtrips(re, im):
    n = min(len(re), len(im))
    re, im = re[:n], im[:n]
    assert fp.words_to_complex(fp.complex_to_words(re, im)) == (re, im)
    assert fp.deinterleave_complex(fp.interleave_complex(re, im)) == (re, im)


def test_interleave_rejects_mismatch():
    with pytest.raises(ValueError):
        fp.interleave_complex([1, 2], [3])
    with pytest.raises(ValueError):
        fp.deinterleave_complex([1, 2, 3])


def _interleave_oracle(re, im):
    """The scalar definition of :func:`fp.interleave_complex`."""
    words = []
    for r, i in zip(re, im):
        words += [int(r) & 0xFFFFFFFF, int(i) & 0xFFFFFFFF]
    return words


def _deinterleave_oracle(words):
    """The scalar definition of :func:`fp.deinterleave_complex`."""
    def resign(word):
        word &= 0xFFFFFFFF
        return word - (1 << 32) if word & (1 << 31) else word

    return ([resign(w) for w in words[0::2]],
            [resign(w) for w in words[1::2]])


#: the sign boundaries of Q15 samples, 32-bit words and int64
BOUNDARIES = [0, 1, -1, 1 << 15, -(1 << 15), (1 << 15) - 1, (1 << 31) - 1,
              1 << 31, -(1 << 31), (1 << 32) - 1, 1 << 32, -(1 << 32),
              (1 << 63) - 1, -(1 << 63)]


@pytest.mark.parametrize("extra", [[], [1 << 63], [-(1 << 63) - 1],
                                   [1 << 70], [True]],
                         ids=["int64", "2^63", "below-int64", "2^70",
                              "bool"])
def test_complex_interleaving_matches_the_scalar_oracle(extra):
    """The vectorised marshalling equals the scalar definition at every
    sign boundary, on values outside int64 (the scalar path) included,
    and returns Python ints."""
    values = BOUNDARIES + extra
    re, im = values, values[::-1]
    words = fp.interleave_complex(re, im)
    assert words == _interleave_oracle(re, im)
    assert fp.interleave_complex(np.array(re[:4]), im[:4]) \
        == _interleave_oracle(re[:4], im[:4])
    for stream in (words, values + values[:len(values) % 2]):
        halves = fp.deinterleave_complex(stream)
        assert halves == _deinterleave_oracle(stream)
        assert all(type(v) is int for half in halves for v in half)
    assert all(type(word) is int for word in words)
    assert fp.interleave_complex([], []) == []
    assert fp.deinterleave_complex([]) == ([], [])


def test_complex_interleaving_keeps_scalar_errors():
    """Elements the scalar path rejects are rejected the same way."""
    with pytest.raises(TypeError):
        fp.deinterleave_complex([1.5, 2])
    with pytest.raises(OverflowError):
        fp.interleave_complex([float("inf")], [0])
    assert fp.interleave_complex([1.7, -1.7], [2, -2]) \
        == _interleave_oracle([1.7, -1.7], [2, -2])


# -- vectorized datapath vs scalar reference (hot-path bit-exactness) -------

def fft_q15_scalar(re, im):
    """Oracle for :func:`fp.fft_q15`: one radix-2 DIT butterfly at a
    time, exactly as written in the paper's datapath description."""
    n = len(re)
    stages = n.bit_length() - 1
    cos_t, sin_t = fp.twiddle_table_q15(n)
    xr = [int(v) for v in re]
    xi = [int(v) for v in im]
    for i in range(n):  # bit-reversal permutation (decimation in time)
        j = fp.bit_reverse(i, stages)
        if j > i:
            xr[i], xr[j] = xr[j], xr[i]
            xi[i], xi[j] = xi[j], xi[i]
    span = 1
    for _stage in range(stages):
        stride = n // (2 * span)
        for start in range(0, n, 2 * span):
            for k in range(span):
                top, bot = start + k, start + k + span
                wr, wi = cos_t[k * stride], sin_t[k * stride]
                tr = fp.q15_mul(xr[bot], wr) - fp.q15_mul(xi[bot], wi)
                ti = fp.q15_mul(xr[bot], wi) + fp.q15_mul(xi[bot], wr)
                # per-stage scaling by 1/2 (arithmetic shift, floor)
                ar, ai = xr[top], xi[top]
                xr[top], xi[top] = (ar + tr) >> 1, (ai + ti) >> 1
                xr[bot], xi[bot] = (ar - tr) >> 1, (ai - ti) >> 1
        span *= 2
    return xr, xi


def idct2_q15_scalar(block):
    """Oracle for :func:`fp.idct2_q15`: scalar row pass, column pass,
    16-bit saturation."""
    rows = [fp.idct1_q15(row) for row in block]
    cols = [fp.idct1_q15([rows[r][c] for r in range(8)])
            for c in range(8)]
    return [[fp.saturate(cols[c][r], -(1 << 15), (1 << 15) - 1)
             for c in range(8)] for r in range(8)]


@given(st.data(), st.sampled_from([2, 4, 8, 16, 64, 256]))
@settings(max_examples=40, deadline=None)
def test_fft_q15_vectorized_matches_scalar_reference(data, n):
    """The numpy FFT used on the simulator's hot path must be
    bit-identical to the retained pure-Python butterfly, sample for
    sample, including q15 rounding and the per-stage >>1 scaling."""
    word = st.integers(-(1 << 15), (1 << 15) - 1)
    re = data.draw(st.lists(word, min_size=n, max_size=n))
    im = data.draw(st.lists(word, min_size=n, max_size=n))
    assert fp.fft_q15(re, im) == fft_q15_scalar(re, im)


def test_fft_q15_vectorized_matches_scalar_at_extremes():
    for n in (2, 8, 1024):
        lo = [-(1 << 15)] * n
        hi = [(1 << 15) - 1] * n
        assert fp.fft_q15(lo, hi) == fft_q15_scalar(lo, hi)
        assert fp.fft_q15(hi, lo) == fft_q15_scalar(hi, lo)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_idct2_q15_vectorized_matches_scalar_reference(data):
    """The matmul IDCT must reproduce the scalar row/column passes
    bit-exactly, saturation included."""
    coef = st.integers(-(1 << 15), (1 << 15) - 1)
    block = data.draw(st.lists(st.lists(coef, min_size=8, max_size=8),
                               min_size=8, max_size=8))
    assert fp.idct2_q15(block) == idct2_q15_scalar(block)


def test_idct2_q15_vectorized_matches_scalar_at_extremes():
    for fill in (-(1 << 15), (1 << 15) - 1):
        block = [[fill] * 8 for _ in range(8)]
        assert fp.idct2_q15(block) == idct2_q15_scalar(block)


# The scalar block marshalling that ``block_to_words`` /
# ``words_to_block`` replaced, kept here as their oracles.

def _block_to_words_oracle(block):
    words = []
    for row in block:
        for value in row:
            words.append(int(value) & 0xFFFFFFFF)
    return words


def _words_to_block_oracle(words):
    if len(words) != fp.IDCT_SIZE * fp.IDCT_SIZE:
        raise ValueError(f"expected 64 words, got {len(words)}")
    out = []
    for r in range(fp.IDCT_SIZE):
        row = []
        for c in range(fp.IDCT_SIZE):
            raw = words[r * fp.IDCT_SIZE + c] & 0xFFFFFFFF
            row.append(raw - (1 << 32) if raw & (1 << 31) else raw)
        out.append(row)
    return out


#: the 32-bit sign boundaries, and their neighbours
_BOUNDARY_WORDS = [0, 1, 0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001,
                   0xFFFFFFFE, 0xFFFFFFFF]


@pytest.mark.parametrize("word", _BOUNDARY_WORDS + [
    0x1_0000_0000, 0x1_8000_0000, -1, -(1 << 31), -(1 << 31) - 1])
def test_words_to_block_matches_scalar_oracle_at_sign_boundaries(word):
    words = [word] * 32 + _BOUNDARY_WORDS * 4
    assert fp.words_to_block(words) == _words_to_block_oracle(words)


@given(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=64,
                max_size=64))
def test_words_to_block_matches_scalar_oracle(words):
    assert fp.words_to_block(words) == _words_to_block_oracle(words)


@given(st.lists(st.lists(st.integers(-(1 << 33), 1 << 33), min_size=8,
                         max_size=8), min_size=8, max_size=8))
def test_block_to_words_matches_scalar_oracle(block):
    assert fp.block_to_words(block) == _block_to_words_oracle(block)


def test_block_marshalling_negative_values_and_numpy_input():
    block = [[-(1 << 31), -1, 0, 1, (1 << 31) - 1, -32768, 32767, -2]] * 8
    words = fp.block_to_words(block)
    assert words == _block_to_words_oracle(block)
    assert words[:2] == [0x80000000, 0xFFFFFFFF]
    assert fp.words_to_block(words) == block
    array = np.array(block, dtype=np.int64)
    assert fp.block_to_words(array) == _block_to_words_oracle(array)
    assert all(type(w) is int for w in fp.block_to_words(array))


@pytest.mark.parametrize("count", [0, 63, 65])
def test_words_to_block_rejects_wrong_lengths_like_its_oracle(count):
    for convert in (fp.words_to_block, _words_to_block_oracle):
        with pytest.raises(ValueError, match=f"got {count}"):
            convert([0] * count)
