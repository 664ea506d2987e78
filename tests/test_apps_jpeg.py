"""Tests for the JPEG application layer."""

import numpy as np
import pytest

from repro.apps import jpeg
from repro.rac.idct import IDCTRac
from repro.sim.errors import ConfigurationError
from repro.sw.library import OuessantLibrary
from repro.system import SoC


def test_zigzag_order_is_a_permutation():
    order = jpeg.zigzag_order()
    assert len(order) == 64
    assert len(set(order)) == 64
    # the canonical first few entries of the JPEG scan
    assert order[:6] == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2)]
    assert order[-1] == (7, 7)


def test_zigzag_roundtrip(rng):
    block = [[rng.randint(-300, 300) for _ in range(8)] for _ in range(8)]
    assert jpeg.from_zigzag(jpeg.to_zigzag(block)) == block


def test_from_zigzag_validates_length():
    with pytest.raises(ConfigurationError):
        jpeg.from_zigzag([0] * 63)


def test_quality_scaling_monotone():
    low = np.array(jpeg.quality_scaled_table(10))
    mid = np.array(jpeg.quality_scaled_table(50))
    high = np.array(jpeg.quality_scaled_table(95))
    assert (low >= mid).all()
    assert (mid >= high).all()
    assert (high >= 1).all()
    with pytest.raises(ConfigurationError):
        jpeg.quality_scaled_table(0)


def test_encode_validates_geometry():
    with pytest.raises(ConfigurationError):
        jpeg.encode(np.zeros((10, 16)))
    with pytest.raises(ConfigurationError):
        jpeg.encode(np.zeros(16))


def test_encode_decode_golden_psnr():
    image = jpeg.test_card(32)
    encoded = jpeg.encode(image, quality=90)
    assert encoded.n_blocks == 16
    decoder = jpeg.JPEGDecoder()  # golden backend
    decoded = decoder.decode(encoded)
    assert decoder.blocks_decoded == 16
    assert jpeg.psnr(image, decoded) > 30.0


def test_lower_quality_lower_psnr():
    image = jpeg.test_card(32)
    good = jpeg.JPEGDecoder().decode(jpeg.encode(image, quality=90))
    bad = jpeg.JPEGDecoder().decode(jpeg.encode(image, quality=10))
    assert jpeg.psnr(image, good) > jpeg.psnr(image, bad)


def test_hardware_backend_matches_golden():
    image = jpeg.test_card(16)
    encoded = jpeg.encode(image, quality=75)
    soc = SoC(racs=[IDCTRac()])
    library = OuessantLibrary(soc, environment="baremetal")
    hw = jpeg.JPEGDecoder(library=library)
    golden = jpeg.JPEGDecoder()
    assert np.array_equal(hw.decode(encoded), golden.decode(encoded))
    assert hw.cycles > 0


def test_iss_backend_matches_golden():
    image = jpeg.test_card(16)
    encoded = jpeg.encode(image, quality=75)
    iss = jpeg.JPEGDecoder(use_iss=True)
    golden = jpeg.JPEGDecoder()
    assert np.array_equal(iss.decode(encoded), golden.decode(encoded))
    # ~5000 cycles per block on the ISS
    assert iss.cycles > 4000 * encoded.n_blocks


def test_backend_exclusivity():
    with pytest.raises(ConfigurationError):
        jpeg.JPEGDecoder(library=object(), use_iss=True)  # type: ignore[arg-type]


def test_psnr_of_identical_images_is_infinite():
    image = jpeg.test_card(16)
    assert jpeg.psnr(image, image) == float("inf")


def _from_zigzag_oracle(vector):
    """The scalar ``from_zigzag`` it replaced, kept as its oracle."""
    if len(vector) != 64:
        raise ConfigurationError(f"expected 64 coefficients, got {len(vector)}")
    block = [[0] * 8 for _ in range(8)]
    for value, (r, c) in zip(vector, jpeg.zigzag_order()):
        block[r][c] = int(value)
    return block


@pytest.mark.parametrize("kind", ["list", "tuple", "numpy"])
def test_from_zigzag_matches_scalar_oracle(rng, kind):
    values = [rng.randint(-2048, 2047) for _ in range(60)] + [
        -(1 << 31), (1 << 31) - 1, -1, 0]
    vector = {"list": list, "tuple": tuple, "numpy": np.array}[kind](values)
    block = jpeg.from_zigzag(vector)
    assert block == _from_zigzag_oracle(vector)
    assert all(type(v) is int for row in block for v in row)
