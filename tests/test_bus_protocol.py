"""Tests for the bus protocol timing models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bus.protocol import (
    AHB,
    ALL_PROTOCOLS,
    AXI4,
    AXI4_LITE,
    WISHBONE,
    BusProtocol,
    protocol_by_name,
)
from repro.sim.errors import ConfigurationError


def test_catalogue_lookup_case_insensitive():
    assert protocol_by_name("ahb") is AHB
    assert protocol_by_name("AXI4-Lite") is AXI4_LITE
    with pytest.raises(KeyError):
        protocol_by_name("pcie")


@given(st.integers(1, 500))
def test_split_burst_conserves_beats(total):
    for protocol in ALL_PROTOCOLS:
        chunks = protocol.split_burst(total)
        assert sum(chunks) == total
        assert all(1 <= c <= protocol.max_burst_beats for c in chunks)


def test_split_burst_rejects_zero():
    with pytest.raises(ValueError):
        AHB.split_burst(0)


def test_ahb_single_beat_cost():
    # arbitration 1 + address 1 + latency + 1 beat
    assert AHB.transfer_cycles(1, slave_latency=1) == 4


def test_ahb_64_word_burst_cost():
    # 4 chunks of 16; arbitration once (locked), address per chunk
    expected = 1 + 4 * (1 + 1 + 16)
    assert AHB.transfer_cycles(64, slave_latency=1) == expected


def test_ahb_amortized_cost_near_one_cycle_per_word():
    assert AHB.cycles_per_word(64, slave_latency=1) < 1.25


def test_axi4_lite_pays_handshake_per_word():
    lite = AXI4_LITE.cycles_per_word(64, slave_latency=1)
    full = AXI4.cycles_per_word(64, slave_latency=1)
    assert lite > 3.5
    assert full < 1.5


def test_axi4_long_bursts_beat_ahb_on_big_transfers():
    assert AXI4.transfer_cycles(256) <= AHB.transfer_cycles(256)


def test_wishbone_classic_two_cycles_per_beat():
    assert WISHBONE.cycles_per_word(64) >= 2.0


@given(st.integers(1, 256), st.integers(0, 4))
def test_transfer_cycles_monotone_in_beats(total, latency):
    for protocol in ALL_PROTOCOLS:
        assert protocol.transfer_cycles(total + 1, latency) >= (
            protocol.transfer_cycles(total, latency)
        )


@given(st.integers(1, 256))
def test_locked_chunks_never_cost_more_than_unlocked(total):
    locked = BusProtocol("l", 2, 1, 1, 16, locked_chunks=True)
    unlocked = BusProtocol("u", 2, 1, 1, 16, locked_chunks=False)
    assert locked.transfer_cycles(total) <= unlocked.transfer_cycles(total)


def test_bad_protocol_parameters_rejected():
    with pytest.raises(ConfigurationError):
        BusProtocol("bad", 1, 1, 1, 0)
    with pytest.raises(ConfigurationError):
        BusProtocol("bad", 1, 1, 0, 4)


def transfer_cycles_chunked(protocol, total_beats, slave_latency=0):
    """Oracle for :meth:`BusProtocol.transfer_cycles`: the per-chunk
    summation the closed form replaces."""
    return sum(
        protocol.chunk_cycles(beats, slave_latency, first=index == 0)
        for index, beats in enumerate(protocol.split_burst(total_beats))
    )


@given(st.integers(1, 2048), st.integers(0, 6))
def test_closed_form_matches_chunked_reference(total, latency):
    """The O(1) transfer_cycles formula used on the kernel's hot path
    must equal the per-chunk summation for every catalogue protocol --
    the burst lane's cycle accounting is only legal because of this."""
    for protocol in ALL_PROTOCOLS:
        assert protocol.transfer_cycles(total, latency) == (
            transfer_cycles_chunked(protocol, total, latency)
        ), protocol.name


@given(st.integers(1, 1024), st.integers(0, 4), st.integers(1, 7),
       st.integers(0, 3), st.integers(1, 3), st.integers(1, 300),
       st.booleans())
def test_closed_form_matches_chunked_on_random_protocols(
    total, latency, arb, addr, per_beat, max_beats, locked
):
    protocol = BusProtocol("fuzz", arb, addr, per_beat, max_beats,
                           locked_chunks=locked)
    assert protocol.transfer_cycles(total, latency) == (
        transfer_cycles_chunked(protocol, total, latency)
    )
