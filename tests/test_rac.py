"""Tests for the RAC framework and the concrete accelerators."""

import pytest

from repro.rac.base import RACPortSpec, StreamingRAC
from repro.rac.dft import DFTRac, dft_latency
from repro.rac.fifo import FIFO
from repro.rac.fir import FIRRac, fir_q15
from repro.rac.hls import HLSInterfaceSpec, wrap_function
from repro.rac.idct import IDCT_PIPELINE_LATENCY, IDCTRac
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sim.errors import ConfigurationError, RACError
from repro.sim.kernel import Simulator
from repro.utils import fixedpoint as fp


def harness(rac):
    """Wire a RAC to fresh FIFOs under a simulator."""
    sim = Simulator()
    fifos_in = [
        FIFO(f"in{i}", 32, w, depth=rac.ports.fifo_depth)
        for i, w in enumerate(rac.ports.input_widths)
    ]
    fifos_out = [
        FIFO(f"out{i}", w, 32, depth=rac.ports.fifo_depth)
        for i, w in enumerate(rac.ports.output_widths)
    ]
    rac.bind(fifos_in, fifos_out)
    for fifo in fifos_in + fifos_out:
        sim.add(fifo)
    sim.add(rac)
    return sim, fifos_in, fifos_out


def run_operation(rac, inputs_per_port, start=True, max_cycles=100_000):
    sim, fifos_in, fifos_out = harness(rac)
    for fifo, words in zip(fifos_in, inputs_per_port):
        for word in words:
            sim.run_until(lambda: fifo.can_push(), max_cycles=1000)
            fifo.push(word)
            sim.step()
    if start:
        rac.start_op()
    sim.run_until(lambda: rac.end_op, max_cycles=max_cycles)
    outputs = []
    for fifo in fifos_out:
        sim.step(2)  # let staged words commit
        outputs.append(fifo.drain())
    return sim, outputs


def test_passthrough_round_trip():
    rac = PassthroughRac(block_size=8)
    _, outputs = run_operation(rac, [[10, 20, 30, 40, 50, 60, 70, 80]])
    assert outputs[0] == [10, 20, 30, 40, 50, 60, 70, 80]
    assert rac.ops_completed == 1


def test_scale_rac_signed_math():
    rac = ScaleRac(block_size=4, factor=3, shift=1)
    negative_two = (-2) & 0xFFFFFFFF
    _, outputs = run_operation(rac, [[2, negative_two, 0, 10]])
    assert outputs[0] == [3, (-3) & 0xFFFFFFFF, 0, 15]


def test_autostart_consumes_before_start_op():
    rac = PassthroughRac(block_size=4)
    sim, fifos_in, fifos_out = harness(rac)
    fifos_in[0].push_many([1, 2, 3, 4])
    # never call start_op: autostart should still process the block
    sim.run_until(lambda: rac.end_op, max_cycles=1000)
    sim.step(2)
    assert fifos_out[0].drain() == [1, 2, 3, 4]


def test_non_autostart_waits_for_start():
    rac = PassthroughRac(block_size=4, autostart=False)
    sim, fifos_in, fifos_out = harness(rac)
    fifos_in[0].push_many([1, 2, 3, 4])
    sim.step(50)
    assert not rac.end_op
    assert fifos_in[0].occupancy == 4  # untouched
    rac.start_op()
    sim.run_until(lambda: rac.end_op, max_cycles=1000)


def test_compute_latency_delays_output():
    fast = PassthroughRac("fast", block_size=4, compute_latency=1)
    slow = PassthroughRac("slow", block_size=4, compute_latency=100)
    sim_f, _ = run_operation(fast, [[1, 2, 3, 4]])
    sim_s, _ = run_operation(slow, [[1, 2, 3, 4]])
    assert sim_s.cycle - sim_f.cycle == pytest.approx(99, abs=2)


def test_multiple_operations_sequentially():
    rac = PassthroughRac(block_size=2)
    sim, fifos_in, fifos_out = harness(rac)
    for round_no in range(3):
        fifos_in[0].push_many([round_no, round_no + 10])
        rac.start_op()
        sim.run_until(lambda: rac.end_op, max_cycles=1000)
        sim.step(2)
        assert fifos_out[0].drain() == [round_no, round_no + 10]
    assert rac.ops_completed == 3


def test_emit_respects_fifo_backpressure():
    rac = PassthroughRac(block_size=32, fifo_depth=8)
    sim, fifos_in, fifos_out = harness(rac)
    # feed 32 words through an 8-deep fabric; drain output slowly
    fed = 0
    drained = []
    for _ in range(3000):
        if fed < 32 and fifos_in[0].can_push():
            fifos_in[0].push(fed)
            fed += 1
        if fifos_out[0].can_pop():
            drained.append(fifos_out[0].pop())
        sim.step()
        if len(drained) == 32:
            break
    assert drained == list(range(32))


def test_bind_validates_port_counts():
    rac = PassthroughRac(block_size=4)
    with pytest.raises(ConfigurationError):
        rac.bind([], [FIFO("o", 32, 32)])
    with pytest.raises(ConfigurationError):
        rac.bind([FIFO("a", 32, 32), FIFO("b", 32, 32)], [FIFO("o", 32, 32)])


def test_streaming_rac_validates_compute_fn():
    bad = StreamingRAC(
        "bad", [2], [2], compute_fn=lambda c: [[1, 2, 3]],
    )
    sim, fifos_in, _ = harness(bad)
    fifos_in[0].push_many([1, 2])
    with pytest.raises(RACError):
        sim.step(20)


def test_streaming_rac_parameter_validation():
    with pytest.raises(ConfigurationError):
        StreamingRAC("x", [1], [1], lambda c: c, compute_latency=-1)
    with pytest.raises(ConfigurationError):
        StreamingRAC("x", [1], [1], lambda c: c,
                     ports=RACPortSpec([32, 32], [32]))


# ---------------------------------------------------------------------------
# IDCT RAC
# ---------------------------------------------------------------------------

def test_idct_rac_matches_golden(coef_block):
    rac = IDCTRac(fifo_depth=128)
    words = fp.block_to_words(coef_block)
    _, outputs = run_operation(rac, [words])
    assert fp.words_to_block(outputs[0]) == fp.idct2_q15(coef_block)


def test_idct_latency_is_table_one_value():
    assert IDCT_PIPELINE_LATENCY == 18
    assert IDCTRac().compute_latency == 18


# ---------------------------------------------------------------------------
# DFT RAC
# ---------------------------------------------------------------------------

def test_dft_latency_calibration():
    # the paper's measured 2485 cycles at N=256
    assert dft_latency(256) == 2485
    assert dft_latency(8) == 3 * (8 + 54) + 5


def test_dft_rac_matches_golden(q15_signal):
    n = 16
    re, im = q15_signal(n)
    rac = DFTRac(n_points=n, fifo_depth=64)
    _, outputs = run_operation(rac, [fp.interleave_complex(re, im)])
    out_re, out_im = fp.deinterleave_complex(outputs[0])
    assert (out_re, out_im) == fp.fft_q15(re, im)


def test_dft_rac_word_volume_matches_paper():
    rac = DFTRac(n_points=256)
    # 2 words per complex point, in and out: 1024 total (in-text claim)
    assert rac.items_in[0] + rac.items_out[0] == 1024


def test_dft_rac_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        DFTRac(n_points=100)
    with pytest.raises(ConfigurationError):
        DFTRac(n_points=4)


# ---------------------------------------------------------------------------
# FIR RAC
# ---------------------------------------------------------------------------

def test_fir_q15_golden_impulse():
    taps = [fp.float_to_q15(0.5), fp.float_to_q15(0.25)]
    samples = [fp.Q15_MAX, 0, 0, 0]
    out = fir_q15(samples, taps)
    assert abs(out[0] - fp.Q15_MAX // 2) <= 1
    assert abs(out[1] - fp.Q15_MAX // 4) <= 1
    assert out[2] == 0 and out[3] == 0


def test_fir_rac_uses_config_fifo(q15_signal):
    rac = FIRRac(block_size=16, n_taps=4, fifo_depth=64)
    re, _ = q15_signal(16)
    taps = [8192, 4096, 2048, 1024]
    data_words = [v & 0xFFFFFFFF for v in re]
    tap_words = [v & 0xFFFFFFFF for v in taps]
    _, outputs = run_operation(rac, [data_words, tap_words])
    got = [w - (1 << 32) if w & (1 << 31) else w for w in outputs[0]]
    assert got == fir_q15(re, taps)


def test_fir_rac_parameter_validation():
    with pytest.raises(ConfigurationError):
        FIRRac(block_size=0)
    with pytest.raises(ConfigurationError):
        FIRRac(n_taps=0)


# ---------------------------------------------------------------------------
# HLS wrapper
# ---------------------------------------------------------------------------

def test_hls_wrapper_generates_working_rac():
    spec = HLSInterfaceSpec(items_in=[4], items_out=[4], pipeline_depth=7)
    rac = wrap_function(
        "double", lambda c: [[(2 * w) & 0xFFFFFFFF for w in c[0]]], spec
    )
    _, outputs = run_operation(rac, [[1, 2, 3, 4]])
    assert outputs[0] == [2, 4, 6, 8]
    assert rac.kind == "hls:double"


def test_hls_initiation_interval_slows_compute():
    fn = lambda c: [list(c[0])]
    fast = wrap_function("f", fn, HLSInterfaceSpec([8], [8], initiation_interval=1))
    slow = wrap_function("s", fn, HLSInterfaceSpec([8], [8], initiation_interval=4))
    assert slow.compute_latency - fast.compute_latency == 3 * 8


def test_hls_spec_validation():
    with pytest.raises(ConfigurationError):
        wrap_function("x", lambda c: c, HLSInterfaceSpec([], [1]))
    with pytest.raises(ConfigurationError):
        wrap_function("x", lambda c: c,
                      HLSInterfaceSpec([1], [1], initiation_interval=0))
    with pytest.raises(ConfigurationError):
        wrap_function("x", lambda c: c,
                      HLSInterfaceSpec([1], [0]))
