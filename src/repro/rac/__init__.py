"""Accelerator substrate: FIFOs, RAC framework, and concrete RACs."""

from .base import RAC, MultiPortRAC, RACPortSpec, StreamingRAC
from .dft import DFTRac, dft_latency
from .fifo import FIFO
from .fir import FIRRac, fir_q15
from .hls import HLSInterfaceSpec, wrap_function
from .idct import IDCT_PIPELINE_LATENCY, IDCTRac
from .matmul import MatMulRac, matmul_q15
from .scale import PassthroughRac, ScaleRac

__all__ = [
    "DFTRac",
    "FIFO",
    "FIRRac",
    "HLSInterfaceSpec",
    "IDCTRac",
    "IDCT_PIPELINE_LATENCY",
    "MatMulRac",
    "MultiPortRAC",
    "matmul_q15",
    "PassthroughRac",
    "RAC",
    "RACPortSpec",
    "ScaleRac",
    "StreamingRAC",
    "dft_latency",
    "fir_q15",
    "wrap_function",
]
