"""Simulation kernel: clock, components, tracing, errors."""

from .errors import (
    AddressError,
    AssemblerError,
    BusError,
    BusFaultError,
    ConfigurationError,
    ControllerError,
    DeadlockError,
    DriverError,
    DriverTimeout,
    EncodingError,
    FIFOError,
    MemoryError_,
    OcpRunError,
    RACError,
    ReconfigurationError,
    ReproError,
    SimulationError,
)
from .kernel import Component, SimProfile, Simulator
from .tracing import Stats, Trace, TraceEvent, VCDWriter
from .waveform import WaveformProbe, ocp_probe

__all__ = [
    "AddressError",
    "AssemblerError",
    "BusError",
    "BusFaultError",
    "Component",
    "ConfigurationError",
    "ControllerError",
    "DeadlockError",
    "DriverError",
    "DriverTimeout",
    "EncodingError",
    "FIFOError",
    "MemoryError_",
    "OcpRunError",
    "RACError",
    "ReconfigurationError",
    "ReproError",
    "SimulationError",
    "Simulator",
    "Stats",
    "Trace",
    "TraceEvent",
    "VCDWriter",
    "WaveformProbe",
    "ocp_probe",
]
