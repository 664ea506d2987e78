"""Software integration: driver, baremetal runtime, Linux model, library."""

from .baremetal import BaremetalRuntime
from .driver import DRIVER_MASTER, OuessantDriver, RunResult
from .jobs import JobClient
from .library import OuessantLibrary
from .linux import LinuxCosts, LinuxRuntime

__all__ = [
    "BaremetalRuntime",
    "DRIVER_MASTER",
    "JobClient",
    "LinuxCosts",
    "LinuxRuntime",
    "OuessantDriver",
    "OuessantLibrary",
    "RunResult",
]
