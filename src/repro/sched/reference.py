"""Sequential single-OCP reference for the differential suite.

Runs a job stream one job at a time, in submission order, on a
one-OCP SoC per kernel kind, through the ordinary blocking driver --
no scheduler, no batching, no concurrency.  Each job runs the program
a dispatch of that job alone stages: the streaming recipe over its RAC
blocks.  The scheduled multi-OCP run must be bit-exact against this:
kernels are pure functions of their input block, so neither
placement, nor batching, nor interleaving may change any output word.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from ..core.program import bank_addresses
from ..sim.errors import ConfigurationError
from ..sw.driver import OuessantDriver
from .batch import compose_batch
from .job import Job

#: reference arenas (same low-RAM layout the driver examples use)
REF_PROG_OFFSET = 0x1000
REF_IN_OFFSET = 0x2000
REF_OUT_OFFSET = 0x3000


def run_sequential_reference(
    jobs: List[Job],
    rac_factories: Mapping[str, Callable[[], object]],
    soc_kwargs: Dict[str, object] | None = None,
    chunk: int = 64,
) -> Dict[str, List[int]]:
    """Execute ``jobs`` sequentially; return ``{job_id: output words}``.

    ``rac_factories`` maps each kernel kind to a zero-argument factory
    building a fresh RAC equivalent to the scheduled SoC's (same
    functional parameters; timing parameters are irrelevant to the
    comparison).
    """
    from ..system import RAM_BASE, SoC

    kwargs = dict(soc_kwargs or {})
    socs: Dict[str, SoC] = {}
    drivers: Dict[str, OuessantDriver] = {}
    results: Dict[str, List[int]] = {}
    inp = RAM_BASE + REF_IN_OFFSET
    out = RAM_BASE + REF_OUT_OFFSET
    banks = bank_addresses(RAM_BASE + REF_PROG_OFFSET, [inp], [out])
    for job in jobs:
        if job.kind not in socs:
            try:
                factory = rac_factories[job.kind]
            except KeyError:
                raise ConfigurationError(
                    f"no reference RAC factory for kind {job.kind!r}"
                ) from None
            socs[job.kind] = SoC(racs=[factory()], **kwargs)
            drivers[job.kind] = OuessantDriver(socs[job.kind])
        soc = socs[job.kind]
        batch = compose_batch([job], 0, chunk,
                              block=soc.ocp.rac.items_in[0])
        soc.write_ram(inp, job.words)
        drivers[job.kind].run(list(batch.words), banks=banks)
        results[job.job_id] = soc.read_ram(out, job.size)
    return results
