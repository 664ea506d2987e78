"""End-user acceleration library.

Section II-B: "Transparency for end user can be achieved through
software libraries."  This module is that library: the application
calls :meth:`OuessantLibrary.dft` / :meth:`idct` / :meth:`fir` like
normal functions; bank allocation, microcode generation, driver
sequencing and result unpacking all happen behind the call, on top of
either the baremetal or the Linux runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.firmware import FirmwarePlan, plan_streaming_run
from ..core.program import bank_addresses
from ..rac.base import StreamingRAC
from ..rac.dft import DFTRac
from ..rac.fir import FIRRac
from ..rac.idct import IDCTRac
from ..rac.matmul import MatMulRac
from ..sim.errors import DriverError
from ..system import RAM_BASE, SoC
from ..utils import fixedpoint as fp
from ..utils.bits import to_signed
from .baremetal import BaremetalRuntime
from .driver import RunResult
from .linux import LinuxRuntime

#: where library-managed buffers start in RAM (leaves the low megabyte
#: to application code/data)
HEAP_BASE_OFFSET = 1 << 20
HEAP_ALIGN = 256


class _BankAllocator:
    """Bump allocator for bank-sized buffers in RAM."""

    def __init__(self, soc: SoC) -> None:
        self._next = RAM_BASE + HEAP_BASE_OFFSET
        self._limit = RAM_BASE + soc.memory.size_bytes

    def alloc(self, words: int) -> int:
        size = 4 * words
        address = self._next
        aligned = (address + HEAP_ALIGN - 1) // HEAP_ALIGN * HEAP_ALIGN
        if aligned + size > self._limit:
            raise DriverError("library heap exhausted")
        self._next = aligned + size
        return aligned

    def reset(self) -> None:
        self._next = RAM_BASE + HEAP_BASE_OFFSET


class OuessantLibrary:
    """Transparent accelerator calls over a SoC.

    Parameters
    ----------
    environment:
        ``"baremetal"`` or ``"linux"``; selects the runtime the calls
        go through (and therefore the overhead they pay).
    """

    def __init__(
        self,
        soc: SoC,
        environment: str = "baremetal",
        use_interrupt: bool = True,
    ) -> None:
        self.soc = soc
        self.allocator = _BankAllocator(soc)
        self.last_result: Optional[RunResult] = None
        #: verified firmware plans per (RAC object, operations); a DPR
        #: swap installs a new RAC object and therefore re-plans
        self._plans: Dict[Tuple[StreamingRAC, int], FirmwarePlan] = {}
        if environment == "baremetal":
            self._runtimes = {
                i: BaremetalRuntime(soc, ocp_index=i, use_interrupt=use_interrupt)
                for i in range(len(soc.ocps))
            }
        elif environment == "linux":
            self._runtimes = {
                i: LinuxRuntime(soc, ocp_index=i, use_interrupt=use_interrupt)
                for i in range(len(soc.ocps))
            }
        else:
            raise DriverError(f"unknown environment {environment!r}")
        self.environment = environment

    # -- OCP lookup -----------------------------------------------------
    def _find_ocp(self, rac_type: type) -> int:
        for index, ocp in enumerate(self.soc.ocps):
            if isinstance(ocp.rac, rac_type):
                return index
        raise DriverError(f"no OCP hosts a {rac_type.__name__}")

    def _plan(self, rac: StreamingRAC, operations: int = 1) -> FirmwarePlan:
        """The verified plan for ``operations`` runs on ``rac``.

        Planning and verification are static (no simulated cycle), and
        a plan depends only on the RAC's port specification, so it is
        built once per RAC object and operation count.
        """
        key = (rac, operations)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = plan_streaming_run(
                rac, operations=operations)
        return plan

    def _run_plan(
        self, index: int, plan, inputs: List[List[int]]
    ) -> List[List[int]]:
        """Execute a firmware plan: allocate, load, run, read back.

        A call's buffers are dead once its outputs are read back, so the
        heap is reset first and holds one call at a time.  ``inputs``
        holds the unsigned words for each RAC input port (lengths must
        match ``plan.words_in``); returns the unsigned word lists of
        each output port.
        """
        for port, (words, expected) in enumerate(zip(inputs, plan.words_in)):
            if len(words) != expected:
                raise DriverError(
                    f"input port {port}: expected {expected} words, "
                    f"got {len(words)}"
                )
        self.allocator.reset()
        alloc = self.allocator.alloc
        words = plan.words
        prog = alloc(len(words) + 4)
        in_addresses = [alloc(count) for count in plan.words_in]
        out_addresses = [alloc(count) for count in plan.words_out]
        for address, values in zip(in_addresses, inputs):
            self.soc.write_ram(address, list(values))
        self.last_result = self._runtimes[index].run(
            words, bank_addresses(prog, in_addresses, out_addresses))
        return [
            self.soc.read_ram(address, count)
            for address, count in zip(out_addresses, plan.words_out)
        ]

    # -- accelerated calls --------------------------------------------------
    def dft(
        self, re: Sequence[int], im: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """1/N-scaled DFT of a Q15 complex signal on the DFT RAC.

        Looks exactly like a software FFT call; under the hood it is
        the paper's Figure 4 microcode.
        """
        index = self._find_ocp(DFTRac)
        rac: DFTRac = self.soc.ocps[index].rac  # type: ignore[assignment]
        n = rac.n_points
        if len(re) != n or len(im) != n:
            raise DriverError(
                f"this DFT RAC is configured for {n} points, got {len(re)}"
            )
        plan = self._plan(rac)
        words = fp.interleave_complex(list(re), list(im))
        outputs = self._run_plan(index, plan, [words])
        return fp.deinterleave_complex(outputs[0])

    def idct(self, block: Sequence[Sequence[int]]) -> List[List[int]]:
        """2-D 8x8 IDCT of a coefficient block on the IDCT RAC."""
        index = self._find_ocp(IDCTRac)
        rac: IDCTRac = self.soc.ocps[index].rac  # type: ignore[assignment]
        plan = self._plan(rac)
        outputs = self._run_plan(index, plan, [fp.block_to_words(block)])
        return fp.words_to_block(outputs[0])

    def idct_batch(
        self, blocks: Sequence[Sequence[Sequence[int]]]
    ) -> List[List[List[int]]]:
        """Decode many 8x8 blocks with ONE microcode program.

        The per-call overhead (register configuration, start, interrupt,
        acknowledge -- and under Linux the ~3000-cycle syscall tax) is
        paid once for the whole batch instead of once per block: the
        microcode loops block-by-block on the coprocessor while the GPP
        sleeps.  This is how a production JPEG decoder would drive the
        OCP.
        """
        index = self._find_ocp(IDCTRac)
        rac: IDCTRac = self.soc.ocps[index].rac  # type: ignore[assignment]
        n_blocks = len(blocks)
        if n_blocks < 1:
            raise DriverError("empty batch")
        plan = self._plan(rac, operations=n_blocks)
        words: List[int] = []
        for block in blocks:
            words.extend(fp.block_to_words(block))
        outputs = self._run_plan(index, plan, [words])
        return [
            fp.words_to_block(outputs[0][64 * i : 64 * (i + 1)])
            for i in range(n_blocks)
        ]

    def fir(
        self, samples: Sequence[int], taps: Sequence[int]
    ) -> List[int]:
        """Q15 FIR filtering on the FIR RAC (taps via config FIFO 1)."""
        index = self._find_ocp(FIRRac)
        rac: FIRRac = self.soc.ocps[index].rac  # type: ignore[assignment]
        if len(samples) != rac.block_size:
            raise DriverError(
                f"FIR RAC block size is {rac.block_size}, got {len(samples)}"
            )
        if len(taps) != rac.n_taps:
            raise DriverError(
                f"FIR RAC expects {rac.n_taps} taps, got {len(taps)}"
            )
        plan = self._plan(rac)
        outputs = self._run_plan(index, plan, [
            [int(v) & 0xFFFFFFFF for v in samples],
            [int(v) & 0xFFFFFFFF for v in taps],
        ])
        return [to_signed(w) for w in outputs[0]]

    def matmul(
        self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Q15 matrix product on the MatMul RAC (B via config FIFO 1)."""
        index = self._find_ocp(MatMulRac)
        rac: MatMulRac = self.soc.ocps[index].rac  # type: ignore[assignment]
        n = rac.n
        if len(a) != n or len(b) != n:
            raise DriverError(f"this MatMul RAC is configured for {n}x{n}")
        flat_a = [int(v) & 0xFFFFFFFF for row in a for v in row]
        flat_b = [int(v) & 0xFFFFFFFF for row in b for v in row]
        plan = self._plan(rac)
        outputs = self._run_plan(index, plan, [flat_a, flat_b])
        signed = [to_signed(w) for w in outputs[0]]
        return [signed[i * n : (i + 1) * n] for i in range(n)]
