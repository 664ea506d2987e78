"""Low-level Ouessant driver: register access and run sequencing.

This is the software side of Figure 3: the GPP "explicitly controls"
the OCP "with configuration and start/stop commands".  The driver
performs every register access as a real bus transaction (so
configuration overhead is measured, not assumed) and sequences:

1. write the bank base registers used by the microcode,
2. write PROG_SIZE,
3. set ``S`` (+ ``IE`` for interrupt mode),
4. wait for completion by polling ``D`` or sleeping until the IRQ,
5. acknowledge (clear ``S``).

The register recipe itself lives in :mod:`repro.core.registers`.

The baremetal runtime uses it directly; the Linux model wraps each
driver entry point in syscall costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.registers import (
    CTRL_D,
    REG_CTRL,
    config_writes,
    start_word,
    trap_code,
    trap_name,
)
from ..sim.errors import (
    DeadlockError,
    DriverError,
    DriverTimeout,
    OcpRunError,
)
from ..sim.kernel import MAX_WAIT_CYCLES
from ..system import RAM_BASE, SoC

#: bus master name used for driver-originated accesses
DRIVER_MASTER = "cpu"


@dataclass
class RunResult:
    """Cycle accounting for one accelerated operation.

    All values are in system-clock cycles, measured on the simulator.
    """

    total_cycles: int
    config_cycles: int
    compute_cycles: int
    ack_cycles: int
    sw_overhead_cycles: int = 0
    notes: Dict[str, int] = field(default_factory=dict)

    @property
    def hardware_cycles(self) -> int:
        """Start-of-config to results-visible, excluding OS overhead."""
        return self.total_cycles - self.sw_overhead_cycles


@dataclass
class RecoveryResult:
    """Outcome of :meth:`OuessantDriver.run_with_recovery`.

    Either ``result`` holds the accounting of the attempt that finally
    succeeded on hardware, or ``degraded`` is True and
    ``fallback_value`` holds whatever the software fallback returned.
    """

    attempts: int
    degraded: bool
    result: Optional[RunResult] = None
    fallback_value: object = None
    faults: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True when hardware succeeded after at least one retry."""
        return self.result is not None and self.attempts > 1


class OuessantDriver:
    """Register-level driver for one OCP.

    Parameters
    ----------
    soc:
        The system; the driver issues bus transactions on its bus.
    ocp_index:
        Which coprocessor to drive.
    use_interrupt:
        Wait for the IRQ line instead of polling ``D`` (Table I was
        measured in "interrupt mode").
    """

    def __init__(
        self, soc: SoC, ocp_index: int = 0, use_interrupt: bool = True
    ) -> None:
        self.soc = soc
        self.ocp = soc.ocps[ocp_index]
        self.base = soc.ocp_base(ocp_index)
        self.use_interrupt = use_interrupt
        self.poll_count = 0

    # -- raw register access (cycle-accurate) -------------------------------
    def write_register(self, offset: int, value: int) -> int:
        """One register write over the bus; returns cycles consumed.

        Raises :class:`~repro.sim.errors.BusError` if the slave answers
        with an ERROR response (so does :meth:`read_register`).
        """
        start = self.soc.sim.cycle
        self.soc.bus.access(DRIVER_MASTER, self.base + offset, value,
                            what="register write")
        return self.soc.sim.cycle - start

    def read_register(self, offset: int) -> "tuple[int, int]":
        """One register read; returns ``(value, cycles)``."""
        start = self.soc.sim.cycle
        value = self.soc.bus.access(DRIVER_MASTER, self.base + offset,
                                    what="register read")
        return value, self.soc.sim.cycle - start

    # -- program/data placement (application-owned memory) ------------------
    def place_program(self, words: List[int], address: int) -> None:
        """Store microcode at ``address`` in RAM (bank 0 target).

        The application owns this memory; placement happens before the
        measured window (microcode is written once and reused), so it
        uses the backdoor.
        """
        if address < RAM_BASE:
            raise DriverError(f"microcode address {address:#x} not in RAM")
        self.soc.write_ram(address, words)

    # -- run sequencing ---------------------------------------------------
    def configure(self, banks: Dict[int, int], prog_size: int) -> int:
        """Write bank bases + PROG_SIZE; returns cycles consumed."""
        if prog_size < 1:
            raise DriverError("empty program")
        cycles = 0
        for offset, value in config_writes(banks, prog_size):
            cycles += self.write_register(offset, value)
        return cycles

    def start(self) -> int:
        """Set S (and IE in interrupt mode); returns cycles consumed."""
        return self.write_register(REG_CTRL, start_word(self.use_interrupt))

    def wait_done(self, max_cycles: int = MAX_WAIT_CYCLES) -> int:
        """Block until the program signals completion; returns cycles.

        Interrupt mode sleeps until the IRQ line asserts; polling mode
        repeatedly reads CTRL until ``D`` is set (each poll is a real
        bus read, stealing bus bandwidth exactly like the classical
        integration style does; :attr:`poll_count` counts them).

        Raises :class:`~repro.sim.errors.DriverTimeout` when the OCP
        does not complete within ``max_cycles``.
        """
        start = self.soc.sim.cycle
        try:
            if self.use_interrupt:
                # the predicate runs before every simulated event: bind
                # the line once
                irq = self.ocp.irq
                self.soc.sim.run_until(lambda: irq.pending, max_cycles,
                                       "OCP interrupt")
                irq.clear()
            else:
                self.poll_count = self.soc.bus.poll(
                    DRIVER_MASTER, self.base + REG_CTRL, CTRL_D,
                    "OCP done bit", max_cycles)
        except DeadlockError as exc:
            raise DriverTimeout(str(exc)) from exc
        return self.soc.sim.cycle - start

    def check_status(self) -> int:
        """Read CTRL and raise :class:`OcpRunError` if E is latched.

        Returns the cycles spent on the status read.  Called by
        :meth:`run` when ``check_status=True`` (the recovery path).
        """
        value, cycles = self.read_register(REG_CTRL)
        code = trap_code(value)
        if code is not None:
            raise OcpRunError(
                f"OCP run trapped with error {code} ({trap_name(code)})",
                code=code,
            )
        return cycles

    def acknowledge(self) -> int:
        """Clear S, releasing the controller back to idle."""
        return self.write_register(REG_CTRL, 0)

    def abort(self) -> int:
        """Force a hung or trapped OCP back to idle; returns cycles.

        A real bus write clears S (the controller abort path); the
        coprocessor-level soft reset then drains the FIFO fabric,
        clears the RAC handshake and drops the IRQ line, exactly what a
        dedicated reset line would do in hardware.
        """
        cycles = self.write_register(REG_CTRL, 0)
        self.ocp.soft_reset()
        self._trace("abort")
        return cycles

    def run_image(
        self, image_bytes: bytes, banks: Dict[int, int]
    ) -> RunResult:
        """Run a packed OUFW firmware image.

        The image is validated (magic, checksum, instruction stream)
        and its bank bitmap checked against ``banks`` before anything
        touches the hardware -- the loader discipline a shipped
        firmware format exists for.
        """
        from ..core.binary import unpack

        image = unpack(image_bytes)
        missing = [
            bank for bank in image.banks_referenced if bank not in banks
        ]
        if missing:
            raise DriverError(
                f"firmware references unconfigured banks {missing}"
            )
        return self.run(image.words, banks)

    def verify_microcode(
        self, program_words: List[int], banks: Dict[int, int]
    ):
        """Statically verify microcode against this system's layout.

        Decodes the instruction words and runs the full analyzer with
        the cross-layer contracts: the RAC actually hosted by this
        OCP, the configured bank set, and per-bank windows derived
        from the bus memory map.  Returns the
        :class:`~repro.verify.diagnostics.VerifyReport` (zero
        simulated cycles are consumed).
        """
        from ..core.encoding import decode
        from ..verify.contracts import bank_windows_from_map
        from ..verify.engine import verify_program

        program = [decode(word) for word in program_words]
        windows, findings = bank_windows_from_map(banks, self.soc.bus.memmap)
        report = verify_program(
            program,
            rac=self.ocp.rac,
            configured_banks=set(banks),
            bank_windows=windows,
        )
        report.findings.extend(findings)
        report.sort()
        return report

    def run(
        self,
        program_words: List[int],
        banks: Dict[int, int],
        program_address: Optional[int] = None,
        check_status: bool = False,
        max_wait_cycles: int = MAX_WAIT_CYCLES,
        verify: bool = False,
    ) -> RunResult:
        """Full sequence: place microcode, configure, start, wait, ack.

        ``banks`` maps bank numbers to byte addresses; bank 0 is the
        microcode bank (defaulting to ``program_address``).

        With ``check_status=True`` the driver reads CTRL back after
        completion and raises :class:`OcpRunError` if the controller
        trapped (an extra bus read, so it is off by default to keep
        the paper's measured sequence unchanged).

        With ``verify=True`` the microcode is first run through the
        static verifier (:meth:`verify_microcode`) and a
        :class:`DriverError` raised on any error finding -- a buggy
        program is rejected before it can hang the hardware.
        """
        if program_address is None:
            program_address = banks.get(0)
        if program_address is None:
            raise DriverError("bank 0 (microcode) address required")
        all_banks = dict(banks)
        all_banks[0] = program_address
        if verify:
            report = self.verify_microcode(program_words, all_banks)
            if not report.clean:
                raise DriverError(
                    "microcode failed static verification:\n"
                    + report.render()
                )
        self.place_program(program_words, program_address)

        begin = self.soc.sim.cycle
        self._trace("op.begin", op="run", words=len(program_words))
        config = self.configure(all_banks, len(program_words))
        config += self.start()
        compute = self.wait_done(max_cycles=max_wait_cycles)
        if check_status:
            compute += self.check_status()
        ack = self.acknowledge()
        total = self.soc.sim.cycle - begin
        self._trace("op.end", op="run", cycles=total)
        return RunResult(
            total_cycles=total,
            config_cycles=config,
            compute_cycles=compute,
            ack_cycles=ack,
        )

    # -- fault recovery ---------------------------------------------------
    def _trace(self, event: str, **data: object) -> None:
        """Record a driver-level event in the simulator trace."""
        sim = self.soc.sim
        sim.last_active = "driver"
        if sim.trace is not None:
            sim.trace.record(sim.cycle, "driver", event, data)

    def run_with_recovery(
        self,
        program_words: List[int],
        banks: Dict[int, int],
        program_address: Optional[int] = None,
        max_attempts: int = 3,
        timeout_cycles: int = 100_000,
        backoff_cycles: int = 64,
        max_backoff_cycles: int = 4096,
        fallback: "Optional[Callable[[], object]]" = None,
    ) -> RecoveryResult:
        """Run with timeout, bounded-backoff retry and degradation.

        Each attempt is a full :meth:`run` with ``check_status=True``
        and a ``timeout_cycles`` watchdog on completion.  A timed-out
        or trapped attempt is aborted (:meth:`abort`) and retried after
        an exponentially growing idle window (``backoff_cycles``,
        doubling, capped at ``max_backoff_cycles``).  When all attempts
        fail the OCP is declared dead: if ``fallback`` is given it is
        invoked (graceful degradation to the software path) and its
        return value stored in :attr:`RecoveryResult.fallback_value`;
        otherwise the last error is re-raised.
        """
        if max_attempts < 1:
            raise DriverError("max_attempts must be >= 1")
        faults: List[str] = []
        backoff = backoff_cycles
        last_error: Optional[Exception] = None
        for attempt in range(1, max_attempts + 1):
            try:
                result = self.run(
                    program_words,
                    banks,
                    program_address=program_address,
                    check_status=True,
                    max_wait_cycles=timeout_cycles,
                )
            except (DriverTimeout, OcpRunError) as exc:
                last_error = exc
                faults.append(f"attempt {attempt}: {exc}")
                self._trace(
                    "fault",
                    attempt=attempt,
                    kind=type(exc).__name__,
                    detail=str(exc),
                )
                self.abort()
                if attempt < max_attempts:
                    self._trace("retry", attempt=attempt, backoff=backoff)
                    self.soc.sim.step(backoff)
                    backoff = min(backoff * 2, max_backoff_cycles)
                continue
            if attempt > 1:
                self._trace("recovered", attempt=attempt)
            return RecoveryResult(
                attempts=attempt,
                degraded=False,
                result=result,
                faults=faults,
            )
        self._trace("degraded", attempts=max_attempts,
                    fallback=fallback is not None)
        if fallback is None:
            assert last_error is not None
            raise last_error
        value = fallback()
        return RecoveryResult(
            attempts=max_attempts,
            degraded=True,
            fallback_value=value,
            faults=faults,
        )
