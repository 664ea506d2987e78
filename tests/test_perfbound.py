"""Unit, property and mutant tests for ``repro.perfbound`` (OU3xx).

Complements ``tests/test_perfbound_soundness.py`` (the differential
gate): this file pins the refusal discipline (OU300 rather than a
wrong bound), the advisory diagnostics (OU301..OU304), the
:class:`~repro.perfbound.CostBound` surface, the algebraic properties
the interval cost semantics must satisfy, a mutant corpus proving the
measurement harness *would* catch an under-approximating cost model,
and the soclint throughput-closure checks (OU162/OU163) built on top.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.program import OuProgram
from repro.obs import compare_attribution
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.rac.scale import PassthroughRac
from repro.soclint import lint_soc
from repro.system import RAM_BASE, SoC
from repro.verify.domain import INF, Interval

from tests.test_perfbound_soundness import measure


def _rac(block=8, depth=16, latency=2):
    return PassthroughRac(block_size=block, fifo_depth=depth,
                          compute_latency=latency)


def _block(p: OuProgram, n: int = 8) -> OuProgram:
    return p.stream_to(1, n).execs().stream_from(2, n)


def _bound(p: OuProgram, rac=None, **kwargs):
    return bound_program(list(p.instructions), rac, **kwargs)


def codes(bound) -> List[str]:
    return bound.report.codes()


# -- OU300: refusal discipline -------------------------------------------


def test_empty_program_is_refused():
    bound = bound_program([], _rac())
    assert not bound.bounded
    assert not bound.clean
    assert codes(bound) == ["OU300"]
    assert bound.tightness() is None


def test_waitf_is_refused():
    p = OuProgram()
    _block(p).waitf("out", 0, 1).eop()
    bound = _bound(p, _rac())
    assert not bound.bounded
    assert "OU300" in codes(bound)
    assert "waitf" in bound.report.render()


def test_transfers_without_rac_contract_are_refused():
    p = OuProgram()
    _block(p).eop()
    bound = _bound(p, rac=None)
    assert not bound.bounded
    assert "OU300" in codes(bound)


def test_blocking_exec_overflowing_fifo_is_refused():
    # the op emits 32 words through a 16-deep FIFO nobody drains while
    # exec blocks: the wait has no static bound
    p = OuProgram()
    p.stream_to(1, 32, chunk=32).exec_().stream_from(2, 32).eop()
    bound = _bound(p, _rac(block=32, depth=16))
    assert not bound.bounded
    assert "OU300" in codes(bound)


def test_unstructured_flow_is_refused():
    p = OuProgram()
    p.loop(2).nop()  # unclosed loop: no reducible region
    bound = _bound(p, _rac())
    assert not bound.bounded
    assert "OU300" in codes(bound)


def test_bounded_total_hi_mirrors_refusal():
    p = OuProgram()
    _block(p).eop()
    refused = _bound(p, None)
    assert not refused.bounded and refused.total.hi == INF
    bound = _bound(p, _rac())
    assert bound.bounded and bound.total.hi < INF


# -- OU301..OU304: advisory diagnostics ----------------------------------


def test_ou301_flags_fifo_round_trips():
    p = OuProgram()
    p.stream_to(1, 32, chunk=32).execs().stream_from(2, 32).eop()
    bound = _bound(p, _rac(block=32, depth=8))
    assert bound.bounded
    assert "OU301" in codes(bound)
    assert bound.clean  # advisory: warnings do not gate the exit code


def test_ou302_flags_control_dominated_programs():
    p = OuProgram()
    for _ in range(20):
        p.nop()
    p.eop()
    bound = _bound(p)
    assert bound.bounded
    assert "OU302" in codes(bound)


def test_ou303_flags_shared_bus():
    p = OuProgram()
    _block(p).eop()
    rac = _rac()
    model = CostModel(rac=RacTiming.of(rac), masters=2)
    bound = _bound(p, rac, model=model)
    assert bound.bounded
    assert "OU303" in codes(bound)


def test_ou304_flags_sla_violation_and_suppression():
    p = OuProgram()
    _block(p).eop()
    bound = _bound(p, _rac(), sla_cycles=1)
    assert bound.bounded
    assert "OU304" in codes(bound)
    assert not bound.clean
    suppressed = _bound(p, _rac(), sla_cycles=1, suppress=("OU304",))
    assert suppressed.clean
    generous = _bound(p, _rac(), sla_cycles=10_000_000)
    assert "OU304" not in codes(generous)


# -- CostBound surface ---------------------------------------------------


def test_costbound_json_and_render():
    p = OuProgram()
    _block(p).eop()
    bound = _bound(p, _rac())
    payload = bound.to_json()
    assert payload["bounded"] is True
    assert payload["total"]["lo"] <= payload["total"]["hi"]
    assert set(payload["attribution"]) == {
        "transfer", "compute", "control"}
    assert payload["tightness"] == pytest.approx(bound.tightness())
    text = bound.render()
    assert "cost bound [bounded]" in text
    assert "tightness" in text
    with pytest.raises(KeyError):
        bound.bucket("latency")


def test_unbounded_json_uses_null_hi():
    bound = bound_program([], _rac())
    payload = bound.to_json()
    assert payload["bounded"] is False
    assert payload["total"]["hi"] is None
    assert "UNBOUNDED" in bound.render()


def test_buckets_sum_to_total():
    p = OuProgram()
    _block(p).wait(9).eop()
    bound = _bound(p, _rac())
    total = bound.transfer + bound.compute + bound.control
    assert (int(total.lo), int(total.hi)) == \
        (int(bound.total.lo), int(bound.total.hi))


# -- algebraic properties ------------------------------------------------


def test_concat_monotonicity():
    """Appending work never shrinks either end of the bound."""
    rac = _rac()
    prev_lo, prev_hi = 0, 0
    for blocks in range(1, 6):
        p = OuProgram()
        for _ in range(blocks):
            _block(p)
        p.eop()
        bound = _bound(p, rac)
        assert bound.bounded
        assert int(bound.total.lo) >= prev_lo
        assert int(bound.total.hi) >= prev_hi
        prev_lo, prev_hi = int(bound.total.lo), int(bound.total.hi)


def test_batch_widening_is_exact_per_trip():
    """Loop acceleration is linear in the trip count: the per-trip
    increment is constant, and extrapolates exactly past the unroll
    limit (trip 100 is accelerated, not unrolled)."""
    rac = _rac()

    def total(trip: int) -> Interval:
        p = OuProgram()
        p.loop(trip)
        _block(p)
        p.endl().eop()
        bound = _bound(p, rac)
        assert bound.bounded
        return bound.total

    t2, t3, t4 = total(2), total(3), total(4)
    d_lo = int(t3.lo) - int(t2.lo)
    d_hi = int(t3.hi) - int(t2.hi)
    assert d_lo > 0 and d_hi > 0
    assert (int(t4.lo) - int(t3.lo), int(t4.hi) - int(t3.hi)) == \
        (d_lo, d_hi)
    t100 = total(100)
    assert int(t100.lo) == int(t2.lo) + 98 * d_lo
    assert int(t100.hi) == int(t2.hi) + 98 * d_hi


def test_wait_shifts_control_exactly():
    p = OuProgram()
    _block(p).eop()
    q = OuProgram()
    _block(q).wait(37).eop()
    rac = _rac()
    base, waited = _bound(p, rac), _bound(q, rac)
    # wait(37) adds its own fetch/decode (2), the 37 held cycles, and
    # one more beat in the microcode prefetch burst
    extra_lo = int(waited.control.lo) - int(base.control.lo)
    extra_hi = int(waited.control.hi) - int(base.control.hi)
    assert extra_lo == extra_hi == 37 + 2 + 1


# -- mutant corpus: under-approximation must be observable ---------------


def _shrink(interval: Interval, k: int) -> Interval:
    return Interval(int(interval.lo) // k, int(interval.hi) // k)


class QuarterTransferModel(CostModel):
    """Mutant: transfer costs slashed 4x, stall ceiling dropped."""

    def mvtc_cost(self, count):
        return _shrink(super().mvtc_cost(count), 4)

    def mvfc_cost(self, count):
        return _shrink(super().mvfc_cost(count), 4)

    def stall_ceiling(self, ops_hi):
        return Interval.point(0)


class FreeComputeModel(CostModel):
    """Mutant: blocking exec modeled as a single cycle."""

    def exec_cost(self):
        return Interval.point(1)

    def stall_ceiling(self, ops_hi):
        return Interval.point(0)


class FreeControlModel(CostModel):
    """Mutant: fetch/decode and the prefetch burst cost nothing."""

    def fetch_decode_cost(self, index):
        return Interval.point(0)

    def prefetch_cost(self, prog_size):
        return Interval.point(0)


class InflatedFloorModel(CostModel):
    """Mutant: a lower bound above what the hardware can ever hit."""

    def fetch_decode_cost(self, index):
        base = super().fetch_decode_cost(index)
        return base.add_const(50)


def _mutant_caught(program, factory, model, mem_latency=1) -> bool:
    bound = bound_program(list(program.instructions), factory(),
                          model=model)
    assert bound.bounded
    report = measure(program, factory(), mem_latency=mem_latency)
    return not compare_attribution(report, bound).sound


def test_mutant_transfer_underapproximation_is_caught():
    factory = lambda: _rac(block=8, depth=16, latency=2)  # noqa: E731
    timing = RacTiming.of(factory())
    p = OuProgram()
    for _ in range(4):
        _block(p)
    p.eop()
    mutant = QuarterTransferModel(rac=timing)
    assert _mutant_caught(p, factory, mutant)


def test_mutant_compute_underapproximation_is_caught():
    factory = lambda: _rac(block=8, depth=16, latency=200)  # noqa: E731
    timing = RacTiming.of(factory())
    p = OuProgram()
    p.stream_to(1, 8).exec_().stream_from(2, 8).eop()
    mutant = FreeComputeModel(rac=timing)
    assert _mutant_caught(p, factory, mutant)


def test_mutant_control_underapproximation_is_caught():
    factory = lambda: _rac()  # noqa: E731
    timing = RacTiming.of(factory())
    p = OuProgram()
    _block(p).eop()
    mutant = FreeControlModel(rac=timing)
    assert _mutant_caught(p, factory, mutant)


def test_mutant_inflated_lower_bound_is_caught():
    factory = lambda: _rac()  # noqa: E731
    timing = RacTiming.of(factory())
    p = OuProgram()
    _block(p).eop()
    mutant = InflatedFloorModel(rac=timing)
    assert _mutant_caught(p, factory, mutant)


def test_reference_model_is_not_caught():
    """Control: the real cost model passes the same harness."""
    factory = lambda: _rac()  # noqa: E731
    timing = RacTiming.of(factory())
    p = OuProgram()
    for _ in range(4):
        _block(p)
    p.eop()
    assert not _mutant_caught(p, factory, CostModel(rac=timing))


# -- model validation ----------------------------------------------------


def test_cost_model_rejects_open_latency_contracts():
    with pytest.raises(ValueError):
        CostModel(mem_latency=Interval(1, INF))
    with pytest.raises(ValueError):
        CostModel(mem_latency=Interval(-1, 1))


# -- soclint throughput closure (OU162/OU163) ----------------------------


BANKS = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
         2: RAM_BASE + 0x3000}


def _firmware() -> OuProgram:
    p = OuProgram()
    _block(p, 16).eop()
    return p


def _throughput_soc() -> SoC:
    return SoC(racs=[PassthroughRac(block_size=16)])


def _firmware_wcet(soc: SoC) -> int:
    ocp = soc.ocp
    model = CostModel(
        protocol=soc.bus.protocol,
        mem_latency=Interval.point(
            getattr(soc.memory, "access_latency", 1)),
        rac=RacTiming.of(ocp.rac),
        ibuf_size=ocp.controller.ibuf_size,
        prefetch=ocp.controller.prefetch,
    )
    bound = bound_program(list(_firmware().instructions), ocp.rac,
                          model=model)
    assert bound.bounded
    return int(bound.total.hi)


def test_ou162_throughput_budget_not_closed():
    report = lint_soc(_throughput_soc(), banks=BANKS,
                      firmware=_firmware(), budget_cycles=10)
    findings = [f for f in report.findings if f.code == "OU162"]
    assert findings and findings[0].severity == "error"
    assert not report.clean


def test_ou162_unbounded_firmware():
    p = OuProgram()
    _block(p, 16).waitf("out", 0, 1).eop()
    report = lint_soc(_throughput_soc(), banks=BANKS, firmware=p,
                      budget_cycles=100_000)
    assert "OU162" in report.codes()
    assert "OU300" in [f for f in report.findings
                       if f.code == "OU162"][0].message


def test_ou163_marginal_budget_warns():
    soc = _throughput_soc()
    wcet = _firmware_wcet(soc)
    report = lint_soc(soc, banks=BANKS, firmware=_firmware(),
                      budget_cycles=wcet)  # fits, but > 90% used
    assert "OU162" not in report.codes()
    assert "OU163" in report.codes()
    finding = [f for f in report.findings if f.code == "OU163"][0]
    assert finding.severity == "warning"


def test_throughput_budget_closes_cleanly_with_headroom():
    soc = _throughput_soc()
    wcet = _firmware_wcet(soc)
    report = lint_soc(soc, banks=BANKS, firmware=_firmware(),
                      budget_cycles=wcet * 2)
    assert "OU162" not in report.codes()
    assert "OU163" not in report.codes()


def test_throughput_budget_without_firmware_is_rejected():
    with pytest.raises(ValueError):
        lint_soc(_throughput_soc(), banks=BANKS, firmware=_firmware(),
                 budget_cycles=0)
