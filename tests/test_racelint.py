"""racelint: cross-OCP concurrency-hazard analysis (OU2xx).

Covers the whole diagnostic surface (OU200-OU205), the
may-happen-in-parallel relation (chains, singleton slots, capability
routing), the scheduler's validate-on-submit modes, the JobClient
precheck, capability-table edge cases and the ``repro racecheck`` CLI.
"""

import json

import pytest

from repro.cli import main
from repro.core.isa import OuInstruction, OuOp
from repro.core.program import OuProgram
from repro.racelint import RaceChecker, StreamModel, check_stream
from repro.rac import PassthroughRac, ScaleRac
from repro.sched import (
    CapabilityTable,
    Job,
    RaceHazardError,
    ThroughputScheduler,
)
from repro.sim.errors import ConfigurationError
from repro.sw.jobs import JobClient
from repro.system import RAM_BASE, RAM_SIZE, build_mpsoc


def _jobs(n, kind="passthrough", size=8, chain=None):
    return [Job(f"j{i}", kind, list(range(size)), chain=chain)
            for i in range(n)]


def _two_passthrough():
    return [PassthroughRac(block_size=8), PassthroughRac(block_size=8)]


# -- MHP footprint overlaps (OU200 / OU201) -------------------------------

def test_shared_arenas_flag_write_write_and_read_write():
    report = check_stream(_jobs(2), racs=_two_passthrough(),
                          arena_stride=0)
    codes = {f.code for f in report.findings}
    assert "OU200" in codes
    assert "OU201" in codes
    assert not report.clean
    # findings name both jobs
    assert any(f.where == "jobs j0/j1" for f in report.findings)


def test_default_disjoint_arenas_are_clean():
    report = check_stream(_jobs(4), racs=_two_passthrough())
    assert report.clean, report.render()


def test_single_ocp_serializes_everything():
    # both jobs can only ever sit on OCP 0: the queue orders them,
    # identical footprints notwithstanding
    report = check_stream(_jobs(2), racs=[PassthroughRac(block_size=8)],
                          arena_stride=0)
    assert report.clean, report.render()


def test_same_chain_is_ordered_even_on_shared_arenas():
    jobs = _jobs(2, chain="pipe")
    report = check_stream(jobs, racs=_two_passthrough(),
                          arena_stride=0)
    assert report.clean, report.render()


def test_different_chains_still_race():
    jobs = [Job("a", "passthrough", list(range(8)), chain="left"),
            Job("b", "passthrough", list(range(8)), chain="right")]
    report = check_stream(jobs, racs=_two_passthrough(),
                          arena_stride=0)
    assert not report.clean


def test_cross_kind_overlap_detected():
    # different kinds always land on different OCPs; overlapping
    # arenas make that a hazard
    racs = [PassthroughRac(block_size=8), ScaleRac(block_size=8)]
    jobs = [Job("p", "passthrough", list(range(8))),
            Job("s", "scale", list(range(8)))]
    report = check_stream(jobs, racs=racs, arena_stride=0)
    assert any(f.code == "OU200" for f in report.findings)


def test_capability_subset_routing_narrows_the_relation():
    # three OCPs but both kinds pinned to OCP 0 only: serialized
    racs = [PassthroughRac(block_size=8), PassthroughRac(block_size=8),
            PassthroughRac(block_size=8)]
    capability = CapabilityTable({"passthrough": [0]})
    report = check_stream(_jobs(3), racs=racs, capability=capability,
                          arena_stride=0)
    assert report.clean, report.render()


# -- DMA aliasing (OU202) -------------------------------------------------

def test_armed_dma_window_aliasing_arena_is_flagged():
    from repro.mem.dma import REG_COUNT, REG_DST, REG_SRC

    soc = build_mpsoc(_two_passthrough(), with_dma=True)
    sched = ThroughputScheduler(soc)
    # arm a DMA copy whose destination lands inside slot 0's arenas
    soc.dma.write_word(REG_SRC, RAM_BASE)
    soc.dma.write_word(REG_DST, sched.slots[0].plan.in_base)
    soc.dma.write_word(REG_COUNT, 64)
    report = check_stream(_jobs(1), scheduler=sched)
    assert any(f.code == "OU202" for f in report.findings)


def test_idle_dma_is_not_flagged():
    soc = build_mpsoc(_two_passthrough(), with_dma=True)
    sched = ThroughputScheduler(soc)
    report = check_stream(_jobs(2), scheduler=sched)
    assert report.clean, report.render()


# -- unbounded footprints (OU203) -----------------------------------------

def test_unbounded_program_footprint_is_refused():
    def runaway(job, chunk):
        return OuProgram.from_instructions([
            OuInstruction(OuOp.MVTC, bank=1, offset=0, count=job.size),
            OuInstruction(OuOp.JMP, imm=0),
        ])

    report = check_stream(_jobs(1), racs=_two_passthrough(),
                          program_factory=runaway)
    assert [f.code for f in report.findings] == ["OU203"]
    assert report.findings[0].where == "job j0"


def test_unconfigured_bank_is_refused():
    def bank5(job, chunk):
        return OuProgram.from_instructions([
            OuInstruction(OuOp.MVTC, bank=5, offset=0, count=job.size),
            OuInstruction(OuOp.EOP),
        ])

    report = check_stream(_jobs(1), racs=_two_passthrough(),
                          program_factory=bank5)
    assert [f.code for f in report.findings] == ["OU203"]
    assert "bank 5" in report.findings[0].message


# -- arenas outside RAM (OU204) -------------------------------------------

def test_arena_outside_ram_is_flagged():
    report = check_stream(
        _jobs(1), racs=_two_passthrough(),
        arena_base=RAM_BASE + RAM_SIZE,
    )
    assert any(f.code == "OU204" for f in report.findings)


# -- batch widening (OU205) -----------------------------------------------

def test_batch_concatenation_widening_warns():
    racs = _two_passthrough()
    solo = check_stream(_jobs(2), racs=racs, arena_stride=0x40,
                        batch_jobs=1)
    assert solo.clean, solo.render()
    widened = check_stream(_jobs(2), racs=racs, arena_stride=0x40,
                           batch_jobs=2)
    codes = {f.code for f in widened.findings}
    assert "OU205" in codes
    assert "OU200" in codes or "OU201" in codes


def test_already_racy_streams_do_not_get_the_widening_warning():
    report = check_stream(_jobs(2), racs=_two_passthrough(),
                          arena_stride=0, batch_jobs=2)
    assert not any(f.code == "OU205" for f in report.findings)


# -- report plumbing -------------------------------------------------------

def test_suppression_and_json_match_soclint_conventions():
    report = check_stream(_jobs(2), racs=_two_passthrough(),
                          arena_stride=0,
                          suppress=("OU200", "OU201"))
    assert report.clean
    assert {f.code for f in report.suppressed} == {"OU200", "OU201"}
    doc = json.loads(report.render_json())
    assert doc["clean"] is True
    assert doc["errors"] == 0
    assert {f["code"] for f in doc["suppressed"]} == {"OU200", "OU201"}


def test_check_stream_needs_a_system():
    with pytest.raises(ValueError):
        check_stream(_jobs(1))


def test_unknown_kind_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        check_stream([Job("x", "dft", list(range(8)))],
                     racs=_two_passthrough())


def test_model_from_scheduler_matches_from_plan():
    racs = _two_passthrough()
    soc = build_mpsoc(racs)
    sched = ThroughputScheduler(soc, batch_jobs=2)
    live = StreamModel.from_scheduler(sched)
    planned = StreamModel.from_plan(racs, batch_jobs=2)
    assert sorted(live.slots) == sorted(planned.slots)
    for index in live.slots:
        assert live.slots[index] == planned.slots[index]


def _mixed_racs():
    return [PassthroughRac(block_size=8, fifo_depth=16),
            ScaleRac(block_size=4, fifo_depth=32),
            PassthroughRac(block_size=8, fifo_depth=64)]


@pytest.mark.parametrize("racs, arena_base, arena_stride, batch_jobs", [
    (_two_passthrough, RAM_BASE + 0x0030_0000, None, 1),
    (_two_passthrough, None, 0, 2),
    (_mixed_racs, None, None, 3),
    (_mixed_racs, RAM_BASE + 0x0010_0000, 0x0005_0000, 4),
    (_mixed_racs, RAM_BASE + 0x0040_0000, 0, 1),
], ids=["base", "stride0", "mixed", "mixed-base-stride", "mixed-stride0"])
def test_model_from_scheduler_matches_from_plan_geometry(
        racs, arena_base, arena_stride, batch_jobs):
    racs = racs()
    sched = ThroughputScheduler(
        build_mpsoc(racs), batch_jobs=batch_jobs,
        arena_base=arena_base, arena_stride=arena_stride)
    live = StreamModel.from_scheduler(sched)
    planned = StreamModel.from_plan(
        racs, batch_jobs=batch_jobs, arena_base=arena_base,
        arena_stride=arena_stride)
    assert live.slots == planned.slots
    assert live.batch_jobs == planned.batch_jobs == batch_jobs
    assert live.capability.as_dict() == planned.capability.as_dict()


def test_dispatched_batch_lands_where_the_model_says():
    from repro.core.registers import REG_BANK_BASE, REG_PROG_SIZE
    from repro.sched import compose_batch

    soc = build_mpsoc(_two_passthrough())
    # route to OCP 1 so the window and arena offsets are not zero
    sched = ThroughputScheduler(
        soc, capability=CapabilityTable({"passthrough": [1]}),
        arena_base=RAM_BASE + 0x0030_0000, arena_stride=0x0005_0000)
    plan = StreamModel.from_scheduler(sched).slots[1]
    job = Job("a", "passthrough", [0xDEAD0000 + i for i in range(8)])
    [result] = sched.run_stream([job])
    assert result.ocp_index == 1
    region = soc.bus.memmap.find(plan.reg_base)
    assert region.slave is soc.ocps[1].interface
    assert (region.base, region.size) == (plan.reg_base, plan.reg_bytes)
    regs = soc.ocps[1].interface
    assert [regs.read_word(REG_BANK_BASE + 4 * bank)
            for bank in range(3)] == [plan.prog_base, plan.in_base,
                                      plan.out_base]
    program = compose_batch([job], 0, chunk=sched.chunk).program
    assert regs.read_word(REG_PROG_SIZE) == len(program)
    assert soc.read_ram(plan.prog_base, len(program)) == program.words()
    assert soc.read_ram(plan.in_base, job.size) == job.words
    assert soc.read_ram(plan.out_base, job.size) == result.outputs


# -- scheduler validate-on-submit -----------------------------------------

def test_racecheck_submit_mode_rejects_racy_submission():
    soc = build_mpsoc(_two_passthrough())
    sched = ThroughputScheduler(soc, arena_stride=0, racecheck="submit")
    assert sched.submit(Job("a", "passthrough", list(range(8))))
    with pytest.raises(RaceHazardError) as excinfo:
        sched.submit(Job("b", "passthrough", list(range(8))))
    assert "OU200" in str(excinfo.value)
    assert not sched.racecheck_report.clean


def test_racecheck_warn_mode_records_but_accepts():
    soc = build_mpsoc(_two_passthrough())
    sched = ThroughputScheduler(soc, arena_stride=0, racecheck="warn")
    assert sched.submit(Job("a", "passthrough", list(range(8))))
    assert sched.submit(Job("b", "passthrough", list(range(8))))
    assert not sched.racecheck_report.clean


def test_racecheck_off_runs_clean_stream_bit_exact():
    soc = build_mpsoc(_two_passthrough())
    sched = ThroughputScheduler(soc, racecheck="submit")
    client = JobClient(sched)
    for _ in range(4):
        client.submit("passthrough", list(range(8)))
    results = client.drain()
    assert all(r.outputs == r.job.words for r in results)
    assert sched.racecheck_report.clean


def test_racecheck_bad_mode_rejected():
    soc = build_mpsoc(_two_passthrough())
    # three modes, spelled one way each: booleans are not aliases
    for mode in ("audit", True, False):
        with pytest.raises(ConfigurationError):
            ThroughputScheduler(soc, racecheck=mode)


def test_jobclient_precheck_dry_runs_without_submitting():
    soc = build_mpsoc(_two_passthrough())
    sched = ThroughputScheduler(soc, arena_stride=0)
    client = JobClient(sched)
    findings = client.precheck("passthrough", list(range(8)))
    assert findings == []  # nothing pending yet
    client.submit("passthrough", list(range(8)))
    findings = client.precheck("passthrough", list(range(8)))
    assert any(f.code in ("OU200", "OU201") for f in findings)
    assert not client.racecheck_report.clean
    # the precheck did not consume the id or enqueue anything
    assert sched.submitted == 1


# -- capability-table edge cases ------------------------------------------

def test_empty_capability_table_rejected():
    with pytest.raises(ConfigurationError):
        CapabilityTable({})


def test_kind_with_no_ocps_rejected():
    with pytest.raises(ConfigurationError):
        CapabilityTable({"dft": []})


def test_duplicate_ocp_indices_deduplicate():
    table = CapabilityTable({"dft": [1, 1, 0, 1]})
    assert table.serving("dft") == (1, 0)
    assert table.indices() == (1, 0)


def test_validate_plan_clean_lineup():
    table = CapabilityTable({"passthrough": [0, 1], "scale": [2]})
    report = table.validate_plan(["passthrough", "passthrough", "scale"])
    assert report.clean, report.render()


def test_validate_plan_flags_wrong_kind_and_range():
    table = CapabilityTable({"passthrough": [0, 5], "dft": [1]})
    report = table.validate_plan(["passthrough", "scale"])
    codes = [f.code for f in report.findings]
    assert "OU171" in codes  # index 5 out of range; OCP 1 serves scale
    assert "OU170" in codes  # no valid target for 'dft'


def test_from_plan_rejects_out_of_range_routing():
    with pytest.raises(ConfigurationError):
        StreamModel.from_plan(
            [PassthroughRac(block_size=8)],
            capability=CapabilityTable({"passthrough": [0, 3]}),
        )


# -- CLI -------------------------------------------------------------------

def test_cli_racecheck_clean_stream(capsys):
    code = main(["racecheck", "examples/streams/clean_mixed.json"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_racecheck_racy_stream(capsys):
    code = main(["racecheck", "examples/streams/racy_shared_arena.json",
                 "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    assert {f["code"] for f in doc["findings"]} >= {"OU200", "OU201"}


def test_cli_racecheck_suppress_to_clean(capsys):
    code = main(["racecheck", "examples/streams/racy_shared_arena.json",
                 "--suppress", "OU200", "OU201"])
    assert code == 0


def test_cli_racecheck_batch_override_finds_widening(tmp_path, capsys):
    stream = {
        "ocps": ["passthrough:8", "passthrough:8"],
        "arena_stride": "0x40",
        "jobs": [
            {"id": "a", "kind": "passthrough", "size": 8},
            {"id": "b", "kind": "passthrough", "size": 8},
        ],
    }
    path = tmp_path / "stream.json"
    path.write_text(json.dumps(stream))
    assert main(["racecheck", str(path)]) == 0
    capsys.readouterr()
    assert main(["racecheck", str(path), "--batch-jobs", "2",
                 "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "OU205" in {f["code"] for f in doc["findings"]}


def test_cli_racecheck_usage_errors(tmp_path, capsys):
    assert main(["racecheck", "no_such_stream.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"jobs": []}')
    assert main(["racecheck", str(bad)]) == 2
    unfit = tmp_path / "unfit.json"
    unfit.write_text(json.dumps({
        "ocps": ["passthrough:8"],
        "jobs": [{"id": "x", "kind": "passthrough", "size": 7}],
    }))
    assert main(["racecheck", str(unfit)]) == 2
