"""The schedule's one table of composition rules, through every entry point.

Each case is one rule (or one schedule the rules accept) stated once, and
checked through each entry point that can express it: a :class:`Job` run
by :func:`execute_job` (violations come back as error records, before any
stage runs), an :class:`OptimizerConfig` building its pipeline (violations
raise :class:`CompositionError`) and the ``optimize`` CLI (violations exit
with ``error: <reason>``).  Accepted schedules are compared by the stage
types they build.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.designs import get_design
from repro.pipeline import (
    COMPOSITION_RULES,
    CompositionError,
    Job,
    Schedule,
    build_stages,
    execute_job,
    is_sharded,
    job_stages,
)
from repro.pipeline.pipeline import Pipeline
from repro.synth.cost import weighted_key

DESIGN = "stress_wide"

SHARDED = ["Ingest", "Shard", "MergeShards"]


class Case:
    """One composition rule, in each entry point's spelling.

    ``expect`` is a :class:`CompositionError` reason, or the stage types an
    accepted schedule builds (a ``Verify`` stage is ignored: the CLI and
    the config verify by default, a job does not).
    """

    def __init__(self, expect, job=None, config=None, cli=None):
        self.expect = expect
        self.entries = {
            name: knobs
            for name, knobs in (("job", job), ("config", config), ("cli", cli))
            if knobs is not None
        }


CASES = {
    "phases-with-shards": Case(
        "sharding composes with the single-phase schedule only",
        job={"shards": 2, "phases": (("structural",),)},
    ),
    "warm-with-shards": Case(
        "warm-start composes with monolithic schedules only",
        job={"shards": 4, "warm_start": "whatever.egraph"},
        config={"shards": 4, "warm_start": "whatever.egraph"},
        cli=["--shards", "4", "--warm-start", "whatever.egraph"],
    ),
    "ilp-with-shards": Case(
        "extract_objective='ilp' composes with monolithic schedules only",
        job={"shards": 2, "extract_objective": "ilp"},
        config={"shards": 2, "extract_objective": "ilp"},
        cli=["--shards", "2", "--objective", "ilp"],
    ),
    "pareto-with-shards": Case(
        "pareto composes with monolithic schedules only",
        job={"auto_shard_nodes": 1, "pareto": "epsilon"},
    ),
    "custom-key-with-shards": Case(
        "a custom extraction_key composes with monolithic schedules only",
        config={"shards": 2, "extraction_key": weighted_key(1.0, 0.5)},
    ),
    "stitch-without-shards": Case(
        "stitch requires a sharded schedule",
        job={"stitch": True},
        config={"stitch": True},
        cli=["--stitch", "--auto-shard-nodes", "0"],
    ),
    "stitch-with-warm": Case(
        "stitch requires a sharded schedule",
        job={"auto_shard_nodes": 128, "stitch": True, "warm_start": "a.egraph"},
        config={"auto_shard_nodes": 128, "stitch": True, "warm_start": "a.egraph"},
        cli=["--stitch", "--warm-start", "a.egraph"],
    ),
    "stitch-with-ilp": Case(
        "stitch requires a sharded schedule",
        job={"auto_shard_nodes": 128, "stitch": True, "extract_objective": "ilp"},
        config={"auto_shard_nodes": 128, "stitch": True, "extract_objective": "ilp"},
        cli=["--stitch", "--objective", "ilp"],
    ),
    "unknown-objective": Case(
        "unknown extract objective: 'simplex'",
        job={"extract_objective": "simplex"},
        config={"extract_objective": "simplex"},
    ),
    "auto-shard": Case(
        SHARDED,
        job={"auto_shard_nodes": 128},
        config={"auto_shard_nodes": 128},
        cli=[],
    ),
    "auto-shard-yields-to-ilp": Case(
        ["Ingest", "Saturate", "OptimalExtract"],
        job={"auto_shard_nodes": 128, "extract_objective": "ilp"},
        config={"auto_shard_nodes": 128, "extract_objective": "ilp"},
        cli=["--objective", "ilp"],
    ),
    "auto-shard-yields-to-warm": Case(
        ["Ingest", "WarmStart", "Saturate", "Extract"],
        job={"auto_shard_nodes": 128, "warm_start": "a.egraph"},
        config={"auto_shard_nodes": 128, "warm_start": "a.egraph"},
        cli=["--warm-start", "a.egraph"],
    ),
    "stitch-with-shards": Case(
        SHARDED,
        job={"shards": 2, "stitch": True},
        config={"shards": 2, "stitch": True},
        cli=["--shards", "2", "--stitch"],
    ),
}


class _Captured(BaseException):
    def __init__(self, stages) -> None:
        super().__init__()
        self.stages = stages


def _types(stages) -> list[str]:
    return [type(stage).__name__ for stage in stages if type(stage).__name__ != "Verify"]


def _via_job(knobs):
    design = get_design(DESIGN)
    job = Job(name="case", design=DESIGN, iter_limit=1, **knobs)
    try:
        return _types(job_stages(job, design))
    except CompositionError:
        # The batch path never raises: the violation is an error record,
        # produced before any stage runs.
        record = execute_job(job)
        assert record.status == "error" and record.runtime_s == 0.0
        assert record.error.startswith("CompositionError: ")
        return record.error.removeprefix("CompositionError: ")


def _via_config(knobs):
    config = OptimizerConfig(iter_limit=1, **knobs)
    tool = DatapathOptimizer({}, config)
    try:
        return _types(tool.build_pipeline(source=get_design(DESIGN).verilog).stages)
    except CompositionError as err:
        return str(err)


def _via_cli(argv, tmp_path, monkeypatch):
    from repro.cli import main

    source = tmp_path / "design.v"
    source.write_text(get_design(DESIGN).verilog)

    def capture(self, *args, **kwargs):
        raise _Captured(list(self.stages))

    monkeypatch.setattr(Pipeline, "run", capture)
    try:
        main(["optimize", str(source), "--iters", "1", *argv])
    except _Captured as captured:
        return _types(captured.stages)
    except SystemExit as stop:
        assert isinstance(stop.code, str) and stop.code.startswith("error: ")
        return stop.code.removeprefix("error: ")
    raise AssertionError("optimize neither ran a pipeline nor exited")


@pytest.mark.parametrize(
    "case, entry",
    [(case, entry) for case in CASES for entry in CASES[case].entries],
    ids=[f"{case}/{entry}" for case in CASES for entry in CASES[case].entries],
)
def test_composition_table(case, entry, tmp_path, monkeypatch):
    rule = CASES[case]
    knobs = rule.entries[entry]
    if entry == "job":
        got = _via_job(knobs)
    elif entry == "config":
        got = _via_config(knobs)
    else:
        got = _via_cli(knobs, tmp_path, monkeypatch)
    assert got == rule.expect


def test_every_rule_has_a_case():
    reasons = {reason for _, reason in COMPOSITION_RULES}
    covered = {case.expect for case in CASES.values() if isinstance(case.expect, str)}
    assert reasons <= covered


def test_violations_raise_before_building_stages():
    with pytest.raises(CompositionError, match="stitch requires"):
        build_stages(Schedule(stitch=True), source="unparsed")


@pytest.mark.parametrize(
    "knobs, sharded",
    [
        ({}, False),
        ({"shards": 2}, True),
        ({"auto_shard_nodes": 64}, True),
        ({"auto_shard_nodes": 64, "warm_start": "a.egraph"}, False),
        ({"auto_shard_nodes": 64, "extract_objective": "ilp"}, False),
        ({"shards": 2, "extract_objective": "ilp"}, True),
    ],
)
def test_jobs_and_schedules_agree_on_sharding(knobs, sharded):
    job = Job(name="j", design="lzc_example", **knobs)
    assert is_sharded(job) is sharded
    assert is_sharded(job.schedule(get_design("lzc_example"))) is sharded


def test_job_and_config_are_schedules():
    """Each knob is declared once, on :class:`Schedule`; the subclasses
    declare only their own fields."""
    assert issubclass(Job, Schedule) and issubclass(OptimizerConfig, Schedule)
    assert set(Job.__annotations__) == {
        "name", "design", "source", "budget", "iter_limit", "node_limit",
    }
    assert set(OptimizerConfig.__annotations__) == {"budget", "verify"}
    with pytest.raises(TypeError):
        Job("a", "fp_sub")
    with pytest.raises(FrozenInstanceError):
        OptimizerConfig().verify = False
