"""Golden pins for the knobs → stages translation and what it produces.

Three pins, each read from ``golden_schedules.json`` beside this file:

* **stage signatures** — for every schedule shape (monolithic, phased,
  sharded, sharded+stitch, warm, ILP, Pareto, designer splits,
  save_egraph, verify), the stage list each entry point builds from it:
  ``job_stages`` for a :class:`~repro.pipeline.Job`,
  ``DatapathOptimizer.build_pipeline`` for an ``OptimizerConfig`` and the
  CLI's argv (captured at ``Pipeline.run``).  A signature holds the stage
  types, labels, limits, rule names, ``seed_egraph``, the extraction key,
  the shard knobs that reach a shard worker (and the worker's own stages)
  and the stitch rules;
* **run records** — costs, DAG costs, stop reasons, iterations, e-graph
  size, extraction status, verdicts and warm/stitch provenance of every
  registry design under the monolithic, sharded, stitch, warm, ILP and
  phased schedules.  The limits stop on iterations or saturation, never on
  the node limit, so the pins are exact;
* **keys** — ``job_schedule_key`` and ``job_cache_key`` of each registry
  design's default job, plus one job per knob.

Regenerate with ``PYTHONPATH=src python tests/pipeline/test_schedule_golden.py``:
it computes every pin under ``PYTHONHASHSEED`` 0 and 1, refuses to write
unless both agree, and rewrites the JSON file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.cli import main as cli_main
from repro.designs import DESIGNS, get_design
from repro.ir import gt, var
from repro.pipeline import Budget, Job, execute_job, job_schedule_key, job_stages
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.shard import shard_pipeline_stages
from repro.service.cache import job_cache_key
from repro.service.daemon import LOCAL_ONLY_FIELDS
from repro.synth.cost import weighted_key

GOLDEN = Path(__file__).with_name("golden_schedules.json")

# ------------------------------------------------------------ signatures
#: The design every signature is recorded on (multi-output, so the sharded
#: shapes are real fan-outs).
SIGNATURE_DESIGN = "stress_wide"

LIMITS = {"iter_limit": 3, "node_limit": 9_000, "time_limit": 30.0}
CONFIG_LIMITS = {**LIMITS, "verify": False}
CLI_LIMITS = ["--iters", "3", "--nodes", "9000", "--time-limit", "30"]
SPLITS = (gt(var("x0", 8), 127), gt(var("x1", 8), 63))


def _rules(rules) -> dict | None:
    if rules is None:
        return None
    names = [rule.name for rule in rules]
    return {
        "count": len(names),
        "digest": hashlib.sha256("\n".join(names).encode()).hexdigest()[:16],
    }


def _budget(budget) -> dict | None:
    return None if budget is None else budget.as_dict()


def stage_signature(stage) -> dict:
    """What a stage will do, independent of how it was built."""
    kind = type(stage).__name__
    sig: dict = {"type": kind, "label": stage.name}
    if kind == "Ingest":
        sig.update(
            seed_egraph=stage.seed_egraph,
            source=stage.source is not None,
            roots=sorted(stage.roots) if stage.roots is not None else None,
        )
    elif kind in ("WarmStart", "SaveEGraph"):
        sig.update(path=str(stage.path), schedule=stage.schedule)
    elif kind == "CaseSplit":
        sig.update(splits=[repr(split) for split in stage.splits])
    elif kind == "Saturate":
        limits = Budget(
            iters=stage.iter_limit,
            nodes=stage.node_limit,
            time_s=stage.time_limit,
        )
        sig.update(
            limits=_budget(limits),
            check_invariants=stage.check_invariants,
            rules=_rules(stage.rules),
        )
    elif kind in ("Extract", "OptimalExtract"):
        sig.update(key=stage.key.__qualname__, strip_assumes=stage.strip_assumes)
    elif kind == "ParetoSweep":
        sig.update(
            mode=stage.mode,
            points=stage.points,
            max_evals=stage.max_evals,
            slack_factor=stage.slack_factor,
        )
    elif kind == "Verify":
        sig.update(
            strict=stage.strict,
            random_trials=stage.random_trials,
            budget=_budget(stage.budget),
        )
    elif kind == "Shard":
        schedule = stage.schedule
        sig.update(
            max_shards=stage.max_shards,
            auto_threshold=stage.auto_threshold,
            parallel=stage.parallel,
            max_workers=stage.max_workers,
            budget_policy=schedule.budget_policy,
            ship_egraph=schedule.ship_egraph,
            splits=[repr(split) for split in schedule.splits],
            worker=pipeline_signature(
                shard_pipeline_stages(schedule, splits=schedule.splits)
            ),
        )
    elif kind == "MergeShards":
        sig.update(stitch=_stitch_phase(stage))
    return sig


def _stitch_phase(merge) -> dict | None:
    """The stitch saturation a ``MergeShards`` stage runs, if any."""
    stitch = merge.stitch
    if not stitch:
        return None
    if stitch is True:
        # Before the schedule builder, the merge stage carried the stitch
        # phase's knobs itself instead of a Saturate stage.
        return {
            "rules": _rules(merge.stitch_rules),
            "iters": merge.stitch_iters,
            "node_limit": merge.stitch_node_limit,
            "time_limit": merge.stitch_time_limit,
        }
    return {
        "rules": _rules(stitch.rules),
        "iters": stitch.iter_limit,
        "node_limit": stitch.node_limit,
        "time_limit": stitch.time_limit,
    }


def pipeline_signature(stages) -> list[dict]:
    return [stage_signature(stage) for stage in stages]


class _Captured(BaseException):
    """Raised in place of ``Pipeline.run`` to hand back the stage list (a
    ``BaseException``, so ``execute_job``'s error records cannot swallow it)."""

    def __init__(self, stages) -> None:
        super().__init__()
        self.stages = stages


def cli_stages(argv: list[str]) -> list:
    """The stages a CLI invocation would run (``{src}`` is the design's
    Verilog written to a temporary file)."""

    def capture(self, *args, **kwargs):
        raise _Captured(list(self.stages))

    with tempfile.TemporaryDirectory() as scratch:
        source = Path(scratch) / "design.v"
        source.write_text(get_design(SIGNATURE_DESIGN).verilog)
        argv = [arg.format(src=source, design=SIGNATURE_DESIGN) for arg in argv]
        with mock.patch.object(Pipeline, "run", capture):
            try:
                cli_main(argv)
            except _Captured as captured:
                return captured.stages
    raise AssertionError(f"{argv} ran no pipeline")


#: shape -> {"job": {...}, "config": {...}, "cli": [argv, ...]}, each
#: optional.  ``splits`` in a config entry are the designer case splits
#: passed to ``build_pipeline``.
SHAPES: dict[str, dict] = {
    "monolithic": {
        "job": LIMITS,
        "config": CONFIG_LIMITS,
        "cli": [
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--auto-shard-nodes", "0"],
            ["bench", "--designs", "{design}", *CLI_LIMITS, "--auto-shard-nodes", "0",
             "--workers", "1"],
            ["sweep", "{design}", "--iters", "3", "--nodes", "9000"],
            ["pareto", "{design}", "--iters", "3", "--nodes", "9000"],
        ],
    },
    "monolithic-defaults": {
        "job": {},
        "config": {},
        "cli": [["sweep", "{design}"], ["pareto", "{design}"]],
    },
    "phased": {
        "job": {
            **LIMITS,
            "phases": (("structural",), ("assume", "casesplit"), ()),
            "phase_iters": 2,
            "split_threshold": 2,
        },
    },
    "sharded": {
        "job": {**LIMITS, "shards": 2, "shard_parallel": True, "budget_policy": "fair"},
        "config": {**CONFIG_LIMITS, "shards": 2, "budget_policy": "weighted"},
        "cli": [
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify"],
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--shards", "2",
             "--shard-parallel"],
            ["bench", "--designs", "{design}", *CLI_LIMITS, "--workers", "1"],
        ],
    },
    "sharded-auto": {
        "job": {**LIMITS, "auto_shard_nodes": 64, "enable_assume": False},
        "config": {**CONFIG_LIMITS, "auto_shard_nodes": 64, "check_invariants": True},
    },
    "sharded-stitch": {
        "job": {**LIMITS, "auto_shard_nodes": 1, "stitch": True, "enable_condition": False},
        "config": {**CONFIG_LIMITS, "auto_shard_nodes": 1, "stitch": True,
                   "split_threshold": None},
        "cli": [["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--stitch"]],
    },
    "warm": {
        "job": {**LIMITS, "warm_start": "warm.egraph"},
        "config": {**CONFIG_LIMITS, "warm_start": "warm.egraph"},
        "cli": [["optimize", "{src}", *CLI_LIMITS, "--no-verify",
                 "--warm-start", "warm.egraph"]],
    },
    "ilp": {
        "job": {**LIMITS, "extract_objective": "ilp"},
        "config": {**CONFIG_LIMITS, "extract_objective": "ilp"},
        "cli": [
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--objective", "ilp"],
            ["bench", "--designs", "{design}", *CLI_LIMITS, "--objective", "ilp",
             "--workers", "1"],
            ["pareto", "{design}", "--iters", "3", "--nodes", "9000",
             "--objective", "ilp"],
        ],
    },
    "pareto": {
        "job": {**LIMITS, "pareto": "weighted", "verify": True},
    },
    "designer-splits": {
        "config": {**CONFIG_LIMITS, "splits": SPLITS},
    },
    "designer-splits-sharded": {
        "config": {**CONFIG_LIMITS, "splits": SPLITS, "shards": 8},
    },
    "custom-key": {
        "config": {**CONFIG_LIMITS, "extraction_key": weighted_key(1.0, 0.01),
                   "check_invariants": True, "warm_start": "w.egraph",
                   "save_egraph": "s.egraph"},
    },
    "save-egraph": {
        "job": {**LIMITS, "save_egraph": "saved.egraph"},
        "config": {**CONFIG_LIMITS, "save_egraph": "saved.egraph"},
        "cli": [
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--save-egraph",
             "saved.egraph", "--auto-shard-nodes", "0"],
            ["optimize", "{src}", *CLI_LIMITS, "--no-verify", "--save-egraph",
             "saved.egraph"],
        ],
    },
    "save-egraph-stitch": {
        "job": {**LIMITS, "shards": 3, "stitch": True, "save_egraph": "saved.egraph",
                "verify": True},
        "config": {**CONFIG_LIMITS, "shards": 3, "stitch": True,
                   "save_egraph": "saved.egraph"},
    },
    "verify": {
        "job": {**LIMITS, "verify": True, "verify_budget": Budget(time_s=5.0, bdd_nodes=1000)},
        "config": {**LIMITS, "verify_budget": Budget(time_s=5.0)},
        "cli": [
            ["optimize", "{src}", *CLI_LIMITS],
            ["optimize", "{src}", *CLI_LIMITS, "--auto-shard-nodes", "0",
             "--verify-budget-ms", "500", "--budget-ms", "9000"],
            ["bench", "--designs", "{design}", *CLI_LIMITS, "--verify",
             "--verify-budget-ms", "250", "--workers", "1"],
        ],
    },
    "verify-sharded": {
        "job": {**LIMITS, "verify": True, "auto_shard_nodes": 100},
        "config": {**LIMITS, "shards": 4},
    },
}


def _config_stages(knobs: dict) -> list:
    knobs = dict(knobs)
    splits = knobs.pop("splits", ())
    config = OptimizerConfig(**knobs)
    tool = DatapathOptimizer({}, config)
    return tool.build_pipeline(
        source=get_design(SIGNATURE_DESIGN).verilog, user_splits=splits
    ).stages


def signature_pins(shapes=tuple(SHAPES)) -> dict:
    design = get_design(SIGNATURE_DESIGN)
    pins: dict = {}
    for shape in shapes:
        entries = SHAPES[shape]
        if "job" in entries:
            job = Job(name=shape, design=SIGNATURE_DESIGN, **entries["job"])
            pins[f"{shape}/job"] = pipeline_signature(job_stages(job, design))
        if "config" in entries:
            pins[f"{shape}/config"] = pipeline_signature(_config_stages(entries["config"]))
        for index, argv in enumerate(entries.get("cli", ())):
            pins[f"{shape}/cli{index}:{argv[0]}"] = pipeline_signature(cli_stages(argv))
    return pins


# ---------------------------------------------------------------- records
#: schedule -> Job knobs.  Two iterations stop every registry design on the
#: iteration limit or saturation, well inside its node limit.
RECORD_SCHEDULES: dict[str, dict] = {
    "monolithic": {"iter_limit": 2},
    "sharded": {"iter_limit": 2, "auto_shard_nodes": 1},
    "stitch": {"iter_limit": 2, "auto_shard_nodes": 1, "stitch": True},
    "warm": {"iter_limit": 2},
    "ilp": {"iter_limit": 2, "extract_objective": "ilp"},
    "phased": {"phases": (("structural",), ("assume", "condition")), "phase_iters": 1},
}
#: Designs whose verdicts are pinned (the others verify by random trials,
#: which costs seconds per run and proves nothing the BDD designs don't).
VERIFIED = ("float_to_unorm", "lzc_example", "stress_wide", "unorm_to_float")
#: Designs whose ILP refinement runs into its 2 s wall limit at these
#: limits: where it stops depends on the machine, so their ILP records are
#: not pinned.
ILP_TIMED = ("fp_sub", "interpolation")
PINNED_FIELDS = (
    "status", "error", "stop_reason", "iterations", "nodes", "classes",
    "original_delay", "original_area", "optimized_delay", "optimized_area",
    "dag_delay", "dag_area", "extract_status", "extract_objective",
    "verified", "verify_method", "warm_start", "stitch", "shards",
)


def _pinned(record) -> dict:
    data = record.as_dict()
    return {name: data[name] for name in PINNED_FIELDS}


def schedule_records(schedule: str, scratch: str) -> dict:
    """Pinned record fields of every pinned design under one schedule."""
    pins: dict = {}
    knobs = RECORD_SCHEDULES[schedule]
    for name in sorted(DESIGNS):
        if schedule == "ilp" and name in ILP_TIMED:
            continue
        job = Job(name=name, design=name, verify=name in VERIFIED, **knobs)
        if schedule == "warm":
            artifact = os.path.join(scratch, f"{name}.egraph")
            execute_job(replace(job, verify=False, save_egraph=artifact))
            job = replace(job, warm_start=artifact)
        pins[f"{name}/{schedule}"] = _pinned(execute_job(job))
    return pins


# ------------------------------------------------------------------- keys
#: One non-default value per Job knob (on ``lzc_example``).
KNOB_VALUES: dict[str, object] = {
    "iter_limit": 3,
    "node_limit": 5_000,
    "time_limit": 5.0,
    "split_threshold": None,
    "enable_assume": False,
    "enable_condition": False,
    "verify": True,
    "phases": (("structural",), ("assume",)),
    "phase_iters": 2,
    "shards": 2,
    "auto_shard_nodes": 64,
    "shard_parallel": True,
    "budget": Budget(time_s=1.0, nodes=500),
    "budget_policy": "fair",
    "verify_budget": Budget(bdd_nodes=100),
    "source": get_design("lzc_example").verilog.replace("x + y", "y + x"),
    "warm_start": "warm.egraph",
    "save_egraph": "saved.egraph",
    "stitch": True,
    "extract_objective": "ilp",
    "pareto": "epsilon",
}


def key_pins() -> dict:
    jobs = {name: Job(name=name, design=name) for name in sorted(DESIGNS)}
    base = Job(name="knob", design="lzc_example")
    for knob, value in KNOB_VALUES.items():
        jobs[f"lzc_example/{knob}"] = replace(base, **{knob: value})
    return {
        label: {"schedule": job_schedule_key(job), "cache": job_cache_key(job)}
        for label, job in jobs.items()
    }


def all_pins() -> dict:
    records: dict = {}
    with tempfile.TemporaryDirectory() as scratch:
        for schedule in RECORD_SCHEDULES:
            records.update(schedule_records(schedule, scratch))
    return {"signatures": signature_pins(), "records": records, "keys": key_pins()}


# ------------------------------------------------------------------ tests
@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _roundtrip(value):
    return json.loads(json.dumps(value))


def test_knob_table_covers_every_job_field():
    """Every field a wire submission carries has a key pin; the only other
    pinned knobs are the local-only artifact paths."""
    wire = {
        f.name for f in fields(Job)
        if f.name not in (*LOCAL_ONLY_FIELDS, "name", "design")
    }
    assert wire <= set(KNOB_VALUES) <= wire | set(LOCAL_ONLY_FIELDS)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stage_signatures(shape, golden):
    expected = {
        label: pin
        for label, pin in golden["signatures"].items()
        if label.startswith(f"{shape}/")
    }
    assert _roundtrip(signature_pins([shape])) == expected


@pytest.mark.parametrize("schedule", sorted(RECORD_SCHEDULES))
def test_run_records(schedule, golden, tmp_path):
    expected = {
        label: pin
        for label, pin in golden["records"].items()
        if label.endswith(f"/{schedule}")
    }
    assert _roundtrip(schedule_records(schedule, str(tmp_path))) == expected


def test_keys(golden):
    assert _roundtrip(key_pins()) == golden["keys"]


# ------------------------------------------------------------- regenerate
def _pins_under(seed: str) -> dict:
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_schedule_golden as pins\n"
        "print(json.dumps(pins.all_pins(), sort_keys=True))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


if __name__ == "__main__":
    first, second = _pins_under("0"), _pins_under("1")
    if first != second:
        differing = [
            f"{section}/{label}"
            for section in first
            for label in first[section]
            if first[section][label] != second[section].get(label)
        ]
        sys.exit(f"pins differ between hash seeds: {differing}")
    GOLDEN.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
