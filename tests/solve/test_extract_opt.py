"""Contract tests for the ILP extraction stage (`OptimalExtract`).

Four guarantees, each pinned deterministically:

* **never worse than greedy** — on every registry design the ilp objective's
  DAG cost is <= the greedy objective's (the adoption gate measures the
  rebuilt trees, so this holds whatever the solver modeled);
* **anytime / governed** — a tight fake-clock deadline keeps the greedy
  incumbent with ``"ilp:incumbent"`` provenance, never raises, and the
  ledger's ``extract`` row covers the spend; a quota blow-up degrades to
  greedy with ``"fallback:quota"`` provenance;
* **step quota, not wall** — with a clock that never advances, fp_sub's and
  interpolation's refinements end on the 50,000-step quota with pinned
  solver keys;
* **record compatibility** — the new ``RunRecord`` fields round-trip JSON
  and legacy rows (pre-solver ``BENCH_perf.json`` entries) still load.
"""

from __future__ import annotations

import pytest

from repro.designs import DESIGNS
from repro.pipeline import (
    Budget,
    Extract,
    Ingest,
    Job,
    Pipeline,
    PipelineContext,
    RunRecord,
    Saturate,
    execute_job,
)
from repro.pipeline.session import job_stages
from repro.solve.extract_opt import OptimalExtract
from repro.synth.cost import default_key
from repro.synth.treecost import dag_cost


class FakeClock:
    """Deterministic monotonic clock: every read advances by ``tick``
    (same shape as the budget tests', local to avoid cross-directory
    test-module imports under xdist)."""

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _dag_key(record: RunRecord) -> tuple:
    return default_key(record.dag_delay, record.dag_area)


# -------------------------------------------------------- registry coverage
class TestNeverWorseThanGreedy:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_ilp_dag_cost_at_most_greedy_on_registry(self, design):
        greedy = execute_job(
            Job(name=design, design=design, iter_limit=2, verify=False)
        )
        ilp = execute_job(
            Job(
                name=design,
                design=design,
                iter_limit=2,
                verify=False,
                extract_objective="ilp",
            )
        )
        assert greedy.status == "ok" and ilp.status == "ok", (
            greedy.error,
            ilp.error,
        )
        assert ilp.extract_objective == "ilp"
        assert greedy.extract_objective == "greedy"
        assert "ilp:" in ilp.extract_status
        assert _dag_key(ilp) <= _dag_key(greedy), design


# ------------------------------------------------------------ stage contract
def _pipeline(extract_stage, *, budget=None, clock=None):
    from repro.designs.registry import get_design

    design = get_design("lzc_example")
    stages = [
        Ingest(source=design.verilog),
        Saturate(iter_limit=3, node_limit=8_000, time_limit=10**6),
        extract_stage,
    ]
    return (
        Pipeline(stages).run(
            input_ranges=design.input_ranges, budget=budget, clock=clock
        ),
        design.output,
    )


class TestGovernedStage:
    def test_tight_deadline_keeps_greedy_incumbent_and_charges(self):
        """The window expires between the greedy phase and the refinement:
        every cone reports ``incumbent``, the trees are exactly greedy's,
        and the ledger covers the (two-phase) extract spend."""
        greedy_ctx, output = _pipeline(Extract())
        clock = FakeClock(tick=0.05)
        ctx, _ = _pipeline(
            OptimalExtract(time_limit=0.0),
            budget=Budget(time_s=10**6),
            clock=clock,
        )
        assert ctx.extracted[output] == greedy_ctx.extracted[output]
        report = ctx.extract_reports[-1]
        assert report.status == "ilp:incumbent"
        assert set(report.roots.values()) == {"incumbent"}
        row = ctx.governor.ledger["extract"]
        assert row["spent"]["time_s"] > 0
        assert ctx.artifacts["extract_objective"] == "ilp"

    def test_quota_blowup_degrades_to_greedy_with_provenance(self):
        greedy_ctx, output = _pipeline(Extract())
        ctx, _ = _pipeline(OptimalExtract(max_classes=1))
        assert ctx.extracted[output] == greedy_ctx.extracted[output]
        report = ctx.extract_reports[-1]
        assert report.status == "ilp:fallback"
        assert set(report.roots.values()) == {"fallback:quota"}

    def test_generous_window_never_worse_and_reports_solver_outcome(self):
        greedy_ctx, output = _pipeline(Extract())
        ctx, _ = _pipeline(OptimalExtract())
        report = ctx.extract_reports[-1]
        assert report.status in ("ilp:optimal", "ilp:incumbent")
        greedy_dag = dag_cost(greedy_ctx.extracted[output], greedy_ctx.input_ranges)
        ilp_dag = dag_cost(ctx.extracted[output], ctx.input_ranges)
        assert default_key(ilp_dag.delay, ilp_dag.area) <= default_key(
            greedy_dag.delay, greedy_dag.area
        )
        # Two reports: the greedy phase's and the refinement's.
        assert len(ctx.extract_reports) == 2
        assert ctx.extract_reports[0].status in ("complete", "deadline")

    def test_ungoverned_run_is_capped_by_its_own_time_limit(self):
        """Unlimited pool: the stage's ``time_limit`` still bounds refinement
        (a pipeline that asked for no budget must not stall on a proof)."""
        ctx, output = _pipeline(OptimalExtract(time_limit=0.5))
        assert ctx.governor.budget.is_unlimited
        assert output in ctx.extracted
        assert ctx.extract_reports[-1].status.startswith("ilp:")


class TestStepQuotaPin:
    """With the wall limit out of the way (a clock that never advances),
    each registry cone's refinement ends on the 50,000-step quota, so its
    ILP record is exact whatever the machine's speed."""

    @pytest.mark.parametrize(
        "design, key",
        [
            ("fp_sub", (79.205, 63.0, 3241.0)),
            ("interpolation", (92.2375, 78.0, 2847.5)),
        ],
    )
    def test_refinement_ends_on_the_step_quota(self, design, key):
        job = Job(
            name=design,
            design=design,
            iter_limit=4,
            verify=False,
            extract_objective="ilp",
        )
        ctx = Pipeline(job_stages(job, DESIGNS[design])).run(
            ctx=PipelineContext(), budget=Budget(), clock=FakeClock(tick=0.0)
        )
        record = ctx.artifacts["extract_ilp"]
        assert record["roots"] == {"out": "incumbent"}
        [info] = record["detail"].values()
        assert info["steps"] == 50_001
        assert default_key(info["solver_delay"], info["solver_area"]) == key


# ------------------------------------------------------ record compatibility
class TestRunRecordCompat:
    def test_new_fields_round_trip_json(self):
        record = RunRecord(
            job="j",
            design="d",
            extract_objective="ilp",
            pareto="epsilon:optimal:4",
            dag_delay=12.5,
            dag_area=340.0,
        )
        again = RunRecord.from_json(record.to_json())
        assert again == record

    def test_legacy_rows_without_solver_fields_still_load(self):
        legacy = {
            "job": "perf:fp_sub",
            "design": "fp_sub",
            "status": "ok",
            "optimized_delay": 63.0,
            "optimized_area": 5320.0,
        }
        record = RunRecord.from_dict(legacy)
        assert record.extract_objective == ""
        assert record.pareto == ""
        assert record.dag_delay == 0.0 and record.dag_area == 0.0

    def test_ilp_record_carries_dag_costs(self):
        record = execute_job(
            Job(
                name="lzc_example",
                design="lzc_example",
                iter_limit=2,
                extract_objective="ilp",
            )
        )
        assert record.status == "ok"
        assert record.dag_delay > 0 and record.dag_area > 0
        # DAG area never exceeds tree area (sharing is priced once).
        assert record.dag_area <= record.optimized_area + 1e-9
