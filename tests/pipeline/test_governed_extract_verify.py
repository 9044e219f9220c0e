"""The budget escape hatches, closed: governed Extract and Verify.

Before this subsystem, extraction and BDD equivalence checks ran entirely
outside the budget — a pipeline handed a tight deadline could overshoot it
by an arbitrarily expensive extract or verify.  These tests pin the new
contracts with deterministic fake clocks:

* **anytime Extract** — the extractor's worklist fixpoint polls the
  governor's deadline once per step, so expiry is overshot by at most one
  worklist step; the stage returns its best-so-far checkpoint (falling back
  to the behavioural tree for roots the truncated fixpoint never costed),
  records ``ExtractReport.status == "deadline"`` and charges the ledger —
  never an exception;
* **interruptible Verify** — a BDD proof stops at the ``Budget.bdd_nodes``
  quota (degrading to randomized trials, ``method == "random"``) or at the
  deadline (``method == "timeout"`` when no confidence was reached), and
  the stage charges wall and BDD-node spend like every other stage — on
  the strict-raise path too, so failed runs stay diagnosable.
"""

from __future__ import annotations

import time

import pytest

from repro.egraph import EGraph, Extractor
from repro.egraph.extract import AstSizeCost
from repro.ir import var
from repro.pipeline import (
    Budget,
    Extract,
    Ingest,
    Job,
    Pipeline,
    RunRecord,
    Saturate,
    Verify,
    execute_job,
)
import repro.pipeline.stages as stages_mod
from repro.verify import EquivalenceResult
# Sibling-module import: pytest's prepend import mode puts this directory
# on sys.path for both the `pytest` and `python -m pytest` entry points
# (a `tests.pipeline.…` package import would only work under the latter).
from test_budget import FakeClock


def chain(length: int, width: int = 4):
    expr = var("x0", width)
    for i in range(1, length):
        expr = expr + var(f"x{i}", width)
    return expr


# --------------------------------------------------------------- anytime core
class TestAnytimeExtractor:
    def test_deadline_overshoot_is_at_most_one_worklist_step(self):
        """The fixpoint polls once per step, so with a clock that ticks 1s
        per read it executes exactly ``floor(deadline)`` steps."""
        g = EGraph()
        g.add_expr(chain(12))
        g.rebuild()
        clock = FakeClock(start=0.0, tick=1.0)
        extractor = Extractor(g, AstSizeCost(), deadline=5.5, clock=clock)
        assert extractor.complete is False
        assert extractor.steps == 5  # the 6th poll (t=6.0) tripped the stop
        # The checkpoint stays sound: anything costed extracts to a tree.
        for eclass in g.classes():
            if extractor.has_cost(eclass.id):
                assert extractor.try_expr_of(eclass.id) is not None

    def test_no_deadline_reproduces_the_complete_fixpoint(self):
        g = EGraph()
        root = g.add_expr(chain(8))
        g.rebuild()
        governed = Extractor(g, AstSizeCost(), deadline=None, clock=FakeClock(tick=1.0))
        plain = Extractor(g, AstSizeCost())
        assert governed.complete and plain.complete
        assert governed.cost_of(root) == plain.cost_of(root)
        assert governed.expr_of(root) == plain.expr_of(root)

    def test_expired_deadline_still_never_raises(self):
        g = EGraph()
        root = g.add_expr(chain(6))
        g.rebuild()
        extractor = Extractor(
            g, AstSizeCost(), deadline=-1.0, clock=FakeClock(tick=0.001)
        )
        assert extractor.complete is False
        assert extractor.steps == 0
        assert extractor.try_expr_of(root) is None  # uncosted, not an error


# ------------------------------------------------------------- Extract stage
class TestGovernedExtractStage:
    def _governed_ctx(self, *, budget, clock, saturate=True):
        stages = [Ingest(roots={"out": chain(8)})]
        if saturate:
            stages.append(
                Saturate(iter_limit=2, node_limit=4_000, time_limit=10**6)
            )
        stages.append(Extract())
        return Pipeline(stages).run(budget=budget, clock=clock)

    def test_deadline_checkpoint_returns_within_one_step_and_charges(self):
        """Saturation drains the whole pool; Extract must come back with
        its checkpoint (here: the behavioural fallback), a deadline-status
        report, and a ledger row — not an exception, not an overshoot."""
        clock = FakeClock(tick=0.001)
        ctx = self._governed_ctx(budget=Budget(time_s=0.05), clock=clock)
        assert ctx.extracted["out"] == ctx.roots["out"]
        report = ctx.extract_reports[-1]
        assert report.status == "deadline"
        assert report.roots == {"out": "fallback"}
        assert report.steps <= 1  # the pool was already dry at stage entry
        row = ctx.governor.ledger["extract"]
        assert row["spent"]["time_s"] > 0
        # Costs still land (fallback == original, so the keys agree).
        assert (
            ctx.optimized_costs["out"].key == ctx.original_costs["out"].key
        )

    def test_generous_deadline_extracts_normally(self):
        clock = FakeClock(tick=0.0001)
        ctx = self._governed_ctx(budget=Budget(time_s=10**6), clock=clock)
        report = ctx.extract_reports[-1]
        assert report.status == "complete"
        assert report.roots == {"out": "extracted"}
        assert report.steps > 0
        assert ctx.optimized_costs["out"].key <= ctx.original_costs["out"].key
        assert "extract" in ctx.governor.ledger

    def test_unlimited_pool_extract(self):
        """An unbudgeted run is governed by the unlimited pool: the extract
        stage still ledgers its spend and reports a complete fixpoint."""
        ctx = Pipeline(
            [
                Ingest(roots={"out": chain(6)}),
                Saturate(iter_limit=1, node_limit=4_000),
                Extract(),
            ]
        ).run()
        assert ctx.governor.budget.is_unlimited
        assert "extract" in ctx.governor.ledger
        assert ctx.extract_reports[-1].status == "complete"


# -------------------------------------------------------------- Verify stage
def _wide_pair():
    """An equivalence whose domain is far beyond the exhaustive budget, so
    the check must go through the BDD (or its degradations)."""
    x, y = var("x", 16), var("y", 16)
    return {"out": x + y}, x + y


class TestInterruptibleVerify:
    def _run_verify(self, budget, clock, *, random_trials=64):
        roots, _ = _wide_pair()
        ctx = Pipeline([Ingest(roots=roots)]).run(budget=budget, clock=clock)
        # Commuted operands: equivalent, but only a proof can know that.
        x, y = var("x", 16), var("y", 16)
        ctx.extracted["out"] = y + x
        Pipeline([Verify(strict=True, random_trials=random_trials)]).run(ctx=ctx)
        return ctx

    def test_bdd_quota_exhaustion_degrades_to_random(self):
        """The satellite contract: BDD quota dry -> randomized trials, and
        the governor's ledger agrees (bdd spend recorded, pool empty)."""
        clock = FakeClock(tick=0.0)
        ctx = self._run_verify(Budget(bdd_nodes=64), clock=clock)
        verdict = ctx.equivalence["out"]
        assert verdict.method == "random"
        assert verdict.equivalent is None  # trials passed; not a proof
        assert verdict.trials == 64
        assert 0 < verdict.bdd_nodes  # the abandoned proof's spend
        row = ctx.governor.ledger["verify"]
        assert row["spent"]["bdd_nodes"] == verdict.bdd_nodes
        assert row["allocated"]["bdd_nodes"] == 64
        # Ledger and degradation agree: the pool really ran dry.
        assert ctx.governor.remaining().bdd_nodes == 0
        assert ctx.governor.exhausted()

    def test_expired_deadline_times_out_without_confidence(self):
        clock = FakeClock(start=100.0, tick=0.001)
        ctx = self._run_verify(Budget(deadline=1.0), clock=clock)
        verdict = ctx.equivalence["out"]
        assert verdict.method == "timeout"
        assert verdict.equivalent is None
        assert verdict.trials == 0
        assert ctx.governor.ledger["verify"]["spent"]["time_s"] > 0

    def test_unlimited_pool_still_proves_by_bdd(self):
        clock = FakeClock(tick=0.0)
        ctx = self._run_verify(Budget(time_s=10**6), clock=clock)
        verdict = ctx.equivalence["out"]
        assert verdict.method == "bdd"
        assert verdict.equivalent is True
        assert (
            ctx.governor.ledger["verify"]["spent"]["bdd_nodes"]
            == verdict.bdd_nodes
            > 0
        )

    def test_dry_bdd_pool_skips_the_proof_without_phantom_spend(self):
        """Quota 0 (e.g. an earlier output drained the pool) must go
        straight to randomized trials — no miter lowering, no node charge
        above the zero allocation."""
        clock = FakeClock(tick=0.0)
        ctx = self._run_verify(Budget(bdd_nodes=0), clock=clock)
        verdict = ctx.equivalence["out"]
        assert verdict.method == "random"
        assert verdict.bdd_nodes == 0
        assert ctx.governor.ledger["verify"]["spent"]["bdd_nodes"] == 0

    def test_generous_bdd_pool_never_loosens_the_engine_cap(self):
        """A Budget.bdd_nodes pool above the engine's 400k safety cap must
        tighten nothing — the allocated row reports the effective cap."""
        clock = FakeClock(tick=0.0)
        ctx = self._run_verify(Budget(bdd_nodes=5_000_000), clock=clock)
        row = ctx.governor.ledger["verify"]
        from repro.verify.equiv import DEFAULT_BDD_NODE_LIMIT

        assert row["allocated"]["bdd_nodes"] == DEFAULT_BDD_NODE_LIMIT
        # This proof fits comfortably, so it still lands as a bdd verdict.
        assert ctx.equivalence["out"].method == "bdd"

    def test_verify_budget_window_lands_in_the_ledger(self):
        """When the stage's deadline comes from its *own* budget (the
        governor has no time quota), the allocated row must report that
        window — not the governor's infinite one."""
        roots, _ = _wide_pair()
        clock = FakeClock(tick=0.0)
        ctx = Pipeline([Ingest(roots=roots)]).run(
            budget=Budget(nodes=50_000), clock=clock
        )
        x, y = var("x", 16), var("y", 16)
        ctx.extracted["out"] = y + x
        Pipeline([Verify(budget=Budget(time_s=1.0))]).run(ctx=ctx)
        allocated = ctx.governor.ledger["verify"]["allocated"]
        assert allocated["time_s"] == pytest.approx(1.0, abs=0.01)

    def test_verify_budget_bdd_ceiling_applies_without_a_governor(self):
        """``Verify(budget=...)`` is a self-contained ceiling too (the CLI's
        --verify-budget-ms path, which may run without a run budget)."""
        roots, _ = _wide_pair()
        ctx = Pipeline([Ingest(roots=roots)]).run()
        x, y = var("x", 16), var("y", 16)
        ctx.extracted["out"] = y + x
        Pipeline(
            [Verify(budget=Budget(bdd_nodes=64), random_trials=16)]
        ).run(ctx=ctx)
        assert ctx.equivalence["out"].method == "random"


# ------------------------------------------- failed runs stay diagnosable
class TestFailedRunsStayDiagnosable:
    def test_strict_verify_failure_still_records_timing_and_ledger(self):
        """The satellite bugfix: a raising stage's wall time must land in
        the context timings (and the governor ledger) before the re-raise."""
        x, y = var("x", 4), var("y", 4)
        ctx = Pipeline([Ingest(roots={"out": x + y})]).run(
            budget=Budget(time_s=10**6)
        )
        ctx.extracted["out"] = x - y  # provably different
        with pytest.raises(AssertionError, match="non-equivalent"):
            Pipeline([Verify(strict=True)]).run(ctx=ctx)
        assert "verify" in ctx.stage_timings()
        assert ctx.governor.ledger["verify"]["spent"]["time_s"] > 0
        assert ctx.equivalence["out"].equivalent is False

    def test_error_record_carries_stage_timings_and_budget(self, monkeypatch):
        """``execute_job`` condenses a failing run's partial context —
        stage timings, runtime, governor ledger — into the error record."""
        monkeypatch.setattr(
            stages_mod,
            "check_equivalent",
            lambda *a, **k: EquivalenceResult(
                False, "random", counterexample={}, trials=1
            ),
        )
        record = execute_job(
            Job(
                name="doomed",
                design="lzc_example",
                iter_limit=1,
                node_limit=4_000,
                verify=True,
                budget=Budget(time_s=60.0),
            )
        )
        assert record.status == "error"
        assert "non-equivalent" in record.error
        assert "verify" in record.stage_timings
        assert record.runtime_s > 0
        assert record.budget["stages"]["verify"]["spent"]["time_s"] >= 0
        # And the error record round-trips like any other.
        clone = RunRecord.from_json(record.to_json())
        assert clone.stage_timings == record.stage_timings


# ------------------------------------------------------------- record format
class TestRecordFormat:
    def test_record_carries_extract_status_and_verify_method(self):
        record = execute_job(
            Job(
                name="lzc",
                design="lzc_example",
                iter_limit=2,
                node_limit=8_000,
                verify=True,
                budget=Budget(time_s=60.0),
            )
        )
        assert record.status == "ok", record.error
        assert record.extract_status == "complete"
        assert record.verify_method in {"exhaustive", "bdd", "random"}
        clone = RunRecord.from_json(record.to_json())
        assert clone.extract_status == record.extract_status
        assert clone.verify_method == record.verify_method
        # Extract and verify spend are visible stage rows in the ledger.
        assert "extract" in record.budget["stages"]
        assert "verify" in record.budget["stages"]


# --------------------------------------------------------------- end-to-end
class TestBudgetedAcceptanceWithVerify:
    def test_stress_wide_2s_budget_including_verify(self):
        """The acceptance criterion: 8 shards *plus verification* under a
        2 s budget land within 1.25x + scheduling epsilon, with extract and
        verify spend visible in the record's ledger."""
        job = Job(
            name="budgeted+verify",
            design="stress_wide",
            iter_limit=8,
            node_limit=50_000,
            time_limit=10.0,
            auto_shard_nodes=1,
            verify=True,
            budget=Budget(time_s=2.0),
        )
        started = time.monotonic()
        record = execute_job(job)
        wall = time.monotonic() - started
        assert record.status == "ok", record.error
        assert record.shards == 8
        assert wall <= 2.0 * 1.25 + 0.5, (
            f"8-shard verified run took {wall:.2f}s against a 2s budget"
        )
        # Verification really happened (proved, or honestly degraded).
        assert record.verify_method in {"exhaustive", "bdd", "random", "timeout"}
        # Shards may disagree (early ones complete, a late one hits the
        # shared deadline); the record comma-joins the observed statuses.
        assert set(record.extract_status.split(",")) <= {"complete", "deadline"}
        stages = record.budget["stages"]
        assert "verify" in stages
        assert any(label.startswith("shard:") for label in stages)
        # No unledgered wall: the stage rows cover ~all of the run's spend.
        ledgered = sum(row["spent"]["time_s"] for row in stages.values())
        total = record.budget["spent"]["time_s"]
        assert ledgered >= 0.9 * total, (
            f"only {ledgered:.3f}s of {total:.3f}s ledgered"
        )
