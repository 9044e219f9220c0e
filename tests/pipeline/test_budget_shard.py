"""Budget-aware shard orchestration + case-split/shard composition.

The acceptance case for the resource-governance redesign: ``stress_wide``
with 8 shards and a 2-second budget finishes in ~the budget (the old flow
handed every shard the whole ``time_limit``, so 8 slow shards could take 8x
the deadline), per-shard allocated-vs-spent ledgers land in the
:class:`~repro.pipeline.session.RunRecord`, and the execution substrate
(``inline`` vs ``process``) is recorded instead of silently degrading.

Also the ``CaseSplit``+``Shard`` composition satellite: designer case
splits are cone-sliced per shard (each shard applies exactly the splits its
cone can see), proved against the split-monolithic flow on a registry
design.
"""

from __future__ import annotations

import time

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.designs import get_design
from repro.ir.expr import gt, var
from repro.pipeline import (
    Budget,
    CaseSplit,
    Extract,
    Ingest,
    Job,
    MergeShards,
    Pipeline,
    RunRecord,
    Saturate,
    Schedule,
    Shard,
    execute_job,
)
import repro.pipeline.shard as shard_mod
from repro.pipeline.shard import ShardTask, sliced_splits
from repro.rewrites import compose_rules
from repro.rtl import module_to_ir
from repro.verify import check_equivalent

FAST = dict(iter_limit=2, node_limit=8_000)


def _fan_out(design, schedule, budget=None):
    """Ingest, then shard and merge; ``budget`` governs the fan-out alone."""
    ctx = Pipeline([Ingest(source=design.verilog)]).run(
        input_ranges=design.input_ranges
    )
    return Pipeline([Shard(schedule), MergeShards()]).run(
        ctx=ctx, budget=budget, budget_policy=schedule.budget_policy
    )


class TestBudgetedShardOrchestration:
    def test_acceptance_8_shards_respect_a_2s_budget(self):
        """The ROADMAP lever: a slow shard must not inherit the whole time
        limit.  Unbudgeted, 8 shards x a 10s per-shard limit could run for
        80s; under a 2s shared budget the whole fan-out lands within 1.25x
        of the deadline (plus a little un-governed extract/merge overhead).
        """
        job = Job(
            name="budgeted",
            design="stress_wide",
            iter_limit=8,          # enough work that the budget must bind
            node_limit=50_000,
            time_limit=10.0,       # per-shard knob the budget must override
            auto_shard_nodes=1,
            budget=Budget(time_s=2.0),
        )
        started = time.monotonic()
        record = execute_job(job)
        wall = time.monotonic() - started
        assert record.status == "ok", record.error
        assert record.shards == 8
        assert wall <= 2.0 * 1.25 + 0.5, (
            f"8-shard run took {wall:.2f}s against a 2s budget"
        )
        # Every output still comes back optimized.
        assert record.optimized_delay <= record.original_delay

    def test_per_shard_ledgers_land_in_the_run_record(self):
        record = execute_job(
            Job(
                name="ledger",
                design="stress_wide",
                auto_shard_nodes=1,
                budget=Budget(time_s=5.0),
                **FAST,
            )
        )
        assert record.status == "ok", record.error
        block = record.budget
        assert block["policy"] == "adaptive"
        assert block["allocated"] == {"time_s": 5.0}
        shard_rows = {
            label: row
            for label, row in block["stages"].items()
            if label.startswith("shard:")
        }
        assert set(shard_rows) == {f"shard:out{k}" for k in range(8)}
        for row in shard_rows.values():
            assert row["allocated"]["time_s"] > 0
            assert row["spent"]["time_s"] > 0
            assert row["spent"]["iters"] >= 1
        # Totals aggregate the shard spends.
        assert block["spent"]["iters"] == sum(
            row["spent"]["iters"] for row in shard_rows.values()
        )
        # And the whole block survives the record's JSON round trip.
        clone = RunRecord.from_json(record.to_json())
        assert clone.budget == record.budget

    def test_serial_run_records_inline_pool(self):
        record = execute_job(
            Job(name="inline", design="stress_wide", auto_shard_nodes=1, **FAST)
        )
        assert record.shard_pool == "inline"

    def test_parallel_run_records_process_pool(self):
        record = execute_job(
            Job(
                name="proc",
                design="stress_wide",
                auto_shard_nodes=1,
                shard_parallel=True,
                budget=Budget(time_s=10.0),
                **FAST,
            )
        )
        assert record.status == "ok", record.error
        assert record.shard_pool == "process"
        assert set(record.budget["stages"]) >= {f"shard:out{k}" for k in range(8)}

    def test_parallel_falls_back_inline_when_pool_unavailable(self, monkeypatch):
        """The old flow silently serialized when a nested pool could not
        start; now the substrate is recorded so perf numbers stay honest."""
        monkeypatch.setattr(shard_mod, "_nested_pool_available", lambda: False)
        record = execute_job(
            Job(
                name="fallback",
                design="stress_wide",
                auto_shard_nodes=1,
                shard_parallel=True,
                **FAST,
            )
        )
        assert record.status == "ok", record.error
        assert record.shard_pool == "inline"

    def test_monolithic_record_has_no_pool_or_ledger(self):
        record = execute_job(Job(name="mono", design="lzc_example", **FAST))
        assert record.shard_pool == ""
        assert record.budget == {}

    def test_tightly_budgeted_outputs_remain_equivalent(self):
        """A budget can only cut exploration short — never soundness."""
        design = get_design("stress_wide")
        schedule = Schedule(iter_limit=8, node_limit=50_000)
        ctx = _fan_out(design, schedule, Budget(time_s=0.5))
        cones = module_to_ir(design.verilog)
        assert set(ctx.extracted) == set(cones)
        for output in ("out0", "out5"):
            verdict = check_equivalent(
                cones[output], ctx.extracted[output], design.input_ranges
            )
            assert verdict.ok, f"{output} differs at {verdict.counterexample}"

    def test_weighted_policy_allocates_by_cone_size(self):
        design = get_design("stress_wide")
        schedule = Schedule(budget_policy="weighted", **FAST)
        ctx = _fan_out(design, schedule, Budget(time_s=4.0))
        ledgers = ctx.artifacts["shard_budgets"]
        sizes = {shard.name: shard.size for shard in ctx.shard_plan.shards}
        # Odd lanes (which fold in the previous lane's sum) have larger
        # cones and must receive at least the allocation of their smaller
        # even neighbour.
        assert sizes["out1"] > sizes["out0"]
        assert (
            ledgers["out1"]["allocated"]["time_s"]
            > ledgers["out0"]["allocated"]["time_s"]
        )


# ---------------------------------------------------- CaseSplit composition
def _mono_split(design, splits):
    return Pipeline(
        [
            Ingest(source=design.verilog),
            CaseSplit(splits),
            Saturate(compose_rules(), **FAST),
            Extract(),
        ]
    ).run(input_ranges=design.input_ranges)


def _sharded_split(design, splits):
    schedule = Schedule(splits=tuple(splits), **FAST)
    return Pipeline(
        [Ingest(source=design.verilog, seed_egraph=False), Shard(schedule), MergeShards()]
    ).run(input_ranges=design.input_ranges)


class TestCaseSplitComposesWithSharding:
    SPLITS = (gt(var("x0", 8), 200),)

    def test_splits_are_cone_sliced_per_shard(self):
        """Each shard applies exactly the designer splits its cone can see:
        x0 feeds out0 (directly) and out1 (odd lanes fold in sum0), and no
        other lane."""
        design = get_design("stress_wide")
        ctx = _sharded_split(design, self.SPLITS)
        for shard in ctx.shard_plan.shards:
            visible = sliced_splits(self.SPLITS, shard)
            if shard.name in ("out0", "out1"):
                assert visible == self.SPLITS
            else:
                assert visible == ()

    def test_split_plus_shard_equals_split_monolithic(self):
        """The registry-design proof: under limits where both flows
        complete, sharding a case-split design changes no extracted cost."""
        design = get_design("stress_wide")
        mono = _mono_split(design, self.SPLITS)
        sharded = _sharded_split(design, self.SPLITS)
        assert set(sharded.extracted) == set(mono.extracted)
        for output in mono.roots:
            assert (
                sharded.optimized_costs[output].key
                == mono.optimized_costs[output].key
            ), f"split+shard diverged from split-monolithic on {output}"

    def test_split_shard_outputs_equivalent_to_original_cones(self):
        design = get_design("stress_wide")
        sharded = _sharded_split(design, self.SPLITS)
        cones = module_to_ir(design.verilog)
        for output in ("out0", "out1"):
            verdict = check_equivalent(
                cones[output], sharded.extracted[output], design.input_ranges
            )
            assert verdict.ok, f"{output} differs at {verdict.counterexample}"

    def test_cross_cone_split_is_refused_not_dropped(self):
        """A split whose inputs span several cones lands in no shard; the
        stage must refuse loudly rather than silently optimize less."""
        design = get_design("stress_wide")
        # x0 lives in out0/out1's cones, x6 in out6/out7's: no single
        # per-output shard sees both.
        spanning = (gt(var("x0", 8) + var("x6", 8), 300),)
        with pytest.raises(ValueError, match="spanning multiple shards"):
            _sharded_split(design, spanning)

    def test_small_iteration_pool_is_not_floored_to_zero(self):
        """4 pooled iterations across 8 shards must still do work (the
        naive floor hands every shard int(0.5) = 0 iterations)."""
        design = get_design("stress_wide")
        schedule = Schedule(iter_limit=8, node_limit=8_000, budget_policy="fair")
        ctx = _fan_out(design, schedule, Budget(iters=4))
        total_iters = sum(len(r.iterations) for r in ctx.reports)
        assert 1 <= total_iters <= 4  # the pool is spent, never overspent

    def test_optimizer_user_splits_compose_with_sharding(self):
        """The preset no longer refuses user splits in the sharded flow."""
        design = get_design("stress_wide")
        config = OptimizerConfig(
            iter_limit=2, node_limit=8_000, auto_shard_nodes=1, verify=False
        )
        tool = DatapathOptimizer(design.input_ranges, config)
        module = tool.optimize_verilog(design.verilog, user_splits=self.SPLITS)
        assert set(module.outputs) == {f"out{k}" for k in range(8)}

    def test_splits_survive_the_task_pickle_boundary(self):
        import pickle

        design = get_design("stress_wide")
        ctx = Pipeline(
            [Ingest(source=design.verilog, seed_egraph=False)]
        ).run(input_ranges=design.input_ranges)
        schedule = Schedule(splits=self.SPLITS, **FAST)
        stage = Shard(schedule)
        plan = stage.plan(ctx)
        task = ShardTask(plan.shards[0], schedule)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.schedule.splits == self.SPLITS


class TestScheduleBudgetWithoutGovernor:
    def test_schedule_budget_installs_a_governor(self):
        """A budget on the fan-out alone still produces a uniform ledger."""
        design = get_design("stress_wide")
        ctx = _fan_out(design, Schedule(**FAST), Budget(time_s=5.0))
        assert ctx.governor is not None
        assert ctx.governor.budget == Budget(time_s=5.0)
        assert set(ctx.governor.ledger) >= {f"shard:out{k}" for k in range(8)}
        # Any extra rows are wall-only charges from non-shard stages (the
        # governor was installed after Ingest, so only later stages appear).
        extras = set(ctx.governor.ledger) - {f"shard:out{k}" for k in range(8)}
        assert extras <= {"merge-shards"}

    def test_children_never_outlive_the_parent_deadline(self):
        design = get_design("stress_wide")
        ctx = _fan_out(design, Schedule(**FAST), Budget(time_s=5.0))
        for result in ctx.shard_results:
            allocated = result.budget["allocated"]
            # Every shard's window fits inside the shared pool's window.
            assert allocated["time_s"] <= 5.0 + 1e-6
