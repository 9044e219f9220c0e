"""Differential parity: sharded vs monolithic optimization, every design.

The contract that makes intra-design sharding safe to keep shipping:

* **cost parity** — for every output of every registry design, the
  extracted cost of the sharded-with-merge run is never worse than the
  monolithic run's (a shard explores its cone with the whole node budget,
  the monolithic e-graph shares it);
* **equivalence** — every sharded output is proved (BDD / exhaustive)
  equivalent to the original per-output cone on the design's constrained
  input domain;
* **the stress case** — ``stress_wide`` is the design built to starve the
  old per-object engine: its monolithic run used to stop on the node limit
  while shards completed.  The flat core's eager union-time hashcons
  re-keying eliminates the transient duplicates that blew the budget, so
  the contract is now two-sided: the monolithic run completes its full
  iteration budget *and* its costs are never worse than the sharded run's.
"""

from __future__ import annotations

import pytest

from repro.designs import DESIGNS, get_design
from repro.pipeline import (
    Budget,
    Extract,
    Ingest,
    MergeShards,
    Pipeline,
    Saturate,
    Shard,
    Schedule,
)
from repro.rewrites import compose_rules
from repro.rtl import module_to_ir
from repro.verify import check_equivalent

#: Parity-harness budget per design: small enough to keep the suite fast,
#: large enough that every optimization mechanism fires.
ITERS = 3
NODE_LIMIT = 8_000

#: Designs whose extracted forms the BDD engine proves within the default
#: node budget.  ``fp_sub``'s full-width proof is the known multi-minute
#: check (slow-marked elsewhere) and ``interpolation``'s miter contains
#: multipliers (a classic BDD blow-up); both still must pass the randomized
#: differential check.
BDD_PROVABLE = sorted(set(DESIGNS) - {"fp_sub", "interpolation"})


def _monolithic(design, iters=ITERS, node_limit=NODE_LIMIT):
    saturate = (
        Saturate(compose_rules(), iter_limit=iters)  # stage-default node budget
        if node_limit is None
        else Saturate(compose_rules(), iter_limit=iters, node_limit=node_limit)
    )
    return Pipeline(
        [Ingest(source=design.verilog), saturate, Extract()]
    ).run(input_ranges=design.input_ranges)


def _sharded(design, iters=ITERS, node_limit=NODE_LIMIT, budget=None):
    """Shard and merge after the ingest; ``budget`` governs the fan-out."""
    ctx = Pipeline([Ingest(source=design.verilog)]).run(
        input_ranges=design.input_ranges
    )
    schedule = Schedule(iter_limit=iters, node_limit=node_limit)
    return Pipeline([Shard(schedule), MergeShards()]).run(
        ctx=ctx, budget=budget, budget_policy=schedule.budget_policy
    )


@pytest.mark.parametrize("name", sorted(DESIGNS))
class TestShardParity:
    def test_sharded_covers_every_output(self, name):
        design = get_design(name)
        mono, sharded = _monolithic(design), _sharded(design)
        assert set(sharded.extracted) == set(mono.extracted) == set(mono.roots)
        # One shard per output in the default plan.
        assert len(sharded.shard_results) == len(sharded.roots)

    def test_sharded_cost_never_worse(self, name):
        design = get_design(name)
        mono, sharded = _monolithic(design), _sharded(design)
        for output in mono.roots:
            assert (
                sharded.optimized_costs[output].key
                <= mono.optimized_costs[output].key
            ), f"sharding made {name}:{output} worse"

    def test_shard_outputs_equivalent_to_original_cones(self, name):
        design = get_design(name)
        sharded = _sharded(design)
        cones = module_to_ir(design.verilog)
        for output, optimized in sharded.extracted.items():
            verdict = check_equivalent(
                cones[output], optimized, design.input_ranges
            )
            assert verdict.ok, (
                f"{name}:{output} differs at {verdict.counterexample}"
            )
            if name in BDD_PROVABLE:
                assert verdict.equivalent is True, (
                    f"{name}:{output} expected a proof, got {verdict}"
                )
                assert verdict.method in ("bdd", "exhaustive")


class TestStressDesignCompletesMonolithically:
    """The acceptance case for the flat core: ``stress_wide`` was built so
    the old per-object engine starved monolithically (transient congruence
    duplicates tripped the node limit mid-apply while per-output shards
    sailed through).  Two changes close the gap: the flat core re-keys the
    hashcons eagerly at union time, so re-instantiated right-hand sides
    dedup instead of allocating transients, and ``Saturate`` scales the
    backoff match budget by the root count, so eight cones in one e-graph
    are explored as deeply as eight one-cone shards.  The same design now
    completes its full iteration budget monolithically under the stage's
    default node budget, at cost parity with the sharded run."""

    def test_monolithic_completes_with_cost_no_worse_than_sharded(self):
        design = get_design("stress_wide")
        mono = _monolithic(design, design.iterations, node_limit=None)
        sharded = _sharded(design, design.iterations, design.node_limit)

        assert mono.report.stop_reason.value in ("iteration limit", "saturated"), (
            f"monolithic stress_wide no longer completes: "
            f"{mono.report.stop_reason.value}"
        )
        for result in sharded.shard_results:
            assert result.stop_reasons[-1] in ("iteration limit", "saturated"), (
                f"shard {result.name} did not complete: {result.stop_reasons}"
            )

        worse = [
            output
            for output in mono.roots
            if mono.optimized_costs[output].key
            > sharded.optimized_costs[output].key
        ]
        assert not worse, f"monolithic run worse than sharded on {worse}"

    def test_shard_walls_cover_every_shard(self):
        design = get_design("stress_wide")
        sharded = _sharded(design, design.iterations, design.node_limit)
        walls = sharded.artifacts["shard_walls"]
        assert set(walls) == {r.name for r in sharded.shard_results}
        assert all(wall > 0 for wall in walls.values())


@pytest.mark.parametrize("name", sorted(DESIGNS))
class TestBudgetedShardParity:
    """Sharded+budgeted runs pass the same differential contract: under a
    generous shared budget (which never binds at these limits) the governed
    flow extracts exactly what the unbudgeted one does, and the budget's
    only effect is the ledger it leaves behind."""

    def test_generous_budget_changes_nothing_but_the_ledger(self, name):
        design = get_design(name)
        plain = _sharded(design)
        governed = _sharded(design, budget=Budget(time_s=120.0))
        assert governed.extracted == plain.extracted
        for output in plain.roots:
            assert (
                governed.optimized_costs[output].key
                == plain.optimized_costs[output].key
            )
        shard_rows = {f"shard:{r.name}" for r in governed.shard_results}
        assert set(governed.governor.ledger) >= shard_rows
        # The only other rows are wall-time charges for the non-shard
        # stages that ran after the governor was installed.
        assert set(governed.governor.ledger) - shard_rows <= {"merge-shards"}
