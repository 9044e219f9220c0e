"""Cross-cone stitch phase: re-uniting shard e-graphs closes the sharing gap.

Shared-nothing sharding gives up cross-cone equivalences; the governed
``Stitch`` step inside ``MergeShards`` absorbs each shard's shipped graph
into one e-graph, re-unions shared subexpressions, runs a short budgeted
saturation, and re-extracts.  Contract:

* **never worse** — keep-min against the plain merge guarantees a stitched
  output never costs more than the plain ``MergeShards`` result;
* **pays off where sharding lost sharing** — ``stress_wide``'s eight lanes
  share subexpressions that per-cone shards cannot see; the stitch recovers
  them (strictly better than plain merge, never worse than monolithic);
* **still sound** — every stitched output stays equivalent to its source
  cone (BDD-proved where the miter is provable);
* **ledger-honest** — stitch work shows up as its own governed rows, not as
  an unledgered overshoot inside ``merge-shards``.
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
from repro.pipeline.schedule import STITCH_ITERS, STITCH_TIME_LIMIT
from repro.rewrites import compose_rules
from repro.rtl import module_to_ir
from repro.verify import check_equivalent

ITERS = 3
NODE_LIMIT = 8_000

BDD_PROVABLE = sorted(set(DESIGNS) - {"fp_sub", "interpolation"})


def _sharded(design, stitch, budget=None, ship=None):
    """Shard and merge after the ingest; ``budget`` governs the fan-out.
    ``ship`` overrides whether shards ship their graphs (default: when
    stitching)."""
    ship_egraph = stitch if ship is None else ship
    ctx = Pipeline([Ingest(source=design.verilog)]).run(
        input_ranges=design.input_ranges
    )
    stitch_stage = Saturate(
        compose_rules(),
        iter_limit=STITCH_ITERS,
        node_limit=None,
        time_limit=STITCH_TIME_LIMIT,
        label="stitch",
    )
    return Pipeline(
        [
            Shard(Schedule(iter_limit=ITERS, node_limit=NODE_LIMIT, stitch=ship_egraph)),
            MergeShards(stitch=stitch_stage if stitch else None),
        ]
    ).run(ctx=ctx, budget=budget, budget_policy="adaptive")


@pytest.mark.parametrize("name", sorted(DESIGNS))
class TestStitchParity:
    def test_stitch_never_costlier_than_plain_merge(self, name):
        design = get_design(name)
        plain = _sharded(design, stitch=False)
        stitched = _sharded(design, stitch=True)
        assert stitched.artifacts["stitch_status"].startswith("stitched:")
        assert set(stitched.extracted) == set(plain.extracted)
        for output in plain.roots:
            assert (
                stitched.optimized_costs[output].key
                <= plain.optimized_costs[output].key
            ), f"stitch made {name}:{output} worse"

    def test_stitched_outputs_equivalent_to_original_cones(self, name):
        design = get_design(name)
        stitched = _sharded(design, stitch=True)
        cones = module_to_ir(design.verilog)
        for output, optimized in stitched.extracted.items():
            verdict = check_equivalent(
                cones[output], optimized, design.input_ranges
            )
            assert verdict.ok, (
                f"{name}:{output} differs at {verdict.counterexample}"
            )
            if name in BDD_PROVABLE:
                assert verdict.equivalent is True
                assert verdict.method in ("bdd", "exhaustive")


class TestStressWideGapClosure:
    """``stress_wide`` is the design that *needs* the stitch: its lanes
    share subexpressions across output cones, which shared-nothing shards
    cannot exploit."""

    def test_stitch_strictly_improves_at_least_one_lane(self):
        design = get_design("stress_wide")
        plain = _sharded(design, stitch=False)
        stitched = _sharded(design, stitch=True)
        improved = [
            output
            for output in plain.roots
            if stitched.optimized_costs[output].key
            < plain.optimized_costs[output].key
        ]
        assert improved, "stitch recovered no cross-cone sharing"

    def test_stitch_closes_the_gap_to_monolithic(self):
        design = get_design("stress_wide")
        mono = Pipeline(
            [
                Ingest(source=design.verilog),
                Saturate(
                    compose_rules(), iter_limit=ITERS, node_limit=NODE_LIMIT
                ),
                Extract(),
            ]
        ).run(input_ranges=design.input_ranges)
        stitched = _sharded(design, stitch=True)
        for output in mono.roots:
            assert (
                stitched.optimized_costs[output].key
                <= mono.optimized_costs[output].key
            ), f"stitched {output} still behind the monolithic run"


class TestStitchPlumbing:
    def test_without_shipped_graphs_the_stitch_skips(self):
        design = get_design("stress_wide")
        # stitch requested but shards not asked to ship their graphs.
        result = _sharded(design, stitch=True, ship=False)
        assert result.artifacts["stitch_status"] == "skipped:no-graphs"

    def test_shards_only_ship_graphs_when_asked(self):
        design = get_design("lzc_example")
        plain = _sharded(design, stitch=False)
        assert all(r.egraph is None for r in plain.shard_results)
        stitched = _sharded(design, stitch=True)
        assert all(r.egraph is not None for r in stitched.shard_results)
        assert all(r.root_ids for r in stitched.shard_results)

    def test_governed_stitch_charges_its_own_ledger_rows(self):
        design = get_design("stress_wide")
        governed = _sharded(design, stitch=True, budget=Budget(time_s=120.0))
        ledger = set(governed.governor.ledger)
        shard_rows = {f"shard:{r.name}" for r in governed.shard_results}
        assert ledger >= shard_rows
        assert "merge-shards" in ledger
        # Stitch work is ledgered under its own stage names; nothing else
        # leaks in.
        assert ledger - shard_rows <= {
            "merge-shards",
            "stitch",
            "stitch-extract",
        }
        # And the governed result honours the same keep-min contract.
        plain = _sharded(design, stitch=False)
        for output in plain.roots:
            assert (
                governed.optimized_costs[output].key
                <= plain.optimized_costs[output].key
            )
