"""Perf trajectory harness for the saturation hot path.

Times the `fp_sub` optimize run (iter_limit=4, verification off) that the
engine work is benchmarked against, and appends to the ``BENCH_perf.json``
trajectory at the repo root — wall time, nodes/sec and the per-phase split
from :class:`~repro.egraph.runner.IterationStats` — so the perf trajectory
is tracked across changes.  The committed file is only read; a run writes
its extended trajectory to ``$BENCH_PERF_OUT`` when that is set, and
``BENCH_PERF_OUT=BENCH_perf.json pytest benchmarks/test_bench_perf.py``
records into the tracked file.  ``BENCH_perf.json`` carries interleaved series,
distinguished by the record's ``job`` field: ``perf:fp_sub`` (the single-
output hot path), ``perf:stress_wide`` (the 8-output monolithic governed
run the flat core unlocked), ``perf:fp_sub_warm`` (cold-vs-warm on an
edited design, pinning the warm-start speedup), ``perf:stress_wide_stitch``
(the stitched sharded run closing the sharding cost gap),
``perf:interpolation`` (the default-schedule, node-limit run where union's
ASSUME-parent requeue concentrates), ``perf:stress_wide_verify`` (the
designer run with verification on, where 8 cones of two shapes run 2 shard
pipelines and 2 BDD proofs), ``perf:fp_sub_verify`` (the designer fp_sub
run with verification on, whose BDD must prove the miter under the 400k
cap) and ``perf:fp_sub_ilp`` (the globally
optimal DAG-cost extraction, pinning the ilp objective's
never-worse-than-greedy win); the bench-smoke factor
compares each run against the previous entry *of the same series*.

Unlike the paper-figure benches this one is cheap (a few seconds) and runs
in the default test selection, acting as a regression guard: a change that
loses the incremental-engine speedup fails the assertion at the bottom.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from repro import DatapathOptimizer, OptimizerConfig
from repro.designs import DESIGNS
from repro.pipeline import Budget, Job, RunRecord, execute_job, record_from_context

#: Wall time of the identical workload at the seed commit (2e25767),
#: measured back-to-back with the optimized engine on the same machine.
#: The profiling box cited in ISSUE 1 measured 12.7s for the same run.
SEED_BASELINE_WALL_S = 0.794
ISSUE_BASELINE_WALL_S = 12.7

REPEATS = 3
ITER_LIMIT = 4


#: Records kept in the ``BENCH_perf.json`` trajectory (oldest dropped).
RECORD_HISTORY_CAP = 50

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


def _out_path() -> Path | None:
    """Where this run records its trajectory: ``$BENCH_PERF_OUT``, or
    nowhere.  ``BENCH_PERF_OUT=BENCH_perf.json`` records into the tracked
    file; a plain test run leaves the checkout untouched."""
    out = os.environ.get("BENCH_PERF_OUT")
    return Path(out) if out else None


def _load_trajectory() -> tuple[dict, list]:
    """The trajectory payload and its record history: the run's own output
    once an earlier test has written it, else the committed file."""
    out = _out_path()
    source = out if out is not None and out.exists() else BENCH_PATH
    if source.exists():
        try:
            payload = json.load(source.open())
            return payload, payload.get("records", [])
        except (json.JSONDecodeError, AttributeError):
            pass
    return {}, []


def _append_entry(payload: dict, history: list, entry: dict) -> list:
    """Append one record to the capped trajectory, in memory, and write it
    out only when ``$BENCH_PERF_OUT`` names a file."""
    history = (history + [entry])[-RECORD_HISTORY_CAP:]
    payload["records"] = history
    out = _out_path()
    if out is not None:
        staged = out.with_name(out.name + ".tmp")
        staged.write_text(json.dumps(payload, indent=2) + "\n")
        staged.replace(out)  # atomic: parallel test workers never see half a file
    return history


def _smoke_guard(history: list, job: str, wall: float) -> None:
    """Bench-smoke mode (the CI `bench-smoke` job sets BENCH_SMOKE_FACTOR):
    compare this run's median against the previous trajectory entry *of the
    same job* — the two series interleave in ``BENCH_perf.json``, so a
    blind ``history[-2]`` would compare fp_sub against stress_wide.  On one
    machine this is a tight back-to-back ratio; in CI the previous entry
    may come from a different (faster) box, which is why the bench-smoke
    job is advisory, not a merge gate."""
    factor = float(os.environ.get("BENCH_SMOKE_FACTOR", "0") or 0)
    series = [e for e in history if e.get("job") == job]
    if factor and len(series) >= 2:
        previous = series[-2].get("wall_s")
        if previous:
            assert wall <= previous * factor, (
                f"{job} median regressed >{factor}x vs the last "
                f"BENCH_perf.json entry: {wall:.3f}s vs {previous:.3f}s"
            )


def _run_once() -> tuple[float, "object"]:
    design = DESIGNS["fp_sub"]
    config = OptimizerConfig(
        iter_limit=ITER_LIMIT, node_limit=design.node_limit, verify=False
    )
    tool = DatapathOptimizer(design.input_ranges, config)
    t0 = time.perf_counter()
    result = tool.optimize_verilog(design.verilog)
    return time.perf_counter() - t0, result


def test_perf_fp_sub_optimize():
    walls = []
    result = None
    for _ in range(REPEATS):
        wall, result = _run_once()
        walls.append(wall)
    report = result.report
    wall = statistics.median(walls)
    speedup = SEED_BASELINE_WALL_S / wall

    payload = {
        "design": "fp_sub",
        "iter_limit": ITER_LIMIT,
        "verify": False,
        "repeats": REPEATS,
        "walls_s": [round(w, 4) for w in walls],
        "wall_s": round(wall, 4),
        "wall_min_s": round(min(walls), 4),
        "seed_baseline_wall_s": SEED_BASELINE_WALL_S,
        "issue_baseline_wall_s": ISSUE_BASELINE_WALL_S,
        "speedup_vs_seed": round(speedup, 2),
        "runner_time_s": round(report.total_time, 4),
        "stop_reason": report.stop_reason.value,
        "nodes": report.nodes,
        "classes": report.classes,
        "nodes_per_s": round(report.nodes / report.total_time, 1),
        "iterations": [
            {
                "index": it.index,
                "nodes_before": it.nodes_before,
                "nodes_after": it.nodes_after,
                "classes_before": it.classes_before,
                "classes_after": it.classes_after,
                "applied": sum(it.applied.values()),
                "search_s": round(it.search_time, 4),
                "apply_s": round(it.apply_time, 4),
                "rebuild_s": round(it.rebuild_time, 4),
            }
            for it in report.iterations
        ],
    }

    # Append this run to the trajectory through the Session record format —
    # the same serialization `repro bench --records` emits — so the perf
    # history is machine-readable alongside the headline payload.
    record = record_from_context(
        "perf:fp_sub", "fp_sub", "out", result.context
    )
    record = RunRecord.from_json(record.to_json())  # exercise the round trip
    assert record.nodes_per_s > 0, "RunRecord lost its throughput metric"
    _, history = _load_trajectory()
    entry = record.as_dict()
    entry["wall_s"] = round(wall, 4)
    history = _append_entry(payload, history, entry)

    print(f"\nfp_sub optimize (iter_limit={ITER_LIMIT}, verify off)")
    print(f"  wall {wall:.3f}s (seed {SEED_BASELINE_WALL_S}s, {speedup:.1f}x)")
    for it in payload["iterations"]:
        print(
            f"  it{it['index']}: {it['nodes_before']}->{it['nodes_after']} nodes, "
            f"search {it['search_s']}s apply {it['apply_s']}s "
            f"rebuild {it['rebuild_s']}s"
        )

    # Regression guard: an absolute bound rather than a speedup ratio, so a
    # CI runner a few times slower than the baseline machine doesn't
    # false-fail.  The incremental engine runs this in ~0.2s on the baseline
    # box; reverting to the seed engine costs ~0.8s there and well over 2s
    # on any plausible runner.
    assert wall < 2.0, (
        f"saturation hot path regressed: {wall:.3f}s median "
        f"(seed engine baseline {SEED_BASELINE_WALL_S}s on the same machine)"
    )

    _smoke_guard(history, "perf:fp_sub", wall)


#: Absolute ceiling for the governed monolithic stress_wide run.  The flat
#: core finishes it in well under a second on the baseline box; the old
#: per-object engine tripped the node limit mid-apply and could not finish
#: at any speed, so this guards the capability as much as the wall time.
STRESS_WALL_CEILING_S = 10.0


def test_perf_stress_wide_monolithic_governed():
    """The second ``BENCH_perf.json`` series: ``stress_wide`` (8 output
    cones, one shared e-graph) run monolithically under the design's
    default node budget, governed by a shared time budget.  The flat core's
    eager hashcons re-keying is what lets this complete at all — the series
    exists so a regression back to transient-duplicate allocation shows up
    as a stop-reason/wall change here, not just as fp_sub noise."""
    t0 = time.perf_counter()
    record = execute_job(
        Job(
            name="perf:stress_wide",
            design="stress_wide",
            # The registry's 8k node_limit is the *per-shard* budget; the
            # monolithic series runs under the Saturate stage default (30k),
            # matching the shard-parity acceptance case.  The time budget is
            # generous — it governs but must not bind.
            node_limit=30_000,
            budget=Budget(time_s=60.0),
        )
    )
    wall = time.perf_counter() - t0

    assert record.status == "ok", record.error
    assert record.shards == 0, "stress_wide series must stay monolithic"
    assert record.stop_reason in ("iteration limit", "saturated"), (
        f"monolithic stress_wide no longer completes: {record.stop_reason!r}"
    )
    assert record.nodes_per_s > 0

    payload, history = _load_trajectory()
    entry = record.as_dict()
    entry["wall_s"] = round(wall, 4)
    history = _append_entry(payload, history, entry)

    print(
        f"\nstress_wide monolithic governed: wall {wall:.3f}s, "
        f"{record.nodes} nodes, {record.nodes_per_s:.0f} nodes/s, "
        f"stop {record.stop_reason!r}"
    )
    assert wall < STRESS_WALL_CEILING_S, (
        f"governed monolithic stress_wide regressed: {wall:.3f}s"
    )
    _smoke_guard(history, "perf:stress_wide", wall)


#: Absolute ceiling for the default-schedule interpolation run.  It takes
#: ~2 s on the baseline box; the ceiling leaves room for slow runners.
INTERPOLATION_WALL_CEILING_S = 15.0


def test_perf_interpolation_default_schedule():
    """The ``perf:interpolation`` series: ``interpolation`` under the
    ``bench`` defaults (the design's node limit, verification off), which
    stops on the node limit.  Its saturation is union-heavy: each union
    requeues the ASSUME parents of both classes for analysis, and the
    constant classes carry thousands of parents, so the series shows
    whether a union still pays for the whole parent set to find them."""
    t0 = time.perf_counter()
    record = execute_job(
        Job(name="perf:interpolation", design="interpolation", verify=False)
    )
    wall = time.perf_counter() - t0

    assert record.status == "ok", record.error
    assert record.stop_reason == "node limit", record.stop_reason
    assert record.nodes_per_s > 0

    payload, history = _load_trajectory()
    entry = record.as_dict()
    entry["wall_s"] = round(wall, 4)
    history = _append_entry(payload, history, entry)

    print(
        f"\ninterpolation default schedule: wall {wall:.3f}s, "
        f"{record.nodes} nodes, {record.iterations} iterations, "
        f"stop {record.stop_reason!r}"
    )
    assert wall < INTERPOLATION_WALL_CEILING_S, (
        f"default-schedule interpolation regressed: {wall:.3f}s"
    )
    _smoke_guard(history, "perf:interpolation", wall)


#: ``tracemalloc`` peak bytes of the retired per-object engine on the
#: workload below, measured with the engine still in the package (CPython
#: 3.11.7, ``PYTHONHASHSEED`` 0 to 3, 2-core x86-64 VM): 3,303,666 to
#: 3,401,358 bytes.  The smallest figure is the bound.
LEGACY_PEAK_BYTES = 3_303_666


def test_perf_flat_core_peak_memory_no_worse_than_legacy():
    """``tracemalloc`` peak-bytes guard: the flat struct-of-arrays core must
    not allocate a higher peak than the legacy per-object engine did on the
    bench workload (:data:`LEGACY_PEAK_BYTES`).  The arrays exist to
    *shrink* the resident graph (no per-node objects, no per-class
    dict-of-ENode churn), so a flat peak above the object peak means a leak
    in the core, not noise."""
    import gc

    from repro.pipeline import Extract, Ingest, Pipeline, Saturate
    from repro.rewrites import compose_rules

    design = DESIGNS["fp_sub"]

    def run_once() -> None:
        Pipeline(
            [
                Ingest(source=design.verilog),
                Saturate(
                    compose_rules(),
                    iter_limit=ITER_LIMIT,
                    node_limit=design.node_limit,
                ),
                Extract(),
            ]
        ).run(input_ranges=design.input_ranges)

    # Warm untraced first: the first run pays the one-time population of
    # process-global caches (operator cost memo, interned interval sets,
    # compiled matchers) inside its traced peak.
    run_once()
    gc.collect()
    tracemalloc.start()
    try:
        run_once()
        flat = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(
        f"\nfp_sub saturation peak: flat {flat / 1e6:.2f} MB, "
        f"legacy {LEGACY_PEAK_BYTES / 1e6:.2f} MB "
        f"({flat / LEGACY_PEAK_BYTES:.2f}x)"
    )
    assert flat <= LEGACY_PEAK_BYTES, (
        f"flat core peak memory regressed past the object engine: "
        f"{flat} bytes vs {LEGACY_PEAK_BYTES} bytes"
    )


#: Minimum median speedup of a warm-started re-optimization of an *edited*
#: fp_sub over the cold run of the same edited source.  The edit exposes an
#: already-explored internal wire as a new output — the realistic
#: resubmission the artifact tier exists for — so the warm run re-interns
#: with an empty delta and goes straight to extraction.  Measured ~3x on
#: the baseline box; the floor leaves slack for noisy runners.
WARM_SPEEDUP_FLOOR = 2.0

WARM_KNOBS = dict(iter_limit=8, node_limit=10_000)


def test_perf_fp_sub_warm(tmp_path):
    """The ``perf:fp_sub_warm`` series: cold-vs-warm on an edited design.

    Seeds the family artifact from the unedited ``fp_sub``, then times the
    *edited* design (a new ``expdiff_out`` output over the existing
    ``expdiff`` wire) cold and warm, interleaved.  Pins the PR-8 acceptance
    bar: warm median >= 2x faster at the identical extracted cost."""
    design = DESIGNS["fp_sub"]
    edited = design.verilog.replace(
        "output [9:0] out", "output [9:0] out,\n  output [4:0] expdiff_out"
    ).replace("endmodule", "  assign expdiff_out = expdiff;\nendmodule")
    assert edited != design.verilog

    artifact = tmp_path / "fp_sub.egraph"
    seed = execute_job(
        Job(
            name="seed:fp_sub",
            design="fp_sub",
            save_egraph=str(artifact),
            **WARM_KNOBS,
        )
    )
    assert seed.status == "ok", seed.error

    def run(warm: bool):
        t0 = time.perf_counter()
        record = execute_job(
            Job(
                name="perf:fp_sub_warm" if warm else "cold:fp_sub_warm",
                design="fp_sub",
                source=edited,
                warm_start=str(artifact) if warm else None,
                **WARM_KNOBS,
            )
        )
        assert record.status == "ok", record.error
        return time.perf_counter() - t0, record

    colds, warms = [], []
    cold = warm = None
    for _ in range(REPEATS):
        wall, cold = run(warm=False)
        colds.append(wall)
        wall, warm = run(warm=True)
        warms.append(wall)

    cold_wall = statistics.median(colds)
    warm_wall = statistics.median(warms)
    speedup = cold_wall / warm_wall

    assert warm.warm_start.startswith("hit:"), warm.warm_start
    # An empty-delta edit: the loaded graph is the saved one, so its
    # extraction adopts the artifact's solved table instead of re-solving.
    assert warm.greedy_table == "reused", warm.greedy_table
    assert (warm.optimized_area, warm.optimized_delay) == (
        cold.optimized_area,
        cold.optimized_delay,
    ), "warm start changed the extracted cost"

    payload, history = _load_trajectory()
    entry = warm.as_dict()
    entry["wall_s"] = round(warm_wall, 4)
    entry["cold_wall_s"] = round(cold_wall, 4)
    entry["speedup_vs_cold"] = round(speedup, 2)
    history = _append_entry(payload, history, entry)

    print(
        f"\nfp_sub edited resubmission: cold {cold_wall:.3f}s, "
        f"warm {warm_wall:.3f}s ({speedup:.2f}x), "
        f"cost {warm.optimized_area}/{warm.optimized_delay}, "
        f"{warm.warm_start!r}"
    )
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm start no longer pays: {speedup:.2f}x median "
        f"(cold {cold_wall:.3f}s, warm {warm_wall:.3f}s)"
    )
    _smoke_guard(history, "perf:fp_sub_warm", warm_wall)


def test_perf_stress_wide_stitch(tmp_path):
    """The ``perf:stress_wide_stitch`` series: the stitched sharded run must
    close the sharding cost gap — no costlier than the plain merge *or* the
    monolithic run — while its wall stays on the trajectory."""
    knobs = dict(design="stress_wide", iter_limit=3, node_limit=8_000)
    mono = execute_job(Job(name="mono", **knobs))
    plain = execute_job(Job(name="plain", shards=4, **knobs))
    t0 = time.perf_counter()
    stitched = execute_job(
        Job(name="perf:stress_wide_stitch", shards=4, stitch=True, **knobs)
    )
    wall = time.perf_counter() - t0

    for record in (mono, plain, stitched):
        assert record.status == "ok", record.error
    assert stitched.stitch.startswith("stitched:"), stitched.stitch
    assert stitched.optimized_area <= plain.optimized_area, (
        "stitch made the sharded run costlier than the plain merge"
    )
    assert stitched.optimized_area <= mono.optimized_area, (
        "stitched sharded run still behind the monolithic cost"
    )
    assert stitched.optimized_delay <= plain.optimized_delay
    assert stitched.optimized_delay <= mono.optimized_delay

    payload, history = _load_trajectory()
    entry = stitched.as_dict()
    entry["wall_s"] = round(wall, 4)
    entry["plain_area"] = plain.optimized_area
    entry["mono_area"] = mono.optimized_area
    history = _append_entry(payload, history, entry)

    print(
        f"\nstress_wide stitched (4 shards): wall {wall:.3f}s, "
        f"area {stitched.optimized_area} (plain {plain.optimized_area}, "
        f"mono {mono.optimized_area}), {stitched.stitch!r}"
    )
    _smoke_guard(history, "perf:stress_wide_stitch", wall)


#: Absolute ceiling for the designer stress_wide run with verification on.
#: It takes ~1 s on the baseline box (~2 s before shard and verdict reuse);
#: the ceiling leaves room for slow runners.
STRESS_WIDE_VERIFY_WALL_CEILING_S = 15.0


def test_perf_stress_wide_verify():
    """The ``perf:stress_wide_verify`` series: ``optimize stress_wide.v
    --iters 4`` as the CLI builds it, verification on.  Its 8 auto-sharded
    cones are two shapes up to renaming, so 2 shards run a pipeline and 2
    BDDs are built; the ledger names the representative of the other 6."""
    from repro.cli import build_parser

    design = DESIGNS["stress_wide"]
    args = build_parser().parse_args(["optimize", "stress_wide.v", "--iters", "4"])
    config = OptimizerConfig(
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=True,
        split_threshold=args.split_threshold,
        auto_shard_nodes=args.auto_shard_nodes or None,
        budget_policy=args.budget_policy,
    )
    t0 = time.perf_counter()
    result = DatapathOptimizer(design.input_ranges, config).optimize_verilog(
        design.verilog
    )
    wall = time.perf_counter() - t0

    record = record_from_context(
        "perf:stress_wide_verify", "stress_wide", "out0", result.context
    )
    assert record.status == "ok", record.error
    assert record.shards == 8
    assert all(o.equivalence.equivalent for o in result.outputs.values())
    stages = record.budget["stages"]
    shard_rows = {k: v for k, v in stages.items() if k.startswith("shard:")}
    ran = sorted(k for k, v in shard_rows.items() if "reused_from" not in v)
    assert ran == ["shard:out0", "shard:out1"], ran
    assert len(stages["verify"]["reused_from"]) == 6
    assert stages["verify"]["spent"]["bdd_nodes"] == 6_848 + 21_594

    payload, history = _load_trajectory()
    entry = record.as_dict()
    entry["wall_s"] = round(wall, 4)
    history = _append_entry(payload, history, entry)

    print(
        f"\nstress_wide designer run, verify on: wall {wall:.3f}s, "
        f"{len(ran)} of {len(shard_rows)} shards ran"
    )
    assert wall < STRESS_WIDE_VERIFY_WALL_CEILING_S, (
        f"designer stress_wide with verification regressed: {wall:.3f}s"
    )
    _smoke_guard(history, "perf:stress_wide_verify", wall)


#: Absolute ceiling on the Verify stage of the designer fp_sub run.  The
#: BDD proves the miter in ~0.15 s on the baseline box; a variable order
#: that blows the 400k cap costs ~0.4 s there before the random fallback.
FP_SUB_VERIFY_WALL_CEILING_S = 5.0


def test_perf_fp_sub_verify():
    """The ``perf:fp_sub_verify`` series: ``optimize fp_sub.v`` as the CLI
    builds it, verification on.  Its record carries the Verify stage's wall
    (``wall_s``) and the BDD nodes it built; the BDD must prove the miter
    under the engine's 400k-node cap, not fall back to random trials."""
    from repro.cli import build_parser

    design = DESIGNS["fp_sub"]
    args = build_parser().parse_args(["optimize", "fp_sub.v"])
    config = OptimizerConfig(
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=True,
        split_threshold=args.split_threshold,
        auto_shard_nodes=args.auto_shard_nodes or None,
        budget_policy=args.budget_policy,
    )
    t0 = time.perf_counter()
    result = DatapathOptimizer(design.input_ranges, config).optimize_verilog(
        design.verilog
    )
    run_wall = time.perf_counter() - t0
    verdict = result.outputs["out"].equivalence
    wall = result.context.stage_timings()["verify"]

    record = record_from_context(
        "perf:fp_sub_verify", "fp_sub", "out", result.context
    )
    assert record.status == "ok", record.error
    payload, history = _load_trajectory()
    entry = record.as_dict()
    entry["wall_s"] = round(wall, 4)
    entry["run_wall_s"] = round(run_wall, 4)
    entry["bdd_nodes"] = verdict.bdd_nodes
    history = _append_entry(payload, history, entry)

    print(
        f"\nfp_sub designer run, verify on: verify {wall:.3f}s of "
        f"{run_wall:.3f}s, {verdict!r}"
    )
    assert verdict.equivalent is True, verdict
    assert verdict.method == "bdd", verdict
    assert verdict.bdd_nodes <= 400_000
    assert wall < FP_SUB_VERIFY_WALL_CEILING_S, (
        f"designer fp_sub verification regressed: {wall:.3f}s"
    )
    _smoke_guard(history, "perf:fp_sub_verify", wall)


#: Minimum fraction of a governed run's wall the per-stage ledger must
#: account for.  Extraction and verification used to run entirely outside
#: the budget; this canary fails if a future stage re-opens that escape
#: hatch (an unledgered stage shows up as ledger coverage dropping).
LEDGER_COVERAGE_FLOOR = 0.95


@pytest.mark.parametrize(
    "budget",
    [
        # Generous: the ceiling must not bind — this measures coverage,
        # not degradation (verify on fp_sub degrades BDD -> random).
        Budget(time_s=120.0),
        # No budget: the run is governed by the unlimited pool, and its
        # ledger must be just as complete.
        None,
    ],
    ids=["budgeted", "unbudgeted"],
)
def test_perf_fp_sub_budget_ledger_coverage(budget):
    """The fp_sub run's ``RunRecord.budget`` ledger accounts for ~all of the
    total wall, budgeted or not — no unledgered stages (the bench-smoke
    job's second assertion, alongside the median-regression factor)."""
    record = execute_job(
        Job(
            name="ledger:fp_sub",
            design="fp_sub",
            iter_limit=ITER_LIMIT,
            verify=True,
            budget=budget,
        )
    )
    assert record.status == "ok", record.error
    stages = record.budget["stages"]
    for label in ("ingest", "saturate", "extract", "verify"):
        assert label in stages, f"stage {label!r} missing from the ledger"
    ledgered = sum(row["spent"]["time_s"] for row in stages.values())
    total = record.budget["spent"]["time_s"]
    coverage = ledgered / total if total else 1.0
    print(
        f"\nfp_sub run: {ledgered:.3f}s of {total:.3f}s ledgered "
        f"({coverage:.1%})"
    )
    assert coverage >= LEDGER_COVERAGE_FLOOR, (
        f"budget ledger covers only {coverage:.1%} of the run's wall — "
        "some stage is spending outside the ledger"
    )


def test_perf_fp_sub_ilp():
    """The ``perf:fp_sub_ilp`` series: globally optimal (DAG-cost)
    extraction via the governed ILP branch-and-bound, against the greedy
    objective on every registry design.

    Two claims, both on the DAG metric (shared subterms priced once — the
    objective the solver optimizes; ``optimized_*`` stay tree costs):

    * the ilp objective is **never worse** than greedy on any design (the
      stage's adoption gate makes this structural, the bench keeps it
      honest end-to-end);
    * it is **strictly better** on at least one (the sharing-heavy designs
      — fp_sub's duplicated mantissa datapath, stress_wide's reused lanes —
      are where tree-greedy provably overpays).

    The fp_sub ilp record lands in ``BENCH_perf.json`` so the win and the
    solver's wall cost are tracked across PRs like every other series.
    """
    from repro.synth.cost import default_key

    strict_wins = []
    ilp_fp_sub = None
    ilp_wall_fp_sub = 0.0
    for design in sorted(DESIGNS):
        greedy = execute_job(
            Job(name=design, design=design, iter_limit=ITER_LIMIT, verify=False)
        )
        t0 = time.perf_counter()
        ilp = execute_job(
            Job(
                name="perf:fp_sub_ilp" if design == "fp_sub" else design,
                design=design,
                iter_limit=ITER_LIMIT,
                verify=False,
                extract_objective="ilp",
            )
        )
        wall = time.perf_counter() - t0
        assert greedy.status == "ok", greedy.error
        assert ilp.status == "ok", ilp.error
        assert ilp.extract_objective == "ilp"
        greedy_key = default_key(greedy.dag_delay, greedy.dag_area)
        ilp_key = default_key(ilp.dag_delay, ilp.dag_area)
        assert ilp_key <= greedy_key, (
            f"{design}: ilp DAG cost {ilp_key} worse than greedy {greedy_key}"
        )
        if ilp_key < greedy_key:
            strict_wins.append(design)
        if design == "fp_sub":
            ilp_fp_sub, ilp_wall_fp_sub = ilp, wall
        # The extract stage is the greedy pass plus the ILP refinement,
        # which ends on its step quota or its 2 s wall limit.
        print(
            f"\n{design}: greedy dag ({greedy.dag_delay:.1f}, "
            f"{greedy.dag_area:.1f}) -> ilp ({ilp.dag_delay:.1f}, "
            f"{ilp.dag_area:.1f}) [{ilp.extract_status}] {wall:.2f}s, "
            f"extract stage {ilp.stage_timings.get('extract', 0.0):.2f}s"
        )

    assert strict_wins, (
        "the ilp objective matched greedy everywhere — the DAG-sharing win "
        "(expected on fp_sub/stress_wide) has regressed to a tie"
    )

    payload, history = _load_trajectory()
    entry = ilp_fp_sub.as_dict()
    entry["wall_s"] = round(ilp_wall_fp_sub, 4)
    history = _append_entry(payload, history, entry)
    _smoke_guard(history, "perf:fp_sub_ilp", ilp_wall_fp_sub)
