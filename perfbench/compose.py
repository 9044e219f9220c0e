"""The traced run: each workload's jobs, composed from the stages its entry
point builds, with a span around every call into a layer.

Nothing here reaches into ``src/``: stages come from the same builders the
entry points use (:meth:`DatapathOptimizer.build_pipeline`,
:func:`repro.pipeline.job_stages`, :func:`repro.pipeline.shard.shard_pipeline_stages`)
and each stage's public ``run(ctx)`` is called under a span.  Two stages are
composed from their public parts instead, so that their inner layers show:

* ``Shard`` -- planned with :meth:`Shard.plan`, then each shard's pipeline
  runs inline (as the serial, ungoverned stage does) under its own span;
* ``Verify`` -- :func:`repro.verify.check_equivalent` per output, split by
  strategy through its public parameters: ``random_trials=0`` isolates the
  exhaustive sweep or the BDD attempt, ``bdd_node_limit=0`` the randomized
  trials that follow a BDD blow-up.

Counts come from public results: ``RunnerReport``/``IterationStats``,
``ExtractReport``, ``EquivalenceResult`` and ``RunRecord``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

from qor import output_row, record_row

#: Layer (module) of each stage class, by class name.
STAGE_LAYERS = {
    "Ingest": "rtl",
    "WarmStart": "egraph.serialize",
    "SaveEGraph": "egraph.serialize",
    "CaseSplit": "rewrites",
    "Saturate": "egraph.runner",
    "Extract": "egraph.extract",
    "OptimalExtract": "egraph.extract",
    "MergeShards": "pipeline.shard",
    "Emit": "rtl.emit",
}


@dataclass
class Tally:
    """Counts and public-result timings gathered while composing."""

    runner_reports: list = field(default_factory=list)
    extract_reports: list = field(default_factory=list)
    ilp_roots: list = field(default_factory=list)
    shard_walls: list = field(default_factory=list)
    artifact_bytes: int = 0
    verify: dict = field(default_factory=lambda: {
        "exhaustive_s": 0.0, "exhaustive_trials": 0,
        "bdd_s": 0.0, "bdd_nodes": 0, "bdd_attempts": 0, "bdd_proofs": 0,
        "random_s": 0.0, "random_trials": 0,
    })


def run_stages(tracer, stages, ctx, tally: Tally) -> None:
    """``Pipeline.run`` for an ungoverned context, one span per stage."""
    from repro.pipeline import SaveEGraph, Saturate, Shard, Verify

    for stage in stages:
        reports, extracts = len(ctx.reports), len(ctx.extract_reports)
        started = time.perf_counter()
        if isinstance(stage, Verify):
            traced_verify(tracer, ctx, tally)
        elif isinstance(stage, Shard):
            traced_shard(tracer, stage, ctx, tally)
        else:
            layer = STAGE_LAYERS.get(type(stage).__name__, "pipeline")
            with tracer.span(stage.name, layer) as span:
                stage.run(ctx)
            for report in ctx.extract_reports[extracts:]:
                if report.status.startswith("ilp:"):
                    tracer.add("ilp", "solve", span.end - report.total_time, span.end, span)
                    tally.ilp_roots.append(
                        dict(ctx.artifacts.get("extract_ilp", {}).get("roots", {}))
                    )
        ctx.timings.append((stage.name, time.perf_counter() - started))
        if isinstance(stage, Saturate):
            tally.runner_reports += ctx.reports[reports:]
        tally.extract_reports += ctx.extract_reports[extracts:]
        if isinstance(stage, SaveEGraph) and os.path.exists(stage.path):
            tally.artifact_bytes += os.path.getsize(stage.path)


def traced_shard(tracer, stage, ctx, tally: Tally) -> None:
    """The serial, ungoverned ``Shard.run``: plan, then each shard inline."""
    from repro.pipeline import Ingest, PipelineContext, ShardResult
    from repro.pipeline.shard import shard_pipeline_stages, sliced_splits

    with tracer.span(stage.name, "pipeline.shard"):
        plan = stage.plan(ctx)
        ctx.shard_plan = plan
        schedule = stage.schedule
        results = []
        for shard in plan.shards:
            with tracer.span(f"shard:{shard.name}", "pipeline.shard") as span:
                inner = PipelineContext(input_ranges=dict(shard.input_ranges))
                stages = [
                    Ingest(roots=shard.roots),
                    *shard_pipeline_stages(
                        schedule, splits=sliced_splits(schedule.splits, shard)
                    ),
                ]
                run_stages(tracer, stages, inner, tally)
            tally.shard_walls.append(span.duration)
            results.append(
                ShardResult(
                    name=shard.name,
                    outputs=shard.outputs,
                    extracted=dict(inner.extracted),
                    original_costs=dict(inner.original_costs),
                    optimized_costs=dict(inner.optimized_costs),
                    reports=list(inner.reports),
                    wall_s=span.duration,
                    stage_timings=inner.stage_timings(),
                    extract_status=",".join(
                        sorted({r.status for r in inner.extract_reports})
                    ),
                    egraph=inner.egraph if schedule.ship_egraph else None,
                    root_ids=dict(inner.root_ids) if schedule.ship_egraph else {},
                )
            )
        ctx.shard_results = results
        ctx.artifacts["shard_pool"] = "inline"


def traced_verify(tracer, ctx, tally: Tally) -> None:
    """The strict, ungoverned ``Verify.run``, split by strategy."""
    from repro.verify import EquivalenceResult, check_equivalent

    if not ctx.extracted:
        raise RuntimeError("Verify needs an Extract stage to run first")
    counts = tally.verify
    with tracer.span("verify", "verify"):
        for name, expr in ctx.roots.items():
            optimized = ctx.extracted[name]
            with tracer.span("check_equivalent", "verify", output=name) as first_span:
                first = check_equivalent(
                    expr, optimized, ctx.input_ranges, random_trials=0
                )
            if first.method == "exhaustive":
                first_span.name = "verify.exhaustive"
                counts["exhaustive_s"] += first_span.duration
                counts["exhaustive_trials"] += first.trials
                verdict = first
            else:
                first_span.name = "verify.bdd"
                counts["bdd_s"] += first_span.duration
                counts["bdd_nodes"] += first.bdd_nodes
                counts["bdd_attempts"] += 1
                if first.method == "bdd":
                    counts["bdd_proofs"] += first.equivalent is True
                    verdict = first
                else:
                    # The BDD blew its node cap (or the miter could not be
                    # lowered): randomized trials decide, as in the stage.
                    with tracer.span("verify.random", "verify", output=name) as span:
                        second = check_equivalent(
                            expr, optimized, ctx.input_ranges, bdd_node_limit=0
                        )
                    counts["random_s"] += span.duration
                    counts["random_trials"] += second.trials
                    verdict = EquivalenceResult(
                        second.equivalent,
                        second.method,
                        counterexample=second.counterexample,
                        trials=second.trials,
                        bdd_nodes=first.bdd_nodes,
                    )
            ctx.equivalence[name] = verdict
            if verdict.equivalent is False:
                raise AssertionError(
                    f"optimizer produced a non-equivalent design for "
                    f"{name!r} at {verdict.counterexample}"
                )


# ---------------------------------------------------------------- workloads
def designer(tracer, prepared, tally: Tally) -> list[dict]:
    """``designer_verify``: the stages ``optimize`` runs, per design
    (``prepared`` is the worker's job list)."""
    from repro import DatapathOptimizer
    from repro.pipeline import PipelineContext
    from repro.rtl import emit_verilog

    jobs = []
    for name, source_path, output_path, (ranges, config, module_name) in prepared:
        with tracer.span(f"job:{name}", "bench", job=name):
            with open(source_path) as handle:
                source = handle.read()
            tool = DatapathOptimizer(ranges, config)
            ctx = PipelineContext(input_ranges=dict(tool.input_ranges))
            run_stages(tracer, tool.build_pipeline(source=source).stages, ctx, tally)
            with tracer.span("emit", "rtl.emit"):
                text = emit_verilog(
                    {out: ctx.extracted[out] for out in ctx.roots},
                    module_name,
                    ctx.input_ranges,
                )
                with open(output_path, "w") as handle:
                    handle.write(text)
        rows = [
            output_row(
                name, out, ctx.roots[out], ctx.extracted[out],
                ctx.original_costs[out], ctx.optimized_costs[out],
                ctx.input_ranges, ctx.equivalence.get(out),
            )
            for out in ctx.roots
        ]
        jobs.append({"job": name, "source": source_path, "emitted": output_path,
                     "ranges": ranges_json(ctx.input_ranges), "rows": rows,
                     "_extracted": {out: ctx.extracted[out] for out in ctx.roots}})
    return jobs


def bench(tracer, workdir, prepared, tally: Tally, seed: int, sampled: bool) -> list[dict]:
    """``bench_batch``: each session job's stage list, as ``execute_job``
    runs it, with the design emitted afterwards for the correctness check
    (``prepared`` is the worker's list of ``(argv, Session)``).  ``sampled``
    composes only the seed's sample of the jobs."""
    from repro.pipeline import PipelineContext, job_design, job_stages, record_from_context

    from workloads import BENCH_CHECKED, sample

    sessions = [(label_prefix(argv), session) for argv, session in prepared]
    labels = [prefix + job.name for prefix, session in sessions for job in session.jobs]
    chosen = sample(labels, seed, BENCH_CHECKED if sampled else None)
    jobs = []
    for prefix, session in sessions:
        for job in session.jobs:
            label = prefix + job.name
            if label not in chosen:
                continue
            with tracer.span(f"job:{label}", "bench", job=label):
                design = job_design(job)
                ctx = PipelineContext()
                ctx.input_ranges = dict(design.input_ranges)
                run_stages(tracer, job_stages(job, design), ctx, tally)
                record = record_from_context(job.name, job.design, design.output, ctx)
            jobs.append(
                record_job(label, record, ctx.roots, ctx.input_ranges, workdir,
                           ilp=bool(prefix), ctx=ctx)
            )
    return jobs


def service(tracer, workdir, tally: Tally, seed: int, sampled: bool) -> list[dict]:
    """``service_resubmit``: what the daemon's queue does per submission
    (cache key, record-cache lookup, artifact tier, the job's stages).
    ``sampled`` composes only the submissions of the seed's sample of the
    designs (each design's submissions depend on nothing else)."""
    from repro.pipeline import (
        PipelineContext, job_design, job_stages, record_from_context, resolve_design,
    )
    from repro.service import ResultCache
    from repro.service.cache import job_cache_key, warm_family

    from workloads import SERVICE_CHECKED, SERVICE_JOBS, sample, service_plan

    chosen = sample(
        [design for design, _ in SERVICE_JOBS], seed, SERVICE_CHECKED if sampled else None
    )
    cache = ResultCache(path=os.path.join(workdir, "compose-cache.json"))
    jobs = []
    for sub in service_plan(seed):
        job = sub.job
        if job.design not in chosen:
            continue
        with tracer.span(f"submit:{job.name}", "service", job=job.name):
            with tracer.span("job_cache_key", "service"):
                key = job_cache_key(job)
            hit = cache.get(key)
            if hit is not None:
                record, ctx = replace(hit, job=job.name, tenant=sub.tenant), None
            else:
                family = warm_family(job)
                artifact = cache.get_egraph(family)
                allotted = replace(
                    job,
                    budget_policy="adaptive",
                    warm_start=str(artifact) if artifact is not None else None,
                    save_egraph=str(cache.egraph_path(family)),
                )
                design = job_design(allotted)
                ctx = PipelineContext()
                ctx.input_ranges = dict(design.input_ranges)
                run_stages(tracer, job_stages(allotted, design), ctx, tally)
                record = record_from_context(
                    allotted.name, allotted.design, design.output, ctx
                )
                record.tenant = sub.tenant
                cache.put(key, record)
        roots, ranges = resolve_design(job)
        jobs.append(record_job(job.name, record, roots, ranges, workdir, ctx=ctx))
    with tracer.span("persist", "service"):
        cache.persist()
    return jobs


def record_job(label, record, roots, ranges, workdir, ilp=False, ctx=None) -> dict:
    """A record's row, plus -- when the submission ran here -- its
    behavioural source and emitted design for the correctness check."""
    from repro.rtl import emit_verilog

    entry = {
        "job": label,
        "record": record.as_dict(),
        "rows": [dict(record_row(record, roots[record.output], ranges, ilp=ilp), job=label)],
    }
    if ctx is not None:
        safe = label.replace("/", "_")
        entry["emitted"] = os.path.join(workdir, f"{safe}.compose.v")
        entry["source"] = os.path.join(workdir, f"{safe}.behavioural.v")
        entry["ranges"] = ranges_json(ctx.input_ranges)
        entry["_extracted"] = {out: ctx.extracted[out] for out in ctx.roots}
        with open(entry["emitted"], "w") as handle:
            handle.write(
                emit_verilog({out: ctx.extracted[out] for out in ctx.roots},
                             "optimized", ctx.input_ranges)
            )
        with open(entry["source"], "w") as handle:
            handle.write(ctx.source)
    return entry


def label_prefix(argv) -> str:
    """Job-label prefix of a ``bench`` invocation (its jobs share names)."""
    return "ilp/" if "ilp" in argv else ""


def ranges_json(ranges) -> dict:
    return {name: [[p.lo, p.hi] for p in iset.parts] for name, iset in ranges.items()}
