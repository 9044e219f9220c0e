"""One fresh benchmark process: set up, run one workload's jobs, report.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``PYTHONPATH`` naming
the checkout's ``src``.  The spec names the workload, the mode and the
result file:

* ``setup``   -- import and build the job list, then exit (set-up probe);
* ``timed``   -- run the jobs through the entry point, untraced;
* ``compose`` -- the traced run (see :mod:`compose`).

``check`` has the worker check its emitted designs after the jobs;
``sampled`` limits the check (and a composed run) to the seed's sample of
the jobs.

The result records the process's ready instant on ``time.monotonic`` (the
same clock in every process), so the parent measures set-up as spawn to
ready.  Job walls are ``time.perf_counter`` spans around each job, each
paired with the calibration loop's time around it (see :mod:`calib`); all
bookkeeping (quality rows, emitted files) happens outside them.
"""

from __future__ import annotations

import json
import os
import sys
import time

from calib import speed


def _prepare(workload: str, workdir: str):
    """Imports and the job list: everything before the first job."""
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    from repro.designs import get_design

    from workloads import BENCH_ARGVS, DESIGNER_JOBS, bench_session, designer_argv, optimizer_for

    if workload == "designer_verify":
        jobs = []
        for name, extra in DESIGNER_JOBS:
            source_path = os.path.join(workdir, f"{name}.v")
            with open(source_path, "w") as handle:
                handle.write(get_design(name).verilog)
            output_path = os.path.join(workdir, f"{name}.out.v")
            argv = designer_argv(name, extra, source_path, output_path)
            jobs.append((name, source_path, output_path, optimizer_for(argv)))
        return jobs
    if workload == "bench_batch":
        return [(argv, bench_session(argv)) for argv in BENCH_ARGVS]
    import repro.service  # noqa: F401

    return []


def _designer_timed(jobs) -> tuple[dict, list]:
    from repro import DatapathOptimizer

    from compose import ranges_json
    from qor import output_row

    walls, entries = {}, []
    for name, source_path, output_path, (ranges, config, module_name) in jobs:
        before = speed()
        started = time.perf_counter()
        with open(source_path) as handle:
            source = handle.read()
        module = DatapathOptimizer(ranges, config).optimize_verilog(source)
        text = module.emit_verilog(module_name)
        with open(output_path, "w") as handle:
            handle.write(text)
        walls[name] = (time.perf_counter() - started, (before + speed()) / 2)
        rows = [
            output_row(
                name, out, result.original, result.optimized,
                result.original_cost, result.optimized_cost,
                result.input_ranges, result.equivalence,
            )
            for out, result in module.outputs.items()
        ]
        entries.append({"job": name, "source": source_path, "emitted": output_path,
                        "ranges": ranges_json(ranges), "rows": rows,
                        "_extracted": {out: r.optimized for out, r in module.outputs.items()}})
    return walls, entries


def _bench_timed(sessions) -> tuple[dict, list]:
    from repro.designs.registry import design_roots, get_design

    from compose import label_prefix
    from qor import record_row

    walls, entries = {}, []
    for argv, session in sessions:
        prefix = label_prefix(argv)
        before = speed()
        started = time.perf_counter()
        records = session.run()
        walls[" ".join(argv)] = (time.perf_counter() - started, (before + speed()) / 2)
        for record in records:
            design = get_design(record.design)
            row = record_row(
                record, design_roots(record.design)[record.output],
                design.input_ranges, ilp=bool(prefix),
            )
            row["job"] = prefix + record.job
            entries.append({"job": row["job"], "record": record.as_dict(), "rows": [row]})
    return walls, entries


def layer_metrics(tracer, tally) -> dict[str, float]:
    """Per-layer metrics of a traced run (times in seconds)."""
    reports = tally.runner_reports
    iterations = [it for report in reports for it in report.iterations]
    search = sum(it.search_time for it in iterations)
    apply = sum(it.apply_time for it in iterations)
    runner_s = sum(report.total_time for report in reports)
    nodes = sum(report.nodes for report in reports)
    greedy = [r for r in tally.extract_reports if not r.status.startswith("ilp:")]
    ilp = [r for r in tally.extract_reports if r.status.startswith("ilp:")]
    cones = [tag for roots in tally.ilp_roots for tag in roots.values()]
    verify = tally.verify
    return {
        "ingest.s": tracer.total("ingest"),
        "emit.s": tracer.total("emit"),
        "saturate.s": tracer.total("saturate"),
        "saturate.search_s": search,
        "saturate.apply_s": apply,
        "saturate.rebuild_s": sum(it.rebuild_time for it in iterations),
        "saturate.apply_per_search": apply / search if search else 0.0,
        "saturate.iterations": len(iterations),
        "saturate.nodes": nodes,
        "saturate.applied": sum(report.matches_applied for report in reports),
        "saturate.nodes_per_s": nodes / runner_s if runner_s else 0.0,
        "shard.s": tracer.total("shard"),
        "shard.count": len(tally.shard_walls),
        "shard.max_s": max(tally.shard_walls, default=0.0),
        "extract.s": tracer.total("extract", self_time=True),
        "extract.steps": sum(r.steps for r in greedy),
        "ilp.s": sum(r.total_time for r in ilp),
        "ilp.steps": sum(r.steps for r in ilp),
        "ilp.optimal_share": cones.count("optimal") / len(cones) if cones else 0.0,
        "verify.s": tracer.total("verify"),
        "verify.exhaustive_s": verify["exhaustive_s"],
        "verify.exhaustive_trials": verify["exhaustive_trials"],
        "verify.bdd_s": verify["bdd_s"],
        "verify.bdd_nodes": verify["bdd_nodes"],
        "verify.bdd_proof_share": (
            verify["bdd_proofs"] / verify["bdd_attempts"] if verify["bdd_attempts"] else 0.0
        ),
        "verify.random_s": verify["random_s"],
        "verify.random_trials": verify["random_trials"],
        "serialize.save_s": tracer.total("save-egraph"),
        "serialize.load_s": tracer.total("warm-start"),
        "serialize.artifact_bytes": tally.artifact_bytes,
        "service.digest_s": tracer.total("job_cache_key"),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload, mode, workdir = spec["workload"], spec["mode"], spec["workdir"]
    jobs = _prepare(workload, workdir)
    result = {"ready": time.monotonic()}
    if mode == "timed":
        run = _designer_timed if workload == "designer_verify" else _bench_timed
        walls, entries = run(jobs)
        result.update(
            wall_s=sum(wall for wall, _ in walls.values()), job_walls=walls, jobs=entries
        )
    elif mode == "compose":
        import compose
        from spans import Tracer

        tracer, tally = Tracer(), compose.Tally()
        if workload == "designer_verify":
            entries = compose.designer(tracer, jobs, tally)
        elif workload == "bench_batch":
            entries = compose.bench(
                tracer, workdir, jobs, tally, spec["seed"], spec["sampled"]
            )
        else:
            entries = compose.service(tracer, workdir, tally, spec["seed"], spec["sampled"])
        # The jobs' own spans: bookkeeping between them stays out, as in
        # the untraced run.
        jobs_s = sum(
            s.duration for s in tracer.spans
            if s.parent is None and s.name.startswith(("job:", "submit:"))
        )
        result.update(
            wall_s=jobs_s,
            jobs=entries,
            metrics=layer_metrics(tracer, tally),
            layers=tracer.layer_table(),
            events=tracer.chrome_events(),
        )
    # The correctness check, outside the timed region.
    if spec["check"]:
        from checks import check_entries
        from workloads import DESIGNER_CHECKED, sample

        entries = result["jobs"]
        if mode == "timed":  # designer designs; compose samples before it runs
            chosen = sample(
                [entry["job"] for entry in entries], spec["seed"],
                DESIGNER_CHECKED if spec["sampled"] else None,
            )
            entries = [entry for entry in entries if entry["job"] in chosen]
        check_entries(entries, spec["seed"])
    for entry in result.get("jobs", []):
        entry.pop("_extracted", None)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
