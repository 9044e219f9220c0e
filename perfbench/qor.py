"""Quality-of-result rows and their aggregation into end-to-end ratios.

A row describes one optimized output: behavioural vs optimized model cost
(:func:`repro.synth.treecost.model_cost`), behavioural vs extracted DAG
area (:func:`repro.synth.treecost.dag_cost`) and, when verification ran,
the equivalence verdict.  Rows are plain dicts so they cross process
boundaries as JSON.
"""

from __future__ import annotations

import math

#: Row fields that must repeat exactly between runs of the same workload.
EXACT_FIELDS = (
    "orig_delay", "orig_area", "opt_delay", "opt_area",
    "equivalent", "method", "trials", "bdd_nodes",
)


def output_row(
    job: str, output: str, original, optimized, orig_cost, opt_cost, ranges,
    verdict=None, ilp: bool = False,
) -> dict:
    from repro.synth.treecost import dag_cost

    return {
        "job": job,
        "output": output,
        "ilp": ilp,
        "orig_delay": orig_cost.delay,
        "orig_area": orig_cost.area,
        "opt_delay": opt_cost.delay,
        "opt_area": opt_cost.area,
        "orig_dag_area": dag_cost(original, ranges).area,
        "opt_dag_area": dag_cost(optimized, ranges).area,
        "equivalent": verdict.equivalent if verdict is not None else None,
        "method": verdict.method if verdict is not None else "",
        "trials": verdict.trials if verdict is not None else 0,
        "bdd_nodes": verdict.bdd_nodes if verdict is not None else 0,
    }


def record_row(record, original, ranges, ilp: bool = False) -> dict:
    """A row from a :class:`repro.pipeline.RunRecord` (its primary output);
    ``original`` is that output's behavioural tree."""
    from repro.synth.treecost import dag_cost

    return {
        "job": record.job,
        "output": record.output,
        "ilp": ilp,
        "orig_delay": record.original_delay,
        "orig_area": record.original_area,
        "opt_delay": record.optimized_delay,
        "opt_area": record.optimized_area,
        "orig_dag_area": dag_cost(original, ranges).area,
        "opt_dag_area": record.dag_area,
        "equivalent": record.verified,
        "method": record.verify_method,
        "trials": 0,
        "bdd_nodes": 0,
    }


def _geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratios(rows: list[dict]) -> dict[str, float]:
    """``delay_ratio``/``area_ratio``/``dag_area_ratio`` over the rows."""
    def ratio(num, den):
        return [r[num] / r[den] for r in rows if r[den]]

    return {
        "delay_ratio": _geomean(ratio("opt_delay", "orig_delay")),
        "area_ratio": _geomean(ratio("opt_area", "orig_area")),
        "dag_area_ratio": _geomean(ratio("opt_dag_area", "orig_dag_area")),
    }


def proved_share(rows: list[dict]) -> float:
    """Share of jobs whose every output was proved equivalent."""
    jobs: dict[str, bool] = {}
    for row in rows:
        jobs[row["job"]] = jobs.get(row["job"], True) and row["equivalent"] is True
    return sum(jobs.values()) / len(jobs) if jobs else 0.0


def exact_key(rows: list[dict]) -> list[tuple]:
    """What must repeat exactly: every exact field, plus the DAG areas of
    greedy rows (an ILP row's DAG area depends on how far its time-boxed
    solver got, and so may its adopted tree's model cost)."""
    out = []
    for row in rows:
        if row["ilp"]:
            out.append((row["job"], row["output"], row["orig_delay"], row["orig_area"]))
            continue
        out.append(
            (row["job"], row["output"])
            + tuple(row[f] for f in EXACT_FIELDS)
            + (row["orig_dag_area"], row["opt_dag_area"])
        )
    return out


def drift(reference: list[dict], other: list[dict]) -> list[str]:
    """Names of ``other``'s rows (job/output) whose exact fields differ from
    ``reference``'s (``other`` may cover a sample of the jobs)."""
    ref = {(k[0], k[1]): k for k in exact_key(reference)}
    oth = {(k[0], k[1]): k for k in exact_key(other)}
    return [f"{job}/{out}" for job, out in sorted(oth) if ref.get((job, out)) != oth[(job, out)]]
