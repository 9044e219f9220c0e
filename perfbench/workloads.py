"""The three benchmark workloads, as the entry points users hit build them.

Every job list is derived from the CLI's own argument parser, so the knobs
(iterations, node limit, split threshold, auto-shard size, ...) are the
CLI defaults of the checked-out revision, not copies of them:

* ``designer_verify`` -- ``python -m repro optimize`` with verification on,
  via :class:`repro.DatapathOptimizer`/:class:`repro.OptimizerConfig` built
  the way the ``optimize`` subcommand builds them;
* ``bench_batch`` -- ``python -m repro bench`` via
  :meth:`repro.pipeline.Session.for_designs`, built the way ``bench`` does;
* ``service_resubmit`` -- a closed-loop client of a real
  ``python -m repro serve`` daemon.

Imported by ``run.py`` and by its worker processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("designer_verify", "bench_batch", "service_resubmit")

#: ``optimize`` runs of ``designer_verify``: (registry design, extra flags).
DESIGNER_JOBS = (
    ("fp_sub", ()),
    ("float_to_unorm", ()),
    ("lzc_example", ()),
    ("stress_wide", ("--iters", "4")),
)

#: ``bench`` invocations of ``bench_batch``: all registry designs with the
#: CLI defaults, then fp_sub under the ILP objective.
BENCH_ARGVS = (
    ("bench",),
    ("bench", "--designs", "fp_sub", "--iters", "4", "--objective", "ilp"),
)

#: Timed units whose wall is set by a wall-clock limit -- the ILP
#: refinement's time box -- so calibration must not scale them.
TIME_BOXED = (" ".join(BENCH_ARGVS[1]),)

#: Designer designs, bench jobs and service designs the untraced runs check
#: (a seeded sample: checking all of them would lengthen a run by a third).
DESIGNER_CHECKED = 2
BENCH_CHECKED = 2
SERVICE_CHECKED = 1

#: Service tenants; the seed rotates which tenant sends what.
TENANTS = ("t0", "t1", "t2", "t3")
#: Duplicate resubmissions per design (record-cache hits).
DUPLICATES = 3


def range_flags(design) -> list[str]:
    """A registry design's input ranges as ``--range name=lo:hi`` flags."""
    flags = []
    for name, iset in sorted(design.input_ranges.items()):
        if len(iset.parts) != 1:
            raise ValueError(f"{design.name}.{name}: range is not one interval")
        part = iset.parts[0]
        flags += ["--range", f"{name}={part.lo}:{part.hi}"]
    return flags


def designer_argv(name: str, extra, source_path: str, output_path: str) -> list[str]:
    """The ``optimize`` command line of one designer job."""
    from repro.designs import get_design

    return [
        "optimize", source_path, *range_flags(get_design(name)), *extra,
        "-o", output_path,
    ]


def optimizer_for(argv: list[str]):
    """``(ranges, OptimizerConfig, module_name)`` exactly as ``optimize``
    derives them from its parsed arguments (greedy, no warm start)."""
    from repro import OptimizerConfig
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    config = OptimizerConfig(
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=not args.no_verify,
        split_threshold=None if args.no_split else args.split_threshold,
        shards=args.shards,
        auto_shard_nodes=args.auto_shard_nodes or None,
        shard_parallel=args.shard_parallel,
        budget_policy=args.budget_policy,
        extract_objective=args.objective,
    )
    return dict(args.ranges), config, args.module_name


def bench_session(argv):
    """The :class:`Session` that ``bench`` builds from its parsed arguments."""
    from repro.cli import build_parser
    from repro.designs.registry import design_names
    from repro.pipeline import Session

    args = build_parser().parse_args(list(argv))
    names = (
        [n.strip() for n in args.designs.split(",") if n.strip()]
        if args.designs
        else design_names()
    )
    return Session.for_designs(
        names,
        budget_policy=args.budget_policy,
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=args.verify,
        shards=args.shards,
        auto_shard_nodes=(
            None if args.objective == "ilp" else args.auto_shard_nodes or None
        ),
        shard_parallel=args.shard_parallel,
        extract_objective=args.objective,
    )


# ------------------------------------------------------------------ service
def edited_source(design: str) -> str:
    """The design with an existing internal wire exposed as a new output."""
    from repro.designs import get_design

    verilog = get_design(design).verilog
    if design == "fp_sub":
        return verilog.replace(
            "output [9:0] out",
            "output [9:0] out,\n  output [4:0] expdiff_out",
        ).replace("endmodule", "  assign expdiff_out = expdiff;\nendmodule")
    if design == "stress_wide":
        return verilog.replace(
            "  output [14:0] out0",
            "  output [11:0] acc0_out,\n  output [14:0] out0",
        ).replace("endmodule", "  assign acc0_out = acc0;\nendmodule")
    raise KeyError(design)


#: Service jobs: design -> Job knobs (verify off; stress_wide monolithic).
SERVICE_JOBS = (
    ("fp_sub", {"iter_limit": 8, "node_limit": 30_000}),
    ("stress_wide", {"node_limit": 30_000}),
)


@dataclass(frozen=True)
class Submission:
    tenant: str
    kind: str  # "cold" | "duplicate" | "edited"
    job: object  # repro.pipeline.Job


def sample(names, seed: int, k: int) -> set:
    """The seed's choice of ``k`` of ``names`` (all of them when ``k`` is None)."""
    names = sorted(names)
    return set(names if k is None else random.Random(seed).sample(names, k))


def service_plan(seed: int) -> list[Submission]:
    """The closed-loop submission sequence; the seed rotates the tenants."""
    from repro.pipeline import Job

    rng = random.Random(seed)
    plan = []
    for design, knobs in SERVICE_JOBS:
        tenants = list(TENANTS)
        rng.shuffle(tenants)
        base = dict(design=design, verify=False, **knobs)
        plan.append(Submission(tenants[0], "cold", Job(name=f"{design}-cold", **base)))
        for k in range(DUPLICATES):
            tenant = tenants[1 + k % (len(tenants) - 1)]
            plan.append(
                Submission(tenant, "duplicate", Job(name=f"{design}-dup{k}", **base))
            )
        plan.append(
            Submission(
                tenants[0],
                "edited",
                Job(name=f"{design}-edit", source=edited_source(design), **base),
            )
        )
    return plan


def wire_job(job) -> dict:
    """A job's wire dict without artifact-path fields (the service owns them)."""
    from repro.service import job_to_dict

    payload = job_to_dict(job)
    for key in ("warm_start", "save_egraph"):
        payload.pop(key, None)
    return payload
