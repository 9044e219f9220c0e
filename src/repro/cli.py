"""Command-line interface: ``python -m repro <subcommand> ...``.

Subcommands (on the composable pipeline API):

``optimize``
    The paper's tool on one Verilog file: optimize every output, write the
    optimized module to stdout (or ``-o``), report costs/equivalence on
    stderr.  Input range constraints use ``name=lo:hi`` syntax::

        python -m repro optimize design.v --range x=128:255 --iters 8 -o out.v

``bench``
    Batch-optimize registry designs through a :class:`repro.pipeline.Session`
    (fanned out over one process per usable CPU; ``--workers 1`` runs them
    in-process) and print a Table III style comparison; ``--records``
    appends the JSON run records.

``report``
    Re-render a comparison table from a saved ``--records`` file.

``sweep``
    Saturate one registry design once, then re-extract under a range of
    delay/area objective weights (the Figure 3 trade-off curve).

``serve`` / ``submit`` / ``status``
    The optimization service (:mod:`repro.service`): ``serve`` runs the
    multi-tenant daemon on an AF_UNIX socket with a content-addressed
    result cache; ``submit`` enqueues a registry design for a tenant (and
    can wait for the record); ``status`` polls the event feed, the cache
    and fair-share ledgers, and can ask for a graceful shutdown::

        python -m repro serve /tmp/repro.sock --tenants team-a,team-b:2 &
        python -m repro submit /tmp/repro.sock lzc_example --tenant team-a --wait
        python -m repro status /tmp/repro.sock --stats

Bare legacy invocations (``python -m repro design.v ...``) map to
``optimize`` unchanged.  Knob combinations follow the schedule's one table
of composition rules (:data:`repro.pipeline.schedule.COMPOSITION_RULES`);
``optimize`` exits 1 with ``error: <reason>`` on a violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import DatapathOptimizer, OptimizerConfig
from repro.intervals import IntervalSet


def parse_range(text: str) -> tuple[str, IntervalSet]:
    """Parse ``name=lo:hi`` into an input constraint."""
    try:
        name, span = text.split("=", 1)
        lo, hi = span.split(":", 1)
        return name.strip(), IntervalSet.of(int(lo), int(hi))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected name=lo:hi, got {text!r}"
        ) from err


def _add_optimize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help="Verilog file (combinational subset)")
    parser.add_argument("-o", "--output", help="write optimized Verilog here")
    parser.add_argument(
        "--range", dest="ranges", type=parse_range, action="append", default=[],
        metavar="NAME=LO:HI", help="input domain constraint (repeatable)",
    )
    parser.add_argument("--iters", type=int, default=8, help="saturation iterations")
    parser.add_argument("--nodes", type=int, default=30_000, help="e-graph node limit")
    parser.add_argument(
        "--time-limit", type=float, default=60.0, metavar="SECONDS",
        help="saturation wall-clock budget (default: 60)",
    )
    parser.add_argument(
        "--split-threshold", type=int, default=1, metavar="K",
        help="case-split a - (b >> c) at c > K (default: 1)",
    )
    parser.add_argument("--no-verify", action="store_true", help="skip equivalence check")
    parser.add_argument("--no-split", action="store_true", help="disable case splitting")
    _add_objective_argument(parser)
    parser.add_argument(
        "--module-name", default="optimized", help="name of the emitted module"
    )
    parser.add_argument(
        "--warm-start", default=None, metavar="FILE",
        help="seed saturation from a persisted e-graph artifact (see "
        "--save-egraph); incompatible artifacts degrade to a cold start",
    )
    parser.add_argument(
        "--save-egraph", default=None, metavar="FILE",
        help="persist the saturated e-graph as a warm-start artifact",
    )
    parser.add_argument(
        "--stitch", action="store_true",
        help="after a sharded run, re-union the shard e-graphs on shared "
        "subexpressions and re-extract from the stitched graph "
        "(requires a sharded run: --shards, or --auto-shard-nodes without "
        "--warm-start or --objective ilp)",
    )
    _add_budget_arguments(parser)
    _add_shard_arguments(parser)


def _add_objective_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--objective", choices=("greedy", "ilp"), default="greedy",
        help="extraction objective: the classic greedy per-root tree-cost "
        "extractor, or 'ilp' — the governed branch-and-bound that refines "
        "the greedy result to DAG-cost optimality (shared subterms priced "
        "once; monolithic flow only, never worse than greedy)",
    )


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-ms", type=float, default=None, metavar="MS",
        help="wall-clock budget for the whole run in milliseconds; every "
        "stage and shard draws from this one pool and races one deadline "
        "(default: unlimited — only the per-stage limits apply)",
    )
    parser.add_argument(
        "--budget-policy",
        choices=("fair", "weighted", "adaptive", "verify-aware"),
        default="adaptive",
        help="how a shared budget splits across shards/jobs: equal shares, "
        "proportional to cone size, adaptive (unspent budget from fast "
        "shards flows to slow ones), or verify-aware (adaptive plus a "
        "reserved tail slice of the wall for the Verify stage, so "
        "saturate-heavy runs cannot push verification into timeout "
        "degradation; default: adaptive)",
    )
    parser.add_argument(
        "--verify-budget-ms", type=float, default=None, metavar="MS",
        help="wall-clock ceiling for the Verify stage alone, in "
        "milliseconds: a blowing-up BDD proof stops at the deadline and "
        "degrades to randomized trials (verdict method 'random'), a check "
        "cut short reports method 'timeout' (default: only --budget-ms "
        "governs verification)",
    )


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="cluster output cones into at most N shared-nothing shards, "
        "each optimized in its own e-graph (0 = only auto-split, see "
        "--auto-shard-nodes)",
    )
    parser.add_argument(
        # 128 sits above every single-cone benchmark (the largest, the
        # interpolation kernel, is a 61-node DAG) and below any genuinely
        # wide design (the 8-lane stress module is 170).
        "--auto-shard-nodes", type=int, default=128, metavar="SIZE",
        help="auto-split a multi-output design per output cone once its DAG "
        "reaches SIZE nodes (default: 128; 0 disables auto-splitting)",
    )
    parser.add_argument(
        "--shard-parallel", action="store_true",
        help="fan shards out over a process pool",
    )


def _ms_budget(milliseconds: float | None):
    """The wall-clock ``Budget`` of a ``--*-budget-ms`` flag (None: unset)."""
    from repro.pipeline import Budget

    return Budget.of_ms(milliseconds) if milliseconds is not None else None


def positive_int(text: str) -> int:
    """An integer of at least 1 (process counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constraint-aware datapath optimization using e-graphs "
        "(Coward et al., DAC 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser("optimize", help="optimize one Verilog file")
    _add_optimize_arguments(optimize)

    bench = sub.add_parser("bench", help="batch-optimize registry designs")
    bench.add_argument(
        "--designs", default=None, metavar="A,B,...",
        help="comma-separated registry design names (default: all)",
    )
    bench.add_argument("--iters", type=int, default=None, help="override iterations")
    bench.add_argument("--nodes", type=int, default=None, help="override node limit")
    bench.add_argument(
        "--time-limit", type=float, default=60.0, metavar="SECONDS",
        help="per-design saturation budget",
    )
    bench.add_argument("--verify", action="store_true", help="equivalence-check results")
    bench.add_argument(
        "--workers", type=positive_int, default=None, metavar="N",
        help="process pool size (default: one per usable CPU, at most one "
        "per design, or in-process with --budget-ms; 1 runs in-process)",
    )
    bench.add_argument(
        "--records", metavar="FILE", help="append JSON run records to this file"
    )
    _add_objective_argument(bench)
    _add_budget_arguments(bench)
    _add_shard_arguments(bench)

    report = sub.add_parser("report", help="render a table from saved run records")
    report.add_argument("records", help="JSON file written by `bench --records`")

    sweep = sub.add_parser("sweep", help="delay/area objective sweep on one design")
    sweep.add_argument("design", help="registry design name")
    sweep.add_argument("--iters", type=int, default=None, help="override iterations")
    sweep.add_argument("--nodes", type=int, default=None, help="override node limit")
    sweep.add_argument(
        "--area-weights", default="0,0.002,0.005,0.01,0.02,0.05,0.1",
        metavar="W,W,...", help="area weights (delay weight fixed at 1)",
    )

    pareto = sub.add_parser(
        "pareto", help="characterize one design's area-delay Pareto front"
    )
    pareto.add_argument("design", help="registry design name")
    pareto.add_argument(
        "--mode", choices=("epsilon", "weighted"), default="epsilon",
        help="scalarization: epsilon-constraint (min area s.t. delay <= T "
        "per target; reaches every Pareto point) or weighted "
        "(min w*delay + (1-w)*area per weight; supported points only)",
    )
    pareto.add_argument(
        "--points", type=int, default=10, help="targets/weights in the grid"
    )
    pareto.add_argument(
        "--max-evals", type=int, default=400, metavar="N",
        help="synthesis-evaluation quota; small architecture spaces within "
        "the quota are enumerated exhaustively (provenance 'optimal')",
    )
    pareto.add_argument("--iters", type=int, default=None, help="override iterations")
    pareto.add_argument("--nodes", type=int, default=None, help="override node limit")
    _add_objective_argument(pareto)

    serve = sub.add_parser("serve", help="run the multi-tenant service daemon")
    serve.add_argument("socket", help="AF_UNIX socket path to listen on")
    serve.add_argument(
        "--tenants", default="default", metavar="NAME[:W],...",
        help="tenant roster with optional fair-share weights "
        "(default: one tenant named 'default')",
    )
    serve.add_argument(
        "--cache-file", default=None, metavar="FILE",
        help="persist the result cache here on shutdown (and reload on start)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=128, metavar="N",
        help="in-memory cache capacity (default: 128)",
    )
    _add_budget_arguments(serve)

    submit = sub.add_parser("submit", help="submit a registry design to a daemon")
    submit.add_argument("socket", help="daemon socket path")
    submit.add_argument("design", help="registry design name")
    submit.add_argument("--tenant", default="default", help="submitting tenant")
    submit.add_argument("--name", default=None, help="job name (default: design)")
    submit.add_argument(
        "--source", default=None, metavar="FILE",
        help="submit this Verilog file instead of the registry design's "
        "own source; the design name becomes a label (edited designs "
        "warm-start from the label's persisted e-graph when the daemon "
        "keeps artifacts)",
    )
    submit.add_argument("--iters", type=int, default=None, help="override iterations")
    submit.add_argument("--nodes", type=int, default=None, help="override node limit")
    submit.add_argument(
        "--time-limit", type=float, default=60.0, metavar="SECONDS",
        help="saturation wall-clock ceiling",
    )
    submit.add_argument("--verify", action="store_true", help="equivalence-check")
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its RunRecord JSON",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="how long --wait polls before giving up (default: 300)",
    )

    status = sub.add_parser("status", help="poll a daemon's event feed")
    status.add_argument("socket", help="daemon socket path")
    status.add_argument(
        "--cursor", type=int, default=0,
        help="event-feed poll cursor from a previous status call",
    )
    status.add_argument(
        "--stats", action="store_true",
        help="print cache counters and per-tenant fair-share ledgers",
    )
    status.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain its backlog, persist the cache, exit",
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis: rule soundness, architecture, concurrency",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings output format (default: text)",
    )
    lint.add_argument(
        "--only", default=None, metavar="A,B,...",
        help="comma-separated analyzer subset (rules, arch, concurrency; "
        "default: all)",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="package root to analyze (default: the installed repro package)",
    )
    return parser


# --------------------------------------------------------------- subcommands
def _read_source(path: str) -> str:
    """A Verilog source file's text; an unreadable path is a clean error."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}") from None


def _cmd_optimize(args: argparse.Namespace) -> int:
    source = _read_source(args.source)

    from repro.pipeline import CompositionError

    config = OptimizerConfig(
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=not args.no_verify,
        split_threshold=None if args.no_split else args.split_threshold,
        shards=args.shards,
        auto_shard_nodes=args.auto_shard_nodes or None,
        shard_parallel=args.shard_parallel,
        budget=_ms_budget(args.budget_ms),
        budget_policy=args.budget_policy,
        verify_budget=_ms_budget(args.verify_budget_ms),
        warm_start=args.warm_start,
        save_egraph=args.save_egraph,
        stitch=args.stitch,
        extract_objective=args.objective,
    )
    tool = DatapathOptimizer(dict(args.ranges), config)
    try:
        # The schedule check raises before any stage runs.
        module = tool.optimize_verilog(source)
    except CompositionError as err:
        raise SystemExit(f"error: {err}") from None

    for name, result in module.outputs.items():
        before, after = result.original_cost, result.optimized_cost
        verdict = result.equivalence if result.equivalence else "not checked"
        print(
            f"{name}: delay {before.delay:.1f} -> {after.delay:.1f}, "
            f"area {before.area:.1f} -> {after.area:.1f}  [{verdict}]",
            file=sys.stderr,
        )

    text = module.emit_verilog(args.module_name)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def _records_table(records) -> str:
    from repro.opt import format_comparison

    rows = [
        (
            record.job,
            record.original_delay,
            record.original_area,
            record.optimized_delay,
            record.optimized_area,
        )
        for record in records
        if record.status == "ok"
    ]
    return format_comparison(rows)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.designs.registry import design_names
    from repro.pipeline import Session

    names = (
        [n.strip() for n in args.designs.split(",") if n.strip()]
        if args.designs
        else design_names()
    )
    session = Session.for_designs(
        names,
        workers=args.workers,
        # --budget-ms is the whole batch's ceiling.  Without --workers the
        # batch then runs in-process, split across jobs by --budget-policy;
        # an explicit --workers N races its jobs against one deadline.
        # Per-design limits still apply underneath.
        budget=_ms_budget(args.budget_ms),
        budget_policy=args.budget_policy,
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=args.verify,
        verify_budget=_ms_budget(args.verify_budget_ms),
        shards=args.shards,
        auto_shard_nodes=args.auto_shard_nodes or None,
        shard_parallel=args.shard_parallel,
        extract_objective=args.objective,
    )
    records = session.run()

    print(_records_table(records))
    for record in records:
        if record.status != "ok":
            print(f"{record.job}: FAILED — {record.error}", file=sys.stderr)
    if args.records:
        _append_records(args.records, records)
        print(f"appended {len(records)} records to {args.records}", file=sys.stderr)
    return 0 if all(r.status == "ok" for r in records) else 1


def _append_records(path: str, records) -> None:
    """Append run records to a JSON file.

    New files get a bare list of record dicts.  An existing dict-layout
    file (e.g. ``BENCH_perf.json``, whose headline payload carries a
    ``records`` list) keeps its other keys — only ``records`` grows.
    """
    loaded = None
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    fresh = [json.loads(record.to_json()) for record in records]
    if isinstance(loaded, dict):
        existing = loaded.get("records", [])
        if not isinstance(existing, list):
            existing = []
        payload = {**loaded, "records": [*existing, *fresh]}
    elif isinstance(loaded, list):
        payload = [*loaded, *fresh]
    else:
        # Missing, corrupt, or scalar content: start a fresh record list.
        payload = fresh
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.pipeline import RunRecord

    with open(args.records) as handle:
        loaded = json.load(handle)
    if isinstance(loaded, list):
        raw = loaded
    elif isinstance(loaded, dict):
        raw = loaded.get("records", [])
    else:
        raw = []
    records = [RunRecord.from_dict(entry) for entry in raw if isinstance(entry, dict)]
    if not records:
        print("no records", file=sys.stderr)
        return 1
    print(_records_table(records))
    failed = [r for r in records if r.status != "ok"]
    for record in failed:
        print(f"{record.job}: FAILED — {record.error}", file=sys.stderr)
    return 1 if failed else 0  # same contract as `bench`


def _designer_schedule(args: argparse.Namespace, **knobs):
    """A registry design and the monolithic schedule ``sweep``/``pareto``
    saturate it under (``--iters``/``--nodes`` override its limits)."""
    from repro.designs.registry import get_design
    from repro.pipeline import Schedule

    design = get_design(args.design)
    schedule = Schedule(
        iter_limit=args.iters if args.iters is not None else design.iterations,
        node_limit=args.nodes if args.nodes is not None else design.node_limit,
        **knobs,
    )
    return design, schedule


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.pipeline import Extract, Pipeline, build_stages
    from repro.synth.cost import weighted_key

    design, schedule = _designer_schedule(args)
    weights = [float(w) for w in args.area_weights.split(",") if w.strip()]

    # Saturate once (the schedule's stages before its extraction), then
    # re-extract per objective on the same context.
    *saturation, _extract = build_stages(schedule, source=design.verilog)
    ctx = Pipeline(saturation).run(input_ranges=design.input_ranges)
    print(f"{args.design}: {ctx.report.summary()}", file=sys.stderr)
    print(f"{'area_weight':>11} {'delay':>8} {'area':>10}")
    for weight in weights:
        Extract(key=weighted_key(1.0, weight)).run(ctx)
        cost = ctx.optimized_costs[design.output]
        print(f"{weight:>11.4f} {cost.delay:>8.1f} {cost.area:>10.1f}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.pipeline import Pipeline, build_stages
    from repro.solve import pareto_front

    design, schedule = _designer_schedule(args, extract_objective=args.objective)
    ctx = Pipeline(build_stages(schedule, source=design.verilog)).run(
        input_ranges=design.input_ranges
    )
    front = pareto_front(
        ctx.extracted[design.output],
        ctx.input_ranges,
        mode=args.mode,
        points=args.points,
        max_evals=args.max_evals,
    )
    print(
        f"{args.design} [{args.objective}]: {front.status} front, "
        f"{len(front.points)} point(s), {front.evals} synthesis eval(s) "
        f"over {front.tags} instance(s)",
        file=sys.stderr,
    )
    anchor = "target" if args.mode == "epsilon" else "weight"
    print(f"{anchor:>8} {'delay':>8} {'area':>10}  provenance")
    for point in front.points:
        at = point.target if args.mode == "epsilon" else point.weight
        at_text = f"{at:>8.3f}" if at is not None else f"{'-':>8}"
        print(
            f"{at_text} {point.delay:>8.1f} {point.area:>10.1f}  "
            f"{point.provenance}"
        )
    return 0


def _parse_tenants(text: str):
    from repro.service import TenantShare

    shares = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            name, weight = chunk.rsplit(":", 1)
            shares.append(TenantShare(name.strip(), float(weight)))
        else:
            shares.append(TenantShare(chunk))
    if not shares:
        raise SystemExit("--tenants needs at least one tenant name")
    return shares


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        OptimizationDaemon,
        OptimizationQueue,
        ResultCache,
    )

    queue = OptimizationQueue(
        _parse_tenants(args.tenants),
        budget=_ms_budget(args.budget_ms),
        budget_policy=args.budget_policy,
        cache=ResultCache(capacity=args.cache_entries, path=args.cache_file),
    )
    daemon = OptimizationDaemon(args.socket, queue)
    print(f"serving on {args.socket}", file=sys.stderr)
    daemon.serve_forever()
    summary = daemon.shutdown_summary
    print(
        f"shut down: drained {summary.get('drained', 0)} job(s), "
        f"persisted {summary.get('persisted', 0)} cache entr(ies)",
        file=sys.stderr,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.pipeline import Job
    from repro.service import job_to_dict, request, wait_for_result

    source = _read_source(args.source) if args.source else None
    job = Job(
        name=args.name or args.design,
        design=args.design,
        iter_limit=args.iters,
        node_limit=args.nodes,
        time_limit=args.time_limit,
        verify=args.verify,
        source=source,
    )
    reply = request(
        args.socket,
        {"op": "submit", "tenant": args.tenant, "job": job_to_dict(job)},
    )
    if not reply.get("ok"):
        print(f"submit failed: {reply.get('error')}", file=sys.stderr)
        return 1
    ticket = reply["ticket"]
    print(f"ticket {ticket}: {reply['job']} queued", file=sys.stderr)
    if not args.wait:
        return 0
    record = wait_for_result(args.socket, ticket, timeout=args.timeout)
    print(record.to_json())
    return 0 if record.status == "ok" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import request

    if args.shutdown:
        reply = request(args.socket, {"op": "shutdown"})
        if not reply.get("ok"):
            print(f"shutdown failed: {reply.get('error')}", file=sys.stderr)
            return 1
        print(
            f"drained {reply['drained']} job(s), "
            f"persisted {reply['persisted']} cache entr(ies)"
        )
        return 0
    if args.stats:
        reply = request(args.socket, {"op": "stats"})
        if not reply.get("ok"):
            print(f"stats failed: {reply.get('error')}", file=sys.stderr)
            return 1
        print(json.dumps({k: reply[k] for k in ("cache", "ledger")}, indent=2))
        return 0
    reply = request(args.socket, {"op": "status", "cursor": args.cursor})
    if not reply.get("ok"):
        print(f"status failed: {reply.get('error')}", file=sys.stderr)
        return 1
    for sub in reply["submissions"]:
        print(
            f"#{sub['ticket']} {sub['job']} ({sub['tenant']}): {sub['status']}"
        )
    for event in reply["events"]:
        stage = f" {event['stage']}" if event["stage"] else ""
        detail = f" [{event['detail']}]" if event["detail"] else ""
        print(
            f"  {event['job']}: {event['kind']}{stage} "
            f"({event['wall_s']:.3f}s){detail}"
        )
    print(f"cursor {reply['cursor']}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    only = tuple(args.only.split(",")) if args.only else None
    report = run_lint(root=args.root, only=only)
    print(report.render(args.format))
    return report.exit_code


_DISPATCH = {
    "optimize": _cmd_optimize,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "pareto": _cmd_pareto,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "lint": _cmd_lint,
}

#: Derived, so the legacy-alias check in ``main`` can never drift from the
#: registered subcommands.
SUBCOMMANDS = tuple(_DISPATCH)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy invocation: `python -m repro design.v [options]` (no
    # subcommand) keeps working as an alias for `optimize`.
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "optimize")
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
