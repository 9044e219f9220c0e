"""One schedule spec, one stage builder.

A :class:`Schedule` holds every knob that shapes a run's stage list, and
:func:`build_stages` is the one place those knobs become stages, after
:meth:`Schedule.check` has held them to the one table of composition rules
(:data:`COMPOSITION_RULES`, with :func:`is_sharded` deciding when the
``auto_shard_nodes`` threshold yields).  A batch ``Job`` and the one-call
``OptimizerConfig`` are keyword-only subclasses that add only their own
fields, so every knob is declared here once; ``Job.schedule`` fills in a
job's design-default limits.  The CLI, the service queue and the shard
worker (which runs :func:`monolithic_tail` over its cone) build from
schedules too.  The artifact key and the service's record key digest the
fields each marks (:func:`key_fields`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

from repro.ir.expr import Expr
from repro.pipeline.budget import Budget
from repro.pipeline.stages import (
    CaseSplit,
    Extract,
    Ingest,
    SaveEGraph,
    Saturate,
    Stage,
    Verify,
    WarmStart,
)
from repro.rewrites.rulesets import casesplit_rules, compose_rules, ruleset
from repro.synth.cost import default_key

#: The stitch phase after a sharded merge: a short saturation of the
#: re-united shard graphs (its node limit is headroom over the absorbed
#: graph, see :class:`~repro.pipeline.shard.MergeShards`).
STITCH_ITERS = 2
STITCH_TIME_LIMIT = 10.0


def _knob(default, *, record: int, ruleset: int | None = None):
    """A schedule field that feeds the record cache key at position
    ``record`` and, when ``ruleset`` is given, the artifact key too."""
    return field(default=default, metadata={"record": record, "ruleset": ruleset})


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """The stage-shaping knobs of one run.

    Picklable: a shard worker receives the schedule and rebuilds its own
    stages from it, so no rule object (which may close over unpicklable
    state) crosses the process boundary.

    ``iter_limit``/``node_limit``/``time_limit`` bound each saturation;
    ``split_threshold``/``enable_assume``/``enable_condition`` select the
    rules (:func:`~repro.rewrites.rulesets.compose_rules`).  ``phases``
    replaces the single saturation with one ``Saturate`` per tuple of named
    rulesets, ``phase_iters`` iterations each.  ``shards`` clusters output
    cones into at most that many shards, ``auto_shard_nodes`` shards a
    multi-output design per output once its DAG reaches that size, and
    ``shard_parallel`` fans the shards out over a process pool;
    ``budget_policy`` splits a run budget across them.  ``stitch`` re-unions
    the shard graphs after the merge.  ``warm_start`` seeds saturation from
    a persisted e-graph and ``save_egraph`` persists the saturated one.
    ``extract_objective`` is ``"greedy"`` or ``"ilp"``; ``pareto``
    (``"epsilon"``/``"weighted"``) adds a front characterization.
    ``verify`` appends an equivalence check, ceilinged by
    ``verify_budget``.  ``splits`` are designer case splits on every root
    (each shard applies those its cone can see), ``check_invariants``
    asserts e-graph invariants after every iteration, and ``extraction_key``
    orders extraction costs.
    """

    iter_limit: int = _knob(8, record=0)
    node_limit: int = _knob(30_000, record=1)
    time_limit: float = _knob(60.0, record=2)
    split_threshold: int | None = _knob(1, record=3, ruleset=2)
    enable_assume: bool = _knob(True, record=4, ruleset=0)
    enable_condition: bool = _knob(True, record=5, ruleset=1)
    verify: bool = _knob(False, record=6)
    phases: tuple[tuple[str, ...], ...] = _knob((), record=7, ruleset=3)
    phase_iters: int = _knob(4, record=8, ruleset=4)
    shards: int = _knob(0, record=9)
    auto_shard_nodes: int | None = _knob(None, record=10)
    budget_policy: str = _knob("adaptive", record=11)
    stitch: bool = _knob(False, record=12)
    # The objective does not change the saturated e-graph, but artifacts
    # say which objective their runs were measured under, so it is part of
    # the artifact key; it and the Pareto mode change what a run returns,
    # so both are part of the record key.
    extract_objective: str = _knob("greedy", record=13, ruleset=5)
    pareto: str = _knob("", record=14)
    shard_parallel: bool = False
    verify_budget: Budget | None = None
    warm_start: str | None = None
    save_egraph: str | None = None
    check_invariants: bool = False
    splits: tuple[Expr, ...] = ()
    extraction_key: Callable[[float, float], tuple] = default_key

    @property
    def ship_egraph(self) -> bool:
        """Whether shards ship their saturated graphs back: only for the
        stitch, since graphs dwarf the extracted trees."""
        return self.stitch

    def rules(self) -> list:
        """The single-phase rule selection."""
        return compose_rules(
            self.split_threshold, self.enable_assume, self.enable_condition
        )

    def check(self) -> None:
        """Raise :class:`CompositionError` if the knobs do not compose."""
        if self.extract_objective not in ("greedy", "ilp"):
            raise CompositionError(
                f"unknown extract objective: {self.extract_objective!r}"
            )
        for applies, reason in COMPOSITION_RULES:
            if applies(self):
                raise CompositionError(reason)


class CompositionError(ValueError):
    """A schedule whose knobs break a rule of :data:`COMPOSITION_RULES`."""


def is_sharded(knobs: Schedule) -> bool:
    """Whether a :class:`Schedule` fans out over shards.

    An explicit ``shards`` count always does.  The ``auto_shard_nodes``
    threshold yields to a warm start, to saving the e-graph and to the ILP
    objective: all three need one monolithic graph, and a default threshold
    must not force them apart.
    """
    if knobs.shards > 0:
        return True
    return (
        knobs.auto_shard_nodes is not None
        and knobs.warm_start is None
        and knobs.save_egraph is None
        and knobs.extract_objective == "greedy"
    )


#: ``(violated(schedule), reason)`` — the one table of composition rules.
#: Shards extract inside their worker schedules, with the default key (a
#: custom one might not pickle); the ILP refinement plans its own
#: per-output cones and would double-decompose.
COMPOSITION_RULES: tuple[tuple[Callable[[Schedule], bool], str], ...] = (
    (lambda s: is_sharded(s) and bool(s.phases),
     "sharding composes with the single-phase schedule only"),
    (lambda s: is_sharded(s) and s.warm_start is not None,
     "warm-start composes with monolithic schedules only"),
    (lambda s: is_sharded(s) and s.extract_objective != "greedy",
     "extract_objective='ilp' composes with monolithic schedules only"),
    (lambda s: is_sharded(s) and bool(s.pareto),
     "pareto composes with monolithic schedules only"),
    (lambda s: is_sharded(s) and s.extraction_key is not default_key,
     "a custom extraction_key composes with monolithic schedules only"),
    (lambda s: s.stitch and not is_sharded(s),
     "stitch requires a sharded schedule"),
    (lambda s: is_sharded(s) and s.save_egraph is not None and not s.stitch,
     "save-egraph on a sharded schedule requires stitch (unstitched shards "
     "leave no e-graph to save)"),
)


def key_fields(key: str) -> tuple[str, ...]:
    """The :class:`Schedule` fields a key digests, in the key's order:
    ``"ruleset"`` (artifact compatibility) or ``"record"`` (record cache)."""
    ranked = sorted(
        (f.metadata[key], f.name)
        for f in fields(Schedule)
        if f.metadata.get(key) is not None
    )
    return tuple(name for _, name in ranked)


#: Knobs that select *which rewrites run* — the compatibility contract for
#: reusing a persisted e-graph.  Exploration limits are excluded on
#: purpose: a graph saturated deeper than the current budget is still
#: sound to seed from.
RULESET_FIELDS = key_fields("ruleset")


def job_schedule_key(knobs: Schedule) -> str:
    """Digest of the ruleset-selecting knobs of a :class:`Schedule` (the
    artifact compatibility key)."""
    payload = repr(tuple(getattr(knobs, name) for name in RULESET_FIELDS))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------- builder
def build_stages(
    schedule: Schedule,
    source: str | None = None,
    roots: Mapping[str, Expr] | None = None,
) -> list[Stage]:
    """The stage list ``schedule`` expands to over a design given as
    Verilog ``source`` or IR ``roots``.

    Raises :class:`CompositionError` before building anything when the
    schedule breaks a composition rule.
    """
    from repro.pipeline.shard import MergeShards, Shard

    schedule.check()
    sharded = is_sharded(schedule)
    warm = schedule.warm_start is not None
    stages: list[Stage] = [
        # A sharded run only parses: each shard ingests its cone into its
        # own e-graph, so a monolithic graph would be discarded work.
        Ingest(source=source, roots=roots or None, seed_egraph=not (sharded or warm))
    ]
    if warm:
        stages.append(
            WarmStart(schedule.warm_start, schedule=job_schedule_key(schedule))
        )
    if sharded:
        stitch = None
        if schedule.stitch:
            stitch = Saturate(
                schedule.rules(),
                iter_limit=STITCH_ITERS,
                node_limit=None,
                time_limit=STITCH_TIME_LIMIT,
                label="stitch",
            )
        stages += [Shard(schedule), MergeShards(stitch=stitch)]
        stages += _saved(schedule)
    else:
        stages += monolithic_tail(schedule)
    if schedule.verify:
        stages.append(Verify(budget=schedule.verify_budget))
    return stages


def monolithic_tail(schedule: Schedule) -> list[Stage]:
    """Case splits, saturation, extraction and save: what a monolithic run
    does after seeding its e-graph, and a shard after ingesting its cone.
    The save follows the extraction, so the artifact carries its solved
    table (and precedes a Pareto sweep, which re-extracts under other
    objectives)."""
    stages: list[Stage] = []
    if schedule.splits:
        stages.append(CaseSplit(schedule.splits))
    limits = {
        "node_limit": schedule.node_limit,
        "time_limit": schedule.time_limit,
        "check_invariants": schedule.check_invariants,
    }
    if not schedule.phases:
        stages.append(
            Saturate(schedule.rules(), iter_limit=schedule.iter_limit, **limits)
        )
    for index, phase in enumerate(schedule.phases):
        stages.append(
            Saturate(
                _phase_rules(phase, schedule.split_threshold),
                iter_limit=schedule.phase_iters,
                label=f"saturate:{'+'.join(phase) or index}",
                **limits,
            )
        )
    # ASSUME wrappers are kept in the extracted tree: the tree-level range
    # analysis re-derives the constraint refinements from them, so netlist
    # lowering and Verilog emission see the reduced bitwidths.
    extract = Extract
    if schedule.extract_objective == "ilp" or schedule.pareto:
        # Runtime import: solve sits above pipeline in the package DAG.
        from repro.solve import OptimalExtract, ParetoSweep  # lint: ok(AR-LAYER): solve layers above pipeline; the ILP and Pareto stages are opt-in and resolved at build time

        if schedule.extract_objective == "ilp":
            extract = OptimalExtract
    stages.append(extract(key=schedule.extraction_key, strip_assumes=False))
    stages += _saved(schedule)
    if schedule.pareto:
        stages.append(ParetoSweep(mode=schedule.pareto))
    return stages


def _saved(schedule: Schedule) -> list[Stage]:
    if not schedule.save_egraph:
        return []
    return [SaveEGraph(schedule.save_egraph, schedule=job_schedule_key(schedule))]


def _phase_rules(phase: tuple[str, ...], split_threshold: int | None) -> list:
    rules: list = []
    for name in phase:
        if name == "casesplit":
            rules += casesplit_rules(
                split_threshold if split_threshold is not None else 1
            )
        else:
            rules += ruleset(name)
    return rules
