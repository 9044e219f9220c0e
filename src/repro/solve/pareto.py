"""True Pareto-front characterization of the area-delay trade-off.

The legacy sweep (:func:`repro.synth.sweep.synthesize_at` over a grid of
delay targets) regenerates Figure 3 by running the greedy critical-path
upgrader at each target — each point is *a* implementation meeting the
target, not the best one.  This module characterizes the front properly over the architecture
space (one choice from :data:`~repro.synth.components.ADDER_ARCHS` per adder
instance):

* **epsilon-constraint** mode: per delay target ``T``, minimize area subject
  to ``delay <= T`` — the classic scalarization that reaches *every* Pareto
  point, supported or not;
* **weighted** mode: minimize ``w·delay + (1-w)·area`` (floor-normalized)
  over a weight grid — the supported points a linear objective can see.

Both modes share one :class:`_Space`: every lowered configuration is
measured once and memoized, so a sweep's targets reuse each other's
synthesis runs (the greedy chain re-lowers from scratch per target).  When
the architecture space is small enough (``3^tags`` within ``max_evals``)
the space is enumerated exhaustively and every front point carries
``provenance="optimal"`` — a *proved* front.  Otherwise the greedy chain
seeds each target and a bounded downgrade descent refines it
(``provenance="incumbent"``); a deadline or evaluation-quota expiry keeps
whatever was measured (``provenance="greedy"``).  Dominated points are
filtered from the front in all modes.

:func:`sweep_points` is the Figure 3 series: the greedy sweep's targets,
``SynthesisPoint`` semantics and prefix-min monotonicity — but each point
may be substituted by a cheaper configuration the shared space discovered,
so it is never worse than the greedy sweep.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.intervals import IntervalSet
from repro.ir.expr import Expr
from repro.pipeline.budget import Budget
from repro.pipeline.context import PipelineContext
from repro.pipeline.stages import _stage_window
from repro.synth.components import ADDER_ARCHS
from repro.synth.lower import lower_to_netlist

__all__ = [
    "ParetoPoint",
    "ParetoFront",
    "ParetoSweep",
    "pareto_front",
    "sweep_points",
]

_DEFAULT_ARCH = ADDER_ARCHS[0]  # "ripple"
_FASTEST_ARCH = ADDER_ARCHS[-1]  # "sklansky"


# ------------------------------------------------------------------- artifact
@dataclass(frozen=True)
class ParetoPoint:
    """One point on (or candidate for) the front, with its provenance.

    ``provenance`` is ``"optimal"`` when the point came out of an exhaustive
    enumeration of the architecture space (it is provably the min-area
    implementation at its delay), ``"incumbent"`` when a bounded search
    found it, and ``"greedy"`` when the budget expired before the search ran
    and the greedy chain's output stands.  ``target`` is set in
    epsilon-constraint mode, ``weight`` in weighted mode.
    """

    delay: float
    area: float
    arch_choices: dict[str, str] = field(default_factory=dict)
    provenance: str = "incumbent"
    target: float | None = None
    weight: float | None = None

    def dominates(self, other: "ParetoPoint") -> bool:
        """Weak dominance: no worse in both axes, better in one."""
        return (
            self.delay <= other.delay
            and self.area <= other.area
            and (self.delay < other.delay or self.area < other.area)
        )

    def as_dict(self) -> dict:
        payload: dict = {
            "delay": round(self.delay, 6),
            "area": round(self.area, 6),
            "provenance": self.provenance,
            "arch_choices": dict(self.arch_choices),
        }
        if self.target is not None:
            payload["target"] = round(self.target, 6)
        if self.weight is not None:
            payload["weight"] = round(self.weight, 6)
        return payload


@dataclass
class ParetoFront:
    """The dominance-filtered front plus the run's governance receipt.

    ``status`` summarizes the whole characterization the way the solver's
    :class:`~repro.solve.ilp.SolveResult` does: ``"optimal"`` — the space
    was exhausted, the front is proved; ``"incumbent"`` — bounded search
    completed but without a proof; ``"greedy"`` — the evaluation budget or
    deadline cut even the search short.
    """

    mode: str  # "epsilon" | "weighted"
    points: tuple[ParetoPoint, ...]
    status: str
    evals: int = 0
    tags: int = 0

    def point_for_target(self, target: float) -> ParetoPoint | None:
        """Min-area front point meeting ``target`` (None below the floor)."""
        best = None
        for point in self.points:
            if point.delay <= target and (best is None or point.area < best.area):
                best = point
        return best

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "evals": self.evals,
            "tags": self.tags,
            "points": [point.as_dict() for point in self.points],
        }


def _dominance_filter(points: list[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """Drop dominated and duplicate points; sort by delay ascending."""
    kept: list[ParetoPoint] = []
    for point in sorted(points, key=lambda p: (p.delay, p.area)):
        if kept and kept[-1].area <= point.area:
            continue  # dominated by (or duplicating) a faster-or-equal point
        kept.append(point)
    return tuple(kept)


# ---------------------------------------------------------------------- space
@dataclass(frozen=True)
class _Config:
    """One measured architecture assignment."""

    choices: tuple[tuple[str, str], ...]  # sorted (tag, arch) pairs
    delay: float
    area: float
    critical: tuple[str, ...]  # critical-path tags, for the greedy chain

    def choices_dict(self) -> dict[str, str]:
        return dict(self.choices)


class _Space:
    """Memoized architecture space of one design.

    Every distinct choice assignment is lowered and timed at most once, and
    the memo is shared across all targets/weights of a characterization —
    the structural win over the per-target greedy chain.  ``measure``
    returns ``None`` once the evaluation quota or deadline is hit (and
    flags ``truncated``); ``force=True`` bypasses the quota for the two
    anchor configurations a front cannot do without.
    """

    def __init__(
        self,
        expr: Expr,
        input_ranges: Mapping[str, IntervalSet] | None,
        max_evals: int = 400,
        deadline: float | None = None,
        clock=None,
    ) -> None:
        self.expr = expr
        self.input_ranges = input_ranges
        self.max_evals = max_evals
        self.deadline = math.inf if deadline is None else deadline
        self.clock = clock if clock is not None else time.monotonic
        self.evals = 0
        self.truncated = False
        self._memo: dict[tuple[tuple[str, str], ...], _Config] = {}
        self._last_adder_tags: tuple[str, ...] = ()
        self.measure({}, force=True)  # the all-ripple anchor names the tags
        self.tags: tuple[str, ...] = tuple(sorted(self._last_adder_tags))
        self._tag_set = set(self.tags)

    def measure(
        self, choices: Mapping[str, str], force: bool = False
    ) -> _Config | None:
        key = tuple(sorted(choices.items()))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not force and (
            self.evals >= self.max_evals or self.clock() > self.deadline
        ):
            self.truncated = True
            return None
        self.evals += 1
        lowered = lower_to_netlist(
            self.expr, self.input_ranges, dict(choices), default_arch=_DEFAULT_ARCH
        )
        self._last_adder_tags = tuple(lowered.adder_tags)
        config = _Config(
            choices=key,
            delay=lowered.netlist.critical_path_delay(),
            area=lowered.netlist.area(),
            critical=tuple(lowered.netlist.critical_tags()),
        )
        self._memo[key] = config
        return config

    def configs(self) -> list[_Config]:
        return list(self._memo.values())

    @property
    def space_size(self) -> int:
        return len(ADDER_ARCHS) ** len(self.tags)


# --------------------------------------------------------------------- search
def _greedy_chain(space: _Space, target: float, max_upgrades: int = 200):
    """The legacy critical-path upgrader, replayed through the memo.

    Same policy as :func:`repro.synth.sweep.synthesize_at` — upgrade the
    first upgradeable instance on the critical path until the target is met
    or nothing upgrades — so its output is exactly what the greedy sweep
    would have produced (modulo shared memoization).
    """
    choices: dict[str, str] = {}
    config = space.measure({}, force=True)
    for _ in range(max_upgrades):
        if config.delay <= target:
            break
        upgraded = False
        for tag in config.critical:
            if tag not in space._tag_set:
                continue
            current = choices.get(tag, _DEFAULT_ARCH)
            position = ADDER_ARCHS.index(current)
            if position + 1 < len(ADDER_ARCHS):
                choices[tag] = ADDER_ARCHS[position + 1]
                upgraded = True
                break
        if not upgraded:
            break
        step = space.measure(choices)
        if step is None:
            break  # budget expired mid-chain: keep the best config reached
        config = step
    return config


def _downgrade_descent(space: _Space, config: _Config, target: float) -> _Config:
    """Shrink area under the delay constraint, one downgrade at a time."""
    improved = True
    while improved:
        improved = False
        choices = config.choices_dict()
        for tag in space.tags:
            current = choices.get(tag, _DEFAULT_ARCH)
            position = ADDER_ARCHS.index(current)
            if position == 0:
                continue
            trial = dict(choices)
            lower = ADDER_ARCHS[position - 1]
            if lower == _DEFAULT_ARCH:
                trial.pop(tag, None)
            else:
                trial[tag] = lower
            measured = space.measure(trial)
            if measured is None:
                return config
            if measured.delay <= target and measured.area < config.area:
                config = measured
                improved = True
                break
    return config


def _explore(space: _Space, targets: list[float]) -> str:
    """Populate the memo; returns the characterization status."""
    if space.tags and space.space_size <= max(0, space.max_evals - space.evals):
        complete = True
        for assignment in itertools.product(ADDER_ARCHS, repeat=len(space.tags)):
            choices = {
                tag: arch
                for tag, arch in zip(space.tags, assignment, strict=True)
                if arch != _DEFAULT_ARCH
            }
            if space.measure(choices) is None:
                complete = False
                break
        if complete:
            return "optimal"
        return "greedy"
    if not space.tags:
        # Nothing to choose: the single configuration is trivially optimal.
        return "optimal"
    ran_all = True
    for target in targets:
        seed = _greedy_chain(space, target)
        _downgrade_descent(space, seed, target)
        if space.truncated:
            ran_all = False
            break
    return "incumbent" if ran_all else "greedy"


# ----------------------------------------------------------------- the fronts
def pareto_front(
    expr: Expr,
    input_ranges: Mapping[str, IntervalSet] | None = None,
    mode: str = "epsilon",
    points: int = 10,
    slack_factor: float = 2.5,
    max_evals: int = 400,
    weights: list[float] | None = None,
    deadline: float | None = None,
    clock=None,
) -> ParetoFront:
    """Characterize the area-delay front of ``expr``'s architecture space."""
    if mode not in ("epsilon", "weighted"):
        raise ValueError(f"unknown pareto mode: {mode!r}")
    space = _Space(expr, input_ranges, max_evals, deadline, clock)
    fastest = space.measure(
        {tag: _FASTEST_ARCH for tag in space.tags}, force=True
    )
    floor = fastest.delay
    top = floor * slack_factor
    targets = [
        floor + (top - floor) * i / max(points - 1, 1) for i in range(points)
    ]
    status = _explore(space, targets)
    configs = space.configs()

    selected: list[ParetoPoint] = []
    if mode == "epsilon":
        for target in targets:
            feasible = [c for c in configs if c.delay <= target]
            if not feasible:
                continue
            best = min(feasible, key=lambda c: (c.area, c.delay))
            selected.append(
                ParetoPoint(
                    delay=best.delay,
                    area=best.area,
                    arch_choices=best.choices_dict(),
                    provenance=status,
                    target=target,
                )
            )
    else:
        grid = weights
        if grid is None:
            grid = [i / max(points - 1, 1) for i in range(points)]
        # Floor-normalize so a weight means the same thing across designs.
        delay_scale = max(floor, 1.0)
        area_scale = max((c.area for c in configs), default=1.0) or 1.0
        for weight in grid:
            best = min(
                configs,
                key=lambda c, weight=weight: (
                    weight * c.delay / delay_scale
                    + (1.0 - weight) * c.area / area_scale,
                    c.delay,
                    c.area,
                ),
            )
            selected.append(
                ParetoPoint(
                    delay=best.delay,
                    area=best.area,
                    arch_choices=best.choices_dict(),
                    provenance=status,
                    weight=weight,
                )
            )

    return ParetoFront(
        mode=mode,
        points=_dominance_filter(selected),
        status=status,
        evals=space.evals,
        tags=len(space.tags),
    )


def sweep_points(
    expr: Expr,
    input_ranges: Mapping[str, IntervalSet] | None = None,
    points: int = 10,
    slack_factor: float = 2.5,
    max_evals: int = 400,
) -> list:
    """The legacy sweep's series, upgraded by the shared space.

    Same target grid, same :class:`~repro.synth.sweep.SynthesisPoint`
    semantics, same prefix-min area-monotonicity — but every target may be
    substituted by a cheaper measured configuration, so no point is ever
    worse than what the greedy sweep produced.
    """
    from repro.synth.sweep import SynthesisPoint, min_delay_point

    space = _Space(expr, input_ranges, max_evals)
    floor = min_delay_point(expr, input_ranges)
    top = floor.delay * slack_factor
    targets = [
        floor.delay + (top - floor.delay) * i / max(points - 1, 1)
        for i in range(points)
    ]
    _explore(space, targets)
    configs = space.configs()

    points_out: list = []
    best: object | None = None  # smallest-area point so far (prefix-min)
    for target in targets:
        chain = _greedy_chain(space, target)
        point = SynthesisPoint(
            target=target,
            delay=chain.delay,
            area=chain.area,
            met=chain.delay <= target,
            arch_choices=chain.choices_dict(),
        )
        # The space may know a cheaper implementation at this target than
        # the greedy chain found (shared memoization across targets, or the
        # exhaustive enumeration).
        feasible = [c for c in configs if c.delay <= target]
        if feasible:
            candidate = min(feasible, key=lambda c: (c.area, c.delay))
            if candidate.area < point.area:
                point = SynthesisPoint(
                    target=target,
                    delay=candidate.delay,
                    area=candidate.area,
                    met=True,
                    arch_choices=candidate.choices_dict(),
                )
        if best is not None and best.delay <= target and best.area < point.area:
            point = SynthesisPoint(
                target=target,
                delay=best.delay,
                area=best.area,
                met=True,
                arch_choices=dict(best.arch_choices),
            )
        if best is None or (point.area, point.delay) < (best.area, best.delay):
            best = point
        points_out.append(point)
    return points_out


# ---------------------------------------------------------------------- stage
class ParetoSweep:
    """Pipeline stage: characterize each extracted output's front.

    Appended after extraction when a job asks for ``pareto="epsilon"`` or
    ``"weighted"``.  Self-charging like Extract/Verify: its wall spend lands
    in the governor's ledger under ``"pareto"``, and a governed deadline
    truncates the characterization (the front's ``status`` says so) instead
    of raising.  Results go to ``ctx.artifacts["pareto"]``.
    """

    name = "pareto"
    self_charging = True

    def __init__(
        self,
        mode: str = "epsilon",
        points: int = 10,
        slack_factor: float = 2.5,
        max_evals: int = 400,
        label: str | None = None,
    ) -> None:
        if mode not in ("epsilon", "weighted"):
            raise ValueError(f"unknown pareto mode: {mode!r}")
        self.mode = mode
        self.points = points
        self.slack_factor = slack_factor
        self.max_evals = max_evals
        if label is not None:
            self.name = label

    def run(self, ctx: PipelineContext) -> None:
        governor = ctx.governor
        clock = governor.clock
        started = clock()
        deadline = None
        if not math.isinf(governor.work_deadline):
            deadline = governor.work_deadline
        fronts: dict[str, dict] = {}
        statuses: list[str] = []
        try:
            source = ctx.extracted if ctx.extracted else ctx.roots
            for name, expr in source.items():
                front = pareto_front(
                    expr,
                    ctx.input_ranges,
                    mode=self.mode,
                    points=self.points,
                    slack_factor=self.slack_factor,
                    max_evals=self.max_evals,
                    deadline=deadline,
                    clock=clock,
                )
                fronts[name] = front.as_dict()
                statuses.append(front.status)
        finally:
            elapsed = clock() - started
            worst = "optimal"
            for status in statuses:
                if status == "greedy":
                    worst = "greedy"
                    break
                if status == "incumbent":
                    worst = "incumbent"
            total = sum(len(front["points"]) for front in fronts.values())
            ctx.artifacts["pareto"] = {
                "mode": self.mode,
                "status": worst if statuses else "greedy",
                "fronts": fronts,
                "summary": f"{self.mode}:{worst if statuses else 'greedy'}:{total}",
            }
            governor.charge(
                self.name,
                time_s=elapsed,
                allocated=(
                    Budget(time_s=round(_stage_window(deadline, started), 6))
                    if deadline is not None
                    else None
                ),
            )
