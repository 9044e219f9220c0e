"""Delay-target synthesis sweep (the Figure 3 / Table III measurement flow).

The paper synthesizes each RTL "at a range of delay targets using Synopsys
Fusion Compiler" and reports the resulting area-delay curve (Fig. 3) and the
minimum achievable delay point (Table III).  The substitute flow:

* every adder-based operator instance starts as the smallest architecture
  (ripple);
* while the netlist misses the delay target, the slowest instance on the
  critical path is upgraded (ripple -> carry-select -> sklansky);
* the process stops at the target or when nothing upgradeable remains.

Sweeping the target from tight to loose produces the same qualitatively
convex area-delay trade-off a commercial tool emits; the sweep itself
(:func:`repro.solve.pareto.sweep_points`) and the true Pareto front
(:func:`repro.solve.pareto.pareto_front`) live in :mod:`repro.solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.intervals import IntervalSet
from repro.ir.expr import Expr
from repro.synth.components import ADDER_ARCHS
from repro.synth.lower import lower_to_netlist


@dataclass
class SynthesisPoint:
    """One synthesis run: requested target, achieved delay, area."""

    target: float
    delay: float
    area: float
    met: bool
    arch_choices: dict[str, str] = field(default_factory=dict)


def synthesize_at(
    expr: Expr,
    target: float,
    input_ranges: Mapping[str, IntervalSet] | None = None,
    max_upgrades: int = 200,
) -> SynthesisPoint:
    """Minimum-area netlist meeting ``target`` (best effort)."""
    choices: dict[str, str] = {}
    lowered = lower_to_netlist(expr, input_ranges, choices, default_arch="ripple")
    delay = lowered.netlist.critical_path_delay()
    for _ in range(max_upgrades):
        if delay <= target:
            break
        upgraded = False
        for tag in lowered.netlist.critical_tags():
            if tag not in lowered.adder_tags:
                continue
            current = choices.get(tag, "ripple")
            position = ADDER_ARCHS.index(current)
            if position + 1 < len(ADDER_ARCHS):
                choices[tag] = ADDER_ARCHS[position + 1]
                upgraded = True
                break
        if not upgraded:
            break
        lowered = lower_to_netlist(expr, input_ranges, choices, default_arch="ripple")
        delay = lowered.netlist.critical_path_delay()
    return SynthesisPoint(
        target=target,
        delay=delay,
        area=lowered.netlist.area(),
        met=delay <= target,
        arch_choices=dict(choices),
    )


def min_delay_point(
    expr: Expr, input_ranges: Mapping[str, IntervalSet] | None = None
) -> SynthesisPoint:
    """The fastest achievable implementation (Table III's operating point).

    All-fastest architectures give the delay floor; the floor is then passed
    back through :func:`synthesize_at` so area relaxes wherever there is
    slack.
    """
    fastest = lower_to_netlist(expr, input_ranges, {}, default_arch="sklansky")
    floor = fastest.netlist.critical_path_delay()
    point = synthesize_at(expr, floor, input_ranges)
    if not point.met:
        return SynthesisPoint(
            target=floor,
            delay=floor,
            area=fastest.netlist.area(),
            met=True,
            arch_choices={tag: "sklansky" for tag in fastest.adder_tags},
        )
    return point
