"""The extraction objective: delay-prioritized with area tie-break.

The paper: "we target maximal performance and extract the design with the
shortest critical path delay.  If multiple designs achieve identical delay,
we extract the smallest area circuit amongst them. [...] using egg's
standard extraction algorithm combined with a delay/area weighted sum
objective function."

:class:`DelayArea` carries both metrics; ordering is by a pluggable key —
lexicographic ``(delay, area)`` by default, or a weighted sum for sweeping
the delay/area trade-off (used to populate Figure 3's optimized curve).

Operator widths come from the interval analysis
(:func:`repro.analysis.width_of`): a class whose refined range needs fewer
bits prices as the narrower operator — this is how bitwidth reduction
(Section IV-A) reaches the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis import ANALYSIS_NAME, range_width
from repro.egraph.egraph import EGraph
from repro.egraph.enode import ENode
from repro.egraph.extract import CostFunction
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.synth.models import area_model, delay_model


@dataclass(frozen=True, slots=True)
class DelayArea:
    """A (delay, area) cost with a precomputed comparison key."""

    delay: float
    area: float
    key: tuple

    def __lt__(self, other: "DelayArea") -> bool:
        return self.key < other.key


def lexicographic_key(delay: float, area: float) -> tuple:
    """Shortest delay first, then smallest area."""
    return (delay, area)


def default_key(delay: float, area: float) -> tuple:
    """The paper's delay/area weighted-sum objective.

    Delay dominates (performance-prioritized extraction) but area carries
    enough weight that the extractor does not duplicate large operators for
    marginal delay wins; the tie-break remains lexicographic.
    """
    return (delay + 0.005 * area, delay, area)


def weighted_key(delay_weight: float, area_weight: float) -> Callable[[float, float], tuple]:
    """Weighted-sum objective for trade-off sweeps."""

    def key(delay: float, area: float) -> tuple:
        return (delay_weight * delay + area_weight * area,)

    return key


#: Operand positions whose constant-ness the model reads, per operator:
#: shifts only consult the shift amount (operand 1); comparisons and
#: add/sub consult both operands.  For anything else callers may pass
#: all-False without affecting the result.
CONST_HINT_POSITIONS = {
    ops.SHL: (1,), ops.SHR: (1,),
    ops.LT: (0, 1), ops.LE: (0, 1), ops.GT: (0, 1), ops.GE: (0, 1),
    ops.EQ: (0, 1), ops.NE: (0, 1), ops.ADD: (0, 1), ops.SUB: (0, 1),
}


def operator_model(
    op,
    result_range: IntervalSet,
    operand_ranges: Sequence[IntervalSet],
    operand_is_const: Sequence[bool],
) -> tuple[float, float]:
    """Section IV-D (delay, area) of one operator instance, given ranges.

    The single source of the model's width/constant/shift-level derivation:
    both the e-graph extraction cost (:class:`DelayAreaCost`) and the
    tree-level cost (:func:`repro.synth.treecost.model_cost`) price operators
    through here, which is what keeps the two paths in exact parity.
    """
    shift_levels: int | None = None
    const_operand = False
    if op in (ops.SHL, ops.SHR):
        if not operand_is_const[1]:
            shift_levels = shift_levels_of(operand_ranges[1])
    elif op in (ops.LT, ops.LE, ops.GT, ops.GE, ops.EQ, ops.NE, ops.ADD, ops.SUB):
        const_operand = any(operand_is_const)
    return model_of(
        op,
        range_width(result_range),
        tuple(range_width(r) for r in operand_ranges),
        shift_levels,
        const_operand,
    )


def shift_levels_of(amount: IntervalSet) -> int:
    """Barrel-shifter levels for a non-constant shift amount's range."""
    top = amount.max()
    return max(top, 1).bit_length() if top is not None else 6


def model_of(
    op,
    width: int,
    operand_widths: tuple[int, ...],
    shift_levels: int | None,
    const_operand: bool,
) -> tuple[float, float]:
    """(delay, area) of one operator from the model's derived parameters.

    The models are pure in these parameters, and saturation produces
    thousands of nodes sharing a handful of (op, widths) shapes — memoize
    on them (ops hash by identity, so the key is cheap).
    """
    key = (op, width, operand_widths, shift_levels, const_operand)
    cached = _MODEL_MEMO.get(key)
    if cached is None:
        kwargs = {
            "width": width,
            "operand_widths": operand_widths,
            "shift_levels": shift_levels,
            "const_operand": const_operand,
        }
        cached = _MODEL_MEMO[key] = (
            delay_model(op, **kwargs),
            area_model(op, **kwargs),
        )
    return cached


#: (op, width, operand_widths, shift_levels, const_operand) -> (delay, area).
_MODEL_MEMO: dict[tuple, tuple[float, float]] = {}


class DelayAreaCost(CostFunction):
    """Section IV-D's theoretical model as an extraction cost function."""

    def __init__(self, key: Callable[[float, float], tuple] | None = None) -> None:
        self.key = key if key is not None else lexicographic_key

    def pricer(self, egraph: EGraph) -> Callable[[int, ENode], tuple[float, float]]:
        """``price(class_id, enode)``: the (delay, area) of the node itself,
        before child contributions, over ``egraph`` as it stands.

        Ranges are read straight from the engine's ``class_data`` column,
        and each class's storage width is derived once and kept by class id,
        so nothing is re-derived per (e-node, operand) pair; the node's
        model parameters go straight to :func:`model_of`, the memo
        :func:`operator_model` also ends in.  The classes that hold a CONST
        member are collected once, from the core's per-op index, so a const
        hint is a set probe rather than a scan of the operand's members.
        Valid while the graph does not change, as during one extraction.
        """
        class_data = egraph.class_data
        find = egraph.find
        uf_parent = egraph.uf_parent
        core = egraph.core
        node_class = core.node_class
        const_classes = {
            find(node_class[nid]) for nid in core.op_nodes[core.op_ids[ops.CONST]]
        }
        #: Canonical class id -> storage width of its range.
        widths: dict[int, int] = {}

        def width(class_id: int) -> int:
            root = class_id if uf_parent[class_id] == class_id else find(class_id)
            found = widths.get(root)
            if found is None:
                found = widths[root] = range_width(
                    class_data[root][ANALYSIS_NAME].iset
                )
            return found

        def price(class_id: int, enode: ENode) -> tuple[float, float]:
            op = enode.op
            children = enode.children
            shift_levels = None
            const_operand = False
            if op is ops.SHL or op is ops.SHR:
                amount = find(children[1])
                if amount not in const_classes:
                    shift_levels = shift_levels_of(
                        class_data[amount][ANALYSIS_NAME].iset
                    )
            elif op in CONST_HINT_POSITIONS:
                const_operand = any(find(c) in const_classes for c in children)
            return model_of(
                op,
                width(class_id),
                tuple(map(width, children)),
                shift_levels,
                const_operand,
            )

        return price

    def cost_from_parts(self, delay: float, area: float) -> DelayArea:
        """Rebuild the ordered cost object from folded parts."""
        return DelayArea(delay, area, self.key(delay, area))
