"""Section IV-D model cost of *fixed* expression trees.

The extraction objective prices e-nodes inside the e-graph
(:mod:`repro.synth.cost`); this module prices a plain :class:`~repro.ir.expr.Expr`
tree the same way, which is what pipeline stages and reports need when they
compare a behavioural tree against an extracted one.

This lives in :mod:`repro.synth` (not :mod:`repro.opt`, its historical home)
so that :mod:`repro.pipeline.stages` can import it at module level:
``repro.opt`` imports the optimizer, which imports the pipeline package —
a cost helper there forces every consumer through that package-import cycle
(the old ``Extract.run`` hid it behind a lazy import).  ``repro.synth`` and
``repro.analysis`` sit below both packages, so the import DAG stays acyclic;
``tests/test_import_cycles.py`` pins this with clean-interpreter imports.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis import expr_ranges, expr_totals
from repro.intervals import IntervalSet
from repro.ir import ops
from repro.ir.expr import Expr
from repro.synth.cost import (
    CONST_HINT_POSITIONS,
    DelayArea,
    lexicographic_key,
    operator_model,
)


def model_cost(
    expr: Expr, input_ranges: Mapping[str, IntervalSet] | None = None
) -> DelayArea:
    """Section IV-D model cost of a *fixed* expression tree.

    Computed directly over the tree: the tree range/totality analyses supply
    the widths and the constant-folding knowledge the e-class analysis would
    derive, and each operator is priced through the same
    :func:`~repro.synth.cost.operator_model` the extraction objective uses.
    (Earlier revisions loaded the tree into a throwaway e-graph per call —
    the dominant cost of reporting on large batches; the test suite keeps
    that path as its reference and asserts parity.)

    Folding mirrors the e-class analysis: a total subterm whose range is a
    single value is a constant (zero cost), an ``ASSUME`` is a wire over its
    guarded child and folds to a constant when its *refined* range is a
    single value and the guarded child is total.
    """
    ranges = expr_ranges(expr, input_ranges)
    totals = expr_totals(expr, ranges)
    memo: dict[Expr, tuple[float, float]] = {}

    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if node in memo:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if c not in memo)
            continue
        if totals[node] and ranges[node].as_point() is not None:
            # Folds to a literal constant (free).
            memo[node] = (0.0, 0.0)
        elif node.op is ops.ASSUME:
            guarded = node.children[0]
            if ranges[node].as_point() is not None and totals[guarded]:
                # Partial fold: ASSUME(x, C) == ASSUME(k, C) when the
                # refined range is {k} — costs as the constant.
                memo[node] = (0.0, 0.0)
            else:
                memo[node] = memo[guarded]
        else:
            kids = node.children
            # Mirrors the e-graph path: a child that folds (total +
            # singleton range) is a literal constant there.
            consts = [False] * len(kids)
            for position in CONST_HINT_POSITIONS.get(node.op, ()):
                child = kids[position]
                consts[position] = (
                    totals[child] and ranges[child].as_point() is not None
                )
            own_delay, own_area = operator_model(
                node.op, ranges[node], [ranges[c] for c in kids], consts
            )
            delay = own_delay + max((memo[c][0] for c in kids), default=0.0)
            area = own_area + sum(memo[c][1] for c in kids)
            memo[node] = (delay, area)

    delay, area = memo[expr]
    return DelayArea(delay, area, lexicographic_key(delay, area))


def dag_cost(
    expr: Expr, input_ranges: Mapping[str, IntervalSet] | None = None
) -> DelayArea:
    """Section IV-D model cost of the expression priced as a *DAG*.

    :func:`model_cost` prices the tree: a subterm shared by two parents
    contributes its area once per parent — the right reading when each
    parent instantiates its own hardware, and the objective the greedy
    extractor optimizes per root.  This function prices the shared
    implementation instead: every distinct hardware subterm contributes its
    own area exactly once (delay is identical — a shared node has one
    arrival time either way).  This is the objective of the ILP extraction
    in :mod:`repro.solve` and the metric its never-worse-than-greedy
    guarantee is stated in.

    Folding matches :func:`model_cost`: a total singleton-range subterm is
    a free constant (and its children are not descended into — they fold
    away with it), an ``ASSUME`` is a wire over its guarded child whose
    constraint children never contribute hardware.
    """
    ranges = expr_ranges(expr, input_ranges)
    totals = expr_totals(expr, ranges)
    #: node -> arrival delay of its output (hardware-reachable nodes only).
    delay_memo: dict[Expr, float] = {}
    #: nodes whose (node, True) completion entry is already on the stack —
    #: without this, a duplicated child (``x + x``) or a diamond would push
    #: a second completion entry and its area would accumulate twice.
    expanded: set[Expr] = set()
    area_total = 0.0

    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if not ready and (node in delay_memo or node in expanded):
            continue
        if totals[node] and ranges[node].as_point() is not None:
            delay_memo[node] = 0.0  # folds to a literal constant (free)
            continue
        if node.op is ops.ASSUME:
            guarded = node.children[0]
            if ranges[node].as_point() is not None and totals[guarded]:
                delay_memo[node] = 0.0  # partial fold (see model_cost)
            elif not ready:
                expanded.add(node)
                stack.append((node, True))
                # A wire: only the guarded child is hardware; constraint
                # children describe the assumption, they are never built.
                stack.append((guarded, False))
            else:
                delay_memo[node] = delay_memo[guarded]
            continue
        if not ready:
            expanded.add(node)
            stack.append((node, True))
            stack.extend(
                (c, False) for c in node.children if c not in delay_memo
            )
            continue
        kids = node.children
        consts = [False] * len(kids)
        for position in CONST_HINT_POSITIONS.get(node.op, ()):
            child = kids[position]
            consts[position] = (
                totals[child] and ranges[child].as_point() is not None
            )
        own_delay, own_area = operator_model(
            node.op, ranges[node], [ranges[c] for c in kids], consts
        )
        delay_memo[node] = own_delay + max(
            (delay_memo[c] for c in kids), default=0.0
        )
        area_total += own_area  # once per distinct node: the DAG reading

    delay = delay_memo[expr]
    return DelayArea(delay, area_total, lexicographic_key(delay, area_total))

