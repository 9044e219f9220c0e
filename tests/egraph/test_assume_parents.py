"""The ASSUME-parent index and the op-filtered member probes.

A union requeues the ``ASSUME`` parents of both classes for analysis even
when their data did not change; the core finds them through
``class_assume_parents`` instead of walking ``class_parents``.  These tests
keep their own scan of ``class_parents`` as the reference: after every
union the ``analysis_pending`` insertion order must be what the scan
predicts, and the index must equal the ASSUME-filtered parent order — on a
live graph, after a pickle round trip and on a ``_clean_copy``.

The member probes (:meth:`EGraph.members`) and the runner's lazy per-op
index must answer exactly what a filter over the façade views answers, on
saturated registry designs.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constr import CONSTR_OPS
from repro.designs import DESIGNS
from repro.egraph import EGraph
from repro.egraph.core import Analysis
from repro.egraph.runner import _LazyOpIndex
from repro.ir import ops
from repro.pipeline import Ingest, Pipeline, Saturate
from repro.rewrites import compose_rules
from repro.rewrites.assume import _DISTRIBUTES


class LowAnalysis(Analysis):
    """The smallest leaf index below a class: joins change data on one side
    of most unions, so both requeue branches (all parents / ASSUME parents
    only) are exercised."""

    name = "low"

    def make(self, egraph, enode):
        if enode.op is ops.VAR:
            return int(enode.attrs[0][1:])
        return min(egraph.class_data[c][self.name] for c in enode.children)

    def join(self, left, right):
        return min(left, right)


def _assume_scan(core, class_id: int) -> list[int]:
    """The reference: ASSUME entries of the class's parent set, in order."""
    assume_id = core.op_ids[ops.ASSUME]
    return [nid for nid in core.class_parents[class_id] if core.node_op[nid] == assume_id]


def _assert_index(core) -> None:
    for class_id, members in enumerate(core.class_nodes):
        indexed = core.class_assume_parents.get(class_id)
        if members is None:
            assert indexed is None, f"absorbed class {class_id} kept an index"
            continue
        assert list(indexed or ()) == _assume_scan(core, class_id)


def _union_checked(egraph: EGraph, a: int, b: int) -> None:
    """Union ``a`` and ``b``; check the requeue order against the scan."""
    core = egraph.core
    ra, rb = egraph.find(a), egraph.find(b)
    before = list(core.analysis_pending)
    parents = {ra: list(core.class_parents[ra]), rb: list(core.class_parents[rb])}
    low = {ra: core.class_data[ra]["low"], rb: core.class_data[rb]["low"]}
    egraph.union(a, b)
    expected = dict.fromkeys(before)
    if ra != rb:
        keep = egraph.find(a)
        gone = rb if keep == ra else ra
        joined = min(low[ra], low[rb])
        assume_id = core.op_ids[ops.ASSUME]
        for side in (keep, gone):
            changed = joined != low[side]
            for nid in parents[side]:
                if changed or core.node_op[nid] == assume_id:
                    expected[nid] = None
    assert list(core.analysis_pending) == list(expected)
    _assert_index(core)


def _drive(egraph: EGraph, ids: list[int], steps) -> EGraph:
    for kind, x, y, z in steps:
        a, b, c = (ids[i % len(ids)] for i in (x, y, z))
        find = egraph.find
        if kind == 0:
            ids.append(egraph.add_node(ops.NEG, (), (find(a),)))
        elif kind == 1:
            ids.append(egraph.add_node(ops.ADD, (), (find(a), find(b))))
        elif kind == 2:
            tail = (find(b),) if z % 2 else (find(b), find(c))
            ids.append(egraph.add_node(ops.ASSUME, (), (find(a),) + tail))
        elif kind == 3:
            _union_checked(egraph, a, b)
        else:
            egraph.rebuild()
            egraph.check_invariants()
        _assert_index(egraph.core)
    egraph.rebuild()
    egraph.check_invariants()
    return egraph


step = st.tuples(
    st.integers(0, 4), st.integers(0, 999), st.integers(0, 999), st.integers(0, 999)
)


@settings(max_examples=80, deadline=None)
@given(
    n_leaves=st.integers(2, 5),
    steps=st.lists(step, min_size=1, max_size=60),
    cut=st.integers(0, 60),
    revive=st.sampled_from(["live", "pickle", "clean_copy"]),
)
def test_union_requeues_the_indexed_assume_parents(n_leaves, steps, cut, revive):
    egraph = EGraph([LowAnalysis()])
    ids = [egraph.add_node(ops.VAR, (f"v{i}", 4)) for i in range(n_leaves)]
    _drive(egraph, ids, steps[:cut])
    if revive == "pickle":
        egraph = pickle.loads(pickle.dumps(egraph))
    elif revive == "clean_copy":
        egraph = egraph.core._clean_copy().owner
    _assert_index(egraph.core)
    _drive(egraph, ids, steps[cut:])


def test_check_invariants_rejects_a_wrong_index():
    egraph = EGraph([LowAnalysis()])
    x = egraph.add_node(ops.VAR, ("v0", 4))
    y = egraph.add_node(ops.VAR, ("v1", 4))
    egraph.add_node(ops.ASSUME, (), (x, y))
    egraph.add_node(ops.ASSUME, (), (x,))
    egraph.rebuild()
    egraph.check_invariants()
    core = egraph.core
    core.class_assume_parents[x] = dict.fromkeys(reversed(core.class_assume_parents[x]))
    with pytest.raises(AssertionError, match="ASSUME-parent index"):
        core.check_invariants()


def test_classes_without_assume_parents_allocate_no_index():
    egraph = EGraph()
    x = egraph.add_node(ops.VAR, ("x", 4))
    egraph.add_node(ops.NEG, (), (x,))
    assert egraph.core.class_assume_parents == {}


def test_members_of_an_operator_the_graph_never_interned():
    egraph = EGraph()
    x = egraph.add_node(ops.VAR, ("x", 4))
    assert ops.MUX not in egraph.core.op_ids
    assert egraph.members(x, ops.MUX) == []
    assert egraph.members(x, frozenset({ops.MUX, ops.VAR})) == list(egraph[x].nodes)


@pytest.fixture(scope="module", params=["lzc_example", "fp_sub"])
def saturated(request) -> EGraph:
    design = DESIGNS[request.param]
    ctx = Pipeline(
        [
            Ingest(source=design.verilog),
            Saturate(compose_rules(), iter_limit=3, node_limit=design.node_limit),
        ]
    ).run(input_ranges=design.input_ranges)
    return ctx.egraph


def test_members_match_a_filter_over_the_class_views(saturated):
    egraph = saturated
    op_sets = [CONSTR_OPS, _DISTRIBUTES, frozenset()]
    for eclass in egraph.classes():
        nodes = eclass.nodes
        for op in egraph.core.ops:
            assert egraph.members(eclass.id, op) == [n for n in nodes if n.op is op]
        for op_set in op_sets:
            assert egraph.members(eclass.id, op_set) == [
                n for n in nodes if n.op in op_set
            ]


def test_lazy_op_index_matches_nodes_by_op(saturated):
    egraph = saturated
    eager = egraph.nodes_by_op()
    lazy = _LazyOpIndex(egraph)
    for op in ops.OPS_BY_NAME.values():
        assert lazy.get(op, ()) == eager.get(op, ())
    # Materialized once: a second read returns the same list.
    for op in eager:
        assert lazy.get(op) is lazy.get(op)
