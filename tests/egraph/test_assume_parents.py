"""The ASSUME-parent index, the ASSUME-member index, the per-class op masks
and the op-filtered member probes.

A union requeues the ``ASSUME`` parents of both classes for analysis even
when their data did not change; the core finds them through
``class_assume_parents`` instead of walking ``class_parents``.  These tests
keep their own scan of ``class_parents`` as the reference: after every
union the ``analysis_pending`` insertion order must be what the scan
predicts, and the index must equal the ASSUME-filtered parent order — on a
live graph, after a pickle round trip and on a ``_clean_copy``.  On the
same graphs each class's op mask must cover the ops of its members (an
absorbed class has none), and a member probe must answer what a scan of
the member set answers, including when the mask lets it skip the scan.

The member probes (:meth:`EGraph.members`) must answer exactly what a
filter over the façade views answers, on saturated registry designs.
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
from repro.ir import ops
from repro.pipeline import Ingest, Pipeline, Saturate
from repro.rewrites import compose_rules


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
    egraph = core.owner
    assume_id = core.op_ids[ops.ASSUME]
    for class_id, members in enumerate(core.class_nodes):
        indexed = core.class_assume_parents.get(class_id)
        indexed_members = core.class_assume_members.get(class_id)
        mask = core.class_ops[class_id]
        if members is None:
            assert indexed is None, f"absorbed class {class_id} kept an index"
            assert indexed_members is None, (
                f"absorbed class {class_id} kept an ASSUME-member index"
            )
            assert mask == 0, f"absorbed class {class_id} kept an op mask"
            continue
        assert list(indexed or ()) == _assume_scan(core, class_id)
        # The ASSUME-member index: the member set's ASSUMEs, in order, and
        # no entry for a class that has none.
        member_scan = [nid for nid in members if core.node_op[nid] == assume_id]
        assert list(indexed_members or ()) == member_scan
        assert indexed_members is None or indexed_members
        assert egraph.members(class_id, ops.ASSUME) == list(
            map(core.node_enode, member_scan)
        )
        for nid in members:
            assert mask >> core.node_op[nid] & 1, (
                f"class {class_id}: mask {mask:b} misses member {nid}"
            )
        for op_id, op in enumerate(core.ops):
            scan = [nid for nid in members if core.node_op[nid] == op_id]
            assert egraph.members(class_id, op) == list(
                map(core.node_enode, scan)
            )


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


def test_check_invariants_rejects_a_wrong_member_index():
    egraph = EGraph([LowAnalysis()])
    x = egraph.add_node(ops.VAR, ("v0", 4))
    y = egraph.add_node(ops.VAR, ("v1", 4))
    first = egraph.add_node(ops.ASSUME, (), (x, y))
    second = egraph.add_node(ops.ASSUME, (), (x,))
    egraph.union(first, second)
    egraph.rebuild()
    egraph.check_invariants()
    core = egraph.core
    root = egraph.find(first)
    assert len(core.class_assume_members[root]) == 2
    core.class_assume_members[root] = dict.fromkeys(
        reversed(core.class_assume_members[root])
    )
    with pytest.raises(AssertionError, match="ASSUME-member index"):
        core.check_invariants()


def test_killed_assume_members_leave_the_member_index():
    """Congruence kills an ASSUME that collides with one in its own class;
    the class's member index drops it, and an emptied entry goes away."""
    egraph = EGraph([LowAnalysis()])
    x = egraph.add_node(ops.VAR, ("v0", 4))
    b = egraph.add_node(ops.VAR, ("v1", 4))
    c = egraph.add_node(ops.VAR, ("v2", 4))
    first = egraph.add_node(ops.ASSUME, (), (x, b))
    second = egraph.add_node(ops.ASSUME, (), (x, c))
    egraph.union(first, second)
    egraph.union(b, c)
    egraph.rebuild()
    egraph.check_invariants()
    core = egraph.core
    root = egraph.find(first)
    assert len(egraph.members(root, ops.ASSUME)) == 1
    assert list(core.class_assume_members[root]) == [
        nid for nid in core.class_nodes[root] if core.node_alive[nid]
        and core.node_op[nid] == core.op_ids[ops.ASSUME]
    ]
    _assert_index(core)


def test_check_invariants_rejects_a_mask_missing_a_member_op():
    egraph = EGraph()
    x = egraph.add_node(ops.VAR, ("x", 4))
    y = egraph.add_node(ops.NEG, (), (x,))
    egraph.union(x, y)
    egraph.rebuild()
    egraph.check_invariants()
    core = egraph.core
    root = egraph.find(x)
    core.class_ops[root] &= ~(1 << core.op_ids[ops.NEG])
    with pytest.raises(AssertionError, match="op mask misses member"):
        core.check_invariants()
    core.class_ops[root] |= 1 << core.op_ids[ops.NEG]
    gone = y if root == x else x
    core.class_ops[gone] = 1
    with pytest.raises(AssertionError, match="keeps an op mask"):
        core.check_invariants()


def test_class_const_agrees_with_a_member_scan(saturated):
    egraph = saturated
    for eclass in egraph.classes():
        literals = [n.attrs[0] for n in eclass.nodes if n.op is ops.CONST]
        assert egraph.class_const(eclass.id) == (literals[0] if literals else None)


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
    op_sets = [CONSTR_OPS, frozenset(ops.STRICT), frozenset()]
    for eclass in egraph.classes():
        nodes = eclass.nodes
        for op in egraph.core.ops:
            assert egraph.members(eclass.id, op) == [n for n in nodes if n.op is op]
        for op_set in op_sets:
            assert egraph.members(eclass.id, op_set) == [
                n for n in nodes if n.op in op_set
            ]
