"""The e-graph API: a thin façade over the flat struct-of-arrays core.

This keeps the `egg` design (Willsey et al., POPL 2021) and the public
surface the rest of the repo programs against:

* :meth:`EGraph.add_enode` interns an e-node through the hashcons;
* :meth:`EGraph.union` merges two e-classes *without* immediately restoring
  congruence;
* :meth:`EGraph.rebuild` restores the congruence invariant and re-runs the
  e-class analyses to their (sound) fixpoint.

The representation, however, now lives in :class:`repro.egraph.core.CoreGraph`:
e-nodes and classes are rows in parallel int arrays, not Python objects.
:class:`EClass` is a zero-copy *view* — its ``nodes`` and ``parents``
properties materialize :class:`~repro.egraph.enode.ENode` values from the
arrays on demand — and every ``EGraph`` method is a one-hop delegation.  Hot
consumers (the runner's compiled e-matching, the extractor, sharding) reach
through :attr:`EGraph.core` and work on the arrays directly; everything else
keeps the object-shaped API unchanged.  The flat core is the only engine:
the previous per-object one lives on in the test-suite as a differential
oracle.

E-class analyses implement the egg ``Analysis`` interface (``make`` /
``join`` / ``modify``).  ``join`` is called both when classes merge and when
a new e-node enters an existing class; for the interval analysis of the paper
the join is set *intersection* (all members of a class evaluate identically,
so every member's approximation is valid for the whole class — see the
authors' companion paper arXiv:2205.14989).
"""

from __future__ import annotations

from typing import AbstractSet, Any, Iterable, Iterator

from repro.egraph.core import Analysis, CoreGraph, GraphSnapshot
from repro.egraph.enode import ENode
from repro.ir import ops
from repro.ir.expr import Expr
from repro.ir.ops import Op

__all__ = ["Analysis", "EClass", "EGraph", "merge_callback"]


class EClass:
    """Read-through view of one equivalence class in the flat core.

    Mirrors the old object ``EClass`` surface (``id`` / ``nodes`` /
    ``parents`` / ``data`` / ``rev``) but owns no storage: every property
    reads the core arrays at access time, so a held view stays current as
    the class grows — while absorbed classes leave the view dangling, exactly
    as a held object ``EClass`` went stale before.
    """

    __slots__ = ("_core", "id")

    def __init__(self, core: CoreGraph, class_id: int) -> None:
        self._core = core
        self.id = class_id

    @property
    def nodes(self) -> tuple[ENode, ...]:
        """The member e-nodes, as (cached) value views over the arrays."""
        core = self._core
        view = core.node_enode
        return tuple(view(nid) for nid in core.class_nodes[self.id])

    @property
    def parents(self) -> dict[ENode, int]:
        """Parent set, keyed by the parent e-node (value: owning class id).

        Materialized from the core's nid-level parent index; dead entries
        (congruence duplicates killed since insertion) are filtered out.
        """
        core = self._core
        alive = core.node_alive
        node_class = core.node_class
        view = core.node_enode
        return {
            view(nid): node_class[nid]
            for nid in core.class_parents[self.id]
            if alive[nid]
        }

    @property
    def data(self) -> dict[str, Any]:
        """Analysis data slots (the live dict — writes are visible)."""
        return self._core.class_data[self.id]

    @property
    def rev(self) -> int:
        """Membership revision: bumped whenever the member set changes.
        Analyses use it to key per-class membership caches — see
        :func:`repro.analysis.constr.constr_candidates`."""
        return self._core.class_rev[self.id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EClass(id={self.id}, nodes={len(self._core.class_nodes[self.id])})"


class EGraph:
    """A hashconsed, analysis-carrying e-graph (façade over the flat core)."""

    __slots__ = (
        "core", "_class_views", "find", "uf_parent", "class_data", "__weakref__"
    )

    def __init__(self, analyses: Iterable[Analysis] = ()) -> None:
        #: The flat storage + congruence engine.  Hot paths consume this
        #: directly; the façade methods below are thin delegations.
        self.core = CoreGraph(analyses, owner=self)
        self._class_views: dict[int, EClass] = {}
        self._bind_core()

    def _bind_core(self) -> None:
        """Expose the core's own union-find and data column without a hop.

        ``find(class_id)`` is the union-find's bound method: the canonical id
        of the class containing ``class_id``.  ``uf_parent`` is its parent
        column: ``uf_parent[c] == c`` exactly when ``c`` is canonical, so a
        hot caller tests that before paying for a ``find`` call (most ids
        it holds are canonical).  ``class_data[class_id]`` is
        the analysis-slot dict of a class id that is canonical *now* (an
        absorbed id holds ``None``) — what analysis hooks, rule conditions
        and cost models read in their inner loops, e.g. ``make`` over an
        e-node's children, which the core always hands over canonical.
        Both objects live as long as the core, so binding them once is safe.
        """
        self.find = self.core.uf.find
        self.uf_parent = self.core.uf._parent
        self.class_data = self.core.class_data

    @property
    def analyses(self) -> tuple[Analysis, ...]:
        return self.core.analyses

    @property
    def version(self) -> int:
        """Incremented on every successful union; rewrite runners use this
        to detect saturation."""
        return self.core.version

    # ------------------------------------------------------------------ sizes
    @property
    def class_count(self) -> int:
        """Number of canonical e-classes."""
        return self.core.n_classes

    @property
    def node_count(self) -> int:
        """Total number of e-nodes across all classes (O(1))."""
        return self.core.n_nodes

    @property
    def is_clean(self) -> bool:
        """True when no congruence or analysis work is pending (holds
        directly after :meth:`rebuild`)."""
        return self.core.is_clean

    def classes(self) -> Iterator[EClass]:
        """Iterate canonical e-classes (snapshot; safe to mutate during)."""
        getitem = self.__getitem__
        return iter([getitem(cid) for cid in self.core.class_ids()])

    def __getitem__(self, class_id: int) -> EClass:
        root = self.find(class_id)
        view = self._class_views.get(root)
        if view is None:
            if self.core.class_nodes[root] is None:
                raise KeyError(class_id)
            view = EClass(self.core, root)
            self._class_views[root] = view
        return view

    def data(self, class_id: int, analysis: str) -> Any:
        """Analysis data of the class, by analysis name."""
        return self.class_data[self.find(class_id)][analysis]

    def set_data(self, class_id: int, analysis: str, value: Any) -> None:
        """Overwrite analysis data (used to seed input assumptions).

        ``modify`` re-runs on the class itself — seeding a range that proves
        the class constant must materialize the CONST node — and the parents
        are requeued so the new data propagates upward on the next rebuild.
        """
        self.core.set_data(class_id, analysis, value)

    # ------------------------------------------------------------------- add
    def add_enode(self, enode: ENode) -> int:
        """Intern an e-node, returning its (possibly existing) class id."""
        return self.core.add(enode.op, enode.attrs, enode.children)

    def add_node(self, op: Op, attrs: tuple = (), children: Iterable[int] = ()) -> int:
        """Intern an e-node given as raw parts (no :class:`ENode` built)."""
        return self.core.add(op, attrs, tuple(children))

    def add_expr(self, expr: Expr) -> int:
        """Insert a whole expression tree; returns the root class id."""
        add = self.core.add
        memo: dict[Expr, int] = {}
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, ready = stack.pop()
            if node in memo:
                continue
            if not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in node.children if c not in memo)
                continue
            kids = tuple(memo[c] for c in node.children)
            memo[node] = add(node.op, node.attrs, kids)
        return memo[expr]

    def add_const(self, value: int) -> int:
        """Intern a CONST leaf."""
        return self.core.add(ops.CONST, (int(value),), ())

    # ----------------------------------------------------------------- lookup
    def lookup(self, enode: ENode) -> int | None:
        """Class id of an e-node if it is interned, else None."""
        return self.core.lookup(enode.op, enode.attrs, enode.children)

    def class_const(self, class_id: int) -> int | None:
        """The CONST value of a class if it contains a literal node."""
        return self.core.class_const(class_id)

    def members(self, class_id: int, op: Op | AbstractSet[Op]) -> list[ENode]:
        """The class's member e-nodes with operator ``op`` (or with any
        operator in the set ``op``), in member order.

        Members are filtered on the core's op column before any view is
        built, so probing a wide class for one operator costs one int
        compare per member instead of one :class:`ENode` each — and nothing
        at all when the class's op mask says no member has the operator.
        ``ASSUME`` members come straight from the core's per-class
        ASSUME-member index, with no walk at all.
        """
        core = self.core
        op_ids = core.op_ids
        root = class_id if self.uf_parent[class_id] == class_id else self.find(class_id)
        if op is ops.ASSUME:
            return list(map(core.node_enode, core.class_assume_members.get(root, ())))
        mask = core.class_ops[root]
        if isinstance(op, Op):
            op_id = op_ids.get(op)
            if op_id is None or not mask >> op_id & 1:
                return []
            node_op = core.node_op
            view = core.node_enode
            return [
                view(nid) for nid in core.class_nodes[root] if node_op[nid] == op_id
            ]
        if not any(mask >> op_ids[o] & 1 for o in op if o in op_ids):
            return []
        node_op = core.node_op
        view = core.node_enode
        op_of = core.ops
        return [
            view(nid) for nid in core.class_nodes[root] if op_of[node_op[nid]] in op
        ]

    def nodes_by_op(self) -> dict[Op, list[tuple[int, ENode]]]:
        """Index op -> [(class id, e-node)], from the core's per-op index.

        Class ids are canonical at snapshot time (the core keeps
        ``node_class`` canonical for alive nodes); searchers that cache the
        index across unions must still resolve through :meth:`find`.
        """
        core = self.core
        node_class = core.node_class
        view = core.node_enode
        return {
            core.ops[op_id]: [(node_class[nid], view(nid)) for nid in sub]
            for op_id, sub in enumerate(core.op_nodes)
            if sub
        }

    # ------------------------------------------------------------------ union
    def union(self, a: int, b: int) -> int:
        """Assert that classes ``a`` and ``b`` are equal; returns the root."""
        return self.core.union(a, b)

    # ---------------------------------------------------------------- rebuild
    def rebuild(self, analysis_budget: int = 200_000) -> int:
        """Restore congruence and re-run analyses to a (sound) fixpoint.

        Returns the number of unions performed during the repair.  The
        ``analysis_budget`` caps upward-propagation work; stopping early is
        sound because interval data only ever *tightens* through joins.
        """
        return self.core.rebuild(analysis_budget)

    # --------------------------------------------------------------- snapshot
    def snapshot(self, data: bool = True) -> GraphSnapshot:
        """Read-only view for exporters (see :class:`GraphSnapshot`)."""
        return self.core.snapshot(data)

    # ----------------------------------------------------------------- checks
    def check_invariants(self) -> None:
        """Assert engine invariants, array-level and view-level.

        First the core checks its flat representation (hashcons, congruence,
        parent/op indices, counters).  Then the object-shaped façade views
        are cross-checked against the arrays: every view node must round-trip
        through ``lookup`` to its class, parent views must resolve and really
        reference their child class, and the counters must agree with a full
        sweep over the views — the same contract the object engine asserted.
        """
        self.core.check_invariants()
        find = self.core.uf.find

        seen: dict[ENode, int] = {}
        swept_nodes = 0
        swept_classes = 0
        for eclass in self.classes():
            swept_classes += 1
            assert find(eclass.id) == eclass.id, "non-canonical class retained"
            for node in eclass.nodes:
                swept_nodes += 1
                assert node.canonical(find) == node, (
                    f"façade exposes non-canonical node {node}"
                )
                owner = self.lookup(node)
                assert owner == eclass.id, (
                    f"lookup maps {node} to {owner}, expected {eclass.id}"
                )
                if node in seen:
                    assert seen[node] == eclass.id, f"congruence violated at {node}"
                seen[node] = eclass.id
            for penode, pid in eclass.parents.items():
                owner = self.lookup(penode)
                assert owner is not None, f"parent {penode} missing from hashcons"
                assert owner == find(pid), (
                    f"parent entry {penode} claims owner {find(pid)}, "
                    f"hashcons says {owner}"
                )
                assert eclass.id in {find(c) for c in penode.children}, (
                    f"parent {penode} recorded on class {eclass.id} but does "
                    f"not reference it"
                )
        assert self.node_count == swept_nodes, (
            f"node_count counter {self.node_count} != view sweep {swept_nodes}"
        )
        assert self.class_count == swept_classes, (
            f"class_count counter {self.class_count} != view sweep {swept_classes}"
        )

        # The per-op index, seen through the façade, must agree with a full
        # rescan of the class views.
        expected = {
            node: eclass.id for eclass in self.classes() for node in eclass.nodes
        }
        indexed: dict[ENode, int] = {}
        for op, pairs in self.nodes_by_op().items():
            for class_id, node in pairs:
                assert node.op is op, f"op-index files {node} under {op}"
                indexed[node] = find(class_id)
        assert indexed == expected, "op-index disagrees with class sweep"

    # ------------------------------------------------------------ extraction
    def any_expr(self, class_id: int) -> Expr:
        """Some expression from the class (smallest node count, greedy)."""
        from repro.egraph.extract import AstSizeCost, Extractor

        return Extractor(self, AstSizeCost()).expr_of(class_id)

    def dump(self, limit: int = 50) -> str:
        """Human-readable snapshot for debugging."""
        lines = []
        for cls in sorted(self.snapshot(data=False).classes, key=lambda c: c.id)[
            :limit
        ]:
            nodes = ", ".join(repr(n) for n in sorted(cls.nodes, key=repr))
            lines.append(f"c{cls.id}: {nodes}")
        return "\n".join(lines)

    # ---------------------------------------------------------------- pickling
    def __reduce__(self):
        """Delegate to the core's compact array pickling."""
        return (_egraph_from_core, (self.core,))


def _egraph_from_core(core: CoreGraph) -> EGraph:
    """Unpickling hook: re-attach a façade to a revived core."""
    egraph = EGraph.__new__(EGraph)
    egraph.core = core
    egraph._class_views = {}
    egraph._bind_core()
    core.owner = egraph
    return egraph


def merge_callback(egraph: EGraph, pairs: Iterable[tuple[int, int]]) -> int:
    """Union every pair then rebuild; returns union count (helper)."""
    count = 0
    for a, b in pairs:
        egraph.union(a, b)
        count += 1
    egraph.rebuild()
    return count
