"""The original per-object e-graph engine, kept as a differential oracle.

This is the hashcons + union-find + deferred-rebuild implementation the
production :class:`repro.egraph.egraph.EGraph` replaced with a façade over
the flat struct-of-arrays :class:`repro.egraph.core.CoreGraph`.  It
survives here, outside the package, so tests can drive the same workloads
through both representations and diff the results
(``tests/egraph/test_core_parity.py``).

Every public method keeps the object engine protocol (``add_enode`` /
``union`` / ``rebuild`` / ``nodes_by_op`` / ``classes`` / …), which is what
the interpreted :func:`~oracles.ematch.ematch` and
:func:`~oracles.ematch.instantiate` and the reference loops in
:mod:`oracles.reference` need.  The production runner and extractor serve
the flat core only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.egraph.core import Analysis
from repro.egraph.enode import ENode
from repro.egraph.unionfind import UnionFind
from repro.ir import ops
from repro.ir.expr import Expr
from repro.ir.ops import Op

__all__ = ["Analysis", "LegacyEClass", "LegacyEGraph"]


@dataclass
class LegacyEClass:
    """One equivalence class of e-nodes."""

    id: int
    nodes: set[ENode] = field(default_factory=set)
    #: Parent set, keyed by the parent e-node (value: id of the class owning
    #: it).  A dict instead of a list of tuples: unions concatenate parent
    #: collections, and list-of-tuples `extend`s accumulated heavy duplication
    #: on the hot path — the key dedups structurally, and merge becomes one
    #: ``update``.  Entries may go stale (non-canonical keys / absorbed owner
    #: ids) between a union and the next rebuild; readers resolve via ``find``.
    parents: dict[ENode, int] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    #: Membership revision: bumped whenever ``nodes`` changes (a merge brings
    #: new members in, or a rebuild re-canonicalizes the set).  Analyses use
    #: it to key per-class membership caches — see
    #: :func:`repro.analysis.constr.constr_candidates`.
    rev: int = 0


class _ClassData:
    """``class_data`` of the legacy engine: class id -> analysis-slot dict."""

    __slots__ = ("_egraph",)

    def __init__(self, egraph: "LegacyEGraph") -> None:
        self._egraph = egraph

    def __getitem__(self, class_id: int) -> dict[str, Any]:
        return self._egraph[class_id].data


class LegacyEGraph:
    """A hashconsed, analysis-carrying e-graph (per-object representation)."""

    def __init__(self, analyses: Iterable[Analysis] = ()) -> None:
        self._uf = UnionFind()
        self._classes: dict[int, LegacyEClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._pending: list[tuple[ENode, int]] = []
        self._analysis_pending: list[tuple[ENode, int]] = []
        #: Incremental size counter, kept in sync by ``add_enode``/``union``/
        #: ``_recanonicalize_classes`` so the runner's per-match node-limit
        #: check is O(1) instead of an O(classes) sweep.
        self._node_count = 0
        #: Persistent per-op index: op -> {e-node -> owning class id}.  Kept
        #: current on add, repaired for dirty classes during ``rebuild``.
        #: Entries may go stale (non-canonical keys / absorbed class ids)
        #: between a union and the next rebuild; readers resolve through
        #: ``find`` and dedup canonicalized entries.
        self._op_index: dict[Op, dict[ENode, int]] = {}
        #: Classes whose node sets may hold non-canonical nodes; only these
        #: are re-canonicalized on rebuild.
        self._dirty_classes: set[int] = set()
        self.analyses: tuple[Analysis, ...] = tuple(analyses)
        #: Incremented on every successful union; rewrite runners use this to
        #: detect saturation.
        self.version = 0
        #: ``class_data[class_id]``: the analysis-slot dict of the class
        #: (any id; resolved through ``find``).
        self.class_data = _ClassData(self)

    # ------------------------------------------------------------------ sizes
    def find(self, class_id: int) -> int:
        """Canonical id of the class containing ``class_id``."""
        return self._uf.find(class_id)

    @property
    def class_count(self) -> int:
        """Number of canonical e-classes."""
        return len(self._classes)

    @property
    def node_count(self) -> int:
        """Total number of e-nodes across all classes (O(1))."""
        return self._node_count

    @property
    def is_clean(self) -> bool:
        """True when no unions are pending — ids and index entries are
        canonical (holds directly after :meth:`rebuild`)."""
        return not self._pending and not self._dirty_classes

    def classes(self) -> Iterator[LegacyEClass]:
        """Iterate canonical e-classes (snapshot; safe to mutate during)."""
        return iter(list(self._classes.values()))

    def __getitem__(self, class_id: int) -> LegacyEClass:
        return self._classes[self._uf.find(class_id)]

    def data(self, class_id: int, analysis: str) -> Any:
        """Analysis data of the class, by analysis name."""
        return self._classes[self._uf.find(class_id)].data[analysis]

    def set_data(self, class_id: int, analysis: str, value: Any) -> None:
        """Overwrite analysis data (used to seed input assumptions).

        ``modify`` re-runs on the class itself — seeding a range that proves
        the class constant must materialize the CONST node — and the parents
        are requeued so the new data propagates upward on the next rebuild.
        """
        root = self.find(class_id)
        cls = self._classes[root]
        cls.data[analysis] = value
        self._analysis_pending.extend(cls.parents.items())
        for a in self.analyses:
            if a.name == analysis:
                a.modify(self, root)

    # ------------------------------------------------------------------- add
    def add_enode(self, enode: ENode) -> int:
        """Intern an e-node, returning its (possibly existing) class id."""
        enode = enode.canonical(self._uf.find)
        existing = self._hashcons.get(enode)
        if existing is not None:
            return self._uf.find(existing)
        class_id = self._uf.make_set()
        eclass = LegacyEClass(id=class_id, nodes={enode})
        self._classes[class_id] = eclass
        self._hashcons[enode] = class_id
        self._node_count += 1
        self._op_index.setdefault(enode.op, {})[enode] = class_id
        for child in set(enode.children):
            self._classes[self._uf.find(child)].parents[enode] = class_id
        for analysis in self.analyses:
            eclass.data[analysis.name] = analysis.make(self, enode)
        for analysis in self.analyses:
            analysis.modify(self, class_id)
        return self._uf.find(class_id)

    def add_node(self, op: Op, attrs: tuple = (), children: Iterable[int] = ()) -> int:
        """Convenience wrapper building the :class:`ENode` in place."""
        return self.add_enode(ENode(op, attrs, tuple(children)))

    def add_expr(self, expr: Expr) -> int:
        """Insert a whole expression tree; returns the root class id."""
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
            memo[node] = self.add_enode(ENode(node.op, node.attrs, kids))
        return memo[expr]

    def add_const(self, value: int) -> int:
        """Intern a CONST leaf."""
        return self.add_node(ops.CONST, (int(value),))

    # ----------------------------------------------------------------- lookup
    def lookup(self, enode: ENode) -> int | None:
        """Class id of an e-node if it is interned, else None."""
        found = self._hashcons.get(enode.canonical(self._uf.find))
        if found is None:
            return None
        return self._uf.find(found)

    def class_const(self, class_id: int) -> int | None:
        """The CONST value of a class if it contains a literal node."""
        for node in self._classes[self.find(class_id)].nodes:
            if node.op is ops.CONST:
                return node.attrs[0]
        return None

    def nodes_by_op(self) -> dict[Op, list[tuple[int, ENode]]]:
        """Index op -> [(class id, e-node)], from the persistent op-index.

        This is a cheap per-op snapshot of :attr:`_op_index` rather than a
        full rescan of every class's node set.  Directly after ``rebuild``
        all entries are canonical; between rebuilds class ids may be stale
        (resolve through :meth:`find`, as :func:`~oracles.ematch.ematch`
        does).
        """
        return {
            op: [(cid, node) for node, cid in sub.items()]
            for op, sub in self._op_index.items()
            if sub
        }

    # ------------------------------------------------------------------ union
    def union(self, a: int, b: int) -> int:
        """Assert that classes ``a`` and ``b`` are equal; returns the root."""
        ra, rb = self._uf.find(a), self._uf.find(b)
        if ra == rb:
            return ra
        self.version += 1
        root, absorbed = self._uf.union(ra, rb)
        keep = self._classes[root]
        gone = self._classes.pop(absorbed)

        # Congruence repair is deferred: every parent of the absorbed class
        # may now be congruent to a parent of the surviving class.
        self._pending.extend(gone.parents.items())

        keep_changed = gone_changed = False
        for analysis in self.analyses:
            old_keep = keep.data[analysis.name]
            old_gone = gone.data[analysis.name]
            joined = analysis.join(old_keep, old_gone)
            keep.data[analysis.name] = joined
            keep_changed = keep_changed or joined != old_keep
            gone_changed = gone_changed or joined != old_gone
        # A side's parents are requeued when the joined data differs from
        # what that side's parents last saw.  ASSUME parents are requeued
        # *unconditionally*: even with unchanged data the merged class has
        # new members, and the ASSUME transfer function (eq. (4)) inspects
        # constraint-class membership — a freshly merged `a-b > 0` e-node
        # must refine its ASSUME parents (Section IV-C's condition-rewriting
        # flow).
        pend = self._analysis_pending
        for changed, parents in ((keep_changed, keep.parents), (gone_changed, gone.parents)):
            if changed:
                pend.extend(parents.items())
            else:
                pend.extend(p for p in parents.items() if p[0].op is ops.ASSUME)

        # Track staleness for the incremental rebuild: the merged class and
        # every class owning a node that references the absorbed id need
        # their node sets (and op-index entries) re-canonicalized.
        self._dirty_classes.add(root)
        self._dirty_classes.update(gone.parents.values())

        before = len(keep.nodes)
        keep.nodes |= gone.nodes
        keep.rev += 1
        self._node_count += len(keep.nodes) - before - len(gone.nodes)
        keep.parents.update(gone.parents)
        for analysis in self.analyses:
            analysis.modify(self, root)
        return root

    # ---------------------------------------------------------------- rebuild
    def rebuild(self, analysis_budget: int = 200_000) -> int:
        """Restore congruence and re-run analyses to a (sound) fixpoint.

        Returns the number of unions performed during the repair.  The
        ``analysis_budget`` caps upward-propagation work; stopping early is
        sound because interval data only ever *tightens* through joins.
        """
        unions = 0
        while self._pending or self._analysis_pending:
            while self._pending:
                # Parents are requeued unconditionally on every union, so the
                # worklists accumulate heavy duplication — dedup at drain
                # time (order-preserving) before paying for repair work.
                todo, self._pending = list(dict.fromkeys(self._pending)), []
                for enode, class_id in todo:
                    self._hashcons.pop(enode, None)
                    canon = enode.canonical(self._uf.find)
                    existing = self._hashcons.get(canon)
                    root = self._uf.find(class_id)
                    if existing is not None and self._uf.find(existing) != root:
                        self.union(existing, root)
                        unions += 1
                    self._hashcons[canon] = self._uf.find(class_id)

            budget = analysis_budget
            self._analysis_pending = list(dict.fromkeys(self._analysis_pending))
            while self._analysis_pending and budget:
                budget -= 1
                enode, class_id = self._analysis_pending.pop()
                root = self._uf.find(class_id)
                eclass = self._classes.get(root)
                if eclass is None:
                    continue
                for analysis in self.analyses:
                    old = eclass.data[analysis.name]
                    new = analysis.join(old, analysis.make(self, enode))
                    if new != old:
                        eclass.data[analysis.name] = new
                        self._analysis_pending.extend(eclass.parents.items())
                        analysis.modify(self, root)
            if not budget:
                self._analysis_pending.clear()

        self._recanonicalize_classes()
        return unions

    def _recanonicalize_classes(self) -> None:
        """Re-canonicalize node sets, parent lists and op-index entries.

        Only classes marked dirty by ``union`` are touched: a class's node
        set can only go stale when one of its children's classes is absorbed
        (it is then a parent of the absorbed class) or when it absorbs
        another class itself — both paths mark it dirty.
        """
        if not self._dirty_classes:
            return
        find = self._uf.find
        dirty_roots = {find(cid) for cid in self._dirty_classes}
        self._dirty_classes.clear()

        touched: list[tuple[LegacyEClass, set[ENode]]] = []
        for root in dirty_roots:
            eclass = self._classes[root]
            old_nodes = eclass.nodes
            eclass.nodes = {n.canonical(find) for n in old_nodes}
            if eclass.nodes != old_nodes:
                eclass.rev += 1
            self._node_count += len(eclass.nodes) - len(old_nodes)
            fresh_parents: dict[ENode, int] = {}
            for enode, pid in eclass.parents.items():
                fresh_parents[enode.canonical(find)] = find(pid)
            eclass.parents = fresh_parents
            touched.append((eclass, old_nodes))

        # Op-index repair in two passes: drop every stale key first, then
        # re-insert the canonical ones — a stale key of one class can be the
        # canonical key of another, so interleaving would delete live
        # entries.
        op_index = self._op_index
        for _eclass, old_nodes in touched:
            for node in old_nodes:
                sub = op_index.get(node.op)
                if sub is not None:
                    sub.pop(node, None)
        for eclass, _old_nodes in touched:
            for node in eclass.nodes:
                op_index.setdefault(node.op, {})[node] = eclass.id

    # ----------------------------------------------------------------- checks
    def check_invariants(self) -> None:
        """Assert hashcons/congruence invariants (used by the test-suite)."""
        find = self._uf.find
        for class_id, eclass in self._classes.items():
            assert find(class_id) == class_id, "non-canonical class retained"
            for node in eclass.nodes:
                canon = node.canonical(find)
                owner = self._hashcons.get(canon)
                assert owner is not None, f"node {canon} missing from hashcons"
                assert find(owner) == class_id, (
                    f"hashcons maps {canon} to {find(owner)}, expected {class_id}"
                )
        seen: dict[ENode, int] = {}
        for class_id, eclass in self._classes.items():
            for node in eclass.nodes:
                canon = node.canonical(find)
                if canon in seen:
                    assert seen[canon] == class_id, f"congruence violated at {canon}"
                seen[canon] = class_id

        # Parent sets: dict-keyed, so a parent e-node appears at most once
        # per child class, and every entry resolves (through ``find``) to the
        # class that owns the canonical form of the parent node and really
        # references this class as a child.
        for class_id, eclass in self._classes.items():
            for penode, pid in eclass.parents.items():
                canon = penode.canonical(find)
                owner = self._hashcons.get(canon)
                assert owner is not None, f"parent {canon} missing from hashcons"
                assert find(owner) == find(pid), (
                    f"parent entry {canon} claims owner {find(pid)}, "
                    f"hashcons says {find(owner)}"
                )
                assert class_id in {find(c) for c in canon.children}, (
                    f"parent {canon} recorded on class {class_id} but does "
                    f"not reference it"
                )

        # Incremental counters must agree with a full recomputation.
        swept = sum(len(c.nodes) for c in self._classes.values())
        assert self._node_count == swept, (
            f"node_count counter {self._node_count} != swept {swept}"
        )
        assert self.class_count == len(self._classes)

        # The persistent op-index must agree with a full rescan: canonical
        # keys only, owned by the right op, resolving to the owning class.
        expected: dict[ENode, int] = {}
        for class_id, eclass in self._classes.items():
            for node in eclass.nodes:
                expected[node] = class_id
        indexed: dict[ENode, int] = {}
        for op, sub in self._op_index.items():
            for node, class_id in sub.items():
                assert node.op is op, f"op-index files {node} under {op}"
                assert node.canonical(find) == node, (
                    f"stale op-index key {node} after rebuild"
                )
                indexed[node] = find(class_id)
        assert indexed == expected, "op-index disagrees with class sweep"

    def dump(self, limit: int = 50) -> str:
        """Human-readable snapshot for debugging."""
        lines = []
        for eclass in sorted(self._classes.values(), key=lambda c: c.id)[:limit]:
            nodes = ", ".join(repr(n) for n in sorted(eclass.nodes, key=repr))
            lines.append(f"c{eclass.id}: {nodes}")
        return "\n".join(lines)
