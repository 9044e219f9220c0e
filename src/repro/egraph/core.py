"""The flat struct-of-arrays e-graph core.

This is the engine room behind :class:`repro.egraph.egraph.EGraph`: e-nodes
and e-classes live in parallel int arrays instead of per-object
``ENode``/``EClass`` instances.  A node id (*nid*) indexes:

* ``node_op`` / ``node_attr`` — interned operator and attribute-tuple ids,
* ``node_first`` / ``node_nkids`` — the node's child span inside one flat
  ``kids`` buffer of e-class ids,
* ``node_class`` — the **canonical** owning class id (kept canonical at all
  times for alive nodes; absorbing a class rewrites its members' entries),
* ``node_alive`` — 0 once a node is merged away by congruence.

Class ids index ``class_nodes`` (member nid sets), ``class_parents``
(nids referencing the class as a child), ``class_data`` (analysis slots)
and ``class_rev`` (membership revision).  ``class_assume_parents`` maps a
class id to the ``ASSUME`` entries of its ``class_parents``, in the same
order; only classes that have one get an entry.  The hashcons ``memo`` maps
signature tuples ``(op_id, attr_id, child_ids)`` to nids; the nested
``child_ids`` tuple is stored once per node (``_kid_tups``) and shared by
the memo key and the node's :class:`ENode` view, so one canonicalization
epoch allocates one tuple, not three copies of the same children.

The congruence discipline differs from the object engine in one important
way: unions re-key the absorbed class's parents **eagerly**.  The moment two
classes merge, every parent signature is canonicalized in place and
re-inserted into the hashcons, so lookups *between* rebuilds always hit the
canonical entry.  A rewrite that re-instantiates an existing right-hand side
therefore dedups instead of allocating a transient duplicate node — which is
what lets wide designs (``stress_wide``) finish inside node budgets that the
deferred-re-keying object engine blew through mid-apply.  What remains
deferred (and is drained by :meth:`rebuild`, exactly as in egg) are the
*congruence unions* discovered during re-keying and the analysis fixpoint.

A union requeues the ``ASSUME`` parents of both classes for analysis even
when their data did not change (the ``ASSUME`` transfer function reads
constraint-class membership, which a merge changes).  The
``class_assume_parents`` index hands it exactly those nids, so a union
never walks the whole parent set of a class to find them — the constant
classes carry thousands of parents, of which a few percent are ASSUMEs.

The core pickles through a compact :meth:`__reduce__`: only the arrays, the
intern tables, the union-find, the analysis data and the member/parent
orders ship; the hashcons, per-op index and ASSUME-parent index are derived
on load.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import chain
from typing import Any, Callable, Iterable

from repro.egraph.enode import ENode
from repro.egraph.unionfind import UnionFind
from repro.ir import ops
from repro.ir.ops import Op


class Analysis:
    """Interface of an e-class analysis (egg's ``Analysis`` trait).

    Subclasses provide domain data attached to every e-class and keep it
    correct as the e-graph grows and merges.  Hooks receive the *façade*
    :class:`~repro.egraph.egraph.EGraph`, never the raw core.
    """

    name: str = "analysis"

    def make(self, egraph, enode: ENode) -> Any:
        """Data for a fresh e-node (children already carry data)."""
        raise NotImplementedError

    def join(self, left: Any, right: Any) -> Any:
        """Combine data for two provably-equal e-classes."""
        raise NotImplementedError

    def modify(self, egraph, class_id: int) -> None:
        """Optional hook: mutate the e-graph after data changes (e.g. add a
        constant node when the data proves the class constant)."""


class SnapshotClass:
    """One e-class of a read-only :class:`GraphSnapshot`."""

    __slots__ = ("id", "nodes", "data")

    def __init__(self, class_id: int, nodes: tuple[ENode, ...], data: dict) -> None:
        self.id = class_id
        self.nodes = nodes
        self.data = data


class GraphSnapshot:
    """Read-only view of an e-graph for exporters (DOT, dumps).

    Carries exactly what a renderer needs — the canonical classes with their
    member e-nodes and analysis data, plus a ``find`` resolving child ids —
    so the same exporter works identically over the flat core and the
    façade.
    """

    __slots__ = ("classes", "find")

    def __init__(
        self, classes: list[SnapshotClass], find: Callable[[int], int]
    ) -> None:
        self.classes = classes
        self.find = find


class CoreGraph:
    """Flat, int-indexed e-graph storage and congruence machinery."""

    __slots__ = (
        "uf",
        "node_op",
        "node_attr",
        "node_first",
        "node_nkids",
        "node_class",
        "node_alive",
        "kids",
        "ops",
        "op_ids",
        "attrs",
        "attr_ids",
        "memo",
        "class_nodes",
        "class_parents",
        "class_assume_parents",
        "class_data",
        "class_rev",
        "op_nodes",
        "pending_pairs",
        "pending_losers",
        "analysis_pending",
        "analyses",
        "n_nodes",
        "n_classes",
        "version",
        "_owner",
        "_views",
        "_kid_tups",
        "_assume_id",
        "_const_id",
    )

    def __init__(self, analyses: Iterable[Analysis] = (), owner=None) -> None:
        self.uf = UnionFind()
        self.node_op = array("q")
        self.node_attr = array("q")
        self.node_first = array("q")
        self.node_nkids = array("q")
        self.node_class = array("q")
        self.node_alive = bytearray()
        self.kids = array("q")
        self.ops: list[Op] = []
        self.op_ids: dict[Op, int] = {}
        self.attrs: list[tuple] = []
        self.attr_ids: dict[tuple, int] = {}
        #: Hashcons: ``(op_id, attr_id, child_ids)`` -> nid; ``child_ids``
        #: is the node's ``_kid_tups`` entry, shared with its ENode view.
        self.memo: dict[tuple, int] = {}
        self.class_nodes: list[dict[int, None] | None] = []
        self.class_parents: list[dict[int, None] | None] = []
        #: Class id -> the ASSUME nids of its ``class_parents``, in that
        #: order; a class gets an entry with its first ASSUME parent.
        self.class_assume_parents: dict[int, dict[int, None]] = {}
        self.class_data: list[dict[str, Any] | None] = []
        self.class_rev: list[int] = []
        #: Per-op index: op_id -> ordered set of alive nids.
        self.op_nodes: list[dict[int, None]] = []
        #: Deferred congruence unions discovered while re-keying.
        self.pending_pairs: list[tuple[int, int]] = []
        #: Nids whose signature is shadowed by a congruent node in another
        #: class; resolved (killed or re-enqueued) by :meth:`rebuild`.
        self.pending_losers: list[int] = []
        #: Nids whose analysis ``make`` must be re-joined into their class.
        self.analysis_pending: dict[int, None] = {}
        self.analyses: tuple[Analysis, ...] = tuple(analyses)
        self.n_nodes = 0
        self.n_classes = 0
        #: Incremented on every successful union (saturation detection).
        self.version = 0
        #: Weak reference to the façade handed to analysis hooks (set by
        #: ``EGraph``); ``None`` for a standalone core (see :attr:`owner`).
        self._owner: weakref.ref | None = None
        if owner is not None:
            self.owner = owner
        #: Lazily materialized ``ENode`` views, one slot per nid.
        self._views: list[ENode | None] = []
        #: Canonical children tuple per nid (current epoch) — the single
        #: allocation shared by the hashcons key and the ENode view.
        self._kid_tups: list[tuple] = []
        self._assume_id = self.intern_op(ops.ASSUME)
        self._const_id = self.intern_op(ops.CONST)

    # -------------------------------------------------------------- interning
    def intern_op(self, op: Op) -> int:
        op_id = self.op_ids.get(op)
        if op_id is None:
            op_id = len(self.ops)
            self.op_ids[op] = op_id
            self.ops.append(op)
            self.op_nodes.append({})
        return op_id

    def intern_attrs(self, attrs: tuple) -> int:
        attr_id = self.attr_ids.get(attrs)
        if attr_id is None:
            attr_id = len(self.attrs)
            self.attr_ids[attrs] = attr_id
            self.attrs.append(attrs)
        return attr_id

    @property
    def owner(self):
        """What analysis hooks receive: the ``EGraph`` façade wrapping this
        core, or the core itself when it stands alone.

        The façade is held weakly, so a dropped graph is freed by reference
        counting instead of waiting for the cyclic collector.  A core that
        outlives its façade (a pickling clone) gets a fresh one attached.
        """
        ref = self._owner
        if ref is None:
            return self
        owner = ref()
        if owner is None:
            from repro.egraph.egraph import _egraph_from_core

            owner = _egraph_from_core(self)
        return owner

    @owner.setter
    def owner(self, owner) -> None:
        self._owner = None if owner is self else weakref.ref(owner)

    # ------------------------------------------------------------------ sizes
    def find(self, class_id: int) -> int:
        return self.uf.find(class_id)

    @property
    def is_clean(self) -> bool:
        return (
            not self.pending_pairs
            and not self.pending_losers
            and not self.analysis_pending
        )

    def class_ids(self) -> list[int]:
        """Canonical class ids (sweep over the class arrays)."""
        return [
            cid for cid, nodes in enumerate(self.class_nodes) if nodes is not None
        ]

    # ------------------------------------------------------------------ views
    def node_enode(self, nid: int) -> ENode:
        """The (cached) ``ENode`` value view of one node's array row."""
        view = self._views[nid]
        if view is None:
            view = ENode(
                self.ops[self.node_op[nid]],
                self.attrs[self.node_attr[nid]],
                self._kid_tups[nid],
            )
            self._views[nid] = view
        return view

    def class_const(self, class_id: int) -> int | None:
        """The CONST value of a class if it contains a literal node."""
        const_id = self._const_id
        node_op = self.node_op
        for nid in self.class_nodes[self.uf.find(class_id)]:
            if node_op[nid] == const_id:
                return self.attrs[self.node_attr[nid]][0]
        return None

    def snapshot(self, data: bool = True) -> GraphSnapshot:
        """Read-only view of the canonical classes (see :class:`GraphSnapshot`)."""
        view = self.node_enode
        classes = [
            SnapshotClass(
                cid,
                tuple(view(nid) for nid in nodes),
                self.class_data[cid] if data else {},
            )
            for cid, nodes in enumerate(self.class_nodes)
            if nodes is not None
        ]
        return GraphSnapshot(classes, self.uf.find)

    # -------------------------------------------------------------------- add
    def add(self, op: Op, attrs: tuple, children: tuple[int, ...]) -> int:
        """Intern an e-node row, returning its (possibly existing) class id."""
        find = self.uf.find
        parent = self.uf._parent
        op_id = self.op_ids.get(op)
        if op_id is None:
            op_id = self.intern_op(op)
        if children:
            if op_id == self._assume_id:
                head = find(children[0])
                tail = sorted({find(c) for c in children[1:]})
                canon_kids = (head, *tail)
            else:
                # Already-canonical ids (the overwhelmingly common case on a
                # clean graph) skip the find() call entirely.
                canon_kids = tuple(
                    c if parent[c] == c else find(c) for c in children
                )
        else:
            canon_kids = ()
        attr_id = self.attr_ids.get(attrs)
        if attr_id is None:
            attr_id = self.intern_attrs(attrs)
        sig = (op_id, attr_id, canon_kids)
        nid = self.memo.get(sig)
        if nid is not None:
            cls = self.node_class[nid]
            return cls if parent[cls] == cls else find(cls)
        return self.insert(op_id, attr_id, canon_kids, sig)

    def insert(
        self, op_id: int, attr_id: int, canon_kids: tuple[int, ...], sig: tuple
    ) -> int:
        """Allocate the node for a signature the hashcons just missed.

        ``canon_kids`` must be canonical *now* and ``sig`` must be
        ``(op_id, attr_id, canon_kids)``: this is :meth:`add` after its
        probe, shared with the compiled right-hand-side builders
        (:func:`repro.egraph.query.compile_builder`), which probe inline.
        """
        nid = len(self.node_op)
        self.node_op.append(op_id)
        self.node_attr.append(attr_id)
        self.node_first.append(len(self.kids))
        self.node_nkids.append(len(canon_kids))
        self.kids.extend(canon_kids)
        self.node_alive.append(1)
        self._views.append(None)
        self._kid_tups.append(canon_kids)
        class_id = self.uf.make_set()
        self.node_class.append(class_id)
        self.class_nodes.append({nid: None})
        self.class_parents.append({})
        data: dict[str, Any] = {}
        self.class_data.append(data)
        self.class_rev.append(0)
        self.memo[sig] = nid
        self.n_nodes += 1
        self.n_classes += 1
        self.op_nodes[op_id][nid] = None
        if canon_kids:
            class_parents = self.class_parents
            assume_parents = self.class_assume_parents
            is_assume = op_id == self._assume_id
            for child in set(canon_kids):
                class_parents[child][nid] = None
                if is_assume:
                    assume_parents.setdefault(child, {})[nid] = None
        if self.analyses:
            owner = self.owner
            enode = self.node_enode(nid)
            for analysis in self.analyses:
                data[analysis.name] = analysis.make(owner, enode)
            for analysis in self.analyses:
                analysis.modify(owner, class_id)
        return self.uf.find(class_id)

    def lookup(self, op: Op, attrs: tuple, children: tuple[int, ...]) -> int | None:
        """Class id of an interned e-node, else None (no allocation)."""
        op_id = self.op_ids.get(op)
        if op_id is None:
            return None
        attr_id = self.attr_ids.get(attrs)
        if attr_id is None:
            return None
        find = self.uf.find
        if children:
            if op_id == self._assume_id:
                head = find(children[0])
                tail = sorted({find(c) for c in children[1:]})
                children = (head, *tail)
            else:
                children = tuple(find(c) for c in children)
        nid = self.memo.get((op_id, attr_id, children))
        if nid is None:
            return None
        return find(self.node_class[nid])

    # ------------------------------------------------------------------ union
    def union(self, a: int, b: int) -> int:
        """Merge two classes; parents are re-keyed *now*, congruence unions
        and analysis propagation are deferred to :meth:`rebuild`."""
        find = self.uf.find
        ra, rb = find(a), find(b)
        if ra == rb:
            return ra
        self.version += 1
        keep, gone = self.uf.union(ra, rb)

        gparents = self.class_parents[gone]
        self.class_parents[gone] = None
        kparents = self.class_parents[keep]
        assume_parents = self.class_assume_parents
        gassume = assume_parents.pop(gone, None)
        kassume = assume_parents.get(keep)
        gnodes = self.class_nodes[gone]
        self.class_nodes[gone] = None

        # Eager hashcons repair: every parent of the absorbed class gets its
        # signature canonicalized in place and re-inserted immediately.
        for nid in gparents:
            if self.node_alive[nid]:
                self._rekey(nid)

        # Move members across (keeping node_class canonical for alive nodes).
        # The eager re-key above may have already killed a member of ``gone``
        # that was also one of its parents (a cyclic node such as NEG(c) in
        # class c colliding with its re-keyed twin) — the dead must not be
        # resurrected into the surviving member set.
        knodes = self.class_nodes[keep]
        node_class = self.node_class
        node_alive = self.node_alive
        for nid in gnodes:
            if node_alive[nid]:
                node_class[nid] = keep
                knodes[nid] = None
        self.class_rev[keep] += 1
        self.n_classes -= 1

        # Analysis join, mirroring the object engine: each side's parents are
        # requeued when the joined data differs from what that side's parents
        # last saw; ASSUME parents are requeued *unconditionally* (the merged
        # class has new members and the ASSUME transfer function inspects
        # constraint-class membership).
        keep_changed = gone_changed = False
        if self.analyses:
            kdata = self.class_data[keep]
            gdata = self.class_data[gone]
            for analysis in self.analyses:
                old_keep = kdata[analysis.name]
                old_gone = gdata[analysis.name]
                joined = analysis.join(old_keep, old_gone)
                kdata[analysis.name] = joined
                # Joins return an operand unchanged most of the time: test
                # identity before paying for a structural comparison.
                keep_changed = keep_changed or (
                    joined is not old_keep and joined != old_keep
                )
                gone_changed = gone_changed or (
                    joined is not old_gone and joined != old_gone
                )
        self.class_data[gone] = None
        if self.analyses:
            pend = self.analysis_pending
            for changed, parents, assumes in (
                (keep_changed, kparents, kassume),
                (gone_changed, gparents, gassume),
            ):
                if changed:
                    pend.update(parents)
                elif assumes is not None:
                    pend.update(assumes)

        kparents.update(gparents)
        if gassume is not None:
            if kassume is None:
                assume_parents[keep] = gassume
            else:
                kassume.update(gassume)
        if self.analyses:
            owner = self.owner
            for analysis in self.analyses:
                analysis.modify(owner, keep)
        return keep

    def _rekey(self, nid: int) -> None:
        """Canonicalize one node's child span and re-insert its signature.

        A congruent collision with a node of another class defers a union
        (``pending_pairs``); a collision inside the same class kills the
        duplicate on the spot.
        """
        find = self.uf.find
        first = self.node_first[nid]
        kids = self.kids
        old_kids = self._kid_tups[nid]
        op_id = self.node_op[nid]
        if op_id == self._assume_id:
            head = find(old_kids[0])
            tail = sorted({find(c) for c in old_kids[1:]})
            new_kids = (head, *tail)
        else:
            new_kids = tuple(find(c) for c in old_kids)
        if new_kids == old_kids:
            return
        attr_id = self.node_attr[nid]
        old_sig = (op_id, attr_id, old_kids)
        memo = self.memo
        if memo.get(old_sig) == nid:
            del memo[old_sig]
        for offset, child in enumerate(new_kids):
            kids[first + offset] = child
        self.node_nkids[nid] = len(new_kids)
        self._views[nid] = None
        self._kid_tups[nid] = new_kids
        new_sig = (op_id, attr_id, new_kids)
        existing = memo.get(new_sig)
        if existing is None:
            memo[new_sig] = nid
        elif existing != nid:
            owner_e = find(self.node_class[existing])
            owner_n = find(self.node_class[nid])
            if owner_e == owner_n:
                self._kill(nid)
            else:
                self.pending_pairs.append((owner_e, owner_n))
                self.pending_losers.append(nid)

    def _kill(self, nid: int) -> None:
        """Remove a congruence-duplicate node from the graph."""
        self.node_alive[nid] = 0
        root = self.uf.find(self.node_class[nid])
        nodes = self.class_nodes[root]
        if nodes is not None:
            nodes.pop(nid, None)
        self.class_rev[root] += 1
        self.op_nodes[self.node_op[nid]].pop(nid, None)
        self._views[nid] = None
        self.n_nodes -= 1

    # ----------------------------------------------------------- data seeding
    def set_data(self, class_id: int, analysis_name: str, value: Any) -> None:
        root = self.uf.find(class_id)
        self.class_data[root][analysis_name] = value
        self.analysis_pending.update(self.class_parents[root])
        owner = self.owner
        for analysis in self.analyses:
            if analysis.name == analysis_name:
                analysis.modify(owner, root)

    # ---------------------------------------------------------------- rebuild
    def rebuild(self, analysis_budget: int = 200_000) -> int:
        """Drain deferred congruence unions and the analysis fixpoint.

        Returns the number of unions performed.  ``analysis_budget`` caps
        upward propagation; stopping early is sound because interval data
        only ever tightens through joins.
        """
        unions = 0
        find = self.uf.find
        while (
            self.pending_pairs or self.pending_losers or self.analysis_pending
        ):
            while self.pending_pairs or self.pending_losers:
                while self.pending_pairs:
                    pairs, self.pending_pairs = self.pending_pairs, []
                    for a, b in pairs:
                        if find(a) != find(b):
                            self.union(a, b)
                            unions += 1
                losers, self.pending_losers = self.pending_losers, []
                for nid in losers:
                    if not self.node_alive[nid]:
                        continue
                    sig = (
                        self.node_op[nid],
                        self.node_attr[nid],
                        self._kid_tups[nid],
                    )
                    winner = self.memo.get(sig)
                    if winner is None:
                        self.memo[sig] = nid
                    elif winner != nid:
                        wroot = find(self.node_class[winner])
                        nroot = find(self.node_class[nid])
                        if wroot == nroot:
                            self._kill(nid)
                        else:
                            self.pending_pairs.append((wroot, nroot))
                            self.pending_losers.append(nid)

            budget = analysis_budget
            pend = self.analysis_pending
            if pend and self.analyses:
                owner = self.owner
                node_class = self.node_class
                while pend and budget:
                    budget -= 1
                    nid, _ = pend.popitem()
                    if not self.node_alive[nid]:
                        continue
                    root = find(node_class[nid])
                    data = self.class_data[root]
                    enode = self.node_enode(nid)
                    for analysis in self.analyses:
                        old = data[analysis.name]
                        new = analysis.join(old, analysis.make(owner, enode))
                        if new is not old and new != old:
                            data[analysis.name] = new
                            pend.update(self.class_parents[root])
                            analysis.modify(owner, root)
                if not budget:
                    pend.clear()
            else:
                pend.clear()
        return unions

    # ----------------------------------------------------------------- checks
    def check_invariants(self) -> None:
        """Assert the flat representation's invariants (full sweep).

        Covers hashcons/congruence/ownership, the parent and per-op indices,
        and the incremental counters — the array-level analogue of the object
        engine's checks.  The façade layers its view-vs-array cross-checks on
        top (see :meth:`repro.egraph.egraph.EGraph.check_invariants`).
        """
        find = self.uf.find
        alive_nids = [
            nid for nid in range(len(self.node_op)) if self.node_alive[nid]
        ]
        swept_sigs: dict[tuple, int] = {}
        for nid in alive_nids:
            first = self.node_first[nid]
            span = tuple(self.kids[first : first + self.node_nkids[nid]])
            assert self._kid_tups[nid] == span, (
                f"node {nid}: kid tuple {self._kid_tups[nid]} out of sync "
                f"with flat buffer span {span}"
            )
            owner = self.node_class[nid]
            assert find(owner) == owner, f"node {nid}: stale node_class {owner}"
            assert self.class_nodes[owner] is not None, (
                f"node {nid} owned by absorbed class {owner}"
            )
            assert nid in self.class_nodes[owner], (
                f"node {nid} missing from class {owner} member set"
            )
            for child in span:
                assert find(child) == child, (
                    f"node {nid}: non-canonical child {child}"
                )
                parents = self.class_parents[child]
                assert parents is not None and nid in parents, (
                    f"node {nid} missing from parent set of class {child}"
                )
            sig = (self.node_op[nid], self.node_attr[nid], span)
            assert sig not in swept_sigs, (
                f"congruence violated: nodes {swept_sigs[sig]} and {nid} "
                f"share signature {sig}"
            )
            swept_sigs[sig] = nid
            assert self.memo.get(sig) == nid, (
                f"hashcons maps {sig} to {self.memo.get(sig)}, expected {nid}"
            )
            assert nid in self.op_nodes[self.node_op[nid]], (
                f"node {nid} missing from its op index"
            )
        assert len(self.memo) == len(alive_nids), (
            f"hashcons holds {len(self.memo)} entries for "
            f"{len(alive_nids)} alive nodes"
        )
        swept_nodes = 0
        swept_classes = 0
        for cid, nodes in enumerate(self.class_nodes):
            if nodes is None:
                assert cid not in self.class_assume_parents, (
                    f"absorbed class {cid} keeps an ASSUME-parent index"
                )
                continue
            swept_classes += 1
            swept_nodes += len(nodes)
            assert find(cid) == cid, f"absorbed class {cid} still canonical"
            assert self.class_parents[cid] is not None
            assumes = [
                nid
                for nid in self.class_parents[cid]
                if self.node_op[nid] == self._assume_id
            ]
            indexed_assumes = self.class_assume_parents.get(cid)
            assert list(indexed_assumes or ()) == assumes, (
                f"class {cid}: ASSUME-parent index {list(indexed_assumes or ())} "
                f"!= ASSUME-filtered parent set {assumes}"
            )
            assert indexed_assumes is None or indexed_assumes, (
                f"class {cid}: empty ASSUME-parent index allocated"
            )
            assert self.class_data[cid] is not None
            for nid in nodes:
                assert self.node_alive[nid], f"dead node {nid} in class {cid}"
                assert self.node_class[nid] == cid
        assert self.n_nodes == swept_nodes, (
            f"node counter {self.n_nodes} != swept {swept_nodes}"
        )
        assert self.n_classes == swept_classes, (
            f"class counter {self.n_classes} != swept {swept_classes}"
        )
        for op_id, sub in enumerate(self.op_nodes):
            for nid in sub:
                assert self.node_alive[nid], f"dead node {nid} in op index"
                assert self.node_op[nid] == op_id, (
                    f"op index files node {nid} under {self.ops[op_id]}"
                )
        indexed = sum(len(sub) for sub in self.op_nodes)
        assert indexed == self.n_nodes, (
            f"op index holds {indexed} nodes, counter says {self.n_nodes}"
        )

    # ---------------------------------------------------------------- pickling
    def _clean_copy(self) -> CoreGraph:
        """A rebuilt, fully-independent copy of this graph.

        Used by :meth:`__reduce__` to ship canonical arrays without draining
        the *original* graph's pending work — a pickle must never mutate the
        object being pickled (daemon threads snapshot live graphs for warm
        starts).  Every mutable container is copied; interned ops/attrs,
        children tuples and analysis payloads are immutable and shared.
        """
        clone = CoreGraph.__new__(CoreGraph)
        clone.uf = UnionFind()
        clone.uf._parent = list(self.uf._parent)
        clone.uf._size = list(self.uf._size)
        clone.node_op = array("q", self.node_op)
        clone.node_attr = array("q", self.node_attr)
        clone.node_first = array("q", self.node_first)
        clone.node_nkids = array("q", self.node_nkids)
        clone.node_class = array("q", self.node_class)
        clone.node_alive = bytearray(self.node_alive)
        clone.kids = array("q", self.kids)
        clone.ops = list(self.ops)
        clone.op_ids = dict(self.op_ids)
        clone.attrs = list(self.attrs)
        clone.attr_ids = dict(self.attr_ids)
        clone.memo = dict(self.memo)
        clone.class_nodes = [
            dict(members) if members is not None else None
            for members in self.class_nodes
        ]
        clone.class_parents = [
            dict(parents) if parents is not None else None
            for parents in self.class_parents
        ]
        clone.class_assume_parents = {
            cid: dict(parents) for cid, parents in self.class_assume_parents.items()
        }
        clone.class_data = [
            dict(data) if data is not None else None for data in self.class_data
        ]
        clone.class_rev = list(self.class_rev)
        clone.op_nodes = [dict(sub) for sub in self.op_nodes]
        clone.pending_pairs = list(self.pending_pairs)
        clone.pending_losers = list(self.pending_losers)
        clone.analysis_pending = dict(self.analysis_pending)
        clone.analyses = self.analyses
        clone.n_nodes = self.n_nodes
        clone.n_classes = self.n_classes
        clone.version = self.version
        clone._views = [None] * len(self.node_op)
        clone._kid_tups = list(self._kid_tups)
        clone._assume_id = self._assume_id
        clone._const_id = self._const_id
        clone._owner = None
        if self._owner is not None:
            # Analysis ``modify`` hooks expect the façade API, so the clone
            # needs its own (the original's façade must keep pointing here);
            # :attr:`owner` re-attaches one if this one is dropped first.
            from repro.egraph.egraph import _egraph_from_core

            _egraph_from_core(clone)
        return clone

    def __reduce__(self):
        """Compact pickling: arrays, intern tables, analysis data and orders.

        The hashcons, per-op index, ASSUME-parent index and view cache are
        derived on load.  The member and parent sets ship as flat nid
        columns in their iteration order, so the revived graph walks its
        classes exactly as this one does: an order-sensitive pass (the
        extraction fixpoint's tie-breaks and worklist) computes the same
        result on both sides.  The shipped arrays must be canonical, but
        draining pending work in place would make pickling side-effecting —
        so a dirty graph is cloned first and the *clone* is rebuilt;
        ``self`` is untouched.
        """
        core = self
        if not core.is_clean:
            core = core._clean_copy()
            core.rebuild()
        member_sets = [nodes for nodes in core.class_nodes if nodes is not None]
        parent_sets = [
            parents for parents in core.class_parents if parents is not None
        ]
        state = (
            core.analyses,
            list(core.uf._parent),
            list(core.uf._size),
            core.ops,
            core.attrs,
            core.node_op,
            core.node_attr,
            core.node_first,
            core.node_nkids,
            core.node_class,
            bytes(core.node_alive),
            core.kids,
            core.class_data,
            core.class_rev,
            core.n_nodes,
            core.n_classes,
            core.version,
            array("q", list(chain.from_iterable(member_sets))),
            array("q", list(map(len, member_sets))),
            array("q", list(chain.from_iterable(parent_sets))),
            array("q", list(map(len, parent_sets))),
        )
        return (_core_from_state, (state,))


def _core_from_state(state) -> CoreGraph:
    """Rebuild a :class:`CoreGraph` from its pickled arrays."""
    (
        analyses,
        uf_parent,
        uf_size,
        op_list,
        attr_list,
        node_op,
        node_attr,
        node_first,
        node_nkids,
        node_class,
        alive_bytes,
        kids,
        class_data,
        class_rev,
        n_nodes,
        n_classes,
        version,
        members,
        member_counts,
        parents,
        parent_counts,
    ) = state
    core = CoreGraph(analyses)
    core.uf._parent = list(uf_parent)
    core.uf._size = list(uf_size)
    core.ops = list(op_list)
    core.op_ids = {op: op_id for op_id, op in enumerate(core.ops)}
    core.attrs = list(attr_list)
    core.attr_ids = {attrs: attr_id for attr_id, attrs in enumerate(core.attrs)}
    core._assume_id = core.op_ids[ops.ASSUME]
    core._const_id = core.op_ids[ops.CONST]
    core.node_op = node_op
    core.node_attr = node_attr
    core.node_first = node_first
    core.node_nkids = node_nkids
    core.node_class = node_class
    core.node_alive = bytearray(alive_bytes)
    core.kids = kids
    core.class_data = list(class_data)
    core.class_rev = list(class_rev)
    core.n_nodes = n_nodes
    core.n_classes = n_classes
    core.version = version
    core._views = [None] * len(node_op)
    core.op_nodes = [{} for _ in core.ops]
    core.class_nodes = [None] * len(core.class_data)
    core.class_parents = [None] * len(core.class_data)
    canonical = [cid for cid, data in enumerate(core.class_data) if data is not None]
    start = 0
    for cid, count in zip(canonical, member_counts):
        core.class_nodes[cid] = dict.fromkeys(members[start : start + count])
        start += count
    start = 0
    assume_id = core._assume_id
    for cid, count in zip(canonical, parent_counts):
        shipped = parents[start : start + count]
        core.class_parents[cid] = dict.fromkeys(shipped)
        assumes = [nid for nid in shipped if node_op[nid] == assume_id]
        if assumes:
            core.class_assume_parents[cid] = dict.fromkeys(assumes)
        start += count
    core._kid_tups = [
        tuple(kids[node_first[nid] : node_first[nid] + node_nkids[nid]])
        for nid in range(len(node_op))
    ]
    for nid in range(len(node_op)):
        if not core.node_alive[nid]:
            continue
        core.memo[(node_op[nid], node_attr[nid], core._kid_tups[nid])] = nid
        core.op_nodes[node_op[nid]][nid] = None
    return core
