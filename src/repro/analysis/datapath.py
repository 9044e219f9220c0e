"""The interval + totality e-class analysis (the paper's program analysis).

``make`` is the abstract transfer function of every IR operator over
:class:`~repro.intervals.IntervalSet`; ``join`` intersects (see
arXiv:2205.14989); ``modify`` performs constant folding — gated on totality,
and in the partial (ASSUME) case folding *under the same constraints*, which
is the upward knowledge propagation of Section IV-B.
"""

from __future__ import annotations

from repro.analysis.absval import AbsVal
from repro.analysis.constr import constraint_refinement
from repro.analysis.transfer import iset_transfer
from repro.egraph.egraph import Analysis, EGraph
from repro.egraph.enode import ENode
from repro.intervals import IntervalSet
from repro.ir import ops

ANALYSIS_NAME = "datapath"


def range_of(egraph: EGraph, class_id: int) -> IntervalSet:
    """The interval abstraction of a class."""
    return egraph.class_data[egraph.find(class_id)][ANALYSIS_NAME].iset


def total_of(egraph: EGraph, class_id: int) -> bool:
    """Whether the class provably never evaluates to ``*``."""
    return egraph.class_data[egraph.find(class_id)][ANALYSIS_NAME].total


def range_width(iset: IntervalSet, default: int = 64) -> int:
    """Storage bitwidth implied by a range (empty -> 1, unbounded -> default).

    The single home of the width policy: both the e-graph cost path
    (:func:`width_of`) and the tree cost path
    (:func:`repro.synth.cost.operator_model`) price widths through here.
    """
    width = iset.storage_width()
    if width is None:
        return default
    return max(width, 1)


def width_of(egraph: EGraph, class_id: int, default: int = 64) -> int:
    """Storage bitwidth implied by the class's range (drives the cost model).

    Empty (dead) classes report width 1; unbounded ranges report ``default``.
    """
    return range_width(range_of(egraph, class_id), default)


class DatapathAnalysis(Analysis):
    """Interval + totality analysis with ASSUME-aware refinement.

    ``input_ranges`` optionally narrows input variables (the paper's "input
    constraints", e.g. ``x >= 128`` in Figure 1) — a variable's abstraction
    is the declared unsigned range intersected with its entry here.
    """

    name = ANALYSIS_NAME

    #: Bound on the per-analysis ``make`` memo table.
    MAKE_CACHE_CAP = 1 << 17

    def __init__(
        self,
        input_ranges: dict[str, IntervalSet] | None = None,
        constr_cache: bool = True,
    ) -> None:
        self.input_ranges = dict(input_ranges or {})
        # ``make`` is a pure function of (op, attrs, child data) for every
        # operator except ASSUME (whose refinement reads constraint-class
        # membership from the e-graph) and the leaves (cheap).  Rebuild
        # re-runs ``make`` on mostly-unchanged e-nodes every iteration, so
        # the hit rate is high.  AbsVal hashes cheaply: its IntervalSet is
        # hash-consed with a cached hash.
        self._make_cache: dict[tuple, AbsVal] = {}
        # Constraint-class membership scan cache (class id -> (rev,
        # candidates)); ``constr_cache=False`` keeps the uncached reference
        # path for differential tests.
        self._constr_cache: dict | None = {} if constr_cache else None

    # ------------------------------------------------------------------- make
    def make(self, egraph: EGraph, enode: ENode) -> AbsVal:
        op = enode.op

        if op is ops.VAR:
            name, width = enode.attrs
            iset = IntervalSet.unsigned(width)
            if name in self.input_ranges:
                iset = iset.intersect(self.input_ranges[name])
            return AbsVal(iset, True)
        if op is ops.CONST:
            return AbsVal(IntervalSet.point(enode.attrs[0]), True)

        # The engine hands ``make`` an e-node whose children are canonical,
        # so their data is one index away.
        class_data = egraph.class_data
        name = self.name
        kids = [class_data[c][name] for c in enode.children]

        if op is ops.ASSUME:
            guarded = kids[0]
            cache = self._constr_cache
            if cache is not None and len(cache) >= self.MAKE_CACHE_CAP:
                cache.clear()
            refinement = constraint_refinement(
                egraph, self.name, enode.children[1:], enode.children[0],
                self._constr_cache,
            )
            return AbsVal(guarded.iset.intersect(refinement), False)

        key = (op, enode.attrs, tuple(kids))
        cached = self._make_cache.get(key)
        if cached is not None:
            return cached

        kid_isets = [k.iset for k in kids]
        if op is ops.MUX:
            cond, if_true, if_false = kids
            verdict = cond.iset.truthiness()
            # A mux is total when its condition is total and every branch it
            # can actually select is total.
            total = cond.total and (
                (verdict is True and if_true.total)
                or (verdict is False and if_false.total)
                or (if_true.total and if_false.total)
            )
        else:
            total = all(k.total for k in kids) and defined_everywhere(
                op, enode.attrs, kid_isets
            )
        result = AbsVal(iset_transfer(op, enode.attrs, kid_isets), total)

        if len(self._make_cache) >= self.MAKE_CACHE_CAP:
            self._make_cache.clear()
        self._make_cache[key] = result
        return result

    # ------------------------------------------------------------------- join
    def join(self, left: AbsVal, right: AbsVal) -> AbsVal:
        return left.join(right)

    # ----------------------------------------------------------------- modify
    def modify(self, egraph: EGraph, class_id: int) -> None:
        class_id = egraph.find(class_id)
        data: AbsVal = egraph.class_data[class_id][self.name]
        value = data.iset.as_point()
        if value is None:
            return

        if data.total:
            # Total class with singleton range: it *is* that constant.
            if egraph.class_const(class_id) is None:
                const_id = egraph.add_const(value)
                egraph.union(class_id, const_id)
            return

        # Partial class: fold under the same constraints —
        # ASSUME(x, C) == ASSUME(value, C) when the refined range is {value}.
        # Crucially this is sound only when x itself is *total*: a partial x
        # contributes its own failure domain, which ASSUME(value, C) would
        # erase.  (Nested-ASSUME chains first collapse via Table I row 3,
        # after which the guarded child is a total expression.)
        for enode in egraph.members(class_id, ops.ASSUME):
            if not egraph.data(enode.children[0], self.name).total:
                continue
            const_id = egraph.add_const(value)
            folded = ENode(
                ops.ASSUME, (), (const_id,) + tuple(enode.children[1:])
            )
            if egraph.lookup(folded) == class_id:
                continue
            new_id = egraph.add_enode(folded)
            egraph.union(class_id, new_id)
            break


def _definitely_nonneg(iset: IntervalSet) -> bool:
    low = iset.min()
    return low is not None and low >= 0


def defined_everywhere(op, attrs: tuple, kids: list[IntervalSet]) -> bool:
    """Can this strict operator ever yield ``*`` on in-range operands?

    Bitwise operators are undefined (``*``) on negative values, shifts on
    negative amounts, LZC/NOT outside their declared width, CONCAT when the
    low part overflows its field — the analysis must prove the operands stay
    inside the defined domain before the node can be called total.
    """
    a = kids[0] if kids else IntervalSet.empty()
    b = kids[1] if len(kids) > 1 else IntervalSet.empty()
    if op in (ops.SHL, ops.SHR):
        return _definitely_nonneg(b)
    if op in (ops.AND, ops.OR, ops.XOR):
        return _definitely_nonneg(a) and _definitely_nonneg(b)
    if op in (ops.NOT, ops.LZC):
        (width,) = attrs
        return a.issubset(IntervalSet.unsigned(width))
    if op is ops.SLICE:
        return _definitely_nonneg(a)
    if op is ops.CONCAT:
        (rhs_width,) = attrs
        return _definitely_nonneg(a) and b.issubset(IntervalSet.unsigned(rhs_width))
    return True
