"""Compiled multi-pattern e-matching over the flat core.

An interpreted matcher walks a pattern tree per candidate e-node,
materializing :class:`ENode` views and recursive generator frames as it
goes.  This module removes both costs: each
:class:`PatternNode` is *compiled once* into a specialized Python function
of nested ``for`` loops over the core's int arrays (child classes read
straight out of each node's child tuple, literal leaf sub-patterns folded
into one hashcons lookup), and a :class:`QueryPlan` snapshots the per-op
node index once per root operator for all the rules it serves.  A rule
with several arms gets one matcher per root operator that tries its arms
in order on each candidate node.

A nested pattern node (and a ``(const ?s)`` leaf) needs the members of one
class that have one operator.  One :meth:`QueryPlan.search` keeps a memo
from ``(op, class)`` to those member nids (:class:`_OpMembers`), filled on
the first probe of a class and read back by every later probe of any
matcher in the same search, so a wide class is walked once per search and
operator, not once per candidate that reaches it.  The memo needs no
upkeep: the graph does not change during a search, and the memo is dropped
when the search ends.

Compiled matchers require a *clean* graph (directly after ``rebuild``):
``node_class`` entries and child ids are then canonical, so no ``find``
calls appear anywhere in the generated code.  The saturation runner — the
only caller — searches exactly there.  Environments, match order and limit
truncation are those of a plain recursive matcher (the test-suite keeps
one, ``tests/oracles/ematch.py``, and diffs the compiled code against it).
A rule's search-time guards run on each full match before it counts
against the limit, a ``(const ?s)`` leaf binds the value of the class's
first ``CONST`` member, as :meth:`CoreGraph.class_const` reads it, and a
constraint tail ``?cs...`` binds the tuple of an ``ASSUME``'s remaining
children.  An operator-set node (``(strict ?xs...)``) walks a class's
members whose op is in the set, in member order, through the same memo,
an as-pattern (``?e@(...)``) binds the class its node is matched in,
and consecutive arms with one left-hand side share its loops, so each of
its matches tries them in order.

Generated code for ``(* (+ ?a ?b) 2)`` looks like::

    def _matcher(core, cands, limit, out, keeps=(), probe=None):
        ... array locals; probe = {} when the caller passes none ...
        _pm4 = probe.get(_K5)            # the search's ADD-member memo
        if _pm4 is None: _pm4 = probe[_K5] = _OpMembers(core, _K6)  # (ADD,)
        _lf14 = memo.get((_id10, _id12, ()))  # the Const(2) leaf, one hit
        _lc15 = -1 if _lf14 is None else node_class[_lf14]
        for _n1 in cands:                # the MUL nodes
            _t2 = kid_tups[_n1]
            for _n3 in _pm4[_t2[0]]:     # ADD members of the left class
                _t7 = kid_tups[_n3]
                _v8 = _t7[0]
                _v9 = _t7[1]
                if _t2[1] != _lc15: continue
                _env = {'a': _v8, 'b': _v9}
                # a guarded arm adds: if not _keep0(_env): continue
                out_append((node_class[_n1], _env))
                if len(out) >= limit: return

The apply side is lowered the same way: :func:`compile_builder` turns a
right-hand side into one straight-line function per pattern that builds it
bottom-up with one inline hashcons probe per node and calls
:meth:`CoreGraph.insert` only on a miss.  Generated code for ``(<< ?a 1)``::

    def _build(core, env):
        parent = core.uf._parent
        ... memo, node_class, op_ids, attr_ids ...
        _op2 = op_ids.get(_K3)         # CONST, resolved per call
        _at5 = attr_ids.get(_K6)       # (1,)
        _op7 = op_ids.get(_K8)         # SHL
        _at10 = attr_ids.get(_K11)     # ()
        c1 = env['a']
        if parent[c1] != c1: c1 = core.uf.find(c1)
        ... the Const(1) leaf into c4, same probe shape as below ...
        if _op7 is None: _op7 = core.intern_op(_K8)
        if parent[c1] != c1: c1 = core.uf.find(c1)  # c4's modify may
        if parent[c4] != c4: c4 = core.uf.find(c4)  # have unioned c1
        t9 = (c1, c4, )
        if _at10 is None: _at10 = core.intern_attrs(_K11)
        s9 = (_op7, _at10, t9)
        n9 = memo.get(s9)
        if n9 is None:
            c9 = core.insert(_op7, _at10, t9, s9)
        else:
            c9 = node_class[n9]
            if parent[c9] != c9: c9 = core.uf.find(c9)
        return c9
"""

from __future__ import annotations

from typing import Callable

from repro.egraph.pattern import (
    AttrExpr, AttrVar, OpSet, Pattern, PatternNode, PatternVar, eval_attr,
)
from repro.ir import ops
from repro.ir.ops import Op

#: The env key naming the arm of a match of a rule with several arms.
ARM = "#arm"

#: Compiled matcher: ``matcher(core, candidate_nids, limit, out, keeps,
#: probe)`` appends ``(root_class_id, env)`` pairs to ``out``, stopping at
#: ``limit``; ``keeps`` holds each guarded arm's filter and ``probe`` is
#: the search's member memo (a fresh one if omitted).
Matcher = Callable[[object, list, int, list, tuple, dict | None], None]

#: Compiled right-hand side: ``build(core, env)`` instantiates the pattern in
#: the core and returns its canonical class id.
Builder = Callable[[object, dict], int]

#: Generated code per ``("match", arms)`` / ``("build", rhs)`` pattern, and
#: the compiled code object per ``("source", text)``.
_COMPILED: dict[tuple[str, object], object] = {}


class _Codegen:
    """Source lines, fresh local names and interned constants of one
    generated function."""

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.prelude: list[str] = []
        self.body: list[str] = []
        self.globals: dict[str, object] = {}
        self._serial = 0

    def fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def lit(self, value: object) -> str:
        """Intern a compile-time constant into the function's globals."""
        name = self.fresh("_K")
        self.globals[name] = value
        return name

    def define(self, src: str, name: str) -> Callable:
        """Execute the generated source; returns the function ``name``.
        Patterns of one shape (``mux-pull``'s arms over 16 binary operators)
        differ only in their constants, so each distinct source is compiled
        once and run over each pattern's own constants."""
        code = _COMPILED.get(("source", src))
        if code is None:
            code = _COMPILED[("source", src)] = compile(src, "<generated>", "exec")
        namespace = dict(self.globals)
        exec(code, namespace)  # noqa: S102 - internal codegen, no user input
        fn = namespace[name]
        fn.__source__ = src  # debugging aid (inspect the emitted code)
        return fn


class _Emitter(_Codegen):
    """Builds the source of one compiled matcher: the arms of one rule
    with one root operator, tried in order on each candidate.  Each arm of
    several runs in a one-shot ``for _ in _ONCE:`` (a ``continue`` moves on
    to the next arm), and a constant the graph lacks leaves a prelude value
    no node matches, so it only stops the arms that need it."""

    def __init__(self, arms: tuple) -> None:
        super().__init__(arms)
        self.arms = arms
        #: var name -> local holding its binding (class id or attr value).
        self.bound: dict[str, str] = {}
        #: op -> prelude local holding its :class:`_OpMembers` memo.
        self.probes: dict[Op, str] = {}

    def interned(self, table: str, value: object) -> str:
        """Prelude local holding the interned id of an op (``op_ids``) or
        attr tuple (``attr_ids``); ``None`` when the graph has none."""
        local = self.fresh("_id")
        self.prelude.append(f"    {local} = {table}.get({self.lit(value)})")
        return local

    def leaf_class(self, op: Op, attrs: tuple) -> str:
        """Prelude local holding the class id of a concrete leaf e-node
        (e.g. a ``Const(2)`` literal) — one hashcons hit per search call —
        or -1 when the graph has none."""
        key = f"({self.interned('op_ids', op)}, {self.interned('attr_ids', attrs)}, ())"
        nid, local = self.fresh("_lf"), self.fresh("_lc")
        self.prelude.append(f"    {nid} = memo.get({key})")
        self.prelude.append(f"    {local} = -1 if {nid} is None else node_class[{nid}]")
        return local

    # ------------------------------------------------------------- emission
    def emit_attrs(self, nid: str, pat: PatternNode, ind: str) -> None:
        """Attribute checks/bindings for the node bound to local ``nid``."""
        if not pat.attrs:
            return
        if any(isinstance(a, AttrExpr) for a in pat.attrs):
            raise ValueError(f"computed attributes are right-hand-side only: {pat}")
        if not any(isinstance(a, AttrVar) for a in pat.attrs):
            self.body.append(
                f"{ind}if node_attr[{nid}] != {self.interned('attr_ids', pat.attrs)}: continue"
            )
            return
        tup = self.fresh("_av")
        self.body.append(f"{ind}{tup} = attr_list[node_attr[{nid}]]")
        for i, pat_a in enumerate(pat.attrs):
            if isinstance(pat_a, AttrVar):
                self.bind(pat_a.name, f"{tup}[{i}]", ind)
            else:
                self.body.append(
                    f"{ind}if {tup}[{i}] != {self.lit(pat_a)}: continue"
                )

    def bind(self, name: str, value: str, ind: str) -> None:
        """Bind ``name`` to ``value`` (a local expression), or check it
        against the earlier binding of a repeated variable."""
        bound = self.bound.get(name)
        if bound is None:
            local = self.fresh("_v")
            self.bound[name] = local
            self.body.append(f"{ind}{local} = {value}")
        else:
            self.body.append(f"{ind}if {value} != {bound}: continue")

    def members(self, op: "Op | OpSet") -> str:
        """Prelude local holding the search's ``class -> members with op``
        memo for one operator or operator set (see :class:`_OpMembers`)."""
        local = self.probes.get(op)
        if local is None:
            key, ops_ = self.lit(op), self.lit(op.ops if isinstance(op, OpSet) else (op,))
            local = self.fresh("_pm")
            self.prelude.append(f"    {local} = probe.get({key})")
            self.prelude.append(
                f"    if {local} is None: {local} = probe[{key}] = _OpMembers(core, {ops_})"
            )
            self.globals["_OpMembers"] = _OpMembers
            self.probes[op] = local
        return local

    def emit_node(self, nid: str, pat: PatternNode, depth: int, then) -> None:
        """Match ``pat``'s attrs and children against the node in local
        ``nid``; call ``then(depth)`` at every full assignment.  The caller
        has already ensured the node's op matches."""
        ind = "    " * depth
        self.emit_attrs(nid, pat, ind)
        if not pat.children and pat.op.arity is not None:
            then(depth)
            return
        kids = self.fresh("_t")
        self.body.append(f"{ind}{kids} = kid_tups[{nid}]")
        tails = [getattr(c, "tail", False) for c in pat.children]
        if any(tails[:-1]):
            raise ValueError(f"a constraint tail must be the last child: {pat}")
        if pat.op.arity is None:
            fixed = len(pat.children) - sum(tails)
            self.body.append(
                f"{ind}if len({kids}) {'<' if any(tails) else '!='} {fixed}: continue"
            )

        def step(i: int, depth: int) -> None:
            if i == len(pat.children):
                then(depth)
                return
            ind = "    " * depth
            child = pat.children[i]
            cell = f"{kids}[{i}]"
            if isinstance(child, PatternVar):
                self.bind(child.name, f"{kids}[{i}:]" if child.tail else cell, ind)
                step(i + 1, depth)
                return
            if child.name:
                self.bind(child.name, cell, ind)
            if isinstance(child.op, OpSet):
                # ``(strict ?xs...)``: every member with an op of the set, in
                # member order; the set's name binds the node.
                if len(child.children) != 1 or not getattr(child.children[0], "tail", False):
                    raise ValueError(f"an operator set takes one tail: {child}")
                inner = self.fresh("_n")
                self.body.append(f"{ind}for {inner} in {self.members(child.op)}[{cell}]:")
                self.bind(child.op.name, inner, ind + "    ")
                self.bind(child.children[0].name, f"kid_tups[{inner}]", ind + "    ")
                step(i + 1, depth + 1)
            elif not child.children and not any(
                isinstance(a, AttrVar) for a in child.attrs
            ):
                # Concrete leaf (a Const literal): its class is unique, so
                # the whole sub-match is one precomputed id comparison.
                self.body.append(
                    f"{ind}if {cell} != {self.leaf_class(child.op, child.attrs)}: "
                    "continue"
                )
                step(i + 1, depth)
            elif child.op is ops.CONST:
                # ``(const ?s)``: the class's first CONST member only.
                found = self.fresh("_m")
                inner = self.fresh("_n")
                self.body += [
                    f"{ind}{found} = {self.members(ops.CONST)}[{cell}]",
                    f"{ind}if not {found}: continue",
                    f"{ind}{inner} = {found}[0]",
                ]
                self.emit_attrs(inner, child, ind)
                step(i + 1, depth)
            else:
                inner = self.fresh("_n")
                self.body.append(
                    f"{ind}for {inner} in {self.members(child.op)}[{cell}]:"
                )
                self.emit_node(
                    inner, child, depth + 1, lambda d: step(i + 1, d)
                )

        step(0, depth)

    def compile(self) -> Matcher:
        root = self.fresh("_n")
        # Consecutive arms with one left-hand side share its loops: each
        # match of it tries them in order.
        groups: list[tuple[Pattern, list]] = []
        for index, (pattern, guarded, tag) in enumerate(self.arms):
            if guarded:
                self.prelude.append(f"    _keep{index} = keeps[{index}]")
            if groups and groups[-1][0] == pattern:
                groups[-1][1].append((index, guarded, tag))
            else:
                groups.append((pattern, [(index, guarded, tag)]))
        several = len(groups) > 1
        bodies: list[str] = []
        for pattern, members in groups:
            self.body, self.bound = [], {}

            def finish(depth: int, members=members) -> None:
                for index, guarded, tag in members:
                    ind = "    " * depth
                    env = [f"{name!r}: {local}" for name, local in self.bound.items()]
                    if tag is not None:
                        env.append(f"{ARM!r}: {self.lit(tag)}")
                    self.body.append(f"{ind}_env = {{{', '.join(env)}}}")
                    if guarded and len(members) == 1:
                        self.body.append(f"{ind}if not _keep{index}(_env): continue")
                    elif guarded:
                        self.body.append(f"{ind}if _keep{index}(_env):")
                        ind += "    "
                    self.body.append(f"{ind}out_append((node_class[{root}], _env))")
                    self.body.append(f"{ind}if len(out) >= limit: return")

            depth = 2 + several
            if pattern.name:
                self.bind(pattern.name, f"node_class[{root}]", "    " * depth)
            self.emit_node(root, pattern, depth, finish)
            bodies += ["        for _ in _ONCE:"] * several + self.body
        self.globals["_ONCE"] = (None,)

        src = "\n".join(
            [
                "def _matcher(core, cands, limit, out, keeps=(), probe=None):",
                "    op_ids = core.op_ids",
                "    attr_ids = core.attr_ids",
                "    memo = core.memo",
                "    node_attr = core.node_attr",
                "    node_class = core.node_class",
                "    kid_tups = core._kid_tups",
                "    attr_list = core.attrs",
                "    out_append = out.append",
                "    if probe is None: probe = {}",
                *self.prelude,
                f"    for {root} in cands:",
                *bodies,
            ]
        )
        return self.define(src, "_matcher")


class _OpMembers(dict):
    """One search's memo of a class's members with one of some operators.

    ``members[class_id]`` is the class's nids whose op is in ``ops``, in
    member order: filled on the first probe of the class (none when no op
    is interned or the class's op mask rules them out), read on every later
    probe of the same class and ops, by any matcher of the same search.
    The memo is only valid while the graph does not change, so each
    :meth:`QueryPlan.search` starts a fresh one and drops it at the end.
    """

    __slots__ = ("core", "op_ids", "mask")

    def __init__(self, core, ops: tuple) -> None:
        super().__init__()
        self.core = core
        self.op_ids = frozenset(core.op_ids[op] for op in ops if op in core.op_ids)
        self.mask = sum(1 << op_id for op_id in self.op_ids)

    def __missing__(self, class_id: int) -> list[int] | tuple:
        core = self.core
        if core.class_ops[class_id] & self.mask:
            node_op, op_ids = core.node_op, self.op_ids
            found = [nid for nid in core.class_nodes[class_id] if node_op[nid] in op_ids]
        else:
            found = ()
        self[class_id] = found
        return found


def compile_arms(arms: tuple) -> Matcher:
    """Compile (with caching) ``(pattern, guarded, tag)`` arms over one root
    operator into one matcher that tries them in order on each candidate.
    Arm ``i``'s guard is ``keeps[i]``; a ``tag`` other than ``None`` is
    stored in its envs under :data:`ARM`."""
    key = ("match", arms)
    matcher = _COMPILED.get(key)
    if matcher is None:
        matcher = _Emitter(arms).compile()
        _COMPILED[key] = matcher
    return matcher


class _BuilderEmitter(_Codegen):
    """Builds the source of one compiled right-hand side.

    The emitted statements replay a recursive bottom-up instantiation
    through :meth:`CoreGraph.add` step for step — the same post-order,
    the same ``find`` calls on the same ids, interning in the same order —
    so a compiled build leaves the graph exactly as the interpreted one
    would.  Children are re-canonicalized just before each probe because a
    sibling's analysis ``modify`` can union classes mid-build.
    """

    def __init__(self, pattern: Pattern) -> None:
        super().__init__(pattern)
        #: (table, constant) -> (prelude id local, global constant name).
        self.ids: dict[tuple[str, object], tuple[str, str]] = {}

    def interned(self, table: str, value: object) -> tuple[str, str]:
        """``(local, constant)`` for a constant op or attr tuple: the prelude
        local holds its id (``None`` until interned, which happens lazily at
        its first probe, in :meth:`CoreGraph.add`'s order)."""
        key = (table, value)
        names = self.ids.get(key)
        if names is None:
            names = (self.fresh("_op" if table == "op_ids" else "_at"), self.lit(value))
            self.prelude.append(f"    {names[0]} = {table}.get({names[1]})")
            self.ids[key] = names
        return names

    def emit(self, pat: Pattern) -> str:
        """Statements building ``pat``; returns the local holding its class."""
        if isinstance(pat, PatternVar):
            local = self.fresh("c")
            self.body.append(f"    {local} = env[{pat.name!r}]")
            self.body.append(f"    if parent[{local}] != {local}: {local} = core.uf.find({local})")
            return local
        if isinstance(pat.op, OpSet):
            return self.emit_rebuilt(pat)
        tails = [c.name for c in pat.children if getattr(c, "tail", False)]
        kids = [self.emit(child) for child in pat.children if not getattr(child, "tail", False)]
        op_local, op_const = self.interned("op_ids", pat.op)
        self.body.append(f"    if {op_local} is None: {op_local} = core.intern_op({op_const})")
        for kid in kids:
            self.body.append(f"    if parent[{kid}] != {kid}: {kid} = core.uf.find({kid})")
        serial = self.fresh("")
        tup = f"t{serial}"
        if pat.op is ops.ASSUME and pat.children:
            # The constraint set: the single constraints and every spliced
            # tail, canonical and sorted as :meth:`CoreGraph.add` files it.
            tail = [f"{k}, " for k in kids[1:]]
            tail += [f"*map(core.uf.find, env[{name!r}]), " for name in tails]
            self.body.append(
                f"    {tup} = ({kids[0]}, *sorted({{{''.join(tail)}}}))"
                if tail else f"    {tup} = ({kids[0]},)"
            )
        else:
            self.body.append(f"    {tup} = ({''.join(f'{k}, ' for k in kids)})")
        if any(isinstance(a, (AttrVar, AttrExpr)) for a in pat.attrs):
            attrs = "".join(f"{self.attr_source(a)}, " for a in pat.attrs)
            at_local = f"a{serial}"
            self.body.append(f"    {at_local} = attr_ids.get(({attrs}))")
            self.body.append(
                f"    if {at_local} is None: {at_local} = core.intern_attrs(({attrs}))"
            )
        else:
            at_local, at_const = self.interned("attr_ids", pat.attrs)
            self.body.append(
                f"    if {at_local} is None: {at_local} = core.intern_attrs({at_const})"
            )
        return self.probe(serial, op_local, at_local)

    def probe(self, serial: str, op: str, attr: str) -> str:
        """The hashcons probe of node ``serial`` (children in ``t<serial>``):
        its existing class, or the class :meth:`CoreGraph.insert` makes."""
        sig, nid, cls, tup = f"s{serial}", f"n{serial}", f"c{serial}", f"t{serial}"
        self.body += [
            f"    {sig} = ({op}, {attr}, {tup})",
            f"    {nid} = memo.get({sig})",
            f"    if {nid} is None:",
            f"        {cls} = core.insert({op}, {attr}, {tup}, {sig})",
            "    else:",
            f"        {cls} = node_class[{nid}]",
            f"        if parent[{cls}] != {cls}: {cls} = core.uf.find({cls})",
        ]
        return cls

    def emit_rebuilt(self, pat: PatternNode) -> str:
        """``(strict ?xs... T)``: the op and attributes of the node the set's
        name binds, over one build of ``T`` per class of ``?xs``."""
        tail, *template = pat.children
        build = self.lit(compile_builder(template[0] if template else PatternVar(tail.name)))
        serial = self.fresh("")
        found, kids = f"m{serial}", f"k{serial}"
        self.body += [
            f"    {found} = env[{pat.op.name!r}]",
            f"    {kids} = [{build}(core, {{**env, {tail.name!r}: k}})"
            f" for k in env[{tail.name!r}]]",
            f"    t{serial} = tuple([k if parent[k] == k else core.uf.find(k) for k in {kids}])",
        ]
        return self.probe(serial, f"core.node_op[{found}]", f"core.node_attr[{found}]")

    def attr_source(self, attr) -> str:
        """A Python expression computing one attribute slot from ``env``."""
        if isinstance(attr, AttrVar):
            return f"env[{attr.name!r}]"
        if isinstance(attr, AttrExpr):
            return f"{self.lit(eval_attr)}({self.lit(attr)}, env)"
        return self.lit(attr)

    def compile(self) -> Builder:
        result = self.emit(self.pattern)
        src = "\n".join(
            [
                "def _build(core, env):",
                "    parent = core.uf._parent",
                "    memo = core.memo",
                "    node_class = core.node_class",
                "    op_ids = core.op_ids",
                "    attr_ids = core.attr_ids",
                *self.prelude,
                *self.body,
                f"    return {result}",
            ]
        )
        return self.define(src, "_build")


def compile_builder(pattern: Pattern) -> Builder:
    """Compile (with caching) a right-hand side into a flat-core builder.

    ``compile_builder(rhs)(core, env)`` builds the pattern as
    :meth:`EGraph.add_node` calls would on the façade over ``core``, with
    every id, count, ``version`` and hashcons entry identical.  Builders
    hold no per-core state, so one serves any graph.
    """
    key = ("build", pattern)
    build = _COMPILED.get(key)
    if build is None:
        build = _BuilderEmitter(pattern).compile()
        _COMPILED[key] = build
    return build


class QueryPlan:
    """All rules of a runner, lowered once: compiled matchers and compiled
    right-hand-side builders.

    One ``search`` call snapshots the per-op candidate list once per root
    operator and runs every rule's compiled matchers over it — the shared
    scan that replaces pattern-at-a-time ``ematch``.  A rule's arms are
    compiled into one matcher per root operator, and a rule with several
    root operators returns its matches in its own op order (the order of
    its arms), all cut by its one budget.  Rules are keyed by their
    *position* in the runner's rule list, never by name: two rules may
    share a name, and each must get its own matchers, matches and builders.
    """

    def __init__(self, rules) -> None:
        #: rule position -> [(root op, compiled matcher, its arms' guards)]
        #: in the rule's own op order.
        self.matchers: dict[int, list[tuple[Op, Matcher, tuple]]] = {}
        #: rule position -> the compiled builder of each arm's RHS.
        self.builders: dict[int, tuple[Builder, ...]] = {}
        for position, rule in enumerate(rules):
            several = len(rule.arms) > 1
            by_op: dict[Op, list[int]] = {}
            for index, arm in enumerate(rule.arms):
                if isinstance(arm.lhs.op, OpSet):
                    raise ValueError(f"an operator set cannot be a root: {arm.lhs}")
                by_op.setdefault(arm.lhs.op, []).append(index)
            self.matchers[position] = [
                (
                    op,
                    compile_arms(tuple(
                        (rule.arms[i].lhs, bool(rule.arms[i].guards), i if several else None)
                        for i in indices
                    )),
                    tuple(rule.arms[i].guards for i in indices),
                )
                for op, indices in by_op.items()
            ]
            self.builders[position] = tuple(compile_builder(arm.rhs) for arm in rule.arms)

    def search(self, egraph, budgets: dict[int, int]) -> dict[int, list]:
        """Match every rule whose position is in ``budgets`` (-> match limit).

        Returns rule position -> ``[(class_id, env), ...]`` for each searched
        rule (present even when empty, so schedulers can record a zero),
        holding only matches that pass the rule's search-time guards.  The
        graph must be clean (just rebuilt).
        """
        results: dict[int, list] = {}
        core = egraph.core
        op_ids = core.op_ids
        op_nodes = core.op_nodes
        #: root op -> its candidate nids, snapshotted once per search.
        cands_of: dict[Op, list] = {}
        #: op or op set -> :class:`_OpMembers`, shared by every matcher of
        #: this search and dropped with it (the apply phase changes members).
        probe: dict = {}
        for position, limit in budgets.items():
            out: list = []
            for op, matcher, guards in self.matchers[position]:
                cands = cands_of.get(op)
                if cands is None:
                    op_id = op_ids.get(op)
                    cands = cands_of[op] = list(op_nodes[op_id]) if op_id is not None else []
                if cands:
                    keeps = tuple(_keep(egraph, g) if g else None for g in guards)
                    matcher(core, cands, limit, out, keeps, probe)
                    if len(out) >= limit:
                        break
            results[position] = out
        return results


def _keep(egraph, guards: tuple) -> Callable[[dict], bool]:
    """A guarded arm's ``keep``: every search-time guard holds, in order."""

    def keep(env: dict) -> bool:
        for guard in guards:
            if not guard(egraph, env):
                return False
        return True

    return keep
