"""Rule-soundness auditor: every rewrite in ``RULESETS`` is machine-checked.

Four layers of audit, mirroring how a rule can go wrong:

* **binding** (``RU-UNBOUND``): the RHS may only use variables the LHS
  binds (``rewrite()`` raises on this, but rules can be built by hand);
* **guard presence** (``RU-DROPPED``): a class variable the RHS drops must
  carry a totality guard — the auditor re-derives what
  :func:`~repro.rewrites.soundness.drule` would have added and diffs it
  against ``rule.conditions``.  A variable whose every occurrence sits in
  a non-strict position (a mux branch) is structurally exempt, exactly
  ``drule``'s ``unguarded=`` contract — and the semantic layer still
  checks the exemption was justified;
* **guard purity** (``RU-IMPURE``): conditions and search-time guards are
  *observers*; one that unions, adds or mutates analysis data would
  corrupt the e-graph mid-search.  Each runs against a mutation-trapping
  proxy;
* **semantics** (``RU-UNSOUND``): each arm of each declarative rule is
  evaluated exhaustively over a small slice of ``Z ∪ {*}`` under its
  concretized conditions and guards (per :mod:`repro.ir.evaluate`
  semantics), falling back to seeded randomized trials above
  :data:`EXHAUSTIVE_CAP`.  Equality is pointwise *including* ``*`` — the
  congruence eq. (2) actually demands.  A constraint tail ranges over
  tuples of one or two values; a class whose range a ``derive`` guard reads
  ranges over every interval of :data:`INTERVALS` (the guards and the
  derived attribute see the interval) and then over every value inside it.

Dynamic rules bypass the pattern language, so they get a declared-metadata
contract instead (:data:`DYNAMIC_CONTRACTS`): a ``sound_by`` tag naming
the argument.  A dynamic rule without a contract is a finding
(``RU-NO-CONTRACT``) — adding a rule forces writing down why it is sound.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from types import MappingProxyType
from typing import Callable, Mapping

from repro.analysis import DatapathAnalysis
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import AttrVar, Pattern, PatternVar
from repro.egraph.pattern import class_vars, eval_attr, pattern_vars
from repro.egraph.rewrite import Arm, Rewrite
from repro.ir import ops
from repro.ir.evaluate import BOT, _apply
from repro.lint.model import Finding

#: Value domain for class variables in the semantic audit.  Negative values
#: matter (e-class valuations are unconstrained integers even though VAR
#: leaves are unsigned); ``*`` failure propagation is half the audit.
CLASS_DOMAIN: tuple = (BOT, -2, -1, 0, 1, 2, 3)

#: Attribute variables are widths; small ones exercise every wrap case.
ATTR_DOMAIN: tuple[int, ...] = (1, 2, 3)

#: A ``(const ?s)`` class evaluates to ``s`` everywhere: any non-``*`` value.
CONST_DOMAIN: tuple[int, ...] = tuple(v for v in CLASS_DOMAIN if v is not BOT)

#: A constraint tail: every tuple of one or two class values.
TAIL_DOMAIN: tuple[tuple, ...] = (
    *itertools.product(CLASS_DOMAIN), *itertools.product(CLASS_DOMAIN, repeat=2)
)

#: A class whose range a ``derive`` guard reads: every interval ``(lo, hi)``
#: over ``-2 .. 7`` (every value of the widest ``ATTR_DOMAIN`` width).
INTERVALS: tuple[tuple[int, int], ...] = tuple(
    (lo, hi) for lo in range(-2, 8) for hi in range(lo, 8)
)

#: Above this many environments the audit switches to seeded trials.
EXHAUSTIVE_CAP = 200_000

#: Trial count for the randomized fallback.
TRIALS = 4_000


# ------------------------------------------------------------- pattern shapes
def classify_vars(pattern: Pattern) -> tuple[set[str], set[str]]:
    """``(class_vars, attr_vars)`` of a pattern (disjoint by construction)."""
    classes = class_vars(pattern)
    return classes, pattern_vars(pattern) - classes


def const_vars(pattern: Pattern) -> set[str]:
    """Attribute variables bound by a ``(const ?s)`` leaf."""
    if isinstance(pattern, PatternVar):
        return set()
    out = set().union(*map(const_vars, pattern.children))
    if pattern.op is ops.CONST and isinstance(pattern.attrs[0], AttrVar):
        out.add(pattern.attrs[0].name)
    return out


def strictly_evaluated_vars(pattern: Pattern) -> set[str]:
    """Class vars with at least one occurrence outside a mux branch.

    A variable occurring *only* inside mux branch positions (children 1/2)
    may be dropped without a totality guard — the unselected branch is
    never evaluated, so its ``*`` cannot leak.  This re-derives ``drule``'s
    ``unguarded=`` declarations from the pattern itself.
    """
    out: set[str] = set()
    stack: list[tuple[Pattern, bool]] = [(pattern, True)]
    while stack:
        p, strict = stack.pop()
        if isinstance(p, PatternVar):
            if strict:
                out.add(p.name)
            continue
        for position, child in enumerate(p.children):
            branch = p.op is ops.MUX and position in (1, 2)
            stack.append((child, strict and not branch))
    return out


# ------------------------------------------------------------------- guards
def guard_spec(condition: Callable) -> tuple[str, tuple] | None:
    """``(kind, payload)`` for a recognized guard factory closure, else None.

    Conditions and guards are closures produced by the ``soundness``
    factories; the factory is identified by ``__qualname__`` and its
    arguments recovered from the closure cells — no cooperation from the
    rule author needed.
    """
    qualname = getattr(condition, "__qualname__", "")
    if not qualname.endswith(".check") or ".<locals>." not in qualname:
        return None
    spec = _SPECS.get(qualname.split(".", 1)[0])
    if spec is None or getattr(condition, "__module__", "") != "repro.rewrites.soundness":
        return None
    code = condition.__code__
    cells = dict(
        zip(
            code.co_freevars,
            (c.cell_contents for c in condition.__closure__ or ()),
            strict=True,
        )
    )
    kind, payload = spec(cells)
    return None if payload is None else (kind, payload)


#: Recognized guard factories (all in ``repro.rewrites.soundness``): the
#: ``(kind, payload)`` of a closure from its cells.
_SPECS: Mapping[str, Callable[[dict], tuple]] = MappingProxyType({
    # ``total``, ``boolean``, ``truthy`` or ``falsy``: whose lambda it runs.
    "_each": lambda c: (c["test"].__qualname__.split(".")[0], tuple(c["names"])),
    "bounded": lambda c: ("bounded", (tuple(c["names"]), c["lo"], c["hi"])),
    "range_le": lambda c: ("range_le", (c["small"], c["large"])),
    "fits": lambda c: ("fits", (c["name"], c["width_attr"])),
    "attr_lt": lambda c: ("attr_lt", (c["low"], c["high"])),
    "pow2": lambda c: ("pow2", c["attr"]),
    "derive": lambda c: ("derive", (c["name"], c["expr"])),
    "unless": lambda c: ("unless", guard_spec(c["guard"])),
})


def _values(env: dict, names) -> list:
    """The values bound to ``names``; a tail contributes each of its own."""
    return [v for n in names for v in (env[n] if isinstance(env[n], tuple) else (env[n],))]


def _spans(env: dict, ranges: dict, names) -> list:
    """``(lo, hi)`` of each named class's range: the interval of a class a
    ``derive`` reads, else the point of its value (``None`` for ``*``)."""
    points = _values(env, [n for n in names if n not in ranges])
    return [ranges[n] for n in names if n in ranges] + [
        None if v is BOT else (v, v) for v in points
    ]


def _guard_holds(spec: tuple[str, tuple], env: dict, ranges: dict) -> bool:
    """Concretize a guard over one ``Z ∪ {*}`` valuation.

    Range-based guards (``bounded``/``boolean``/``range_le``/``fits``)
    over-approximate the *non-*``*`` evaluations of a class, so they admit
    ``*`` itself — only the totality guards exclude it.  Getting this wrong
    either direction breaks the audit: excluding ``*`` from ``nonneg``
    would have hidden the very unsoundness the totality guards exist for.
    On a class with an interval in ``ranges`` they read the interval, as
    they read the range in the e-graph; ``truthy``/``falsy`` read the value
    (a range excluding zero need not be an interval that does).  A negated
    guard (``unless``) only narrows which arm fires, so it admits every
    valuation, and a ``derive`` binds its attribute in ``env`` from the
    intervals.  (``attr_lt``/``pow2`` compare attributes, which are never
    ``*``.)
    """
    kind, payload = spec
    if kind == "total":
        return all(v is not BOT for v in _values(env, payload))
    if kind == "truthy":
        return all(v is BOT or v != 0 for v in _values(env, payload))
    if kind == "falsy":
        return all(v is BOT or v == 0 for v in _values(env, payload))
    if kind == "boolean":
        kind, payload = "bounded", (payload, 0, 1)
    if kind == "fits":
        name, width = payload
        kind, payload = "bounded", ((name,), 0, (1 << eval_attr(width, env)) - 1)
    if kind == "bounded":
        names, lo, hi = payload
        return all(
            span is None
            or ((lo is None or lo <= span[0]) and (hi is None or span[1] <= hi))
            for span in _spans(env, ranges, names)
        )
    if kind == "range_le":
        [small], [large] = (_spans(env, ranges, (name,)) for name in payload)
        return small is None or large is None or small[1] <= large[0]
    if kind == "attr_lt":
        low, high = payload
        return eval_attr(low, env) < eval_attr(high, env)
    if kind == "pow2":
        value = eval_attr(payload, env)
        return value > 0 and value & (value - 1) == 0
    if kind == "unless":
        return True
    if kind == "derive":
        name, expr = payload
        env[name] = eval_attr(expr, env, ranges.__getitem__)
        return env[name] is not None
    raise ValueError(f"unknown guard kind {kind}")  # pragma: no cover


# ------------------------------------------------------- mutation-trap proxy
class MutationAttempt(RuntimeError):
    """Raised by the proxy when a condition tries to mutate the e-graph."""


_MUTATORS = frozenset(
    {"union", "add_node", "add_enode", "add_expr", "add_const", "set_data",
     "rebuild"}
)


class MutationTrapEGraph:
    """Read-through :class:`EGraph` proxy that rejects every mutator."""

    def __init__(self, egraph: EGraph) -> None:
        self._egraph = egraph

    def __getattr__(self, name: str):
        if name in _MUTATORS:
            def trap(*args, **kwargs):
                raise MutationAttempt(f"condition called EGraph.{name}")

            return trap
        return getattr(self._egraph, name)

    def __getitem__(self, class_id: int):
        return self._egraph[class_id]


def _probe_graph(class_vars: set[str], tails: set[str]) -> tuple[MutationTrapEGraph, dict]:
    """A tiny analyzed e-graph plus an env binding every rule variable.

    Class vars bind fresh 8-bit VAR classes (so range/totality reads
    succeed), tails a one-class tuple; attr vars are bound by the caller to
    plain ints.
    """
    egraph = EGraph([DatapathAnalysis()])
    env: dict = {}
    for name in sorted(class_vars):
        cid = egraph.add_node(ops.VAR, (f"probe_{name}", 8), ())
        env[name] = (cid,) if name in tails else cid
    egraph.rebuild()
    return MutationTrapEGraph(egraph), env


# ------------------------------------------------------- pattern evaluation
class _Shim:
    """Minimal ``.op``/``.attrs`` carrier for :func:`repro.ir.evaluate._apply`."""

    __slots__ = ("op", "attrs")

    def __init__(self, op, attrs):
        self.op = op
        self.attrs = attrs


def eval_pattern(pattern: Pattern, env: dict):
    """Evaluate a pattern over a ``Z ∪ {*}`` valuation of its variables.

    Delegates every operator to the shipped :func:`~repro.ir.evaluate._apply`
    so the audit semantics can never drift from the reference evaluator the
    verifier's compiled simulation is tested against.  (Patterns contain no VAR leaves — pattern variables play that
    role — so the env parameter of ``_apply`` is never consulted.)
    """
    if isinstance(pattern, PatternVar):
        return env[pattern.name]
    kids: list = []
    for child in pattern.children:
        if getattr(child, "tail", False):
            kids += env[child.name]
        else:
            kids.append(eval_pattern(child, env))
    attrs = tuple(eval_attr(a, env) for a in pattern.attrs)
    return _apply(_Shim(pattern.op, attrs), kids, {})


def _render_env(env: dict) -> dict:
    return {k: ("*" if v is BOT else v) for k, v in env.items()}


# ------------------------------------------------------- dynamic-rule contracts
#: Declared soundness contracts for every dynamic rule in ``RULESETS``:
#: ``sound_by`` names the argument (and where the repo pins it).
DYNAMIC_CONTRACTS: dict[str, dict] = {
    "mux-branch-assume": {
        "sound_by": "Table I row 1: each branch is only reachable when its "
        "condition holds, so wrapping it in ASSUME(branch, cond) changes no "
        "selected valuation; pinned by tests/rewrites/test_assume_rules.py",
    },
    "assume-distribute": {
        "sound_by": "Table I row 2: for strict ops, ASSUME(a op b, c) and "
        "ASSUME(a, c) op ASSUME(b, c) are * under exactly the same "
        "valuations (c fails, or an operand is *); pinned by "
        "tests/rewrites/test_assume_rules.py",
    },
    "assume-mux-prune": {
        "sound_by": "Table I rows 4/5: under constraint c (resp. ~c) the mux "
        "selects exactly the kept branch whenever the ASSUME is not already *",
    },
    "lzc-width-reduce": {
        "sound_by": "x < 2^m makes every bit above m a leading zero: "
        "lzc_w(x) == (w-m) + lzc_m(x), including x == 0; negative x is * on "
        "both sides",
    },
    "lzc-norm-invariant": {
        "sound_by": "pre-shifting by total c >= 0 reduces the leading-zero "
        "count by exactly c while both operands fit w bits, so the "
        "normalizing shift lands on the same value (Section V); pinned by "
        "the fp_sub differential tests",
    },
    "case-split-shift-gt1": {
        "sound_by": "inserts cond ? x : x with both branches the matched "
        "class itself — an identity for every valuation of cond (including "
        "*, where the mux is * exactly when membership in an ASSUME-refined "
        "class is; the branches only diverge through later ASSUME refinement "
        "of the copies, which Table I justifies)",
    },
}


# ------------------------------------------------------------------ the audit
def audit_rule(rule: Rewrite, origin: str = "adhoc") -> tuple[list[Finding], dict]:
    """Audit one rule; returns ``(findings, audit_record)``."""
    anchor = f"{origin}/{rule.name}"
    record: dict = {"rule": rule.name, "ruleset": origin}
    if rule.searcher is not None:
        return _audit_dynamic(rule, anchor, record)
    return _audit_declarative(rule, anchor, record)


def _audit_dynamic(rule: Rewrite, anchor: str, record: dict):
    record["mode"] = "contract"
    contract = DYNAMIC_CONTRACTS.get(rule.name)
    if contract is None:
        record["status"] = "no-contract"
        return [
            Finding(
                "RU-NO-CONTRACT",
                anchor,
                f"dynamic rule {rule.name!r} has no soundness contract — "
                "declare one in repro.lint.rules.DYNAMIC_CONTRACTS "
                "(its sound_by argument)",
                module="repro.lint.rules",
            )
        ], record
    record["sound_by"] = contract["sound_by"]
    record["status"] = "declared"
    return [], record


#: Arm statuses, worst first: a rule's record is its worst arm's.
_STATUS_ORDER = ("ill-formed", "opaque-guard", "failed", "trials-passed", "proved")


def _audit_declarative(rule: Rewrite, anchor: str, record: dict):
    findings: list[Finding] = []
    arms = []
    for index, arm in enumerate(rule.arms):
        where = f" (arm {index})" if len(rule.arms) > 1 else ""
        arm_findings, arm_record = _audit_arm(rule.name, arm, anchor, where)
        findings += arm_findings
        arms.append(arm_record)
    record.update(min(arms, key=lambda r: _STATUS_ORDER.index(r["status"])))
    if len(arms) > 1:
        record["arms"] = len(arms)
        for key in ("envs", "checked", "skipped"):
            record[key] = sum(r.get(key, 0) for r in arms)
    return findings, record


def _audit_arm(name: str, arm: Arm, anchor: str, where: str):
    findings = []
    record: dict = {}
    lhs, rhs = arm.lhs, arm.rhs
    lhs_class, lhs_attr = classify_vars(lhs)
    rhs_class, rhs_attr = classify_vars(rhs)

    # --- guard introspection (guards, then conditions) -------------------
    premises = (*arm.guards, *arm.conditions)
    specs = []
    opaque = False
    for condition in premises:
        spec = guard_spec(condition)
        if spec is None:
            opaque = True
            findings.append(
                Finding(
                    "RU-OPAQUE-GUARD",
                    anchor,
                    f"declarative rule {name!r}{where} carries a condition "
                    f"{getattr(condition, '__qualname__', condition)!r} that "
                    "is not a recognized soundness-factory guard — the "
                    "semantic audit cannot concretize it (build the rule "
                    "with guards from repro.rewrites.soundness, or make it "
                    "a dynamic rule with a contract)",
                )
            )
        else:
            specs.append(spec)
    derived = {payload[0] for kind, payload in specs if kind == "derive"}

    # --- binding ---------------------------------------------------------
    unbound = (rhs_class - lhs_class) | (rhs_attr - lhs_attr - derived)
    if unbound:
        record["status"] = "ill-formed"
        findings.append(
            Finding(
                "RU-UNBOUND",
                anchor,
                f"RHS{where} uses variables the LHS never binds: {sorted(unbound)}",
            )
        )
        return findings, record

    # --- guard presence (re-derive drule) --------------------------------
    # Dropped *attr* vars need no totality proof: attributes are concrete
    # ints carried by the node, not ``Z ∪ {*}`` valuations.
    dropped = lhs_class - rhs_class
    needs_guard = dropped & strictly_evaluated_vars(lhs)
    guarded = set()
    for kind, payload in specs:
        if kind == "total":
            guarded.update(payload)
    missing = sorted(needs_guard - guarded)
    if missing:
        findings.append(
            Finding(
                "RU-DROPPED",
                anchor,
                f"LHS variables {missing}{where} are dropped by the RHS from a "
                "strict position without a totality guard — a * valuation "
                "of them makes the sides differ (build the rule with drule, "
                "which derives the guard automatically)",
                detail={"dropped": sorted(dropped), "guarded": sorted(guarded)},
            )
        )

    # --- guard purity -----------------------------------------------------
    trap, probe_env = _probe_graph(lhs_class, class_vars(lhs, tails=True))
    probe_env.update({attr: 2 for attr in lhs_attr | derived})
    for condition in premises:
        try:
            condition(trap, probe_env)
        except MutationAttempt as attempt:
            findings.append(
                Finding(
                    "RU-IMPURE",
                    anchor,
                    f"condition of {name!r}{where} mutates the e-graph during "
                    f"matching ({attempt}) — conditions must be pure "
                    "observers; mutation belongs in the applier",
                )
            )
        except Exception:
            # Unrecognized guards that also crash on the probe are already
            # reported as RU-OPAQUE-GUARD; recognized factories never get
            # here (the probe env binds every variable they close over).
            pass

    # --- semantics --------------------------------------------------------
    if opaque:
        record["mode"] = "skipped"
        record["status"] = "opaque-guard"
        return findings, record
    findings += _semantic_audit(name, arm, anchor, where, specs, lhs_class, lhs_attr, record)
    return findings, record


def _semantic_audit(name, arm, anchor, where, specs, lhs_class, lhs_attr, record):
    lhs, rhs = arm.lhs, arm.rhs
    consts = const_vars(lhs)
    tails = class_vars(lhs, tails=True)
    # The classes a ``derive`` names are those whose range it reads.
    derives = (pattern_vars(payload[1]) for kind, payload in specs if kind == "derive")
    interval_vars = lhs_class & set().union(*derives)
    domains = {
        name: INTERVALS if name in interval_vars else TAIL_DOMAIN if name in tails
        else CLASS_DOMAIN
        for name in lhs_class
    }
    domains.update(
        {name: CONST_DOMAIN if name in consts else ATTR_DOMAIN for name in lhs_attr}
    )
    names = sorted(domains)
    # A class read through its range takes each value of its interval, or *.
    per_interval = sum(hi - lo + 2 for lo, hi in INTERVALS)
    total_envs = math.prod(
        per_interval if name in interval_vars else len(domains[name]) for name in names
    )

    def expand(base: dict):
        ranges = {name: base[name] for name in interval_vars}
        inner = [(BOT, *range(lo, hi + 1)) for lo, hi in ranges.values()]
        for values in itertools.product(*inner):
            env = dict(base)
            env.update(zip(ranges, values, strict=True))
            yield env, ranges

    def envs():
        if total_envs <= EXHAUSTIVE_CAP:
            for values in itertools.product(*(domains[name] for name in names)):
                yield from expand(dict(zip(names, values, strict=True)))
        else:
            rng = random.Random(zlib.crc32((name + where).encode()))
            for _ in range(TRIALS):
                yield from expand({name: rng.choice(domains[name]) for name in names})

    exhaustive = total_envs <= EXHAUSTIVE_CAP
    record["mode"] = "exhaustive" if exhaustive else "trials"
    record["envs"] = total_envs if exhaustive else TRIALS
    checked = skipped = 0
    for env, ranges in envs():
        try:
            if not all(_guard_holds(spec, env, ranges) for spec in specs):
                continue
            lhs_value = eval_pattern(lhs, env)
            rhs_value = eval_pattern(rhs, env)
        except Exception as error:
            # An env the semantics rejects outright (e.g. an ill-formed
            # width combination) proves nothing either way; count it so a
            # rule audited mostly through skips is visible in the record.
            skipped += 1
            record["skip_example"] = f"{_render_env(env)}: {error}"
            continue
        checked += 1
        agree = (
            (lhs_value is BOT and rhs_value is BOT)
            or (lhs_value is not BOT and rhs_value is not BOT
                and lhs_value == rhs_value)
        )
        if not agree:
            record["status"] = "failed"
            record["checked"] = checked
            shown = _render_env(env)
            if ranges:
                shown["ranges"] = ranges
            return [
                Finding(
                    "RU-UNSOUND",
                    anchor,
                    f"rule {name!r}{where} is unsound over Z ∪ {{*}}: under "
                    f"{shown} the LHS evaluates to "
                    f"{'*' if lhs_value is BOT else lhs_value} but the RHS "
                    f"to {'*' if rhs_value is BOT else rhs_value}",
                    detail={"counterexample": shown},
                )
            ]
    record["checked"] = checked
    record["skipped"] = skipped
    record["status"] = "proved" if exhaustive else "trials-passed"
    return []


def audit_rules(rules, origin: str) -> tuple[list[Finding], list[dict]]:
    """Audit a rule list; returns ``(findings, audit_records)``."""
    findings: list[Finding] = []
    records: list[dict] = []
    for rule in rules:
        rule_findings, record = audit_rule(rule, origin)
        findings += rule_findings
        records.append(record)
    return findings, records


def audit_rulesets() -> tuple[list[Finding], list[dict]]:
    """Audit every rule registered in ``RULESETS``."""
    from repro.rewrites.rulesets import RULESETS, ruleset

    findings: list[Finding] = []
    records: list[dict] = []
    for name in sorted(RULESETS):
        ruleset_findings, ruleset_records = audit_rules(ruleset(name), name)
        findings += ruleset_findings
        records += ruleset_records
    return findings, records
