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
* **semantics** (``RU-UNSOUND``): each declarative rule is evaluated
  exhaustively over a small slice of ``Z ∪ {*}`` under its concretized
  conditions and guards (per :mod:`repro.ir.evaluate` semantics), falling
  back to seeded randomized trials above :data:`EXHAUSTIVE_CAP`.  Equality
  is pointwise *including* ``*`` — the congruence eq. (2) actually demands.

Dynamic rules bypass the pattern language, so they get a declared-metadata
contract instead (:data:`DYNAMIC_CONTRACTS`): a ``sound_by`` tag naming
the argument and, where cheap, an executable spot check.  A dynamic rule
without a contract is a finding (``RU-NO-CONTRACT``) — adding a rule
forces writing down why it is sound.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from typing import Callable

from repro.analysis import DatapathAnalysis
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import AttrVar, Pattern, PatternVar
from repro.egraph.pattern import class_vars, eval_attr, pattern_vars
from repro.egraph.rewrite import Rewrite
from repro.intervals import IntervalSet
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
#: Recognized guard factories (all in ``repro.rewrites.soundness``).
_GUARD_FACTORIES = frozenset(
    {"_all_total", "total", "bounded", "boolean", "range_le", "fits", "attr_lt"}
)


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
    factory = qualname.split(".", 1)[0]
    if factory not in _GUARD_FACTORIES:
        return None
    if getattr(condition, "__module__", "") != "repro.rewrites.soundness":
        return None
    code = condition.__code__
    cells = dict(
        zip(
            code.co_freevars,
            (c.cell_contents for c in condition.__closure__ or ()),
            strict=True,
        )
    )
    if factory in ("_all_total", "total", "boolean"):
        kind = "total" if factory in ("_all_total", "total") else factory
        return (kind, tuple(cells["names"]))
    if factory == "bounded":
        return ("bounded", (tuple(cells["names"]), cells["lo"], cells["hi"]))
    if factory == "range_le":
        return ("range_le", (cells["small"], cells["large"]))
    if factory == "fits":
        return ("fits", (cells["name"], cells["width_attr"]))
    if factory == "attr_lt":
        return ("attr_lt", (cells["low"], cells["high"]))
    return None


def _guard_holds(spec: tuple[str, tuple], env: dict) -> bool:
    """Concretize a guard over one ``Z ∪ {*}`` valuation.

    Range-based guards (``bounded``/``boolean``/``range_le``/``fits``)
    over-approximate the *non-*``*`` evaluations of a class, so they admit
    ``*`` itself — only the totality guards exclude it.  Getting this wrong
    either direction breaks the audit: excluding ``*`` from ``nonneg``
    would have hidden the very unsoundness the totality guards exist for.
    (``attr_lt`` compares attributes, which are never ``*``.)
    """
    kind, payload = spec
    if kind == "total":
        return all(env[n] is not BOT for n in payload if n in env)
    if kind == "bounded":
        names, lo, hi = payload
        return all(
            env[n] is BOT or ((lo is None or lo <= env[n]) and (hi is None or env[n] <= hi))
            for n in names
        )
    if kind == "boolean":
        return all(env[n] is BOT or env[n] in (0, 1) for n in payload)
    if kind == "range_le":
        small, large = payload
        a, b = env[small], env[large]
        return a is BOT or b is BOT or a <= b
    if kind == "fits":
        name, width = payload
        v = env[name]
        return v is BOT or 0 <= v < (1 << eval_attr(width, env))
    if kind == "attr_lt":
        low, high = payload
        return eval_attr(low, env) < eval_attr(high, env)
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


def _probe_graph(class_vars: set[str]) -> tuple[MutationTrapEGraph, dict]:
    """A tiny analyzed e-graph plus an env binding every rule variable.

    Class vars bind fresh 8-bit VAR classes (so range/totality reads
    succeed); attr vars are bound by the caller to plain ints.
    """
    egraph = EGraph([DatapathAnalysis()])
    env = {}
    for name in sorted(class_vars):
        env[name] = egraph.add_node(ops.VAR, (f"probe_{name}", 8), ())
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
    kids = [eval_pattern(c, env) for c in pattern.children]
    attrs = tuple(eval_attr(a, env) for a in pattern.attrs)
    return _apply(_Shim(pattern.op, attrs), kids, {})


def _render_env(env: dict) -> dict:
    return {k: ("*" if v is BOT else v) for k, v in env.items()}


# ------------------------------------------------------- dynamic-rule contracts
def _spot_mul_pow2() -> str | None:
    from repro.rewrites.arith import mul_pow2_to_shl

    egraph = EGraph([DatapathAnalysis()])
    a = egraph.add_node(ops.VAR, ("a", 4), ())
    product = egraph.add_node(ops.MUL, (), (a, egraph.add_const(8)))
    egraph.rebuild()
    _run_rule(egraph, mul_pow2_to_shl())
    shl = egraph.add_node(ops.SHL, (), (a, egraph.add_const(3)))
    if egraph.find(shl) != egraph.find(product):
        return "a * 8 did not union with a << 3"
    return None


def _spot_mux_cond_const() -> str | None:
    from repro.rewrites.mux import mux_cond_const_rule

    egraph = EGraph([DatapathAnalysis({"c": IntervalSet.of(1, 1)})])
    c = egraph.add_node(ops.VAR, ("c", 1), ())
    a = egraph.add_node(ops.VAR, ("a", 4), ())
    b = egraph.add_node(ops.VAR, ("b", 4), ())
    mux = egraph.add_node(ops.MUX, (), (c, a, b))
    egraph.rebuild()
    _run_rule(egraph, mux_cond_const_rule())
    if egraph.find(mux) != egraph.find(a):
        return "mux with provably-true condition did not collapse to its branch"
    return None


def _spot_assume_true_elim() -> str | None:
    from repro.rewrites.assume import assume_true_elim_rule

    egraph = EGraph([DatapathAnalysis({"c": IntervalSet.of(1, 1)})])
    c = egraph.add_node(ops.VAR, ("c", 1), ())
    x = egraph.add_node(ops.VAR, ("x", 4), ())
    assume = egraph.add_node(ops.ASSUME, (), (x, c))
    egraph.rebuild()
    _run_rule(egraph, assume_true_elim_rule())
    if egraph.find(assume) != egraph.find(x):
        return "ASSUME with an always-true constraint did not discharge"
    return None


def _run_rule(egraph: EGraph, rule: Rewrite, limit: int = 64) -> None:
    for class_id, env in rule.search(egraph, egraph.nodes_by_op(), limit):
        rule.apply(egraph, class_id, env)
    egraph.rebuild()


#: Declared soundness contracts for every dynamic rule in ``RULESETS``.
#: ``sound_by`` names the argument (and where the repo pins it); the
#: optional ``spot_check`` runs a concrete instance through the rule.
DYNAMIC_CONTRACTS: dict[str, dict] = {
    "mul-pow2-shl": {
        "sound_by": "a * 2^k == a << k for k >= 0; k derived from a CONST "
        "member, so it is exact",
        "spot_check": _spot_mul_pow2,
    },
    "mux-pull": {
        "sound_by": "strict operators evaluate identically on both branch "
        "copies, so hoisting the condition preserves every valuation "
        "(including the * cases: a * operand makes both sides *); pinned by "
        "tests/rewrites/test_structural_rules.py",
        "spot_check": None,
    },
    "mux-cond-const": {
        "sound_by": "fires only when the analysis proves the condition total "
        "with a constant truthiness, so exactly one branch is ever selected",
        "spot_check": _spot_mux_cond_const,
    },
    "mux-branch-assume": {
        "sound_by": "Table I row 1: each branch is only reachable when its "
        "condition holds, so wrapping it in ASSUME(branch, cond) changes no "
        "selected valuation; pinned by tests/rewrites/test_assume_rules.py",
        "spot_check": None,
    },
    "assume-distribute": {
        "sound_by": "Table I row 2: for strict ops, ASSUME(a op b, c) and "
        "ASSUME(a, c) op ASSUME(b, c) are * under exactly the same "
        "valuations (c fails, or an operand is *); pinned by "
        "tests/rewrites/test_assume_rules.py",
        "spot_check": None,
    },
    "assume-merge-nested": {
        "sound_by": "Table I row 3: nested ASSUME constraint sets conjoin; "
        "the union carries both failure conditions",
        "spot_check": None,
    },
    "assume-mux-prune": {
        "sound_by": "Table I rows 4/5: under constraint c (resp. ~c) the mux "
        "selects exactly the kept branch whenever the ASSUME is not already *",
        "spot_check": None,
    },
    "assume-true-elim": {
        "sound_by": "a constraint proved total with truthiness True never "
        "fails, so the ASSUME is the identity",
        "spot_check": _spot_assume_true_elim,
    },
    "lzc-narrow": {
        "sound_by": "range lower bound caps the leading-zero count at k, so "
        "only the top k+1 bits can influence LZC_w (Figure 1); pinned by "
        "tests/rewrites/test_rule_soundness.py",
        "spot_check": None,
    },
    "lzc-width-reduce": {
        "sound_by": "x < 2^m makes every bit above m a leading zero: "
        "lzc_w(x) == (w-m) + lzc_m(x), including x == 0; negative x is * on "
        "both sides",
        "spot_check": None,
    },
    "lzc-norm-invariant": {
        "sound_by": "pre-shifting by total c >= 0 reduces the leading-zero "
        "count by exactly c while both operands fit w bits, so the "
        "normalizing shift lands on the same value (Section V); pinned by "
        "the fp_sub differential tests",
        "spot_check": None,
    },
    "minmax-resolve": {
        "sound_by": "disjoint ranges order the operands on every non-* "
        "valuation and the dropped side is proved total, so min/max always "
        "selects the kept class",
        "spot_check": None,
    },
    "case-split-shift-gt1": {
        "sound_by": "inserts cond ? x : x with both branches the matched "
        "class itself — an identity for every valuation of cond (including "
        "*, where the mux is * exactly when membership in an ASSUME-refined "
        "class is; the branches only diverge through later ASSUME refinement "
        "of the copies, which Table I justifies)",
        "spot_check": None,
    },
}


# ------------------------------------------------------------------ the audit
def audit_rule(rule: Rewrite, origin: str = "adhoc") -> tuple[list[Finding], dict]:
    """Audit one rule; returns ``(findings, audit_record)``."""
    anchor = f"{origin}/{rule.name}"
    record: dict = {"rule": rule.name, "ruleset": origin}

    dynamic = callable(rule.searcher) or callable(rule.applier)
    if dynamic:
        return _audit_dynamic(rule, anchor, record)
    return _audit_declarative(rule, anchor, record)


def _audit_dynamic(rule: Rewrite, anchor: str, record: dict):
    findings = []
    record["mode"] = "contract"
    contract = DYNAMIC_CONTRACTS.get(rule.name)
    if contract is None:
        record["status"] = "no-contract"
        findings.append(
            Finding(
                "RU-NO-CONTRACT",
                anchor,
                f"dynamic rule {rule.name!r} has no soundness contract — "
                "declare one in repro.lint.rules.DYNAMIC_CONTRACTS "
                "(sound_by argument + optional spot check)",
                module="repro.lint.rules",
            )
        )
        return findings, record
    record["sound_by"] = contract["sound_by"]
    spot = contract.get("spot_check")
    if spot is None:
        record["status"] = "declared"
        return findings, record
    failure = spot()
    if failure:
        record["status"] = "spot-check-failed"
        findings.append(
            Finding(
                "RU-UNSOUND",
                anchor,
                f"dynamic rule {rule.name!r} failed its spot check: {failure}",
                module="repro.lint.rules",
            )
        )
    else:
        record["status"] = "spot-checked"
    return findings, record


def _audit_declarative(rule: Rewrite, anchor: str, record: dict):
    findings = []
    lhs, rhs = rule.searcher, rule.applier
    lhs_class, lhs_attr = classify_vars(lhs)
    rhs_class, rhs_attr = classify_vars(rhs)

    # --- binding ---------------------------------------------------------
    unbound = (rhs_class - lhs_class) | (rhs_attr - lhs_attr)
    if unbound:
        record["status"] = "ill-formed"
        findings.append(
            Finding(
                "RU-UNBOUND",
                anchor,
                f"RHS uses variables the LHS never binds: {sorted(unbound)}",
            )
        )
        return findings, record

    # --- guard introspection (conditions and guards alike) ---------------
    premises = (*rule.conditions, *rule.guards)
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
                    f"declarative rule {rule.name!r} carries a condition "
                    f"{getattr(condition, '__qualname__', condition)!r} that "
                    "is not a recognized soundness-factory guard — the "
                    "semantic audit cannot concretize it (build the rule "
                    "with guards from repro.rewrites.soundness, or make it "
                    "a dynamic rule with a contract)",
                )
            )
        else:
            specs.append(spec)

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
                f"LHS variables {missing} are dropped by the RHS from a "
                "strict position without a totality guard — a * valuation "
                "of them makes the sides differ (build the rule with drule, "
                "which derives the guard automatically)",
                detail={"dropped": sorted(dropped), "guarded": sorted(guarded)},
            )
        )

    # --- guard purity -----------------------------------------------------
    trap, probe_env = _probe_graph(lhs_class)
    probe_env.update({name: 2 for name in lhs_attr})
    for condition in premises:
        try:
            condition(trap, probe_env)
        except MutationAttempt as attempt:
            findings.append(
                Finding(
                    "RU-IMPURE",
                    anchor,
                    f"condition of {rule.name!r} mutates the e-graph during "
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
    findings += _semantic_audit(rule, anchor, specs, lhs_class, lhs_attr, record)
    return findings, record


def _semantic_audit(rule, anchor, specs, lhs_class, lhs_attr, record):
    lhs, rhs = rule.searcher, rule.applier
    consts = const_vars(lhs)
    domains = {name: CLASS_DOMAIN for name in lhs_class}
    domains.update(
        {name: CONST_DOMAIN if name in consts else ATTR_DOMAIN for name in lhs_attr}
    )
    names = sorted(domains)
    total_envs = math.prod(len(domains[name]) for name in names)

    def envs():
        if total_envs <= EXHAUSTIVE_CAP:
            for values in itertools.product(*(domains[name] for name in names)):
                yield dict(zip(names, values, strict=True))
        else:
            rng = random.Random(zlib.crc32(rule.name.encode()))
            for _ in range(TRIALS):
                yield {name: rng.choice(domains[name]) for name in names}

    exhaustive = total_envs <= EXHAUSTIVE_CAP
    record["mode"] = "exhaustive" if exhaustive else "trials"
    record["envs"] = total_envs if exhaustive else TRIALS
    checked = skipped = 0
    for env in envs():
        try:
            if not all(_guard_holds(spec, env) for spec in specs):
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
            return [
                Finding(
                    "RU-UNSOUND",
                    anchor,
                    f"rule {rule.name!r} is unsound over Z ∪ {{*}}: under "
                    f"{_render_env(env)} the LHS evaluates to "
                    f"{'*' if lhs_value is BOT else lhs_value} but the RHS "
                    f"to {'*' if rhs_value is BOT else rhs_value}",
                    detail={"counterexample": _render_env(env)},
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
