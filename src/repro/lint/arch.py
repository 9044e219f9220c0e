"""Architectural linter: layer map, stdlib policy, clock injection, hot-path
e-class view scans, globals.

This module is the **single source of truth** for the import architecture.
``tests/test_import_cycles.py`` imports :data:`ENTRY_POINTS` and the layer
map from here, so the clean-interpreter test and the static check cannot
drift.

The layer map generalizes the historical cycle pin: *any* module-level
import edge that does not go strictly downward through :data:`LAYERS` is a
finding, not just the one ``repro.opt`` <-> ``repro.pipeline`` cycle that
bit once.  Function-scope (lazy) imports may point upward — that is the
sanctioned cycle-breaking idiom — but each upward lazy edge must carry a
reason-coded inline waiver (rule id ``AR-LAYER``) naming the inversion it
implements, so deliberate inversions stay enumerable.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass

from repro.lint.model import Finding, SourceModule, SourceTree

# ------------------------------------------------------------------ layer map
#: Units ordered bottom -> top.  A module may import only *strictly lower*
#: units (imports within its own unit are free, subject to the module-level
#: cycle check).  ``budget`` is ``repro.pipeline.budget`` alone: the
#: stdlib-only foundation everything (including the e-graph runner) may
#: time itself against.  ``egraph-viz`` is ``repro.egraph.dot`` alone: the
#: exporter reads analysis data, so it sits *above* ``analysis`` while the
#: engine proper sits below it.
LAYERS: tuple[str, ...] = (
    "budget",
    "intervals",
    "ir",
    "egraph",
    "analysis",
    "egraph-viz",
    "rewrites",
    "rtl",
    "synth",
    "verify",
    "designs",
    "pipeline",
    "service",
    "solve",
    "lint",
    "opt",
    "repro",
    "cli",
    "main",
)

#: Module (or package prefix) -> unit.  Longest dotted prefix wins, so the
#: two module-granular carve-outs shadow their packages.
MODULE_UNITS: dict[str, str] = {
    "repro": "repro",
    "repro.__main__": "main",
    "repro.cli": "cli",
    "repro.intervals": "intervals",
    "repro.ir": "ir",
    "repro.egraph": "egraph",
    "repro.egraph.dot": "egraph-viz",
    "repro.analysis": "analysis",
    "repro.rewrites": "rewrites",
    "repro.rtl": "rtl",
    "repro.synth": "synth",
    "repro.verify": "verify",
    "repro.designs": "designs",
    "repro.pipeline": "pipeline",
    "repro.pipeline.budget": "budget",
    "repro.service": "service",
    "repro.solve": "solve",
    "repro.lint": "lint",
    "repro.opt": "opt",
}

_RANK = {unit: index for index, unit in enumerate(LAYERS)}

#: Module entry points that must import from a cold interpreter (consumed
#: by ``tests/test_import_cycles.py``; the subprocess check catches what a
#: warm ``sys.modules`` hides from in-process tests).
ENTRY_POINTS: tuple[str, ...] = (
    "repro",
    "repro.pipeline.stages",
    "repro.pipeline.schedule",
    "repro.pipeline",
    "repro.opt",
    "repro.opt.report",
    "repro.synth.treecost",
    "repro.solve",
    "repro.solve.extract_opt",
    "repro.synth.sweep",
    "repro.lint",
    "repro.cli",
)

#: Modules restricted to the Python standard library alone (no ``repro.*``
#: either): the budget subsystem is importable from any worker with zero
#: package baggage, and the linter itself must not import what it audits
#: at module scope.
STDLIB_ONLY: frozenset[str] = frozenset({"repro.pipeline.budget"})

#: Units restricted to stdlib + ``repro.*`` (no third-party imports): the
#: solver and service subsystems advertise pure-python portability, and the
#: linter gates them.
INTERNAL_ONLY_UNITS: frozenset[str] = frozenset({"solve", "service", "lint"})

#: Audited module-level mutable state: (module, name) -> why sharing it is
#: safe.  Everything here is either write-once at import time, an interning
#: table whose entries are immutable and idempotent, or a memo cache whose
#: values are pure functions of the key (so a racy double-compute is
#: harmless and process pools each own a private copy anyway).
SHARED_STATE_ALLOWLIST: dict[tuple[str, str], str] = {
    ("repro.ir.ops", "OPS_BY_NAME"):
        "operator catalogue; written once at import, identity-keyed reads only",
    ("repro.egraph.pattern", "_SYMBOLS"):
        "parser symbol table; written once at import",
    ("repro.egraph.query", "_COMPILED"):
        "compiled matcher/builder memo; value is a pure function of the "
        "(role, pattern) key, racy double-compile is idempotent",
    ("repro.rewrites.rulesets", "RULESETS"):
        "ruleset registry; written once at import (immutability pinned by "
        "tests/test_parallel_safety.py)",
    ("repro.rewrites.rulesets", "_COMPOSE_CACHE"):
        "memo of stateless Rewrite tuples; value is a pure function of the "
        "key, racy double-compute is idempotent",
    ("repro.intervals.iset", "_INTERN"):
        "IntervalSet interning table; entries immutable, insertion idempotent, "
        "and per-process (pickling re-interns on the far side)",
    ("repro.analysis.transfer", "_TRANSFER_CACHE"):
        "bounded memo of pure transfer-function results; idempotent inserts",
    ("repro.analysis.tree_ranges", "_INVERSIONS"):
        "comparison-inversion table; written once at import",
    ("repro.designs.registry", "_ROOTS_CACHE"):
        "elaborated-IR memo; value is a pure function of the design name "
        "(registry designs are immutable), racy double-parse is idempotent",
    ("repro.pipeline.budget", "ALLOCATORS"):
        "allocator dispatch table; written once at import",
    ("repro.rtl.lexer", "KEYWORDS"):
        "Verilog keyword set; written once at import",
    ("repro.rtl.parser", "_LEVELS"):
        "operator-precedence table; written once at import",
    ("repro.synth.cost", "CONST_HINT_POSITIONS"):
        "const-hint position table; written once at import",
    ("repro.synth.cost", "_MODEL_MEMO"):
        "delay/area-model memo; pure function of the key, idempotent",
    ("repro.synth.netlist", "_EVAL"):
        "gate-evaluation dispatch table; written once at import",
    ("repro.cli", "_DISPATCH"):
        "subcommand dispatch table; written once at import",
    # The linter's own configuration tables: declared once here, read-only
    # everywhere (the lint gate itself fails if a fourth copy drifts in).
    ("repro.lint.arch", "MODULE_UNITS"):
        "layer-map table; written once at import",
    ("repro.lint.arch", "_RANK"):
        "derived layer ranks; written once at import",
    ("repro.lint.arch", "SHARED_STATE_ALLOWLIST"):
        "this allowlist; written once at import",
    ("repro.lint.concurrency", "WORKER_ENTRY_POINTS"):
        "fan-out entry-point table; written once at import",
    ("repro.lint.concurrency", "AUDITED_WRITES"):
        "audited-write ledger; written once at import",
}


def unit_of(module: str) -> str | None:
    """The layer unit owning ``module`` (longest dotted-prefix match).

    The bare package entry (``repro`` -> ``repro``) covers only the
    package's ``__init__`` itself, never acts as a prefix catch-all: a new
    top-level module must be added to :data:`MODULE_UNITS` explicitly, or
    the layer check reports it unmapped.
    """
    root = module.split(".", 1)[0]
    unit = MODULE_UNITS.get(module)
    if unit is not None:
        return unit
    name = module
    while "." in name:
        name = name.rsplit(".", 1)[0]
        if name == root:
            return None
        unit = MODULE_UNITS.get(name)
        if unit is not None:
            return unit
    return None


# ------------------------------------------------------------------ ast walks
@dataclass(frozen=True)
class ImportEdge:
    """One intra-package import, annotated with laziness and location."""

    importer: str
    imported: str
    lazy: bool
    line: int


def _iter_imports(node: ast.AST, lazy: bool = False):
    """Yield ``(import_node, lazy)``; function bodies are lazy, class bodies
    execute at import time and stay eager."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, lazy
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _iter_imports(child, True)
        else:
            yield from _iter_imports(child, lazy)


def _import_targets(node: "ast.Import | ast.ImportFrom", importer: str) -> list[str]:
    """Absolute module names an import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = importer.split(".")
        parts = parts[: len(parts) - node.level]
        base = ".".join(parts + ([base] if base else []))
    return [base] if base else []


def import_edges(module: SourceModule, tree: SourceTree) -> list[ImportEdge]:
    """Every intra-package import edge out of ``module``.

    ``from repro.egraph import pattern`` resolves to the deeper module
    ``repro.egraph.pattern`` when the tree holds one (it is a module
    import, not an attribute access).
    """
    root_pkg = module.name.split(".")[0]
    edges = []
    for node, lazy in _iter_imports(module.tree):
        for target in _import_targets(node, module.name):
            if not target.startswith(root_pkg):
                continue
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    deeper = f"{target}.{alias.name}"
                    resolved = deeper if deeper in tree else target
                    edges.append(
                        ImportEdge(module.name, resolved, lazy, node.lineno)
                    )
            else:
                edges.append(ImportEdge(module.name, target, lazy, node.lineno))
    return edges


# -------------------------------------------------------------------- AR-LAYER
def check_layers(tree: SourceTree) -> list[Finding]:
    """Layer-map conformance plus module-level acyclicity."""
    findings = []
    unmapped = {m.name for m in tree if unit_of(m.name) is None}
    for name in sorted(unmapped):
        module = tree.get(name)
        findings.append(
            Finding(
                "AR-LAYER",
                f"{name}:unmapped",
                f"module {name} is not covered by the layer map — add it "
                "to MODULE_UNITS in repro/lint/arch.py",
                module=name,
                path=module.path if module else "",
            )
        )
    eager_graph: dict[str, set[str]] = {m.name: set() for m in tree}
    for module in tree:
        for edge in import_edges(module, tree):
            if edge.imported == module.name:
                continue
            if edge.importer in unmapped or edge.imported in unmapped:
                continue
            src_unit, dst_unit = unit_of(edge.importer), unit_of(edge.imported)
            if dst_unit is None:
                # An import of a module outside the tree (namespace quirks);
                # nothing to rank it against.
                continue
            if not edge.lazy and edge.imported in eager_graph:
                eager_graph[module.name].add(edge.imported)
            if src_unit == dst_unit:
                continue
            if _RANK[src_unit] > _RANK[dst_unit]:
                continue
            kind = "lazy " if edge.lazy else ""
            findings.append(
                Finding(
                    "AR-LAYER",
                    f"{module.name}->{edge.imported}",
                    f"{kind}import of {edge.imported} ({dst_unit}) from "
                    f"{module.name} ({src_unit}) points up the layer map "
                    f"{' -> '.join(LAYERS)}"
                    + (
                        "; waive with a reason if this is a deliberate "
                        "inversion" if edge.lazy else ""
                    ),
                    module=module.name,
                    path=module.path,
                    line=edge.line,
                    detail={"lazy": edge.lazy},
                )
            )
    findings.extend(_cycle_findings(eager_graph, tree))
    return findings


def _cycle_findings(graph: dict[str, set[str]], tree: SourceTree) -> list[Finding]:
    """Module-level cycles among eager edges (iterative DFS, path tracked)."""
    done: set[str] = set()
    findings = []
    for start in sorted(graph):
        if start in done:
            continue
        # Each frame is (module, child iterator); ``path`` mirrors the stack.
        stack = [(start, iter(sorted(graph[start])))]
        path, on_path = [start], {start}
        while stack:
            node, children = stack[-1]
            succ = next(children, None)
            if succ is None:
                stack.pop()
                path.pop()
                on_path.discard(node)
                done.add(node)
                continue
            if succ in on_path:
                cycle = path[path.index(succ):] + [succ]
                module = tree.get(succ)
                findings.append(
                    Finding(
                        "AR-LAYER",
                        f"cycle:{succ}",
                        "module-level import cycle: " + " -> ".join(cycle),
                        module=succ,
                        path=module.path if module else "",
                    )
                )
            elif succ not in done:
                stack.append((succ, iter(sorted(graph[succ]))))
                path.append(succ)
                on_path.add(succ)
    return findings


# ------------------------------------------------------------------- AR-STDLIB
def check_stdlib(tree: SourceTree) -> list[Finding]:
    """Stdlib-only / internal-only import policy."""
    findings = []
    stdlib = sys.stdlib_module_names
    for module in tree:
        root_pkg = module.name.split(".")[0]
        strict = module.name in STDLIB_ONLY
        internal = unit_of(module.name) in INTERNAL_ONLY_UNITS
        if not (strict or internal):
            continue
        for node, _lazy in _iter_imports(module.tree):
            for target in _import_targets(node, module.name):
                top = target.split(".")[0]
                if top in stdlib or top == "__future__":
                    continue
                if top == root_pkg:
                    if not strict:
                        continue
                    message = (
                        f"{module.name} is stdlib-only by contract (workers "
                        f"import it with zero package baggage) but imports "
                        f"{target}"
                    )
                else:
                    message = (
                        f"{module.name} sits in the pure-python "
                        f"'{unit_of(module.name)}' unit but imports the "
                        f"third-party module {target}"
                    )
                findings.append(
                    Finding(
                        "AR-STDLIB",
                        f"{module.name}->{target}",
                        message,
                        module=module.name,
                        path=module.path,
                        line=node.lineno,
                    )
                )
    return findings


# -------------------------------------------------------------------- AR-CLOCK
_CLOCK_NAMES = frozenset({"monotonic", "perf_counter", "time"})
#: Real clocks a stage's ``run`` may not even reference: every context
#: carries a governor, so a stage times itself on ``ctx.governor.clock``.
_STAGE_CLOCK_NAMES = frozenset({"monotonic", "perf_counter"})


def check_clocks(tree: SourceTree) -> list[Finding]:
    """Bare wall-clock *calls* outside the budget unit, and any real-clock
    reference inside a stage's ``run(self, ctx)``.

    Referencing ``time.monotonic`` as an injectable default
    (``clock = clock if clock is not None else time.monotonic``) is the
    sanctioned idiom and is not flagged — only direct calls are, because a
    direct call cannot be faked by deadline tests.  A stage has no such
    default to offer: ``ctx.governor.clock`` is always there, so a real
    clock in its ``run`` would only bypass the governor's fakeable one.
    """
    findings = []
    for module in tree:
        if unit_of(module.name) == "budget":
            continue
        aliased = {
            alias.asname or alias.name: alias.name
            for node, _ in _iter_imports(module.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names
            if alias.name in _CLOCK_NAMES
        }
        called = set()
        for call, qualname in _walk_calls(module.tree):
            name = _clock_name(call.func, aliased, _CLOCK_NAMES)
            if name is None:
                continue
            called.add(id(call.func))
            findings.append(
                Finding(
                    "AR-CLOCK",
                    f"{module.name}:{qualname or '<module>'}",
                    f"bare {name}() call — accept an injectable `clock=` "
                    "(defaulting to the real clock) so deadline behaviour "
                    "stays testable with a fake clock",
                    module=module.name,
                    path=module.path,
                    line=call.lineno,
                )
            )
        for qualname, method in _stage_run_methods(module.tree):
            for node in ast.walk(method):
                name = _clock_name(node, aliased, _STAGE_CLOCK_NAMES)
                if name is None or id(node) in called:
                    continue
                findings.append(
                    Finding(
                        "AR-CLOCK",
                        f"{module.name}:{qualname}",
                        f"{name} referenced in a stage's run() — time the "
                        "stage on `ctx.governor.clock`, which every context "
                        "carries",
                        module=module.name,
                        path=module.path,
                        line=node.lineno,
                    )
                )
    return findings


def _clock_name(node: ast.AST, aliased: dict[str, str], names) -> str | None:
    """The real clock ``node`` names (``time.<name>`` or a from-import
    alias of one of ``names``), else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
        and node.attr in names
    ):
        return f"time.{node.attr}"
    if isinstance(node, ast.Name) and aliased.get(node.id) in names:
        return node.id
    return None


def _stage_run_methods(tree: ast.Module):
    """Yield ``(qualname, FunctionDef)`` for every ``run(self, ctx)``
    method — the stage protocol's one entry point."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (
                isinstance(method, ast.FunctionDef)
                and method.name == "run"
                and [arg.arg for arg in method.args.args] == ["self", "ctx"]
            ):
                yield f"{cls.name}.run", method


def _walk(tree: ast.Module):
    """Yield ``(node, enclosing_qualname)`` over the whole module."""

    def rec(node: ast.AST, qual: str):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qual}.{child.name}" if qual else child.name
            yield child, qual
            yield from rec(child, inner)

    yield from rec(tree, "")


def _walk_calls(tree: ast.Module):
    """Yield ``(Call, enclosing_qualname)`` over the whole module."""
    return ((node, qual) for node, qual in _walk(tree) if isinstance(node, ast.Call))


# ------------------------------------------------------------------ AR-VIEWSCAN
#: Units on the saturation hot path: rule guards, conditions and analysis
#: hooks run per match or per rebuilt node.
_HOT_PATH_UNITS = frozenset({"rewrites", "analysis"})


def check_view_scans(tree: SourceTree) -> list[Finding]:
    """``.nodes`` reads on an e-class view inside the hot-path units.

    ``egraph[c].nodes`` (or ``eclass.nodes`` for a name bound to
    ``egraph[c]`` or to an item of ``egraph.classes()``) builds an
    :class:`ENode` view of every member of the class — to find the few
    with one operator.  ``egraph.members(c, op)`` filters on the core's op
    column first and builds views of the matches only.
    """
    findings = []
    for module in tree:
        if unit_of(module.name) not in _HOT_PATH_UNITS:
            continue
        views = _view_names(module.tree)
        for node, qualname in _walk(module.tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "nodes"):
                continue
            value = node.value
            if isinstance(value, ast.Subscript) or (
                isinstance(value, ast.Name) and value.id in views
            ):
                findings.append(
                    Finding(
                        "AR-VIEWSCAN",
                        f"{module.name}:{qualname or '<module>'}",
                        f"`{ast.unparse(node)}` builds a view of every member "
                        "of the class — probe with `egraph.members(class_id, "
                        "op)`, which filters on the core's op column first",
                        module=module.name,
                        path=module.path,
                        line=node.lineno,
                    )
                )
    return findings


def _view_names(tree: ast.Module) -> set[str]:
    """Names a module binds to an e-class view: ``x = egraph[c]`` or
    ``for x in egraph.classes()``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (
            isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Attribute)
            and node.iter.func.attr == "classes"
        ):
            names.add(node.target.id)
    return names


# ------------------------------------------------------------------- AR-GLOBAL
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict", "WeakValueDictionary", "WeakKeyDictionary"}
)


def _is_mutable_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


def module_mutable_globals(module: SourceModule) -> dict[str, int]:
    """Module-level names bound to mutable containers -> definition line."""
    out: dict[str, int] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                out[target.id] = stmt.lineno
    return out


def check_globals(tree: SourceTree) -> list[Finding]:
    """Mutable module-level containers outside the audited allowlist."""
    findings = []
    for module in tree:
        for name, line in module_mutable_globals(module).items():
            if (module.name, name) in SHARED_STATE_ALLOWLIST:
                continue
            findings.append(
                Finding(
                    "AR-GLOBAL",
                    f"{module.name}:{name}",
                    f"module-level mutable container {name!r} — shared "
                    "state must be in SHARED_STATE_ALLOWLIST with an audit "
                    "reason (or become immutable / instance state)",
                    module=module.name,
                    path=module.path,
                    line=line,
                )
            )
    return findings


def check_arch(tree: SourceTree) -> list[Finding]:
    """All architectural checks over one source tree."""
    return (
        check_layers(tree)
        + check_stdlib(tree)
        + check_clocks(tree)
        + check_view_scans(tree)
        + check_globals(tree)
    )
