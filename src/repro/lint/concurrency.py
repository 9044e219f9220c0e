"""Concurrency checker: shared-state writes reachable from worker code.

``Session`` fans jobs over a process pool, ``run_shard_task`` runs inside
nested pools, and the service daemon drains its queue on a worker *thread*
sharing the interpreter with request handling.  Any write to module-level
mutable state reachable from those entry points is a race in the thread
case and a silent divergence (per-process copies) in the pool case —
unless the object is audited immutable-after-import or idempotent.

The call graph is deliberately conservative: calls resolve by name through
each module's imports, and bare method calls (``obj.meth()``) over-
approximate to *every* known function of that name in the modules the
worker can reach.  False negatives (a write the walk misses) are worse
than false positives (a waivable finding), so resolution errs broad.

The same walk flags calls that reset interpreter-wide settings
(``CC-SETTER``): the recursion limit, the thread switch interval, the
cyclic collector's switches and thresholds, the working directory.  On the
daemon's drain thread such a call changes every other thread's interpreter
mid-flight, and a save/restore pair around it races with any other thread
doing the same.  Reading a setting or running ``gc.collect`` is not a
setter and stays allowed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.arch import import_edges, module_mutable_globals
from repro.lint.model import Finding, SourceModule, SourceTree

#: The known fan-out entry points: module -> function qualnames whose
#: transitive callees run on pool workers or the daemon's drain thread.
WORKER_ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "repro.pipeline.session": ("execute_job",),
    "repro.pipeline.shard": ("run_shard_task",),
    "repro.service.daemon": ("OptimizationDaemon._drain_loop",),
}

#: (module, global name) -> why worker-reachable writes are safe.  These
#: overlap the arch allowlist on purpose: the arch rule audits *existence*
#: of shared state, this one audits *writes from workers*.
AUDITED_WRITES: dict[tuple[str, str], str] = {
    ("repro.rewrites.rulesets", "_COMPOSE_CACHE"):
        "memo insert of a pure function of the key; double-compute under a "
        "race yields an identical tuple, and pool workers own private copies",
    ("repro.designs.registry", "_ROOTS_CACHE"):
        "elaborated-IR memo keyed by design name; registry designs are "
        "immutable so double-parse yields an equal mapping, and each pool "
        "worker owns a private copy",
    ("repro.synth.cost", "_MODEL_MEMO"):
        "delay/area-model memo; the value is a pure function of the key, so "
        "a racy double-compute inserts an identical tuple (dict item "
        "assignment is atomic under the GIL for the daemon's thread)",
}


#: Calls that set interpreter- or process-wide state.
PROCESS_SETTERS = frozenset({
    "sys.setrecursionlimit", "sys.setswitchinterval",
    "gc.disable", "gc.enable", "gc.freeze", "gc.set_threshold",
    "os.chdir",
})


@dataclass(frozen=True)
class _Def:
    """One function/method definition and its module."""

    module: str
    qualname: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"


def _collect_defs(module: SourceModule) -> dict[str, _Def]:
    """qualname -> def for every function/method in a module."""
    defs: dict[str, _Def] = {}

    def rec(node: ast.AST, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}" if qual else child.name
                defs[name] = _Def(module.name, name, child)
                rec(child, name)
            elif isinstance(child, ast.ClassDef):
                rec(child, f"{qual}.{child.name}" if qual else child.name)
            else:
                rec(child, qual)

    rec(module.tree, "")
    return defs


def _imported_names(module: SourceModule, tree: SourceTree) -> dict[str, str]:
    """Local name -> module it refers to (module aliases and from-imports)."""
    out: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                deeper = f"{node.module}.{alias.name}"
                out[alias.asname or alias.name] = (
                    deeper if deeper in tree else node.module
                )
    return out


class _Index:
    """Cross-module def/import/global index the reachability walk reads."""

    def __init__(self, tree: SourceTree) -> None:
        self.tree = tree
        self.defs: dict[str, dict[str, _Def]] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self.globals: dict[str, dict[str, int]] = {}
        self.by_bare_name: dict[str, list[_Def]] = {}
        for module in tree:
            defs = _collect_defs(module)
            self.defs[module.name] = defs
            self.imports[module.name] = _imported_names(module, tree)
            self.globals[module.name] = module_mutable_globals(module)
            for d in defs.values():
                self.by_bare_name.setdefault(
                    d.qualname.rsplit(".", 1)[-1], []
                ).append(d)
        self.reachable_modules: dict[str, set[str]] = {
            m.name: self._module_closure(m.name) for m in tree
        }

    def _module_closure(self, start: str) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            module = self.tree.get(stack.pop())
            if module is None:
                continue
            for edge in import_edges(module, self.tree):
                target = edge.imported
                while target and target not in self.tree and "." in target:
                    target = target.rsplit(".", 1)[0]
                if target in self.tree and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen


def _callees(defn: _Def, index: _Index) -> list[_Def]:
    """Conservatively resolve every call inside one function."""
    out: list[_Def] = []
    local_defs = index.defs[defn.module]
    imports = index.imports[defn.module]
    reach = index.reachable_modules[defn.module]
    for node in ast.walk(defn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in local_defs:
                out.append(local_defs[name])
            elif name in imports:
                # `from mod import f` — find f in mod.
                target = imports[name]
                mod, bare = (
                    target.rsplit(".", 1) if "." in target else (target, name)
                )
                if target in index.defs and name in index.defs[target]:
                    out.append(index.defs[target][name])
                elif mod in index.defs and bare in index.defs[mod]:
                    out.append(index.defs[mod][bare])
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in imports:
                target = imports[func.value.id]
                if target in index.defs and func.attr in index.defs[target]:
                    out.append(index.defs[target][func.attr])
                    continue
            # Bare method call: over-approximate to every same-named def in
            # the modules this worker can even reach (class constructors
            # resolve the same way: `Saturate(...)` then `.run` is covered
            # by the method-name fan-out).
            for candidate in index.by_bare_name.get(func.attr, ()):
                if candidate.module in reach:
                    out.append(candidate)
    return out


def _global_writes(defn: _Def, index: _Index) -> list[tuple[str, str, int]]:
    """(module, global name, line) for each module-global mutation."""
    module_globals = index.globals.get(defn.module, {})
    imports = index.imports[defn.module]
    declared_global = {
        name
        for node in ast.walk(defn.node)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    writes: list[tuple[str, str, int]] = []

    def classify(name_node: ast.expr) -> tuple[str, str] | None:
        """Resolve a mutation target to (module, global) or None."""
        if isinstance(name_node, ast.Name):
            if name_node.id in module_globals or name_node.id in declared_global:
                return (defn.module, name_node.id)
            return None
        if (
            isinstance(name_node, ast.Attribute)
            and isinstance(name_node.value, ast.Name)
            and name_node.value.id in imports
        ):
            target = imports[name_node.value.id]
            if name_node.attr in index.globals.get(target, {}):
                return (target, name_node.attr)
        return None

    _MUTATORS = {
        "append", "add", "update", "setdefault", "pop", "clear", "extend",
        "insert", "discard", "popitem", "remove", "__setitem__",
    }
    for node in ast.walk(defn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    hit = classify(target.value)
                    if hit:
                        writes.append((*hit, node.lineno))
                elif isinstance(target, ast.Name) and target.id in declared_global:
                    writes.append((defn.module, target.id, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                hit = classify(node.func.value)
                if hit:
                    writes.append((*hit, node.lineno))
    return writes


def _setter_calls(defn: _Def, index: _Index) -> dict[str, int]:
    """``module.function`` -> first line, for each :data:`PROCESS_SETTERS`
    entry the function calls, as ``sys.setrecursionlimit(...)`` (module
    aliases resolved) or as a name imported with ``from sys import
    setrecursionlimit``.  A save/restore pair is one entry."""
    imports = index.imports[defn.module]
    calls: dict[str, int] = {}
    for node in ast.walk(defn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            setter = f"{imports.get(func.value.id)}.{func.attr}"
        elif isinstance(func, ast.Name):
            setter = f"{imports.get(func.id)}.{func.id}"
        else:
            continue
        if setter in PROCESS_SETTERS:
            calls[setter] = min(node.lineno, calls.get(setter, node.lineno))
    return calls


def check_concurrency(
    tree: SourceTree,
    entry_points: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """Flag worker-reachable writes to module-level mutable state and
    worker-reachable calls that reset interpreter-wide settings."""
    entries = WORKER_ENTRY_POINTS if entry_points is None else entry_points
    index = _Index(tree)

    roots = []
    for module_name, qualnames in entries.items():
        defs = index.defs.get(module_name, {})
        for qualname in qualnames:
            if qualname in defs:
                roots.append(defs[qualname])

    reachable: dict[tuple[str, str], _Def] = {}
    stack = list(roots)
    while stack:
        defn = stack.pop()
        key = (defn.module, defn.qualname)
        if key in reachable:
            continue
        reachable[key] = defn
        stack.extend(_callees(defn, index))

    findings = []
    seen: set[tuple[str, str, str, str]] = set()
    for defn in reachable.values():
        module = index.tree.get(defn.module)
        for mod, name, line in _global_writes(defn, index):
            if (mod, name) in AUDITED_WRITES:
                continue
            key = (defn.module, defn.qualname, mod, name)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    "CC-SHARED",
                    f"{defn.module}:{defn.qualname}:{name}",
                    f"{defn.qualname} (reachable from a worker entry point) "
                    f"writes module-level state {mod}.{name} — audit it into "
                    "AUDITED_WRITES with a reason, guard it with a lock, or "
                    "move it into instance state",
                    module=defn.module,
                    path=module.path if module else "",
                    line=line,
                    detail={"target": f"{mod}.{name}"},
                )
            )
        for setter, line in _setter_calls(defn, index).items():
            findings.append(
                Finding(
                    "CC-SETTER",
                    f"{defn.module}:{defn.qualname}:{setter}",
                    f"{defn.qualname} (reachable from a worker entry point) "
                    f"calls {setter}, which changes interpreter-wide state "
                    "under every other thread — make the code need no such "
                    "setting, or set it once at process start",
                    module=defn.module,
                    path=module.path if module else "",
                    line=line,
                    detail={"target": setter},
                )
            )
    return findings
