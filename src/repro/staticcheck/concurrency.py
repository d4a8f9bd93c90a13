"""Concurrency-hazard checks for the campaign worker processes.

The campaign runner (PR 6) forks/spawns worker processes
(:mod:`repro.campaign.runner`); every module a worker imports is shared
*as code* but its module-level state is per-process -- mutating it from a
worker silently diverges from the parent (fork) or vanishes (spawn), and
under a future thread-based scheduler becomes a data race.  The
``worker-shared-state`` rule flags exactly that shape statically:

1. build the first-party import graph and compute every module reachable
   from the worker entry point (``repro.campaign.runner``);
2. in each reachable module, collect module-level *mutable container*
   bindings (dict/list/set/OrderedDict/defaultdict/deque literals or
   constructors);
3. flag any mutation of those names from inside a function body --
   subscript stores/deletes, augmented assignment, mutating method calls
   (``append``/``update``/``setdefault``/...) and ``global`` rebinds.

Sanctioned shapes are skipped rather than suppressed:

* names bound to :class:`repro.lru.LRUCache` or a ``weakref`` mapping --
  bounded per-process caches are the *approved* module state idiom (the
  ``bounded-cache`` rule enforces the flip side);
* mutations inside ``register*``/``clear*``/``reset*`` functions --
  import-time registry population and explicit test-support resets, the
  same idiom as the lint rule and backend registries;
* mutations inside a ``with`` block whose context expression mentions a
  lock -- lock-mediated access is the documented fix.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.registry import (
    LintContext,
    Rule,
    SourceFile,
    Violation,
    register_rule,
)

#: Worker entry points: reachability roots of the hazard analysis.
WORKER_ROOTS = ("repro.campaign.runner",)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}
)
_SANCTIONED_CONSTRUCTORS = frozenset(
    {"LRUCache", "WeakKeyDictionary", "WeakValueDictionary"}
)
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "popitem", "clear",
        "extend", "remove", "insert", "move_to_end", "discard",
    }
)
_EXEMPT_FUNCTION_PREFIXES = ("register", "clear", "reset")


def _module_name(rel_path: str) -> Optional[str]:
    """``src/repro/campaign/runner.py`` -> ``repro.campaign.runner``."""
    if not rel_path.startswith("src/") or not rel_path.endswith(".py"):
        return None
    dotted = rel_path[len("src/"):-len(".py")].replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _import_edges(
    sf: SourceFile, module: str, known: Set[str]
) -> Set[str]:
    """First-party modules ``module`` imports (absolute and relative)."""
    is_package = sf.rel_path.endswith("__init__.py")
    package = module if is_package else module.rpartition(".")[0]
    edges: Set[str] = set()

    def add(candidate: str) -> None:
        # An import of a package pulls in its __init__; an import of
        # ``pkg.name`` where only ``pkg`` is a module means an attribute.
        if candidate in known:
            edges.add(candidate)
        elif candidate.rpartition(".")[0] in known:
            edges.add(candidate.rpartition(".")[0])

    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                base = f"{base}.{node.module}" if node.module else base
            else:
                base = node.module or ""
            if base.split(".")[0] != "repro":
                continue
            add(base)
            for alias in node.names:
                add(f"{base}.{alias.name}")
    edges.discard(module)
    return edges


def _reachable_modules(context: LintContext) -> Set[str]:
    by_module: Dict[str, SourceFile] = {}
    for sf in context.files:
        module = _module_name(sf.rel_path)
        if module:
            by_module[module] = sf
    known = set(by_module)
    frontier = [root for root in WORKER_ROOTS if root in known]
    reachable: Set[str] = set(frontier)
    while frontier:
        module = frontier.pop()
        for edge in _import_edges(by_module[module], module, known):
            if edge not in reachable:
                reachable.add(edge)
                frontier.append(edge)
    return reachable


def _module_containers(tree: ast.Module) -> Dict[str, int]:
    """Module-level mutable container names -> defining line."""
    containers: Dict[str, int] = {}
    sanctioned: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        )
        bounded = False
        if isinstance(value, ast.Call):
            callee = value.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            mutable = mutable or name in _MUTABLE_CONSTRUCTORS
            bounded = name in _SANCTIONED_CONSTRUCTORS
        for target in targets:
            if isinstance(target, ast.Name):
                if bounded:
                    sanctioned.add(target.id)
                elif mutable:
                    containers[target.id] = stmt.lineno
    for name in sanctioned:
        containers.pop(name, None)
    return containers


class _MutationFinder(ast.NodeVisitor):
    """Mutations of the given module-level names inside function bodies."""

    def __init__(self, names: Dict[str, int]):
        self.names = names
        self.findings: List[Tuple[int, str, str]] = []  # line, name, verb
        self._function_stack: List[ast.FunctionDef] = []
        self._lock_depth = 0
        self._locals_stack: List[Set[str]] = []

    # -- scope tracking ------------------------------------------------
    def _enter_function(self, node) -> None:
        local: Set[str] = {a.arg for a in node.args.args}
        local.update(a.arg for a in node.args.kwonlyargs)
        if node.args.vararg:
            local.add(node.args.vararg.arg)
        if node.args.kwarg:
            local.add(node.args.kwarg.arg)
        declared_global: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.For,
                                  ast.withitem)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign)
                    else [sub.target] if isinstance(sub, ast.AnnAssign)
                    else [sub.target] if isinstance(sub, ast.For)
                    else [sub.optional_vars] if sub.optional_vars else []
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        self._locals_stack.append(local - declared_global)
        self._function_stack.append(node)

    def _exit_function(self) -> None:
        self._function_stack.pop()
        self._locals_stack.pop()

    def _exempt(self) -> bool:
        if self._lock_depth:
            return True
        return any(
            fn.name.lstrip("_").startswith(_EXEMPT_FUNCTION_PREFIXES)
            for fn in self._function_stack
        )

    def _is_shared(self, name: str) -> bool:
        if name not in self.names or not self._function_stack:
            return False
        return not any(name in local for local in self._locals_stack)

    def _record(self, line: int, name: str, verb: str) -> None:
        if not self._exempt():
            self.findings.append((line, name, verb))

    # -- visitors ------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._exit_function()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        guarded = any(
            "lock" in ast.unparse(item.context_expr).lower()
            for item in node.items
        )
        if guarded:
            self._lock_depth += 1
        self.generic_visit(node)
        if guarded:
            self._lock_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, verb="augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and self._is_shared(target.value.id)
            ):
                self._record(node.lineno, target.value.id, "item deletion")
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            if name in self.names and self._function_stack:
                self._record(node.lineno, name, "global rebind")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and self._is_shared(func.value.id)
        ):
            self._record(node.lineno, func.value.id, f".{func.attr}()")
        self.generic_visit(node)

    def _check_store_target(self, target: ast.expr, verb: str = "item store"):
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and self._is_shared(target.value.id)
        ):
            self._record(target.lineno, target.value.id, verb)


def _run_worker_shared_state(context: LintContext) -> List[Violation]:
    reachable = _reachable_modules(context)
    violations: List[Violation] = []
    for sf in context.files:
        module = _module_name(sf.rel_path)
        if module not in reachable:
            continue
        containers = _module_containers(sf.tree)
        if not containers:
            continue
        finder = _MutationFinder(containers)
        finder.visit(sf.tree)
        for line, name, verb in finder.findings:
            violations.append(
                RULE_WORKER_SHARED_STATE.violation(
                    sf.rel_path,
                    line,
                    f"{verb} on module-level {name!r} (defined at line "
                    f"{containers[name]}) in a module reachable from "
                    f"campaign workers, without lock/queue mediation",
                )
            )
    return violations


RULE_WORKER_SHARED_STATE = register_rule(
    Rule(
        name="worker-shared-state",
        description=(
            "mutable module-level state reachable from campaign worker "
            "entry points mutated without lock/queue mediation"
        ),
        run=_run_worker_shared_state,
        fix_hint=(
            "mediate through a lock/queue, move the state into the worker "
            "payload, or make it a bounded LRUCache (per-process cache)"
        ),
    )
)
