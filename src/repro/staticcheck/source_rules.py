"""Repo-specific AST lint rules over first-party ``src/`` and ``tests/``.

Each rule encodes one discipline the codebase converged on and that used
to be enforced only by review or by dynamic failure:

* ``dict-engine-hotpath`` -- the dict-based reference engine exists for
  differential checking; hot-path modules must run the packed / event
  engines instead of calling it directly.
* ``store-open`` -- ``results.jsonl`` and its writer lock are only safe
  under the fcntl discipline of :class:`repro.campaign.store.ResultStore`.
* ``unordered-iteration`` -- fingerprints and cache keys must be
  bit-stable across processes; iterating a ``set`` there is a
  nondeterminism bug even when it happens to pass locally.
* ``span-pairing`` -- telemetry spans must use the context-manager form so
  the exit is exception-safe; a bare ``.span()`` call can leak an open
  span.
* ``bounded-cache`` -- every module- or class-level cache must be a
  :class:`repro.lru.LRUCache` (or a weakref mapping); ad-hoc dict caches
  grow without bound under campaign workloads.

Rules only *report*; whether a finding is acceptable in context is a
per-line ``# repro-lint: disable=<rule>`` decision at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.staticcheck.registry import (
    LintContext,
    Rule,
    SourceFile,
    Violation,
    register_rule,
)


def _callee_name(call: ast.Call) -> str:
    """The trailing identifier of a call target (``f`` or ``obj.f``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _in_src(sf: SourceFile) -> bool:
    return sf.rel_path.startswith("src/")


# ----------------------------------------------------------------------
# dict-engine-hotpath
# ----------------------------------------------------------------------
_REFERENCE_ENTRY_POINTS = frozenset(
    {"simulate_ternary_reference", "build_embedding_map_reference",
     "select_useful_segments_reference"}
)
#: Modules on the simulation hot path: production runs go through them, so a
#: call into a slow reference oracle there would silently slow every run.
#: Deliberately absent: ``circuits/simulator.py`` and ``skip/selection.py``
#: (they *define* the reference implementations) and ``circuits/atpg.py``
#: (hosts the reference PODEM, reached only through ``engine="reference"``).
_HOT_PATH_PREFIXES = ("src/repro/encoding/", "src/repro/skip/")
_HOT_PATH_MODULES = frozenset(
    {
        "src/repro/circuits/fault_sim.py",
        "src/repro/circuits/ternary.py",
        "src/repro/pipeline.py",
        "src/repro/context.py",
        "src/repro/campaign/runner.py",
        "src/repro/decompressor/architecture.py",
    }
)
_HOT_PATH_DEFINERS = frozenset(
    {"src/repro/skip/selection.py", "src/repro/skip/__init__.py"}
)


def _run_dict_engine_hotpath(context: LintContext) -> List[Violation]:
    violations: List[Violation] = []
    for sf in context.files:
        hot = sf.rel_path in _HOT_PATH_MODULES or (
            sf.rel_path.startswith(_HOT_PATH_PREFIXES)
            and sf.rel_path not in _HOT_PATH_DEFINERS
        )
        if not hot:
            continue
        for node in ast.walk(sf.tree):
            if (
                isinstance(node, ast.Call)
                and _callee_name(node) in _REFERENCE_ENTRY_POINTS
            ):
                violations.append(
                    RULE_DICT_ENGINE_HOTPATH.violation(
                        sf.rel_path,
                        node.lineno,
                        f"hot-path module calls the dict reference engine "
                        f"({_callee_name(node)}) directly",
                    )
                )
    return violations


RULE_DICT_ENGINE_HOTPATH = register_rule(
    Rule(
        name="dict-engine-hotpath",
        description=(
            "direct dict-reference-engine calls inside hot-path modules"
        ),
        run=_run_dict_engine_hotpath,
        fix_hint=(
            "call the packed core (simulate_ternary, build_embedding_map); "
            "the reference oracles belong in tests"
        ),
    )
)


# ----------------------------------------------------------------------
# store-open
# ----------------------------------------------------------------------
_STORE_PATH_MARKERS = ("results.jsonl", ".writer.lock")
_STORE_EXEMPT = frozenset({"src/repro/campaign/store.py"})


def _mentions_store_path(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if any(marker in sub.value for marker in _STORE_PATH_MARKERS):
                return True
    return False


def _run_store_open(context: LintContext) -> List[Violation]:
    violations: List[Violation] = []
    for sf in context.files:
        if sf.rel_path in _STORE_EXEMPT:
            continue
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call) or _callee_name(node) != "open":
                continue
            if any(_mentions_store_path(arg) for arg in node.args) or any(
                _mentions_store_path(kw.value) for kw in node.keywords
            ):
                violations.append(
                    RULE_STORE_OPEN.violation(
                        sf.rel_path,
                        node.lineno,
                        "bare open() on a result-store path bypasses the "
                        "fcntl-locked ResultStore",
                    )
                )
    return violations


RULE_STORE_OPEN = register_rule(
    Rule(
        name="store-open",
        description=(
            "bare open() on results.jsonl/store paths outside "
            "campaign/store.py"
        ),
        run=_run_store_open,
        fix_hint=(
            "read through ResultStore.iter_records()/append() so the fcntl "
            "writer lock and atomic-append discipline apply"
        ),
    )
)


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
def _is_determinism_sensitive(fn: ast.FunctionDef) -> bool:
    """Hash-feeding functions, whose output must be stable across processes."""
    name = fn.name.lower()
    return "fingerprint" in name or "cache_key" in name


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = _callee_name(node)
        if callee in ("set", "frozenset"):
            return True
        if callee == "sorted":  # sorted(set(...)) is the sanctioned form
            return False
    return False


def _iter_sites(fn: ast.FunctionDef) -> Iterable[Tuple[ast.expr, int]]:
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node.lineno
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, node.lineno


def _run_unordered_iteration(context: LintContext) -> List[Violation]:
    violations: List[Violation] = []
    for sf in context.files:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_determinism_sensitive(node):
                continue
            for iter_expr, lineno in _iter_sites(node):
                if _is_set_expression(iter_expr):
                    violations.append(
                        RULE_UNORDERED_ITERATION.violation(
                            sf.rel_path,
                            iter_expr.lineno or lineno,
                            f"unordered set iteration inside "
                            f"determinism-sensitive {node.name}()",
                        )
                    )
    return violations


RULE_UNORDERED_ITERATION = register_rule(
    Rule(
        name="unordered-iteration",
        description=(
            "set iteration feeding fingerprint()/cache_key() "
            "(cross-process nondeterminism)"
        ),
        run=_run_unordered_iteration,
        fix_hint="wrap the iterable in sorted(...) to pin the order",
    )
)


# ----------------------------------------------------------------------
# span-pairing
# ----------------------------------------------------------------------
_SPAN_EXEMPT_PREFIX = "src/repro/telemetry/"


def _run_span_pairing(context: LintContext) -> List[Violation]:
    violations: List[Violation] = []
    for sf in context.files:
        if sf.rel_path.startswith(_SPAN_EXEMPT_PREFIX):
            continue
        with_contexts = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(sf.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in with_contexts
            ):
                violations.append(
                    RULE_SPAN_PAIRING.violation(
                        sf.rel_path,
                        node.lineno,
                        "telemetry span opened outside a 'with' block "
                        "(exit not exception-safe)",
                    )
                )
    return violations


RULE_SPAN_PAIRING = register_rule(
    Rule(
        name="span-pairing",
        description=(
            "telemetry .span() calls not used as a context manager "
            "(enter without guaranteed exit)"
        ),
        run=_run_span_pairing,
        fix_hint="use 'with recorder.span(name):' so exit always pairs enter",
    )
)


# ----------------------------------------------------------------------
# bounded-cache
# ----------------------------------------------------------------------
_UNBOUNDED_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}
)
_BOUNDED_CONSTRUCTORS = frozenset(
    {"LRUCache", "WeakKeyDictionary", "WeakValueDictionary"}
)


def _unbounded_cache_value(value: Optional[ast.expr]) -> bool:
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        callee = _callee_name(value)
        if callee in _BOUNDED_CONSTRUCTORS:
            return False
        return callee in _UNBOUNDED_CONSTRUCTORS
    return False


def _run_bounded_cache(context: LintContext) -> List[Violation]:
    violations: List[Violation] = []
    for sf in context.files:
        if not _in_src(sf):
            continue  # tests may build throwaway dicts named *cache*
        scopes: List[ast.AST] = [sf.tree]
        scopes.extend(
            node for node in ast.walk(sf.tree) if isinstance(node, ast.ClassDef)
        )
        for scope in scopes:
            for stmt in scope.body:  # type: ignore[attr-defined]
                targets: List[ast.expr]
                value: Optional[ast.expr]
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Name)
                        and "cache" in target.id.lower()
                    ):
                        continue
                    if _unbounded_cache_value(value):
                        violations.append(
                            RULE_BOUNDED_CACHE.violation(
                                sf.rel_path,
                                stmt.lineno,
                                f"module/class-level cache {target.id!r} is "
                                f"an unbounded container",
                            )
                        )
    return violations


RULE_BOUNDED_CACHE = register_rule(
    Rule(
        name="bounded-cache",
        description=(
            "module/class-level caches that are plain containers instead of "
            "bounded LRUCache/weakref mappings"
        ),
        run=_run_bounded_cache,
        fix_hint=(
            "use repro.lru.LRUCache(bound) or a "
            "weakref.WeakKeyDictionary for identity-keyed plans"
        ),
    )
)
