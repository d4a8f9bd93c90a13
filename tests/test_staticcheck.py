"""Repo invariants: the IR verifiers and seven static rules, as tier-1 tests.

Each rule is a plain function from the parsed first-party files -- a list
of (repo-relative path, ``ast.Module``) pairs -- to its failures, one
``path:line: rule-id message`` line each.  One module-scoped fixture
parses ``src/`` and ``tests/`` once, and one test per rule asserts that
HEAD has no failure outside that rule's allow-list:

* ``ir-verify`` -- netlist and ``PackedPlan`` structural invariants
  (:mod:`ir_verifiers`) on random netlists and on a wide-gate netlist;
* ``dict-engine-hotpath`` -- hot-path modules never call a slow
  reference oracle;
* ``store-open`` -- result-store files are opened only by
  ``campaign/store.py``, under its fcntl discipline;
* ``unordered-iteration`` -- fingerprint and cache-key functions never
  iterate a set, whose order differs between processes;
* ``span-pairing`` -- telemetry spans are opened by ``with``, so their
  exit is exception-safe;
* ``bounded-cache`` -- module- and class-level caches in ``src/`` are
  bounded ``LRUCache`` or weakref mappings;
* ``worker-shared-state`` -- no module reachable from the campaign
  workers mutates module-level state outside a lock.

The IR corruption tests plant each class of broken netlist or plan and
check the verifiers name it precisely; the source-rule tests plant one
violation per rule in a throwaway tree.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings

from differential_spaces import NETLIST_SPACE
from ir_verifiers import verify_netlist, verify_packed_plan
from repro.circuits.generator import random_netlist
from repro.circuits.netlist import Gate, GateType, Netlist
from repro.circuits.ternary import PackedPlan, packed_plan

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Parsed first-party files: (repo-relative path, module AST) pairs.
Files = List[Tuple[str, ast.Module]]


def parse_tree(root: Path, *dirs: str) -> Files:
    """Every ``.py`` file under ``root/<dir>``, in sorted path order.

    A file that does not parse raises, so it fails the run instead of
    escaping every rule.
    """
    files: Files = []
    for base in dirs:
        for path in sorted((root / base).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            files.append(
                (path.relative_to(root).as_posix(), ast.parse(source, filename=str(path)))
            )
    return files


@pytest.fixture(scope="module")
def head() -> Files:
    """One parse of ``src/`` and ``tests/``, shared by every rule test."""
    return parse_tree(REPO_ROOT, "src", "tests")


def _callee_name(call: ast.Call) -> str:
    """The trailing identifier of a call target (``f`` or ``obj.f``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


# ----------------------------------------------------------------------
# ir-verify
# ----------------------------------------------------------------------
def ir_verify(netlist: Netlist) -> List[str]:
    """Failures of ``netlist`` and of the packed plan production builds."""
    problems = verify_netlist(netlist) + verify_packed_plan(packed_plan(netlist))
    return [f"<ir:{netlist.name}>:1: ir-verify {problem}" for problem in problems]


def _wide_netlist() -> Netlist:
    # Gates of four inputs: the ir-verify property's random netlists stop
    # at three, so this is its one source of wide (arity > 3) table rows.
    return Netlist(
        "lint-wide",
        inputs=["a", "b", "c", "d", "e"],
        outputs=["y", "z"],
        gates=[
            Gate("w", GateType.AND, ("a", "b", "c", "d")),
            Gate("x", GateType.XNOR, ("w", "e")),
            Gate("y", GateType.NOR, ("w", "x", "a", "e")),
            Gate("z", GateType.NOT, ("y",)),
        ],
    )


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


def dict_engine_hotpath(files: Files) -> List[str]:
    """Direct calls of a reference oracle inside hot-path modules."""
    failures: List[str] = []
    for path, tree in files:
        hot = path in _HOT_PATH_MODULES or (
            path.startswith(_HOT_PATH_PREFIXES) and path not in _HOT_PATH_DEFINERS
        )
        if not hot:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _callee_name(node) in _REFERENCE_ENTRY_POINTS
            ):
                failures.append(
                    f"{path}:{node.lineno}: dict-engine-hotpath hot-path module "
                    f"calls the dict reference engine ({_callee_name(node)}) "
                    f"directly"
                )
    return failures


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


def store_open(files: Files) -> List[str]:
    """Bare ``open()`` on a result-store path outside ``campaign/store.py``."""
    failures: List[str] = []
    for path, tree in files:
        if path in _STORE_EXEMPT:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _callee_name(node) != "open":
                continue
            if any(_mentions_store_path(arg) for arg in node.args) or any(
                _mentions_store_path(kw.value) for kw in node.keywords
            ):
                failures.append(
                    f"{path}:{node.lineno}: store-open bare open() on a "
                    f"result-store path bypasses the fcntl-locked ResultStore"
                )
    return failures


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


def unordered_iteration(files: Files) -> List[str]:
    """Set iteration inside fingerprint and cache-key functions."""
    failures: List[str] = []
    for path, tree in files:
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_determinism_sensitive(node):
                continue
            for iter_expr, lineno in _iter_sites(node):
                if _is_set_expression(iter_expr):
                    failures.append(
                        f"{path}:{iter_expr.lineno or lineno}: "
                        f"unordered-iteration unordered set iteration inside "
                        f"determinism-sensitive {node.name}()"
                    )
    return failures


# ----------------------------------------------------------------------
# span-pairing
# ----------------------------------------------------------------------
_SPAN_EXEMPT_PREFIX = "src/repro/telemetry/"


def span_pairing(files: Files) -> List[str]:
    """Telemetry ``.span()`` calls that are not a ``with`` context."""
    failures: List[str] = []
    for path, tree in files:
        if path.startswith(_SPAN_EXEMPT_PREFIX):
            continue
        with_contexts = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in with_contexts
            ):
                failures.append(
                    f"{path}:{node.lineno}: span-pairing telemetry span opened "
                    f"outside a 'with' block (exit not exception-safe)"
                )
    return failures


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


def bounded_cache(files: Files) -> List[str]:
    """Module- and class-level ``*cache*`` names bound to plain containers."""
    failures: List[str] = []
    for path, tree in files:
        if not path.startswith("src/"):
            continue  # tests may build throwaway dicts named *cache*
        scopes: List[ast.AST] = [tree]
        scopes.extend(
            node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
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
                        failures.append(
                            f"{path}:{stmt.lineno}: bounded-cache module/class-"
                            f"level cache {target.id!r} is an unbounded container"
                        )
    return failures


# ----------------------------------------------------------------------
# worker-shared-state
# ----------------------------------------------------------------------
# Campaign workers import these modules in their own processes, so a
# module-level container they mutate silently diverges from the parent's
# (fork), vanishes (spawn) or races (threads).  Sanctioned shapes are not
# reported: names bound to an LRUCache or weakref mapping (the bounded
# per-process cache idiom), mutations inside register*/clear*/reset*
# functions (import-time registries and test resets) and mutations inside
# a ``with`` block whose context mentions a lock.

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
    rel_path: str, tree: ast.Module, module: str, known: Set[str]
) -> Set[str]:
    """First-party modules ``module`` imports (absolute and relative)."""
    is_package = rel_path.endswith("__init__.py")
    package = module if is_package else module.rpartition(".")[0]
    edges: Set[str] = set()

    def add(candidate: str) -> None:
        # An import of a package pulls in its __init__; an import of
        # ``pkg.name`` where only ``pkg`` is a module means an attribute.
        if candidate in known:
            edges.add(candidate)
        elif candidate.rpartition(".")[0] in known:
            edges.add(candidate.rpartition(".")[0])

    for node in ast.walk(tree):
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


def _reachable_modules(files: Files) -> Set[str]:
    by_module: Dict[str, Tuple[str, ast.Module]] = {}
    for path, tree in files:
        module = _module_name(path)
        if module:
            by_module[module] = (path, tree)
    known = set(by_module)
    frontier = [root for root in WORKER_ROOTS if root in known]
    reachable: Set[str] = set(frontier)
    while frontier:
        module = frontier.pop()
        path, tree = by_module[module]
        for edge in _import_edges(path, tree, module, known):
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


def worker_shared_state(files: Files) -> List[str]:
    """Unguarded mutation of module-level containers that workers import."""
    reachable = _reachable_modules(files)
    failures: List[str] = []
    for path, tree in files:
        if _module_name(path) not in reachable:
            continue
        containers = _module_containers(tree)
        if not containers:
            continue
        finder = _MutationFinder(containers)
        finder.visit(tree)
        for line, name, verb in finder.findings:
            failures.append(
                f"{path}:{line}: worker-shared-state {verb} on module-level "
                f"{name!r} (defined at line {containers[name]}) in a module "
                f"reachable from campaign workers, without lock/queue mediation"
            )
    return failures


# ----------------------------------------------------------------------
# Allow-lists
# ----------------------------------------------------------------------
#: Deliberate findings per rule, keyed by the function that holds them (as
#: pytest names a test), with how many it holds.  The count is exact, so an
#: exception can neither grow nor go stale unnoticed.  Rules not listed
#: allow nothing.
ALLOWED: Dict[object, Dict[str, int]] = {
    span_pairing: {
        # The null recorder's bare span form is itself under test.
        "tests/test_telemetry.py::TestNullRecorder::test_disabled_and_noop": 2,
    },
}


def _function_at(tree: ast.Module, line: int) -> str:
    """``Class::function`` of the innermost definition spanning ``line``."""
    names: List[str] = []
    scope: ast.AST = tree
    while True:
        for node in ast.iter_child_nodes(scope):
            if (
                isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.lineno <= line <= node.end_lineno
            ):
                names.append(node.name)
                scope = node
                break
        else:
            return "::".join(names)


def assert_clean(rule, files: Files) -> None:
    """``rule`` finds nothing in ``files`` beyond its exact allow-list."""
    allowed = ALLOWED.get(rule, {})
    trees = dict(files)
    held: Counter = Counter()
    unexpected: List[str] = []
    for failure in rule(files):
        path, line, _ = failure.split(":", 2)
        where = f"{path}::{_function_at(trees[path], int(line))}"
        if where in allowed:
            held[where] += 1
        else:
            unexpected.append(failure)
    assert unexpected == [], "\n".join(unexpected)
    assert held == allowed, f"allow-list counts changed: {dict(held)}"


class TestRepoInvariants:
    @settings(max_examples=25, deadline=None)
    @given(**NETLIST_SPACE)
    def test_ir_verify(self, seed, num_inputs, num_gates, patterns):
        failures = ir_verify(random_netlist(f"g{seed}", num_inputs, num_gates, seed=seed))
        assert failures == [], "\n".join(failures)

    def test_ir_verify_wide_gates(self):
        failures = ir_verify(_wide_netlist())
        assert failures == [], "\n".join(failures)

    def test_dict_engine_hotpath(self, head):
        assert_clean(dict_engine_hotpath, head)

    def test_store_open(self, head):
        assert_clean(store_open, head)

    def test_unordered_iteration(self, head):
        assert_clean(unordered_iteration, head)

    def test_span_pairing(self, head):
        assert_clean(span_pairing, head)

    def test_bounded_cache(self, head):
        assert_clean(bounded_cache, head)

    def test_worker_shared_state(self, head):
        assert_clean(worker_shared_state, head)

    def test_allow_lists_name_no_src_file(self):
        assert not [
            where for allowed in ALLOWED.values() for where in allowed
            if where.startswith("src/")
        ]


def _fresh_netlist(seed: int = 3) -> Netlist:
    # Fresh instance per test: PackedPlan mutations must not leak into the
    # per-netlist plan caches shared with other tests.
    return random_netlist("lintmut", num_inputs=8, num_gates=40, seed=seed)


def _tiny_netlist() -> Netlist:
    return Netlist(
        "tiny",
        inputs=["a", "b"],
        outputs=["y"],
        gates=[
            Gate("x", GateType.AND, ("a", "b")),
            Gate("y", GateType.OR, ("x", "a")),
        ],
    )


# ----------------------------------------------------------------------
# IR verifiers: clean inputs pass
# ----------------------------------------------------------------------
class TestVerifiersPassOnValidIr:
    def test_netlist_and_plan_clean(self):
        netlist = _fresh_netlist()
        assert verify_netlist(netlist) == []
        assert verify_packed_plan(PackedPlan(netlist)) == []


# ----------------------------------------------------------------------
# IR mutation classes (>= 6, each with a precise message)
# ----------------------------------------------------------------------
class TestIrCorruptionClasses:
    def test_cycle_detected(self):
        netlist = _tiny_netlist()
        # x = AND(a, b)  ->  x = AND(y, b): the pair x <-> y now cycles.
        netlist._gates["x"] = Gate("x", GateType.AND, ("y", "b"))
        problems = verify_netlist(netlist)
        assert any("combinational cycle" in p and "x" in p for p in problems)

    def test_stale_evaluation_order_detected(self):
        netlist = _tiny_netlist()
        netlist._topo_order = ["y", "x"]  # reversed: y reads x
        problems = verify_netlist(netlist)
        assert any("not topological" in p and "'x'" in p for p in problems)

    def test_wrong_level_detected(self):
        plan = PackedPlan(_fresh_netlist())
        plan.row_levels[5] += 1
        problems = verify_packed_plan(plan)
        assert any(
            "row_levels says level" in p and "row 5" in p for p in problems
        )

    def test_stale_table_row_operands_detected(self):
        plan = PackedPlan(_fresh_netlist())
        trows = plan.table_rows()
        output, arity, a, b, c, table = trows[4]
        trows[4] = (output, arity, a ^ 1, b, c, table)
        problems = verify_packed_plan(plan)
        assert any(
            "table_rows[4]: (output, arity, a, b, c)" in p for p in problems
        )

    def test_out_of_range_operand_detected(self):
        plan = PackedPlan(_fresh_netlist())
        output, op, inputs, inverting = plan.rows[3]
        plan.rows[3] = (output, op, (plan.num_nets + 7,) + inputs[1:], inverting)
        problems = verify_packed_plan(plan)
        assert any(
            f"operand index {plan.num_nets + 7} out of range" in p
            for p in problems
        )

    def test_rows_not_topological_detected(self):
        plan = PackedPlan(_tiny_netlist())
        plan.rows[0], plan.rows[1] = plan.rows[1], plan.rows[0]
        plan.row_levels[0], plan.row_levels[1] = (
            plan.row_levels[1], plan.row_levels[0],
        )
        problems = verify_packed_plan(plan)
        assert any("used before definition" in p for p in problems)

    def test_stale_table_rows_detected(self):
        # One wrong state entry: AND(good 1 / faulty X, 1 on both) is good
        # 1 / faulty X; the planted entry claims the faulty machine is 0.
        plan = PackedPlan(_tiny_netlist())
        trows = plan.table_rows()
        output, arity, a, b, c, table = trows[0]
        key = (0b0101 << 4) | 0b1111
        assert (arity, table[key]) == (2, 0b0101)
        planted = list(table)
        planted[key] = 0b0111
        trows[0] = (output, arity, a, b, c, planted)
        problems = verify_packed_plan(plan)
        assert any(
            "table_rows[0]: state table" in p and f"at keys [{key}]" in p
            for p in problems
        )

    def test_stale_cone_rows_detected(self):
        plan = PackedPlan(_fresh_netlist())
        net = next(n for n in range(plan.num_nets) if plan.cone_rows(n))
        plan._cones[net] = plan.cone_rows(net)[1:]
        problems = verify_packed_plan(plan)
        assert any(
            f"cone_rows[{net}]" in p and "fanout search gives" in p
            for p in problems
        )

    def test_region_missing_a_fanin_net_detected(self):
        # Drop a gate net that the region holds only as a fanin: one of
        # the region's rows then reads a net outside it.
        plan = PackedPlan(_fresh_netlist())
        for net in range(plan.num_nets):
            cone = {row[0] for row in plan.cone_rows(net)} | {net}
            fanins = [
                i for i in range(plan.num_inputs, plan.num_nets)
                if plan.fault_region(net) >> i & 1 and i not in cone
            ]
            if fanins:
                break
        plan._region_bits[net] &= ~(1 << fanins[0])
        problems = verify_packed_plan(plan)
        assert any(
            f"fault_region[{net}]" in p and "is not fanin-closed" in p
            and repr(plan.nets[fanins[0]]) in p
            for p in problems
        )

    def test_missing_output_assignment_detected(self):
        plan = PackedPlan(_tiny_netlist())
        plan.output_indices = plan.output_indices[:-1]
        problems = verify_packed_plan(plan)
        assert any(
            "0 output indices for 1 netlist outputs" in p for p in problems
        )


# ----------------------------------------------------------------------
# Source rules over a planted mini-repo, one violation class each
# ----------------------------------------------------------------------
def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _lines(failures: List[str]) -> List[int]:
    return [int(failure.split(":")[1]) for failure in failures]


class TestSourceRules:
    def test_reference_call_in_hot_path_reported(self, tmp_path):
        # The same oracle call in a hot-path module and in the module that
        # defines the oracles: only the first is reported.
        call = "simulate_ternary_reference(netlist, {})\n"
        for rel in ("src/repro/pipeline.py", "src/repro/skip/selection.py"):
            _write(tmp_path, rel, (REPO_ROOT / rel).read_text(encoding="utf-8") + call)
        planted = (tmp_path / "src/repro/pipeline.py").read_text().count("\n")
        hits = dict_engine_hotpath(parse_tree(tmp_path, "src"))
        assert hits == [
            f"src/repro/pipeline.py:{planted}: dict-engine-hotpath hot-path "
            f"module calls the dict reference engine (simulate_ternary_reference) "
            f"directly"
        ]

    def test_bare_store_open_reported(self, tmp_path):
        _write(
            tmp_path, "src/peek.py",
            "def peek(d):\n"
            "    with open(d / 'results.jsonl') as fh:\n"
            "        return fh.read()\n",
        )
        hits = store_open(parse_tree(tmp_path, "src"))
        assert hits and hits[0].startswith("src/peek.py:2: store-open ")

    def test_store_open_exempt_in_store_module(self, tmp_path):
        _write(
            tmp_path, "src/repro/campaign/store.py",
            "def load(d):\n"
            "    return open(d / 'results.jsonl')\n",
        )
        assert store_open(parse_tree(tmp_path, "src")) == []

    def test_unordered_iteration_in_cache_key_reported(self, tmp_path):
        _write(
            tmp_path, "src/keys.py",
            "def cache_key(nets):\n"
            "    parts = [str(n) for n in set(nets)]\n"
            "    return '|'.join(parts)\n"
            "def cache_key_ok(nets):\n"
            "    return '|'.join(str(n) for n in sorted(set(nets)))\n",
        )
        hits = unordered_iteration(parse_tree(tmp_path, "src"))
        assert _lines(hits) == [2] and "cache_key" in hits[0]

    def test_unbounded_module_cache_reported(self, tmp_path):
        _write(
            tmp_path, "src/caches.py",
            "from collections import OrderedDict\n"
            "from repro.lru import LRUCache\n"
            "_BAD_CACHE = {}\n"
            "_WORSE_CACHE = OrderedDict()\n"
            "_GOOD_CACHE = LRUCache(8)\n",
        )
        hits = bounded_cache(parse_tree(tmp_path, "src"))
        assert set(_lines(hits)) == {3, 4}

    def test_span_outside_with_reported(self, tmp_path):
        _write(
            tmp_path, "src/spans.py",
            "def f(rec):\n"
            "    s = rec.span('work')\n"
            "    with rec.span('ok'):\n"
            "        pass\n",
        )
        assert _lines(span_pairing(parse_tree(tmp_path, "src"))) == [2]

    def test_worker_shared_state_reported_and_lock_exempt(self, tmp_path):
        _write(
            tmp_path, "src/repro/campaign/runner.py",
            "from repro.jobs import push\n",
        )
        _write(
            tmp_path, "src/repro/jobs.py",
            "import threading\n"
            "PENDING = {}\n"
            "GUARDED = {}\n"
            "_LOCK = threading.Lock()\n"
            "def push(key, value):\n"
            "    PENDING[key] = value\n"
            "def push_guarded(key, value):\n"
            "    with _LOCK:\n"
            "        GUARDED[key] = value\n"
            "def register_thing(key, value):\n"
            "    PENDING[key] = value\n",
        )
        hits = worker_shared_state(parse_tree(tmp_path, "src"))
        assert len(hits) == 1
        assert hits[0].startswith("src/repro/jobs.py:6: worker-shared-state ")
        assert "'PENDING'" in hits[0]
