"""Static verification subsystem: find whole bug classes before running.

The reproduction spans a fast simulation engine with slow reference
oracles beside it, several fingerprint/cache-key-driven caches and an
fcntl-locked concurrent result store.  Every invariant holding that together used to be checked only
dynamically -- when a test happened to hit it.  This package is the static
counterpart of the differential property tests: where those find
violations *after* executing a case, the analyzers here reject whole
violation classes without running a single simulation.

Three analyzer layers sit behind one :class:`~repro.staticcheck.registry.Rule`
registry:

* :mod:`repro.staticcheck.ir` -- **IR verifiers**: structural validation of
  :class:`~repro.circuits.netlist.Netlist` and
  :class:`~repro.circuits.ternary.PackedPlan` (acyclicity, levelization,
  ``fused_rows``/``table_rows``/``reader_rows`` cross-coherence, operand
  bounds, library-op arity).
* :mod:`repro.staticcheck.source_rules` -- **repo-specific AST lint rules**
  over ``src/`` and ``tests/``: direct dict-reference-engine calls in
  hot-path modules, bare ``open()`` on store paths, unordered-set
  iteration feeding fingerprints/cache keys, unpaired manual telemetry
  spans and unbounded module-level caches.
* :mod:`repro.staticcheck.concurrency` -- **concurrency-hazard checks**:
  mutable module-level state reachable from campaign worker entry points
  without lock/queue mediation.

``repro lint`` (see :mod:`repro.staticcheck.runner`) runs the registered
rules, prints one ``path:line: rule-id message`` per violation, exits 0/1/2
(clean / violations / analyzer error) and feeds ``lint.files`` /
``lint.violations`` telemetry counters.  Per-line suppression:
``# repro-lint: disable=<rule>``.
"""

from repro.staticcheck.ir import verify_netlist, verify_packed_plan
from repro.staticcheck.registry import (
    RULES,
    LintContext,
    Rule,
    Violation,
    register_rule,
    rule_names,
)
from repro.staticcheck.runner import LintReport, format_json, format_text, run_lint

# Rule modules register themselves on import.
from repro.staticcheck import source_rules as _source_rules  # noqa: E402,F401
from repro.staticcheck import concurrency as _concurrency  # noqa: E402,F401

__all__ = [
    "LintContext",
    "LintReport",
    "RULES",
    "Rule",
    "Violation",
    "format_json",
    "format_text",
    "register_rule",
    "rule_names",
    "run_lint",
    "verify_netlist",
    "verify_packed_plan",
]
