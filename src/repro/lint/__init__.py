"""Static analysis for the reproduction: `repro lint`.

Two passes keep the repo's load-bearing determinism invariant checkable
*before* execution:

* **Source lint** (``repro lint PATH…``, :func:`lint_paths`): one run
  over Python sources.  The per-file rules (:mod:`repro.lint.det_rules`)
  flag entropy sources which bypass
  :class:`~repro.common.rng.RngRegistry` (DET001), wall-clock reads
  outside the telemetry wall-clock path (DET002), order-sensitive
  consumption of unordered sets (DET003) and floating-point
  accumulation in digest paths (DET004).  The whole-program rules
  (:mod:`repro.lint.flow`, FLOW001–004) follow clocks, entropy, process
  identity and float accumulation through the call graph into digest,
  WAL, audit, trace and scheduler sinks.  Inline waivers are the one
  suppression mechanism: ``# lint: allow DET002 <reason>`` keeps every
  exception auditable.

* **Static plan checker** (``repro lint --plan``,
  :mod:`repro.lint.plan_rules`): a pre-execution validation pass over
  logical dataflow plans — schema and arity inference across operators,
  unused-alias detection, acyclicity, verification-point coverage of
  every sink and replication-degree invariants — that turns runtime
  interpreter crashes into precise compile-time diagnostics with
  operator source locations.
"""

from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.engine import lint_paths, lint_source
from repro.lint.plan_rules import (
    PlanCheckError,
    check_config,
    check_plan,
    check_prepared,
)
from repro.lint.rules import Rule, all_rules, rules_by_id
from repro.lint.waivers import Waiver, collect_waivers

__all__ = [
    "Diagnostic",
    "LintReport",
    "PlanCheckError",
    "Rule",
    "Waiver",
    "all_rules",
    "check_config",
    "check_plan",
    "check_prepared",
    "collect_waivers",
    "lint_paths",
    "lint_source",
    "rules_by_id",
]
