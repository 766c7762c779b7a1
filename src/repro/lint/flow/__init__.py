"""Layer 3: whole-program assurance analysis (``repro lint --deep``).

Layers 1 and 2 are per-file/per-plan pattern matchers; some properties
are *whole-program*: nondeterminism leaking through a call chain into
an assured sink.  This package analyses ``src/repro`` as one program.
(The journal's and ledger's append/replay agreement is not a lint rule:
:data:`repro.core.journal.RECORDS` declares every record kind and its
fields, and the readers reject anything else.  Nor is tenant
attribution: :class:`repro.core.audit.AuditLog` stamps its context on
every entry.)

* :mod:`repro.lint.flow.callgraph` — project model + call graph
  (modules, classes, methods, decorators, lambdas,
  ``functools.partial``, cross-module aliasing, ``yield from``);
* :mod:`repro.lint.flow.taint` — interprocedural nondeterminism taint
  (FLOW001–FLOW004): entropy sources propagated through the graph into
  assured sinks, reported with the full source→sink call chain;
* :mod:`repro.lint.flow.baseline` — the findings-baseline ratchet
  backing the CI ``deep-lint`` gate (new findings exit 1, fixed
  findings must shrink the committed baseline);
* :mod:`repro.lint.flow.deep` — the orchestrator gluing the passes to
  the ``repro lint`` CLI, waivers included.
"""

from repro.lint.flow.deep import deep_lint, deep_rules  # noqa: F401
