"""Whole-program assurance analysis: the FLOW rules of ``repro lint``.

The per-file rules see one module at a time; some properties are
*whole-program*: nondeterminism leaking through a call chain into an
assured sink.  :func:`repro.lint.engine.lint_paths` builds one project
graph over the files it lints and runs this package's pass over it,
then applies each file's inline waivers to the per-file and FLOW
findings together.  (The journal's and ledger's append/replay agreement
is not a lint rule: :data:`repro.core.journal.RECORDS` declares every
record kind and its fields, and the readers reject anything else.  Nor
is tenant attribution: :class:`repro.core.audit.AuditLog` stamps its
context on every entry.)

* :mod:`repro.lint.flow.callgraph` — project model + call graph
  (modules, classes, methods, decorators, lambdas,
  ``functools.partial``, cross-module aliasing, ``yield from``);
* :mod:`repro.lint.flow.taint` — interprocedural nondeterminism taint
  (FLOW001–FLOW004, catalogued in :data:`repro.lint.rules.FLOW_RULES`):
  entropy sources propagated through the graph into assured sinks,
  reported with the full source→sink call chain.
"""
