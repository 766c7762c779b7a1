"""Rule framework and catalogue for source linting.

A :class:`Rule` inspects one parsed module and yields diagnostics.
Rules register themselves with :func:`register`; the engine runs every
registered rule (or a selected subset) over each file.  The
whole-program FLOW rules are not per-file; :data:`FLOW_RULES` lists
them beside the registry.  Shared helpers
resolve imported names to dotted paths (``_time.monotonic`` →
``time.monotonic``) so rules match semantics, not spellings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.diagnostics import Diagnostic


@dataclass(frozen=True)
class ModuleSource:
    """One Python module under analysis, with its imports resolved once
    for every rule."""

    path: str  # display path (as given on the command line)
    source: str
    tree: ast.Module
    imports: "ImportMap"

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleSource":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree, imports=collect_imports(tree))


class Rule:
    """Base class: subclass, set ``rule_id``/``title``, implement check()."""

    rule_id: str = ""
    title: str = ""
    #: Posix-style path suffixes this rule never applies to (the
    #: sanctioned implementation site of the checked behaviour).
    exempt_suffixes: tuple[str, ...] = ()

    def exempt(self, module: ModuleSource) -> bool:
        path = module.path.replace("\\", "/")
        return any(path.endswith(suffix) for suffix in self.exempt_suffixes)

    def check(self, module: ModuleSource) -> list[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instances of every registered rule, ordered by id."""
    # Importing the rule modules populates the registry.
    import repro.lint.det_rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


#: The whole-program rules, checked by :mod:`repro.lint.flow.taint` over
#: the project call graph rather than one module at a time.
FLOW_RULES = {
    "FLOW001": "wall-clock value can reach an assured sink",
    "FLOW002": "unrouted entropy can reach an assured sink",
    "FLOW003": "process identity (env/id/hash/pid) can reach an assured sink",
    "FLOW004": "float accumulation inside a digest-reachable function",
}


def rules_by_id(rule_ids: list[str]) -> list[Rule]:
    rules = {rule.rule_id: rule for rule in all_rules()}
    unknown = [rule_id for rule_id in rule_ids if rule_id not in rules]
    if unknown:
        known = ", ".join(sorted(rules))
        raise ValueError(f"unknown rule id(s) {', '.join(unknown)}; known: {known}")
    return [rules[rule_id] for rule_id in rule_ids]


# ----------------------------------------------------------------------
# import resolution
# ----------------------------------------------------------------------


@dataclass
class ImportMap:
    """Maps local names to the modules/members they import."""

    #: local alias -> module dotted path (``import time as _time``).
    modules: dict[str, str]
    #: local alias -> (module, member) (``from random import Random``).
    members: dict[str, tuple[str, str]]


def collect_imports(tree: ast.Module) -> ImportMap:
    modules: dict[str, str] = {}
    members: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as c` binds `c` to a.b.
                modules[local] = item.name if item.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports cannot name stdlib entropy
            for item in node.names:
                local = item.asname or item.name
                members[local] = (node.module, item.name)
    return ImportMap(modules=modules, members=members)


def resolve_dotted(node: ast.expr, imports: ImportMap) -> str | None:
    """Resolve an expression to the dotted path it references, if any.

    ``Random`` (from ``from random import Random``) → ``random.Random``;
    ``_time.monotonic`` (from ``import time as _time``) →
    ``time.monotonic``; chains extend naturally so ``datetime.datetime.now``
    resolves through ``import datetime``.
    """
    if isinstance(node, ast.Name):
        if node.id in imports.members:
            module, member = imports.members[node.id]
            return f"{module}.{member}"
        if node.id in imports.modules:
            return imports.modules[node.id]
        return None
    if isinstance(node, ast.Attribute):
        base = resolve_dotted(node.value, imports)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None
