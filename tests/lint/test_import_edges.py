"""Layer edges that must stay cut.

Each pair below was an import from a lower module up into a higher one
that imports it back: the service CLI into the top-level CLI for the
journal kill hook, the service benchmark into the bench suites for the
metric row helper, and the reference interpreter into the lint
subsystem for a plan precheck.  The imports are read from the source
with ``ast``, function-level imports included, so a lazy import inside
a function cannot bring an edge back unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: (importer, imported): the importer may not import the module or
#: anything inside it.
CUT = (
    ("repro.service.cli", "repro.cli"),
    ("repro.service.bench", "repro.bench"),
    ("repro.dataflow.interpreter", "repro.lint"),
)


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports_of(path: Path) -> set[str]:
    """Every module ``path`` imports, anywhere in the file."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            found.add(stem)
            found.update(f"{stem}.{alias.name}" for alias in node.names)
    return found


def graph() -> dict[str, set[str]]:
    return {
        module_name(path): imports_of(path)
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def reaches(imported: set[str], target: str) -> list[str]:
    return sorted(
        name for name in imported if name == target or name.startswith(target + ".")
    )


def test_cut_edges_stay_cut():
    edges = graph()
    # The reader sees function-level imports: repro.bench.suites imports
    # the service benchmark inside a function.
    assert reaches(edges["repro.bench.suites"], "repro.service.bench")
    for importer, target in CUT:
        assert importer in edges, importer
        assert reaches(edges[importer], target) == [], (importer, target)
