"""WAL/replay coverage (WAL001–WAL003).

The journal (``repro.core.journal``) and the service ledger
(``repro.service.ledger``) are write-ahead logs: one side *appends*
typed records (``Journal.append(wal.COMMIT, target=..., ...)``), the
other side *replays* them after a crash (``resume_run`` in
``core/recovery.py``, prefix verification in ``service/ledger.py``).
The PR 5/6 bugs that reached review — the resume verdict flip, the torn
tail mishandling — were exactly mismatches between the two sides.  This
pass cross-checks them statically:

* **WAL001** — every record kind appended somewhere has a replay
  handler, or an explicit no-replay declaration (``REPLAY_IGNORED`` /
  ``REPLAY_UNIFORM`` frozensets next to the kind constants).  A branch
  deleted from the replay dispatch trips this immediately.
* **WAL002** — fields a replay handler reads from a record are a subset
  of the fields the append sites write for that kind (schema drift: a
  replay-only field is a ``KeyError`` waiting for the next crash).
* **WAL003** — no dead replay handlers: a handled or declared kind that
  nothing appends, or a kind both declared ignored *and* handled, is a
  contradiction in the durability story.

A *kind surface* is a module that defines lowercase string constants
(the kind table) alongside an ``append``-capable class; the journal and
ledger each form one surface, and fixture projects in tests form their
own.  Handlers are only recognised inside replay-scoped functions
(name matching resume/replay/recover/read/load) so that durability
policy checks like ``if kind in SYNC_KINDS`` never masquerade as
replay coverage.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic
from repro.lint.flow.callgraph import CallSite, FunctionInfo, ProjectGraph
from repro.lint.rules import ImportMap, collect_imports, resolve_dotted

#: Values that look like record kinds (``run_start``, ``commit``, …).
KIND_VALUE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: Functions in which a kind comparison counts as a replay handler.
HANDLER_FN_RE = re.compile(r"resume|replay|recover|read|load", re.IGNORECASE)
#: Module-level declaration tables accepted as replay-coverage facts.
IGNORED_DECL = "REPLAY_IGNORED"
UNIFORM_DECL = "REPLAY_UNIFORM"
#: Receiver components marking an append call as durable (shared with
#: the taint pass's journal-append sink heuristic).
DURABLE_RECEIVERS = {"journal", "ledger", "stream", "wal", "_journal", "_ledger"}
#: Fields the append plumbing stamps on every record.
IMPLICIT_FIELDS = frozenset({"kind", "seq", "run"})


@dataclass
class KindSurface:
    """One WAL schema: the module defining the kind constants."""

    module: str
    path: str
    #: constant name -> kind value (``RUN_START`` -> ``run_start``).
    kinds: dict[str, str] = field(default_factory=dict)
    #: kind value -> fields written at append sites (union).
    appended: dict[str, set[str]] = field(default_factory=dict)
    #: kind value -> first append site (path, line) for anchoring.
    append_sites: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: kinds appended somewhere with a ``**splat`` → open schema.
    open_schema: set[str] = field(default_factory=set)
    #: kind value -> handler compare site (path, line).
    handled: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: kind value -> declaring table name (REPLAY_IGNORED / REPLAY_UNIFORM).
    declared: dict[str, str] = field(default_factory=dict)
    #: (path, line) of the declaration tables, for anchoring WAL003.
    decl_site: tuple[str, int] | None = None

    def ref(self, dotted: str) -> str | None:
        """Kind value when ``dotted`` names one of this surface's
        constants (``repro.core.journal.RUN_START`` → ``run_start``)."""
        prefix = self.module + "."
        if dotted.startswith(prefix) and dotted[len(prefix) :] in self.kinds:
            return self.kinds[dotted[len(prefix) :]]
        return None


def discover_surfaces(graph: ProjectGraph) -> list[KindSurface]:
    """Modules defining kind tables next to an append-capable class."""
    append_modules = {
        cls.module for cls in graph.classes.values() if "append" in cls.methods
    }
    surfaces: dict[str, KindSurface] = {}
    for key, value in graph.constants.items():
        module, _, name = key.rpartition(".")
        if module not in append_modules:
            continue
        if not name.isupper() or not KIND_VALUE_RE.match(value):
            continue
        surface = surfaces.setdefault(
            module,
            KindSurface(module=module, path=graph.modules.get(module, module)),
        )
        surface.kinds[name] = value
    return [surfaces[module] for module in sorted(surfaces)]


def _surface_for_ref(
    surfaces: list[KindSurface], dotted: str
) -> tuple[KindSurface, str] | None:
    for surface in surfaces:
        kind = surface.ref(dotted)
        if kind is not None:
            return surface, kind
    return None


# ---------------------------------------------------------------------------
# append side
# ---------------------------------------------------------------------------


def _append_like_functions(graph: ProjectGraph) -> set[str]:
    """``append`` methods plus wrappers forwarding their kind argument.

    A wrapper is a function whose first non-self parameter is passed as
    the first positional argument of an append-like call inside it —
    ``LedgerStream.append`` and the service's ``_ledger`` both qualify,
    so call sites through them still count as append sites.
    """
    append_like = {
        qualname
        for cls in graph.classes.values()
        for name, qualname in cls.methods.items()
        if name == "append"
    }
    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            if info.qualname in append_like:
                continue
            kind_param = _first_param(info)
            if kind_param is None:
                continue
            for call in info.calls:
                if not _is_append_call(call, append_like):
                    continue
                if (
                    call.node.args
                    and isinstance(call.node.args[0], ast.Name)
                    and call.node.args[0].id == kind_param
                ):
                    append_like.add(info.qualname)
                    changed = True
                    break
    return append_like


def _first_param(info: FunctionInfo) -> str | None:
    args = getattr(info.node, "args", None)
    if args is None:
        return None
    names = [a.arg for a in [*args.posonlyargs, *args.args]]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if names else None


def _is_append_call(call: CallSite, append_like: set[str]) -> bool:
    if call.target in append_like:
        return True
    return call.attr == "append" and bool(
        set((call.receiver or "").split(".")) & DURABLE_RECEIVERS
    )


def _kinds_of_first_arg(
    call: CallSite,
    info: FunctionInfo,
    graph: ProjectGraph,
    surfaces: list[KindSurface],
) -> list[tuple[KindSurface, str]]:
    """The kind(s) an append call writes.  ``A if cond else B`` names
    two: one site then writes both kinds, with one field set."""
    if not call.node.args:
        return []
    arg = call.node.args[0]
    arms = [arg.body, arg.orelse] if isinstance(arg, ast.IfExp) else [arg]
    resolved = [_kind_of(arm, info, graph, surfaces) for arm in arms]
    return [] if None in resolved else resolved


def _kind_of(
    arg: ast.expr,
    info: FunctionInfo,
    graph: ProjectGraph,
    surfaces: list[KindSurface],
) -> tuple[KindSurface, str] | None:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        matches = [s for s in surfaces if arg.value in s.kinds.values()]
        if len(matches) == 1:
            return matches[0], arg.value
        # a literal shared by several surfaces ("header") is attributed
        # to the surface of the module doing the appending, if any.
        for candidate in matches:
            if candidate.module == info.module:
                return candidate, arg.value
        return None
    dotted = _resolve_const_ref(arg, info, graph)
    if dotted is None:
        return None
    return _surface_for_ref(surfaces, dotted)


def _resolve_const_ref(
    arg: ast.expr, info: FunctionInfo, graph: ProjectGraph
) -> str | None:
    """Dotted path of a constant reference (``wal.RUN_START``,
    bare ``HEADER`` in its defining module)."""
    index_imports = _module_imports(graph, info.module)
    if index_imports is not None:
        dotted = resolve_dotted(arg, index_imports)
        if dotted is not None:
            return dotted
    if isinstance(arg, ast.Name):
        return f"{info.module}.{arg.id}"
    return None


_IMPORT_CACHE: dict[int, dict[str, ImportMap | None]] = {}


def _module_imports(graph: ProjectGraph, module: str) -> ImportMap | None:
    cache = _IMPORT_CACHE.setdefault(id(graph), {})
    if module not in cache:
        path = graph.modules.get(module)
        source = graph.sources.get(path) if path else None
        cache[module] = (
            collect_imports(ast.parse(source)) if source is not None else None
        )
    return cache[module]


def collect_appends(
    graph: ProjectGraph, surfaces: list[KindSurface]
) -> None:
    append_like = _append_like_functions(graph)
    for info in graph.functions.values():
        for call in info.calls:
            if not _is_append_call(call, append_like):
                continue
            for surface, kind in _kinds_of_first_arg(call, info, graph, surfaces):
                fields_written = surface.appended.setdefault(kind, set())
                has_splat = False
                for keyword in call.node.keywords:
                    if keyword.arg is None:
                        has_splat = True
                    else:
                        fields_written.add(keyword.arg)
                if has_splat:
                    surface.open_schema.add(kind)
                surface.append_sites.setdefault(kind, (info.path, call.line))


# ---------------------------------------------------------------------------
# replay side: handlers + field reads
# ---------------------------------------------------------------------------


def _handler_functions(graph: ProjectGraph) -> list[FunctionInfo]:
    return [
        info
        for info in graph.functions.values()
        if HANDLER_FN_RE.search(info.name)
    ]


def collect_handlers(
    graph: ProjectGraph, surfaces: list[KindSurface]
) -> None:
    for info in _handler_functions(graph):
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Compare):
                continue
            for expr in [node.left, *node.comparators]:
                dotted = _compare_ref(expr, info, graph)
                if dotted is None:
                    continue
                resolved = _surface_for_ref(surfaces, dotted)
                if resolved is None:
                    continue
                surface, kind = resolved
                surface.handled.setdefault(kind, (info.path, node.lineno))


def _compare_ref(
    expr: ast.expr, info: FunctionInfo, graph: ProjectGraph
) -> str | None:
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return _resolve_const_ref(expr, info, graph)
    return None


def collect_declarations(
    graph: ProjectGraph, surfaces: list[KindSurface]
) -> None:
    for key, refs in graph.const_sets.items():
        module, _, name = key.rpartition(".")
        if name not in (IGNORED_DECL, UNIFORM_DECL):
            continue
        for ref in refs:
            resolved = _surface_for_ref(surfaces, ref)
            if resolved is None:
                continue
            surface, kind = resolved
            surface.declared[kind] = name
            if surface.decl_site is None:
                surface.decl_site = (
                    graph.modules.get(module, module),
                    _declaration_line(graph, module, name),
                )


def _declaration_line(graph: ProjectGraph, module: str, name: str) -> int:
    path = graph.modules.get(module)
    source = graph.sources.get(path, "") if path else ""
    for lineno, line in enumerate(source.splitlines(), start=1):
        if line.lstrip().startswith(name):
            return lineno
    return 1


# -- record/kind binding for WAL002 -----------------------------------------


@dataclass
class _Binding:
    """A local name statically known to hold a record of one kind."""

    name: str
    surface: KindSurface
    kind: str


class _ReplayReads(ast.NodeVisitor):
    """Field reads of kind-bound record variables in one handler."""

    def __init__(
        self,
        graph: ProjectGraph,
        surfaces: list[KindSurface],
        info: FunctionInfo,
        bindings: dict[str, tuple[KindSurface, str]],
        depth: int = 0,
    ) -> None:
        self.graph = graph
        self.surfaces = surfaces
        self.info = info
        self.bindings = dict(bindings)
        self.depth = depth
        #: list of (surface, kind, field, line)
        self.reads: list[tuple[KindSurface, str, str, int]] = []
        #: list names bound per kind via ``lst.append(record)``.
        self.list_kinds: dict[str, tuple[KindSurface, str]] = {}

    # -- binding discovery ---------------------------------------------

    def run(self) -> list[tuple[KindSurface, str, str, int]]:
        node = self.info.node
        self._seed_header_bindings(node)
        self._walk_statements(getattr(node, "body", []))
        return self.reads

    def _seed_header_bindings(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Assign) or len(child.targets) != 1:
                continue
            target = child.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if _is_first_record_expr(child.value):
                surface = self._module_surface()
                if surface is not None and "header" in surface.kinds.values():
                    self.bindings[target.id] = (surface, "header")

    def _module_surface(self) -> KindSurface | None:
        """The surface this handler's module manipulates: its own, or
        the single surface whose constants the module imports."""
        for surface in self.surfaces:
            if surface.module == self.info.module:
                return surface
        referencing = [
            surface
            for surface in self.surfaces
            if _module_references_surface(self.graph, self.info.module, surface)
        ]
        return referencing[0] if len(referencing) == 1 else None

    def _walk_statements(self, statements: list[ast.stmt]) -> None:
        for statement in statements:
            self._visit_statement(statement)

    def _visit_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.If):
            branch = self._kind_branch(statement.test)
            if branch is not None:
                recvar, surface, kind = branch
                self._bind_branch(statement.body, recvar, surface, kind)
                self._walk_statements(statement.orelse)
                # reads on the record var inside the branch body
                saved = self.bindings.get(recvar)
                self.bindings[recvar] = (surface, kind)
                self._walk_statements(statement.body)
                if saved is None:
                    self.bindings.pop(recvar, None)
                else:
                    self.bindings[recvar] = saved
                return
            self._walk_statements(statement.body)
            self._walk_statements(statement.orelse)
            self._scan_expr(statement.test)
            return
        if isinstance(statement, (ast.For, ast.While)):
            if isinstance(statement, ast.For):
                self._bind_loop(statement)
                self._scan_expr(statement.iter)
            self._walk_statements(statement.body)
            self._walk_statements(statement.orelse)
            return
        if isinstance(statement, (ast.With,)):
            self._walk_statements(statement.body)
            return
        if isinstance(statement, (ast.Try,)):
            self._walk_statements(statement.body)
            for handler in statement.handlers:
                self._walk_statements(handler.body)
            self._walk_statements(statement.orelse)
            self._walk_statements(statement.finalbody)
            return
        for child in ast.walk(statement):
            if isinstance(child, ast.expr):
                self._scan_expr_node(child)

    def _kind_branch(
        self, test: ast.expr
    ) -> tuple[str, KindSurface, str] | None:
        """``kind == wal.X`` / ``record["kind"] == wal.X`` branch tests."""
        if not isinstance(test, ast.Compare) or len(test.comparators) != 1:
            return None
        if not isinstance(test.ops[0], ast.Eq):
            return None
        left, right = test.left, test.comparators[0]
        dotted = _compare_ref(right, self.info, self.graph)
        if dotted is None:
            left, right = right, left
            dotted = _compare_ref(right, self.info, self.graph)
        if dotted is None:
            return None
        resolved = _surface_for_ref(self.surfaces, dotted)
        if resolved is None:
            return None
        surface, kind = resolved
        recvar = self._record_var_of(left)
        if recvar is None:
            return None
        return recvar, surface, kind

    def _record_var_of(self, expr: ast.expr) -> str | None:
        # `record["kind"] == X`
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and isinstance(expr.slice, ast.Constant)
            and expr.slice.value == "kind"
        ):
            return expr.value.id
        # `kind == X` where `kind = record["kind"]` earlier
        if isinstance(expr, ast.Name):
            return self._kvar_records.get(expr.id)
        return None

    @property
    def _kvar_records(self) -> dict[str, str]:
        """``{kind_var: record_var}`` from ``kind = record["kind"]``."""
        found: dict[str, str] = {}
        for child in ast.walk(self.info.node):
            if (
                isinstance(child, ast.Assign)
                and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)
                and isinstance(child.value, ast.Subscript)
                and isinstance(child.value.value, ast.Name)
                and isinstance(child.value.slice, ast.Constant)
                and child.value.slice.value == "kind"
            ):
                found[child.targets[0].id] = child.value.value.id
        return found

    def _bind_branch(
        self,
        body: list[ast.stmt],
        recvar: str,
        surface: KindSurface,
        kind: str,
    ) -> None:
        """Aliases created inside a matched branch: ``snapshot = record``
        binds for the rest of the function; ``commits.append(record)``
        binds the loop variable of a later ``for c in commits:``."""
        for statement in body:
            for child in ast.walk(statement):
                if (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == recvar
                ):
                    self.bindings[child.targets[0].id] = (surface, kind)
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "append"
                    and isinstance(child.func.value, ast.Name)
                    and child.args
                    and isinstance(child.args[0], ast.Name)
                    and child.args[0].id == recvar
                ):
                    self.list_kinds[child.func.value.id] = (surface, kind)

    def _bind_loop(self, loop: ast.For) -> None:
        if (
            isinstance(loop.iter, ast.Name)
            and isinstance(loop.target, ast.Name)
            and loop.iter.id in self.list_kinds
        ):
            self.bindings[loop.target.id] = self.list_kinds[loop.iter.id]

    # -- read collection -----------------------------------------------

    def _scan_expr(self, expr: ast.expr) -> None:
        for child in ast.walk(expr):
            self._scan_expr_node(child)

    def _scan_expr_node(self, child: ast.AST) -> None:
        if (
            isinstance(child, ast.Subscript)
            and isinstance(child.value, ast.Name)
            and child.value.id in self.bindings
            and isinstance(child.slice, ast.Constant)
            and isinstance(child.slice.value, str)
        ):
            surface, kind = self.bindings[child.value.id]
            self.reads.append(
                (surface, kind, child.slice.value, child.lineno)
            )
        elif (
            isinstance(child, ast.Subscript)
            and _is_first_record_expr(child.value)
            and isinstance(child.slice, ast.Constant)
            and isinstance(child.slice.value, str)
        ):
            surface = self._module_surface()
            if surface is not None and "header" in surface.kinds.values():
                self.reads.append(
                    (surface, "header", child.slice.value, child.lineno)
                )
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "get"
            and isinstance(child.func.value, ast.Name)
            and child.func.value.id in self.bindings
            and child.args
            and isinstance(child.args[0], ast.Constant)
            and isinstance(child.args[0].value, str)
        ):
            surface, kind = self.bindings[child.func.value.id]
            self.reads.append(
                (surface, kind, child.args[0].value, child.lineno)
            )
        elif isinstance(child, ast.Call) and self.depth < 2:
            self._propagate_call(child)

    def _propagate_call(self, call: ast.Call) -> None:
        """One level of ``helper(run_end)``-style propagation: the bound
        record flows into another replay-scoped project function (or a
        replay-named method of an object whose class is evident)."""
        bound_args = {
            index: self.bindings[arg.id]
            for index, arg in enumerate(call.args)
            if isinstance(arg, ast.Name) and arg.id in self.bindings
        }
        if not bound_args:
            return
        # The call graph resolved the call already — through imports,
        # ``self`` and typed locals (``controller = Controller(...)``,
        # then ``controller.replay(record)``).
        target = next(
            (site.target for site in self.info.calls if site.node is call), None
        )
        candidate = self.graph.functions.get(target)
        if candidate is None or (
            candidate.module != self.info.module
            and not HANDLER_FN_RE.search(candidate.name)
        ):
            return
        params = _param_names(candidate)
        child_bindings = {
            params[index]: binding
            for index, binding in bound_args.items()
            if index < len(params)
        }
        if child_bindings:
            nested = _ReplayReads(
                self.graph,
                self.surfaces,
                candidate,
                child_bindings,
                depth=self.depth + 1,
            )
            self.reads.extend(nested.run())


def _param_names(info: FunctionInfo) -> list[str]:
    args = getattr(info.node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in [*args.posonlyargs, *args.args]]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _is_first_record_expr(expr: ast.expr) -> bool:
    """``records[0]`` / ``lines[0]``-shaped first-record access."""
    return (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.value, ast.Name)
        and isinstance(expr.slice, ast.Constant)
        and expr.slice.value == 0
    )


def _module_references_surface(
    graph: ProjectGraph, module: str, surface: KindSurface
) -> bool:
    imports = _module_imports(graph, module)
    if imports is not None:
        if surface.module in imports.modules.values():
            return True
        for mod, member in imports.members.values():
            if f"{mod}.{member}" == surface.module:
                return True
    path = graph.modules.get(module)
    source = graph.sources.get(path, "") if path else ""
    return surface.module in source


def collect_replay_reads(
    graph: ProjectGraph, surfaces: list[KindSurface]
) -> list[tuple[KindSurface, str, str, int, str]]:
    """All (surface, kind, field, line, path) replay-side reads."""
    reads: list[tuple[KindSurface, str, str, int, str]] = []
    for info in _handler_functions(graph):
        collector = _ReplayReads(graph, surfaces, info, bindings={})
        for surface, kind, fieldname, line in collector.run():
            reads.append((surface, kind, fieldname, line, info.path))
    return reads


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def run_walcheck(graph: ProjectGraph) -> list[Diagnostic]:
    surfaces = discover_surfaces(graph)
    if not surfaces:
        return []
    collect_appends(graph, surfaces)
    collect_handlers(graph, surfaces)
    collect_declarations(graph, surfaces)
    reads = collect_replay_reads(graph, surfaces)

    diagnostics: list[Diagnostic] = []
    for surface in surfaces:
        diagnostics.extend(_check_surface(surface))
    diagnostics.extend(_check_reads(surfaces, reads))
    return diagnostics


def _check_surface(surface: KindSurface) -> list[Diagnostic]:
    diagnostics = []
    short = surface.module.rsplit(".", 1)[-1]
    for kind in sorted(surface.appended):
        if kind in surface.handled or kind in surface.declared:
            continue
        path, line = surface.append_sites[kind]
        diagnostics.append(
            Diagnostic(
                rule="WAL001",
                path=path,
                line=line,
                message=(
                    f"record kind {kind!r} ({short} surface) is appended "
                    "but never replayed and not declared in "
                    f"{IGNORED_DECL}/{UNIFORM_DECL} — a crash between this "
                    "append and the action it announces would lose the "
                    "decision silently"
                ),
                symbol=surface.module,
            )
        )
    for kind in sorted(surface.handled):
        handler_path, handler_line = surface.handled[kind]
        if kind not in surface.appended:
            diagnostics.append(
                Diagnostic(
                    rule="WAL003",
                    path=handler_path,
                    line=handler_line,
                    message=(
                        f"replay handler for kind {kind!r} ({short} surface) "
                        "is dead — nothing appends that kind"
                    ),
                    symbol=surface.module,
                )
            )
        if surface.declared.get(kind) == IGNORED_DECL:
            diagnostics.append(
                Diagnostic(
                    rule="WAL003",
                    path=handler_path,
                    line=handler_line,
                    message=(
                        f"kind {kind!r} ({short} surface) is declared in "
                        f"{IGNORED_DECL} yet has a replay handler — the "
                        "declaration and the dispatch contradict each other"
                    ),
                    symbol=surface.module,
                )
            )
    for kind in sorted(surface.declared):
        if kind not in surface.appended and kind not in surface.handled:
            path, line = surface.decl_site or (surface.path, 1)
            diagnostics.append(
                Diagnostic(
                    rule="WAL003",
                    path=path,
                    line=line,
                    message=(
                        f"declared kind {kind!r} ({short} surface) is never "
                        "appended — stale entry in "
                        f"{surface.declared[kind]}"
                    ),
                    symbol=surface.module,
                )
            )
    return diagnostics


def _check_reads(
    surfaces: list[KindSurface],
    reads: list[tuple[KindSurface, str, str, int, str]],
) -> list[Diagnostic]:
    diagnostics = []
    seen: set[tuple[str, str, str]] = set()
    for surface, kind, fieldname, line, path in reads:
        if fieldname in IMPLICIT_FIELDS:
            continue
        if kind not in surface.appended:
            continue  # WAL001/WAL003 already cover unappended kinds
        if kind in surface.open_schema:
            continue  # splat append → field set statically unknown
        if fieldname in surface.appended[kind]:
            continue
        key = (surface.module, kind, fieldname)
        if key in seen:
            continue
        seen.add(key)
        short = surface.module.rsplit(".", 1)[-1]
        diagnostics.append(
            Diagnostic(
                rule="WAL002",
                path=path,
                line=line,
                message=(
                    f"replay reads field {fieldname!r} of kind {kind!r} "
                    f"({short} surface) but no append site writes it — "
                    "schema drift; the next crash-resume raises KeyError"
                ),
                symbol=surface.module,
            )
        )
    return diagnostics
