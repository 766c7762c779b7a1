"""Project model and call graph for whole-program lint passes.

Builds, from a set of Python files, an index of every module-level
function, class, and method plus a conservative call graph between
them.  The graph is *syntactic but resolution-aware*: imports are
resolved (``from repro.core import journal as wal`` → ``wal.RESUME`` is
``repro.core.journal.RESUME``), ``self.method(...)`` resolves through
the enclosing class and its project base classes, local variables whose
class is statically evident (``v = Verifier(...)`` / annotated
parameters) resolve method calls, so do attributes whose class
``__init__`` makes evident (``self.resources = ResourceManager(...)``,
then ``self.resources.replay(...)`` or ``controller.resources.replay(...)``
on a typed local), and callables that merely *escape* —
passed as arguments, wrapped in ``functools.partial``, delegated to via
``yield from``, named in a decorator — contribute edges too, because a
reference that escapes may be called.

The model is an over-approximation of the real call relation (a
reference edge may never fire at runtime) and an under-approximation
where Python is irreducibly dynamic (``getattr`` with a computed name).
Both are the right trade-offs for the taint/WAL passes riding on top:
reachability findings are reviewed (and waivable), so recall matters
more than precision.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.rules import ImportMap, collect_imports, resolve_dotted

#: Bare-name builtins the taint pass treats as entropy sources when
#: called unshadowed (``id(obj)`` / default ``hash(obj)``).
TRACKED_BUILTINS = ("id", "hash")


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    node: ast.Call
    #: External dotted path (``time.monotonic``, ``os.environ.get``,
    #: ``builtins.id``) when the callee resolves outside the project.
    dotted: str | None = None
    #: Project function qualname when the callee resolves inside it.
    target: str | None = None
    #: Textual receiver chain for attribute calls (``self.journal``).
    receiver: str | None = None
    #: Attribute name for attribute calls (``append``).
    attr: str | None = None


@dataclass
class FunctionInfo:
    """One function/method/lambda under analysis."""

    qualname: str
    module: str
    path: str
    name: str
    lineno: int
    node: ast.AST
    class_qualname: str | None = None
    is_generator: bool = False
    calls: list[CallSite] = field(default_factory=list)
    #: Project functions referenced without being called at the site
    #: (callbacks, partial targets, decorator names, yield-from bases).
    refs: list[tuple[str, int]] = field(default_factory=list)
    #: External dotted attribute loads outside call position
    #: (``os.environ`` subscripts and the like).
    ext_uses: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    lineno: int
    path: str
    #: Base-class qualnames resolved inside the project (external bases
    #: are dropped — their methods are invisible anyway).
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name → project class, where ``__init__`` makes it
    #: evident: ``self.x = ClassName(...)`` or ``self.x: ClassName``.
    attr_types: dict[str, str] = field(default_factory=dict)


class ProjectGraph:
    """The indexed project plus its call graph."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: ``module.NAME`` → string value, for module-level constants.
        self.constants: dict[str, str] = {}
        #: ``module.NAME`` → resolved element refs of module-level
        #: set/frozenset/tuple literals of names (declaration tables).
        self.const_sets: dict[str, list[str]] = {}
        self.modules: dict[str, str] = {}  # module → display path
        self.sources: dict[str, str] = {}  # display path → source text
        self.edges: dict[str, list[tuple[str, int]]] = {}

    # -- graph queries --------------------------------------------------

    def callees(self, qualname: str) -> list[tuple[str, int]]:
        return self.edges.get(qualname, [])

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.name == name]

    def reachable(self, roots: list[str]) -> dict[str, tuple[str | None, int]]:
        """BFS over call/ref edges; returns ``{qualname: (parent, line)}``
        with parent ``None`` for roots — enough to rebuild call chains."""
        seen: dict[str, tuple[str | None, int]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in seen:
                seen[root] = (None, self.functions[root].lineno)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee, line in self.callees(current):
                if callee not in seen and callee in self.functions:
                    seen[callee] = (current, line)
                    queue.append(callee)
        return seen

    def chain(
        self, tree: dict[str, tuple[str | None, int]], qualname: str
    ) -> list[str]:
        """Root→``qualname`` path through a :meth:`reachable` tree."""
        path = [qualname]
        parent, _ = tree.get(qualname, (None, 0))
        while parent is not None:
            path.append(parent)
            parent, _ = tree.get(parent, (None, 0))
        return list(reversed(path))

    def resolve_method(self, class_qualname: str, name: str) -> str | None:
        """Look ``name`` up on a class and its project bases (DFS)."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None


# ---------------------------------------------------------------------------
# module indexing (phase 1)
# ---------------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name, derived by walking up through packages."""
    resolved = Path(path)
    parts = [] if resolved.stem == "__init__" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").exists() and parent.name:
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or resolved.stem


def _receiver_text(node: ast.expr) -> str | None:
    """Dotted receiver chain of plain names/attributes, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_text(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


@dataclass
class _ModuleIndex:
    """Everything phase 1 learns about one module."""

    module: str
    path: str
    tree: ast.Module
    imports: ImportMap
    #: local top-level name → function/class qualname ("defs" covers
    #: plain defs, lambdas-as-names, aliases and partial bindings).
    defs: dict[str, str] = field(default_factory=dict)


class _Indexer(ast.NodeVisitor):
    """Phase 1: register defs/classes/constants for one module."""

    def __init__(self, graph: ProjectGraph, index: _ModuleIndex) -> None:
        self.graph = graph
        self.index = index
        self.scope: list[str] = []  # class/function name stack
        self.class_stack: list[ClassInfo] = []

    def _qual(self, name: str) -> str:
        return ".".join([self.index.module, *self.scope, name])

    def _register_function(self, node, name: str) -> FunctionInfo:
        qualname = self._qual(name)
        info = FunctionInfo(
            qualname=qualname,
            module=self.index.module,
            path=self.index.path,
            name=name,
            lineno=getattr(node, "lineno", 0),
            node=node,
            class_qualname=(
                self.class_stack[-1].qualname if self.class_stack else None
            ),
            is_generator=_is_generator(node),
        )
        self.graph.functions[qualname] = info
        if self.class_stack:
            self.class_stack[-1].methods[name] = qualname
        elif not self.scope or self.scope[-1] not in (
            c.name for c in self.class_stack
        ):
            self.index.defs.setdefault(name, qualname)
        return info

    # -- defs -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._register_function(node, node.name)
        self.scope.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qual(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.index.module,
            name=node.name,
            lineno=node.lineno,
            path=self.index.path,
        )
        # Bases resolve in phase 2 (they may name other modules' classes);
        # stash the raw expressions on the node for later.
        info_bases_raw = list(node.bases)
        info.bases = []  # filled by _resolve_bases
        self.graph.classes[qualname] = info
        self.index.defs.setdefault(node.name, qualname)
        setattr(info, "_bases_raw", info_bases_raw)
        self.class_stack.append(info)
        self.scope.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self.scope.pop()
        self.class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.scope:  # only module-level bindings are indexed here
            return
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        key = f"{self.index.module}.{name}"
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.graph.constants[key] = value.value
        elif isinstance(value, ast.Lambda):
            info = self._register_function(value, name)
            info.lineno = node.lineno
        elif isinstance(value, (ast.Set, ast.Tuple, ast.List)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set", "tuple")
        ):
            elements = (
                value.elts
                if isinstance(value, (ast.Set, ast.Tuple, ast.List))
                else _literal_elements(value)
            )
            refs = []
            for element in elements:
                dotted = resolve_dotted(element, self.index.imports)
                if dotted is None and isinstance(element, ast.Name):
                    dotted = f"{self.index.module}.{element.id}"
                if dotted is not None:
                    refs.append(dotted)
            if refs:
                self.graph.const_sets[key] = refs
        elif isinstance(value, (ast.Name, ast.Attribute)):
            # module-level alias: resolved lazily in phase 2 via defs.
            dotted = resolve_dotted(value, self.index.imports)
            if dotted is None and isinstance(value, ast.Name):
                dotted = value.id  # local alias, resolved against defs
            if dotted is not None:
                self.index.defs[name] = dotted
        elif isinstance(value, ast.Call) and _partial_target(value) is not None:
            # module-level `p = functools.partial(f, ...)` alias.
            target = _partial_target(value)
            dotted = resolve_dotted(target, self.index.imports)
            if dotted is None and isinstance(target, ast.Name):
                dotted = target.id
            if dotted is not None:
                self.index.defs[name] = dotted


def _partial_target(call: ast.Call) -> ast.expr | None:
    func = call.func
    is_partial = (isinstance(func, ast.Name) and func.id == "partial") or (
        isinstance(func, ast.Attribute) and func.attr == "partial"
    )
    if is_partial and call.args:
        return call.args[0]
    return None


def _literal_elements(call: ast.Call) -> list[ast.expr]:
    if call.args and isinstance(call.args[0], (ast.Set, ast.Tuple, ast.List)):
        return call.args[0].elts
    return []


def _is_generator(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            # nested defs have their own generator-ness
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            if _enclosing_is(node, child):
                return True
    return False


def _enclosing_is(root: ast.AST, target: ast.AST) -> bool:
    """True when ``target`` belongs to ``root``'s own body, not a
    nested function's."""

    class _Finder(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found = False

        def visit_FunctionDef(self, node):  # noqa: N802
            if node is root:
                self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef
        visit_Lambda = visit_FunctionDef

        def generic_visit(self, node):  # noqa: N802
            if node is target:
                self.found = True
                return
            if (
                isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                and node is not root
            ):
                return
            super().generic_visit(node)

    finder = _Finder()
    finder.generic_visit(root)
    return finder.found


# ---------------------------------------------------------------------------
# call resolution (phase 2)
# ---------------------------------------------------------------------------


class _CallResolver(ast.NodeVisitor):
    """Resolve the calls/references of one function body."""

    def __init__(
        self,
        graph: ProjectGraph,
        indexes: dict[str, _ModuleIndex],
        info: FunctionInfo,
    ) -> None:
        self.graph = graph
        self.indexes = indexes
        self.info = info
        self.index = indexes[info.module]
        #: local name → project function qualname (nested defs, aliases,
        #: lambdas, partial bindings).
        self.local_funcs: dict[str, str] = {}
        #: local name or ``self.attr`` → project class qualname (for
        #: method resolution).
        self.local_types: dict[str, str] = {}
        self._call_funcs: set[int] = set()  # id()s of call-func nodes
        self._prime_locals()

    # -- local environment ---------------------------------------------

    def _prime_locals(self) -> None:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return
        for child in getattr(node, "body", []):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = f"{self.info.qualname}.{child.name}"
                if nested in self.graph.functions:
                    self.local_funcs[child.name] = nested
        args = getattr(node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    cls = self._resolve_class(arg.annotation)
                    if cls is not None:
                        self.local_types[arg.arg] = cls
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = _receiver_text(child.targets[0])
                if target is not None:
                    self._bind_local(target, child.value)
            elif isinstance(child, ast.AnnAssign):
                target = _receiver_text(child.target)
                cls = self._resolve_class(child.annotation)
                if target is not None and cls is not None:
                    self.local_types[target] = cls

    def _bind_local(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            # v = ClassName(...) → type; v = partial(f, ...) → callable f.
            cls = self._resolve_class(value.func)
            if cls is not None:
                self.local_types[name] = cls
                return
            dotted = self._dotted(value.func)
            if dotted in ("functools.partial", "partial") and value.args:
                target = self._resolve_callable(value.args[0])
                if target is not None:
                    self.local_funcs[name] = target
        elif isinstance(value, (ast.Name, ast.Attribute)):
            target = self._resolve_callable(value)
            if target is not None:
                self.local_funcs[name] = target
        elif isinstance(value, ast.Lambda):
            pass  # anonymous; taint sees its body via the enclosing walk

    # -- name resolution ------------------------------------------------

    def _dotted(self, node: ast.expr) -> str | None:
        dotted = resolve_dotted(node, self.index.imports)
        if dotted is not None:
            return dotted
        return _receiver_text(node)

    def _project_lookup(
        self, dotted: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Map a resolved dotted path onto a project function, chasing
        module-level aliases (``pkg.util.alias`` where ``alias = base``)
        across modules."""
        if dotted in _seen:
            return None
        _seen = _seen | {dotted}
        if dotted in self.graph.functions:
            return dotted
        if dotted in self.graph.classes:
            init = self.graph.resolve_method(dotted, "__init__")
            return init or None
        head, _, tail = dotted.rpartition(".")
        # Class attribute chains: pkg.mod.Class.method
        if head in self.graph.classes:
            return self.graph.resolve_method(head, tail)
        # Module-level aliases/partials recorded in that module's defs.
        if head in self.indexes:
            bound = self.indexes[head].defs.get(tail)
            if bound is not None:
                if "." not in bound:
                    bound = f"{head}.{bound}"
                if bound != dotted:
                    return self._project_lookup(bound, _seen)
        return None

    def _resolve_class(self, node: ast.expr) -> str | None:
        dotted = resolve_dotted(node, self.index.imports)
        candidates = []
        if dotted is not None:
            candidates.append(dotted)
        if isinstance(node, ast.Name):
            local = self.index.defs.get(node.id)
            if local is not None:
                candidates.append(local)
            candidates.append(f"{self.index.module}.{node.id}")
        for candidate in candidates:
            if candidate in self.graph.classes:
                return candidate
        return None

    def _resolve_callable(self, node: ast.expr) -> str | None:
        """Project function a name/attribute expression refers to."""
        if isinstance(node, ast.Name):
            if node.id in self.local_funcs:
                return self.local_funcs[node.id]
            bound = self.index.defs.get(node.id)
            if bound is not None:
                if "." not in bound:
                    bound = f"{self.info.module}.{bound}"
                resolved = self._project_lookup(bound)
                if resolved is not None:
                    return resolved
        dotted = resolve_dotted(node, self.index.imports)
        if dotted is not None:
            resolved = self._project_lookup(dotted)
            if resolved is not None:
                return resolved
        if isinstance(node, ast.Attribute):
            receiver = node.value
            cls = self._receiver_class(receiver)
            if cls is not None:
                return self.graph.resolve_method(cls, node.attr)
            # module-local class attr: ClassName.method (unbound)
            if isinstance(receiver, ast.Name):
                cls = self._resolve_class(receiver)
                if cls is not None:
                    return self.graph.resolve_method(cls, node.attr)
        return None

    def _receiver_class(self, receiver: ast.expr) -> str | None:
        """Project class of a method call's receiver, when evident."""
        # typed local: v.method where v's class is known
        text = _receiver_text(receiver)
        if text in self.local_types:
            return self.local_types[text]
        # self.method / cls.method
        if text in ("self", "cls"):
            return self.info.class_qualname
        if isinstance(receiver, ast.Attribute):
            # typed attribute: self.x.method / v.x.method
            owner = self.graph.classes.get(self._receiver_class(receiver.value))
            if owner is not None:
                return owner.attr_types.get(receiver.attr)
        return None

    # -- traversal ------------------------------------------------------

    def run(self) -> None:
        node = self.info.node
        for decorator in getattr(node, "decorator_list", []):
            expr = decorator.func if isinstance(decorator, ast.Call) else decorator
            target = self._resolve_callable(expr)
            if target is not None:
                self.info.refs.append((target, decorator.lineno))
        if isinstance(node, ast.Lambda):
            body: list[ast.AST] = [node.body]
        else:
            body = list(getattr(node, "body", []))
        for child in body:
            self.visit(child)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions are resolved as their own FunctionInfo

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Anonymous lambdas belong to the enclosing function's body:
        # walk them so their calls (callbacks!) land on this function.
        self.visit(node.body)

    def visit_Call(self, node: ast.Call) -> None:
        site = CallSite(
            line=node.lineno,
            col=node.col_offset,
            node=node,
        )
        func = node.func
        self._call_funcs.add(id(func))
        site.target = self._resolve_callable(func)
        if isinstance(func, ast.Attribute):
            site.receiver = _receiver_text(func.value)
            site.attr = func.attr
            site.dotted = resolve_dotted(func, self.index.imports)
        elif isinstance(func, ast.Name):
            site.dotted = resolve_dotted(func, self.index.imports)
            if (
                site.dotted is None
                and site.target is None
                and func.id in TRACKED_BUILTINS
            ):
                site.dotted = f"builtins.{func.id}"
        self.info.calls.append(site)
        for child in ast.iter_child_nodes(func):
            self.visit(child)
        for arg in node.args:
            self._note_escape(arg)
            self.visit(arg)
        for keyword in node.keywords:
            self._note_escape(keyword.value)
            self.visit(keyword.value)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._note_escape(node.value)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._note_escape(node.value)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_escape(node.value)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) not in self._call_funcs:
            dotted = resolve_dotted(node, self.index.imports)
            if dotted is not None and self._project_lookup(dotted) is None:
                self.info.ext_uses.append((dotted, node.lineno))
                return  # maximal chain recorded; skip sub-attributes
        self.generic_visit(node)

    def _note_escape(self, node: ast.expr) -> None:
        """A bare reference to a project function escaping into a call
        argument, return value, assignment or delegation: edge, because
        whoever receives it may call it."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            target = self._resolve_callable(node)
            if target is not None and target != self.info.qualname:
                self.info.refs.append((target, node.lineno))


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def build_project(files: list[Path]) -> ProjectGraph:
    """Index ``files`` and resolve the call graph."""
    graph = ProjectGraph()
    indexes: dict[str, _ModuleIndex] = {}
    for file_path in files:
        try:
            source = file_path.read_text()
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError):
            continue  # unreadable/unparseable files are reported by layer 1
        module = module_name_for(file_path)
        display = str(file_path).replace("\\", "/")
        index = _ModuleIndex(
            module=module,
            path=display,
            tree=tree,
            imports=collect_imports(tree),
        )
        indexes[module] = index
        graph.modules[module] = display
        graph.sources[display] = source
        _Indexer(graph, index).visit(tree)

    _resolve_bases(graph, indexes)
    for cls in graph.classes.values():
        init = graph.functions.get(cls.methods.get("__init__", ""))
        if init is not None:
            typed = _CallResolver(graph, indexes, init).local_types
            cls.attr_types = {
                name.removeprefix("self."): cls_name
                for name, cls_name in typed.items()
                if name.startswith("self.")
            }

    for info in list(graph.functions.values()):
        resolver = _CallResolver(graph, indexes, info)
        resolver.run()
        edges = graph.edges.setdefault(info.qualname, [])
        for site in info.calls:
            if site.target is not None:
                edges.append((site.target, site.line))
        for target, line in info.refs:
            edges.append((target, line))
        # Nested defs always reach their parent scope's graph position:
        # add containment edges so locally-defined closures (submit_ready
        # & friends) are reachable whenever their parent is.
        for nested_name, nested_qual in resolver.local_funcs.items():
            if nested_qual.startswith(info.qualname + "."):
                edges.append((nested_qual, info.lineno))
    return graph


def _resolve_bases(
    graph: ProjectGraph, indexes: dict[str, _ModuleIndex]
) -> None:
    for info in graph.classes.values():
        raw = getattr(info, "_bases_raw", [])
        index = indexes.get(info.module)
        if index is None:
            continue
        for base in raw:
            dotted = resolve_dotted(base, index.imports)
            candidates = [dotted] if dotted else []
            if isinstance(base, ast.Name):
                local = index.defs.get(base.id)
                if local:
                    candidates.append(local)
                candidates.append(f"{info.module}.{base.id}")
            for candidate in candidates:
                if candidate in graph.classes and candidate != info.qualname:
                    info.bases.append(candidate)
                    break
