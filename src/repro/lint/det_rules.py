"""Determinism rules DET001–DET004.

Each rule targets one class of entropy that has historically broken the
byte-identical-replay invariant:

* **DET001** — direct ``random.Random(...)`` construction or
  ``random.*`` module-state calls.  All streams must derive from
  :class:`~repro.common.rng.RngRegistry` so adding a consumer never
  perturbs existing streams.
* **DET002** — wall-clock reads (``time.time``, ``datetime.now``, …).
  Simulated time comes from the event loop; host time is only legal in
  the telemetry wall-clock profile path, and only under a waiver.
* **DET003** — order-sensitive consumption of ``set``/``frozenset``
  values (iteration, ``list(...)``, ``join``) without ``sorted(...)``.
  Set order is salted per process, so anything it feeds — digests,
  schedules, audit output — diverges between replicas.
* **DET004** — floating-point accumulation inside digest/hash paths.
  Float summation is order- and platform-sensitive; digests must fold
  integers.
"""

from __future__ import annotations

import ast
import re

from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import (
    ModuleSource,
    Rule,
    register,
    resolve_dotted,
)

#: Constructors of stateful generators and module-level state functions.
RANDOM_CONSTRUCTORS = {"random.Random", "random.SystemRandom"}
RANDOM_MODULE_STATE = {
    "random.seed",
    "random.getstate",
    "random.setstate",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.randbytes",
    "random.getrandbits",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.triangular",
    "random.betavariate",
    "random.binomialvariate",
    "random.expovariate",
    "random.gammavariate",
    "random.gauss",
    "random.lognormvariate",
    "random.normalvariate",
    "random.vonmisesvariate",
    "random.paretovariate",
    "random.weibullvariate",
}

WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class DirectRandomRule(Rule):
    """DET001: entropy must route through RngRegistry."""

    rule_id = "DET001"
    title = "direct random construction / module-state use"
    exempt_suffixes = ("repro/common/rng.py",)

    def check(self, module: ModuleSource) -> list[Diagnostic]:
        diagnostics = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, module.imports)
            if dotted in RANDOM_CONSTRUCTORS:
                diagnostics.append(
                    self.diagnostic(
                        module,
                        node,
                        f"direct {dotted}(...) bypasses RngRegistry; derive a "
                        "named stream via repro.common.rng.RngRegistry instead",
                    )
                )
            elif dotted in RANDOM_MODULE_STATE:
                diagnostics.append(
                    self.diagnostic(
                        module,
                        node,
                        f"{dotted}() uses shared module state; draw from an "
                        "RngRegistry stream instead",
                    )
                )
        return diagnostics


@register
class WallClockRule(Rule):
    """DET002: simulated components must not read host time."""

    rule_id = "DET002"
    title = "wall-clock read outside the telemetry wall-clock path"

    def check(self, module: ModuleSource) -> list[Diagnostic]:
        diagnostics = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, module.imports)
            if dotted in WALL_CLOCK:
                diagnostics.append(
                    self.diagnostic(
                        module,
                        node,
                        f"{dotted}() reads the host clock; simulated time must "
                        "come from the event loop (waive only in the telemetry "
                        "wall-clock profile path)",
                    )
                )
        return diagnostics


# ----------------------------------------------------------------------
# DET003: unordered-set consumption
# ----------------------------------------------------------------------

#: ``func(set_expr)`` calls that preserve the set's (salted) order.
ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "iter", "enumerate", "reversed"}
#: ``obj.method(set_expr)`` calls that preserve the set's order.
ORDER_SENSITIVE_METHODS = {"join", "extend"}
SET_RETURNING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    return False


class _SetScope(ast.NodeVisitor):
    """Checks one lexical scope for order-sensitive set consumption."""

    def __init__(self, rule: Rule, module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.set_names: set[str] = set()
        self.diagnostics: list[Diagnostic] = []

    # -- set typing (syntactic) ----------------------------------------

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SET_RETURNING_METHODS
            ):
                return self.is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def bind(self, target: ast.expr, value: ast.expr | None, annotation=None):
        if not isinstance(target, ast.Name):
            return
        if annotation is not None and _is_set_annotation(annotation):
            self.set_names.add(target.id)
        elif value is not None and self.is_set_expr(value):
            self.set_names.add(target.id)
        else:
            self.set_names.discard(target.id)  # rebinding clears set-ness

    # -- traversal ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scopes are checked separately

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if len(node.targets) == 1:
            self.bind(node.targets[0], node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self.bind(node.target, node.value, annotation=node.annotation)

    def _flag(self, node: ast.expr, context: str) -> None:
        self.diagnostics.append(
            self.rule.diagnostic(
                self.module,
                node,
                f"{context} consumes an unordered set; wrap it in "
                "sorted(...) so replicas agree on the order",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._flag(node.iter, "for-loop iteration")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            if self.is_set_expr(generator.iter):
                self._flag(generator.iter, "list-comprehension iteration")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ORDER_SENSITIVE_BUILTINS
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], f"{func.id}(...)")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ORDER_SENSITIVE_METHODS
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], f".{func.attr}(...)")
        self.generic_visit(node)


@register
class SetOrderRule(Rule):
    """DET003: iteration order over sets is process-salted entropy."""

    rule_id = "DET003"
    title = "order-sensitive consumption of an unordered set"

    def check(self, module: ModuleSource) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for scope in self._scopes(module.tree):
            checker = _SetScope(self, module)
            for statement in scope:
                checker.visit(statement)
            diagnostics.extend(checker.diagnostics)
        return diagnostics

    def _scopes(self, tree: ast.Module) -> list[list[ast.stmt]]:
        scopes = [list(tree.body)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(list(node.body))
        return scopes


# ----------------------------------------------------------------------
# DET004: float accumulation in digest paths
# ----------------------------------------------------------------------

DIGEST_NAME_RE = re.compile(r"digest|hash|checksum|fingerprint", re.IGNORECASE)


def _has_float_arithmetic(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return True
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
            return True
    return False


@register
class FloatDigestRule(Rule):
    """DET004: digests must accumulate integers, not floats."""

    rule_id = "DET004"
    title = "floating-point accumulation in a digest/hash path"

    def check(self, module: ModuleSource) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for function in self._digest_functions(module.tree):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and _has_float_arithmetic(node.value)
                ):
                    diagnostics.append(
                        self.diagnostic(
                            module,
                            node,
                            "floating-point accumulation in digest path "
                            f"{function.name!r} is order/platform-sensitive; "
                            "accumulate integers (fixed-point) instead",
                        )
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and any(_has_float_arithmetic(arg) for arg in node.args)
                ):
                    diagnostics.append(
                        self.diagnostic(
                            module,
                            node,
                            "sum() over floats in digest path "
                            f"{function.name!r}; float addition is not "
                            "associative — accumulate integers instead",
                        )
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                ):
                    diagnostics.append(
                        self.diagnostic(
                            module,
                            node,
                            "float(...) conversion in digest path "
                            f"{function.name!r}; digest inputs must stay "
                            "integral",
                        )
                    )
        return diagnostics

    def _digest_functions(self, tree: ast.Module) -> list[ast.FunctionDef]:
        """Functions whose own or enclosing-class name marks a digest path."""
        functions: list[ast.FunctionDef] = []

        def walk(node: ast.AST, in_digest_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, bool(DIGEST_NAME_RE.search(child.name)))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if in_digest_class or DIGEST_NAME_RE.search(child.name):
                        functions.append(child)
                    walk(child, in_digest_class)
                else:
                    walk(child, in_digest_class)

        walk(tree, False)
        return functions
