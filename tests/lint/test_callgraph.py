"""Call-graph construction: resolution through the dynamic corners —
decorators, bound/unbound methods, functools.partial, lambdas,
yield from, and cross-module aliasing."""

from pathlib import Path

from repro.lint.flow.callgraph import build_project, module_name_for

UTIL = '''\
import functools


def base():
    return 1


def deco(fn):
    return fn


alias = base

part = functools.partial(base)

square = lambda x: x * x  # noqa: E731
'''

MOD = '''\
from functools import partial

from pkg import util
from pkg.util import base as renamed


@util.deco
def decorated():
    return renamed()


class Base:
    def ping(self):
        return base_helper()


class Child(Base):
    def run(self):
        return self.ping()


def base_helper():
    return util.base()


def uses_partial():
    p = partial(util.base)
    return p()


def uses_lambda():
    f = lambda: util.base()  # noqa: E731
    return f()


def uses_module_partial():
    return util.part()


def uses_alias():
    return util.alias()


def gen_inner():
    yield 1


def gen_outer():
    yield from gen_inner()


def registry(callback):
    return callback


def escapes():
    return registry(util.base)


def unbound():
    return Base.ping(Child())


def typed(arg: Child):
    return arg.run()


class Owner:
    def __init__(self):
        self.part = Child()
        self.noted: Base = make_base()

    def via_self(self):
        return self.part.run()

    def via_annotation(self):
        return self.noted.ping()


def via_typed_local():
    owner = Owner()
    return owner.part.run()


def make_base():
    return Base()
'''


def build_fixture(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "util.py").write_text(UTIL)
    (pkg / "mod.py").write_text(MOD)
    files = [pkg / "__init__.py", pkg / "util.py", pkg / "mod.py"]
    return build_project([Path(f) for f in files])


def edge_targets(graph, qualname):
    return {target for target, _ in graph.callees(qualname)}


def test_module_name_for_walks_packages(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "leaf.py").write_text("x = 1\n")
    assert module_name_for(pkg / "leaf.py") == "pkg.sub.leaf"
    assert module_name_for(pkg / "__init__.py") == "pkg.sub"


def test_functions_and_classes_indexed(tmp_path):
    graph = build_fixture(tmp_path)
    for qualname in (
        "pkg.util.base",
        "pkg.util.square",  # module-level lambda bound to a name
        "pkg.mod.Base.ping",
        "pkg.mod.Child.run",
        "pkg.mod.gen_outer",
    ):
        assert qualname in graph.functions, qualname
    assert "pkg.mod.Child" in graph.classes
    assert graph.classes["pkg.mod.Child"].bases == ["pkg.mod.Base"]


def test_decorator_reference_is_an_edge(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.util.deco" in edge_targets(graph, "pkg.mod.decorated")


def test_import_alias_resolves_cross_module(tmp_path):
    graph = build_fixture(tmp_path)
    # `from pkg.util import base as renamed` then `renamed()`
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.decorated")


def test_bound_method_resolves_through_inheritance(tmp_path):
    graph = build_fixture(tmp_path)
    # Child.run calls self.ping(), defined on Base
    assert "pkg.mod.Base.ping" in edge_targets(graph, "pkg.mod.Child.run")
    assert (
        graph.resolve_method("pkg.mod.Child", "ping") == "pkg.mod.Base.ping"
    )


def test_unbound_method_call_resolves(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.mod.Base.ping" in edge_targets(graph, "pkg.mod.unbound")


def test_annotated_parameter_resolves_method(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.mod.Child.run" in edge_targets(graph, "pkg.mod.typed")


def test_attribute_typed_in_init_resolves_method(tmp_path):
    graph = build_fixture(tmp_path)
    # `self.part = Child()` in __init__, then `self.part.run()` — on
    # self and on a typed local's attribute.
    for caller in ("Owner.via_self", "via_typed_local"):
        assert "pkg.mod.Child.run" in edge_targets(graph, f"pkg.mod.{caller}")
    # `self.noted: Base = ...` — the annotation names the class.
    assert "pkg.mod.Base.ping" in edge_targets(graph, "pkg.mod.Owner.via_annotation")
    assert graph.classes["pkg.mod.Owner"].attr_types == {
        "part": "pkg.mod.Child",
        "noted": "pkg.mod.Base",
    }


def test_local_partial_binding(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.uses_partial")


def test_module_level_partial_alias(tmp_path):
    graph = build_fixture(tmp_path)
    # util.part = functools.partial(base) at module level
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.uses_module_partial")


def test_module_level_alias_cross_module(tmp_path):
    graph = build_fixture(tmp_path)
    # util.alias = base, called as util.alias() from another module
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.uses_alias")


def test_lambda_body_calls_land_on_enclosing_function(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.uses_lambda")


def test_yield_from_and_generator_flags(tmp_path):
    graph = build_fixture(tmp_path)
    assert "pkg.mod.gen_inner" in edge_targets(graph, "pkg.mod.gen_outer")
    assert graph.functions["pkg.mod.gen_outer"].is_generator
    assert graph.functions["pkg.mod.gen_inner"].is_generator
    assert not graph.functions["pkg.mod.base_helper"].is_generator


def test_escaping_reference_is_an_edge(tmp_path):
    graph = build_fixture(tmp_path)
    # util.base passed as an argument: whoever receives it may call it
    assert "pkg.util.base" in edge_targets(graph, "pkg.mod.escapes")


def test_reachable_and_chain(tmp_path):
    graph = build_fixture(tmp_path)
    tree = graph.reachable(["pkg.mod.Child.run"])
    assert "pkg.util.base" in tree
    assert graph.chain(tree, "pkg.util.base") == [
        "pkg.mod.Child.run",
        "pkg.mod.Base.ping",
        "pkg.mod.base_helper",
        "pkg.util.base",
    ]


def test_reachable_ignores_unknown_roots(tmp_path):
    graph = build_fixture(tmp_path)
    assert graph.reachable(["pkg.mod.nope"]) == {}
