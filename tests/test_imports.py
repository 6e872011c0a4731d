"""Every module of the package uses each name it imports, keeps no
process-global cache, writes no float, branches on the relation's kind
only where it must, builds trace entries only where it measures them,
exports only what it uses or documents, and annotates only with names
that resolve.

No linter runs with the test suite, so this reads each module's syntax
tree.  ``__init__.py`` is left out of the import check: its imports are the
public API.  Memos belong on the relation they describe, where they are
freed with it; ``functools.lru_cache`` and ``functools.cache`` would keep
every argument alive for the life of the process.  Arithmetic is exact, and
a stray ``/`` between ints, where ``//`` was meant, returns a float
silently; so no module but ``randgen``, whose Bernoulli densities are floats
by design, may hold a float literal or call ``float``.  The runtime side is
covered by the kernel tests, which check that every distance is a
``Fraction``.  Both relation kinds answer one region interface (see
``crspec.relations``), so ``isinstance`` against ``BoxRelation`` or
``FiniteRelation`` is left to the few places whose result differs by kind:
scenario parsing, the random point draw (whose RNG calls must not change)
and the return type of ``lift_tracer``.  Spaced and initial specifications
are both their requirement table (see ``crspec.specifications``), so only
``refute_property``'s template check may test for ``InitialSpecification``
or ``InitialTemplate``.  A ``TraceEntry`` is built only by
``specifications._report`` and, for the shift space, by
``ShiftSpace.trace_check``, so every reported distance is measured, never
copied from another entry.  A name that ``__init__.py`` exports is either read
by another module of the package or listed in the README's "Public API"
section, so an export kept only for the tests shows up here.  Annotations
are strings under ``from __future__ import annotations`` and are never
evaluated at run time, so ``typing.get_type_hints`` is called on every
function, class, method and property to catch a name that does not exist.
"""

import ast
import importlib
import inspect
import re
import typing
from collections import Counter
from pathlib import Path

import pytest

import crspec

PACKAGE = sorted(Path(crspec.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
INIT = Path(crspec.__file__)
README = Path(__file__).resolve().parents[1] / "README.md"
GLOBAL_CACHES = ("lru_cache", "cache")
FLOATS_BY_DESIGN = ("randgen.py",)
RELATION_KINDS = ("BoxRelation", "FiniteRelation")
KIND_BRANCHES = (
    "randgen.py: random_point",
    "scenario.py: _Builder.build",
    "scenario.py: _point",
    "specifications.py: lift_tracer",
)
SPEC_KINDS = ("InitialSpecification", "InitialTemplate")
SPEC_KIND_BRANCHES = ("verdicts.py: refute_property",)
TRACE_ENTRY_SITES = ("mahavier.py: ShiftSpace.trace_check", "specifications.py: _report")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom fractions import Fraction\nprint(Fraction(1))\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def process_global_caches(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in GLOBAL_CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in GLOBAL_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(node.attr)
    return sorted(found)


def test_the_check_sees_a_process_global_cache():
    source = (
        "import functools\nfrom functools import cache, cached_property\n"
        "@functools.lru_cache\ndef f(x):\n    return x\n"
    )
    assert process_global_caches(source) == ["cache", "lru_cache"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_process_global_caches(path):
    assert process_global_caches(path.read_text(encoding="utf-8")) == []


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_a_float():
    source = "x = 1 / 2 < 0.5\ny = float(3)\nz = isinstance(x, float) and 1e3\n"
    assert float_uses(source) == [
        "line 1: float literal 0.5",
        "line 2: float() call",
        "line 3: float literal 1000.0",
    ]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name not in FLOATS_BY_DESIGN], ids=lambda p: p.name
)
def test_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def call_sites(source: str, matches) -> list[str]:
    """The qualified name of the function around each call that matches(call) accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call) and matches(node):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def kind_branches(source: str, kinds=RELATION_KINDS) -> list[str]:
    """The qualified name of the function around each isinstance call on one of the kinds."""

    def matches(call):
        func = call.func
        if not (isinstance(func, ast.Name) and func.id == "isinstance" and len(call.args) == 2):
            return False
        names = {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
        return bool(names & set(kinds))

    return call_sites(source, matches)


def constructions(source: str, name: str) -> list[str]:
    """The qualified name of the function around each call of name(...) or module.name(...)."""

    def matches(call):
        func = call.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return call_sites(source, matches)


def test_the_check_sees_a_relation_kind_branch():
    source = (
        "from crspec import relations\n"
        "ok = isinstance(r, relations.BoxRelation)\n"
        "class C:\n"
        "    def f(self, r, c):\n"
        "        return isinstance(c, Cell) or isinstance(r, (int, FiniteRelation))\n"
        "def g(r):\n"
        "    return isinstance(r, BoxRelation | FiniteRelation)\n"
    )
    assert kind_branches(source) == ["<module>", "C.f", "g"]


def branch_sites(kinds) -> Counter:
    return Counter(
        f"{path.name}: {site}"
        for path in MODULES
        for site in kind_branches(path.read_text(encoding="utf-8"), kinds)
    )


def test_relation_kinds_are_branched_on_only_where_named():
    assert branch_sites(RELATION_KINDS) - Counter(KIND_BRANCHES) == Counter()


def test_specification_kinds_are_branched_on_only_where_named():
    assert branch_sites(SPEC_KINDS) - Counter(SPEC_KIND_BRANCHES) == Counter()


def test_the_check_sees_a_construction():
    source = (
        "class C:\n"
        "    def f(self, e):\n"
        "        return TraceEntry(1, 0, 0, e, None, None)\n"
        "g = lambda e: specifications.TraceEntry(e) or TraceReport(e)\n"
    )
    assert constructions(source, "TraceEntry") == ["C.f", "<module>"]


def test_trace_entries_are_built_only_where_named():
    sites = Counter(
        f"{path.name}: {site}"
        for path in MODULES
        for site in constructions(path.read_text(encoding="utf-8"), "TraceEntry")
    )
    assert sites == Counter(TRACE_ENTRY_SITES)


def exports(init_source: str) -> dict[str, str]:
    """Each name that a ``from .module import name`` puts in the package, with its module."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def referenced_names(source: str) -> set[str]:
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def public_api(readme: str) -> set[str]:
    """The names in backquotes in the README's "Public API" section."""
    _, found, rest = readme.partition("\n## Public API\n")
    return set(re.findall(r"`([A-Za-z_]\w*)`", rest.split("\n## ", 1)[0])) if found else set()


def unlisted_exports(init_source: str, modules: dict[str, str], readme: str) -> list[str]:
    """Exports that no library module but their own references and the README does not list."""
    listed = public_api(readme)
    refs = {module: referenced_names(source) for module, source in modules.items()}
    return sorted(
        name
        for name, home in exports(init_source).items()
        if name not in listed and not any(name in r for module, r in refs.items() if module != home)
    )


def test_the_check_sees_a_test_only_export():
    init = "from .a import used, listed, tested\n"
    modules = {
        "a": "def used(): pass\ndef listed(): pass\ndef tested(): return tested\n",
        "b": "from .a import used\nused()\n",
    }
    readme = "# a\n\n## Public API\n\n- `a`: `listed`\n\n## Tests\n\n`tested` is for the tests.\n"
    assert unlisted_exports(init, modules, readme) == ["tested"]


def test_every_export_is_used_or_listed_as_public():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    init = INIT.read_text(encoding="utf-8")
    assert unlisted_exports(init, modules, README.read_text(encoding="utf-8")) == []


def test_the_public_api_lists_only_exports():
    exported = exports(INIT.read_text(encoding="utf-8"))
    assert public_api(README.read_text(encoding="utf-8")) - set(exported) == set()


def definitions(module) -> list:
    """The functions and classes the module defines, and the methods, properties and
    cached properties of those classes."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        found.append(obj)
        if inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)
                member = getattr(member, "fget", None) or getattr(member, "func", member)
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    found.append(member)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_annotation_resolves(path):
    module = importlib.import_module(f"crspec.{path.stem}")
    failures = []
    for obj in definitions(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            failures.append(f"{obj.__qualname__}: {exc!r}")
    assert failures == []
