"""Every module of the package uses each name it imports, keeps no
process-global cache, writes no float and branches on the relation's kind
only where it must.

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
or ``InitialTemplate``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import crspec

PACKAGE = sorted(Path(crspec.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
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


def kind_branches(source: str, kinds=RELATION_KINDS) -> list[str]:
    """The qualified name of the function around each isinstance call on one of the kinds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if names & set(kinds):
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


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
