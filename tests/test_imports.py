"""Every module of the package reads each name it imports, none reads the environment,
the package keeps a fixed number of caches, only roots.py builds a Lattice, one per
live row set, and each exact-value job has one implementation: Exact's arithmetic,
the field rule, the 64-bit check of a new row, and the one product of the induction."""

from __future__ import annotations

import ast
import gc
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootspin"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in order of appearance.

    A name counts as read wherever it occurs as an ast.Name, annotations
    included.  __future__ imports, star imports and names on a line marked
    `# noqa` (a deliberate re-export) are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_the_guard_finds_an_unused_name_and_honours_noqa():
    source = (
        "import os.path\n"
        "from json import dumps as write, loads\n"
        "from .roots import vec  # noqa: F401  (re-exported)\n"
        "from .lattice import (\n"
        "    Matrix,\n"
        "    negated,\n"
        ")\n"
        "def f(x: Matrix) -> None:\n"
        "    return loads(x)\n"
    )
    assert unused_imports(source) == ["os", "write", "negated"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The os.environ / os.getenv reads in source, as "line N: name", in order.

    Covers `os.<name>` under any alias of os and `from os import <name>`.
    """
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and node.attr in _ENVIRONMENT:
                reads.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENVIRONMENT]
    return [f"line {line}: {name}" for line, name in sorted(reads)]


def test_the_environment_guard_finds_every_spelling():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "CAP = os.environ.get('CAP')\n"
        "HOME = system.getenv('HOME')\n"
        "SEP = os.sep\n"
    )
    assert environment_reads(source) == ["line 3: os.getenv", "line 4: os.environ",
                                         "line 5: os.getenv"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # no setting outside a call's arguments may change an answer
    assert environment_reads(path.read_text()) == []


def lru_caches(source: str) -> list[str]:
    """The functions source decorates with functools.lru_cache, called or bare, in order.

    Covers `@lru_cache`, `@lru_cache(...)` and the same under `functools.`.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (isinstance(target, ast.Name) and target.id == "lru_cache") or (
                    isinstance(target, ast.Attribute) and target.attr == "lru_cache"
                ):
                    names.append(node.name)
    return names


def test_the_cache_guard_finds_every_spelling():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=1)\n"
        "def b(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def c(): pass\n"
        "@staticmethod\n"
        "def d(): pass\n"
    )
    assert lru_caches(source) == ["a", "b", "c"]


def test_the_package_keeps_its_five_caches():
    # a cache is a second copy of a fact: adding one changes this number on purpose.
    # clifford's blade names are a constant table, not a cache of two values
    caches = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py")) for name in lru_caches(path.read_text())
    ]
    assert len(caches) == 5, caches


def calls_of(name: str, source: str) -> list[int]:
    """The lines on which source calls name, bare or as an attribute (`x.name(...)`)."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def test_the_call_guard_finds_every_spelling():
    source = "from . import lattice\nLattice(1)\nlattice.Lattice(2)\nLattice\nf(Lattice)\n"
    assert calls_of("Lattice", source) == [2, 3]


def test_only_roots_builds_a_lattice():
    # a Lattice takes a RootSystem's distinct nonzero rows, so RootSystem._from_rows,
    # which registers a new row set's record, is the one place that builds one
    builders = {
        path.name: lines for path in sorted(PACKAGE.glob("*.py"))
        if (lines := calls_of("Lattice", path.read_text()))
    }
    assert list(builders) == ["roots.py"] and len(builders["roots.py"]) == 1, builders


def test_one_record_per_row_set(fresh_lattices):
    # a RootSystem is a named view of its rows' one record, the registered Lattice,
    # which also holds the decoded roots and the stored induced set
    from rootspin import RootSystem, build_preset, induce_4d, roots
    from rootspin.serialize import root_system_from_json, root_system_to_json

    assert not hasattr(roots, "_Facts") and "_facts" not in RootSystem.__slots__
    h3 = build_preset.__wrapped__("H3")  # a fresh instance, in the empty registry
    copy = RootSystem(h3.roots, h3.disc, label="copy")
    induced = induce_4d(h3)
    live = [h3, copy, root_system_from_json(root_system_to_json(copy)), induced,
            induce_4d(copy), build_preset.__wrapped__("H4")]
    gc.collect()
    records: dict[tuple, set[int]] = {}
    for rs in live:
        records.setdefault((frozenset(rs.rows), rs.disc), set()).add(id(rs.lattice))
    assert records == {key: {id(record)} for key, record in fresh_lattices.items()}
    assert len(records) == 2
    assert h3.lattice.roots is copy.roots and h3.lattice.induced is induced.lattice


def scoped_nodes(tree: ast.AST):
    """(scope, node) for every node of tree, where scope names the classes and
    functions around the node, dotted ("Exact.scale"), and is "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                yield from visit(child, scope)

    yield from visit(tree, "")


_EXACT_ARITHMETIC = {"__add__", "__sub__", "__neg__", "scale", "_check"}


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a class-body statement defines: a def's name, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def exact_overrides(source: str) -> list[str]:
    """"Class.member" for each member of _EXACT_ARITHMETIC that a subclass of Exact, at
    any depth, defines or assigns in source, in order of appearance."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    derived = {"Exact"}
    for _ in classes:  # one pass per level of depth is enough
        derived |= {c.name for c in classes for base in c.bases
                    if getattr(base, "id", getattr(base, "attr", None)) in derived}
    return [f"{c.name}.{name}" for c in classes if c.name != "Exact" and c.name in derived
            for node in c.body for name in _defined_names(node) if name in _EXACT_ARITHMETIC]


def test_the_override_guard_finds_every_spelling():
    source = (
        "class Exact:\n"
        "    def __add__(self, other): pass\n"
        "class Vector(Exact):\n"
        "    def scale(self, s): pass\n"
        "    __neg__ = lambda self: self\n"
        "    def dot(self, other): pass\n"
        "class Rotor:\n"
        "    def __neg__(self): pass\n"
        "class Spinor(lattice.Exact):\n"
        "    _check: object = None\n"
        "class Even(Spinor):\n"
        "    def __sub__(self, other): pass\n"
    )
    assert exact_overrides(source) == ["Vector.scale", "Vector.__neg__", "Spinor._check",
                                       "Even.__sub__"]


def test_exact_holds_the_only_row_arithmetic():
    # Vector and Multivector add only their constructors over QScalars
    source = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert exact_overrides(source) == []


def holders_of(text: str, source: str) -> list[str]:
    """The scopes of source whose string literals, docstrings aside, hold text, once each."""
    tree = ast.parse(source)
    docstrings = {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return list(dict.fromkeys(
        scope for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and text in node.value and node not in docstrings
    ))


def test_the_message_guard_finds_every_spelling():
    source = (
        "def rule(a, b):\n"
        "    raise FieldMismatch(f'cannot combine Q(sqrt({a})) with Q(sqrt({b}))')\n"
        "class Q:\n"
        "    def mix(self):\n"
        "        message = 'cannot combine Q(sqrt(2)) with Q(sqrt(3))'\n"
        "        raise FieldMismatch(message)\n"
        "    def told(self):\n"
        "        \"\"\"Raises 'cannot combine Q(sqrt(d))' through rule.\"\"\"\n"
        "        return rule(1, 2)\n"
        "def outer():\n"
        "    def inner():\n"
        "        raise ValueError('cannot combine Q(sqrt(5)) with ' + 'Q(sqrt(7))')\n"
        "    return inner\n"
    )
    assert holders_of("cannot combine Q(sqrt(", source) == ["rule", "Q.mix", "outer.inner"]


def test_one_function_holds_the_field_rule():
    # QScalar._common_disc, lattice.field_disc and lattice.vectors_disc call it
    holders = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in holders_of("cannot combine Q(sqrt(", path.read_text())]
    assert holders == ["qfield.common_disc"]


def int64_comparisons(source: str) -> list[str]:
    """The scope of each comparison in source that reads _INT64_MAX, in order."""
    return [
        scope for scope, node in scoped_nodes(ast.parse(source)) if isinstance(node, ast.Compare)
        and any(getattr(n, "id", getattr(n, "attr", None)) == "_INT64_MAX" for n in ast.walk(node))
    ]


def test_the_bound_guard_finds_every_spelling():
    source = (
        "from .qfield import _INT64_MAX\n"
        "LIMIT = _INT64_MAX\n"
        "def f(x):\n"
        "    return x > _INT64_MAX or -qfield._INT64_MAX > x\n"
        "class E:\n"
        "    def g(self, x):\n"
        "        if abs(x) <= _INT64_MAX:\n"
        "            return max(x, _INT64_MAX)\n"
    )
    assert int64_comparisons(source) == ["f", "f", "E.g"]


def test_the_64_bit_bound_is_compared_in_few_places():
    # qfield.check_row is the one check of a new row, which Exact._from_row calls;
    # Exact.scale bounds its factor, and caps.admit pre-checks inline, per element
    sites = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope in int64_comparisons(path.read_text()) if path.stem != "qfield"}
    assert sites == {"caps.admit", "lattice.Exact.scale"}
    assert int64_comparisons((PACKAGE / "caps.py").read_text()) == ["admit"]


# a product kernel: a function named for a product, or a blade structure of one
_PRODUCT = re.compile(r"product|_BY_|^BLADES$")


def products_named(source: str) -> list[str]:
    """The product kernels that source imports or reads and does not define, once each.

    A name counts wherever it occurs as an imported name, an ast.Name or an
    attribute (`lattice.int_product`), so a call and a structure passed to one
    both count.
    """
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return sorted({n for n in names if _PRODUCT.search(n) and n not in defined})


def test_the_product_guard_finds_every_spelling():
    source = (
        "from .lattice import VECTOR_BY_VECTOR_2D, int_product as generic\n"
        "from . import lattice\n"
        "def pair_products(rs):\n"
        "    return lattice.int_vector_product(rs, rs, 1)\n"
        "def f(x):\n"
        "    return generic(x, x, lattice.BLADES[2], 1), pair_products(x)\n"
    )
    assert products_named(source) == ["BLADES", "VECTOR_BY_VECTOR_2D", "int_product",
                                      "int_vector_product"]
    # a planted copy of the real module, with a second product path beside the first
    planted = (PACKAGE / "induction.py").read_text() + (
        "from .lattice import VECTOR_BY_VECTOR_2D, int_product\n"
        "def _alpha_1_images(first, units, d):\n"
        "    return [int_product(first, u, VECTOR_BY_VECTOR_2D, d) for u in units]\n"
    )
    assert products_named(planted) == ["VECTOR_BY_VECTOR_2D", "int_product",
                                       "int_vector_product"]


def test_the_induction_runs_one_product():
    # induce_4d and induce_2d read their rotors off pair_products, whose one product is
    # Cl(3)'s closed-form vector product; a 2D set is padded into the e1 e2 plane
    assert products_named((PACKAGE / "induction.py").read_text()) == ["int_vector_product"]
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "VECTOR_BY_VECTOR_2D" in path.read_text()] == []


def setters_of(attribute: str, source: str) -> list[str]:
    """The scopes of source that set attribute by `object.__setattr__(x, "attribute", ...)`,
    once each, in order."""
    return list(dict.fromkeys(
        scope for scope, node in scoped_nodes(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == attribute
    ))


def test_the_setter_guard_finds_every_spelling():
    source = (
        "class Exact:\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'row', x)\n"
        "    @classmethod\n"
        "    def _stored(cls, x):\n"
        "        out = object.__new__(cls)\n"
        "        object.__setattr__(out, 'row', x)\n"
        "        object.__setattr__(out, 'disc', 1)\n"
        "        return out\n"
        "def _trusted(x):\n"
        "    setattr(x, 'row', 1)\n"
    )
    assert setters_of("row", source) == ["Exact.__init__", "Exact._stored"]


def test_each_exact_value_has_one_way_in():
    # a row is wrapped by Exact._from_row alone, which 64-bit-checks it; a rotor's unit
    # test and the mirror check read the row's squared norm (roots._is_unit), not a
    # geometric product; RotorGroup's public constructor and _trusted share one body;
    # every Rotor passes Rotor.__init__'s checks and every QScalar QScalar.__init__'s
    from rootspin import RotorGroup, clifford, lattice, qfield, roots

    source = (PACKAGE / "lattice.py").read_text()
    exact = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.ClassDef) and node.name == "Exact")
    assert [node.name for node in exact.body if isinstance(node, ast.FunctionDef)
            and any(getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
            ] == ["_from_row"]
    assert setters_of("row", source) == ["Exact.__init__", "Exact._from_row"]
    assert not hasattr(lattice.Exact, "_stored") and not hasattr(roots, "stored_vector")
    assert not hasattr(clifford, "_UNITS") and not hasattr(clifford, "_trusted_rotor")
    assert not hasattr(qfield, "_make")
    tree = ast.parse((PACKAGE / "clifford.py").read_text())
    for scope in ("Rotor.__init__", "_as_unit_vector_mv"):
        nodes = [node for where, node in scoped_nodes(tree) if where == scope]
        assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_unit"
                   for node in nodes), scope
        assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                       for node in nodes), scope
    assert not hasattr(RotorGroup, "_fill")
    assert setters_of("elements", (PACKAGE / "clifford.py").read_text()) == ["RotorGroup._trusted"]
