"""Every module of the package uses each name it imports (the package's
__init__ re-exports, so it is left out), no module but labels reads the
label decoder untup (the library keeps each label's parts beside it instead
of decoding it), the generators name no encoder tup (they encode each label
once, through a LabelIndex), every public function of tests/oracles.py is imported by
some test module, so an oracle cannot outlive the code it checks, and every
function the benchmark tracer wraps still exists, so `run.py --trace` cannot
break on a rename, the only tables filled on lookup are the label
index's, the escape memo and the two part-wise tables, and the only weak
stores of live results are those of products, tensors and composites. Found with the
stdlib ast module: a name counts as used when it is read anywhere in the
module; annotations stay expressions in the tree even under
`from __future__ import annotations`."""
import ast
import importlib
import pathlib

import pytest

import bibucalc

PACKAGE = pathlib.Path(bibucalc.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = pathlib.Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(n for n in imported if n not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Mapping, Sequence\nx: Mapping\n") == ["Sequence", "os"]


def _lines_naming(source: str, name: str) -> list[int]:
    """Lines that name name: a read of it, an attribute of that name, or an
    import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == name for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "labels.py"],
                         ids=[p.name for p in MODULES if p.name != "labels.py"])
def test_module_does_not_decode_labels(path):
    assert _lines_naming(path.read_text(), "untup") == []


def test_untup_scan_sees_every_use():
    snippet = ("from .labels import tup, untup\nfrom . import labels\n"
               "x = untup('(a)')\ny = labels.untup\nz = tup('a')\n")
    assert _lines_naming(snippet, "untup") == [1, 3, 4]
    assert _lines_naming(snippet, "tup") == [1, 5]


def test_generators_do_not_encode_labels():
    assert _lines_naming((PACKAGE / "generators.py").read_text(), "tup") == []


def _lazy_tables(source: str) -> tuple[set[str], set[str]]:
    """The classes that define __missing__, and the subclasses of
    _LazyTable, whether named bare or as an attribute."""
    missing, tables = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body):
            missing.add(node.name)
        if any(getattr(base, "id", getattr(base, "attr", None)) == "_LazyTable" for base in node.bases):
            tables.add(node.name)
    return missing, tables


def test_lazy_tables_are_the_part_wise_ones():
    """A table filled on lookup is the lazy label index's, the escape memo,
    or one of the part-wise tables on _LazyTable, which holds their one
    __missing__: a new table of parts reuses those instead of spelling its
    own fill. The part-wise tables are a product's or tensor's moments and
    fibers, and a tensor's orbit reach, whose entries are pairs joined
    through two codecs, which _Partwise's one join cannot spell; and the
    point maps of built 2-cells, whose entries are their builders'
    formulas."""
    missing, tables = set(), set()
    for path in MODULES:
        found = _lazy_tables(path.read_text())
        missing |= {f"{path.stem}.{name}" for name in found[0]}
        tables |= {f"{path.stem}.{name}" for name in found[1]}
    assert sorted(missing) == ["core._LazyTable", "labels.Escapes", "labels._LazyLabels", "labels._LazyParts"]
    assert sorted(tables) == ["bibundle._PartwiseReach", "calculus._PointMap", "core._Partwise",
                              "core._PartwiseFibers"]


def test_lazy_table_scan_sees_every_fill():
    snippet = ("class A(dict):\n    def __missing__(self, k):\n        return k\n"
               "class B(_LazyTable):\n    pass\n"
               "class C(core._LazyTable):\n    def _entry(self, k):\n        return k\n"
               "class D(dict):\n    def get(self, k):\n        return k\n")
    assert _lazy_tables(snippet) == ({"A"}, {"B", "C"})


def _weak_stores(source: str) -> set[str]:
    """Every WeakValueDictionary the source builds: by name when it is the
    value of a module-level assignment, else by line."""
    tree = ast.parse(source)
    named = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            named[id(node.value)] = ",".join(getattr(t, "id", "?") for t in targets)
    return {named.get(id(node), f"line {node.lineno}") for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "WeakValueDictionary"}


def test_live_result_stores_are_the_three_constructions():
    """A construction that returns its live result for the same inputs keeps
    it in one module-level weak store: the product, tensor and composite
    stores. A new construction reuses that rule instead of threading its
    results through parameters or keeping a store of its own."""
    stores = set()
    for path in MODULES:
        stores |= {f"{path.stem}.{name}" for name in _weak_stores(path.read_text())}
    assert sorted(stores) == ["calculus._COMPOSITES", "calculus._TENSORS", "core._PRODUCTS"]


def test_weak_store_scan_sees_every_store():
    snippet = ("import weakref\nfrom weakref import WeakValueDictionary\n"
               "A = weakref.WeakValueDictionary()\n"
               "B: dict = WeakValueDictionary()\n"
               "C = {}\n"
               "class Env:\n    def __init__(self):\n"
               "        self.store = weakref.WeakValueDictionary()\n"
               "def f():\n    return WeakValueDictionary()\n")
    found = _weak_stores(snippet)
    assert found == {"A", "B", "line 8", "line 10"}


def _oracle_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "oracles"
            for alias in node.names}


def test_every_oracle_is_imported_by_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    imported = set().union(*(_oracle_imports(p.read_text()) for p in TESTS.glob("test_*.py")))
    assert sorted(public - imported) == []


def test_oracle_scan_reads_from_imports():
    assert _oracle_imports("from oracles import a, b as c\nimport oracles\n") == {"a", "b"}


def _spanned(source: str) -> dict[str, tuple[str, ...]]:
    """The SPANNED table of the tracer's source, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANNED table")


def test_every_traced_function_exists():
    spanned = _spanned((TESTS.parent / "benchmark" / "tracing.py").read_text())
    assert "diagram" in spanned and "tensor_bibundle" in spanned["calculus"]
    missing = [f"{module}.{name}" for module, names in spanned.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"bibucalc.{module}"), name, None))]
    assert missing == []
