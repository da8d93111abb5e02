"""No dead names in src/dnflow: no function binds a plain local that it never
reads, no module but __init__.py imports a name that it never uses, every
module-level function or class is exported or named elsewhere, and every
dataclass field is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dnflow"
MODULES = sorted(SRC.glob("*.py"))


def _read(node) -> set:
    """Names read anywhere under node, nested functions included."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unread_locals(source: str) -> list:
    """(function, line, name) for each plain `name = ...` in a function body
    whose name the function, its nested functions included, never reads."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _read(fn) | {name for n in ast.walk(fn)
                            if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AnnAssign, ast.NamedExpr))
                       else [])
            found.update((fn.name, t.lineno, t.id) for t in targets
                         if isinstance(t, ast.Name) and t.id not in read)
    return sorted(found)


def unused_imports(source: str) -> list:
    """(line, name) for each name a module imports and never reads."""
    tree = ast.parse(source)
    read = _read(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return found


def _exported(tree) -> set:
    """The strings of a module's __all__ and the names its imports bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unnamed_definitions(sources: dict) -> list:
    """(module, line, name) for each module-level function or class of the
    modules in sources (file name -> source) that is neither exported, by
    its module's __all__ or by __init__.py, nor named by any top-level
    statement but its own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    exported_by_init = _exported(trees["__init__.py"]) if "__init__.py" in trees else set()
    named = []  # (top-level statement, the names it holds)
    for tree in trees.values():
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            named.append((stmt, names))
    found = []
    for module, tree in trees.items():
        exported = exported_by_init | _exported(tree)
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name not in exported
                    and not any(stmt.name in names for other, names in named
                                if other is not stmt)):
                found.append((module, stmt.lineno, stmt.name))
    return sorted(found)


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list)


def unread_fields(sources: dict) -> list:
    """(module, line, class, field) for each field of a dataclass of the
    modules in sources (file name -> source) that no module reads, either as
    an attribute load or as a string constant naming it, the way the CSV
    columns and the config keys are read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted((module, stmt.lineno, cls.name, stmt.target.id)
                  for module, tree in trees.items()
                  for cls in ast.walk(tree) if _is_dataclass(cls)
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def test_no_function_binds_a_local_it_never_reads():
    assert len(MODULES) > 10
    found = {path.name: unread_locals(path.read_text()) for path in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text()) for path in MODULES
             if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_every_definition_is_exported_or_named():
    assert unnamed_definitions({path.name: path.read_text() for path in MODULES}) == []


def test_every_dataclass_field_is_read():
    found = unread_fields({path.name: path.read_text() for path in MODULES})
    assert found == []


def test_the_checks_find_dead_names():
    source = '''
import math
import os.path
from json import dumps as to_json, loads


def f(a):
    unused = a + 1
    kept = 2
    (pair := 3)

    def g():
        return kept

    return g, loads
'''
    assert unread_locals(source) == [("f", 8, "unused"), ("f", 10, "pair")]
    assert unused_imports(source) == [(2, "math"), (3, "os"), (4, "to_json")]
    modules = {
        "__init__.py": "from .a import public\n",
        "a.py": """
__all__ = ["listed"]


def public():
    return _helper()


def _helper():
    return 1


def listed():
    return 2


def unused(n):
    return unused(n - 1) if n else 0


class Orphan:
    pass
""",
        "b.py": "from . import a\n\n\ndef called():\n    return a.listed()\n",
    }
    assert unnamed_definitions(modules) == [
        ("a.py", 17, "unused"), ("a.py", 21, "Orphan"), ("b.py", 4, "called")]
    fields = {
        "a.py": """
from dataclasses import dataclass


@dataclass(frozen=True)
class Block:
    ends: list
    width: int
    trace: tuple | None = None


@dataclass
class Row:
    column: float
    stale: float


class Plain:
    left: int
""",
        "b.py": """
COLUMNS = ("column",)


def size(block):
    block.trace = None
    return len(block.ends) * block.width
""",
    }
    assert unread_fields(fields) == [("a.py", 9, "Block", "trace"), ("a.py", 15, "Row", "stale")]
