"""Every name a module of the package exports must exist, and must be
reached by something other than the tests that pin it; so must every
field of an exported dataclass."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import avgsa

MODULES = ["avgsa"] + [
    info.name for info in pkgutil.walk_packages(avgsa.__path__, prefix="avgsa.")
]

_SRC = Path(avgsa.__file__).resolve().parent
_ROOT = _SRC.parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _reached(path: Path) -> set[str]:
    """Identifiers a Python file uses outside its ``__all__``: names it
    loads, attributes, names it imports, and string constants
    (``getattr(module, "name")``)."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        if _is_all(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def _defined_exports(path: Path) -> list[str]:
    """``__all__`` entries that the module defines rather than imports."""
    tree = ast.parse(path.read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    exported = next((ast.literal_eval(node.value) for node in tree.body if _is_all(node)), [])
    return [n for n in exported if n not in imported]


def test_every_export_is_reached_outside_the_unit_tests():
    # a name in __all__ must be reached by another module of the package
    # (not by the re-export in avgsa/__init__.py), by its own module beyond
    # its definition, by README.md, by the acceptance gates or by the
    # benchmark; one only the unit tests call is API nobody needs
    files = sorted(_SRC.rglob("*.py"))
    reached = {path: _reached(path) for path in files}
    readme = set(re.findall(r"\w+", (_ROOT / "README.md").read_text()))
    outside = _reached(_ROOT / "tests" / "test_acceptance.py")
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        outside |= _reached(path)
    unreached = []
    for path in files:
        others = set().union(*(reached[p] for p in files
                               if p not in (path, _SRC / "__init__.py")))
        for name in _defined_exports(path):
            if name not in others | reached[path] | readme | outside:
                unreached.append(f"{path.relative_to(_SRC)}: {name}")
    assert unreached == []


def _attributes_read(path: Path) -> set[str]:
    """Names a Python file reads as attributes, ``obj.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_exported_dataclass_field_is_read_outside_the_unit_tests():
    # a field of a dataclass in an __all__ must be read as obj.field by a
    # module of the package, its own included, by the acceptance gates or
    # by the benchmark; a field only the unit tests read is a result
    # nobody needs computed
    readers = (sorted(_SRC.rglob("*.py")) + [_ROOT / "tests" / "test_acceptance.py"]
               + sorted((_ROOT / "perfbench").glob("*.py")))
    read = set().union(*map(_attributes_read, readers))
    unread = []
    for name in MODULES:
        module = importlib.import_module(name)
        for export in _defined_exports(Path(module.__file__)):
            cls = getattr(module, export)
            if isinstance(cls, type) and dataclasses.is_dataclass(cls):
                unread += [f"{name}.{export}.{f.name}" for f in dataclasses.fields(cls)
                           if f.name not in read]
    assert unread == []


# every private name one module of the package takes from another, with why
# it is shared rather than made public; a new entry is a new coupling
_SHARED_PRIVATE = {
    ("engine", "innovations._BLOCK"): "run makes its gains in the sources' block size",
    ("applications.bandit", "innovations._BLOCK"): "its event and round streams map blocks",
    ("applications.correlation", "innovations._BLOCK"):
        "bs_bestof_price draws its payoffs in blocks of that size",
    ("applications.darkpool", "innovations._BLOCK"): "the series checks scan a block at a time",
    ("applications.darkpool", "engine._walk"): "darkpool_run steps, records and guards as run does",
    ("experiments", "innovations._DISCREPANCY_BUDGET"): "the config refusal names the limit",
    ("experiments", "innovations._within_discrepancy_budget"): "the refusal applies that test",
}


def _private_reads(path: Path) -> set[tuple[str, str]]:
    """``(module, "source._name")`` for each private name the file takes
    from another package module: ``from avgsa.source import _name``, or
    ``alias._name`` where ``alias`` is bound to ``avgsa.source``."""
    reader = ".".join(path.relative_to(_SRC).with_suffix("").parts)
    tree, aliases, found = ast.parse(path.read_text()), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("avgsa"):
            for a in node.names:
                full = f"{node.module}.{a.name}"
                if full in MODULES:
                    aliases[a.asname or a.name] = full
                elif a.name.startswith("_"):
                    found.add((reader, f"{node.module.removeprefix('avgsa.')}.{a.name}"))
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: a.name for a in node.names
                            if a.asname and a.name in MODULES})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add((reader, f"{aliases[node.value.id].removeprefix('avgsa.')}.{node.attr}"))
    return found


def test_private_names_shared_between_modules_are_the_listed_ones():
    shared = set().union(*map(_private_reads, sorted(_SRC.rglob("*.py"))))
    assert shared == set(_SHARED_PRIVATE)
