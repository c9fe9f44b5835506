"""The library's public names are the list in README's `### Supported names`.

Every module under `src/consentry/` but `oracle.py`, the test suite's
reference, is read with `ast`: its top-level functions, classes and
assignments, and in each public class the methods, class attributes and
fields, and the `self.<name>` assignments of its methods, its own and those
of the private base classes it extends in the same module. A name is public
when it does not start with "_"; in a class a dunder counts too, unless it
is plumbing that every value has. The list is written once, in README, and
read from there.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import consentry

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "consentry"
PLUMBING = {"__init__", "__new__", "__slots__", "__repr__", "__str__", "__eq__", "__ne__",
            "__hash__"}


def listed_names() -> set[str]:
    """The README block as `place.name` strings: a line is `place: names`, and
    an indented line goes on with the place above."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Supported names\n", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    names = set()
    for line in block.splitlines():
        if not line[:1].isspace():
            place, _, line = line.partition(":")
        names |= {f"{place}.{name}" for name in line.split()}
    return names


def targets(node: ast.AST) -> list[ast.expr]:
    """What an assignment binds, a tuple target's elements one by one."""
    if isinstance(node, ast.Assign):
        found = node.targets
    elif isinstance(node, ast.AnnAssign):
        found = [node.target]
    else:
        return []
    return [t for target in found
            for t in (target.elts if isinstance(target, ast.Tuple) else [target])]


def assigned(node: ast.stmt) -> list[str]:
    """The plain names an assignment binds."""
    return [t.id for t in targets(node) if isinstance(t, ast.Name)]


def self_attributes(method: ast.FunctionDef) -> list[str]:
    """The names a method binds on `self`."""
    return [t.attr for node in ast.walk(method) for t in targets(node)
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"]


def members(cls: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> set[str]:
    """What a class defines, with its private bases in the same module."""
    found = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            found |= {node.name, *self_attributes(node)}
        found |= set(assigned(node))
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id.startswith("_") and base.id in classes:
            found |= members(classes[base.id], classes)
    return found


def defined_names() -> set[str]:
    """Every public name the modules define, as `module.name` and
    `module.Class.name`."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in tree.body:
            top = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                else assigned(node)
            for name in top:
                if name.startswith("_"):
                    continue
                names.add(f"{path.stem}.{name}")
                if name in classes:
                    names |= {f"{path.stem}.{name}.{member}"
                              for member in members(classes[name], classes)
                              if not member.startswith("_")
                              or member.endswith("__") and member not in PLUMBING}
    return names


def test_every_public_name_is_listed_and_every_listed_name_exists():
    defined, listed = defined_names(), listed_names()
    assert sorted(defined - listed) == [], "public names missing from README's list"
    assert sorted(listed - defined) == [], "listed names that no module defines"


def test_every_exported_name_is_listed_where_it_is_defined():
    listed = listed_names()
    for name in consentry.__all__:
        if name == "__version__":
            continue
        home = getattr(consentry, name).__module__.removeprefix("consentry.")
        assert f"{home}.{name}" in listed, name

