"""The package exports only what it, its CLI or its benchmark uses.

An exported name counts as used when code that runs refers to it: a
benchmark file, module-level code, a private or unexported function of the
package, or the definition of another used export. Tests do not count, nor
does ``__init__.py``, which only re-exports.
"""

import ast
from pathlib import Path

import oneperiod

ROOT = Path(__file__).resolve().parents[1]


def _references(node: ast.AST, bound: set) -> set:
    """Exported names that ``node`` refers to, by a bound name or as ``oneperiod.<name>``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in bound:
            found.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id == "oneperiod"):
            found.add(sub.attr)
    return found


def unused_exports(paths) -> list:
    exported = set(oneperiod.__all__)
    owned = {}     # export -> exports its definition refers to
    live = set()   # exports referred to by code that runs regardless
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined = {s.name for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
        imported = {alias.asname or alias.name for s in ast.walk(tree)
                    if isinstance(s, ast.ImportFrom) for alias in s.names}
        bound = exported & (defined | imported)
        for stmt in tree.body:
            refs = _references(stmt, bound)
            name = getattr(stmt, "name", None)
            if path.parent.name == "oneperiod" and name in exported:
                owned[name] = refs - {name}
            else:
                live |= refs
    used, pending = set(), list(live)
    while pending:
        name = pending.pop()
        if name not in used:
            used.add(name)
            pending.extend(owned.get(name, ()))
    return sorted(exported - used)


def test_every_export_is_used_outside_tests():
    package = [p for p in sorted((ROOT / "src" / "oneperiod").glob("*.py"))
               if p.name != "__init__.py"]
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert unused_exports(package + bench) == []
