"""Every public top-level name in src/anchorlex/ is reached from outside tests.

A name counts as reached when some other top-level statement in
src/anchorlex/, scripts/ or perfbench/ mentions it: as a name, an
attribute, an imported name, or a word of a string constant (the
benchmark's tracer lists the functions it wraps as strings). Comments
and docstrings do not count, and neither does the name's own
definition, so a recursive or self-describing function is not reached
by itself. Code that only tests reach belongs in tests/.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anchorlex"
SEARCHED = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# name -> why it stays although no stage reaches it
ALLOWED = {
    "cohen_kappa": "the subject of acceptance criterion 03 (kappa on hand-checked examples)",
}


def _words(stmt: ast.stmt) -> set[str]:
    """Identifiers a top-level statement mentions, docstrings aside."""
    docstrings = {
        id(n.value)
        for n in ast.walk(stmt)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    out: set[str] = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(re.findall(r"\w+", n.value))
    return out


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unreached() -> list[str]:
    statements = [
        (path, stmt)
        for d in SEARCHED
        for path in sorted(d.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    words = [_words(stmt) for _, stmt in statements]
    out = []
    for i, (path, stmt) in enumerate(statements):
        if path.parent != PACKAGE:
            continue
        for name in _defined(stmt):
            if name.startswith("_") or name in ALLOWED:
                continue
            if not any(name in w for j, w in enumerate(words) if j != i):
                out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_reached_outside_tests():
    assert unreached() == []


def test_allowed_names_still_exist():
    defined = {
        name
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in _defined(stmt)
    }
    assert set(ALLOWED) <= defined
