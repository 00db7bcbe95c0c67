"""Every public top-level name in src/anchorlex/ is reached from outside tests,
and every setting of a public top-level function is set from outside tests.

A name counts as reached when some other top-level statement in
src/anchorlex/, scripts/ or perfbench/ mentions it: as a name, an
attribute, an imported name, or a word of a string constant (the
benchmark's tracer lists the functions it wraps as strings). Comments
and docstrings do not count, and neither does the name's own
definition, so a recursive or self-describing function is not reached
by itself. Code that only tests reach belongs in tests/.

A defaulted parameter counts as set when some call in those files
passes it, by keyword or by position, to a function of that name (an
import alias such as `explain as explain_text` is resolved; a call with
`*args` passes every position, one with `**kwargs` every keyword). A
default that no caller overrides is a constant, not a setting.

`cli` hands every flag on to the library, so a CLI option counts as
passed only when some string constant in scripts/, perfbench/ or the
golden-record generators tests/golden_*.py equals its option string.

A script in scripts/ is run by hand, so nothing calls it: it counts as
reached when README.md, or a .py or .md file in tests/, perfbench/ or
scripts/ other than its own, names its file name.
"""

from __future__ import annotations

import argparse
import ast
import math
import re
from pathlib import Path

from anchorlex import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anchorlex"
SEARCHED = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
CALLERS = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tests").glob("golden_*.py")),
]

# name -> why it stays although no stage reaches it
ALLOWED = {
    "cohen_kappa": "the subject of acceptance criterion 03 (kappa on hand-checked examples)",
}

# module.function(parameter) -> why the setting stays although no caller sets it
ALLOWED_SETTINGS = {
    "synth.make_anchored_corpus(base_offensive_rate)": "acceptance criterion 06 states the rates;"
    " ROADMAP item 15 varies them",
    "synth.make_anchored_corpus(p_offensive_given_emoji)": "acceptance criterion 06 states the rates;"
    " ROADMAP item 15 varies them",
    "features.fit_features(config)": "fit_features is kept only for perfbench/spans.py until ROADMAP item 12",
}

_PATH = "a path, which is a deployment setting"
_PAPER = "a paper-level choice that ROADMAP item 15's rehearsal will exercise"
_ONE_VALUE = "one value in use; left for ROADMAP item 16's second slice, after item 15"

# CLI option string -> why it stays although no script, workload or golden generator passes it
ALLOWED_OPTIONS = {
    "--seeds": _PATH,
    "--rules": _PATH,
    "--classes": _PATH,
    "--manifest": _PATH,
    "--target": _PAPER,
    "--mode": _PAPER,
    "--class": _PAPER,
    "--char-ngrams": _PAPER,
    "--word-ngrams": _PAPER,
    "--C": _ONE_VALUE,
    "--ratios": _ONE_VALUE,
    "--min-valence": _ONE_VALUE,
    "--threshold": _ONE_VALUE,
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


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for d in SEARCHED for path in sorted(d.glob("*.py"))}


def unreached() -> list[str]:
    statements = [(path, stmt) for path, tree in _modules().items() for stmt in tree.body]
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


def _defaulted(fn: ast.FunctionDef) -> list[tuple[float, str]]:
    """(position, name) of each defaulted parameter; keyword-only ones have no position."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out: list[tuple[float, str]] = [(i, p.arg) for i, p in enumerate(pos) if i >= first]
    out += [(math.inf, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def unset() -> list[str]:
    modules = _modules()
    aliases = {
        a.asname: a.name
        for tree in modules.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        for a in n.names
        if a.asname
    }
    # called name -> the most positions any call fills, and the keywords passed (None: **kwargs)
    positions: dict[str, float] = {}
    keywords: dict[str, set[str | None]] = {}
    for tree in modules.values():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            if isinstance(n.func, ast.Name):
                name = aliases.get(n.func.id, n.func.id)
            elif isinstance(n.func, ast.Attribute):
                name = n.func.attr
            else:
                continue
            filled = math.inf if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
            positions[name] = max(positions.get(name, 0), filled)
            keywords.setdefault(name, set()).update(k.arg for k in n.keywords)
    out = []
    for path, tree in modules.items():
        if path.parent != PACKAGE:
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            passed = keywords.get(fn.name, set())
            for i, param in _defaulted(fn):
                setting = f"{path.stem}.{fn.name}({param})"
                if positions.get(fn.name, 0) > i or param in passed or None in passed:
                    continue
                if setting not in ALLOWED_SETTINGS:
                    out.append(setting)
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


def test_every_setting_is_set_outside_tests():
    assert unset() == []


def test_allowed_settings_still_exist():
    settings = {
        f"{path.stem}.{fn.name}({param})"
        for path, tree in _modules().items()
        if path.parent == PACKAGE
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for _, param in _defaulted(fn)
    }
    assert set(ALLOWED_SETTINGS) <= settings


def stage_options() -> dict[str, list[str]]:
    """stage -> the option strings of its parser, as `cli.build_parser(stage)` builds it; -h aside."""
    stages = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    out = {}
    for stage in stages:
        sub = next(a for a in cli.build_parser(stage)._actions if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices[stage]._actions
        out[stage] = [o for a in actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings]
    return out


def unpassed_options() -> list[str]:
    passed = {
        n.value
        for path in CALLERS
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    return [
        f"{stage} {option}"
        for stage, options in stage_options().items()
        for option in options
        if option not in passed and option not in ALLOWED_OPTIONS
    ]


def test_every_option_is_passed_outside_tests():
    assert unpassed_options() == []


def test_allowed_options_still_exist():
    assert set(ALLOWED_OPTIONS) <= {o for options in stage_options().values() for o in options}


def orphan_scripts() -> list[str]:
    readers = [ROOT / "README.md"] + [
        path
        for d in ("tests", "perfbench", "scripts")
        for path in sorted((ROOT / d).glob("*"))
        if path.suffix in (".py", ".md")
    ]
    texts = {path: path.read_text(encoding="utf-8") for path in readers}
    return [
        script.name
        for script in sorted((ROOT / "scripts").glob("*.py"))
        if not any(script.name in text for path, text in texts.items() if path != script)
    ]


def test_every_script_is_named_outside_itself():
    assert orphan_scripts() == []
