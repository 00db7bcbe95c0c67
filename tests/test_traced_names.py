"""Every function the benchmark's tracer wraps by name must still exist.

perfbench/spans.py patches anchorlex functions by module and name, and
a traced run stops with AttributeError on the first one that is gone.
This test makes a rename or deletion fail here instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from anchorlex.manifest import RunManifest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    spans = _load_spans()
    missing = [
        f"anchorlex.{mod}.{fn}"
        for table in (spans.SPANNED, spans.COUNTED)
        for mod, fns in table.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"anchorlex.{mod}"), fn, None))
    ]
    missing += [
        f"RunManifest.{m}" for m in spans.MANIFEST_METHODS if not callable(getattr(RunManifest, m, None))
    ]
    assert missing == []


def test_tracer_installs_on_what_the_workloads_import():
    """The tracer patches every module of its tables, and stages import the numpy
    modules late: the anchorlex imports of perfbench/workloads.py must load them all."""
    source = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    imports = [
        ast.get_source_segment(source, n)
        for n in ast.parse(source).body
        if isinstance(n, ast.ImportFrom) and n.module.startswith("anchorlex")
    ]
    assert imports, "workloads.py imports nothing of anchorlex"
    code = "; ".join([*imports, "from spans import Tracer", "t = Tracer()", "t.install()", "t.uninstall()"])
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
