"""Every function the benchmark's tracer wraps by name must still exist.

perfbench/spans.py patches anchorlex functions by module and name, and
a traced run stops with AttributeError on the first one that is gone.
This test makes a rename or deletion fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from anchorlex.manifest import RunManifest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
