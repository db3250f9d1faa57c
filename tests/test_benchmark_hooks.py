"""The benchmark's tracing hooks name functions that exist.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its ``HOOKS``
table in every benchmark run, traced or not, so a renamed or removed
function breaks every run.  This test reads that table without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vemlab import kernels

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _name, _after in spans.HOOKS]


@pytest.mark.parametrize("mod, attr", _hooks(), ids=lambda v: v)
def test_hook_target_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


def test_backend_name():
    assert kernels.backend_name() == "python"
