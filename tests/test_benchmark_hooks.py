"""The benchmark's tracing hooks name functions that exist.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its ``HOOKS``
table in every benchmark run, traced or not, so a renamed or removed
function breaks every run.  This test reads that table without changing it.
An import that no code of its module reads is kept only when it is marked
as such a hook target.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from vemlab import kernels

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src"
HOOK_MARK = "(perfbench/spans.py hook target"


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


def _hook_only_imports():
    """``(module, name)`` of every ``src/`` import marked as kept only for a
    ``perfbench/spans.py`` hook."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    HOOK_MARK in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                out += [(module, alias.asname or alias.name)
                        for alias in node.names]
    return out


def _unread_imports(path):
    """Names the module at ``path`` imports and never reads, less those of
    an import marked as a hook target."""
    lines = path.read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
            HOOK_MARK in line
            for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


# the package's __init__ imports to re-export
@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.rglob("*.py"))
             if p != SRC / "vemlab" / "__init__.py"],
    ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read_or_hooked(path):
    assert _unread_imports(path) == []


def test_hook_only_imports_are_hooked():
    # an import kept only as a hook target must go when its hook goes
    imports = _hook_only_imports()
    assert ("vemlab.assembly", "element_geometry") in imports
    hooks = set(_hooks())
    assert [pair for pair in imports if pair not in hooks] == []
