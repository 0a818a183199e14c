"""Every module-level import under ``src/repro`` is used by its module,
and the simulated system reports to ``Observability`` alone.

An import nothing reads is dead code, and it misstates what the module
depends on.  ``__init__.py`` files are skipped: their imports are
re-exports.  A name counts as used when the module reads it, names it
in a string annotation, or lists it in ``__all__``.

The simulated system's modules report events to
:class:`~repro.obs.context.Observability` and never reach one of its
recorders or import a trace-event kind or lifecycle mark: which
recorder records what is decided in ``repro.obs`` alone.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _imported(tree: ast.Module):
    """``(name, line)`` for every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(name.id for name in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree)
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from typing import List, Optional\n"
              "import os.path\n"
              "def f(x: 'Optional[int]') -> None:\n"
              "    return os.path.join('a')\n")
    assert unused_imports(source) == ["List (line 1)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC.parent)))
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


# ----------------------------------------------------------------------
# The observation boundary: the simulated system reports events to
# ``Observability`` and never names one of its recorders.
# ----------------------------------------------------------------------
SIMULATED = sorted(
    [path for package in ("hw", "iommu", "iova", "kalloc", "dma", "core",
                          "net", "sim")
     for path in (SRC / package).rglob("*.py")]
    + [SRC / "faults" / "injector.py"]
    + [SRC / "workloads" / f"{name}.py"
       for name in ("netperf", "storage", "memcached")])

_RECORDER_ACCESS = re.compile(
    r"obs(_ctx)?\.(tracer|metrics|exposure|requests|locks|spans)\b")


def recorder_references(source: str):
    """Recorder accesses and imported ``EV_*``/``MARK_*`` schema names."""
    found = []
    for match in _RECORDER_ACCESS.finditer(source):
        line = source.count("\n", 0, match.start()) + 1
        found.append(f"{match.group(0)} (line {line})")
    found += [f"import {name} (line {line})"
              for name, line in _imported(ast.parse(source))
              if name.startswith(("EV_", "MARK_"))]
    return found


def test_the_boundary_check_sees_recorders_and_schemas():
    source = ("from repro.obs.trace import EV_DMA_MAP\n"
              "from repro.obs.spans import SPAN_COPY\n"
              "def f(self, obs_ctx):\n"
              "    self.obs.metrics.counter('x').inc()\n"
              "    obs_ctx.requests.end(None)\n"
              "    self.obs.dma_copied(None, 1, False, 2)\n")
    assert recorder_references(source) == [
        "obs.spans (line 2)", "obs.metrics (line 4)",
        "obs_ctx.requests (line 5)", "import EV_DMA_MAP (line 1)"]


def test_the_boundary_covers_every_simulated_package():
    assert len(SIMULATED) > 30
    assert {path.parent.name for path in SIMULATED} >= {
        "hw", "iommu", "iova", "kalloc", "dma", "core", "net", "sim",
        "faults", "workloads"}


@pytest.mark.parametrize("path", SIMULATED,
                         ids=lambda p: str(p.relative_to(SRC.parent)))
def test_simulated_system_names_no_recorder(path):
    assert recorder_references(path.read_text()) == []
