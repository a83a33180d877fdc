"""The demos against the library: every name a demo imports from metriflow
resolves, and the quick demos run to exit 0.  spinodal_coarsening takes
about 10 s and gets the import check only."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = ("capillary_force_1d", "heat_relaxation", "structure_checks")


def _metriflow_imports(path: Path):
    """(module, name) of each ``from metriflow... import name`` in path."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "metriflow":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    imports = list(_metriflow_imports(demo))
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
