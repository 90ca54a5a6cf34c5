"""The demos stay runnable: every name they import from lmexpand exists, and
the quick ones run to completion.

Demos 03 and 04 train skip-gram vectors for about half a minute each, so
they are only import-checked here.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmexpand

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
QUICK = ("01_", "02_", "05_")


def lmexpand_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every ``from lmexpand... import name`` and
    (module, None) for every ``import lmexpand...`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lmexpand":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "lmexpand"
            )
    return found


def test_every_quick_demo_is_found():
    assert all(any(d.name.startswith(q) for d in DEMOS) for q in QUICK)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = lmexpand_imports(demo)
    assert names, f"{demo.name} imports nothing from lmexpand"
    for module, name in names:
        target = importlib.import_module(module)
        if name is not None:
            assert hasattr(target, name), f"{demo.name}: {module} has no {name}"


@pytest.mark.parametrize(
    "demo", [d for d in DEMOS if d.name.startswith(QUICK)], ids=lambda p: p.name
)
def test_quick_demo_runs(demo, tmp_path):
    src = str(Path(lmexpand.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
