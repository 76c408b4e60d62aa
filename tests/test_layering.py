"""Module layering: each module of the package imports only the modules
below it. The readers, the simulator and the scorer build or score frames
without the engine; only ``pipeline`` and ``cli`` import ``tracker``. The
package root imports nothing, so importing a module loads only its layers."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import anchorkit

PACKAGE = Path(anchorkit.__file__).parent

ALLOWED = {
    "__init__": set(),
    "core": set(),
    "alignment": {"core"},
    "hypothesis": {"core"},
    "metrics": {"core"},
    "tracker": {"core", "alignment", "hypothesis"},
    "heuristic": {"core", "metrics"},
    "io_jsonl": {"core", "metrics"},
    "simulate": {"core", "io_jsonl", "metrics"},
    "pipeline": {"core", "heuristic", "metrics", "tracker"},
    "cli": {"core", "io_jsonl", "metrics", "pipeline", "simulate"},
}


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, relatively or by the
    package name, at any depth of its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["anchorkit"]:
                    continue
                path = path[1:]
            # ``from . import x`` and ``from anchorkit import x`` name modules.
            found.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "anchorkit" and len(path) > 1:
                    found.add(path[1])
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == ALLOWED.keys()


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_a_module_imports_only_the_layers_below_it(module):
    assert package_imports(module) - ALLOWED[module] == set()


def test_the_readers_and_the_scorer_load_without_numpy():
    """Run in a fresh interpreter: this test session has numpy loaded already."""
    code = (
        "import sys, anchorkit.io_jsonl, anchorkit.metrics, anchorkit.heuristic; "
        "print(sorted({'numpy', 'scipy'} & sys.modules.keys()))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=PACKAGE.parent,
    )
    assert result.stdout.strip() == "[]"
