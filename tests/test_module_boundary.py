"""The package's internal names stay behind its module boundaries.

``gadgets`` reaches the homodyne module only through its public names, and
the command line only through the public API of every ``cviqp`` module.
Importing the package and its command line loads no costly module it does
not need at import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cviqp"


def private_imports(module: str, from_modules: set[str] | None) -> list[str]:
    """``source.name`` of every underscore name that ``module`` imports from a
    ``cviqp`` module, restricted to ``from_modules`` when given."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or ""
        elif node.module and node.module.split(".")[0] == "cviqp":
            source = node.module.partition(".")[2]
        else:
            continue
        if from_modules is not None and source not in from_modules:
            continue
        found += [f"{source}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize(
    "module, from_modules", [("gadgets", {"homodyne"}), ("cli", None)], ids=["gadgets-homodyne", "cli-cviqp"]
)
def test_no_private_names_cross_the_boundary(module, from_modules):
    assert private_imports(module, from_modules) == []


def test_private_imports_are_seen():
    # gadgets does import private names from quadgrid and gates, which the check must see
    assert "quadgrid._transform" in private_imports("gadgets", None)


def test_import_loads_neither_numpy_polynomial_nor_scipy():
    # a fresh interpreter, so modules imported by the test suite do not count;
    # both are costly to import, and the package reads numpy.polynomial only
    # when it first needs quadrature nodes
    code = (
        "import sys, cviqp, cviqp.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.splitlines()[-1] == "[]"
