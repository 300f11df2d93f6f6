"""The package computes with its own kernels: no LAPACK behind its back.

numpy.linalg and scipy may serve the tests as reference ceilings, never
the package itself.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "genspectra").rglob("*.py"))


def _foreign_uses(tree: ast.AST) -> list[str]:
    """Each import of numpy.linalg or scipy, and each ``<name>.linalg``
    attribute on numpy's usual alias, with its line number."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            names = [f"{node.value.id}.linalg"]
        else:
            continue
        for name in names:
            if name in ("numpy.linalg", "np.linalg") or name.startswith(("numpy.linalg.", "scipy")):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_modules_are_found():
    assert any(path.name == "apps.py" for path in MODULES)
    assert any(path.parent.name == "kernels" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_package_never_reaches_numpy_linalg_or_scipy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _foreign_uses(tree) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy.linalg",
        "import numpy.linalg as la",
        "from numpy import linalg",
        "from numpy.linalg import eigh",
        "import scipy",
        "from scipy.linalg import eigh",
        "import numpy as np\nnp.linalg.eigh(a)",
    ],
)
def test_the_guard_sees_each_way_in(source):
    assert _foreign_uses(ast.parse(source)) != []


def test_the_guard_passes_the_package_own_linalg():
    assert _foreign_uses(ast.parse("from .linalg import SymMatrix\nfrom . import linalg")) == []
