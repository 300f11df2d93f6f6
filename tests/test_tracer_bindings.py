"""The benchmark's tracer reaches the package by name.

``perfbench/tracer.py`` wraps every entry point in its ``ENTRY_POINTS``
and rebinds each package module that imported one by name. A refactor
that renames an entry point breaks the tracer, and a module that stops
importing ``eig_sym`` by name drops its calls out of the ``eigen.eig_sym``
span. The tracer's source is parsed here, never imported or edited.
"""

import ast
import importlib

import pytest

from genspectra import eigen

from conftest import REPO_ROOT


def _entry_points():
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no ENTRY_POINTS")


def test_every_traced_entry_point_resolves():
    entries = _entry_points()
    assert entries
    for span, modname, names in entries:
        mod = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{span}: {modname}.{name}"


@pytest.mark.parametrize("modname", ["pencil", "apps", "cli", "rayleigh"])
def test_callers_bind_eig_sym_by_name(modname):
    assert importlib.import_module(f"genspectra.{modname}").eig_sym is eigen.eig_sym
