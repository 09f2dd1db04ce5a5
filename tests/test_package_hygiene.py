"""The package needs only the standard library, never checks by `assert`,
and declares each public name once, in its own module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import projchar
from projchar import projclass, qpoly, surfalg, univdet

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "projchar"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_sources_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "qpoly.py", "surfalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        outside += [
            f"line {node.lineno}: {root}"
            for root in roots
            if root not in sys.stdlib_module_names
        ]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == []


def test_cli_import_leaves_selftest_unloaded():
    probe = "import sys, projchar.cli; print('projchar.selftest' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_package_exports_each_module_all_once():
    modules = (qpoly, projclass, surfalg, univdet)
    expected = ["__version__", *(name for m in modules for name in m.__all__)]
    assert projchar.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(projchar, name) is getattr(module, name)
    namespace = {}
    exec("from projchar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
