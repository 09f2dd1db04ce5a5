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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_isinstance_takes_no_name_from_typing(path):
    # typing's aliases check instances in Python, collections.abc's in C
    tree = _tree(path)
    from_typing, typing_modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            from_typing |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            typing_modules |= {
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "typing"
            }
    found = []
    for node in ast.walk(tree):
        is_check = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        if not (is_check and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            named = isinstance(cls, ast.Name) and cls.id in from_typing
            dotted = isinstance(cls, ast.Attribute) and isinstance(cls.value, ast.Name)
            if named or (dotted and cls.value.id in typing_modules):
                found.append(f"line {node.lineno}: {ast.unparse(cls)}")
    assert found == []


def test_cli_import_leaves_selftest_unloaded():
    probe = "import sys, projchar.cli; print('projchar.selftest' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_cli_import_leaves_surfalg_unloaded():
    # only `canonicality` needs surfalg; the package namespace loads nothing
    probe = "import sys; from projchar import cli; print('projchar.surfalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are written out by hand: importing dataclasses would also
    # load inspect, ast, dis and tokenize on every cold CLI start
    probe = (
        "import sys; from projchar import cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_canonical_cli_run_leaves_argparse_unloaded():
    # a canonical argv is read from the subcommand table; argparse (and the
    # gettext lookups of building its parser) is only for help and usage errors
    probe = (
        "import contextlib, io, sys; from projchar import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['invariance-check', '3', '-1*c1^2 + 3*c2', '--json'])\n"
        "print(code, 'argparse' in sys.modules, cli._build_parser.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False 0\n"


@pytest.mark.parametrize(
    "argv, code, stream", [(["zbasis"], 2, "stderr"), (["--help"], 0, "stdout")]
)
def test_cold_cli_usage_and_help_come_from_argparse(argv, code, stream):
    probe = f"import sys; from projchar import cli; sys.exit(cli.main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == code, result.stderr
    assert getattr(result, stream).startswith("usage: projchar ")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


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


# Bindings kept only so that perfbench/layers.py can wrap them at these module
# attributes; nothing in the module calls them.  The change that retires their
# tracer sites (ROADMAP item 1, a benchmark change) must shrink this list.
TRACER_ONLY = {
    "projclass.py": {"linear_solve", "express_in_elementary"},
    "surfalg.py": {"a_classes"},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == TRACER_ONLY.get(path.name, set())
