"""Source hygiene: no module of the package imports a name it never
uses, or anything from the tests or the benchmark."""

import ast
from pathlib import Path

import pytest

import testability

PACKAGE = Path(testability.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"graphs", "model", "oracle", "semigroups"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_tests_or_benchmark(path):
    """The reference implementations in ``tests`` stay test-only."""
    tree = ast.parse(path.read_text())
    leaked = sorted(m for m in _imported_modules(tree)
                    if m.split(".")[0] in ("tests", "perfbench"))
    assert leaked == [], f"{path.name} imports {leaked}"
