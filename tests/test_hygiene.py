"""Source hygiene: no module of the package imports a name it never
uses, anything from the tests or the benchmark, or anything outside the
standard library, directly or at run time; no function assigns a local
it never reads, and no module reads a graph's row view; the oracle
imports from the package only its model; no state is kept from one call
to the next; the public surface is exactly what
``__init__`` imports; every module-level function or class is
exported or used; every name the benchmark's tracer wraps still
exists; the README's Library section names only what the package
exports; no package line is longer than 99 characters."""

import ast
import dataclasses
import keyword
import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_row_view(path):
    """A graph is its letter columns and has no row view: a ``.delta``
    read left in any module, which would fail only when its line runs,
    fails here."""
    tree = ast.parse(path.read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "delta"]
    assert reads == [], f"{path.name} reads .delta on lines {reads}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_longer_than_99_characters(path):
    long = [number for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 99]
    assert long == [], f"{path.name} has lines over 99 characters: {long}"


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


def test_the_oracle_imports_no_package_module_but_the_model():
    """The oracle searches folds and knows no property: whether a
    semigroup is locally testable, and so whether its product is worth
    handing over, is its callers' business, so a property check cannot
    drift back into it."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {m for m in _imported_modules(tree) if m.split(".")[0] == "testability"}
    assert relative | absolute == {"model"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    """The package has no runtime dependencies: every absolute import
    names a standard-library module; the rest are relative."""
    tree = ast.parse(path.read_text())
    foreign = sorted(m for m in _imported_modules(tree)
                     if m.split(".")[0] not in sys.stdlib_module_names)
    assert foreign == [], f"{path.name} imports {foreign}"


def test_package_loads_only_the_standard_library():
    """Every module that importing the package and its command line
    loads, directly or through another module, is in the standard
    library or is the package itself, which holds ``dependencies = []``
    in pyproject.toml to the code."""
    code = ("import sys; before = set(sys.modules); import testability.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "testability.cli" in loaded
    foreign = sorted(m for m in loaded if m.split(".")[0] not in
                     sys.stdlib_module_names | {"testability"})
    assert foreign == []


def _own_nodes(fn):
    """The nodes of a function's body, not descending into nested
    functions or classes, which have scopes of their own."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(path):
    """``module.function: name`` for each local assigned and never read,
    in the function or in a function nested in it; names starting with
    ``_`` are exempt."""
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(name for n in ast.walk(fn)
                    if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names)
        dead = {n.id for n in _own_nodes(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                and not n.id.startswith("_") and n.id not in read}
        yield from (f"{path.stem}.{fn.name}: {name}" for name in sorted(dead))


def test_no_local_is_assigned_and_never_read():
    dead = [d for path in sorted(PACKAGE.glob("*.py")) for d in _dead_locals(path)]
    assert dead == []


_CACHES = {"cache", "lru_cache"}
_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_caches_across_calls(path):
    """No ``functools.cache`` or ``lru_cache``: a memo that outlives a
    call would speed up only a repeated call, which a benchmark that
    repeats its calls in one process would count as a gain."""
    tree = ast.parse(path.read_text())
    caches = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "functools"
              and _CACHES & {alias.name for alias in node.names}
              or isinstance(node, ast.Attribute) and node.attr in _CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"]
    assert caches == [], f"{path.name} caches across calls on lines {caches}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_mutable_state(path):
    """No dict, list or set is bound at module level to a lowercase name;
    constant tables are spelled in capitals, and dunders such as
    ``__all__`` are module protocol."""
    tree = ast.parse(path.read_text())
    state = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        mutable = isinstance(value, _MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_TYPES)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for target in targets for n in ast.walk(target)
                 if isinstance(n, ast.Name)]
        state += [f"{name} (line {node.lineno})" for name in names
                  if mutable and name != name.upper() and not name.startswith("__")]
    assert state == [], f"{path.name} keeps module-level state: {state}"


def test_all_lists_each_imported_name_once():
    """``__all__`` names every binding that ``__init__`` imports, once,
    and nothing else, so a name removed from the package cannot linger
    in it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    exported = testability.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported
    exec("from testability import *", {})  # raises on a name __all__ lists but lacks


def _names_outside(tree, skip):
    """Every name ``tree`` reads or takes as an attribute, outside the
    nodes in ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_package_function_is_used():
    """Each module-level function or class is exported in ``__all__``,
    named by package code outside its own definition, or is the command
    line's ``main``, so a helper whose last caller is gone cannot linger."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    defs = {(module, node.name): node for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert len(defs) > 50
    unused = []
    for (module, name), node in defs.items():
        if name in testability.__all__ or (module, name) == ("cli", "main"):
            continue
        if not any(name in _names_outside(tree, {node}) for tree in trees.values()):
            unused.append(f"{module}.{name}")
    assert unused == [], f"defined but never named: {unused}"


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The traced benchmark runs wrap package attributes by name; a
    refactor that removes or renames one fails here, since the
    benchmark's own tests are not collected with this suite."""
    import testability.cli  # install() reads the package's cli attribute
    from perfbench import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, testability)
    finally:
        tracer.restore()


def test_readme_library_section_names_only_exported_names():
    """Every bare identifier the README's Library section puts in an
    inline code span is an exported name or a field of an exported
    dataclass, and its ``from testability import`` line runs, so the
    section cannot keep naming a function the package dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)
    fields = {f.name for name in testability.__all__
              if dataclasses.is_dataclass(obj := getattr(testability, name))
              for f in dataclasses.fields(obj)}
    spans = re.findall(r"`([^`\n]+)`", prose)
    named = {s for s in spans if s.isidentifier() and not keyword.iskeyword(s)}
    assert named, "no names found in the Library section"
    unknown = sorted(named - set(testability.__all__) - fields)
    assert unknown == [], f"README names what the package does not export: {unknown}"
    imports = [line for line in section.splitlines()
               if line.startswith("from testability import ")]
    assert len(imports) == 1
    exec(imports[0], {})
