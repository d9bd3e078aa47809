"""Source hygiene of src/memepipe, read with the stdlib ast: no unused import,
an `__all__` that matches the package's imports, no module-level private
name that nothing refers to, no import of a package the project does not
depend on, and no module state but one measured memo."""

import ast
import pathlib
import re
import sys

import pytest

import memepipe

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(pathlib.Path(memepipe.__file__).parent.glob("*.py"))}


def _loaded(tree):
    """Every name a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _referenced(tree):
    """Every name a module reads, and every attribute it reads off an object."""
    return _loaded(tree) | {node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)}


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _absolute_imports(tree):
    """(module, line) for every module an absolute import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def _module_level_names(tree):
    """(name, line) for every function, class and variable a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_module_has_an_unused_import():
    unused = [f"{module}:{line}: {name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for name, line in _imported(tree) if name not in _loaded(tree)]
    assert unused == []


def test_package_all_lists_exactly_its_imports():
    tree = TREES["__init__.py"]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert len(exported) == len(set(exported))
    assert set(exported) - {"__version__"} == {name for name, _ in _imported(tree)}


def test_every_private_module_name_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    orphans = [f"{module}:{line}: {name}"
               for module, tree in TREES.items()
               for name, line in _module_level_names(tree)
               if name.startswith("_") and not name.startswith("__")
               and name not in referenced]
    assert orphans == []


def test_every_import_is_stdlib_or_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names)
    allowed |= {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in deps}
    foreign = [f"{module}:{line}: {name}"
               for module, tree in TREES.items() for name, line in _absolute_imports(tree)
               if name.split(".")[0] not in allowed]
    assert foreign == []


def test_the_only_module_state_is_the_id_column_memo():
    # ensemble._last_id_rows keeps the last id column's rows and the mask
    # that drops their padding: the 161 prediction files of an n=1000 run
    # with 8x10 sets share one id column, and rebuilding the rows and mask
    # for every file took 17.8 to 49 ms per 161 files against 14 ms with the
    # memo.  Any other state kept between calls needs such a measurement
    declared = [(module, name) for module, tree in TREES.items()
                for node in ast.walk(tree) if isinstance(node, ast.Global)
                for name in node.names]
    assert declared == [("ensemble.py", "_last_id_rows")]
