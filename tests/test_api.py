"""The public surface: ``ginicov.__all__`` against what ``__init__`` binds,
names that were removed stay removed, and no module imports a name it never
uses."""

import ast
import dataclasses
from pathlib import Path

import pytest

import ginicov
from ginicov import GiniEstimates, GroupIndex

PACKAGE = Path(ginicov.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def bound_names(tree) -> set:
    """Names bound by the module's top-level imports and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (a.asname or a.name).split(".")[0] for a in node.names
            )
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_all_is_sorted_and_unique():
    assert ginicov.__all__ == sorted(set(ginicov.__all__))


def test_every_exported_name_resolves():
    for name in ginicov.__all__:
        assert hasattr(ginicov, name), name


def test_all_lists_every_public_name_init_binds():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    public = {n for n in bound_names(tree) if not n.startswith("_")}
    assert set(ginicov.__all__) == public


@pytest.mark.parametrize("name", ["gini_cov", "gini_cor"])
def test_removed_functions_stay_removed(name):
    assert name not in ginicov.__all__
    assert not hasattr(ginicov, name)
    assert not hasattr(ginicov.estimators, name)


@pytest.mark.parametrize(
    "cls, fields",
    [(GroupIndex, {"indices", "proportions"}),
     (GiniEstimates, {"n", "n_classes", "counts"})],
)
def test_removed_fields_stay_removed(cls, fields):
    assert not fields & {f.name for f in dataclasses.fields(cls)}


def unused_imports(path: Path) -> list:
    """Imported names never read in the module (nor listed in its
    ``__all__``), skipping ``__future__`` imports and statements marked
    ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_unused_import_check_finds_one(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os\nimport sys  # noqa: F401\nimport json\nprint(json)\n")
    assert unused_imports(f) == ["m.py:1: os"]
