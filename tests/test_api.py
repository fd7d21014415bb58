"""The public surface: ``ginicov.__all__`` against what ``__init__`` binds,
names that were removed stay removed, no module imports a name it never
uses (save what perfbench's tracer rebinds), and importing the package
loads no heavy scipy subpackage."""

import ast
import dataclasses
import os
import subprocess
import sys
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


# each removed function, with the module that defined it
REMOVED = {
    "gini_cov": ginicov.estimators,
    "gini_cor": ginicov.estimators,
    "dcov_stat": ginicov.estimators,
    "gmd": ginicov.estimators,
    "dist_variance": ginicov.estimators,
    "sigma0_sq": ginicov.estimators,
    "group_gmd_inputs": ginicov.distmat,
    "normal_quantile": ginicov.ktest,
    "normal_cdf": ginicov.ktest,
}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_functions_stay_removed(name):
    assert name not in ginicov.__all__
    assert not hasattr(ginicov, name)
    assert not hasattr(REMOVED[name], name)


@pytest.mark.parametrize(
    "cls, fields",
    [(GroupIndex, {"indices", "proportions"}),
     (GiniEstimates, {"n", "n_classes", "counts"})],
)
def test_removed_fields_stay_removed(cls, fields):
    assert not fields & {f.name for f in dataclasses.fields(cls)}


def imports(path: Path) -> list:
    """(name, line, excused) for each name the module imports, skipping
    ``__future__``; excused when the statement is marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        excused = any(
            "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
        )
        for alias in node.names:
            out.append(((alias.asname or alias.name).split(".")[0], node.lineno, excused))
    return out


def unused_imports(path: Path) -> list:
    """Imported names never read in the module (nor listed in its
    ``__all__``), skipping ``__future__`` imports and statements marked
    ``# noqa: F401``."""
    tree = ast.parse(path.read_text())
    imported = {name: line for name, line, excused in imports(path) if not excused}
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


def span_hook_targets() -> set:
    """(module, attribute) pairs that perfbench's tracer rebinds, read from
    ``perfbench/tracing.py``'s ``SPAN_HOOKS`` without importing perfbench."""
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_HOOKS" for t in node.targets
        ):
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py binds no SPAN_HOOKS")


def test_every_excused_import_is_a_span_hook_target():
    # an import kept only for the tracer to rebind goes with its hook
    targets = span_hook_targets()
    stray = [
        f"{path.name}:{line}: {name}"
        for path in MODULES
        for name, line, excused in imports(path)
        if excused and (path.stem, name) not in targets
    ]
    assert stray == []


@pytest.mark.parametrize("module", ["ginicov", "ginicov.cli"])
def test_import_loads_no_heavy_scipy_subpackage(module):
    # scipy.spatial (and the scipy.sparse and scipy.special it pulls in) is
    # imported on the first pdist call, not with the package
    heavy = ("scipy.spatial", "scipy.sparse", "scipy.special")
    script = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
