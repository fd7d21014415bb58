"""The public surface: ``ginicov.__all__`` against what ``__init__`` binds,
names that were removed stay removed, no module imports a name it never
uses (save what perfbench's tracer rebinds), every module-level function is
referenced in the package, importing the package loads no heavy scipy
subpackage, generating data loads no ``scipy.signal``, and the README's
library example runs."""

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


# each removed name, with the module that bound it
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
    "_send_part": ginicov.core,
    "_cell_error": ginicov.core,
    "ProcessPoolExecutor": ginicov.experiments,
    "_normality_z": ginicov.experiments,
    "_power_replicate": ginicov.experiments,
    # the two-step key interface: streams.labellings is the one source
    "_labellings": ginicov.ktest,
    "_KEYS": ginicov.ktest,
    "_BLOCK": ginicov.ktest,
    "permutation_keys": ginicov.streams,
    "shuffled": ginicov.streams,
    # one kernel per permutation block: distmat.class_sums
    "_block_statistics": ginicov.ktest,
    "class_pair_sums": ginicov.distmat,
    # the CSV range split counts b"\n" alone: lone-"\r" lines are the row loop's
    "_line_ends": ginicov.core,
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


def listed_in_all(tree) -> set:
    """The names in the module's ``__all__``, if it binds one."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path: Path) -> list:
    """Imported names never read in the module (nor listed in its
    ``__all__``), skipping ``__future__`` imports and statements marked
    ``# noqa: F401``."""
    tree = ast.parse(path.read_text())
    imported = {name: line for name, line, excused in imports(path) if not excused}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(listed_in_all(tree))
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


def orphaned_functions(paths) -> list:
    """Module-level functions of the modules at ``paths`` that none of them
    references (as a name, an attribute or an imported name) or lists in
    its ``__all__``."""
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text())
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
        referenced.update(listed_in_all(tree))
    return sorted(
        f"{module}: {name}" for module, name in defined if name not in referenced
    )


def test_no_orphaned_functions():
    # a helper whose last caller went is deleted with it
    assert orphaned_functions(MODULES) == []


def test_the_orphan_check_finds_one(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['api']\n"
        "def api():\n    return _called()\n"
        "def _called():\n    pass\n"
        "def _imported():\n    pass\n"
        "def _by_attribute():\n    pass\n"
        "def _orphan():\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import _imported as f\nprint(a._by_attribute, f)\n"
    )
    assert orphaned_functions(sorted(tmp_path.glob("*.py"))) == ["a.py: _orphan"]


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


def test_readme_library_example_runs():
    # the documented example goes stale with any change to the API it shows
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md:Library", "exec"), {})


def modules_after_import(module, prefixes, then="") -> str:
    """The printed sorted list of modules under ``prefixes`` that a fresh
    interpreter holds after importing ``module`` and running ``then``."""
    script = (
        f"import sys, {module}\n"
        f"{then}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["ginicov", "ginicov.cli"])
def test_import_loads_no_heavy_scipy_subpackage(module):
    # scipy.spatial (and the scipy.sparse and scipy.special it pulls in) is
    # imported on the first pdist call, not with the package
    heavy = ("scipy.spatial", "scipy.sparse", "scipy.special")
    assert modules_after_import(module, heavy) == "[]\n"


@pytest.mark.parametrize("module", ["ginicov", "ginicov.cli"])
def test_import_loads_no_process_machinery(module):
    # multiprocessing is imported when a study or a CSV read first forks
    processes = ("concurrent.futures.process", "multiprocessing")
    assert modules_after_import(module, processes) == "[]\n"


def test_generation_and_a_study_load_no_scipy_signal():
    # the AR(1) filter is numpy's own loop: importing scipy.signal for
    # lfilter would cost every study worker about 1.15 s
    run = (
        "from ginicov import ScenarioSpec, StudyConfig, normality_study\n"
        "from ginicov import scenario_dataset\n"
        "for example in (3, 2, 1):\n"
        "    spec = ScenarioSpec(example=example, p=9, sizes=(3, 3, 3), beta=0.5)\n"
        "    scenario_dataset(spec)\n"
        "normality_study(StudyConfig(scenario=spec, replicates=2), threads=1)\n"
    )
    assert modules_after_import("ginicov", ("scipy.signal",), run) == "[]\n"
