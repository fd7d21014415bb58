"""Monte Carlo studies: null normality of the standardized statistic and
size/power tables.

Each study is one task pass: one ``_run_tasks`` call maps one replicate
function, ``_replicate`` bound to the study's config, over every task
(scenario, replicate), shared between this process and forked children
(``core._fork_map``); both studies read their counts from its results.
Beta i of a size/power grid generates from ``derive_seed(root, i)``, so any
subset of a study can be recomputed in isolation and results do not depend
on worker count or scheduling.
Aggregation is pure counting (and ordered collection of z values), never an
order-sensitive float reduction.  A study reads only ``reject`` and
``degenerate`` from a permutation test, so ``_replicate`` lets the engine
stop once both decisions are fixed (``ktest`` module docstring): the
rejection counts are those of the full run, and a permutation result that
stopped early carries no p-value.

What a study sets up in its own process, before it maps any replicate, is
never restored and is inherited by every forked worker: glibc's malloc
thresholds raised (``distmat._keep_freed_memory``) on any worker count, and,
when it forks, the one-thread BLAS count and scipy's distance module
(``distmat._before_fork``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .core import (
    _check_feature_matrix,
    _check_matrix_rows,
    _fork_map,
    _usable_cores,
    group_index,
)
from .distmat import _before_fork, _keep_freed_memory, pairwise_distances
from .errors import DegenerateSampleError, TooFewClassesError
from .ktest import (
    METHOD_DCOV_PERM,
    METHOD_GINI_NORMAL,
    METHOD_GINI_PERM,
    _check_alpha,
    _check_permutations,
    _normal_test_from_distance,
    _perm_test_from_distance,
)
from .simgen import ScenarioSpec, scenario_dataset
from .streams import derive_seed

ALL_METHODS = (METHOD_GINI_NORMAL, METHOD_GINI_PERM, METHOD_DCOV_PERM)

# salt separating permutation-test seeds from data-generation streams
_PERM_SALT = 0x70657274

# the KDE's evaluation grid: -4 to 4 in steps of 0.01
KDE_GRID = np.linspace(-4.0, 4.0, 801)
KDE_GRID.setflags(write=False)
# grid points per KDE slice: its temporaries hold _KDE_ROWS x m doubles
_KDE_ROWS = 64

POWER_CSV_HEADER = (
    "example,p,sizes,beta,method,alpha,replicates,rejection_rate,elapsed_ms"
)


@dataclass(frozen=True)
class StudyConfig:
    """One Monte Carlo study: a scenario plus replication and test settings.

    ``seed`` overrides the scenario's own seed as the study root; when None,
    the scenario seed is used.
    """

    scenario: ScenarioSpec
    replicates: int
    methods: tuple = (METHOD_GINI_NORMAL,)
    alpha: float = 0.05
    permutations: int = 999
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        _check_alpha(self.alpha)
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(
                    f"unknown method {m!r}; choose from {', '.join(ALL_METHODS)}"
                )
            if self.methods.count(m) > 1:
                raise ValueError(f"method {m!r} is listed more than once")
        if set(self.methods) - {METHOD_GINI_NORMAL}:
            _check_permutations(self.permutations)
        # a one-class or over-budget sample is refused before any data is
        # generated
        if len(self.scenario.sizes) < 2:
            raise TooFewClassesError(
                f"testing needs at least 2 classes, got {len(self.scenario.sizes)}"
            )
        n = sum(self.scenario.sizes)
        _check_matrix_rows(n)
        _check_feature_matrix(n, self.scenario.p)

    @property
    def root_seed(self) -> int:
        return self.scenario.seed if self.seed is None else self.seed


@dataclass(frozen=True)
class PowerRow:
    """Empirical rejection rate of one method at one scenario setting.
    ``degenerate`` counts the replicates whose test was degenerate (see
    ``TestResult``), each a non-rejection; it stays out of the power files."""

    example: int
    p: int
    sizes: tuple
    beta: float
    method: str
    alpha: float
    replicates: int
    rejection_rate: float
    degenerate: int


@dataclass(frozen=True, eq=False)
class NormalityRow:
    """Sup gap between the KDE of standardized statistics and the standard
    normal density, plus the raw z samples behind it.  ``degenerate`` counts
    the replicates with no z (a vanishing null deviation), entered as 0.0."""

    p: int
    replicates: int
    max_density_gap: float
    z_samples: np.ndarray
    degenerate: int


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * m^(-1/5); robust to heavy tails.  A zero
    IQR falls back to the sd, as R's ``bw.nrd0`` does."""
    m = samples.size
    sd = float(samples.std(ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) or sd
    if spread <= 0.0:
        raise DegenerateSampleError(
            "all samples coincide; no bandwidth can be resolved"
        )
    return 0.9 * spread * m ** (-0.2)


def kde_gaussian(samples) -> np.ndarray:
    """Gaussian-kernel density estimate with Silverman's bandwidth, evaluated
    on ``KDE_GRID``."""
    z = np.asarray(samples, dtype=np.float64).ravel()
    if z.size < 2:
        raise ValueError(f"KDE needs at least 2 samples, got {z.size}")
    h = silverman_bandwidth(z)
    dens = np.empty(KDE_GRID.size)
    # each grid point sums its own contiguous m-vector, so the density does
    # not depend on the slice size
    for i in range(0, KDE_GRID.size, _KDE_ROWS):
        u = (KDE_GRID[i:i + _KDE_ROWS, None] - z[None, :]) / h
        dens[i:i + _KDE_ROWS] = np.exp(-0.5 * u * u).sum(axis=1)
    dens *= 1.0 / (z.size * h * math.sqrt(2.0 * math.pi))
    return dens


def max_gap_to_normal(z_samples) -> float:
    """Sup over ``KDE_GRID`` of |KDE(z samples) - standard normal density|."""
    pdf = np.exp(-0.5 * KDE_GRID * KDE_GRID) / math.sqrt(2.0 * math.pi)
    return float(np.abs(kde_gaussian(z_samples) - pdf).max())


def _resolve_workers(threads: int) -> int:
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return threads if threads > 0 else _usable_cores()


def _run_tasks(worker, payloads, threads: int):
    """Map worker over payloads, in order, on at most one process per
    payload and per usable core (``core._fork_map``); 1 worker stays
    in-process.  Sets up this process first (module docstring)."""
    workers = min(_resolve_workers(threads), _usable_cores(), len(payloads))
    _keep_freed_memory()
    if workers > 1:
        # the workers inherit the pinned BLAS count and scipy's distance module
        _before_fork()
    return _fork_map(worker, payloads, workers)


def _replicate(cfg: StudyConfig, task) -> tuple:
    """The ``TestResult`` of each of ``cfg.methods``, in order, on the
    replicate ``task`` = (scenario, r) generates; every method tests the
    same distance matrix.  A permutation result's p-value is None when its
    pass stopped once both decisions were fixed."""
    scenario, replicate = task
    ds = scenario_dataset(scenario, replicate)
    gi = group_index(ds)
    d = pairwise_distances(ds)
    results = {}
    if METHOD_GINI_NORMAL in cfg.methods:
        results[METHOD_GINI_NORMAL] = _normal_test_from_distance(d, gi, cfg.alpha)
    if set(cfg.methods) - {METHOD_GINI_NORMAL}:
        perm_seed = derive_seed(scenario.seed, replicate, _PERM_SALT)
        results.update(
            _perm_test_from_distance(
                d, gi, cfg.permutations, cfg.alpha, perm_seed, until_decided=True
            )
        )
    return tuple(results[m] for m in cfg.methods)


def _check_kde_replicates(replicates: int) -> None:
    if replicates < 2:
        raise ValueError(
            f"the normality study's KDE needs at least 2 replicates, "
            f"got {replicates}"
        )


def normality_study(cfg: StudyConfig, threads: int = 0) -> NormalityRow:
    """Collect standardized statistics under the null and measure how far
    their KDE sits from the standard normal density."""
    scenario = replace(cfg.scenario, seed=cfg.root_seed)
    if scenario.example != 1:
        raise ValueError("the normality study uses the null design (example 1)")
    if cfg.methods != (METHOD_GINI_NORMAL,):
        raise ValueError(
            f"the normality study runs {METHOD_GINI_NORMAL} alone, "
            f"got {', '.join(cfg.methods)}"
        )
    _check_kde_replicates(cfg.replicates)
    payloads = [(scenario, r) for r in range(cfg.replicates)]
    zs = [res.z for (res,) in _run_tasks(partial(_replicate, cfg), payloads, threads)]
    z = np.asarray([0.0 if v is None else v for v in zs])
    return NormalityRow(
        p=scenario.p,
        replicates=cfg.replicates,
        max_density_gap=max_gap_to_normal(z),
        z_samples=z,
        degenerate=zs.count(None),
    )


def size_power_study(cfg: StudyConfig, beta_grid, threads: int = 0) -> list:
    """Rejection rates over a beta grid, one row per (beta, method).

    The whole grid is one task pass: one task per (beta, replicate) in grid
    order.  Beta i generates from ``derive_seed(cfg.root_seed, i)``, and
    every method sees the same datasets, which makes method comparisons
    paired.
    """
    if cfg.scenario.example not in (2, 3):
        raise ValueError("size/power studies use example 2 or 3")
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise ValueError("the beta grid is empty")
    scenarios = [
        replace(cfg.scenario, beta=beta, seed=derive_seed(cfg.root_seed, i))
        for i, beta in enumerate(betas)
    ]
    payloads = [(scenario, r) for scenario in scenarios for r in range(cfg.replicates)]
    outcomes = _run_tasks(partial(_replicate, cfg), payloads, threads)
    rows = []
    for i, beta in enumerate(betas):
        batch = outcomes[i * cfg.replicates : (i + 1) * cfg.replicates]
        for j, method in enumerate(cfg.methods):
            rejects = sum(results[j].reject for results in batch)
            degenerate = sum(results[j].degenerate for results in batch)
            rows.append(
                PowerRow(
                    example=cfg.scenario.example,
                    p=cfg.scenario.p,
                    sizes=cfg.scenario.sizes,
                    beta=beta,
                    method=method,
                    alpha=cfg.alpha,
                    replicates=cfg.replicates,
                    rejection_rate=rejects / cfg.replicates,
                    degenerate=degenerate,
                )
            )
    return rows


def _power_records(rows) -> list:
    """One record per study row, keyed by the columns of ``POWER_CSV_HEADER``;
    elapsed_ms is None, so identical runs give byte-identical files."""
    columns = POWER_CSV_HEADER.split(",")
    return [{k: asdict(row).get(k) for k in columns} for row in rows]


def write_power_csv(rows, path) -> None:
    """Write study rows under the fixed header; sizes is one comma-joined
    field and elapsed_ms is left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, POWER_CSV_HEADER.split(","), lineterminator="\n"
        )
        writer.writeheader()
        for rec in _power_records(rows):
            writer.writerow({**rec, "sizes": ",".join(map(str, rec["sizes"]))})


def write_power_json(rows, path) -> None:
    """JSON mirror of the CSV emission (elapsed_ms is null)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_power_records(rows), fh, indent=2)
        fh.write("\n")


def write_normality_csv(row: NormalityRow, path) -> None:
    """Summary line plus one standardized statistic per line for plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "replicates", "max_density_gap"])
        writer.writerow([row.p, row.replicates, row.max_density_gap])
        writer.writerow(["z"])
        for z in row.z_samples:
            writer.writerow([repr(float(z))])
