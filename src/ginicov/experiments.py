"""Monte Carlo studies: null normality of the standardized statistic and
size/power tables.

Each study is one task pass: one ``_run_tasks`` call (at most one process
pool) maps every replicate.  Beta i of a size/power grid generates from
``derive_seed(root, i)``, so any subset of a study can be recomputed in
isolation and results do not depend on worker count or scheduling.
Aggregation is pure counting (and ordered collection of z values), never an
order-sensitive float reduction.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import _check_matrix_rows, group_index
from .distmat import pairwise_distances
from .errors import DegenerateSampleError
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

KDE_GRID = (-4.0, 4.0, 0.01)

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
        if set(self.methods) - {METHOD_GINI_NORMAL}:
            _check_permutations(self.permutations)
        # an over-budget sample is refused before any data is generated
        _check_matrix_rows(sum(self.scenario.sizes))

    @property
    def root_seed(self) -> int:
        return self.scenario.seed if self.seed is None else self.seed


@dataclass(frozen=True)
class PowerRow:
    """Empirical rejection rate of one method at one scenario setting."""

    example: int
    p: int
    sizes: tuple
    beta: float
    method: str
    alpha: float
    replicates: int
    rejection_rate: float


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


def grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive evaluation grid; the count is fixed by rounding (hi-lo)/step."""
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * m^(-1/5); robust to heavy tails."""
    m = samples.size
    sd = float(samples.std(ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34)
    if spread <= 0.0:
        raise DegenerateSampleError(
            "all samples coincide; no bandwidth can be resolved"
        )
    return 0.9 * spread * m ** (-0.2)


def kde_gaussian(samples, bandwidth="auto", grid=KDE_GRID) -> np.ndarray:
    """Gaussian-kernel density estimate evaluated on ``grid``.

    ``bandwidth`` is either a positive number or "auto" for Silverman's
    rule.  Returns the density values; use :func:`grid_points` for the
    matching abscissae.
    """
    z = np.asarray(samples, dtype=np.float64).ravel()
    if z.size < 2:
        raise ValueError(f"KDE needs at least 2 samples, got {z.size}")
    if bandwidth == "auto":
        h = silverman_bandwidth(z)
    else:
        h = float(bandwidth)
        # written so that NaN fails too
        if not 0.0 < h < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {h}")
    xs = grid_points(*grid)
    u = (xs[:, None] - z[None, :]) / h
    dens = np.exp(-0.5 * u * u).sum(axis=1)
    dens *= 1.0 / (z.size * h * math.sqrt(2.0 * math.pi))
    return dens


def _stdnormal_pdf(xs: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)


def max_gap_to_normal(z_samples, grid=KDE_GRID) -> float:
    """Sup over the grid of |KDE(z samples) - standard normal density|."""
    xs = grid_points(*grid)
    return float(np.abs(kde_gaussian(z_samples, "auto", grid) - _stdnormal_pdf(xs)).max())


def _resolve_workers(threads: int) -> int:
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return threads if threads > 0 else (os.cpu_count() or 1)


def _run_tasks(worker, payloads, threads: int):
    """Map worker over payloads, in order, on at most one worker per
    payload; 1 worker stays in-process."""
    workers = min(_resolve_workers(threads), len(payloads))
    if workers <= 1:
        return [worker(p) for p in payloads]
    chunk = max(1, len(payloads) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads, chunksize=chunk))


def _normality_z(payload) -> float | None:
    scenario, replicate = payload
    ds = scenario_dataset(scenario, replicate)
    return _normal_test_from_distance(
        pairwise_distances(ds), group_index(ds), 0.05
    ).z


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
    _check_kde_replicates(cfg.replicates)
    payloads = [(scenario, r) for r in range(cfg.replicates)]
    zs = _run_tasks(_normality_z, payloads, threads)
    z = np.asarray([0.0 if v is None else v for v in zs])
    return NormalityRow(
        p=scenario.p,
        replicates=cfg.replicates,
        max_density_gap=max_gap_to_normal(z),
        z_samples=z,
        degenerate=zs.count(None),
    )


def _power_replicate(payload) -> tuple:
    scenario, replicate, methods, alpha, permutations = payload
    ds = scenario_dataset(scenario, replicate)
    gi = group_index(ds)
    d = pairwise_distances(ds)
    results = {}
    if METHOD_GINI_NORMAL in methods:
        results[METHOD_GINI_NORMAL] = _normal_test_from_distance(d, gi, alpha)
    if set(methods) - {METHOD_GINI_NORMAL}:
        perm_seed = derive_seed(scenario.seed, replicate, _PERM_SALT)
        results.update(_perm_test_from_distance(d, gi, permutations, alpha, perm_seed))
    return tuple(results[method].reject for method in methods)


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
    payloads = [
        (scenario, r, cfg.methods, cfg.alpha, cfg.permutations)
        for scenario in scenarios
        for r in range(cfg.replicates)
    ]
    outcomes = _run_tasks(_power_replicate, payloads, threads)
    rows = []
    for i, beta in enumerate(betas):
        batch = outcomes[i * cfg.replicates : (i + 1) * cfg.replicates]
        for j, method in enumerate(cfg.methods):
            count = sum(bool(outcome[j]) for outcome in batch)
            rows.append(
                PowerRow(
                    example=cfg.scenario.example,
                    p=cfg.scenario.p,
                    sizes=cfg.scenario.sizes,
                    beta=beta,
                    method=method,
                    alpha=cfg.alpha,
                    replicates=cfg.replicates,
                    rejection_rate=count / cfg.replicates,
                )
            )
    return rows


def _power_records(rows) -> list:
    """One record per study row, keyed by the columns of ``POWER_CSV_HEADER``;
    elapsed_ms is None, so identical runs give byte-identical files."""
    return [{**asdict(row), "elapsed_ms": None} for row in rows]


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
