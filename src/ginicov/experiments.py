"""Monte Carlo studies: null normality of the standardized statistic and
size/power tables.

Replicates are independent tasks with seeds derived from
``(seed, beta_index, replicate)``, so any subset of a study can be recomputed
in isolation and results do not depend on worker count or scheduling.
Aggregation is pure counting (and ordered collection of z values), never an
order-sensitive float reduction.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import group_index
from .distmat import pairwise_distances
from .errors import DegenerateSampleError
from .ktest import (
    METHOD_DCOV_PERM,
    METHOD_GINI_NORMAL,
    METHOD_GINI_PERM,
    _check_alpha,
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
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")

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
    elapsed_ms: float


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
        if h <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {h}")
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
    """Map worker over payloads, in order; 1 worker stays in-process."""
    workers = _resolve_workers(threads)
    if workers == 1 or len(payloads) == 1:
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


def normality_study(cfg: StudyConfig, threads: int = 0) -> NormalityRow:
    """Collect standardized statistics under the null and measure how far
    their KDE sits from the standard normal density."""
    scenario = replace(cfg.scenario, seed=cfg.root_seed)
    if scenario.example != 1:
        raise ValueError("the normality study uses the null design (example 1)")
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

    Each beta batch runs ``cfg.replicates`` independent datasets; every
    method sees the same datasets, which makes method comparisons paired.
    """
    if cfg.scenario.example not in (2, 3):
        raise ValueError("size/power studies use example 2 or 3")
    rows = []
    for i, beta in enumerate(beta_grid):
        scenario = replace(
            cfg.scenario, beta=float(beta), seed=derive_seed(cfg.root_seed, i)
        )
        payloads = [
            (scenario, r, cfg.methods, cfg.alpha, cfg.permutations)
            for r in range(cfg.replicates)
        ]
        start = time.perf_counter()
        outcomes = _run_tasks(_power_replicate, payloads, threads)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        counts = [0] * len(cfg.methods)
        for outcome in outcomes:
            for j, rej in enumerate(outcome):
                counts[j] += bool(rej)
        for j, method in enumerate(cfg.methods):
            rows.append(
                PowerRow(
                    example=cfg.scenario.example,
                    p=cfg.scenario.p,
                    sizes=cfg.scenario.sizes,
                    beta=float(beta),
                    method=method,
                    alpha=cfg.alpha,
                    replicates=cfg.replicates,
                    rejection_rate=counts[j] / cfg.replicates,
                    elapsed_ms=elapsed_ms,
                )
            )
    return rows


def _sizes_field(sizes) -> str:
    return ",".join(str(s) for s in sizes)


def write_power_csv(rows, path) -> None:
    """Write study rows under the fixed header.

    elapsed_ms is left empty, so identical runs produce byte-identical
    files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POWER_CSV_HEADER.split(","))
        for row in rows:
            writer.writerow(
                [
                    row.example,
                    row.p,
                    _sizes_field(row.sizes),
                    row.beta,
                    row.method,
                    row.alpha,
                    row.replicates,
                    row.rejection_rate,
                    "",
                ]
            )


def write_power_json(rows, path) -> None:
    """JSON mirror of the CSV emission (elapsed_ms is null)."""
    payload = []
    for row in rows:
        entry = {
            "example": row.example,
            "p": row.p,
            "sizes": list(row.sizes),
            "beta": row.beta,
            "method": row.method,
            "alpha": row.alpha,
            "replicates": row.replicates,
            "rejection_rate": row.rejection_rate,
            "elapsed_ms": None,
        }
        payload.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
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
