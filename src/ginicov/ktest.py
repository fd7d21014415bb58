"""K-sample tests: the closed-form normal-limit test and permutation tests.

The normal test studentizes the Gini covariance by a consistent null
standard deviation and rejects one-sided for large values; no resampling is
involved.  The permutation engine calibrates the Gini covariance and the
distance-covariance comparator together, from the class pair sums of one
block of uniformly reshuffled labellings at a time on the fixed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import LabeledDataset, group_index, validate_for_testing
# u_center stays a module attribute: perfbench's tracer rebinds ktest.u_center
from .distmat import class_pair_sums, pairwise_distances, u_center  # noqa: F401
from .estimators import _dcov_from_sums, _gini_from_sums, gini_estimates
# substream stays a module attribute: perfbench's tracer rebinds ktest.substream
from .streams import shuffled, substream  # noqa: F401

METHOD_GINI_NORMAL = "gini-normal"
METHOD_GINI_PERM = "gini-perm"
METHOD_DCOV_PERM = "dcov-perm"

_SQRT2 = math.sqrt(2.0)

# most labellings per kernel call: its buffers stay O(n * _BLOCK) for any B
_BLOCK = 128
_PERM_METHODS = {"gini": METHOD_GINI_PERM, "dcov": METHOD_DCOV_PERM}


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test: the decision is data, never an exit status."""

    method: str
    statistic: float
    z: float | None
    p_value: float
    alpha: float
    reject: bool
    permutations: int | None = None
    seed: int | None = None
    degenerate: bool = False


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to a few ulp across the real line."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF for q in the open unit interval."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {q}")
    return float(ndtri(q))


def _check_alpha(alpha: float) -> None:
    # written so that NaN fails too
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_permutations(permutations: int) -> None:
    # the batched stream keys hash b as one 32-bit entropy word
    if not 1 <= permutations < 2**32:
        raise ValueError(
            f"permutation count must be in [1, 2**32), got {permutations}"
        )


def _normal_test_from_distance(d, gi, alpha: float) -> TestResult:
    est = gini_estimates(d, gi)
    sigma0 = math.sqrt(est.sigma0_sq)
    # all points coincide (or the centered matrix vanishes): report the
    # non-rejection outright instead of dividing by zero
    z = est.gcov / sigma0 if sigma0 != 0.0 else None
    p_value = 1.0 - normal_cdf(z) if z is not None else 1.0
    return TestResult(
        method=METHOD_GINI_NORMAL, statistic=est.gcov, z=z, p_value=p_value,
        alpha=alpha, reject=z is not None and p_value < alpha,
        degenerate=z is None,
    )


def gini_normal_test(ds: LabeledDataset, alpha: float = 0.05) -> TestResult:
    """One-sided test of class-distribution equality via the standardized
    Gini covariance; rejects when the upper-tail p-value falls below alpha.
    """
    _check_alpha(alpha)
    gi = group_index(ds)
    validate_for_testing(gi)
    return _normal_test_from_distance(pairwise_distances(ds), gi, alpha)


def _perm_test_from_distance(d, gi, permutations: int, alpha: float, seed: int):
    """gini-perm and dcov-perm results by method, from one pass over the
    streams: replicate b gives row j the class of row perm[j], perm from the
    stream (seed, b).  Replicates within 100 eps x the pooled mean distance
    below the observed value tie it, as exact arithmetic would."""
    _check_permutations(permutations)
    pooled = float(d.sum()) / 2.0
    row_sums = d.sum(axis=1)
    stats = []
    # near-equal blocks of 2+ labellings: b = 0 and b > 0 are summed alike
    n_blocks = -(-(permutations + 1) // _BLOCK)
    for block in np.array_split(np.arange(permutations + 1), n_blocks):
        labs = shuffled(seed, gi.codes, block[block > 0])
        if block[0] == 0:  # row 0 is the observed labelling
            labs = np.vstack([gi.codes, labs])
        m = labs.shape[0]
        sums = class_pair_sums(d, labs, gi.k)
        flat = (labs + gi.k * np.arange(m)[:, None]).ravel()
        rows = np.bincount(flat, np.tile(row_sums, m), m * gi.k).reshape(m, gi.k)
        stats.append([_gini_from_sums(pooled, sums, gi.counts, gi.n),
                      _dcov_from_sums(pooled, sums, rows, gi.counts, gi.n)])
    stats = np.concatenate(stats, axis=1)  # (statistic, labelling)
    gamma = 100.0 * np.finfo(np.float64).eps * pooled / math.comb(gi.n, 2)
    n_ge = (stats[:, 1:] >= stats[:, :1] - gamma).sum(axis=1)
    p_values = (1.0 + n_ge) / (permutations + 1.0)
    return {
        method: TestResult(
            method=method, statistic=float(t_obs), z=None, p_value=float(p),
            alpha=alpha, reject=bool(p <= alpha), permutations=permutations, seed=seed,
        )
        for method, t_obs, p in zip(_PERM_METHODS.values(), stats[:, 0], p_values)
    }


def permutation_test(
    ds: LabeledDataset,
    statistic: str = "gini",
    permutations: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
) -> TestResult:
    """Permutation-calibrated K-sample test.

    ``statistic`` chooses between the Gini covariance ("gini") and the
    squared-weight distance-covariance comparator ("dcov").  The label
    vector is reshuffled uniformly for each replicate; the add-one p-value
    (1 + #{T_b >= T_obs, up to rounding}) / (B + 1) is valid at any finite B.
    Deterministic given ``seed``.
    """
    if statistic not in _PERM_METHODS:
        raise ValueError(f"unknown permutation statistic {statistic!r}")
    _check_alpha(alpha)
    gi = group_index(ds)
    validate_for_testing(gi)
    results = _perm_test_from_distance(
        pairwise_distances(ds), gi, permutations, alpha, seed
    )
    return results[_PERM_METHODS[statistic]]
