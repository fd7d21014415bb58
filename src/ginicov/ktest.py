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

from .core import LabeledDataset, group_index, validate_for_testing
from .distmat import class_sums, pairwise_distances
# u_center stays a module attribute: perfbench's tracer rebinds ktest.u_center
from .distmat import u_center  # noqa: F401
from .estimators import _dcov_from_sums, _gini_from_sums, gini_estimates
from .streams import labellings
# substream stays a module attribute: perfbench's tracer rebinds ktest.substream
from .streams import substream  # noqa: F401

METHOD_GINI_NORMAL = "gini-normal"
METHOD_GINI_PERM = "gini-perm"
METHOD_DCOV_PERM = "dcov-perm"

_SQRT2 = math.sqrt(2.0)

# the methods of the engine's two statistic rows, in row order
_PERM_METHODS = (METHOD_GINI_PERM, METHOD_DCOV_PERM)
# rounding scale, relative to the pooled mean distance: a permutation
# replicate this close to the observed value ties it, and a null deviation
# this small makes the normal test degenerate
_ROUNDING = 100.0 * np.finfo(np.float64).eps


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
    # a null deviation at the rounding scale (all points coincide, or they
    # are equidistant, so the centered matrix vanishes) would make z
    # rounding noise over rounding noise: report the non-rejection outright
    z = est.gcov / sigma0 if sigma0 > _ROUNDING * est.delta_hat else None
    # the upper tail from erfc keeps its relative accuracy however large z is
    p_value = 0.5 * math.erfc(z / _SQRT2) if z is not None else 1.0
    return TestResult(
        method=METHOD_GINI_NORMAL, statistic=est.gcov, z=z, p_value=p_value,
        alpha=alpha, reject=z is not None and p_value < alpha,
        degenerate=z is None,
    )


def gini_normal_test(
    ds: LabeledDataset, alpha: float = 0.05, threads: int = 1
) -> TestResult:
    """One-sided test of class-distribution equality via the standardized
    Gini covariance; rejects when the upper-tail p-value falls below alpha.
    ``threads`` is passed to ``pairwise_distances``; the result does not
    depend on it.
    """
    _check_alpha(alpha)
    gi = group_index(ds)
    validate_for_testing(gi)
    return _normal_test_from_distance(pairwise_distances(ds, threads), gi, alpha)


def _perm_test_from_distance(d, gi, permutations: int, alpha: float, seed: int):
    """gini-perm and dcov-perm results by method, from one pass over the
    streams: replicate b gives row j the class of row perm[j], perm from the
    stream (seed, b).  Replicates within 100 eps x the pooled mean distance
    below the observed value tie it, as exact arithmetic would.  Only running
    counts are kept, so memory does not grow with B."""
    pooled = float(d.sum()) / 2.0
    row_sums = d.sum(axis=1)
    pairs = math.comb(gi.n, 2)
    gamma = _ROUNDING * pooled / pairs
    # every distance at the pooled mean (equidistant or coincident rows)
    # leaves both statistics rounding noise, and distances that overflowed
    # leave them NaN: report the non-rejection outright (written so that NaN
    # is degenerate too)
    degenerate = not d.max() - pooled / pairs > gamma
    # counts of the labellings at or above t_obs - gamma; the observed one,
    # row 0 of the first block, counts itself and so supplies the add-one
    n_ge, floor = 0, None
    for labs in labellings(seed, gi.codes, permutations):
        sums, rows = class_sums(d, row_sums, labs, gi.k)
        stats = np.stack([_gini_from_sums(pooled, sums, gi.counts, gi.n),
                          _dcov_from_sums(pooled, sums, rows, gi.counts, gi.n)])
        if floor is None:
            t_obs, floor = stats[:, 0], stats[:, :1] - gamma
        n_ge += (stats >= floor).sum(axis=1)
    p_values = np.ones(2) if degenerate else n_ge / (permutations + 1.0)
    return {
        method: TestResult(
            method=method, statistic=float(t), z=None, p_value=float(p),
            alpha=alpha, reject=bool(p <= alpha), permutations=permutations, seed=seed,
            degenerate=degenerate,
        )
        for method, t, p in zip(_PERM_METHODS, t_obs, p_values)
    }


def permutation_test(
    ds: LabeledDataset, permutations: int = 999, alpha: float = 0.05, seed: int = 0,
    threads: int = 1,
) -> dict:
    """Permutation-calibrated K-sample tests of the Gini covariance and the
    squared-weight distance-covariance comparator, keyed by method
    ("gini-perm", "dcov-perm"); both share one set of labellings.

    The label vector is reshuffled uniformly for each replicate; the add-one
    p-value (1 + #{T_b >= T_obs, up to rounding}) / (B + 1) is valid at any
    finite B.  Deterministic given ``seed``; ``threads`` is passed to
    ``pairwise_distances`` and changes no result.
    """
    _check_alpha(alpha)
    _check_permutations(permutations)
    gi = group_index(ds)
    validate_for_testing(gi)
    d = pairwise_distances(ds, threads)
    return _perm_test_from_distance(d, gi, permutations, alpha, seed)
