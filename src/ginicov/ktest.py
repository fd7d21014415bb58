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
from .distmat import class_pair_sums, pairwise_distances
# u_center stays a module attribute: perfbench's tracer rebinds ktest.u_center
from .distmat import u_center  # noqa: F401
from .estimators import _dcov_from_sums, _gini_from_sums, gini_estimates
from .streams import permutation_keys, shuffled
# substream stays a module attribute: perfbench's tracer rebinds ktest.substream
from .streams import substream  # noqa: F401

METHOD_GINI_NORMAL = "gini-normal"
METHOD_GINI_PERM = "gini-perm"
METHOD_DCOV_PERM = "dcov-perm"

_SQRT2 = math.sqrt(2.0)

# most labellings per kernel call: its buffers stay O(n * _BLOCK) for any B
_BLOCK = 128
# streams per stream-key hash, a multiple of _BLOCK: 32 KiB of keys for any B
_KEYS = 16 * _BLOCK
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


def _labellings(seed: int, codes, permutations: int):
    """The observed codes, then ``shuffled`` rows of the streams (seed, b)
    for b = 1..B, in slices of _BLOCK labellings (the last may hold fewer).
    The observed codes are row 0 of the first block, which B >= 1 makes
    multi-row: a one-row product takes another BLAS kernel, whose last bits
    differ.  Keys are hashed _KEYS streams at a time, so memory does not
    grow with B."""
    for lo in range(0, permutations + 1, _KEYS):
        # keys[j] is stream lo + j's; b = 0 is no replicate, and its row
        # becomes the observed codes
        keys = permutation_keys(seed, range(lo, min(lo + _KEYS, permutations + 1)))
        for i in range(0, len(keys), _BLOCK):
            labs = shuffled(keys[i:i + _BLOCK], codes)
            if lo + i == 0:
                labs[0] = codes
            yield labs
        del keys, labs  # freed before the next chunk is hashed


def _block_statistics(d, gi, labs, pooled: float, row_sums):
    """Gini covariance and dCov, shape (2, m), of an (m, n) labelling block."""
    m = labs.shape[0]
    sums = class_pair_sums(d, labs, gi.k)
    flat = (labs + gi.k * np.arange(m)[:, None]).ravel()
    rows = np.bincount(flat, np.tile(row_sums, m), m * gi.k).reshape(m, gi.k)
    return np.stack([_gini_from_sums(pooled, sums, gi.counts, gi.n),
                     _dcov_from_sums(pooled, sums, rows, gi.counts, gi.n)])


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
    # leaves both statistics rounding noise: report the non-rejection outright
    degenerate = bool(d.max() - pooled / pairs <= gamma)
    blocks = _labellings(seed, gi.codes, permutations)
    stats = _block_statistics(d, gi, next(blocks), pooled, row_sums)
    # running counts of the replicates at or above t_obs - gamma
    t_obs, floor = stats[:, 0], stats[:, :1] - gamma
    n_ge = (stats[:, 1:] >= floor).sum(axis=1)
    for labs in blocks:
        n_ge += (_block_statistics(d, gi, labs, pooled, row_sums) >= floor).sum(axis=1)
    p_values = np.ones(2) if degenerate else (1.0 + n_ge) / (permutations + 1.0)
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
