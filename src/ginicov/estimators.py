"""Unbiased sample quantities behind the K-sample tests.

All estimators work on a precomputed distance matrix plus a group index,
through per-class sums with the class axis last, which lets the permutation
engine evaluate a block of labellings with the same formulas.  The Gini
covariance is the pooled Gini mean difference minus the proportion-weighted
class GMDs, each estimated by the unbiased pair-average (U-statistic) rather
than the plug-in V-statistic, which matters in high dimension where the
plug-in bias does not wash out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import GroupIndex, validate_for_testing
from .distmat import group_gmd_inputs, u_center
from .errors import TinyClassError, TooSmallError


def gmd(pair_sum: float, m: int) -> float:
    """Gini mean difference from the sum over the C(m, 2) unordered pairs."""
    if m < 2:
        raise TinyClassError(f"GMD needs at least 2 points, got {m}")
    return pair_sum / comb(m, 2)


def _gini_from_sums(pooled_sum, class_sums, counts, n):
    """Gini covariance from the pooled pair sum and the class pair sums
    ``class_sums[..., k]``; one value per leading index."""
    weighted = (counts / n) * (class_sums / (counts * (counts - 1) / 2))
    return pooled_sum / comb(n, 2) - weighted.sum(axis=-1)


def _dcov_from_sums(pooled_sum, class_sums, class_rows, counts, n):
    """dCov from the class pair sums S_k and the class totals R_k of the row
    sums of d: the U-centered matrix sums to ``S_k - (n_k-1) R_k/(n-2) +
    C(n_k,2) T/((n-1)(n-2))`` over class k, with T the full sum of d."""
    pairs = counts * (counts - 1) / 2
    centered = class_sums - (counts - 1) * class_rows / (n - 2)
    centered += pairs * (2.0 * pooled_sum) / ((n - 1) * (n - 2))
    return -2.0 * centered.sum(axis=-1) / (n * (n - 3))


def dist_variance(a: np.ndarray) -> float:
    """Bias-corrected squared distance variance of a U-centered matrix:
    the mean of the squared off-diagonal entries scaled by 1/(n(n-3))."""
    n = a.shape[0]
    if n < 4:
        raise TooSmallError(f"distance variance needs n >= 4, got n={n}")
    return float((a * a).sum()) / (n * (n - 3))


def sigma0_sq(gi: GroupIndex, v2n: float) -> float:
    """Null-variance estimate of the Gini covariance.

    The bracket sums exact binomial reciprocals class by class before
    subtracting the pooled term: the two parts are O(n^-2) and nearly
    cancel, so the ordering is fixed for reproducibility.
    """
    validate_for_testing(gi)
    if v2n < 0.0:
        raise ValueError(f"squared distance variance must be >= 0, got {v2n}")
    bracket = 0.0
    n = gi.n
    for cnt in gi.counts:
        cnt = int(cnt)
        bracket += (cnt / n) ** 2 / comb(cnt, 2)
    bracket -= 1.0 / comb(n, 2)
    if bracket <= 0.0:
        # impossible for K >= 2; guards against a malformed GroupIndex
        raise ValueError(f"variance bracket must be positive, got {bracket}")
    return bracket * v2n


def dcov_stat(d: np.ndarray, gi: GroupIndex) -> float:
    """Distance-covariance comparator: the unbiased sample dCov between the
    numeric sample and its labels under the discrete label metric.

    Against the zero-diagonal 0/1 label-distance matrix, the U-centered
    cross sum collapses to the within-class sums of the U-centered distance
    matrix, giving ``-sum_k A_k / (n (n-3))`` with ``A_k`` the off-diagonal
    within-class total.  Its population target carries the squared class
    weights that let large classes dominate.  Consumed only by permutation
    calibration, where any monotone-equivalent normalization gives the same
    p-value.
    """
    validate_for_testing(gi)
    pooled, per_class = group_gmd_inputs(d, gi)
    class_rows = np.bincount(gi.codes, weights=d.sum(axis=1), minlength=gi.k)
    return float(_dcov_from_sums(pooled, per_class, class_rows, gi.counts, gi.n))


@dataclass(frozen=True, eq=False)
class GiniEstimates:
    """Every sample quantity the normal-limit test needs, computed once."""

    delta_hat: float
    delta_k_hat: np.ndarray
    gcov: float
    gcor: float | None
    v2n: float
    sigma0_sq: float


def gini_estimates(d: np.ndarray, gi: GroupIndex) -> GiniEstimates:
    """Compute the full set of estimates from one distance matrix; the one
    public entry for the sample Gini covariance and correlation.

    Needs n >= 4 for the bias-corrected distance variance.  The covariance
    is assembled as ``delta_hat - sum(p_k * delta_k_hat)`` so the
    reconstruction identity holds exactly by construction; it may be
    negative in finite samples.  The correlation ``gcov / delta_hat`` is
    None when the pooled GMD is zero (all points coincide, 0/0).
    """
    validate_for_testing(gi)
    pooled, per_class = group_gmd_inputs(d, gi)
    delta_hat = gmd(pooled, gi.n)
    delta_k = np.array(
        [gmd(s, int(cnt)) for s, cnt in zip(per_class, gi.counts)]
    )
    gcov = float(_gini_from_sums(pooled, per_class, gi.counts, gi.n))
    gcor = gcov / delta_hat if delta_hat > 0.0 else None
    v2n = dist_variance(u_center(d))
    return GiniEstimates(
        delta_hat=delta_hat,
        delta_k_hat=delta_k,
        gcov=gcov,
        gcor=gcor,
        v2n=v2n,
        sigma0_sq=sigma0_sq(gi, v2n),
    )
