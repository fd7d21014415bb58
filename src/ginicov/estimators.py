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
from .distmat import _block_pair_sums, u_center


def _gini_from_sums(pooled_sum, class_sums, counts, n):
    """Gini covariance from the pooled pair sum and the class pair sums
    ``class_sums[..., k]``; one value per leading index."""
    weighted = (counts / n) * (class_sums / (counts * (counts - 1) / 2))
    return pooled_sum / comb(n, 2) - weighted.sum(axis=-1)


def _dcov_from_sums(pooled_sum, class_sums, class_rows, counts, n):
    """Unbiased sample dCov between the sample and its labels (0/1 label
    metric) from the class pair sums S_k and the class totals R_k of the row
    sums of d: the U-centered matrix sums to ``S_k - (n_k-1) R_k/(n-2) +
    C(n_k,2) T/((n-1)(n-2))`` over class k, with T the full sum of d."""
    pairs = counts * (counts - 1) / 2
    centered = class_sums - (counts - 1) * class_rows / (n - 2)
    centered += pairs * (2.0 * pooled_sum) / ((n - 1) * (n - 2))
    # 0.0 - x, not -x: an all-zero matrix gives +0.0, never -0.0
    return 0.0 - 2.0 * centered.sum(axis=-1) / (n * (n - 3))


def _sigma0_sq(gi: GroupIndex, v2n: float) -> float:
    """Null-variance estimate of the Gini covariance from the squared
    distance variance ``v2n``.

    The bracket sums exact binomial reciprocals class by class before
    subtracting the pooled term: the two parts are O(n^-2) and nearly
    cancel, so the ordering is fixed for reproducibility.  It is positive:
    ``validate_for_testing`` ensures K >= 2 classes of at least 2, so the
    class terms, each over 2/n^2, sum to over 4/n^2 >= 2/(n(n-1)), the
    pooled term.
    """
    validate_for_testing(gi)
    bracket = 0.0
    n = gi.n
    for cnt in gi.counts:
        cnt = int(cnt)
        bracket += (cnt / n) ** 2 / comb(cnt, 2)
    bracket -= 1.0 / comb(n, 2)
    return bracket * v2n


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
    if d.shape[0] != gi.n:
        raise ValueError(
            f"distance matrix size {d.shape[0]} does not match index n={gi.n}"
        )
    # halving the symmetric full sum is exact in binary arithmetic
    pooled = float(d.sum()) / 2.0
    per_class = _block_pair_sums(d, gi.codes, gi.k)
    n = gi.n
    delta_hat = pooled / comb(n, 2)
    gcov = float(_gini_from_sums(pooled, per_class, gi.counts, n))
    # bias-corrected distance variance: the sum of squares of the U-centered
    # matrix over n(n-3), squared in place so that one n x n array is held
    # beside d
    a = u_center(d)
    v2n = float(np.square(a, out=a).sum()) / (n * (n - 3))
    return GiniEstimates(
        delta_hat=delta_hat,
        delta_k_hat=per_class / (gi.counts * (gi.counts - 1) / 2),
        gcov=gcov,
        gcor=gcov / delta_hat if delta_hat > 0.0 else None,
        v2n=v2n,
        sigma0_sq=_sigma0_sq(gi, v2n),
    )
