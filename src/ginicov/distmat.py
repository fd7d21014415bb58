"""Pairwise Euclidean distances, within-class pair sums and U-centering.

The full n x n matrix is materialized once and shared by every estimator and
every permutation replicate, which only relabels its rows before the class
pair sums are taken.  Memory is 8 * n**2 bytes, sized for n up to 1e4.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core import GroupIndex, LabeledDataset
from .errors import TooSmallError

# Above this many coordinates, accumulate squared differences with numpy's
# pairwise (tree) reduction instead of scipy's sequential loop, which bounds
# rounding-error growth in high dimension.
_TREE_SUM_DIM = 1024

# Above this many classes, summing each class block beats the one-hot product,
# whose work grows as n**2 * k (crossover measured for n = 60..1000)
_ONEHOT_MAX_K = 4


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, LabeledDataset):
        return x.data
    return np.ascontiguousarray(x, dtype=np.float64)


def pairwise_distances(ds) -> np.ndarray:
    """Symmetric matrix of Euclidean distances between rows.

    Accepts a LabeledDataset or a plain (n, p) array.  The diagonal is
    exactly zero and the matrix is exactly symmetric (each unordered pair is
    evaluated once).
    """
    x = _as_matrix(ds)
    n, p = x.shape
    if p <= _TREE_SUM_DIM:
        return squareform(pdist(x))

    d = np.empty((n, n), dtype=np.float64)
    # block rows so the (block, n, p) difference buffer stays ~64 MB
    block = max(1, (8 << 20) // max(1, n * p))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = x[i0:i1, None, :] - x[None, :, :]
        np.square(diff, out=diff)
        sq = diff.sum(axis=2)
        np.sqrt(sq, out=sq)
        d[i0:i1] = sq
    # (x_i - x_j)^2 and (x_j - x_i)^2 round identically coordinate by
    # coordinate, so both triangles agree bit for bit without mirroring
    np.fill_diagonal(d, 0.0)
    return d


def u_center(d: np.ndarray) -> np.ndarray:
    """Bias-corrected double centering of a symmetric distance matrix.

    Off-diagonal entries become
    ``d[k, l] - rowsum_k/(n-2) - colsum_l/(n-2) + total/((n-1)(n-2))``
    with the sums taken over the full index range; the diagonal is zero.
    Every off-diagonal row and column of the result sums to zero exactly
    (up to rounding), which is what removes the bias from the squared-sum
    variance estimate downstream.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    n = d.shape[0]
    if n < 4:
        raise TooSmallError(
            f"U-centering needs n >= 4 (the n(n-3) denominator), got n={n}"
        )
    # d is symmetric, so one sum serves both rows and columns
    row = d.sum(axis=1)
    total = d.sum()
    a = d - row[:, None] / (n - 2) - row[None, :] / (n - 2) + total / (
        (n - 1) * (n - 2)
    )
    np.fill_diagonal(a, 0.0)
    return a


def class_pair_sums(d: np.ndarray, labelings, k: int) -> np.ndarray:
    """Sums of ``d`` over unordered pairs within each class, shape (L, k),
    for an (L, n) array of labellings in [0, k).

    Blocks of two or more labellings with at most ``_ONEHOT_MAX_K`` classes
    take one ``einsum`` product with a one-hot label matrix (unlike BLAS, it
    starts no threads to compete with the study's workers).  Otherwise each
    class block is summed by numpy's pairwise reduction, as the normal test's
    ill-conditioned z needs for its single labelling.
    """
    m, n = labelings.shape
    if m == 1 or k > _ONEHOT_MAX_K:
        sums = np.empty((m, k))
        for lab, row in zip(labelings, sums):
            ends = np.cumsum(np.bincount(lab, minlength=k))[:-1]
            blocks = np.split(np.argsort(lab, kind="stable"), ends)
            row[:] = [d[ix[:, None], ix].sum() for ix in blocks]
        return sums / 2.0
    onehot = np.zeros((n, m * k))
    onehot[np.arange(n)[:, None], labelings.T + k * np.arange(m)] = 1.0
    within = np.einsum("ij,jl->il", d, onehot)
    return np.einsum("il,il->l", onehot, within).reshape(m, k) / 2.0


def group_gmd_inputs(d: np.ndarray, gi: GroupIndex):
    """Pooled and per-class sums of distances over unordered pairs.

    Returns ``(pooled, per_class)`` where ``pooled`` sums d[i, j] over all
    i < j and ``per_class[k]`` sums over pairs inside class k.  Halving the
    symmetric full sum is exact in binary arithmetic.
    """
    if d.shape[0] != gi.n:
        raise ValueError(
            f"distance matrix size {d.shape[0]} does not match index n={gi.n}"
        )
    pooled = float(d.sum()) / 2.0
    return pooled, class_pair_sums(d, gi.codes[None, :], gi.k)[0]
