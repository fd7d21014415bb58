"""Pairwise Euclidean distances, within-class pair sums and U-centering.

The full n x n matrix is materialized once and shared by every estimator and
every permutation replicate, which only relabels its rows before the class
pair sums are taken.  It takes 8 * n**2 bytes, budgeted at 1 GiB
(``core._MAX_MATRIX_BYTES``, n <= 11585); a larger sample is refused with
``TooLargeError`` before anything of that size is allocated.

A block of relabellings gets its class pair sums from one BLAS product with a
one-hot label matrix.  That product runs on exactly one OpenBLAS thread,
whether the caller is a study worker or a single ``ginicov test``: more
threads oversubscribe a worker pool, and on two cores they made a lone
product far less steady.  The thread count of numpy's bundled OpenBLAS is
set through ``ctypes`` for the product and restored afterwards; where that
library is not found, the product runs on the BLAS's own thread setting.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .core import GroupIndex, LabeledDataset, _check_matrix_rows
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
    evaluated once).  Raises ``TooLargeError`` when the matrix would exceed
    ``core._MAX_MATRIX_BYTES``.
    """
    x = _as_matrix(ds)
    n, p = x.shape
    _check_matrix_rows(n)
    if p <= _TREE_SUM_DIM:
        return squareform(pdist(x))

    d = np.zeros((n, n), dtype=np.float64)
    # upper triangle only, row i against tiles of later rows; a tile of
    # (1 << 16) doubles (512 KB) stays in L2, and each entry is still numpy's
    # pairwise sum over one contiguous p-vector
    rows = max(1, (1 << 16) // p)
    buf = np.empty((rows, p), dtype=np.float64)
    for i in range(n - 1):
        for j0 in range(i + 1, n, rows):
            j1 = min(j0 + rows, n)
            diff = np.subtract(x[j0:j1], x[i], out=buf[: j1 - j0])
            np.square(diff, out=diff)
            dist = np.sqrt(diff.sum(axis=1))
            # mirror tile by tile: d += d.T would copy the overlapping operand
            d[i, j0:j1] = dist
            d[j0:j1, i] = dist
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


@functools.cache
def _openblas_threads():
    """Thread-count getter and setter of the OpenBLAS that numpy's wheels
    bundle in ``numpy.libs``, or None where it is not found."""
    libs = os.path.dirname(np.__file__) + ".libs"
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if not name.startswith("libscipy_openblas64_"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


def kernel_blas_threads() -> int | None:
    """BLAS threads behind the class pair sums: 1 when pinned, None when the
    bundled OpenBLAS was not found and the product runs unpinned."""
    return None if _openblas_threads() is None else 1


def _one_thread_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on one OpenBLAS thread; the caller's count is restored.
    The count is process-wide, so concurrent calls from several Python
    threads may leave it at 1."""
    threads = _openblas_threads()
    if threads is None:
        return a @ b
    get, set_ = threads
    before = get()
    set_(1)
    try:
        return a @ b
    finally:
        set_(before)


def class_pair_sums(d: np.ndarray, labelings, k: int) -> np.ndarray:
    """Sums of ``d`` over unordered pairs within each class, shape (L, k),
    for an (L, n) array of labellings in [0, k).

    Blocks of two or more labellings with at most ``_ONEHOT_MAX_K`` classes
    take one single-threaded BLAS product with a one-hot label matrix, whose
    sums may differ from a pairwise reduction in the last bits.  Otherwise
    each class block is summed by numpy's pairwise reduction, as the normal
    test's ill-conditioned z needs for its single labelling.
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
    within = _one_thread_product(d, onehot)
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
