"""Pairwise Euclidean distances, within-class pair sums and U-centering.

Up to 1024 coordinates the distances are scipy's ``pdist``, whose module is
imported by ``_scipy_distance`` on the first such call, not at package
import: ``scipy.spatial`` pulls in ``scipy.sparse``, ``scipy.linalg`` and
``scipy.special`` and costs about 0.3 s, which a ``ginicov test`` on a wide
CSV never needs.

The full n x n matrix is materialized once and shared by every estimator and
every permutation replicate, which only relabels its rows before the class
pair sums are taken.  It takes 8 * n**2 bytes, budgeted at 1 GiB
(``core._MAX_MATRIX_BYTES``, n <= 11585); a larger sample is refused with
``TooLargeError`` before anything of that size is allocated.

Threads are used on the p > 1024 tiles only.  ``pairwise_distances(ds,
threads)`` deals the rows of the upper triangle out to up to ``threads``
threads, interleaved so each gets a like share of the triangle; numpy's
subtract, square and sum release the GIL, so the tiles run in parallel.
Each thread has its own tile buffer, started on a 64-byte boundary, and
writes only the entries of its own rows, each still numpy's pairwise sum
over one contiguous p-vector, so the matrix is bit-identical for every
thread count.  The pdist branch runs on the calling thread.  Study workers
use the default of one thread, so a study never runs more threads than
workers; ``ginicov test --threads`` sets the count for a single test.

A block of relabellings gets its class pair sums and class totals from one
``class_sums`` call, one BLAS product with a one-hot label matrix: the pair
sums are its columns' dot products with the one-hot columns, and, d being
symmetric, the totals are its column sums.  The product runs on exactly one
OpenBLAS thread, for a study worker and ``ginicov test`` alike: more
threads oversubscribe the study workers, and on two cores they made a lone
product far less steady.  ``_pin_blas`` sets the thread count of numpy's
bundled OpenBLAS to 1 through ``ctypes`` when it reads anything else, and
never restores it.  It runs before every product.  Where the library is
not found, the product runs on the BLAS's own thread setting.

The study driver calls ``_before_fork`` just before it forks its workers.
It pins the count and imports scipy's distance module in the parent, so
every worker inherits both.  OpenBLAS stops its own thread pool at every
fork, and a worker whose first setter call changes the count restarts that
pool, whose helper thread then spins on a core the sibling worker needs;
workers that inherit a count of 1 never call the setter.  Workers that
inherit the module never import it; otherwise each fresh worker of every
study call would pay that import again.

Before it maps any replicate, on any worker count, the study driver also
calls ``_keep_freed_memory``, which raises glibc's mmap and trim thresholds
through ``mallopt`` once per process.  A normal-study replicate frees about
3 MB of arrays, more than glibc's dynamic trim threshold of about 2 MB, so
without it each replicate handed that memory back to the kernel and faulted
it in again.  The setting is never restored; where ``mallopt`` is not
found, nothing is set.  ``ginicov test`` does not call it: its CPU per
call did not move with it.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from .core import LabeledDataset, _check_matrix_rows, _usable_cores
from .errors import TooSmallError

# Above this many coordinates, accumulate squared differences with numpy's
# pairwise (tree) reduction instead of scipy's sequential loop, which bounds
# rounding-error growth in high dimension.
_TREE_SUM_DIM = 1024

# Above this many classes, each class block is summed on its own: the one-hot
# matrix (n x m*k) and its product grow with k.  The one-thread product wins
# at every k up to 8 at every n measured (README ledger); past 8 it still wins
# up to k = 16 at n = 1000 and past k = 32 at n = 300, so a higher cut waits
# on a many-class workload.
_ONEHOT_MAX_K = 8

# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pairwise_distances(ds, threads: int = 1) -> np.ndarray:
    """Symmetric matrix of Euclidean distances between rows.

    Accepts a LabeledDataset or a plain (n, p) array.  The diagonal is
    exactly zero and the matrix is exactly symmetric (each unordered pair is
    evaluated once).  Above 1024 coordinates the rows are shared among up to
    ``threads`` threads; the matrix does not depend on the count.  Raises
    ``ValueError`` when ``threads`` is below 1, and ``TooLargeError`` when
    the matrix would exceed ``core._MAX_MATRIX_BYTES``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    x = (ds.data if isinstance(ds, LabeledDataset)
         else np.ascontiguousarray(ds, dtype=np.float64))
    n, p = x.shape
    _check_matrix_rows(n)
    if p <= _TREE_SUM_DIM:
        pdist, squareform = _scipy_distance()
        return squareform(pdist(x))

    d = np.zeros((n, n), dtype=np.float64)
    # interleaved rows balance the triangle: thread w takes rows w, w + step, ...
    step = min(threads, n - 1, _usable_cores())
    if step <= 1:
        _tile_rows(x, d, 0, 1)
    else:
        # imported on first use, so a process that never splits the tiles,
        # a study worker say, keeps the module set it had without threads
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=step) as pool:
            futures = [pool.submit(_tile_rows, x, d, w, step) for w in range(step)]
            for future in futures:
                future.result()  # raises a thread's exception here
    return d


def _tile_rows(x, d, first: int, step: int) -> None:
    """Fill entries (i, j) and (j, i), j > i, of ``d`` for the rows
    i = first, first + step, ... < n - 1; no other call writes them."""
    n, p = x.shape
    # row i against tiles of later rows; a tile of (1 << 16) doubles (512 KB)
    # stays in L2, and each entry is still numpy's pairwise sum over one
    # contiguous p-vector
    rows = max(1, (1 << 16) // p)
    buf = _tile_buffer(rows, p)
    for i in range(first, n - 1, step):
        for j0 in range(i + 1, n, rows):
            j1 = min(j0 + rows, n)
            diff = np.subtract(x[j0:j1], x[i], out=buf[: j1 - j0])
            np.square(diff, out=diff)
            dist = np.sqrt(diff.sum(axis=1))
            # mirror tile by tile: d += d.T would copy the overlapping operand
            d[i, j0:j1] = dist
            d[j0:j1, i] = dist


def _tile_buffer(rows: int, p: int) -> np.ndarray:
    """An uninitialized (rows, p) float64 tile that starts on a 64-byte
    boundary.  numpy aligns to 16 bytes only; on the 300 x 2000 matrix the
    tile loop took 95-97 ms against 111-113 ms from numpy's own buffer (one
    thread of a 2-core AVX-512 Xeon, min of 9).  The distances are the same
    at every offset."""
    raw = np.empty(rows * p + 8, dtype=np.float64)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + rows * p].reshape(rows, p)


@functools.cache
def _scipy_distance():
    """scipy's ``pdist`` and ``squareform``, imported on the first call."""
    from scipy.spatial.distance import pdist, squareform

    return pdist, squareform


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
    # d is symmetric, so one sum serves both rows and columns; the one result
    # array is updated in place, in the order of the formula above
    row = d.sum(axis=1) / (n - 2)
    total = d.sum()
    a = d - row[:, None]
    a -= row[None, :]
    a += total / ((n - 1) * (n - 2))
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


def _pin_blas() -> None:
    """Set the bundled OpenBLAS to one thread unless it runs on one already.
    The count is process-wide and is never restored, so a process that has
    pinned keeps one thread; it is read on every call, because a caller may
    have raised it since."""
    threads = _openblas_threads()
    if threads is None:
        return
    get, set_ = threads
    if get() != 1:
        set_(1)


@functools.cache
def _keep_freed_memory() -> bool:
    """Raise glibc's mmap and trim thresholds to 32 and 64 MiB, the ceilings
    of its own dynamic ones, so a replicate's freed arrays stay in the heap
    for the next replicate instead of going back to the kernel and faulting
    in again.  Runs once per process and is never restored; forked children
    inherit it.  True when both were set; False, and nothing set, where the
    C library has no ``mallopt`` or refuses the mmap threshold."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    # the mmap threshold first: the trim threshold alone would freeze it at
    # glibc's initial 128 KiB
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    )


def _before_fork() -> None:
    """Set up in this process what a forked study worker should inherit: the
    one-thread BLAS count and scipy's distance module, so no worker pays for
    either itself."""
    _pin_blas()
    _scipy_distance()


def _block_pair_sums(d: np.ndarray, codes: np.ndarray, k: int) -> np.ndarray:
    """Sums of ``d`` over unordered pairs within each class of one labelling
    in [0, k), each class block summed by numpy's pairwise reduction."""
    ends = np.cumsum(np.bincount(codes, minlength=k))[:-1]
    blocks = np.split(np.argsort(codes, kind="stable"), ends)
    return np.array([d[ix[:, None], ix].sum() for ix in blocks]) / 2.0


def class_sums(d: np.ndarray, labelings, k: int):
    """Class pair sums and class totals, each (m, k), of an (m, n) array of
    labellings in [0, k): ``pairs[l, c]`` sums ``d`` over unordered pairs
    within class c of labelling l, ``totals[l, c]`` sums the row sums of
    ``d`` over that class.

    Up to ``_ONEHOT_MAX_K`` classes, one single-threaded BLAS product with
    a gathered one-hot matrix (column ``c + k*l`` marks class c of labelling
    l) gives both, up to the last bits: the pair sums are its columns' dot
    products with the one-hot columns and, d being symmetric, the totals are
    its column sums.  The one-hot matrix and the product are n x k*m each
    (at most n x 8 * ``streams._BLOCK``).  With more classes, each
    labelling's class blocks are summed one by one.
    """
    if k > _ONEHOT_MAX_K:
        rows = d.sum(axis=1)
        return (np.array([_block_pair_sums(d, lab, k) for lab in labelings]),
                np.array([np.bincount(lab, rows, k) for lab in labelings]))
    m, n = labelings.shape
    onehot = np.take(np.eye(k), labelings.T, axis=0).reshape(n, m * k)
    _pin_blas()
    within = d @ onehot
    pairs = np.einsum("il,il->l", onehot, within).reshape(m, k) / 2.0
    return pairs, within.sum(axis=0).reshape(m, k)
