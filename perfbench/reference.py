"""Independent reference for the outputs the benchmark checks.

Everything here is restated from the published design and the package's
documented stream contract, using numpy and scipy directly; nothing is
imported from ``ginicov``.  The benchmark compares the program's outputs
against these values, so a change that speeds the program up but alters its
results shows as a failed operation.

Stream contract (see ``ginicov.streams``): the generator for the path
``(seed, *path)`` is Philox keyed by ``SeedSequence([seed, *path])``, every
entry masked to 64 bits.  Scenario data for class ``c`` of replicate ``r``
draws from ``(seed, r, c)``; permutation replicate ``b`` of a test draws from
``(perm_seed, b)`` and relabels rows as ``labels[permutation]``.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np
from scipy.spatial.distance import pdist, squareform

_MASK = (1 << 64) - 1

# study permutation seeds are derive(scenario_seed, replicate, PERM_SALT)
PERM_SALT = 0x70657274

# design constants of examples 2 and 3: per-class scale and mean shift of
# the first round(beta * p) coordinates
CLASS_SCALE = (1.0, 1.1, 1.2)
CLASS_SHIFT = (0.0, 0.1, 0.2)

# above this dimension the program sums squared differences with numpy's
# pairwise reduction; below it, scipy's pdist
TREE_SUM_DIM = 1024

KDE_GRID = np.linspace(-4.0, 4.0, 801)


def _entropy(seed, path):
    return [int(seed) & _MASK] + [int(x) & _MASK for x in path]


def stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_entropy(seed, path)))
    )


def derive(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=_entropy(seed, path))
    return int(ss.generate_state(1, np.uint64)[0])


def _ar1(e: np.ndarray, rho: float) -> np.ndarray:
    """x[0] = e[0], x[j] = rho x[j-1] + sqrt(1-rho^2) e[j] along each row."""
    out = np.empty_like(e)
    out[:, 0] = e[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, e.shape[1]):
        out[:, j] = rho * out[:, j - 1] + c * e[:, j]
    return out


def scenario_data(example, p, sizes, beta, seed, replicate, rho=0.7):
    """(x, labels) of one replicate; labels are 0..K-1 in class order."""
    affected = int(round(beta * p))
    blocks = []
    for k, n_k in enumerate(sizes):
        rng = stream(seed, replicate, k + 1)
        if example == 3:
            x = _ar1(rng.exponential(1.0, size=(n_k, p)) - 1.0, rho)
            if k > 0 and affected > 0:
                x[:, :affected] *= CLASS_SCALE[k]
        else:
            x = _ar1(rng.standard_normal((n_k, p)), rho)
            if example == 2 and k > 0 and affected > 0:
                x[:, :affected] = (
                    CLASS_SCALE[k] * x[:, :affected] + CLASS_SHIFT[k]
                )
        blocks.append(x)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return np.vstack(blocks), labels


def distances(x: np.ndarray) -> np.ndarray:
    n, p = x.shape
    if p <= TREE_SUM_DIM:
        return squareform(pdist(x))
    d = np.empty((n, n))
    for i in range(n):
        diff = x[i] - x
        d[i] = np.sqrt((diff * diff).sum(axis=1))
    np.fill_diagonal(d, 0.0)
    return d


def u_centered(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    row = d.sum(axis=1)
    a = d - row[:, None] / (n - 2) - row[None, :] / (n - 2)
    a += d.sum() / ((n - 1) * (n - 2))
    np.fill_diagonal(a, 0.0)
    return a


def _class_indices(labels):
    return [np.flatnonzero(labels == k) for k in range(int(labels.max()) + 1)]


def _direct_pair_sums(mat, labels):
    return [mat[np.ix_(ix, ix)].sum() / 2.0 for ix in _class_indices(labels)]


def _gini_direct(d, labels) -> float:
    n = d.shape[0]
    weighted = 0.0
    for s_k, ix in zip(_direct_pair_sums(d, labels), _class_indices(labels)):
        weighted += (ix.size / n) * (s_k / comb(ix.size, 2))
    return d.sum() / 2.0 / comb(n, 2) - weighted


def gmd(d) -> float:
    """Pooled Gini mean difference: the scale the statistics are compared at."""
    return d.sum() / 2.0 / comb(d.shape[0], 2)


def normal_test(d, labels, alpha=0.05) -> dict:
    """Studentized Gini covariance with its upper-tail normal p-value."""
    n = d.shape[0]
    gcov = _gini_direct(d, labels)
    bracket = 0.0
    for ix in _class_indices(labels):
        bracket += (ix.size / n) ** 2 / comb(ix.size, 2)
    bracket -= 1.0 / comb(n, 2)
    a = u_centered(d)
    v2n = (a * a).sum() / (n * (n - 3))
    sigma0 = math.sqrt(bracket * v2n)
    if sigma0 == 0.0:
        return {"statistic": gcov, "z": None, "p_value": 1.0, "reject": False}
    z = gcov / sigma0
    p_value = 1.0 - 0.5 * math.erfc(-z / math.sqrt(2.0))
    return {"statistic": gcov, "z": z, "p_value": p_value,
            "reject": p_value < alpha}


def _class_pair_sums(mat, label_sets, k):
    """Within-class pair sums of ``mat`` for each labelling, shape (L, k).

    One BLAS product against the one-hot label matrix gives every
    labelling at once: S[l, c] = 1_c' mat 1_c / 2.
    """
    n = mat.shape[0]
    onehot = np.zeros((n, len(label_sets) * k))
    cols = np.arange(len(label_sets))[:, None] * k + label_sets
    onehot[np.arange(n)[None, :], cols] = 1.0
    s = (onehot * (mat @ onehot)).sum(axis=0) / 2.0
    return s.reshape(len(label_sets), k)


def perm_tests(d, labels, permutations, seed, alpha=0.05) -> dict:
    """Add-one permutation p-values of the Gini and dCov statistics.

    The observed labelling and the B replicates are evaluated with the same
    batched arithmetic, so the count of replicates at or above the observed
    value is free of evaluation-order effects.  The reported statistic is
    the observed one computed class by class.
    """
    n = d.shape[0]
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    label_sets = [labels]
    for b in range(1, permutations + 1):
        label_sets.append(labels[stream(seed, b).permutation(n)])
    label_sets = np.asarray(label_sets)
    a = u_centered(d)
    pair = np.array([comb(int(c), 2) for c in counts], dtype=np.float64)
    gini = gmd(d) - (
        _class_pair_sums(d, label_sets, k) / pair * (counts / n)
    ).sum(axis=1)
    dcov = -2.0 * _class_pair_sums(a, label_sets, k).sum(axis=1) / (n * (n - 3))
    observed = {
        "gini-perm": _gini_direct(d, labels),
        "dcov-perm": -2.0 * sum(_direct_pair_sums(a, labels)) / (n * (n - 3)),
    }
    out = {}
    for name, stat in (("gini-perm", gini), ("dcov-perm", dcov)):
        n_ge = int((stat[1:] >= stat[0]).sum())
        p_value = (1.0 + n_ge) / (permutations + 1.0)
        out[name] = {"statistic": observed[name], "p_value": p_value,
                     "reject": p_value <= alpha}
    return out


def kde_gap(z: np.ndarray) -> float:
    """Sup over [-4, 4] of |Gaussian KDE (Silverman bandwidth) - N(0,1)|."""
    m = z.size
    q75, q25 = np.percentile(z, [75.0, 25.0])
    h = 0.9 * min(float(z.std(ddof=1)), float(q75 - q25) / 1.34) * m ** -0.2
    u = (KDE_GRID[:, None] - z[None, :]) / h
    dens = np.exp(-0.5 * u * u).sum(axis=1) / (m * h * math.sqrt(2.0 * math.pi))
    phi = np.exp(-0.5 * KDE_GRID * KDE_GRID) / math.sqrt(2.0 * math.pi)
    return float(np.abs(dens - phi).max())
