import concurrent.futures
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginicov import (
    LabeledDataset,
    TooLargeError,
    TooSmallError,
    gini_estimates,
    group_index,
    pairwise_distances,
    u_center,
)
from ginicov import distmat
from ginicov.distmat import _block_pair_sums, class_sums

FOUR_POINTS = np.array([[0.0], [2.0], [1.0], [3.0]])


def u_center_by_formula(d):
    """Direct per-entry evaluation of the centering formula, written
    independently of the production code (full-range sums, explicit loops)."""
    n = d.shape[0]
    a = np.zeros_like(d)
    total = sum(d[i, j] for i in range(n) for j in range(n))
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            col = sum(d[i, l] for i in range(n))
            row = sum(d[k, j] for j in range(n))
            a[k, l] = (
                d[k, l]
                - col / (n - 2)
                - row / (n - 2)
                + total / ((n - 1) * (n - 2))
            )
    return a


def random_dataset(rng, n=None, p=None):
    n = n or int(rng.integers(4, 40))
    p = p or int(rng.integers(1, 20))
    return rng.standard_normal((n, p))


class TestPairwiseDistances:
    def test_hand_computed_line(self):
        d = pairwise_distances(FOUR_POINTS)
        expect = [
            (0, 1, 2.0), (0, 2, 1.0), (0, 3, 3.0),
            (1, 2, 1.0), (1, 3, 1.0), (2, 3, 2.0),
        ]
        for i, j, v in expect:
            assert d[i, j] == v
            assert d[j, i] == v
        assert np.all(np.diag(d) == 0.0)

    def test_identical_rows_give_exact_zero(self):
        x = np.array([[1.5, -2.0], [1.5, -2.0], [0.0, 0.0]])
        assert pairwise_distances(x)[0, 1] == 0.0

    def test_three_four_five(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == 5.0

    def test_accepts_dataset(self):
        ds = LabeledDataset(FOUR_POINTS, ("a", "a", "b", "b"))
        assert np.array_equal(pairwise_distances(ds), pairwise_distances(FOUR_POINTS))

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_dataset(rng, n=int(rng.integers(4, 12)))
            d = pairwise_distances(x)
            n = d.shape[0]
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            assert np.all(d >= 0.0)
            scale = d.max() + 1.0
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12 * scale

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        x = random_dataset(rng, n=9)
        perm = rng.permutation(9)
        d = pairwise_distances(x)
        dp = pairwise_distances(x[perm])
        assert np.array_equal(dp, d[np.ix_(perm, perm)])
        a = u_center(d)
        ap = u_center(dp)
        ref = a[np.ix_(perm, perm)]
        assert np.abs(ap - ref).max() <= 1e-12 * (np.abs(a).max() + 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        x = random_dataset(rng, n=8, p=6)
        shift = rng.standard_normal(6) * 10
        d0 = pairwise_distances(x)
        d1 = pairwise_distances(x + shift)
        assert np.abs(d1 - d0).max() <= 1e-12 * d0.max()

    def test_high_dim_tree_path_matches_reference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 1100))
        d = pairwise_distances(x)
        ref = pairwise_distances(x[:, :1024])
        # recompute reference over the full width with the narrow-path code
        from scipy.spatial.distance import pdist, squareform

        full = squareform(pdist(x))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.abs(d - full).max() <= 1e-9 * full.max()
        assert ref.shape == (12, 12)


    @pytest.mark.parametrize(
        "shape", [(2, 1025), (3, 4097), (37, 1100), (300, 2000), (5, 70000)]
    )
    def test_tree_path_is_bit_identical_to_row_loop(self, shape):
        # (5, 70000) makes each tile a single row
        x = np.random.default_rng(sum(shape)).standard_normal(shape) * 3.0
        d = pairwise_distances(x)
        for i in range(shape[0]):
            assert np.array_equal(d[i], np.sqrt(((x[i] - x) ** 2).sum(axis=1)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_tree_path_allocates_no_n_squared_temporary(self):
        x = np.random.default_rng(9).standard_normal((300, 2000))
        tracemalloc.start()
        try:
            pairwise_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result itself is 0.72 MB, one tile 0.5 MB
        assert peak < 4 << 20

    @pytest.mark.parametrize("p", [1, 1025])
    def test_matrix_over_budget_is_refused_before_allocating(self, p):
        x = np.zeros((11586, p))
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="11586 rows"):
                pairwise_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestThreadedDistances:
    """Above 1024 coordinates the rows of the triangle are dealt out to
    threads; the matrix must not depend on how many."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        p=st.integers(1025, 1100),
        threads=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_do_not_depend_on_the_thread_count(self, n, p, threads, seed):
        x = np.random.default_rng(seed).standard_normal((n, p))
        # four cores, so the cap leaves the 3- and 4-way splits on any host
        with mock.patch.object(distmat, "_usable_cores", return_value=4):
            assert np.array_equal(pairwise_distances(x, threads),
                                  pairwise_distances(x, 1))

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("p", [3, 1025])
    def test_fewer_than_one_thread_is_refused(self, threads, p):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            pairwise_distances(np.ones((4, p)), threads)

    @pytest.mark.parametrize(
        "n, p, threads, cores, workers",
        [
            (30, 1025, 1, 8, None),  # one thread runs in the caller
            (2, 1025, 4, 8, None),  # one row to fill
            (3, 1025, 4, 8, 2),  # capped by n - 1
            (30, 1025, 4, 2, 2),  # capped by the cores
            (30, 1025, 4, 1, None),  # one usable core
            (30, 1025, 3, 8, 3),
            (30, 1024, 4, 8, None),  # pdist's branch
        ],
    )
    def test_threads_are_capped_by_rows_and_cores(
        self, monkeypatch, n, p, threads, cores, workers
    ):
        pools, submitted = [], []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, *args):
                submitted.append(fn)
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(distmat, "_usable_cores", lambda: cores)
        pairwise_distances(np.zeros((n, p)), threads)
        assert pools == ([] if workers is None else [workers])
        assert len(submitted) == (workers or 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_traced_peak_is_the_matrix_and_one_tile_per_thread(
        self, monkeypatch, threads
    ):
        n = 300
        x = np.random.default_rng(9).standard_normal((n, 2000))
        monkeypatch.setattr(distmat, "_usable_cores", lambda: 2)
        tracemalloc.start()
        try:
            pairwise_distances(x, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each thread holds a tile of at most 2**16 doubles (512 KB) and the
        # broadcasting subtract's iterator buffer, np.getbufsize() doubles
        per_thread = 8 * ((1 << 16) + np.getbufsize())
        assert peak < 8 * n * n + threads * per_thread + (32 << 10)


class TestUCenter:
    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = pairwise_distances(random_dataset(rng))
            a = u_center(d)
            budget = 1e-9 * np.abs(a).sum() + 1e-12
            assert np.abs(a.sum(axis=1)).max() <= budget
            assert np.abs(a.sum(axis=0)).max() <= budget

    def test_zero_matrix_centers_to_zero(self):
        a = u_center(np.zeros((5, 5)))
        assert np.all(a == 0.0)

    def test_matches_direct_formula_on_four_points(self):
        d = pairwise_distances(FOUR_POINTS)
        a = u_center(d)
        ref = u_center_by_formula(d)
        assert np.abs(a - ref).max() <= 1e-12

    def test_matches_direct_formula_random(self):
        rng = np.random.default_rng(8)
        d = pairwise_distances(random_dataset(rng, n=9, p=3))
        assert np.abs(u_center(d) - u_center_by_formula(d)).max() <= 1e-12

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            u_center(np.zeros((3, 3)))


class TestGroupGmdInputs:
    """The inputs of the group GMDs that ``gini_estimates`` forms: the pooled
    pair sum and the class pair sums of ``_block_pair_sums``."""

    def test_hand_example(self):
        ds = LabeledDataset(FOUR_POINTS, ("a", "a", "b", "b"))
        d, gi = pairwise_distances(ds), group_index(ds)
        assert _block_pair_sums(d, gi.codes, gi.k).tolist() == [2.0, 2.0]
        est = gini_estimates(d, gi)
        assert est.delta_hat == 10.0 / 6
        assert est.delta_k_hat.tolist() == [2.0, 2.0]

    def test_all_identical(self):
        ds = LabeledDataset(np.ones((4, 2)), ("a", "a", "b", "b"))
        d, gi = pairwise_distances(ds), group_index(ds)
        assert _block_pair_sums(d, gi.codes, gi.k).tolist() == [0.0, 0.0]
        assert gini_estimates(d, gi).delta_hat == 0.0

    def test_single_class_covers_pool(self):
        d = pairwise_distances(FOUR_POINTS)
        assert _block_pair_sums(d, np.zeros(4, np.intp), 1).tolist() == [
            d.sum() / 2.0
        ]

    def test_size_mismatch(self):
        ds = LabeledDataset(FOUR_POINTS, ("a", "a", "b", "b"))
        with pytest.raises(ValueError, match="does not match index n=4"):
            gini_estimates(np.zeros((5, 5)), group_index(ds))


class TestClassPairSums:
    def test_each_labelling_matches_block_sums(self):
        # up to 12 classes (both summation paths) and from 1 to 8 labellings
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 13))
            d = pairwise_distances(random_dataset(rng))
            labelings = rng.integers(0, k, (int(rng.integers(1, 9)), d.shape[0]))
            sums, totals = class_sums(d, d.sum(axis=1), labelings, k)
            assert sums.shape == totals.shape == (labelings.shape[0], k)
            for lab, row in zip(labelings, sums):
                for c in range(k):
                    ix = np.flatnonzero(lab == c)
                    ref = d[np.ix_(ix, ix)].sum() / 2.0
                    assert abs(row[c] - ref) <= 1e-12 * max(1.0, d.sum())

    def test_single_labelling_sums_each_block_pairwise(self):
        # the normal test's z needs the block sums exactly as numpy forms them
        rng = np.random.default_rng(18)
        d = pairwise_distances(random_dataset(rng))
        lab = rng.integers(0, 3, d.shape[0])
        ref = [d[np.ix_(ix, ix)].sum() / 2.0
               for ix in (np.flatnonzero(lab == c) for c in range(3))]
        assert _block_pair_sums(d, lab, 3).tolist() == ref

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 300),
        k=st.integers(1, 12),
        m=st.integers(1, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_agrees_with_block_sums(self, n, k, m, seed):
        # on both sides of _ONEHOT_MAX_K the pair sums may differ from each
        # labelling's pairwise block sums only in the last bits, and the class
        # totals are bincount's row-ordered sums, bit for bit
        rng = np.random.default_rng(seed)
        d = pairwise_distances(rng.standard_normal((n, int(rng.integers(1, 30)))))
        row_sums = d.sum(axis=1)
        labelings = rng.integers(0, k, (m, n))
        product, totals = class_sums(d, row_sums, labelings, k)
        blocks = np.vstack([_block_pair_sums(d, lab, k) for lab in labelings])
        ulp = np.spacing(d.sum() / 2.0)
        assert np.abs(product - blocks).max() <= 8 * ulp
        assert np.array_equal(
            totals, np.vstack([np.bincount(lab, row_sums, k) for lab in labelings])
        )

    def test_product_runs_on_one_thread_and_leaves_the_count_at_one(self):
        threads = distmat._openblas_threads()
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS is not found; no pinning")
        get, set_ = threads
        seen = []

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                seen.append(get())
                if len(seen) > 2:
                    raise MemoryError("third product")
                return np.asarray(self) @ other

        rng = np.random.default_rng(19)
        d = pairwise_distances(random_dataset(rng, n=30)).view(CountingMatrix)
        labelings = rng.integers(0, 3, (5, 30))
        before = get()
        try:
            set_(2)
            class_sums(d, d.sum(axis=1), labelings, 3)
            assert get() == 1
            # a caller that raises the count again gets one thread again,
            # also for a product that raises
            set_(2)
            class_sums(d, d.sum(axis=1), labelings, 3)
            assert get() == 1
            set_(2)
            with pytest.raises(MemoryError):
                class_sums(d, d.sum(axis=1), labelings, 3)
            assert get() == 1
        finally:
            set_(before)
        assert seen == [1, 1, 1]
        assert distmat.kernel_blas_threads() == 1

    def test_unpinned_fallback_gives_the_same_sums(self, monkeypatch):
        rng = np.random.default_rng(20)
        d = pairwise_distances(random_dataset(rng, n=30))
        labelings = rng.integers(0, 3, (5, 30))
        pinned = class_sums(d, d.sum(axis=1), labelings, 3)
        monkeypatch.setattr(distmat, "_openblas_threads", lambda: None)
        assert distmat.kernel_blas_threads() is None
        unpinned = class_sums(d, d.sum(axis=1), labelings, 3)
        ulp = np.spacing(d.sum() / 2.0)
        assert np.abs(unpinned[0] - pinned[0]).max() <= 8 * ulp
        assert np.array_equal(unpinned[1], pinned[1])
