import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

import ginicov.distmat
import ginicov.ktest
import ginicov.streams
from ginicov import (
    LabeledDataset,
    ScenarioSpec,
    TinyClassError,
    gini_estimates,
    gini_normal_test,
    group_index,
    pairwise_distances,
    permutation_test,
    scenario_dataset,
    u_center,
)
from ginicov.distmat import class_sums
from ginicov.ktest import _normal_test_from_distance, _perm_test_from_distance
from ginicov.streams import labellings, substream
from test_core import traced_peak

# Phi(x) from a 50-digit erfc evaluation, truncated to double precision; it
# is the normal test's upper-tail p-value at z = -x
CDF_ORACLE = [
    (-8.0, 6.220960574271784e-16),
    (-5.0, 2.866515718791939e-07),
    (-2.5, 0.006209665325776135),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.3, 0.6179114221889526),
    (1.0, 0.8413447460685429),
    (2.0, 0.9772498680518208),
    (4.0, 0.9999683287581669),
    (8.0, 0.9999999999999994),
]


def two_class_dataset(rng, n1=10, n2=10, p=3, shift=0.0):
    x = rng.standard_normal((n1 + n2, p))
    x[n1:] += shift
    return LabeledDataset(x, ("a",) * n1 + ("b",) * n2)


def shifted_dataset(rng, sizes, p, shift):
    """Class c is shifted by ``c * shift`` in every coordinate."""
    codes = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.standard_normal((codes.size, p)) + shift * codes[:, None]
    return LabeledDataset(x, tuple(int(c) for c in codes))


def reference_perm_test(d, gi, statistic, permutations, seed):
    """Per-replicate loop: relabel through the inverse permutation and sum
    each class block of the (U-centered, for dcov) matrix with np.ix_.

    Returns ``(t_obs, p_value)`` with the exact ``>=`` count.
    """
    n = gi.n
    mat = u_center(d) if statistic == "dcov" else d
    u_pool = d.sum() / 2.0 / math.comb(n, 2)

    def evaluate(indices):
        sums = [mat[np.ix_(ix, ix)].sum() / 2.0 for ix in indices]
        if statistic == "dcov":
            return -2.0 * sum(sums) / (n * (n - 3))
        weighted = 0.0
        for ix, s in zip(indices, sums):
            weighted += (ix.size / n) * (s / math.comb(ix.size, 2))
        return u_pool - weighted

    classes = [np.flatnonzero(gi.codes == c) for c in range(gi.k)]
    t_obs = evaluate(classes)
    arange = np.arange(n)
    inv = np.empty(n, dtype=np.intp)
    n_ge = 0
    for b in range(1, permutations + 1):
        perm = substream(seed, b).permutation(n)
        inv[perm] = arange
        n_ge += evaluate([inv[ix] for ix in classes]) >= t_obs
    return t_obs, (1.0 + n_ge) / (permutations + 1.0)


class TestNormalUpperTail:
    @staticmethod
    def p_value_at(monkeypatch, z):
        """gini-normal's p-value on a small dataset whose estimates are
        replaced by gcov = z and sigma0^2 = 1, so its z is exactly z."""
        monkeypatch.setattr(
            ginicov.ktest, "gini_estimates",
            lambda d, gi: dataclasses.replace(gini_estimates(d, gi), gcov=z, sigma0_sq=1.0),
        )
        res = gini_normal_test(two_class_dataset(np.random.default_rng(0)))
        assert res.z == z
        return res.p_value

    @pytest.mark.parametrize("z", [3.0, 6.0, 8.3, 10.0])
    def test_p_value_keeps_its_relative_accuracy_in_the_tail(self, monkeypatch, z):
        ref = float(ndtr(-z))
        assert abs(self.p_value_at(monkeypatch, z) - ref) <= 1e-13 * ref

    def test_p_value_against_oracle(self, monkeypatch):
        for x, ref in CDF_ORACLE:
            assert abs(self.p_value_at(monkeypatch, -x) - ref) <= 1e-13 * ref


class TestUnbalancedNullCalibration:
    @pytest.mark.parametrize(
        "sizes, seed", [((72, 36, 12), 1672), ((50, 40, 30), 1650)]
    )
    def test_variance_and_size_on_the_unbalanced_null(self, sizes, seed):
        # the null variance estimate and the normal test's level hold when
        # the classes are far from equal in size (criterion 8 is balanced)
        spec = ScenarioSpec(example=2, p=100, sizes=sizes, seed=seed)
        gcovs, sig2s, rejects = [], [], 0
        for r in range(400):
            ds = scenario_dataset(spec, r)
            d, gi = pairwise_distances(ds), group_index(ds)
            est = gini_estimates(d, gi)
            gcovs.append(est.gcov)
            sig2s.append(est.sigma0_sq)
            rejects += _normal_test_from_distance(d, gi, 0.05).reject
        ratio = float(np.var(gcovs, ddof=1) / np.mean(sig2s))
        assert 0.75 <= ratio <= 1.25, ratio
        assert 0.02 <= rejects / 400 <= 0.10, rejects


class TestGiniNormalTest:
    def test_zero_statistic_gives_half(self):
        # class GMDs match the pooled GMD exactly, so the statistic is an
        # exact floating zero while the variance stays positive
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.75], [1.0, 0.75]])
        res = gini_normal_test(LabeledDataset(data, (0, 0, 1, 1)))
        assert res.statistic == 0.0
        assert res.z == 0.0
        assert res.p_value == 0.5
        assert not res.degenerate

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 3.7, 1e6])
    @pytest.mark.parametrize("n", [5, 6, 9, 11, 16, 25, 40])
    def test_degenerate_equidistant(self, n, scale):
        # one-hot rows are pairwise equidistant, so the U-centered matrix
        # vanishes in exact arithmetic and sigma0 is rounding noise; the
        # permutation statistics are rounding noise too, and flagged so
        labels = tuple(("ab" * n)[:n])
        ds = LabeledDataset(scale * np.eye(n), labels)
        res = gini_normal_test(ds)
        assert res.degenerate and res.z is None
        assert res.p_value == 1.0 and not res.reject
        for perm in permutation_test(ds, permutations=19, alpha=0.5, seed=n).values():
            assert perm.degenerate
            assert perm.p_value == 1.0 and not perm.reject
        # one distance off the pooled mean is not degenerate
        x = scale * np.eye(n)
        x[0, 0] *= 1.5
        spread = LabeledDataset(x, labels)
        for perm in permutation_test(spread, permutations=19).values():
            assert not perm.degenerate

    def test_degenerate_all_identical(self):
        ds = LabeledDataset(np.ones((8, 2)), ("a",) * 4 + ("b",) * 4)
        res = gini_normal_test(ds)
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.z is None
        assert not res.reject

    def test_scale_invariance_of_z(self):
        rng = np.random.default_rng(21)
        ds = two_class_dataset(rng, p=5, shift=0.3)
        base = gini_normal_test(ds)
        scaled = gini_normal_test(LabeledDataset(123.456 * np.asarray(ds.data), ds.labels))
        assert abs(scaled.z - base.z) <= 1e-10 * abs(base.z)
        assert abs(scaled.p_value - base.p_value) <= 1e-10

    def test_tiny_class_propagates(self):
        ds = LabeledDataset(np.arange(10.0).reshape(-1, 1), ("a",) * 9 + ("b",))
        with pytest.raises(TinyClassError):
            gini_normal_test(ds)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        ds = two_class_dataset(np.random.default_rng(28))
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            gini_normal_test(ds, alpha=alpha)

    def test_reject_matches_p_value_rule(self):
        rng = np.random.default_rng(22)
        for shift in (0.0, 0.5, 2.0):
            ds = two_class_dataset(rng, p=4, shift=shift)
            res = gini_normal_test(ds, alpha=0.1)
            assert res.reject == (res.p_value < 0.1)
            # 1.2815515655446004 is the standard normal 0.9 quantile
            assert res.reject == (res.z > 1.2815515655446004)

    def test_null_size_two_classes(self):
        # K=2 null at n=(40,40), p=200: rejection rate stays near nominal
        rejections = 0
        reps = 1000
        for r in range(reps):
            x = np.vstack(
                [
                    substream(2301, r, 1).standard_normal((40, 200)),
                    substream(2301, r, 2).standard_normal((40, 200)),
                ]
            )
            ds = LabeledDataset(x, (0,) * 40 + (1,) * 40)
            rejections += gini_normal_test(ds, alpha=0.05).reject
        assert 0.03 <= rejections / reps <= 0.08

    def test_monotone_power_in_sample_size(self):
        # strong alternative: power grows with per-class size and tops 0.95
        rates = []
        for n_k in (30, 60, 120):
            spec = ScenarioSpec(
                example=2, p=200, sizes=(n_k,) * 3, beta=0.8, seed=2302
            )
            hits = 0
            reps = 150
            for r in range(reps):
                hits += gini_normal_test(scenario_dataset(spec, r)).reject
            rates.append(hits / reps)
        assert rates[1] >= rates[0] - 0.03
        assert rates[2] >= rates[1] - 0.03
        assert rates[2] >= 0.95


class TestArgumentsBeforeDistances:
    @pytest.mark.parametrize(
        "call",
        [
            lambda ds: gini_normal_test(ds, alpha=1.5),
            lambda ds: permutation_test(ds, alpha=0),
            lambda ds: permutation_test(ds, permutations=0),
            lambda ds: permutation_test(ds, permutations=2**32),
        ],
        ids=["normal-alpha", "perm-alpha", "perm-b-zero", "perm-b-word"],
    )
    def test_refused_before_the_distance_matrix(self, monkeypatch, call):
        def no_distances(ds):
            raise AssertionError("distances computed before the arguments")

        monkeypatch.setattr(ginicov.ktest, "pairwise_distances", no_distances)
        with pytest.raises(ValueError):
            call(two_class_dataset(np.random.default_rng(36)))


class TestPermutationTest:
    def test_identical_points_p_one(self):
        ds = LabeledDataset(np.ones((6, 2)), ("a",) * 3 + ("b",) * 3)
        for res in permutation_test(ds, permutations=25, alpha=0.5, seed=9).values():
            assert res.statistic == 0.0
            assert res.p_value == 1.0 and not res.reject
            assert res.degenerate

    def test_overflowing_distances_are_degenerate(self):
        # finite data whose distances overflow to inf leave every statistic
        # NaN: no rejection, as the normal test reports for the same data
        x = np.array([1e200, -1e200, 3e199, 1.0, 2.0, -5e199, 7e199, 0.5])[:, None]
        ds = LabeledDataset(x, ("a",) * 4 + ("b",) * 4)
        with np.errstate(invalid="ignore", over="ignore"):
            assert gini_normal_test(ds).degenerate
            results = permutation_test(ds, permutations=99, seed=1)
        for res in results.values():
            assert res.degenerate
            assert res.p_value == 1.0 and not res.reject

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        ds = two_class_dataset(rng, shift=0.4)
        a = permutation_test(ds, permutations=99, seed=5)
        assert permutation_test(ds, permutations=99, seed=5) == a
        c = permutation_test(ds, permutations=99, seed=6)
        for m in a:
            assert a[m].p_value != c[m].p_value or a[m].statistic == c[m].statistic

    def test_p_value_on_grid(self):
        rng = np.random.default_rng(24)
        for b in (9, 33):
            ds = two_class_dataset(rng)
            grid = [(k + 1) / (b + 1) for k in range(b + 1)]
            for res in permutation_test(ds, permutations=b, seed=1).values():
                assert any(abs(res.p_value - g) < 1e-15 for g in grid)

    def test_b_beyond_one_stream_word(self):
        # the batched streams hash b as one 32-bit word; the guard fires
        # before any labelling is allocated
        ds = two_class_dataset(np.random.default_rng(25))
        for b in (2**32, 2**40):
            with pytest.raises(ValueError, match=r"2\*\*32"):
                permutation_test(ds, permutations=b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        ds = two_class_dataset(np.random.default_rng(29))
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            permutation_test(ds, permutations=9, alpha=alpha)

    def test_reject_rule_and_metadata(self):
        rng = np.random.default_rng(27)
        ds = two_class_dataset(rng, shift=1.5)
        results = permutation_test(ds, permutations=49, alpha=0.05, seed=11)
        assert list(results) == ["gini-perm", "dcov-perm"]
        for method, res in results.items():
            assert res.method == method
            assert not res.degenerate
            assert res.permutations == 49
            assert res.seed == 11
            assert res.reject == (res.p_value <= 0.05)

    def test_p_value_validity_under_null(self):
        # exchangeable null: P(p <= a) must not exceed a beyond Monte Carlo
        # tolerance of two binomial standard errors
        reps = 2000
        hits = {(m, a): 0 for m in ("gini-perm", "dcov-perm")
                for a in (0.01, 0.05, 0.1)}
        for r in range(reps):
            x = substream(2401, r).standard_normal((16, 3))
            ds = LabeledDataset(x, (0,) * 8 + (1,) * 8)
            results = permutation_test(ds, permutations=99, seed=r)
            for m, a in hits:
                hits[m, a] += results[m].p_value <= a
        for (m, a), h in hits.items():
            bound = a + 2.0 * math.sqrt(a * (1 - a) / reps)
            assert h / reps <= bound, (m, a, h / reps, bound)

    def test_row_permutation_leaves_p_distribution_unchanged(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((24, 4))
        x[12:] += 0.35
        labels = (0,) * 12 + (1,) * 12
        perm = rng.permutation(24)
        ds = LabeledDataset(x, labels)
        ds_p = LabeledDataset(x[perm], tuple(labels[i] for i in perm))
        p_orig, p_perm = [], []
        for s in range(400):
            a = permutation_test(ds, permutations=59, seed=s)["gini-perm"]
            b = permutation_test(ds_p, permutations=59, seed=s)["gini-perm"]
            # the observed statistic never depends on row order
            assert abs(a.statistic - b.statistic) <= 1e-12
            p_orig.append(a.p_value)
            p_perm.append(b.p_value)
        assert abs(float(np.mean(p_orig)) - float(np.mean(p_perm))) <= 0.05

    def test_dcov_needs_n_at_least_four(self):
        ds = LabeledDataset(np.array([[0.0], [1.0], [5.0]]), ("a", "a", "b"))
        with pytest.raises(TinyClassError):
            # class b has one member; the size gate fires first
            permutation_test(ds, permutations=9)

    def test_engine_matches_reference_loop(self):
        # the batched engine sums in another order, so statistics agree to
        # a tolerance on the distance scale and p-values exactly; B + 1
        # straddles the engine's 128-labelling blocks, and the designs take
        # both of the kernel's summation paths (k <= 8 and k > 8)
        rng = np.random.default_rng(29)
        designs = [(10, 10), (15, 15, 15), (14, 9, 5), (30, 12, 6, 4),
                   (6, 5, 5, 4, 4), (4, 3, 3, 3, 3, 2, 2, 2),
                   (4, 3, 3, 3, 3, 3, 2, 2, 2)]
        for trial in range(21):
            sizes = designs[trial % len(designs)]
            b = (127, 128, 257)[trial % 3]
            ds = shifted_dataset(rng, sizes, p=5, shift=0.15)
            d, gi = pairwise_distances(ds), group_index(ds)
            scale = d.sum() / (gi.n * (gi.n - 1))
            results = _perm_test_from_distance(d, gi, b, 0.05, trial)
            for statistic in ("gini", "dcov"):
                t_ref, p_ref = reference_perm_test(d, gi, statistic, b, trial)
                res = results[f"{statistic}-perm"]
                assert abs(res.statistic - t_ref) <= 1e-12 * scale
                assert res.p_value == p_ref, (sizes, trial, statistic)

    def test_tied_replicates_are_counted(self):
        # with well-separated classes only the replicates that reproduce the
        # observed partition reach the observed value; they tie it exactly,
        # so the p-value is at least (1 + #ties) / (B + 1)
        rng = np.random.default_rng(31)
        permutations = 999
        for trial in range(60):
            ds = shifted_dataset(rng, (3, 3, 3), p=4, shift=10.0)
            codes = group_index(ds).codes
            # the replicates, row for row codes[substream(trial, b).permutation(n)]
            reps = np.vstack(list(labellings(trial, codes, permutations)))[1:]
            # a replicate ties when each class keeps a single label
            ties = int(np.all(
                [np.ptp(reps[:, codes == c], axis=1) == 0 for c in range(3)], axis=0
            ).sum())
            floor = (1.0 + ties) / (permutations + 1.0)
            for res in permutation_test(ds, permutations, seed=trial).values():
                assert res.p_value >= floor, (trial, res.method, ties)

    def test_equal_class_sizes_give_equal_p_values(self):
        # with equal sizes both statistics are decreasing affine functions
        # of the total within-class pair sum, so they rank replicates alike
        rng = np.random.default_rng(32)
        for trial in range(40):
            sizes = ((8, 8), (6, 6, 6), (5, 5, 5, 5), (4, 4, 4, 4, 4))[trial % 4]
            ds = shifted_dataset(rng, sizes, p=3, shift=0.2)
            res = _perm_test_from_distance(
                pairwise_distances(ds), group_index(ds), 99, 0.05, trial
            )
            assert res["gini-perm"].p_value == res["dcov-perm"].p_value

    def test_blocks_are_slices_of_the_stream_order(self, monkeypatch):
        # pins the engine's blocking: full blocks of _BLOCK labellings in
        # stream order, the last one holding the rest, and the observed
        # labelling summed in the same product as its first replicates
        block, keys = ginicov.streams._BLOCK, ginicov.streams._KEYS
        assert keys % block == 0
        shapes = []

        def recording(d, labelings, k):
            shapes.append(labelings.shape[0])
            return class_sums(d, labelings, k)

        monkeypatch.setattr(ginicov.ktest, "class_sums", recording)
        ds = two_class_dataset(np.random.default_rng(33))
        d, gi = pairwise_distances(ds), group_index(ds)
        for b in (1, 127, 128, 129, 999, keys - 1, keys, keys + 64):
            shapes.clear()
            _perm_test_from_distance(d, gi, b, 0.05, 0)
            assert sum(shapes) == b + 1, (b, shapes)
            assert all(m == block for m in shapes[:-1]), (b, shapes)
            assert shapes[0] == 1 + min(b, block - 1), (b, shapes)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1])
    def test_labellings_follow_the_streams_across_blocks_and_key_chunks(
        self, monkeypatch, seed
    ):
        labellings = []

        def recording(d, labelings, k):
            labellings.append(labelings.copy())
            return class_sums(d, labelings, k)

        monkeypatch.setattr(ginicov.ktest, "class_sums", recording)
        ds = two_class_dataset(np.random.default_rng(34), n1=5, n2=4)
        d, gi = pairwise_distances(ds), group_index(ds)
        # the last two B span two key chunks; at B = _KEYS the second holds
        # one stream, a one-row block
        keys = ginicov.streams._KEYS
        expected = np.vstack(
            [gi.codes] + [gi.codes[substream(seed, b).permutation(gi.n)]
                          for b in range(1, keys + 65)]
        )
        for b in (1, 127, 128, 129, 999, keys - 1, keys, keys + 64):
            labellings.clear()
            _perm_test_from_distance(d, gi, b, 0.05, seed)
            assert np.array_equal(np.vstack(labellings), expected[: b + 1]), b

    def test_one_hot_cut_changes_no_p_value(self, monkeypatch):
        # K = 5..8 runs through the class-block gathers with the cut at 4 and
        # through the one-hot product with it at 8: the sums differ in the
        # last bits, which only a replicate tying the observed value could feel
        rng = np.random.default_rng(36)
        for trial in range(16):
            k = 5 + trial % 4
            sizes = tuple(int(s) for s in rng.integers(3, 12, size=k))
            ds = shifted_dataset(rng, sizes, p=6, shift=(0.0, 0.1)[trial % 2])
            d, gi = pairwise_distances(ds), group_index(ds)
            scale = d.sum() / (gi.n * (gi.n - 1))
            results = {}
            for cut in (4, 8):
                monkeypatch.setattr(ginicov.distmat, "_ONEHOT_MAX_K", cut)
                results[cut] = _perm_test_from_distance(d, gi, 199, 0.05, trial)
            for method, res in results[8].items():
                old = results[4][method]
                assert res.p_value == old.p_value, (sizes, trial, method)
                assert abs(res.statistic - old.statistic) <= 1e-12 * scale

    def test_traced_peak_does_not_grow_with_permutations(self):
        # the engine keeps running counts, not every replicate's statistics
        ds = two_class_dataset(np.random.default_rng(35), n1=6, n2=6)
        d, gi = pairwise_distances(ds), group_index(ds)
        peaks = [
            traced_peak(lambda: _perm_test_from_distance(d, gi, b, 0.05, 0))[1]
            for b in (1999, 19999)
        ]
        assert peaks[1] < 1.25 * peaks[0], peaks
