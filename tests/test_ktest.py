import math

import numpy as np
import pytest

import ginicov.ktest
from ginicov import (
    LabeledDataset,
    ScenarioSpec,
    TinyClassError,
    gini_normal_test,
    group_index,
    normal_cdf,
    normal_quantile,
    pairwise_distances,
    permutation_test,
    scenario_dataset,
    u_center,
)
from ginicov.distmat import class_pair_sums
from ginicov.ktest import _perm_test_from_distance
from ginicov.streams import substream

# values from a 50-digit erfc evaluation, truncated to double precision
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


class TestNormalCdfQuantile:
    def test_cdf_against_oracle(self):
        for x, ref in CDF_ORACLE:
            assert abs(normal_cdf(x) - ref) <= 1e-12

    def test_cdf_symmetry(self):
        for x in (0.1, 0.7, 1.3, 2.9, 5.5):
            assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-14

    def test_quantile_frozen_value(self):
        assert abs(normal_quantile(0.95) - 1.6448536269514722) <= 1e-10

    def test_round_trip(self):
        for q in (0.001, 0.01, 0.2, 0.5, 0.8, 0.975, 0.999):
            assert abs(normal_cdf(normal_quantile(q)) - q) <= 1e-12

    def test_domain(self):
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(q)


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
            assert res.reject == (res.z > normal_quantile(1.0 - 0.1))

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


class TestPermutationTest:
    def test_identical_points_p_one(self):
        ds = LabeledDataset(np.ones((6, 2)), ("a",) * 3 + ("b",) * 3)
        res = permutation_test(ds, "gini", permutations=25, seed=9)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        ds = two_class_dataset(rng, shift=0.4)
        a = permutation_test(ds, "gini", permutations=99, seed=5)
        b = permutation_test(ds, "gini", permutations=99, seed=5)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic
        c = permutation_test(ds, "gini", permutations=99, seed=6)
        assert a.p_value != c.p_value or a.statistic == c.statistic

    def test_p_value_on_grid(self):
        rng = np.random.default_rng(24)
        for b in (9, 33):
            ds = two_class_dataset(rng)
            res = permutation_test(ds, "gini", permutations=b, seed=1)
            grid = [(k + 1) / (b + 1) for k in range(b + 1)]
            assert any(abs(res.p_value - g) < 1e-15 for g in grid)

    def test_invalid_b(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError):
            permutation_test(two_class_dataset(rng), "gini", permutations=0)

    def test_b_beyond_one_stream_word(self):
        # the batched streams hash b as one 32-bit word; the guard fires
        # before any labelling is allocated
        ds = two_class_dataset(np.random.default_rng(25))
        for b in (2**32, 2**40):
            with pytest.raises(ValueError, match=r"2\*\*32"):
                permutation_test(ds, "gini", permutations=b)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        ds = two_class_dataset(np.random.default_rng(29))
        for stat in ("gini", "dcov"):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                permutation_test(ds, stat, permutations=9, alpha=alpha)

    def test_unknown_statistic(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            permutation_test(two_class_dataset(rng), "energy")

    def test_reject_rule_and_metadata(self):
        rng = np.random.default_rng(27)
        ds = two_class_dataset(rng, shift=1.5)
        res = permutation_test(ds, "dcov", permutations=49, alpha=0.05, seed=11)
        assert res.method == "dcov-perm"
        assert res.permutations == 49
        assert res.seed == 11
        assert res.reject == (res.p_value <= 0.05)

    def test_p_value_validity_under_null(self):
        # exchangeable null: P(p <= a) must not exceed a beyond Monte Carlo
        # tolerance of two binomial standard errors
        reps = 2000
        hits = {0.01: 0, 0.05: 0, 0.1: 0}
        for r in range(reps):
            x = substream(2401, r).standard_normal((16, 3))
            ds = LabeledDataset(x, (0,) * 8 + (1,) * 8)
            res = permutation_test(ds, "gini", permutations=99, seed=r)
            for a in hits:
                hits[a] += res.p_value <= a
        for a, h in hits.items():
            bound = a + 2.0 * math.sqrt(a * (1 - a) / reps)
            assert h / reps <= bound, (a, h / reps, bound)

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
            a = permutation_test(ds, "gini", permutations=59, seed=s)
            b = permutation_test(ds_p, "gini", permutations=59, seed=s)
            # the observed statistic never depends on row order
            assert abs(a.statistic - b.statistic) <= 1e-12
            p_orig.append(a.p_value)
            p_perm.append(b.p_value)
        assert abs(float(np.mean(p_orig)) - float(np.mean(p_perm))) <= 0.05

    def test_dcov_needs_n_at_least_four(self):
        ds = LabeledDataset(np.array([[0.0], [1.0], [5.0]]), ("a", "a", "b"))
        with pytest.raises(TinyClassError):
            # class b has one member; the size gate fires first
            permutation_test(ds, "dcov", permutations=9)

    def test_engine_matches_reference_loop(self):
        # the batched engine sums in another order, so statistics agree to
        # a tolerance on the distance scale and p-values exactly; B + 1
        # straddles the engine's 128-labelling blocks, and the designs take
        # both of the kernel's summation paths (k <= 4 and k > 4)
        rng = np.random.default_rng(29)
        designs = [(10, 10), (15, 15, 15), (14, 9, 5), (30, 12, 6, 4),
                   (6, 5, 5, 4, 4), (4, 3, 3, 3, 3, 2, 2, 2)]
        for trial in range(18):
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
            ties = 0
            for b in range(1, permutations + 1):
                lab = codes[substream(trial, b).permutation(codes.size)]
                ties += all(np.unique(lab[codes == c]).size == 1 for c in range(3))
            floor = (1.0 + ties) / (permutations + 1.0)
            for statistic in ("gini", "dcov"):
                res = permutation_test(ds, statistic, permutations, seed=trial)
                assert res.p_value >= floor, (trial, statistic, ties)

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

    def test_kernel_never_gets_a_single_labelling(self, monkeypatch):
        # one labelling would take the kernel's other summation path, so the
        # observed value and its replicates would be summed differently
        shapes = []

        def recording(d, labelings, k):
            shapes.append(labelings.shape[0])
            return class_pair_sums(d, labelings, k)

        monkeypatch.setattr(ginicov.ktest, "class_pair_sums", recording)
        ds = two_class_dataset(np.random.default_rng(33))
        d, gi = pairwise_distances(ds), group_index(ds)
        for b in (1, 127, 128, 256, 999):
            shapes.clear()
            _perm_test_from_distance(d, gi, b, 0.05, 0)
            assert sum(shapes) == b + 1 and min(shapes) >= 2, (b, shapes)
            assert max(shapes) <= 128
