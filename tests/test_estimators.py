import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ginicov import (
    LabeledDataset,
    TooFewClassesError,
    gini_estimates,
    group_index,
    pairwise_distances,
    u_center,
)
from ginicov.estimators import _sigma0_sq
from ginicov.ktest import _perm_test_from_distance
from ginicov.streams import substream
from test_core import traced_peak

FOUR = LabeledDataset(np.array([[0.0], [2.0], [1.0], [3.0]]), ("a", "a", "b", "b"))


def dist(d, i, j):
    return d[i, j]


def u_stat(d, idx):
    """Plain-loop pair average, independent of the production summations."""
    pairs = list(combinations(idx, 2))
    return sum(d[i, j] for i, j in pairs) / len(pairs)


def class_rows(gi):
    """Ascending row indices of each class, in class order."""
    return [np.flatnonzero(gi.codes == c) for c in range(gi.k)]


def gcov_by_loops(d, gi):
    idx_all = list(range(gi.n))
    total = u_stat(d, idx_all)
    for ix, cnt in zip(class_rows(gi), gi.counts):
        total -= (int(cnt) / gi.n) * u_stat(d, list(ix))
    return total


def estimates(x, labels):
    """``gini_estimates`` of the sample ``x``, one row per label."""
    ds = LabeledDataset(np.reshape(x, (len(labels), -1)), labels)
    return gini_estimates(pairwise_distances(ds), group_index(ds))


class TestGmd:
    def test_two_points(self):
        est = estimates([0.0, 2.0, 1.0, 3.0], ("a", "a", "b", "b"))
        assert est.delta_k_hat.tolist() == [2.0, 2.0]

    def test_three_points(self):
        # class a is (0, 1, 3): pair distances 1, 3, 2; the pooled sample
        # (0, 1, 3, 10, 10) adds 10 + 9 + 7 twice each and 0, so its pair
        # sum is 58 over C(5, 2) pairs
        est = estimates([0.0, 1.0, 3.0, 10.0, 10.0], ("a", "a", "a", "b", "b"))
        assert est.delta_k_hat.tolist() == [2.0, 0.0]
        assert est.delta_hat == float(Fraction(58, 10))

    def test_identical_points(self):
        est = estimates([4.0] * 5 + [0.0, 1.0], ("a",) * 5 + ("b", "b"))
        assert est.delta_k_hat.tolist() == [0.0, 1.0]


class TestGiniCovCor:
    def test_hand_values(self):
        d = pairwise_distances(FOUR)
        gi = group_index(FOUR)
        est = gini_estimates(d, gi)
        assert abs(est.gcov - (-1.0 / 3.0)) <= 1e-12
        assert abs(est.gcor - (-0.2)) <= 1e-12

    def test_all_identical(self):
        ds = LabeledDataset(np.ones((6, 3)), ("a",) * 3 + ("b",) * 3)
        d = pairwise_distances(ds)
        gi = group_index(ds)
        est = gini_estimates(d, gi)
        assert est.gcov == 0.0
        assert est.gcor is None

    def test_single_class_gated(self):
        ds = LabeledDataset(np.arange(4.0).reshape(-1, 1), ("a",) * 4)
        with pytest.raises(TooFewClassesError):
            gini_estimates(pairwise_distances(ds), group_index(ds))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(4, 16))
            labels = tuple(int(v) for v in rng.integers(0, 2, n - 4)) + (0, 0, 1, 1)
            ds = LabeledDataset(rng.standard_normal((n, 3)), labels)
            d = pairwise_distances(ds)
            gi = group_index(ds)
            scale = abs(gcov_by_loops(d, gi)) + 1.0
            gcov = gini_estimates(d, gi).gcov
            assert abs(gcov - gcov_by_loops(d, gi)) <= 1e-12 * scale

    def test_gcor_monotone_toward_one(self):
        # two widely separated classes approach perfect correlation
        values = []
        for sep in (2.0, 10.0, 100.0):
            x = np.concatenate([np.linspace(0, 1, 5), np.linspace(sep, sep + 1, 5)])
            ds = LabeledDataset(x.reshape(-1, 1), ("a",) * 5 + ("b",) * 5)
            d = pairwise_distances(ds)
            gi = group_index(ds)
            got = gini_estimates(d, gi).gcor
            # brute-force oracle over all pairs
            ref = gcov_by_loops(d, gi) / u_stat(d, list(range(10)))
            assert abs(got - ref) <= 1e-12
            values.append(got)
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.9


class TestDistVariance:
    def test_all_identical(self):
        assert estimates(np.zeros(5), ("a", "a", "a", "b", "b")).v2n == 0.0

    def test_four_point_direct_formula(self):
        d = pairwise_distances(FOUR)
        a = u_center(d)
        n = 4
        ref = sum(
            a[k, l] ** 2 for k in range(n) for l in range(n) if k != l
        ) / (n * (n - 3))
        v2n = gini_estimates(d, group_index(FOUR)).v2n
        assert abs(v2n - ref) <= 1e-12
        assert abs(v2n - 2.0 / 3.0) <= 1e-12

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 4))
        labels = ("a",) * 4 + ("b",) * 4
        v1 = estimates(x, labels).v2n
        v2 = estimates(3.0 * x, labels).v2n
        assert abs(v2 - 9.0 * v1) <= 1e-12 * v2


class TestSigma0Sq:
    def test_two_by_two_bracket(self):
        gi = group_index(FOUR)
        assert abs(_sigma0_sq(gi, 1.0) - 1.0 / 3.0) <= 1e-15

    def test_zero_variance(self):
        assert _sigma0_sq(group_index(FOUR), 0.0) == 0.0

    def test_exact_rational_oracle(self):
        labels = (1,) * 40 + (2,) * 40 + (3,) * 40
        ds = LabeledDataset(np.arange(120.0).reshape(-1, 1), labels)
        gi = group_index(ds)
        bracket = sum(
            Fraction(nk, 120) ** 2 / Fraction(math.comb(nk, 2))
            for nk in (40, 40, 40)
        ) - Fraction(1, math.comb(120, 2))
        assert bracket == Fraction(3, 9 * 780) - Fraction(1, 7140)
        got = _sigma0_sq(gi, 1.0)
        assert abs(got - float(bracket)) <= 1e-12 * float(bracket)

    def test_unbalanced_rational_oracle(self):
        labels = (1,) * 7 + (2,) * 5 + (3,) * 2
        ds = LabeledDataset(np.arange(14.0).reshape(-1, 1), labels)
        gi = group_index(ds)
        bracket = sum(
            Fraction(nk, 14) ** 2 / Fraction(math.comb(nk, 2))
            for nk in (7, 5, 2)
        ) - Fraction(1, math.comb(14, 2))
        got = _sigma0_sq(gi, 2.5)
        ref = 2.5 * float(bracket)
        assert abs(got - ref) <= 1e-12 * ref


def engine_dcov(d, gi):
    """The dcov-perm statistic of the observed labelling, as the permutation
    engine computes it."""
    return _perm_test_from_distance(d, gi, 1, 0.05, 0)["dcov-perm"].statistic


class TestDcovStat:
    def test_all_identical(self):
        ds = LabeledDataset(np.ones((6, 2)), ("a",) * 3 + ("b",) * 3)
        assert engine_dcov(pairwise_distances(ds), group_index(ds)) == 0.0

    def test_direct_formula_oracle(self):
        # unbiased sample dCov: full cross sum of the two U-centered
        # matrices (numeric distances vs 0/1 label distances), by loops
        def ucenter_loops(mat):
            n = mat.shape[0]
            out = np.zeros_like(mat)
            total = mat.sum()
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    out[k, l] = (
                        mat[k, l]
                        - mat[:, l].sum() / (n - 2)
                        - mat[k, :].sum() / (n - 2)
                        + total / ((n - 1) * (n - 2))
                    )
            return out

        rng = np.random.default_rng(13)
        for labels in [("a", "a", "b", "b"), ("a", "a", "a", "b", "b", "c", "c")]:
            n = len(labels)
            ds = LabeledDataset(rng.standard_normal((n, 2)), labels)
            d = pairwise_distances(ds)
            gi = group_index(ds)
            a = ucenter_loops(d)
            b01 = np.array(
                [[0.0 if li == lj else 1.0 for lj in labels] for li in labels]
            )
            b = ucenter_loops(b01)
            ref = sum(
                a[i, j] * b[i, j] for i in range(n) for j in range(n) if i != j
            ) / (n * (n - 3))
            got = engine_dcov(d, gi)
            assert abs(got - ref) <= 1e-12 * (abs(ref) + 1.0)

    def test_four_point_frozen_value(self):
        # hand evaluation of the within-class-sum form gives -1/3
        d = pairwise_distances(FOUR)
        assert abs(engine_dcov(d, group_index(FOUR)) - (-1.0 / 3.0)) <= 1e-12

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((10, 3))
        a = LabeledDataset(x, ("u",) * 5 + ("v",) * 5)
        b = LabeledDataset(x, ("v",) * 5 + ("u",) * 5)
        assert engine_dcov(pairwise_distances(a), group_index(a)) == engine_dcov(
            pairwise_distances(b), group_index(b)
        )


class TestGiniEstimates:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            labels = tuple(int(v) for v in rng.integers(0, 3, n - 4)) + (0, 0, 1, 1)
            ds = LabeledDataset(rng.standard_normal((n, 4)), labels)
            gi = group_index(ds)
            est = gini_estimates(pairwise_distances(ds), gi)
            recon = est.delta_hat - float(
                np.dot(gi.counts / gi.n, est.delta_k_hat)
            )
            assert abs(est.gcov - recon) <= 1e-12 * (abs(recon) + 1.0)

    def test_fields_match_their_formulas(self):
        d = pairwise_distances(FOUR)
        before = d.copy()
        gi = group_index(FOUR)
        est = gini_estimates(d, gi)
        assert np.array_equal(d, before)
        a = u_center(d)
        assert est.v2n == float((a * a).sum()) / (4 * (4 - 3))
        assert est.sigma0_sq == _sigma0_sq(gi, est.v2n)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((12, 5))
        labels = ("a",) * 6 + ("b",) * 6
        base = gini_estimates(
            pairwise_distances(LabeledDataset(x, labels)),
            group_index(LabeledDataset(x, labels)),
        )
        c = 7.5
        ds = LabeledDataset(c * x, labels)
        scaled = gini_estimates(pairwise_distances(ds), group_index(ds))
        rel = 1e-12
        assert abs(scaled.delta_hat - c * base.delta_hat) <= rel * scaled.delta_hat
        assert np.all(
            np.abs(scaled.delta_k_hat - c * base.delta_k_hat)
            <= rel * np.abs(scaled.delta_k_hat)
        )
        assert abs(scaled.gcov - c * base.gcov) <= rel * abs(scaled.gcov)
        assert abs(scaled.v2n - c * c * base.v2n) <= rel * scaled.v2n
        assert abs(scaled.sigma0_sq - c * c * base.sigma0_sq) <= rel * scaled.sigma0_sq
        assert abs(scaled.gcor - base.gcor) <= rel * abs(base.gcor)


class TestNormalTestMemory:
    """The normal test holds one n x n array beside the distance matrix:
    U-centering writes one result array in place and the variance squares
    it in place."""

    @pytest.fixture(scope="class")
    def design(self):
        rng = np.random.default_rng(17)
        ds = LabeledDataset(
            rng.standard_normal((3000, 5)), tuple(i % 3 for i in range(3000))
        )
        return pairwise_distances(ds), group_index(ds)

    def test_gini_estimates_peak(self, design):
        d, gi = design
        _, peak = traced_peak(lambda: gini_estimates(d, gi))
        assert peak < 1.25 * d.nbytes

    def test_u_center_peak(self, design):
        d, _ = design
        _, peak = traced_peak(lambda: u_center(d))
        assert peak < 1.1 * d.nbytes


class TestNullRepresentation:
    """Sample-level Hoeffding decomposition with every term enumerated.

    Three centering conventions for the conditional-expectation proxy:

    * "pooled": proxy and centering constant both come from the pooled
      sample in every term (the double-centered null form).  The
      first-order terms cancel through the weighted coefficient identity
      and the second-order bracket alone reproduces the covariance.
    * "own": each term is centered by its own sample.  First-order sums
      vanish individually by construction and the covariance moves into
      the zeroth-order bracket.
    * "mixed": pooled proxy with class-own centering constants, the
      direct sample analog of the null argument.  The first-order bracket
      survives (it equals -2x the covariance) and cancels exactly only
      when the empirical class centers coincide with the pooled one.
    """

    @staticmethod
    def decompose(d, gi, mode):
        n = gi.n
        idx_all = list(range(n))
        g_hat = np.array(
            [sum(d[i, j] for j in idx_all if j != i) / (n - 1) for i in idx_all]
        )
        delta = u_stat(d, idx_all)
        pairs = list(combinations(idx_all, 2))
        p2 = sum(d[i, j] - g_hat[i] - g_hat[j] + delta for i, j in pairs) / len(pairs)
        p1 = (2.0 / n) * sum(g_hat[i] - delta for i in idx_all)
        bracket1 = delta
        bracket2 = p1
        bracket3 = p2
        class_first_order = []
        for ix, cnt in zip(class_rows(gi), gi.counts):
            cnt = int(cnt)
            w = cnt / n
            members = list(ix)
            if mode == "own":
                proxy = {
                    i: sum(d[i, j] for j in members if j != i) / (cnt - 1)
                    for i in members
                }
                center = u_stat(d, members)
            elif mode == "mixed":
                proxy = {i: g_hat[i] for i in members}
                center = u_stat(d, members)
            else:
                proxy = {i: g_hat[i] for i in members}
                center = delta
            cpairs = list(combinations(members, 2))
            c2 = sum(
                d[i, j] - proxy[i] - proxy[j] + center for i, j in cpairs
            ) / len(cpairs)
            c1 = (2.0 / cnt) * sum(proxy[i] - center for i in members)
            class_first_order.append(c1)
            bracket1 -= w * center
            bracket2 -= w * c1
            bracket3 -= w * c2
        return bracket1, bracket2, bracket3, class_first_order

    def test_pooled_centering_matches_double_centered_form(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(5, 9))
            labels = (0, 0, 1, 1) + tuple(int(v) for v in rng.integers(0, 2, n - 4))
            ds = LabeledDataset(rng.standard_normal((n, 2)), labels)
            d = pairwise_distances(ds)
            gi = group_index(ds)
            gcov = gini_estimates(d, gi).gcov
            b1, b2, b3, c1s = self.decompose(d, gi, "pooled")
            scale = abs(gcov) + 1.0
            assert abs(b1) <= 1e-12 * scale
            # the per-class first-order terms are individually nonzero ...
            assert max(abs(c) for c in c1s) > 1e-12 * scale
            # ... and cancel only through the weighted sum
            assert abs(b2) <= 1e-12 * scale
            assert abs(b3 - gcov) <= 1e-12 * scale
            assert abs((b1 + b2 + b3) - gcov) <= 1e-12 * scale

    def test_own_centering_moves_covariance_to_zeroth_order(self):
        ds = LabeledDataset(
            np.array([[0.0], [1.0], [5.0], [2.0], [8.0], [9.0], [3.0]]),
            (0, 0, 0, 1, 1, 1, 1),
        )
        d = pairwise_distances(ds)
        gi = group_index(ds)
        gcov = gini_estimates(d, gi).gcov
        b1, b2, b3, c1s = self.decompose(d, gi, "own")
        scale = abs(gcov) + 1.0
        # own-sample centering kills every first-order sum identically
        assert max(abs(c) for c in c1s) <= 1e-12 * scale
        assert abs(b2) <= 1e-12 * scale
        assert abs(b1 - gcov) <= 1e-12 * scale
        assert abs(b3) <= 1e-12 * scale
        assert abs((b1 + b2 + b3) - gcov) <= 1e-12 * scale

    def test_mixed_centering_survives_unless_centers_coincide(self):
        ds = LabeledDataset(
            np.array([[0.0], [1.0], [5.0], [2.0], [8.0], [9.0], [3.0]]),
            (0, 0, 0, 1, 1, 1, 1),
        )
        d = pairwise_distances(ds)
        gi = group_index(ds)
        gcov = gini_estimates(d, gi).gcov
        b1, b2, b3, _ = self.decompose(d, gi, "mixed")
        scale = abs(gcov) + 1.0
        assert abs((b1 + b2 + b3) - gcov) <= 1e-12 * scale
        # first-order bracket survives and equals -2x the covariance
        assert abs(b2 - (-2.0 * gcov)) <= 1e-12 * scale
        assert abs(b2) > 1e-3

    def test_mixed_centering_cancels_at_zero_covariance(self):
        # class GMDs equal the pooled GMD exactly for this configuration,
        # so the class centers coincide with the pooled one
        data = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.75], [1.0, 0.75]]
        )
        ds = LabeledDataset(data, (0, 0, 1, 1))
        d = pairwise_distances(ds)
        gi = group_index(ds)
        gcov = gini_estimates(d, gi).gcov
        assert gcov == 0.0
        b1, b2, b3, _ = self.decompose(d, gi, "mixed")
        assert abs(b2) <= 1e-12
        assert abs((b1 + b2 + b3) - gcov) <= 1e-12


class TestGmdCalibration:
    def test_standard_normal_mean(self):
        # population GMD of N(0, 1) is 2/sqrt(pi): E|X - X'| with
        # X - X' ~ N(0, 2)
        target = 2.0 / math.sqrt(math.pi)
        vals = []
        for r in range(100):
            x = substream(1818, r).standard_normal((500, 1))
            d = pairwise_distances(x)
            vals.append(float(d.sum()) / 2.0 / math.comb(500, 2))
        assert abs(float(np.mean(vals)) - target) <= 0.015
