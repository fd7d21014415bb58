"""Property tests of the estimators' algebraic invariants over random labelled
samples: label renaming, row order, the GMD reconstruction of the Gini
covariance and the range of permutation p-values."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ginicov import (
    GiniEstimates,
    LabeledDataset,
    dcov_stat,
    gini_estimates,
    gini_normal_test,
    group_index,
    pairwise_distances,
    permutation_test,
)

# small, exactly representable-ish values: hypothesis shrinks toward ties
# and all-equal samples, which exercise the degenerate branches too
values = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


@st.composite
def samples(draw):
    """(data, codes): K in 2..4 classes of 2..6 rows each, in a drawn row
    order, with 1..3 features."""
    counts = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))
    codes = draw(st.permutations(np.repeat(np.arange(len(counts)), counts).tolist()))
    p = draw(st.integers(1, 3))
    data = draw(arrays(np.float64, (len(codes), p), elements=values))
    return data, codes


def estimates(data, labels):
    ds = LabeledDataset(data, tuple(labels))
    d, gi = pairwise_distances(ds), group_index(ds)
    return gini_estimates(d, gi), dcov_stat(d, gi), gini_normal_test(ds).z


def assert_bit_identical(a: GiniEstimates, b: GiniEstimates):
    for field in dataclasses.fields(GiniEstimates):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


@settings(max_examples=60, deadline=None)
@given(sample=samples(), names=st.data())
def test_renaming_labels_changes_no_bit(sample, names):
    data, codes = sample
    k = max(codes) + 1
    new = names.draw(st.permutations([f"class-{c}" for c in range(k)]))
    est, dcov, z = estimates(data, codes)
    est2, dcov2, z2 = estimates(data, [new[c] for c in codes])
    assert_bit_identical(est, est2)
    assert dcov == dcov2
    assert z == z2


@settings(max_examples=60, deadline=None)
@given(sample=samples(), order=st.data())
def test_row_order_moves_gcov_and_dcov_by_rounding_only(sample, order):
    data, codes = sample
    perm = np.array(order.draw(st.permutations(range(len(codes)))))
    est, dcov, _ = estimates(data, codes)
    est2, dcov2, _ = estimates(data[perm], [codes[i] for i in perm])
    tol = 1e-12 * est.delta_hat
    assert abs(est.gcov - est2.gcov) <= tol
    assert abs(dcov - dcov2) <= tol


@settings(max_examples=60, deadline=None)
@given(sample=samples())
def test_gcov_is_pooled_gmd_minus_weighted_class_gmds(sample):
    data, codes = sample
    gi = group_index(LabeledDataset(data, tuple(codes)))
    est, _, _ = estimates(data, codes)
    recon = est.delta_hat - float(np.dot(gi.counts / gi.n, est.delta_k_hat))
    assert abs(est.gcov - recon) <= 1e-12 * (est.delta_hat + est.delta_k_hat.max())


@settings(max_examples=30, deadline=None)
@given(
    sample=samples(),
    permutations=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    statistic=st.sampled_from(["gini", "dcov"]),
)
def test_permutation_p_values_lie_on_the_add_one_grid(
    sample, permutations, seed, statistic
):
    data, codes = sample
    ds = LabeledDataset(data, tuple(codes))
    res = permutation_test(ds, statistic, permutations=permutations, seed=seed)
    assert 1.0 / (permutations + 1) <= res.p_value <= 1.0
    count = res.p_value * (permutations + 1)
    assert abs(count - round(count)) <= 1e-9
