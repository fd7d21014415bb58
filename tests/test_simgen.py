import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginicov import ScenarioSpec, scenario_dataset, simgen
from ginicov.simgen import _ar1_filter
from ginicov.streams import substream
from test_core import traced_peak


def ar1_cov(p, rho):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def chol_ar1(p, rho):
    """Closed-form lower Cholesky factor of the AR(1) correlation matrix.

    Column 0 is rho^i; column j >= 1 is sqrt(1-rho^2) * rho^(i-j) below the
    diagonal.  Exact up to rounding, with no LAPACK dependence.
    """
    powers = rho ** np.arange(p, dtype=np.float64)
    lower = np.zeros((p, p), dtype=np.float64)
    lower[:, 0] = powers
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        lower[j:, j] = c * powers[: p - j]
    return lower


# The per-class construction that scenario_dataset must reproduce bit for
# bit: each class drawn, filtered out of place and transformed on its own.

def ar1_filter_copy(e, rho):
    out = np.empty_like(e)
    out[:, 0] = e[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, e.shape[1]):
        out[:, j] = rho * out[:, j - 1] + c * e[:, j]
    return out


def ar1_gaussian(m, p, rho, rng):
    return ar1_filter_copy(rng.standard_normal((m, p)), rho)


def example2_sample(spec, class_k, rng):
    x = ar1_gaussian(spec.sizes[class_k - 1], spec.p, spec.rho, rng)
    m = spec.affected
    if class_k != 1 and m > 0:
        scale, shift = {2: (1.1, 0.1), 3: (1.2, 0.2)}[class_k]
        x[:, :m] = scale * x[:, :m] + shift
    return x


def example3_sample(spec, class_k, rng):
    z = rng.exponential(1.0, size=(spec.sizes[class_k - 1], spec.p)) - 1.0
    x = ar1_filter_copy(z, spec.rho)
    m = spec.affected
    if class_k != 1 and m > 0:
        x[:, :m] *= {2: 1.1, 3: 1.2}[class_k]
    return x


def per_class_dataset(spec, replicate):
    blocks = []
    labels = []
    for c in range(1, len(spec.sizes) + 1):
        rng = substream(spec.seed, replicate, c)
        if spec.example == 1:
            x = ar1_gaussian(spec.sizes[c - 1], spec.p, spec.rho, rng)
        elif spec.example == 2:
            x = example2_sample(spec, c, rng)
        else:
            x = example3_sample(spec, c, rng)
        blocks.append(x)
        labels.extend([c] * spec.sizes[c - 1])
    return np.vstack(blocks), tuple(labels)


def class_rows(spec, class_k, replicate=0):
    ds = scenario_dataset(spec, replicate)
    return ds.data[np.asarray(ds.labels) == class_k]


class TestAr1Gaussian:
    def test_rho_zero_columns_independent(self):
        spec = ScenarioSpec(example=1, p=3, sizes=(20000,), rho=0.0, seed=31)
        cov = np.cov(class_rows(spec, 1), rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 0.03

    def test_lag_two_covariance(self):
        spec = ScenarioSpec(example=1, p=3, sizes=(20000,), seed=32)
        cov = np.cov(class_rows(spec, 1), rowvar=False)
        assert abs(cov[0, 2] - 0.49) <= 0.03

    def test_full_covariance_small_p(self):
        spec = ScenarioSpec(example=1, p=5, sizes=(50000,), seed=33)
        cov = np.cov(class_rows(spec, 1), rowvar=False)
        assert np.abs(cov - ar1_cov(5, 0.7)).max() <= 0.04

    def test_deterministic(self):
        spec = ScenarioSpec(example=1, p=11, sizes=(7, 7), seed=34)
        a = class_rows(spec, 2, replicate=1)
        b = class_rows(spec, 2, replicate=1)
        assert np.array_equal(a, b)
        # class 2 of replicate 1 is the stream (34, 1, 2) alone
        assert np.array_equal(a, ar1_gaussian(7, 11, 0.7, substream(34, 1, 2)))


class TestCholAr1:
    def test_p_one(self):
        assert chol_ar1(1, 0.7).tolist() == [[1.0]]

    def test_p_two_hand_values(self):
        lower = chol_ar1(2, 0.7)
        assert lower[0, 0] == 1.0
        assert lower[0, 1] == 0.0
        assert lower[1, 0] == 0.7
        assert abs(lower[1, 1] - np.sqrt(0.51)) <= 1e-15

    def test_reconstruction_residual(self):
        lower = chol_ar1(50, 0.7)
        assert np.abs(lower @ lower.T - ar1_cov(50, 0.7)).max() <= 1e-10
        assert np.all(np.diag(lower) > 0.0)
        assert np.abs(np.triu(lower, 1)).max() == 0.0

    def test_matches_lapack(self):
        ref = np.linalg.cholesky(ar1_cov(20, 0.7))
        assert np.abs(chol_ar1(20, 0.7) - ref).max() <= 1e-12

    def test_filter_equals_triangular_transform(self):
        # the AR recursion is the closed-form factor applied in O(n p)
        rng = substream(36)
        z = rng.standard_normal((6, 40))
        direct = z @ chol_ar1(40, 0.7).T
        assert np.abs(_ar1_filter(z.copy(), 0.7) - direct).max() <= 1e-10


class TestAr1FilterTiles:
    """The tiled filter equals the column-by-column loop bit for bit at any
    tile size, fills its input in place, and holds one tile beside it."""

    # tiles of 1 row (tile 3), of 25 rows with a short last one of 15
    # (tile 50), and of all 7 rows by 9 coordinates, the last one short
    # (tile 64)
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 80),
        rho=st.just(0.0) | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        tile=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, p=7, rho=0.7, tile=3, seed=1)
    @example(n=40, p=80, rho=-0.5, tile=50, seed=2)
    @example(n=7, p=80, rho=0.0, tile=64, seed=3)
    def test_bits_equal_the_column_loop(self, n, p, rho, tile, seed):
        e = np.random.default_rng(seed).standard_normal((n, p))
        x = e.copy()
        with mock.patch.object(simgen, "_TILE_ITEMS", tile):
            assert _ar1_filter(x, rho) is x
        assert np.array_equal(x, ar1_filter_copy(e, rho))

    @pytest.mark.parametrize("n, p", [(50, 2000), (3000, 20)])
    def test_traced_peak_is_one_tile(self, n, p):
        # one tile of 4096 elements and one row of at most half a tile; the
        # input is 15 to 25 tiles, so copying it whole fails
        tile = 1 << 12
        x = np.random.default_rng(5).standard_normal((n, p))
        with mock.patch.object(simgen, "_TILE_ITEMS", tile):
            _, peak = traced_peak(lambda: _ar1_filter(x, 0.7))
        assert peak < 8 * (tile + min(n, tile // 2)) + 4096


class TestScenarioSpec:
    def test_validation(self):
        good = dict(example=2, p=4, sizes=(3, 3, 3))
        ScenarioSpec(**good)
        with pytest.raises(ValueError):
            ScenarioSpec(**{**good, "example": 4})
        with pytest.raises(ValueError):
            ScenarioSpec(**{**good, "beta": 1.5})
        with pytest.raises(ValueError):
            ScenarioSpec(**{**good, "rho": 1.0})
        with pytest.raises(ValueError):
            ScenarioSpec(**{**good, "sizes": (3, 1, 3)})
        with pytest.raises(ValueError):
            ScenarioSpec(**{**good, "sizes": (3, 3)})

    def test_affected_count_rounds(self):
        assert ScenarioSpec(example=2, p=10, sizes=(2, 2, 2), beta=0.25).affected == 2
        assert ScenarioSpec(example=2, p=10, sizes=(2, 2, 2), beta=1.0).affected == 10
        assert ScenarioSpec(example=2, p=10, sizes=(2, 2, 2), beta=0.0).affected == 0


class TestExample2:
    def test_class_one_is_plain_ar1(self):
        spec = ScenarioSpec(example=2, p=7, sizes=(5, 4, 3), beta=0.6, seed=1)
        null = ScenarioSpec(example=1, p=7, sizes=(5, 4, 3), seed=1)
        a = class_rows(spec, 1)
        assert np.array_equal(a, class_rows(null, 1))
        assert np.array_equal(a, ar1_gaussian(5, 7, 0.7, substream(1, 0, 1)))

    def test_beta_zero_all_classes_share_generator(self):
        spec = ScenarioSpec(example=2, p=6, sizes=(4, 4, 4), beta=0.0, seed=2)
        for k in (2, 3):
            z = ar1_gaussian(4, 6, 0.7, substream(2, 0, k))
            assert np.array_equal(class_rows(spec, k), z)

    def test_class_three_moments_at_beta_one(self):
        spec = ScenarioSpec(example=2, p=2, sizes=(2, 2, 20000), beta=1.0, seed=43)
        x = class_rows(spec, 3)
        assert np.abs(x.mean(axis=0) - 0.2).max() <= 0.03
        assert abs(x[:, 0].var(ddof=1) - 1.44) <= 0.05

    def test_class_two_moments(self):
        spec = ScenarioSpec(example=2, p=4, sizes=(2, 30000, 2), beta=0.5, seed=44)
        x = class_rows(spec, 2)
        # first two coordinates shifted and rescaled, last two untouched
        assert np.abs(x[:, :2].mean(axis=0) - 0.1).max() <= 0.03
        assert np.abs(x[:, 2:].mean(axis=0)).max() <= 0.03
        assert abs(x[:, 0].var(ddof=1) - 1.21) <= 0.05


class TestExample3:
    def test_centered(self):
        spec = ScenarioSpec(example=3, p=3, sizes=(20000, 2, 2), seed=51)
        x = class_rows(spec, 1)
        assert np.abs(x.mean(axis=0)).max() <= 0.03

    def test_covariance_matches_target(self):
        spec = ScenarioSpec(example=3, p=2, sizes=(20000, 2, 2), seed=52)
        x = class_rows(spec, 1)
        assert np.abs(np.cov(x, rowvar=False) - ar1_cov(2, 0.7)).max() <= 0.04

    def test_skewness_of_innovations(self):
        spec = ScenarioSpec(example=3, p=1, sizes=(20000, 2, 2), seed=53)
        x = class_rows(spec, 1)[:, 0]
        m2 = np.mean((x - x.mean()) ** 2)
        m3 = np.mean((x - x.mean()) ** 3)
        assert abs(m3 / m2 ** 1.5 - 2.0) <= 0.15

    def test_no_mean_shift_for_other_classes(self):
        spec = ScenarioSpec(example=3, p=2, sizes=(2, 2, 20000), beta=1.0, seed=54)
        x = class_rows(spec, 3)
        assert np.abs(x.mean(axis=0)).max() <= 0.05
        assert abs(x[:, 0].var(ddof=1) - 1.44) <= 0.07


class TestScenarioDataset:
    def test_labels_and_shapes(self):
        spec = ScenarioSpec(example=2, p=5, sizes=(4, 3, 2), seed=6)
        ds = scenario_dataset(spec, replicate=0)
        assert ds.n == 9
        assert ds.p == 5
        assert ds.labels == (1,) * 4 + (2,) * 3 + (3,) * 2

    def test_deterministic_per_replicate(self):
        spec = ScenarioSpec(example=3, p=4, sizes=(3, 3, 3), beta=0.5, seed=7)
        a = scenario_dataset(spec, replicate=2)
        b = scenario_dataset(spec, replicate=2)
        c = scenario_dataset(spec, replicate=3)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_beta_zero_example2_equals_pure_null(self):
        null_spec = ScenarioSpec(example=1, p=6, sizes=(4, 5, 6), seed=8)
        alt_spec = ScenarioSpec(example=2, p=6, sizes=(4, 5, 6), beta=0.0, seed=8)
        a = scenario_dataset(null_spec, replicate=1)
        b = scenario_dataset(alt_spec, replicate=1)
        assert np.array_equal(a.data, b.data)

    def test_example_one_any_class_count(self):
        spec = ScenarioSpec(example=1, p=3, sizes=(30, 40, 50, 60, 70), seed=9)
        ds = scenario_dataset(spec)
        assert ds.n == 250

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_equals_per_class_construction(self, example):
        sizes = [(30, 40, 50, 60, 70), (3,), (2, 2, 5, 7)] if example == 1 else []
        sizes += [(72, 36, 12), (5, 5, 5), (40, 40, 40)]
        grid = itertools.product((0.0, 0.4, 1.0), (1, 7, 500), sizes, range(3))
        for beta, p, size, rep in grid:
            spec = ScenarioSpec(example=example, p=p, sizes=size, beta=beta, seed=11)
            data, labels = per_class_dataset(spec, rep)
            ds = scenario_dataset(spec, rep)
            assert np.array_equal(ds.data, data), (beta, p, size, rep)
            assert ds.labels == labels

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_innovations_are_the_per_class_draws_stacked(self, example):
        # rho = 0 and beta = 0 leave every row as its class stream drew it
        sizes = [(30, 40, 50), (2, 2, 5), (72, 36, 12)]
        for size, p, rep in itertools.product(sizes, (1, 7, 500), range(2)):
            spec = ScenarioSpec(example=example, p=p, sizes=size, rho=0.0, seed=12)
            draws = []
            for c, n_c in enumerate(size, start=1):
                rng = substream(12, rep, c)
                if example == 3:
                    draws.append(rng.exponential(1.0, size=(n_c, p)) - 1.0)
                else:
                    draws.append(rng.standard_normal((n_c, p)))
            assert np.array_equal(scenario_dataset(spec, rep).data, np.vstack(draws))
