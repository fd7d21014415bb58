"""The batched permutation streams against numpy's SeedSequence and the
one-generator-per-stream path they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginicov.streams import permutation_keys, shuffled, substream

MASK = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**32), -(2**63)]
EDGE_BS = [1, 2, 2**32 - 1]
seeds = st.integers(min_value=-(2**63), max_value=2**64 - 1)


def numpy_key(seed, b):
    ss = np.random.SeedSequence(entropy=[seed & MASK, b])
    return ss.generate_state(2, np.uint64)


def reference_rows(seed, x, bs):
    return np.stack([x[substream(seed, b).permutation(len(x))] for b in bs])


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_keys_match_seed_sequence_at_edge_seeds(seed):
    keys = permutation_keys(seed, EDGE_BS)
    assert keys.dtype == np.uint64 and keys.shape == (3, 2)
    for key, b in zip(keys, EDGE_BS):
        assert np.array_equal(key, numpy_key(seed, b)), (seed, b)


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_keys_match_seed_sequence(seed):
    keys = permutation_keys(seed, EDGE_BS)
    for key, b in zip(keys, EDGE_BS):
        assert np.array_equal(key, numpy_key(seed, b)), (seed, b)


def test_keys_reject_indices_beyond_one_word():
    assert permutation_keys(5, []).shape == (0, 2)
    for bad in ([2**32], [-1]):
        with pytest.raises(ValueError):
            permutation_keys(5, bad)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([1, 2, 3, 120]),
    dtype=st.sampled_from([np.int8, np.intp]),
    bs=st.lists(st.sampled_from(EDGE_BS + [3, 999]), min_size=1, max_size=4),
)
def test_rows_match_substream_permutations(seed, n, dtype, bs):
    x = (np.arange(n) % 3).astype(dtype)
    rows = shuffled(permutation_keys(seed, bs), x)
    assert rows.dtype == x.dtype and rows.shape == (len(bs), n)
    assert np.array_equal(rows, reference_rows(seed, x, bs))


def test_rows_of_distinct_values_are_the_permutations():
    bs = np.arange(1, 200)
    rows = shuffled(permutation_keys(7, bs), np.arange(120))
    assert np.array_equal(rows, reference_rows(7, np.arange(120), bs))


def test_interleaved_calls_leak_no_state():
    x = np.arange(40, dtype=np.intp) % 4
    bs = [1, 2, 3, 17]
    first = {s: shuffled(permutation_keys(s, bs), x) for s in (11, 12)}
    for s in (12, 11, 12):
        assert np.array_equal(shuffled(permutation_keys(s, bs), x), first[s])
    assert np.array_equal(first[11], reference_rows(11, x, bs))
    assert not np.array_equal(first[11], first[12])


def test_input_is_not_modified():
    x = np.arange(30)
    x.setflags(write=False)
    shuffled(permutation_keys(3, [1, 2]), x)
    assert np.array_equal(x, np.arange(30))
