"""The permutation labellings against numpy's SeedSequence and the
one-generator-per-stream path they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginicov.streams import _BLOCK, _KEYS, _stream_keys, labellings, substream

MASK = (1 << 64) - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**32), -(2**63)]
EDGE_BS = [1, 2, 2**32 - 1]
seeds = st.integers(min_value=-(2**63), max_value=2**64 - 1)


def numpy_key(seed, b):
    ss = np.random.SeedSequence(entropy=[seed & MASK, b])
    return ss.generate_state(2, np.uint64)


def reference_rows(seed, x, permutations):
    """The observed ``x``, then one substream permutation of it per b."""
    return np.stack(
        [x] + [x[substream(seed, b).permutation(len(x))]
               for b in range(1, permutations + 1)]
    )


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_keys_match_seed_sequence_at_edge_seeds(seed):
    keys = _stream_keys(seed, EDGE_BS)
    assert keys.dtype == np.uint64 and keys.shape == (3, 2)
    for key, b in zip(keys, EDGE_BS):
        assert np.array_equal(key, numpy_key(seed, b)), (seed, b)


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_keys_match_seed_sequence(seed):
    keys = _stream_keys(seed, EDGE_BS)
    for key, b in zip(keys, EDGE_BS):
        assert np.array_equal(key, numpy_key(seed, b)), (seed, b)


def test_keys_reject_indices_beyond_one_word():
    assert _stream_keys(5, []).shape == (0, 2)
    for bad in ([2**32], [-1]):
        with pytest.raises(ValueError):
            _stream_keys(5, bad)


# B at and beside the block and key-chunk boundaries, and anywhere below
permutation_counts = st.one_of(
    st.builds(
        lambda base, offset: max(1, base + offset),
        st.sampled_from([1, _BLOCK, 2 * _BLOCK, _KEYS, _KEYS + _BLOCK]),
        st.integers(min_value=-2, max_value=2),
    ),
    st.integers(min_value=1, max_value=3 * _BLOCK),
)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=9),
    dtype=st.sampled_from([np.int8, np.intp]),
    permutations=permutation_counts,
)
def test_labellings_are_the_observed_codes_then_the_streams(
    seed, n, k, dtype, permutations
):
    assert _KEYS % _BLOCK == 0
    codes = (np.arange(n) % k).astype(dtype)
    blocks = list(labellings(seed, codes, permutations))
    assert all(b.dtype == codes.dtype and b.shape[1] == n for b in blocks)
    assert all(len(b) <= _BLOCK for b in blocks)
    assert len(blocks[0]) >= 2
    # cut at multiples of _BLOCK in b: every block but the last is full
    assert all(len(b) == _BLOCK for b in blocks[:-1])
    assert np.array_equal(np.vstack(blocks), reference_rows(seed, codes, permutations))


def test_rows_of_distinct_values_are_the_permutations():
    x = np.arange(120)
    rows = np.vstack(list(labellings(7, x, 199)))
    assert np.array_equal(rows, reference_rows(7, x, 199))


def test_interleaved_sources_leak_no_state():
    x = np.arange(40, dtype=np.intp) % 4
    first = {s: np.vstack(list(labellings(s, x, 300))) for s in (11, 12)}
    # two live sources, advanced block by block in turn
    a, b = labellings(11, x, 300), labellings(12, x, 300)
    turns = [(next(a), next(b)) for _ in range(3)]
    assert np.array_equal(np.vstack([ta for ta, _ in turns]), first[11])
    assert np.array_equal(np.vstack([tb for _, tb in turns]), first[12])
    assert np.array_equal(first[11], reference_rows(11, x, 300))
    assert not np.array_equal(first[11], first[12])


def test_input_is_not_modified():
    x = np.arange(30)
    x.setflags(write=False)
    for block in labellings(3, x, 2):
        block[:] = 0
    assert np.array_equal(x, np.arange(30))
