"""Reproducible random streams keyed by integer paths.

Every stochastic component draws from a counter-based Philox generator whose
key is derived from ``(seed, *path)``.  Streams for distinct paths are
independent, so work can be farmed out to any number of workers in any order
and still reproduce bit-for-bit.

Stream keys used across the package:

* permutation tests:   (seed, b) for permutation replicate b = 1..B
* scenario data:       (seed, replicate, class_index)
* study batches:       per-beta root seeds derived via derive_seed(seed, i)

Permutation streams are made in two steps.  :func:`permutation_keys` derives
the Philox keys of many ``(seed, b)`` streams in one vectorized pass of
numpy's ``SeedSequence`` hash (restated in uint32 arithmetic below); the
permutation engine hashes one chunk of a few thousand streams at a time.
:func:`shuffled` then shuffles one copy of the input per key with a single
reused generator, whose state is reset to each key from Python ints.  Row i
is bit-for-bit ``x[substream(seed, bs[i]).permutation(len(x))]`` when the
keys are ``permutation_keys(seed, bs)``; the contract is the same as the
one-generator-per-stream one, only cheaper to set up.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence: pool of 4 words, hashmix/mix constants, 16-bit shift
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy(seed: int, path) -> list:
    return [int(seed) & _MASK] + [int(x) & _MASK for x in path]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *path)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_entropy(seed, path)))
    )


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a single 64-bit seed for a sub-component."""
    ss = np.random.SeedSequence(entropy=_entropy(seed, path))
    return int(ss.generate_state(1, np.uint64)[0])


def _hash_constants(init: int, mult: int, count: int) -> list:
    """(xor, multiplier) of each successive call of a SeedSequence hash."""
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return out


def _hash(value, const):
    xor, mult = const
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


_HASHMIX = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_GENERATE = _hash_constants(_INIT_B, _MULT_B, 4)


def permutation_keys(seed: int, bs) -> np.ndarray:
    """Philox keys, shape (len(bs), 2) uint64, of the streams (seed, b).

    Equal to ``SeedSequence([seed & (2**64 - 1), b]).generate_state(2,
    np.uint64)`` for 0 <= b < 2**32, where b is a single 32-bit entropy word.
    """
    bs = np.asarray(bs, dtype=np.int64)
    if bs.size and (bs.min() < 0 or bs.max() > _MASK32):
        raise ValueError("permutation stream indices must be in [0, 2**32)")
    s = int(seed) & _MASK
    words = [s & _MASK32] + ([s >> 32] if s >> 32 else [])
    entropy = [np.full(bs.shape, w, np.uint32) for w in words]
    entropy.append(bs.astype(np.uint32))
    zero = np.zeros(bs.shape, np.uint32)
    consts = iter(_HASHMIX)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, next(consts))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(consts)))
    state = np.stack([_hash(w, c) for w, c in zip(pool, _GENERATE)], axis=-1)
    return state.astype("<u4", copy=False).view("<u8")


def shuffled(keys, x) -> np.ndarray:
    """Rows ``x[substream(seed, b).permutation(len(x))]``, one per row of
    ``keys = permutation_keys(seed, bs)``.

    One Philox generator serves every row: before each shuffle its state is
    reset to the stream's key with a zero counter and an empty buffer, the
    state a fresh ``substream(seed, b)`` starts from.  The state holds Python
    ints, which the state setter reads faster than numpy scalars.
    ``Generator.shuffle`` makes the same swaps as ``permutation``, so
    shuffling a copy of ``x`` gives the gathered row directly.
    """
    x = np.asarray(x)
    out = np.empty((len(keys), x.size), dtype=x.dtype)
    out[:] = x
    bit_gen = np.random.Philox(0)
    start = bit_gen.state  # buffer_pos 4 (empty buffer), no cached uint32
    start["state"]["counter"] = [0, 0, 0, 0]
    start["buffer"] = [0, 0, 0, 0]
    gen = np.random.Generator(bit_gen)
    for row, key in zip(out, keys.tolist()):
        start["state"]["key"] = key
        bit_gen.state = start
        gen.shuffle(row)
    return out
