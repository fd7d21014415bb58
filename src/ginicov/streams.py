"""Reproducible random streams keyed by integer paths.

Every stochastic component draws from a counter-based Philox generator whose
key is derived from ``(seed, *path)``.  Streams for distinct paths are
independent, so work can be farmed out to any number of workers in any order
and still reproduce bit-for-bit.

Stream keys used across the package:

* permutation tests:   (seed, b) for permutation replicate b = 1..B
* scenario data:       (seed, replicate, class_index)
* study batches:       per-beta root seeds derived via derive_seed(seed, i)

:func:`labellings` is the one source of a permutation test's labellings.  It
builds no ``substream`` generator for its rows: it derives the Philox keys of
``_KEYS`` streams at a time in one vectorized pass of numpy's
``SeedSequence`` hash (restated in uint32 arithmetic below), and resets one
reused generator to each row's key, so memory stays O(n * _BLOCK + _KEYS).
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

# most labellings per block: the kernel's buffers stay O(n * _BLOCK) for any B
_BLOCK = 128
# streams per key hash, a multiple of _BLOCK: 32 KiB of keys for any B
_KEYS = 16 * _BLOCK


def _stream_keys(seed: int, bs) -> np.ndarray:
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


def labellings(seed: int, codes, permutations: int):
    """The observed ``codes``, then ``codes[substream(seed, b).permutation(n)]``
    for b = 1..``permutations``, in (m, n) blocks cut at multiples of _BLOCK
    in b.  So for B >= 1 the first block holds the observed codes and at
    least one replicate: a one-row product takes another BLAS kernel, whose
    last bits differ.

    One Philox generator serves every row: before each shuffle its state is
    reset to the stream's key with a zero counter and an empty buffer, the
    state a fresh ``substream(seed, b)`` starts from.  The state holds Python
    ints, which the state setter reads faster than numpy scalars.
    ``Generator.shuffle`` makes the same swaps as ``permutation``, so
    shuffling a copy of ``codes`` gives the gathered row directly.
    """
    codes = np.asarray(codes)
    bit_gen = np.random.Philox(0)
    start = bit_gen.state  # buffer_pos 4 (empty buffer), no cached uint32
    start["state"]["counter"] = [0, 0, 0, 0]
    start["buffer"] = [0, 0, 0, 0]
    gen = np.random.Generator(bit_gen)
    for lo in range(0, permutations + 1, _KEYS):
        hi = min(lo + _KEYS, permutations + 1)
        # keys[i] is stream first + i's; b = 0 is the observed codes, no stream
        first = max(lo, 1)
        keys = _stream_keys(seed, range(first, hi))
        for b0 in range(lo, hi, _BLOCK):
            b1, r0 = min(b0 + _BLOCK, hi), max(b0, 1)
            block = np.empty((b1 - b0, codes.size), dtype=codes.dtype)
            block[:] = codes
            for row, key in zip(block[r0 - b0:], keys[r0 - first:b1 - first].tolist()):
                start["state"]["key"] = key
                bit_gen.state = start
                gen.shuffle(row)
            yield block
        del keys, block  # freed before the next chunk is hashed
