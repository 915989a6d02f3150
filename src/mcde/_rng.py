"""Seed derivation and the integer draws of Monte Carlo iterations.

Monte Carlo iterations must give the same result no matter how they are
scheduled, so every iteration owns a counter-based Philox stream keyed by
``(master seed, iteration index)`` instead of sharing one sequential
generator.  Larger units of work (benchmark repetitions, stream windows)
derive child seeds through ``SeedSequence`` with an explicit integer path.

:func:`iteration_integers` draws what ``iteration_rng(seed, m).integers(0,
b)`` would give for a list of bounds, for many (seed, iteration) keys in one
pass.  Philox4x64-10 is counter-based, so its blocks for all keys are one
vectorised computation (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).  numpy's bounded integers below 2**32 apply Lemire's
multiply-shift to 32-bit words, the low half of each 64-bit output first,
and redraw on rejection (Lemire, "Fast random integer generation in an
interval", ACM TOMS 2019).  A bound of 1 consumes no word.  The rare key
whose words hit a rejection is replayed by the scalar generator, as is
every key when a bound reaches 2**32.

:func:`derive_seeds` derives the child seeds of many paths in one pass.
``SeedSequence`` splits its integers into 32-bit words and mixes them into a
pool of four words by a fixed run of multiply, xor and shift steps whose
constants do not depend on the words (O'Neill, "Developing a seed_seq
alternative", 2015), so the paths of one word count are mixed together,
one uint32 array row per pool word.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Philox4x64 round multipliers and Weyl key increments (Random123)
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MULT_LO = _MULTIPLIERS & _MASK32
_MULT_HI = _MULTIPLIERS >> _SHIFT32
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_ROUNDS = 10
_WORDS_PER_BLOCK = 8

# SeedSequence's entropy pool and hash constants (numpy.random.SeedSequence)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# keys per vectorised pass; larger passes only raise the memory peak
LANES = 2**11


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """Independent generator for one Monte Carlo iteration."""
    key = np.array([seed & _MASK64, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_block(key: np.ndarray, counter: int) -> np.ndarray:
    """The four 64-bit outputs of Philox4x64-10 at ``counter`` for each key.

    ``key`` is (2, lanes); returns (4, lanes).  The counter's high words are
    zero.  Both products of a round run as one (2, lanes) multiply, with the
    high halves assembled from 32-bit limbs.
    """
    lanes = key.shape[1]
    # a: counter words 0 and 2, the multiplied ones; b: words 1 and 3
    a = np.zeros((2, lanes), dtype=np.uint64)
    a[0] = counter
    b = np.zeros((2, lanes), dtype=np.uint64)
    key = key.copy()
    for r in range(_ROUNDS):
        if r:
            key += _WEYL
        a_lo, a_hi = a & _MASK32, a >> _SHIFT32
        lo_hi = a_lo * _MULT_HI
        hi_lo = a_hi * _MULT_LO
        carry = ((a_lo * _MULT_LO) >> _SHIFT32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
        hi = a_hi * _MULT_HI + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
        lo = a * _MULTIPLIERS
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        a = hi[::-1] ^ b ^ key
        b = lo[::-1]
    return np.stack([a[0], b[0], a[1], b[1]])


def _scalar_integers(seeds, iterations, bounds) -> np.ndarray:
    out = np.empty((len(seeds), len(bounds)), dtype=np.int64)
    for k, (seed, iteration) in enumerate(zip(seeds, iterations)):
        rng = iteration_rng(seed, iteration)
        out[k] = [rng.integers(0, b) for b in bounds]
    return out


def lane_integers(seeds: np.ndarray, iterations: np.ndarray, bounds) -> np.ndarray:
    """``iteration_rng(seeds[k], iterations[k]).integers(0, b)`` for each
    bound ``b`` in turn, for every lane k: a (lanes, len(bounds)) array.

    ``seeds`` and ``iterations`` are uint64 arrays; bounds are positive
    integers.  One vectorised pass.
    """
    if max(bounds) >= 2**32:
        return _scalar_integers(seeds.tolist(), iterations.tolist(), bounds)
    out = np.zeros((seeds.size, len(bounds)), dtype=np.int64)
    drawn = [c for c, b in enumerate(bounds) if b > 1]
    if not drawn:
        return out
    key = np.stack([seeds, iterations])
    blocks = -(-len(drawn) // _WORDS_PER_BLOCK)
    words = np.empty((seeds.size, 4 * blocks, 2), dtype=np.uint64)
    for block in range(blocks):
        outputs = _philox_block(key, block + 1).T
        words[:, 4 * block:4 * block + 4, 0] = outputs & _MASK32
        words[:, 4 * block:4 * block + 4, 1] = outputs >> _SHIFT32
    b = np.array([bounds[c] for c in drawn], dtype=np.uint64)
    scaled = words.reshape(seeds.size, -1)[:, :len(drawn)] * b
    out[:, drawn] = scaled >> _SHIFT32
    # Lemire rejects a word whose low product half is below (2**32 - b) % b;
    # the redraw shifts every later draw, so the lane is replayed whole
    threshold = (2**32 - b) % b
    rejected = np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1))
    if rejected.size:
        out[rejected] = _scalar_integers(seeds[rejected].tolist(),
                                         iterations[rejected].tolist(), bounds)
    return out


def iteration_integers(seeds, m: int, bounds) -> np.ndarray:
    """The integers of iterations ``0..m-1`` of every seed in ``seeds``.

    ``out[s, i, c]`` equals the c-th of the draws
    ``rng.integers(0, bounds[0]), rng.integers(0, bounds[1]), ...`` made in
    turn from ``iteration_rng(seeds[s], i)``.  The keys run in passes of at
    most ``LANES``; a lane's draws do not depend on the pass it runs in.
    """
    bounds = [int(b) for b in bounds]
    keys = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    lane_seeds = np.repeat(keys, m)
    lane_iterations = np.tile(np.arange(m, dtype=np.uint64), keys.size)
    out = np.empty((lane_seeds.size, len(bounds)), dtype=np.int64)
    for lo in range(0, lane_seeds.size, LANES):
        hi = lo + LANES
        out[lo:hi] = lane_integers(lane_seeds[lo:hi], lane_iterations[lo:hi], bounds)
    return out.reshape(keys.size, m, len(bounds))


def _int_words(value: int) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` splits ``value`` into."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hashmix steps and after
    the last, as a (count + 1, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Hashmix steps with the hash constants ``before`` and ``after`` each
    step, one step per row of the constant columns."""
    out = values ^ before
    out *= after
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x
    out -= _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _mixed_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(1, np.uint64)`` for each
    column of the (word count, paths) uint32 ``words``, the 32-bit words of
    each path's entropy."""
    count = words.shape[0]
    steps = _POOL_SIZE**2 + _POOL_SIZE * max(0, count - _POOL_SIZE)
    c = _hash_constants(_INIT_A, _MULT_A, steps)
    if count < _POOL_SIZE:  # the pool words past the entropy hash a 0
        words = np.concatenate((words, np.zeros((_POOL_SIZE - count, words.shape[1]),
                                                dtype=np.uint32)))
    pool = _hashmix(words[:_POOL_SIZE], c[:_POOL_SIZE], c[1:_POOL_SIZE + 1])
    k = _POOL_SIZE
    # mix every pool word into every other; a source word stays fixed while
    # it is mixed into the other three, so its three steps run as one
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], c[k:k + 3], c[k + 1:k + 4])
        pool[dst] = _mix(pool[dst], hashed)
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, count):
        pool = _mix(pool, _hashmix(words[src], c[k:k + 4], c[k + 1:k + 5]))
        k += _POOL_SIZE
    b = _hash_constants(_INIT_B, _MULT_B, 2)
    state = _hashmix(pool[:2], b[:2], b[1:]).astype(np.uint64)
    return state[0] | state[1] << _SHIFT32


def derive_seeds(seed: int, paths) -> list[int]:
    """``derive_seed(seed, *path)`` for every path in ``paths``, with the
    paths of each word count mixed in one vectorised pass."""
    head = _int_words(seed)
    by_count: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, path in enumerate(paths):
        words = head + [word for value in path for word in _int_words(value)]
        at, group = by_count.setdefault(len(words), ([], []))
        at.append(k)
        group.append(words)
    out = np.empty(len(paths), dtype=np.uint64)
    for at, group in by_count.values():
        out[at] = _mixed_seeds(np.array(group, dtype=np.uint32).T)
    return out.tolist()


def derive_seed(seed: int, *path: int) -> int:
    """Stable child seed for the sub-stream identified by ``path``: the
    first 64-bit word of ``np.random.SeedSequence([seed, *path])``."""
    return derive_seeds(seed, [path])[0]
