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


def derive_seed(seed: int, *path: int) -> int:
    """Stable child seed for the sub-stream identified by ``path``."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])
