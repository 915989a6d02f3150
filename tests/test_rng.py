"""The vectorised iteration draws against freshly keyed generators.

``iteration_integers`` reimplements Philox4x64-10 and numpy's bounded
integers; these comparisons pin that format: the first output at counter 1,
32-bit words low half first, no word for a bound of 1, the Lemire rejection
threshold, further counter blocks, and the scalar path for bounds >= 2**32.
``derive_seeds`` reimplements ``SeedSequence``'s entropy mixing, and is
compared with numpy's own ``SeedSequence`` the same way.  If numpy ever
changes any of it, they fail.
"""

import numpy as np
import pytest

from mcde import _rng
from mcde._rng import derive_seed, derive_seeds, iteration_integers, lane_integers

SEEDS = [0, 1, 2**32 + 7, 2**63, 2**63 + 12_345, 2**64 - 1]
ITERATIONS = [*range(40), 2**32 + 3, 2**64 - 1]
# bounds 1 (no draw), 2, a dimension count, about n, and one that rejects
# about half of its 32-bit draws, so lanes are replayed
BOUNDS = (1, 2, 5, 999, 1000, 2**31 + 1)


def fresh(seed, iteration, bounds):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, iteration], dtype=np.uint64)))
    return [int(rng.integers(0, b)) for b in bounds]


def lanes(seed, iterations, bounds):
    keys = np.full(len(iterations), seed, dtype=np.uint64)
    return lane_integers(keys, np.array(iterations, dtype=np.uint64), bounds)


@pytest.mark.parametrize("seed", SEEDS)
def test_reseeded_stream_draws_like_a_fresh_generator(seed):
    # every iteration's draws equal a generator freshly keyed (seed, m)
    bounds = BOUNDS * 3
    got = lanes(seed, ITERATIONS, bounds)
    assert got.tolist() == [fresh(seed, m, bounds) for m in ITERATIONS]
    assert iteration_integers([seed], 40, bounds)[0].tolist() == got[:40].tolist()


@pytest.mark.parametrize("bounds", [
    (2**32, 7),            # 32-bit words without rejection: scalar path
    (3, 2**32 + 1, 1000),  # 64-bit draws: scalar path
    (9, *[991] * 8, 1),    # d=9: ten words, the last two from counter 2
    (1, 1, 1),             # nothing drawn
])
def test_edge_bounds_draw_like_a_fresh_generator(bounds):
    for seed in SEEDS:
        got = lanes(seed, ITERATIONS, bounds)
        assert got.tolist() == [fresh(seed, m, bounds) for m in ITERATIONS]


def test_rejected_lanes_are_replayed():
    # about half of the draws at 2**31 + 1 reject; the others keep the
    # vectorised values, and all equal the generator
    bound = 2**31 + 1
    b = np.uint64(bound)
    seeds = np.zeros(200, dtype=np.uint64)
    iterations = np.arange(200, dtype=np.uint64)
    words = _rng._philox_block(np.stack([seeds, iterations]), 1)[0] & _rng._MASK32
    rejects = int((((words * b) & _rng._MASK32) < (2**32 - b) % b).sum())
    assert 50 < rejects < 150
    got = lane_integers(seeds, iterations, [bound])
    assert got[:, 0].tolist() == [fresh(0, m, [bound])[0] for m in range(200)]


def test_passes_are_cut_at_the_lane_cap(monkeypatch):
    seeds = [3, 2**64 - 2, 17]
    bounds = (4, 300, 300, 300, 701)
    whole = iteration_integers(seeds, 50, bounds)
    assert whole.shape == (3, 50, 5)
    passes = []
    cut = _rng.lane_integers

    def spy(keys, iterations, bounds):
        passes.append(keys.size)
        return cut(keys, iterations, bounds)

    monkeypatch.setattr(_rng, "lane_integers", spy)
    for cap in (1, 7, 64, 150, 4096):
        passes.clear()
        monkeypatch.setattr(_rng, "LANES", cap)
        assert iteration_integers(seeds, 50, bounds).tobytes() == whole.tobytes()
        assert max(passes) == min(cap, 150)
        assert sum(passes) == 150


def test_streams_of_different_seeds_differ():
    a, b = iteration_integers([1, 2], 1, [2**30])[:, 0, 0]
    assert a != b


# --- child seeds against SeedSequence ---------------------------------------

# values at the 32-bit word boundaries: one, two and three words
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]


def sequence_seed(seed, path):
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0])


@pytest.mark.parametrize("seed", WORD_EDGES)
def test_bulk_seeds_at_word_boundaries_equal_seed_sequence(seed):
    # entropy of 1 to 8 words: padded to the pool of four, and mixed in
    # after it; one call mixes every word count
    paths = [(), *[(v,) for v in WORD_EDGES], *[(v, w) for v in WORD_EDGES for w in WORD_EDGES]]
    got = derive_seeds(seed, paths)
    assert got == [sequence_seed(seed, path) for path in paths]
    assert [derive_seed(seed, *path) for path in paths[:9]] == got[:9]


def test_bulk_seeds_of_random_paths_equal_seed_sequence():
    rng = np.random.default_rng(18)
    bits = (1, 31, 32, 33, 63, 64, 65, 96, 130)
    for _ in range(20):
        seed = int(rng.integers(0, 2**63)) << int(rng.integers(0, 40))
        paths = [tuple(int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) << int(b)
                       for b in rng.choice(bits, size=rng.integers(0, 5)))
                 for _ in range(30)]
        assert derive_seeds(seed, paths) == [sequence_seed(seed, path) for path in paths]


def test_bulk_seeds_reject_a_negative_value():
    with pytest.raises(ValueError, match="non-negative"):
        derive_seeds(0, [(1,), (-1,)])
