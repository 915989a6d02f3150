"""The reseeded iteration streams against freshly keyed generators.

These comparisons pin the Philox state format the reseeding writes: if
numpy ever changes it, they fail.
"""

import numpy as np
import pytest

from mcde._rng import iteration_streams


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 7, 2**63, 2**63 + 12_345, 2**64 - 1])
def test_reseeded_stream_draws_like_a_fresh_generator(seed):
    stream = iteration_streams(seed)
    # bounds 1 (no draw), 2, a dimension count, about n, and one that
    # rejects about half of its 32-bit draws
    bounds = (1, 2, 5, 999, 1000, 2**31 + 1)
    for m in [*range(40), 2**32 + 3, 2**64 - 1]:
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, m], dtype=np.uint64)))
        reseeded = stream(m)
        for bound in bounds:
            for _ in range(3):
                assert reseeded.integers(0, bound) == fresh.integers(0, bound)
        assert reseeded.random() == fresh.random()
        # an odd number of 32-bit draws leaves half a 64-bit output behind,
        # which the next reseed must drop
        assert reseeded.integers(0, 7) == fresh.integers(0, 7)


def test_streams_of_different_seeds_differ():
    a, b = iteration_streams(1), iteration_streams(2)
    assert a(0).integers(0, 2**30) != b(0).integers(0, 2**30)
