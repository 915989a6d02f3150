"""Seed derivation for reproducible, order-independent randomness.

Monte Carlo iterations must give the same result no matter how they are
scheduled, so every iteration owns a counter-based Philox stream keyed by
``(master seed, iteration index)`` instead of sharing one sequential
generator.  An estimate walks these streams through one Philox whose state
is reset per iteration, which draws exactly what a freshly keyed generator
would, at a fraction of the cost of building one.  Larger units of work
(benchmark repetitions, stream windows) derive child seeds through
``SeedSequence`` with an explicit integer path.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """Independent generator for one Monte Carlo iteration."""
    key = np.array([seed & _MASK64, iteration], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def iteration_streams(seed: int):
    """``stream(m)`` returns a generator in the state ``iteration_rng(seed, m)``
    starts in.

    All streams share one generator, reset by assigning its Philox state:
    the key ``(seed, m)``, a zero counter and an empty output buffer, as
    ``Philox(key=...)`` sets them.  A stream is valid until the next call.
    """
    bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed & _MASK64, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]

    def stream(iteration: int) -> np.random.Generator:
        key[1] = iteration
        bits.state = state
        return gen

    return stream


def derive_seed(seed: int, *path: int) -> int:
    """Stable child seed for the sub-stream identified by ``path``."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])
