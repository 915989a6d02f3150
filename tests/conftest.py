import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mcde


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run a few estimates once, so no timed test pays first-call costs."""
    ds = mcde.generate(mcde.DependencySpec("linear", 64, 3, 0.1, seed=1))
    mcde.contrast(ds, m=4, seed=0)
    mcde.contrast(mcde.discretise(ds, 3), m=4, seed=0)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    left = "a running child process" if pid == 0 else f"child process {pid} unreaped"
    pytest.fail(f"the test left {left}")


def random_tied_column(rng: np.random.Generator, n: int) -> np.ndarray:
    """A column with a controllable amount of exact duplicates."""
    distinct = rng.integers(1, n + 1)
    levels = rng.random(distinct)
    return levels[rng.integers(0, distinct, size=n)]
