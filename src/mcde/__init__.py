"""Monte Carlo dependency estimation with the Mann-Whitney P statistic.

Quantifies how strongly a set of numeric columns depends on each other as a
score in [0, 1]: repeatedly slice the data on all but one dimension, test
whether the slice changes the remaining dimension's distribution, and
average the test confidences.  Independent data scores near 0.5, strong
dependencies near 1, and fully discrete (all-tied) data exactly 0.

Typical use::

    from mcde import contrast, load_csv

    score = contrast(load_csv("data.csv"), m=50, seed=42).score

The hot kernels are vectorized numpy, the package's only runtime
dependency.
"""

from ._kernels import backend_name
from .benchmark import (
    PowerResult,
    RuntimeResult,
    independence_threshold,
    nearest_rank_percentile,
    power,
    results_csv,
    robustness_sweep,
    runtime_csv,
    runtime_profile,
    score_distribution,
    score_sample,
)
from .contrast import ContrastEstimate, contrast, hoeffding_bound, iterations_for
from .dataset import (
    DataError,
    Dataset,
    ParseError,
    StructureError,
    ValidationError,
    load_csv,
    read_csv,
    select_subspace,
    write_csv,
)
from .generators import (
    DEPENDENCY_KINDS,
    DependencySpec,
    discretise,
    generate,
)
from .ranking import DimensionIndex, RankIndex, construct_index
from .stream import (
    StreamFormatError,
    WindowConfig,
    WindowScore,
    monitor,
    window_seed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "ContrastEstimate",
    "contrast",
    "hoeffding_bound",
    "iterations_for",
    "DataError",
    "Dataset",
    "ParseError",
    "StructureError",
    "ValidationError",
    "load_csv",
    "read_csv",
    "select_subspace",
    "write_csv",
    "DEPENDENCY_KINDS",
    "DependencySpec",
    "discretise",
    "generate",
    "DimensionIndex",
    "RankIndex",
    "construct_index",
    "PowerResult",
    "RuntimeResult",
    "independence_threshold",
    "nearest_rank_percentile",
    "power",
    "results_csv",
    "robustness_sweep",
    "runtime_csv",
    "runtime_profile",
    "score_distribution",
    "score_sample",
    "StreamFormatError",
    "WindowConfig",
    "WindowScore",
    "monitor",
    "window_seed",
]
