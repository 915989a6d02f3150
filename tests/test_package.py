"""The package's export list."""

import mcde

# Every public name; adding or removing one means editing this set.
PUBLIC = {
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
    "save_csv",
    "select_subspace",
    "write_csv",
    "DEPENDENCY_KINDS",
    "DependencySpec",
    "discretise",
    "generate",
    "DimensionIndex",
    "RankIndex",
    "construct_index",
    "slice_size",
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
    "RowError",
    "StreamFormatError",
    "WindowConfig",
    "WindowScore",
    "monitor",
    "window_seed",
}


def test_every_public_name_resolves():
    missing = [name for name in mcde.__all__ if not hasattr(mcde, name)]
    assert missing == []
    assert len(set(mcde.__all__)) == len(mcde.__all__)


def test_public_names_are_pinned():
    assert set(mcde.__all__) == PUBLIC
