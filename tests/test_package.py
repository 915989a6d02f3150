"""The package's export list and start-up imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mcde
from oracles import csv_string

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
}


def test_every_public_name_resolves():
    missing = [name for name in mcde.__all__ if not hasattr(mcde, name)]
    assert missing == []
    assert len(set(mcde.__all__)) == len(mcde.__all__)


def test_public_names_are_pinned():
    assert set(mcde.__all__) == PUBLIC


# run in a fresh interpreter: prints which of the modules mcde imports
# only where it needs them were imported, and the exit code
_CHILD = """
import sys
from mcde.cli import run
code = 0 if len(sys.argv) == 1 else run(sys.argv[1:])
print(sorted({"mmap", "numpy.random", "signal"} & set(sys.modules)), code)
"""


def _lazy_imports(*argv):
    package_root = os.path.dirname(os.path.dirname(mcde.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    child = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                           capture_output=True, text=True, env=env, check=True)
    return child.stdout.splitlines()[-1]


def test_start_up_and_a_tie_free_monitor_leave_numpy_random_unimported(tmp_path):
    # numpy.random is imported only to draw: by generators and by the
    # tie-break of a tied column
    assert _lazy_imports() == "[] 0"
    values = np.random.default_rng(3).random((300, 2))
    path = tmp_path / "stream.csv"
    path.write_text(csv_string(mcde.Dataset(values)))
    argv = ["monitor", "--input", str(path), "--width", "50", "--dims", "0,1", "--m", "5"]
    assert _lazy_imports(*argv) == "[] 0"
    # a tied column draws its tie-break vector, so the check can fail
    path.write_text(csv_string(mcde.Dataset(np.round(values, 1))))
    assert _lazy_imports(*argv) == "['numpy.random'] 0"


def test_a_small_estimate_leaves_the_split_loads_modules_unimported(tmp_path):
    # mmap and signal are imported only to parse a file in parts
    path = tmp_path / "data.csv"
    path.write_text(csv_string(mcde.Dataset(np.random.default_rng(4).random((300, 3)))))
    assert _lazy_imports("estimate", "--input", str(path), "--m", "5") == "[] 0"


def test_the_benchmark_workers_manifest_runs():
    # the benchmark harness calls mcde through perfbench/worker.py, so an
    # export it reads cannot go without this failing
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
    child = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"), "manifest"],
                           capture_output=True, text=True, env=env, cwd=root)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["mcde_backend"] == "numpy"
