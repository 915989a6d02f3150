"""Child processes of the benchmark; started by ``run.py``, never by hand.

    python3 perfbench/worker.py cli --spans OUT.npz -- <mcde arguments>
        the mcde CLI under the tracer; spans are written to OUT.npz at exit
    python3 perfbench/worker.py scan --input X.npy --seconds S --m M [--spans OUT.npz]
        the in-process subspace scan, repeated for S seconds (at least once);
        prints one JSON line with the wall time and the scores of each pass
    python3 perfbench/worker.py manifest
        prints one JSON line describing numpy, BLAS and the mcde backend

``mcde`` is imported from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import sys
import time

import numpy as np

import tracer as tracing


def _traced(spans_path: str | None):
    if spans_path is None:
        return None
    t = tracing.Tracer()
    for missing in tracing.install(t):
        print(f"# trace: layer {missing} not found", file=sys.stderr)
    return t


def cmd_cli(args) -> int:
    import mcde.cli

    t = _traced(args.spans)
    try:
        return mcde.cli.run(args.argv)
    finally:
        sys.stdout.flush()
        t.save(args.spans)


def subspaces(d: int) -> list[tuple[int, ...]]:
    """Every subspace of two or more of the ``d`` columns."""
    return [s for k in range(2, d + 1) for s in itertools.combinations(range(d), k)]


def cmd_scan(args) -> int:
    import mcde

    data = np.load(args.input, allow_pickle=False)
    t = _traced(args.spans)
    spaces = subspaces(data.shape[1])
    walls, scores = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        index = mcde.construct_index(mcde.Dataset(data))
        scores.append([mcde.contrast(index.project(s), m=args.m).score for s in spaces])
        walls.append(time.perf_counter() - t0)
        del index  # so that passes do not overlap in the peak RSS
        if time.perf_counter() >= deadline:
            break
    if t is not None:
        t.save(args.spans)
    print(json.dumps({"walls": walls, "scores": scores}))
    return 0


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def cmd_manifest(args) -> int:
    import mcde

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mcde": mcde.__version__,
        "mcde_backend": mcde.backend_name(),
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    scan = sub.add_parser("scan")
    scan.add_argument("--input", required=True)
    scan.add_argument("--seconds", type=float, required=True)
    scan.add_argument("--m", type=int, required=True)
    scan.add_argument("--spans", default=None)
    sub.add_parser("manifest")
    args = parser.parse_args()
    if args.command == "cli":
        args.argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return {"cli": cmd_cli, "scan": cmd_scan, "manifest": cmd_manifest}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
