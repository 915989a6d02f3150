#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mcde, gated on correct outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
own ``src/`` (put on ``PYTHONPATH`` of every child), so two commits are each
measured as checked out.  Every workload is closed loop with one client: the
next operation starts when the previous one has exited.  Children run with
the program's defaults (``threads=1``, ``MCDE_THREADS`` and ``MCDE_NUMBA``
unset) and with BLAS pinned to one thread.

Each run: generate the inputs from ``--seed`` (cached per workload and seed,
outside the timed region), time the set-up probe, run operations until
``--seconds`` have passed (at least one), then check every output.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced operations and the last
line carries the per-layer metrics of the traced ones.  Lines before it give
the run manifest, the digest of all scores, and every metric in a table.
The exit code is 1 when any check failed, 2 when the checkout holds no mcde
sources.  See README.md in this directory for the workloads and the layer
table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:  # before numpy loads BLAS in this process too
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from worker import subspaces  # noqa: E402

DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 170.0

# score digests of every workload at DEFAULT_SEED and full size, recorded
# when the benchmark landed; a program change that alters any score fails
RECORDED_DIGESTS = {
    "estimate_csv": "63a3a2bc7a199601",
    "power_n1000": "69e57d97681375ce",
    "subspace_scan": "cac52509462260a6",
    "monitor_stream": "1fd03225c4b4ac37",
}

# the `mcde benchmark power` CSV header this benchmark parses
POWER_COLUMNS = ("kind", "noise", "omega", "n", "d", "m", "gamma", "reps",
                 "mean", "std", "threshold", "power", "seed")

# fresh interpreter: import plus the first estimate on a tiny input
SETUP_PROBE = "import mcde; mcde.contrast(mcde.Dataset([[i % 7, i % 5] for i in range(20)]))"

# metric name -> unit, as declared in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# per-layer metrics every workload reports (its layers run everywhere)
PER_LAYER = {
    "dataset.Dataset.self_s": "s",
    "ranking.construct_index.calls": "count",
    "ranking.build_dimension.self_s": "s",
    "kernels.rank_scan.self_s": "s",
    "contrast.contrast.self_s": "s",
    "contrast.us_per_iteration": "us",
    "rng.iteration_rng.self_s": "s",
    "slicing.draw_slice.self_s": "s",
    "mwp.mwp_test.self_s": "s",
    "kernels.window_stats.self_s": "s",
    "kernels.window_stats.rows": "rows",
    "kernels.window_stats.ns_per_row": "ns/row",
    "kernels.window_stats.bytes_computed": "B",
    "kernels.mask_outside.self_s": "s",
    "kernels.mask_outside.rows": "rows",
    "mwp.degenerate_tied": "count",
    "mwp.degenerate_empty_full": "count",
    "mwp.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
}
# layers that run only in some workloads: printed in the table, not in the
# result line, which must carry the same metrics for every workload
PER_LAYER_WHERE_RUN = {
    "cli.self_s": "s",
    "dataset.load_csv.self_s": "s",
    "dataset.load_csv.mb_per_s": "MB/s",
    "generators.generate.self_s": "s",
    "benchmark.score_sample.self_s": "s",
    "stream.monitor.self_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads; the self-test runs smaller ones."""

    m: int = 50
    csv_rows: int = 1_000_000
    power_reps: int = 200
    scan_n: int = 100_000
    scan_d: int = 6
    stream_rows: int = 3000
    stream_width: int = 900
    window_checks: int = 20
    setup_probes: int = 7


FULL = Sizes()


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MCDE_THREADS", "MCDE_NUMBA", "PYTHONPATH")}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"  # output lines are timestamped as they arrive
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mb: float
    lines: list[str]
    line_times: list[float]
    stderr: str


def run_child(argv: list[str]) -> Child:
    """Run ``argv`` to completion; time it from spawn to reaping and take its
    peak RSS from ``wait4``.  Stdout lines are timestamped on arrival."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        lines, times = [], []
        try:
            for raw in proc.stdout:
                times.append(time.perf_counter())
                lines.append(raw.decode("utf-8", "replace").rstrip("\r\n"))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, lines, times, stderr)


def mcde_cli(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [PY, "-m", "mcde", *args]
    return [PY, str(HERE / "worker.py"), "cli", "--spans", str(spans), "--", *args]


def setup_seconds(probes: int) -> list[float]:
    """Wall time of fresh set-up probes, after one untimed warm-up that lets
    the bytecode cache fill as an installed package's would be."""
    runs = [run_child([PY, "-c", SETUP_PROBE]) for _ in range(probes + 1)]
    for child in runs:
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
    return [child.wall_s for child in runs[1:]]


# ---------------------------------------------------------------------------
# operations, outputs and checks
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One measured operation and what it produced."""

    wall_s: float
    rss_mb: float
    scores: list[float] | None
    problems: list[str] = field(default_factory=list)
    spans: Path | None = None  # set when the operation ran traced
    line_times: list[float] = field(default_factory=list)


def digest(scores: list[float]) -> str:
    text = "\n".join(repr(float(s)) for s in scores)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def score_problems(scores: list[float]) -> list[str]:
    bad = [s for s in scores if not (math.isfinite(s) and 0.0 <= s <= 1.0)]
    return [f"{len(bad)} scores not finite in [0, 1], e.g. {bad[0]!r}"] if bad else []


def tally(ops: list[Op], run_digest: str, expected: str | None) -> tuple[int, int]:
    """(attempted, failed) operations.  Every operation must give the same
    scores as the first; a digest that differs from the recorded one fails
    them all, since each produced the same wrong scores."""
    reference = next((op.scores for op in ops if op.scores is not None), None)
    for op in ops:
        if op.scores is not None and op.scores != reference:
            op.problems.append("scores differ from the first operation's")
        if expected is not None and run_digest != expected:
            op.problems.append(f"score digest {run_digest} != recorded {expected}")
    return len(ops), sum(1 for op in ops if op.problems)


def _mcde():
    """mcde from the checkout, for the offline reference computations."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcde

    return mcde


def _write_csv(path: Path, header: list[str], values: np.ndarray) -> None:
    """Shortest round-trip decimal text, as ``mcde.save_csv`` writes it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, values.shape[0], 100_000):
            rows = values[lo:lo + 100_000].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


class Workload:
    name = ""
    suffix = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        tag = "full" if sizes == FULL else "small"
        inputs = WORK / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.input = inputs / f"{self.name}-{seed}-{tag}{self.suffix}"
        if self.suffix and not self.input.exists():
            for stale in inputs.glob(f"{self.name}-*"):
                stale.unlink()
            tmp = self.input.with_suffix(".tmp")
            self.generate(tmp)
            os.replace(tmp, self.input)

    def generate(self, path: Path) -> None:
        raise NotImplementedError

    def estimates_per_op(self) -> int:
        raise NotImplementedError

    def run(self, budget_s: float, spans: Path | None) -> list[Op]:
        """One child process: one operation, or as many as the scan fits."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Workload-specific checks, after all timing; appends problems."""

    def table(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """Extra end-to-end metrics for the table on stdout."""
        return {}


def _op(child: Child, scores: list[float] | None, problem: str | None, spans) -> Op:
    op = Op(child.wall_s, child.rss_mb, scores, spans=spans, line_times=child.line_times)
    if child.returncode != 0:
        op.problems.append(f"exit code {child.returncode}: {child.stderr.strip()[-300:]}")
    elif problem:
        op.problems.append(problem)
    if op.scores is not None:
        op.problems += score_problems(op.scores)
    return op


class EstimateCsv(Workload):
    """``mcde estimate`` on a 1e6x3 noisy linear CSV: the only workload
    dominated by CSV ingest, and the only one with kernels at n=1e6."""

    name = "estimate_csv"
    suffix = ".csv"

    def generate(self, path: Path) -> None:
        n = self.sizes.csv_rows
        t = self.rng.random(n)
        values = t[:, None] + 0.2 * self.rng.standard_normal((n, 3))
        _write_csv(path, ["x0", "x1", "x2"], values)

    def estimates_per_op(self) -> int:
        return 1

    def run(self, budget_s, spans):
        args = ["estimate", "--input", str(self.input), "--m", str(self.sizes.m),
                "--full-precision"]
        child = run_child(mcde_cli(args, spans))
        try:
            scores, problem = [float(child.lines[-1])], None
        except (IndexError, ValueError):
            scores, problem = None, f"unparseable output {child.lines[-1:]!r}"
        return [_op(child, scores, problem, spans)]

    def check(self, ops):
        mcde = _mcde()
        data = np.loadtxt(self.input, delimiter=",", skiprows=1, dtype=np.float64)
        expected = mcde.contrast(mcde.Dataset(data), m=self.sizes.m).score
        for op in ops:
            if op.scores is not None and op.scores != [expected]:
                op.problems.append(f"score {op.scores[0]!r} != offline {expected!r}")


class PowerN1000(Workload):
    """``mcde benchmark power`` at n=1000, d=3: the paper's power regime,
    where per-iteration fixed cost dominates."""

    name = "power_n1000"

    def estimates_per_op(self) -> int:
        return 2 * self.sizes.power_reps  # null sample plus dependent sample

    def run(self, budget_s, spans):
        args = ["benchmark", "power", "--kind", "linear", "--n", "1000", "--d", "3",
                "--m", str(self.sizes.m), "--reps", str(self.sizes.power_reps),
                "--seed", str(self.seed)]
        child = run_child(mcde_cli(args, spans))
        scores, problem = self.parse(child.lines)
        return [_op(child, scores, problem, spans)]

    def parse(self, lines: list[str]) -> tuple[list[float] | None, str | None]:
        """The score statistics of the one result row, or why it is malformed."""
        if len(lines) != 2 or tuple(lines[0].split(",")) != POWER_COLUMNS:
            return None, f"expected the pinned header and one row, got {lines[:3]!r}"
        row = dict(zip(POWER_COLUMNS, lines[1].split(",")))
        want = {"kind": "linear", "noise": "0.0", "omega": "", "n": "1000", "d": "3",
                "m": str(self.sizes.m), "gamma": "95.0",
                "reps": str(self.sizes.power_reps), "seed": str(self.seed)}
        wrong = {k: row[k] for k, v in want.items() if row.get(k) != v}
        if len(lines[1].split(",")) != len(POWER_COLUMNS) or wrong:
            return None, f"row does not match the pinned schema: {wrong or lines[1]!r}"
        try:
            return [float(row[k]) for k in ("mean", "std", "threshold", "power")], None
        except ValueError:
            return None, f"non-numeric statistics in {lines[1]!r}"


class SubspaceScan(Workload):
    """One index on n=1e5, d=6 with columns 3-5 at 10 levels, then contrast
    on every subspace of 2+ columns: sort once, linear per estimate."""

    name = "subspace_scan"
    suffix = ".npy"

    def generate(self, path: Path) -> None:
        n, d = self.sizes.scan_n, self.sizes.scan_d
        t = self.rng.random(n)
        noise = np.linspace(0.1, 0.6, d)
        values = t[:, None] + noise * self.rng.standard_normal((n, d))
        tied = np.clip(values[:, 3:], 0.0, 1.0)
        values[:, 3:] = np.rint(tied * 9) / 9  # omega = 10 levels, as mcde.discretise
        with open(path, "wb") as fh:
            np.save(fh, values)

    def estimates_per_op(self) -> int:
        return len(subspaces(self.sizes.scan_d))

    def run(self, budget_s, spans):
        argv = [PY, str(HERE / "worker.py"), "scan", "--input", str(self.input),
                "--seconds", repr(max(budget_s, 0.0)), "--m", str(self.sizes.m)]
        child = run_child(argv + (["--spans", str(spans)] if spans else []))
        try:
            out = json.loads(child.lines[-1])
            passes = list(zip(out["walls"], out["scores"]))
        except (IndexError, ValueError, KeyError, TypeError):
            return [_op(child, None, f"unparseable output {child.lines[-1:]!r}", spans)]
        ops = []
        for wall, scores in passes:
            op = _op(child, scores, None, spans)
            op.wall_s = wall  # the pass itself, without the interpreter start
            if len(scores) != self.estimates_per_op():
                op.problems.append(f"{len(scores)} scores for {self.estimates_per_op()} subspaces")
            ops.append(op)
        return ops


class MonitorStream(Workload):
    """``mcde monitor`` with step 1 over a stream that turns from dependent
    to independent halfway: one index rebuild and estimate per row."""

    name = "monitor_stream"
    suffix = ".csv"

    def generate(self, path: Path) -> None:
        rows = self.sizes.stream_rows
        half = rows // 2
        x = self.rng.random(rows)
        y = np.concatenate((x[:half] + 0.05 * self.rng.standard_normal(half),
                            self.rng.random(rows - half)))
        _write_csv(path, ["x", "y"], np.column_stack((x, y)))

    def windows(self) -> int:
        return self.sizes.stream_rows - self.sizes.stream_width + 1

    def estimates_per_op(self) -> int:
        return self.windows()

    def run(self, budget_s, spans):
        args = ["monitor", "--input", str(self.input), "--width", str(self.sizes.stream_width),
                "--step", "1", "--dims", "0,1", "--m", str(self.sizes.m), "--flag-drift",
                "--full-precision"]
        child = run_child(mcde_cli(args, spans))
        scores, problem = self.parse(child.lines)
        op = _op(child, scores, problem, spans)
        op.line_times = child.line_times[1:]  # one per window, after the header
        return [op]

    def parse(self, lines: list[str]) -> tuple[list[float] | None, str | None]:
        if not lines or lines[0] != "row_index,score,flag":
            return None, f"unexpected header {lines[:1]!r}"
        first = self.sizes.stream_width - 1
        expected_rows = list(range(first, self.sizes.stream_rows))
        try:
            rows = [line.split(",") for line in lines[1:]]
            index = [int(r[0]) for r in rows]
            scores = [float(r[1]) for r in rows]
            flags = [int(r[2]) for r in rows]
        except (IndexError, ValueError):
            return None, "malformed window line"
        if index != expected_rows:
            return None, f"windows end at rows {index[:3]}... not {expected_rows[:3]}..."
        below, want = 0, []
        for s in scores:  # the CLI's defaults: threshold 0.55, patience 3
            below = below + 1 if s < 0.55 else 0
            want.append(int(below >= 3))
        if flags != want:
            return scores, "drift flags disagree with the scores"
        return scores, None

    def check(self, ops):
        mcde = _mcde()
        from mcde.stream import window_seed

        data = np.loadtxt(self.input, delimiter=",", skiprows=1, dtype=np.float64)
        width, first = self.sizes.stream_width, self.sizes.stream_width - 1
        picks = np.random.default_rng(self.seed).choice(
            self.windows(), size=min(self.sizes.window_checks, self.windows()), replace=False)
        expected = {}
        for k in sorted(int(p) for p in picks):
            row = first + k
            window = mcde.Dataset(data[row - width + 1:row + 1])
            expected[k] = mcde.contrast(window, m=self.sizes.m, seed=window_seed(0, row)).score
        for op in ops:
            if op.scores is None:
                continue
            wrong = [k for k, s in expected.items() if op.scores[k] != s]
            if wrong:
                op.problems.append(f"{len(wrong)} sampled windows differ from offline contrast")

    def table(self, ops):
        walls = [op.wall_s for op in ops]
        gaps = np.concatenate([np.diff(op.line_times) for op in ops]) * 1e3
        out = {"rows_per_s": (self.sizes.stream_rows * len(walls) / sum(walls), "rows/s")}
        if gaps.size:
            # nearest-rank percentiles; p99 needs >= 1000 gaps for 10 beyond it
            out["window_p50_ms"] = (float(np.percentile(gaps, 50, method="inverted_cdf")), "ms")
            out["window_p99_ms"] = (float(np.percentile(gaps, 99, method="inverted_cdf")), "ms")
            out["window_samples"] = (float(gaps.size), "count")
        return out


WORKLOADS = {w.name: w for w in (EstimateCsv, PowerN1000, SubspaceScan, MonitorStream)}


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_quota() -> str:
    """The cgroup CPU limit (v2 ``cpu.max`` or v1 CFS quota), read only."""
    for quota_file, period_file in (("/sys/fs/cgroup/cpu.max", None),
                                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                                     "/sys/fs/cgroup/cpu/cpu.cfs_period_us")):
        try:
            quota = Path(quota_file).read_text().strip()
            if period_file:
                quota = f"{quota} {Path(period_file).read_text().strip()}"
            return quota
        except OSError:
            continue
    return "unknown"


def manifest() -> dict:
    probe = run_child([PY, str(HERE / "worker.py"), "manifest"])
    info = json.loads(probe.lines[-1]) if probe.returncode == 0 else {"error": probe.stderr[-300:]}
    status = _git("status", "--porcelain", "--untracked-files=no")
    env = child_env()
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "machine": platform.machine(),
        **info,
        "blas_pinned": {var: env[var] for var in BLAS_THREAD_VARS},
        "env": {k: env.get(k, "unset") for k in ("MCDE_THREADS", "MCDE_NUMBA", "PYTHONPATH",
                                                  "PYTHONUNBUFFERED")},
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(ops: list[Op], untraced: list[Op]) -> dict[str, float]:
    """Per-layer metrics per operation, averaged over the traced operations."""
    import tracer as tracing

    per_op = []
    for op in ops:
        layers = tracing.summarise(tracing.load(str(op.spans)))
        layers["trace.unaccounted_s"] = op.wall_s - layers.pop("trace.covered_s")
        per_op.append(layers)
    keys = sorted(set().union(*per_op))
    out = {k: sum(p.get(k, 0.0) for p in per_op) / len(per_op) for k in keys}
    out["trace.overhead_ratio"] = _median(op.wall_s for op in ops) / _median(
        op.wall_s for op in untraced)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        expected_digest: str | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the table lines."""
    w = WORKLOADS[workload](seed, sizes)
    setup = setup_seconds(sizes.setup_probes)

    untraced: list[Op] = []
    traced: list[Op] = []
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < seconds:
        if trace:
            # one untraced and one traced operation per pair, for the overhead
            untraced += w.run(0.0, None)
            traced += w.run(0.0, spans_dir / f"{workload}-{len(traced)}.npz")
        else:
            untraced += w.run(seconds - (time.perf_counter() - t0), None)

    ops = untraced + traced
    w.check(ops)
    scores = next((op.scores for op in ops if op.scores is not None), [])
    run_digest = digest(scores)
    if expected_digest is None and seed == DEFAULT_SEED and sizes == FULL:
        expected_digest = RECORDED_DIGESTS.get(workload)
    attempted, failed = tally(ops, run_digest, expected_digest)

    walls = [op.wall_s for op in untraced]
    e2e = {
        "setup_s": _median(setup),
        "wall_s": _median(walls),
        "estimates_per_s": w.estimates_per_op() * len(walls) / sum(walls),
        "peak_rss_mb": _median(op.rss_mb for op in untraced),
    }
    lines = [f"manifest {json.dumps(manifest(), sort_keys=True)}",
             f"digest {workload} seed={seed} {run_digest} over {len(scores)} scores"]
    for op in ops:
        for problem in op.problems:
            lines.append(f"FAILED {workload} {'traced' if op.spans else 'untraced'} op: {problem}")
    table = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    table.update(w.table(untraced))
    table["error_rate"] = (failed / attempted, "ratio")
    table["operations"] = (float(len(untraced)), "count")

    if trace:
        layers = layer_metrics(traced, untraced)
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER_WHERE_RUN.items():
            if layers.get(name.rsplit(".", 1)[0] + ".calls", 0) > 0:
                table[name] = (layers[name], unit)
        table.update({name: (value, PER_LAYER[name]) for name, value in metrics.items()})
    else:
        metrics, units = e2e, END_TO_END
    for name, (value, unit) in table.items():
        lines.append(f"{workload:<15} {name:<38} {value:>16.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcde" / "__init__.py").is_file():
        print(f"perfbench: no mcde sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    record = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"lines": lines, "result": result}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
