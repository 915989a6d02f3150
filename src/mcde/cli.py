"""Command-line interface: estimate, generate, benchmark, monitor.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 data error.  Every command defaults its seed and prints
the effective value to stderr so published numbers stay reproducible.
"""

from __future__ import annotations

import argparse
import io
import sys

from . import __version__
from .benchmark import (
    power,
    results_csv,
    robustness_sweep,
    runtime_csv,
    runtime_profile,
    score_distribution,
)
from .contrast import _check_args, contrast
from .dataset import (DataError, _decode_error_line, _looks_numeric, csv_blocks, load_csv,
                      read_csv, select_subspace, write_csv)
from .generators import DEPENDENCY_KINDS, DependencySpec, generate
from .ranking import construct_index
from .stream import RowError, StreamFormatError, WindowConfig, _monitor


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _diag(message: str) -> None:
    print(f"# {message}", file=sys.stderr)


def _fmt(value: float, full_precision: bool) -> str:
    if full_precision:
        return repr(float(value))
    text = format(float(value), ".6g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _one_char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _header_mode(text: str) -> bool | None:
    try:
        return {"auto": None, "yes": True, "no": False}[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto', 'yes' or 'no', got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    if args.input == "-":
        # stdin is read as a file is: UTF-8 with an optional BOM, line ends kept
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", newline="")
        try:
            ds = read_csv(stdin, has_header=args.header, delimiter=args.delimiter)
        finally:
            stdin.detach()  # so that closing the wrapper leaves stdin open
    else:
        ds = load_csv(args.input, has_header=args.header, delimiter=args.delimiter)
    if args.dims is not None:
        ds = select_subspace(ds, args.dims)
    _diag(f"seed={args.seed} m={args.m} alpha={args.alpha}")
    _check_args(args.m, args.alpha, args.seed, ds.n, ds.d)
    # score the index alone, so the values are freed before scoring allocates
    index = construct_index(ds)
    del ds
    estimate = contrast(index, m=args.m, alpha=args.alpha, seed=args.seed)
    print(_fmt(estimate.score, args.full_precision))
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = DependencySpec(args.kind, args.n, args.d, args.noise, args.seed)
    _diag(f"seed={args.seed} kind={args.kind} n={args.n} d={args.d} noise={args.noise}")
    write_csv(generate(spec), sys.stdout, delimiter=args.delimiter)
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

_BENCH_DEFAULTS: dict[str, dict] = {
    "power": dict(kind="linear", noise=0.0, omega=None, n=1000, d=3, m=50,
                  gamma=95.0, reps=500, alpha=0.5, seed=0, threshold=None),
    "distribution": dict(kind="linear", noise=0.0, n=1000, d=3, m=50,
                         reps=500, alpha=0.5, seed=0),
    "robustness": dict(omegas=(1, 2, 5, 10, 100), noises=(0.0, 0.5, 1.0),
                       kinds=("linear", "independent"), n=1000, d=3, m=50,
                       gamma=95.0, reps=500, alpha=0.5, seed=0),
    "runtime": dict(n_values=(1000, 10000), d_values=(2, 3, 5), m=50,
                    reps=10, alpha=0.5, seed=0),
}

_LIST_PARSERS = {
    "omegas": _int_list,
    "noises": _float_list,
    "kinds": _str_list,
    "n_values": _int_list,
    "d_values": _int_list,
}


def _read_config(path: str, defaults: dict) -> dict:
    """Flat key=value file; '#' starts a comment, keys match the flag names."""
    out: dict = {}
    line_no = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(
                        f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in defaults:
                    raise DataError(f"{path}:{line_no}: unknown key {key!r}")
                try:
                    out[key] = _flag_type(key, defaults[key])(value)
                except ValueError as exc:
                    raise DataError(
                        f"{path}:{line_no}: invalid value for {key}: {exc}") from None
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.start + 1]
            raise DataError(f"{path}:{_decode_error_line(exc, line_no)}: cannot decode "
                            f"byte {bad!r} as {exc.encoding}") from None
    return out


def _flag_type(key: str, template):
    """Parser of one benchmark setting, for its flag and its config value."""
    if key in _LIST_PARSERS:
        return _LIST_PARSERS[key]
    if key == "omega":  # optional numerics: their default is None
        return int
    if key == "threshold":
        return float
    return type(template)


def _merge_bench(args) -> dict:
    cfg = dict(_BENCH_DEFAULTS[args.bench_command])
    if args.config:
        cfg.update(_read_config(args.config, _BENCH_DEFAULTS[args.bench_command]))
    for key in _BENCH_DEFAULTS[args.bench_command]:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _cmd_benchmark(args) -> int:
    cfg = _merge_bench(args)
    _diag(f"benchmark {args.bench_command} " +
          " ".join(f"{k}={v}" for k, v in sorted(cfg.items())))

    if args.bench_command == "power":
        spec = DependencySpec(cfg["kind"], cfg["n"], cfg["d"], cfg["noise"], seed=0)
        row = power(spec, gamma=cfg["gamma"], reps=cfg["reps"], m=cfg["m"],
                    alpha=cfg["alpha"], seed=cfg["seed"], threshold=cfg["threshold"],
                    omega=cfg["omega"])
        sys.stdout.write(results_csv([row]))
    elif args.bench_command == "distribution":
        spec = DependencySpec(cfg["kind"], cfg["n"], cfg["d"], cfg["noise"], seed=0)
        row = score_distribution(spec, reps=cfg["reps"], m=cfg["m"],
                                 alpha=cfg["alpha"], seed=cfg["seed"])
        sys.stdout.write(results_csv([row]))
    elif args.bench_command == "robustness":
        rows = robustness_sweep(cfg["omegas"], cfg["noises"], kinds=cfg["kinds"],
                                n=cfg["n"], d=cfg["d"], m=cfg["m"], gamma=cfg["gamma"],
                                reps=cfg["reps"], alpha=cfg["alpha"], seed=cfg["seed"])
        sys.stdout.write(results_csv(rows))
    else:
        rows = runtime_profile(cfg["n_values"], cfg["d_values"], m=cfg["m"],
                               reps=cfg["reps"], alpha=cfg["alpha"], seed=cfg["seed"])
        sys.stdout.write(runtime_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def _cmd_monitor(args) -> int:
    cfg = WindowConfig(
        width=args.width,
        dims=args.dims,
        step=args.step,
        m=args.m,
        alpha=args.alpha,
        seed=args.seed,
        drift_threshold=args.drift_threshold,
        drift_patience=args.drift_patience,
    )
    _diag(f"seed={args.seed} width={args.width} step={args.step} "
          f"dims={','.join(map(str, cfg.dims))}")

    fh = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    try:
        # a block is the rows of one read, which takes what the input holds:
        # no window waits for a row not yet written, and a burst is scored
        # in stacks
        blocks = csv_blocks(fh, delimiter=args.delimiter)
        block = next(blocks, None)
        if block is None:
            raise DataError("empty stream")
        # a header names the monitored columns; a row too short for them is
        # a malformed row, which monitor reports at row 0
        head = block[0][1]
        if not _looks_numeric([head[j] for j in cfg.dims if j in range(len(head))]):
            _diag("skipping header row")
            del block[0]

        print("row_index,score,flag" if args.flag_drift else "row_index,score")
        emitted = 0
        consumed = 0
        lines: list[int] = []  # the file line of each row of the block read last

        def numbered(block):
            nonlocal consumed
            while block is not None:
                lines[:] = [line for line, _ in block]
                consumed += len(block)
                yield [row for _, row in block]
                # the block's windows are printed: hand them on before a read waits
                sys.stdout.flush()
                block = next(blocks, None)

        def located(event: RowError | StreamFormatError) -> str:
            # every event is of a row of the last block, whose first row is
            # row consumed - len(lines)
            return _located(event, lines[event.row_index - (consumed - len(lines))])

        try:
            for event in _monitor(numbered(block), cfg, not args.lenient):
                if isinstance(event, RowError):
                    _diag(f"skipped {located(event)}")
                    continue
                score = _fmt(event.estimate.score, args.full_precision)
                if args.flag_drift:
                    print(f"{event.row_index},{score},{int(event.flag)}")
                else:
                    print(f"{event.row_index},{score}")
                emitted += 1
        except StreamFormatError as exc:
            raise DataError(located(exc)) from None
        if emitted == 0:
            _diag(f"end of stream after {consumed} rows; window of {cfg.width} never filled")
    finally:
        if args.input != "-":
            fh.close()
    return 0


def _located(error: RowError | StreamFormatError, line: int) -> str:
    """A malformed row's reason, with its file line and the column of a bad
    cell, as estimate reports them."""
    where = f"line {line}" if error.column is None else f"line {line}, column {error.column}"
    return f"row {error.row_index}: {error.reason} at {where}"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcde", description="Monte Carlo dependency estimation (MWP)")
    parser.add_argument("--version", action="version", version=f"mcde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    est = sub.add_parser("estimate", help="score the dependency of a CSV dataset")
    est.add_argument("--input", required=True, help="CSV path, or '-' for stdin")
    est.add_argument("--dims", type=_int_list, default=None,
                     help="comma-separated column indices (default: all)")
    est.add_argument("--m", type=int, default=50, help="Monte Carlo iterations")
    est.add_argument("--alpha", type=float, default=0.5, help="expected slice fraction")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--header", type=_header_mode, default=None,
                     metavar="{auto,yes,no}",
                     help="whether the first row is a header (default: auto)")
    est.add_argument("--delimiter", type=_one_char, default=",")
    est.add_argument("--full-precision", action="store_true",
                     help="print the exact score instead of 6 significant digits")
    est.set_defaults(func=_cmd_estimate)

    gen = sub.add_parser("generate", help="emit a synthetic dependency as CSV")
    gen.add_argument("--kind", required=True, choices=DEPENDENCY_KINDS)
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--d", type=int, default=3)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--delimiter", type=_one_char, default=",")
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("benchmark", help="emit benchmark tables as CSV")
    bsub = bench.add_subparsers(dest="bench_command", required=True, parser_class=_Parser)
    for name in ("power", "distribution", "robustness", "runtime"):
        bp = bsub.add_parser(name)
        bp.add_argument("--config", default=None, help="flat key=value config file")
        defaults = _BENCH_DEFAULTS[name]
        for key, template in defaults.items():
            bp.add_argument("--" + key.replace("_", "-"), type=_flag_type(key, template),
                            choices=DEPENDENCY_KINDS if key == "kind" else None,
                            default=None)
        bp.set_defaults(func=_cmd_benchmark)

    mon = sub.add_parser("monitor", help="sliding-window scores over streaming CSV rows")
    mon.add_argument("--width", type=int, required=True, help="window size in rows")
    mon.add_argument("--step", type=int, default=1, help="rows between evaluations")
    mon.add_argument("--dims", type=_int_list, required=True,
                     help="comma-separated monitored column indices")
    mon.add_argument("--m", type=int, default=50)
    mon.add_argument("--alpha", type=float, default=0.5)
    mon.add_argument("--seed", type=int, default=0)
    mon.add_argument("--input", default="-", help="CSV path, or '-' for stdin (default)")
    mon.add_argument("--delimiter", type=_one_char, default=",")
    mon.add_argument("--lenient", action="store_true",
                     help="skip malformed rows instead of aborting")
    mon.add_argument("--flag-drift", action="store_true",
                     help="append a drift flag column")
    mon.add_argument("--drift-threshold", type=float, default=0.55)
    mon.add_argument("--drift-patience", type=int, default=3)
    mon.add_argument("--full-precision", action="store_true")
    mon.set_defaults(func=_cmd_monitor)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    # an OSError is a path that cannot be read, such as a directory
    except (DataError, OSError) as exc:
        print(f"mcde: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"mcde: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
