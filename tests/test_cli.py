import io
import os
import re
import select
import subprocess
import sys
import time

import numpy as np
import pytest

import mcde
import mcde.cli
import mcde.dataset
from mcde.cli import run
from oracles import csv_string


def _stdin(data):
    """A stdin of ``data`` (text or bytes) that, as a real one, reads text
    and has a binary ``buffer``."""
    raw = data.encode() if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def _run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", _stdin(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_csv(tmp_path, name, kind="linear", n=300, d=2, noise=0.0, seed=3):
    ds = mcde.generate(mcde.DependencySpec(kind, n, d, noise, seed))
    path = tmp_path / name
    path.write_text(csv_string(ds))
    return path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for sub in ("estimate", "generate", "benchmark", "monitor"):
        assert run([sub, "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    code, out, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "usage" in err


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = _run(capsys, ["generate", "--kind", "linear", "--wat", "1"])
    assert code == 1
    assert "usage" in err


def test_missing_input_is_usage_error(capsys):
    code, out, err = _run(capsys, ["estimate"])
    assert code == 1
    assert "usage" in err


def test_missing_file_is_data_error(capsys):
    code, out, err = _run(capsys, ["estimate", "--input", "/no/such/file.csv"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--m", "5", "--input"],
    ["monitor", "--width", "10", "--dims", "0,1", "--input"],
    ["benchmark", "power", "--reps", "2", "--config"],
])
def test_unreadable_path_is_data_error(capsys, tmp_path, argv):
    code, out, err = _run(capsys, argv + [str(tmp_path)])
    assert code == 2
    assert out == ""
    assert f"mcde: error: [Errno 21] Is a directory: {str(tmp_path)!r}\n" in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_zero(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert run(["generate", "--kind", "linear", "--n", "10"]) == 0
    assert "error" not in capsys.readouterr().err


def test_parse_error_reports_location(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,oops\n")
    code, out, err = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("data", [
    b"a,b\n0.1,0.2\n0.3,\xff\n",
    b'a,b\n0.1,0.2\n0.3,"' + b"9" * 200_000 + b'"\n',
])
def test_undecodable_or_oversized_input_is_data_error(capsys, tmp_path, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = _run(capsys, ["estimate", "--input", str(path)])
    assert code == 2
    assert "line 3" in err and "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    (b"a,b\n0.1,0.2\n0.3,\xff\n", r"cannot decode byte b'\\xff' as utf-8 at line 3"),
    (b'a,b\n0.1,0.2\n0.3,"' + b"9" * 200_000 + b'"\n',
     r"field larger than field limit \(131072\) at line 3"),
], ids=["undecodable", "oversized"])
def test_monitor_undecodable_or_oversized_input_is_data_error(capsys, tmp_path, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,1",
                                   "--input", str(path)])
    assert code == 2
    assert re.fullmatch(f"mcde: error: {message}", err.splitlines()[-1])
    assert "Traceback" not in err


def test_estimate_constant_columns_prints_zero(capsys, tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("x,y\n" + "1.0,1.0\n" * 100)
    code, out, err = _run(capsys, ["estimate", "--input", str(path), "--m", "50",
                                   "--seed", "0"])
    assert code == 0
    assert out == "0.0\n"
    assert "seed=0" in err


def test_estimate_seed_past_64_bits_is_usage_error(capsys, tmp_path):
    # seed 2**64 would alias seed 0 in the 64-bit Philox key
    path = _write_csv(tmp_path, "lin.csv", noise=0.5)
    code, out, err = _run(capsys, ["estimate", "--input", str(path), "--seed", str(2**64)])
    assert code == 1
    assert out == ""
    assert "seed must be below 2**64, got 18446744073709551616" in err
    code, out, _ = _run(capsys, ["estimate", "--input", str(path), "--seed", str(2**64 - 1)])
    assert code == 0 and float(out) >= 0.0


@pytest.mark.parametrize("argv, stdin_text", [
    (["generate", "--kind", "linear", "--n", "20", "--noise", "0.5"], None),
    (["benchmark", "distribution", "--kind", "linear", "--n", "60", "--d", "2",
      "--m", "10", "--reps", "3"], None),
    (["monitor", "--width", "20", "--step", "5", "--dims", "0,1", "--m", "10"],
     "\n".join(f"{i * 0.37 % 1:.4f},{i * 0.61 % 1:.4f}" for i in range(40)) + "\n"),
])
def test_seeds_past_64_bits_derive_their_own_streams(capsys, monkeypatch, argv, stdin_text):
    """generate, benchmark and monitor derive child seeds through
    SeedSequence, which tells 2**64 from 0, so they accept it."""
    outputs = []
    for seed in (0, 2**64):
        code, out, _ = _run(capsys, [*argv, "--seed", str(seed)], stdin_text, monkeypatch)
        assert code == 0
        outputs.append(out.replace(f",{seed}\n", "\n"))
    assert outputs[0] != outputs[1]


def test_estimate_six_significant_digits(capsys, tmp_path):
    path = _write_csv(tmp_path, "lin.csv")
    code, out, err = _run(capsys, ["estimate", "--input", str(path), "--seed", "42"])
    assert code == 0
    value = out.strip()
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 6
    assert float(value) > 0.9


def test_estimate_full_precision_roundtrip(capsys, tmp_path):
    path = _write_csv(tmp_path, "lin.csv")
    code, out, _ = _run(capsys, ["estimate", "--input", str(path), "--seed", "42",
                                 "--full-precision"])
    expected = mcde.contrast(mcde.load_csv(str(path)), m=50, seed=42).score
    assert float(out) == expected


def test_estimate_dims_subset(capsys, tmp_path):
    path = _write_csv(tmp_path, "wide.csv", kind="independent", d=4)
    code, out, _ = _run(capsys, ["estimate", "--input", str(path), "--dims", "0,2",
                                 "--seed", "7", "--full-precision"])
    ds = mcde.select_subspace(mcde.load_csv(str(path)), [0, 2])
    assert float(out) == mcde.contrast(ds, m=50, seed=7).score


def test_estimate_identical_argv_identical_stdout(capsys, tmp_path):
    path = _write_csv(tmp_path, "lin.csv")
    argv = ["estimate", "--input", str(path), "--seed", "5"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "data.csv"],
    ["benchmark", "power"],
    ["benchmark", "distribution"],
    ["benchmark", "robustness"],
    ["benchmark", "runtime"],
])
def test_threads_flag_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv + ["--threads", "2"])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("delimiter", [";;", ""])
@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "data.csv"],
    ["generate", "--kind", "linear"],
    ["monitor", "--width", "10", "--dims", "0,1"],
])
def test_delimiter_of_other_than_one_character_is_usage_error(capsys, argv, delimiter):
    code, out, err = _run(capsys, argv + [f"--delimiter={delimiter}"])
    assert code == 1
    assert out == ""
    assert f"error: argument --delimiter: expected one character, got {delimiter!r}" in err


def test_estimate_ignores_mcde_threads(capsys, tmp_path, monkeypatch):
    path = _write_csv(tmp_path, "lin.csv", kind="hourglass", noise=0.3)
    argv = ["estimate", "--input", str(path), "--seed", "5", "--full-precision"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("MCDE_THREADS", "abc")
    assert _run(capsys, argv) == (0, out, err)


def test_estimate_stdin(capsys, monkeypatch, tmp_path):
    text = csv_string(
        mcde.generate(mcde.DependencySpec("linear", 200, 2, 0.0, seed=1))
    )
    code, out, _ = _run(capsys, ["estimate", "--input", "-", "--seed", "1"],
                        stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert float(out) >= 0.95


def test_estimate_header_modes(capsys, tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("0.1,0.9\n0.4,0.2\n0.5,0.8\n0.2,0.3\n")
    code, out, _ = _run(capsys, ["estimate", "--input", str(path), "--header", "no"])
    assert code == 0
    # treating the first numeric row as a header drops one observation
    code2, out2, _ = _run(capsys, ["estimate", "--input", str(path), "--header", "yes"])
    assert code2 == 0


def test_generate_emits_loadable_csv(capsys, tmp_path):
    code, out, err = _run(capsys, ["generate", "--kind", "hypersphere", "--n", "50",
                                   "--d", "3", "--noise", "0.0", "--seed", "7"])
    assert code == 0
    ds = mcde.read_csv(io.StringIO(out))
    assert ds.n == 50 and ds.d == 3
    assert ds == mcde.generate(mcde.DependencySpec("hypersphere", 50, 3, 0.0, 7))


def test_generate_deterministic_stdout(capsys):
    argv = ["generate", "--kind", "cross", "--n", "20", "--d", "2", "--seed", "9"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_generate_rejects_unknown_kind(capsys):
    code, _, err = _run(capsys, ["generate", "--kind", "spiral"])
    assert code == 1


@pytest.mark.parametrize("noise, message", [
    ("nan", "noise must be finite, got nan"),
    ("inf", "noise must be finite, got inf"),
    ("-inf", "noise must be >= 0, got -inf"),
])
def test_generate_rejects_a_non_finite_noise(capsys, noise, message):
    code, out, err = _run(capsys, ["generate", "--kind", "linear", "--n", "3", "--d", "2",
                                   f"--noise={noise}"])
    assert code == 1
    assert out == ""
    assert f"mcde: error: {message}" in err


def test_benchmark_power_schema(capsys):
    code, out, _ = _run(capsys, ["benchmark", "power", "--kind", "linear",
                                 "--n", "150", "--d", "2", "--m", "10",
                                 "--reps", "5", "--threshold", "0.9"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kind,noise,omega,n,d,m,gamma,reps,mean,std,threshold,power,seed"
    assert lines[1].startswith("linear,")


def test_benchmark_power_deterministic(capsys):
    argv = ["benchmark", "power", "--kind", "parabolic", "--n", "120", "--d", "2",
            "--m", "8", "--reps", "5", "--seed", "3", "--threshold", "0.5"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("argv, message", [
    (["power", "--gamma", "150", "--threshold", "0.5"], "gamma must be in (0, 100), got 150.0"),
    (["power", "--gamma", "100"], "gamma must be in (0, 100), got 100.0"),
    (["power", "--omega", "0"], "omega must be >= 1, got 0"),
    (["robustness", "--kinds", "linear,foo"], "unknown dependency kind 'foo'"),
    (["robustness", "--omegas", "2,0"], "omega must be >= 1, got 0"),
    (["power", "--threshold", "nan"], "threshold must be finite, got nan"),
    (["power", "--noise", "inf"], "noise must be finite, got inf"),
    (["robustness", "--noises", "nan", "--omegas", "2"], "noise must be finite, got nan"),
])
def test_benchmark_rejects_bad_arguments_before_scoring(capsys, monkeypatch, argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("scored before the arguments were checked")
    monkeypatch.setattr(mcde.benchmark, "score_sample", fail)
    code, out, err = _run(capsys, ["benchmark", *argv, "--reps", "500"])
    assert code == 1
    assert out == ""
    assert f"mcde: error: {message}" in err


def test_benchmark_distribution(capsys):
    code, out, _ = _run(capsys, ["benchmark", "distribution", "--kind", "independent",
                                 "--n", "150", "--d", "2", "--m", "8", "--reps", "6"])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert 0.2 < float(row[8]) < 0.8  # mean column


def test_benchmark_distribution_output_is_pinned(capsys):
    code, out, _ = _run(capsys, ["benchmark", "distribution", "--kind", "independent",
                                 "--n", "100", "--d", "2", "--m", "5", "--reps", "3",
                                 "--seed", "4"])
    assert code == 0
    assert out == (
        "kind,noise,omega,n,d,m,gamma,reps,mean,std,threshold,power,seed\n"
        "independent,0.0,,100,2,5,0.0,3,0.38061151203445265,0.06685684974241103,,,4\n")


def test_benchmark_robustness(capsys):
    code, out, _ = _run(capsys, ["benchmark", "robustness", "--omegas", "1,3",
                                 "--noises", "0.0", "--kinds", "linear",
                                 "--n", "120", "--d", "2", "--m", "8", "--reps", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + 2 omega rows


def test_benchmark_runtime(capsys):
    code, out, _ = _run(capsys, ["benchmark", "runtime", "--n-values", "150",
                                 "--d-values", "2", "--m", "5", "--reps", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,d,m,reps,index_s,contrast_s,total_s"
    assert len(lines) == 2


def _no_index_build(monkeypatch, module):
    def fail(*args, **kwargs):
        raise AssertionError("an index was built before the shape was checked")

    monkeypatch.setattr(module, "construct_index", fail)


@pytest.mark.parametrize("cells, message", [
    (["--n-values", "150", "--d-values", "3,1"], "contrast needs at least 2 dimensions, got d=1"),
    (["--n-values", "150,1", "--d-values", "2"], "contrast needs at least 2 rows, got n=1"),
])
def test_benchmark_runtime_rejects_a_bad_cell_before_timing_any(capsys, monkeypatch, cells, message):
    _no_index_build(monkeypatch, mcde.benchmark)
    code, out, err = _run(capsys, ["benchmark", "runtime", *cells, "--m", "5", "--reps", "2"])
    assert code == 1
    assert out == ""
    assert err.endswith(f"mcde: error: {message}\n")


@pytest.mark.parametrize("text, dims, message", [
    ("a,b\n1,2\n3,4\n", ["--dims", "0"], "contrast needs at least 2 dimensions, got d=1"),
    ("a,b\n1,2\n", [], "contrast needs at least 2 rows, got n=1"),
])
def test_estimate_rejects_a_bad_shape_before_building_the_index(
        capsys, monkeypatch, tmp_path, text, dims, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    _no_index_build(monkeypatch, mcde.cli)
    code, out, err = _run(capsys, ["estimate", "--input", str(path), *dims])
    assert code == 1
    assert out == ""
    assert err.endswith(f"mcde: error: {message}\n")


def test_benchmark_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("kind=linear\nn=120\nd=2\nm=8\nreps=4\nthreshold=0.9\n# comment\n")
    base = ["benchmark", "power", "--config", str(cfg)]
    code, out, _ = _run(capsys, base)
    assert code == 0
    assert ",120,2,8," in out
    code, out, _ = _run(capsys, base + ["--n", "130"])
    assert ",130,2,8," in out


def test_benchmark_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = _run(capsys, ["benchmark", "power", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("entry", ["reps=abc", "gamma=high", "omega=none"])
def test_benchmark_config_bad_value_names_file_and_line(capsys, tmp_path, entry):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n=120\n# comment\n{entry}\n")
    code, _, err = _run(capsys, ["benchmark", "power", "--config", str(cfg)])
    assert code == 2
    key = entry.split("=")[0]
    assert err.startswith(f"mcde: error: {cfg}:3: invalid value for {key}: ")


@pytest.mark.parametrize("content, line", [
    (b"reps=2\n\xff=1\n", 2),
    (b"\xff", 1),
    (b"# padding past the decoder's first chunk\n" * 300 + b"n=120\r\nreps=\xff\n", 302),
])
def test_benchmark_config_undecodable_byte_names_file_and_line(capsys, tmp_path, content, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    code, out, err = _run(capsys, ["benchmark", "power", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err == f"mcde: error: {cfg}:{line}: cannot decode byte b'\\xff' as utf-8\n"


def test_monitor_stdin_to_stdout(capsys, monkeypatch):
    text = csv_string(
        mcde.generate(mcde.DependencySpec("independent", 30, 2, 0.0, seed=2))
    )
    code, out, err = _run(capsys, ["monitor", "--width", "20", "--step", "5",
                                   "--dims", "0,1", "--m", "10", "--seed", "4"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row_index,score"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [19, 24, 29]


def test_monitor_flag_column(capsys, monkeypatch):
    rows = "\n".join("1.0,1.0" for _ in range(12)) + "\n"
    code, out, _ = _run(capsys, ["monitor", "--width", "5", "--dims", "0,1",
                                 "--m", "5", "--flag-drift", "--drift-patience", "2"],
                        stdin_text=rows, monkeypatch=monkeypatch)
    lines = out.strip().split("\n")
    assert lines[0] == "row_index,score,flag"
    assert lines[-1].endswith(",1")  # constant stream ends flagged


def test_monitor_short_stream_reports_on_stderr(capsys, monkeypatch):
    code, out, err = _run(capsys, ["monitor", "--width", "50", "--dims", "0,1"],
                          stdin_text="0.1,0.2\n0.3,0.4\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "row_index,score\n"
    assert "never filled" in err


def test_monitor_negative_column_index_is_rejected(capsys, monkeypatch):
    # as for estimate --dims: a negative index would pick a column from the end
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "1,-1", "--m", "5"],
                          stdin_text="0.1,0.2\n0.3,0.1\n0.6,0.9\n0.2,0.4\n",
                          monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "column index -1 out of range" in err


def test_monitor_non_finite_drift_threshold_is_rejected(capsys, monkeypatch):
    # score < nan is always false, so a NaN threshold would never flag
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,1", "--m", "5",
                                   "--flag-drift", "--drift-threshold", "nan"],
                          stdin_text="0.1,0.2\n0.3,0.1\n0.6,0.9\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "drift_threshold must be finite, got nan" in err


def test_monitor_strict_malformed_row(capsys, monkeypatch):
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,1"],
                          stdin_text="0.1,0.2\nbad,0.4\n", monkeypatch=monkeypatch)
    assert code == 2
    # the file line and 1-based column, as estimate reports a bad cell
    assert err.endswith("mcde: error: row 1: cannot parse 'bad' as a number at line 2, column 1\n")


def test_monitor_skips_a_header_with_a_numeric_name(capsys, monkeypatch):
    text = "name,2019\n0.1,0.2\n0.3,0.1\n0.6,0.9\n"
    code, out, err = _run(capsys, ["monitor", "--width", "3", "--dims", "0,1", "--m", "5"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "skipping header row" in err
    lines = out.strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["2"]  # the header is no row


@pytest.mark.parametrize("first", ["1", "0.5,0.7"])
def test_monitor_short_first_row_is_malformed(capsys, monkeypatch, first):
    # too short for --dims 0,2: the same error as anywhere else in the stream
    text = first + "\n0.1,0.2,0.3\n0.3,0.1,0.5\n0.6,0.9,0.2\n"
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,2", "--m", "5"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2
    assert "skipping header row" not in err
    cells = first.count(",") + 1
    assert f"mcde: error: row 0: row has {cells} cells, need columns [0, 2]" in err


def test_monitor_lenient_reports_a_short_first_row(capsys, monkeypatch):
    text = "1\n0.1,0.2\n0.3,0.1\n0.6,0.9\n"
    code, out, err = _run(capsys, ["monitor", "--width", "3", "--dims", "0,1",
                                   "--m", "5", "--lenient"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "skipped row 0: row has 1 cells, need columns [0, 1]" in err
    assert "skipping header row" not in err
    lines = out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("3,")  # one emission


def test_monitor_lenient_skips(capsys, monkeypatch):
    text = "0.1,0.2\nbad,0.4\n0.3,0.1\n0.6,0.9\n0.5,inf\n"
    code, out, err = _run(capsys, ["monitor", "--width", "3", "--dims", "0,1",
                                   "--m", "5", "--lenient"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "# skipped row 1: cannot parse 'bad' as a number at line 2, column 1\n" in err
    assert "# skipped row 4: non-finite value 'inf' at line 5, column 2\n" in err
    assert out.count("\n") == 2  # header + one emission


@pytest.mark.parametrize("lenient", [[], ["--lenient"]])
@pytest.mark.parametrize("text", [
    "0.1,0.2\n0.3,0.1\n0.6,0.9\n0.2,0.4\n\n",          # a blank last line
    "\n0.1,0.2\n0.3,0.1\n0.6,0.9\n0.2,0.4\n",          # a blank first line
    "x,y\n\n0.1,0.2\n0.3,0.1\r\n\r\n0.6,0.9\n\n\n0.2,0.4\n",
])
def test_monitor_skips_blank_lines(capsys, monkeypatch, text, lenient):
    # blank lines are no rows, as for estimate: the emissions, their row
    # indexes and seeds, are those of the stream without them
    argv = ["monitor", "--width", "2", "--dims", "0,1", "--m", "5", *lenient]
    code, out, err = _run(capsys, argv, stdin_text=text, monkeypatch=monkeypatch)
    assert (code, "skipped row" in err) == (0, False)
    plain = "0.1,0.2\n0.3,0.1\n0.6,0.9\n0.2,0.4\n"
    assert (code, out) == _run(capsys, argv, stdin_text=plain, monkeypatch=monkeypatch)[:2]
    assert [line.split(",")[0] for line in out.split()[1:]] == ["1", "2", "3"]


def test_monitor_bad_cell_after_blank_lines_names_its_file_line(capsys, monkeypatch):
    text = "a,b,c\n\n0.1,0.2,0.3\n\n0.4,0.5,x\n"
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,2"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2
    assert err.endswith("mcde: error: row 1: cannot parse 'x' as a number at line 5, column 3\n")


def _stream_text(levels=None, n=700, seed=5):
    """A header and n rows of two dependent columns, rounded to ``levels``
    levels when given."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    rows = np.column_stack((x, x + 0.2 * rng.standard_normal(n)))
    if levels:
        rows = np.floor(rows * levels) / levels
    return "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows.tolist())


def _from_file_and_stdin(capsys, monkeypatch, tmp_path, argv, data):
    """``mcde monitor`` on ``data`` (text or bytes) from a file and from
    stdin; asserts the two give the same exit code, stdout and stderr, and
    returns them.  Stdin is read 1000 bytes at a time, as a pipe may return
    less than a file, so its blocks and reads differ from the file's."""
    path = tmp_path / "stream.csv"
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    from_file = _run(capsys, [*argv, "--input", str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(mcde.dataset, "_READ_SIZE", 1000)
        assert from_file == _run(capsys, argv, stdin_text=data, monkeypatch=patch)
    return from_file


@pytest.mark.parametrize("step", [1, 7, 8, 20])
@pytest.mark.parametrize("levels", [None, 10])
def test_monitor_file_prints_what_stdin_prints(capsys, monkeypatch, tmp_path, step, levels):
    argv = ["monitor", "--width", "30", "--step", str(step), "--dims", "0,1", "--m", "10",
            "--flag-drift", "--full-precision"]
    code, out, err = _from_file_and_stdin(capsys, monkeypatch, tmp_path, argv,
                                          _stream_text(levels))
    assert code == 0
    assert [int(line.split(",")[0]) for line in out.split()[1:]] == list(range(29, 700, step))


# a BOM and CRLF or CR line ends, which a file may have; each changes no result
_BOM_AND_LINE_ENDS = pytest.mark.parametrize("encode", [
    lambda text: "\ufeff" + text,
    lambda text: text.replace("\n", "\r\n"),
    lambda text: "\ufeff" + text.replace("\n", "\r"),
], ids=["bom", "crlf", "bom-cr"])


@_BOM_AND_LINE_ENDS
def test_monitor_line_ends_and_a_bom_change_nothing(capsys, monkeypatch, tmp_path, encode):
    # a BOM is no part of the first row, which is no header, and every line
    # end ends a row
    argv = ["monitor", "--width", "30", "--step", "7", "--dims", "0,1", "--m", "10",
            "--full-precision"]
    text = _stream_text().split("\n", 1)[1]
    plain = _run(capsys, argv, stdin_text=text, monkeypatch=monkeypatch)
    assert _from_file_and_stdin(capsys, monkeypatch, tmp_path, argv, encode(text)) == plain
    assert "skipping header row" not in plain[2]


@_BOM_AND_LINE_ENDS
def test_estimate_stdin_reads_as_a_file_does(capsys, monkeypatch, tmp_path, encode):
    argv = ["estimate", "--m", "20", "--full-precision"]
    text = _stream_text().split("\n", 1)[1]  # no header, so a BOM starts a data row
    path = tmp_path / "data.csv"
    path.write_text(text)
    plain = _run(capsys, [*argv, "--input", str(path)])
    path.write_bytes(encode(text).encode())
    assert _run(capsys, [*argv, "--input", str(path)]) == plain
    assert _run(capsys, [*argv, "--input", "-"], encode(text), monkeypatch) == plain


def test_monitor_file_names_a_malformed_row_in_a_block_after_its_windows(
        capsys, monkeypatch, tmp_path):
    # row 300 is in the middle of a block, from the file and from stdin; the
    # blank line before it moves it to file line 303
    lines = _stream_text().splitlines(keepends=True)
    lines[301] = "0.5,nan\n"
    lines.insert(100, "\n")
    argv = ["monitor", "--width", "30", "--dims", "0,1", "--m", "10"]
    code, out, err = _from_file_and_stdin(capsys, monkeypatch, tmp_path, argv, "".join(lines))
    assert code == 2
    assert [int(line.split(",")[0]) for line in out.split()[1:]] == list(range(29, 300))
    assert err.endswith("mcde: error: row 300: non-finite value 'nan' at line 303, column 2\n")


def test_monitor_file_lenient_reports_rows_at_their_lines(capsys, monkeypatch, tmp_path):
    lines = _stream_text(levels=10).splitlines(keepends=True)
    for k in (5, 256, 257, 400, 699):  # data rows k-1
        lines[k] = "bad,0.1\n"
    lines[600] = "0.3\n"
    for k in (650, 300, 3, 1):
        lines.insert(k, "\n")
    argv = ["monitor", "--width", "30", "--step", "7", "--dims", "0,1", "--m", "10",
            "--lenient", "--flag-drift"]
    code, out, err = _from_file_and_stdin(capsys, monkeypatch, tmp_path, argv, "".join(lines))
    assert code == 0
    skipped = re.findall(r"# skipped row (\d+): .* at line (\d+)", err)
    assert skipped == [("4", "8"), ("255", "259"), ("256", "260"), ("399", "404"),
                       ("599", "604"), ("698", "704")]
    assert "row 599: row has 1 cells, need columns [0, 1] at line 604\n" in err
    assert len(out.split()) == 1 + len(range(29, 694, 7))


@pytest.mark.parametrize("read_size", [7, 1000, mcde.dataset._READ_SIZE])
def test_monitor_file_prints_the_windows_before_an_undecodable_line(
        capsys, monkeypatch, tmp_path, read_size):
    # whatever read the bad byte comes in, the rows of the lines before it
    # are scored and their windows printed before the error
    monkeypatch.setattr(mcde.dataset, "_READ_SIZE", read_size)
    lines = _stream_text().encode().splitlines(keepends=True)
    lines[599] = b"0.3,\xff\n"
    path = tmp_path / "stream.csv"
    path.write_bytes(b"".join(lines))
    argv = ["monitor", "--width", "30", "--dims", "0,1", "--m", "10"]
    code, out, err = _run(capsys, [*argv, "--input", str(path)])
    assert code == 2
    assert [int(line.split(",")[0]) for line in out.split()[1:]] == list(range(29, 598))
    assert err.endswith("mcde: error: cannot decode byte b'\\xff' as utf-8 at line 600\n")
    assert _run(capsys, argv, stdin_text=b"".join(lines), monkeypatch=monkeypatch) == (
        code, out, err)


class _ScriptedStdin:
    """A stdin whose ``buffer.read1`` returns one scripted chunk per call,
    then ``b""``, and counts its calls."""

    def __init__(self, chunks):
        self.buffer = self
        self.chunks = list(chunks)
        self.reads = 0

    def read1(self, size):
        self.reads += 1
        return self.chunks.pop(0) if self.chunks else b""


def test_monitor_blocks_are_the_complete_rows_of_each_read(capsys, monkeypatch, tmp_path):
    chunks = [
        b"\xef\xbb",                                      # inside the BOM
        b"\xbfx,y,note\n0.1,0.2,a\n0.3,0.",               # inside a line
        b"4,b\r",                                         # inside a \r\n
        b"\n0.5,0.6,\xc3",                                # inside a UTF-8 character
        b'\xa9\n0.7,0.8,"two\n',                          # inside a quoted cell
        b'lines"\n0.9,0.1,c\n',
        b"0.2,0.3,d",                                     # a last line with no end
    ]
    blocks = []
    scored = mcde.cli._monitor

    def spy(source, *args):
        def recorded():
            for block in source:
                blocks.append((stdin.reads, block))
                yield block
        return scored(recorded(), *args)

    monkeypatch.setattr(mcde.cli, "_monitor", spy)
    stdin = _ScriptedStdin(chunks)
    monkeypatch.setattr("sys.stdin", stdin)
    argv = ["monitor", "--width", "2", "--dims", "0,1", "--m", "5"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    # each block is handed on after the read that completes its last row,
    # and holds every row completed since the block before; a row the
    # quoted cell continues waits for the read that ends it, and so do the
    # rows of its read before it; each row comes with the file line it
    # starts on
    assert blocks == [
        (2, [(2, ["0.1", "0.2", "a"])]),
        (4, [(3, ["0.3", "0.4", "b"])]),
        (6, [(4, ["0.5", "0.6", "é"]), (5, ["0.7", "0.8", "two\nlines"]),
             (7, ["0.9", "0.1", "c"])]),
        (8, [(8, ["0.2", "0.3", "d"])]),
    ]
    assert stdin.reads == 8
    path = tmp_path / "stream.csv"
    path.write_bytes(b"".join(chunks))
    assert _run(capsys, [*argv, "--input", str(path)]) == (code, out, err)
    assert [line.split(",")[0] for line in out.split()[1:]] == ["1", "2", "3", "4", "5"]


def _child_env():
    """The environment of a ``python -m mcde`` child that imports the same
    mcde package as this test, installed or not."""
    package_root = os.path.dirname(os.path.dirname(mcde.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))


def _read_lines_until(fd, count, deadline):
    """Read from ``fd`` until it has given ``count`` lines or the deadline
    passes, without blocking past it."""
    data = b""
    while data.count(b"\n") < count:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            break
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        data += chunk
    return data.decode().splitlines()


def test_monitor_prints_each_window_before_the_next_row_comes():
    # with stdout a pipe, Python holds what is printed until its buffer
    # fills, unless the monitor flushes it; the child must not be told to
    # write unbuffered
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    lines = _stream_text(n=32).encode().splitlines(keepends=True)
    child = subprocess.Popen(
        [sys.executable, "-m", "mcde", "monitor", "--width", "30", "--dims", "0,1",
         "--m", "10"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # the header and 31 rows end two windows, and the next row a third
        for rows, expected in ((lines[:32], ["row_index", "29", "30"]), (lines[32:], ["31"])):
            child.stdin.write(b"".join(rows))
            child.stdin.flush()
            got = _read_lines_until(child.stdout.fileno(), len(expected), time.monotonic() + 10)
            assert [line.split(",")[0] for line in got] == expected
    finally:
        out, err = child.communicate(timeout=10)  # closes stdin and reaps the child
    assert child.returncode == 0, err
def test_console_script_pipe_end_to_end():
    env = _child_env()
    gen = subprocess.run(
        [sys.executable, "-m", "mcde", "generate", "--kind", "linear",
         "--n", "400", "--d", "3", "--noise", "0", "--seed", "3"],
        capture_output=True, text=True, env=env,
    )
    assert gen.returncode == 0
    est = subprocess.run(
        [sys.executable, "-m", "mcde", "estimate", "--input", "-", "--m", "50"],
        input=gen.stdout, capture_output=True, text=True, env=env,
    )
    assert est.returncode == 0
    assert float(est.stdout) >= 0.95
