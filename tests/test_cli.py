import io
import os
import re
import subprocess
import sys

import pytest

import mcde
from mcde.cli import run
from oracles import csv_string


def _run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_csv(tmp_path, name, kind="linear", n=300, d=2, noise=0.0, seed=3):
    ds = mcde.generate(mcde.DependencySpec(kind, n, d, noise, seed))
    path = tmp_path / name
    mcde.save_csv(ds, str(path))
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


def test_monitor_strict_malformed_row(capsys, monkeypatch):
    code, out, err = _run(capsys, ["monitor", "--width", "2", "--dims", "0,1"],
                          stdin_text="0.1,0.2\nbad,0.4\n", monkeypatch=monkeypatch)
    assert code == 2


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
    text = "0.1,0.2\nbad,0.4\n0.3,0.1\n0.6,0.9\n"
    code, out, err = _run(capsys, ["monitor", "--width", "3", "--dims", "0,1",
                                   "--m", "5", "--lenient"],
                          stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "skipped row 1" in err
    assert out.count("\n") == 2  # header + one emission


def test_console_script_pipe_end_to_end():
    # the children import the same mcde package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(mcde.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
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
