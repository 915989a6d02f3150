import numpy as np
import pytest

import mcde
from mcde import Dataset, WindowConfig, monitor, window_seed
from mcde.stream import RowError, StreamFormatError, WindowScore


def _uniform_rows(n, d=2, seed=4):
    return np.random.default_rng(seed).random((n, d))


def test_window_arithmetic():
    cfg = WindowConfig(width=900, dims=(0, 1), step=1, m=5, seed=0)
    events = list(monitor(iter(_uniform_rows(1000)), cfg))
    assert len(events) == 101
    assert events[0].row_index == 899
    assert events[-1].row_index == 999
    assert [e.row_index for e in events] == list(range(899, 1000))


def test_step_spacing():
    cfg = WindowConfig(width=10, dims=(0, 1), step=4, m=5, seed=0)
    events = list(monitor(iter(_uniform_rows(30)), cfg))
    assert [e.row_index for e in events] == [9, 13, 17, 21, 25, 29]


def test_constant_stream_scores_zero():
    cfg = WindowConfig(width=12, dims=(0, 1), m=20, seed=3)
    rows = np.ones((40, 2))
    scores = [e.estimate.score for e in monitor(iter(rows), cfg)]
    assert len(scores) == 29
    assert all(s == 0.0 for s in scores)


def test_independent_stream_fluctuates_around_half():
    rows = _uniform_rows(1000, seed=4)
    cfg = WindowConfig(width=900, dims=(0, 1), step=1, m=50, seed=5)
    scores = [e.estimate.score for e in monitor(iter(rows), cfg)]
    assert len(scores) == 101
    assert 0.45 <= float(np.mean(scores)) <= 0.55


def test_emission_equals_offline_contrast():
    rows = _uniform_rows(60, d=3, seed=7)
    cfg = WindowConfig(width=40, dims=(0, 2), step=9, m=25, seed=13)
    for event in monitor(iter(rows), cfg):
        window = rows[event.row_index - 39 : event.row_index + 1][:, [0, 2]]
        offline = mcde.contrast(Dataset(window), m=25,
                                seed=window_seed(13, event.row_index))
        assert event.estimate.score == offline.score


def test_short_stream_yields_nothing():
    cfg = WindowConfig(width=50, dims=(0, 1), m=5, seed=0)
    assert list(monitor(iter(_uniform_rows(49)), cfg)) == []


def test_malformed_row_strict_raises():
    rows = [[0.1, 0.2], ["bad", 0.4], [0.5, 0.6]]
    cfg = WindowConfig(width=2, dims=(0, 1), m=5, seed=0)
    with pytest.raises(StreamFormatError, match="row 1"):
        list(monitor(iter(rows), cfg))


def test_malformed_row_lenient_skips_and_reports():
    rows = [[0.1, 0.2], ["bad", 0.4], [0.5], [0.5, 0.6], [0.7, 0.8]]
    cfg = WindowConfig(width=3, dims=(0, 1), m=5, seed=0)
    events = list(monitor(iter(rows), cfg, strict=False))
    errors = [e for e in events if isinstance(e, RowError)]
    scores = [e for e in events if isinstance(e, WindowScore)]
    assert [e.row_index for e in errors] == [1, 2]
    # window fills with the 3rd valid row, which is stream row 4
    assert [e.row_index for e in scores] == [4]


def test_string_rows_accepted():
    rows = [["0.1", "0.9"], ["0.4", "0.2"], ["0.8", "0.5"]]
    cfg = WindowConfig(width=3, dims=(0, 1), m=5, seed=1)
    events = list(monitor(iter(rows), cfg))
    assert len(events) == 1


def test_non_finite_cell_is_malformed():
    rows = [[0.1, 0.2], [float("nan"), 0.4]]
    cfg = WindowConfig(width=2, dims=(0, 1), m=5, seed=0)
    with pytest.raises(StreamFormatError):
        list(monitor(iter(rows), cfg))


def test_drift_flag_raised_after_patience():
    rng = np.random.default_rng(11)
    head = rng.random((30, 2))          # dependent-ish? no: uniform, scores ~0.5
    tail = np.ones((25, 2))             # constant: scores drop to 0
    rows = np.vstack([head, tail])
    cfg = WindowConfig(width=20, dims=(0, 1), step=1, m=15, seed=2,
                       drift_threshold=0.55, drift_patience=3)
    events = list(monitor(iter(rows), cfg))
    flagged = [e.row_index for e in events if e.flag]
    assert flagged, "constant tail must trigger the drift flag"
    # flags only appear after at least patience consecutive low windows
    first_low = next(i for i, e in enumerate(events) if e.estimate.score < 0.55)
    first_flag = next(i for i, e in enumerate(events) if e.flag)
    assert first_flag >= first_low + 2
    assert events[-1].flag  # still below threshold at the end


def test_flag_is_always_a_bool():
    cfg = WindowConfig(width=5, dims=(0, 1), m=5, seed=0)
    events = list(monitor(iter(_uniform_rows(6)), cfg))
    assert all(type(e.flag) is bool for e in events)


def test_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(width=1, dims=(0, 1))
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0,))
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 0))
    with pytest.raises(ValueError, match="column index -1 out of range"):
        WindowConfig(width=10, dims=(1, -1))
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), step=0)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), drift_patience=0)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), seed=-2)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), m=0)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), alpha=1.5)


def test_memory_stays_bounded_by_width():
    # the monitor must not retain more than width rows: feed a long stream
    # and confirm emissions depend only on the trailing window
    long_rows = _uniform_rows(500, seed=8)
    cfg = WindowConfig(width=30, dims=(0, 1), step=100, m=10, seed=6)
    events = list(monitor(iter(long_rows), cfg))
    last = events[-1]
    window = long_rows[last.row_index - 29 : last.row_index + 1]
    offline = mcde.contrast(Dataset(window), m=10,
                            seed=window_seed(6, last.row_index))
    assert last.estimate.score == offline.score


def test_lenient_emissions_with_skipped_rows_equal_offline_contrast(monkeypatch):
    # each malformed row moves every later window end off the end rows drawn
    # ahead, and M=200 draws only ten windows per block, so emissions come
    # from predicted blocks, blocks redrawn on a miss and refilled ones
    blocks = []
    draw = mcde.stream._draw

    def spy(seeds, *args):
        blocks.append(seeds[0])
        return draw(seeds, *args)

    monkeypatch.setattr(mcde.stream, "_draw", spy)
    rows = [list(r) for r in _uniform_rows(140, d=3, seed=9)]
    for k in (31, 32, 77, 101):
        rows[k] = ["bad", 0.0, 0.0]
    cfg = WindowConfig(width=20, dims=(2, 0), step=3, m=200, seed=2**64 - 5)
    events = list(monitor(iter(rows), cfg, strict=False))
    assert [e.row_index for e in events if isinstance(e, RowError)] == [31, 32, 77, 101]
    scores = [e for e in events if isinstance(e, WindowScore)]
    assert len(scores) == 39
    # misses after rows 31-32, 77 and 101; refills at 63 and 134
    assert blocks == [window_seed(cfg.seed, r) for r in (19, 33, 63, 79, 104, 134)]
    good = [(i, r) for i, r in enumerate(rows) if r[0] != "bad"]
    for event in scores:
        end = next(k for k, (i, _) in enumerate(good) if i == event.row_index)
        window = np.array([r for _, r in good[end - 19:end + 1]])[:, [2, 0]]
        offline = mcde.contrast(Dataset(window), m=200,
                                seed=window_seed(cfg.seed, event.row_index))
        assert event.estimate == offline
