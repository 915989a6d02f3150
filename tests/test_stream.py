import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcde
import mcde.stream
from mcde import Dataset, WindowConfig, monitor, window_seed
from mcde.ranking import _build_dimension
from mcde.stream import _CARRY_MAX_STEP, RowError, StreamFormatError, WindowScore


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
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="drift_threshold must be finite"):
            WindowConfig(width=10, dims=(0, 1), drift_threshold=threshold)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), seed=-2)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), m=0)
    with pytest.raises(ValueError):
        WindowConfig(width=10, dims=(0, 1), alpha=1.5)


@pytest.mark.parametrize("count", ["width", "step", "m", "drift_patience"])
def test_config_rejects_a_non_integral_count(count):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        WindowConfig(**{"width": 10, "dims": (0, 1), count: 10.5})
    with pytest.raises(TypeError, match="a count must be an integer, not a bool"):
        WindowConfig(**{"width": 10, "dims": (0, 1), count: True})
    cfg = WindowConfig(**{"width": 10, "dims": (0, 1), count: np.int64(10)})
    assert type(getattr(cfg, count)) is int


def test_config_rejects_a_non_integral_column_index():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        WindowConfig(width=10, dims=(0, 1.7))
    cfg = WindowConfig(width=10, dims=(np.int64(2), np.int32(0)))
    assert cfg.dims == (2, 0) and all(type(j) is int for j in cfg.dims)


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


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("levels", [None, 3])
def test_window_index_from_the_ring_buffer_equals_construct_index(monkeypatch, step, levels):
    # width 7 and step 3 are coprime, so either step ends windows at every
    # ring-buffer pivot; columns 2 and 0 are monitored in that order
    rng = np.random.default_rng(21)
    rows = rng.random((60, 3))
    if levels:
        rows = np.floor(rows * levels)
    indexes = []
    estimate = mcde.stream._estimate

    def spy(stack, *args):
        indexes.append(stack[0])
        return estimate(stack, *args)

    monkeypatch.setattr(mcde.stream, "_estimate", spy)
    cfg = WindowConfig(width=7, dims=(2, 0), step=step, m=5, seed=1)
    events = list(monitor(iter(rows), cfg))
    assert len(indexes) == len(events)
    assert {(e.row_index + 1) % 7 for e in events} == set(range(7))
    for event, index in zip(events, indexes):
        window = rows[event.row_index - 6:event.row_index + 1][:, [2, 0]]
        expected = mcde.construct_index(Dataset(window))
        assert index.n == expected.n == 7
        for got, want in zip(index.dims, expected.dims, strict=True):
            assert np.array_equal(got.row_ids, want.row_ids)
            assert (got.adjusted_ranks is None) == (want.adjusted_ranks is None) == (not levels)
            if levels:
                assert np.array_equal(got.adjusted_ranks, want.adjusted_ranks)
            assert np.array_equal(got.run_starts, want.run_starts)
            assert np.array_equal(got.run_lengths, want.run_lengths)


def test_bad_cell_error_names_its_column():
    rows = [[0.1, 0.2, 0.3], [0.4, 0.5, "x"]]
    cfg = WindowConfig(width=2, dims=(0, 2), m=5, seed=0)
    with pytest.raises(StreamFormatError) as info:
        list(monitor(iter(rows), cfg))
    assert str(info.value) == "row 1: cannot parse 'x' as a number at column 3"
    assert (info.value.row_index, info.value.column) == (1, 3)
    events = list(monitor(iter([*rows, [0.1, 0.2, float("inf")]]), cfg, strict=False))
    assert events == [RowError(1, "cannot parse 'x' as a number", 3),
                      RowError(2, "non-finite value inf", 3)]


# a few values, so leaving rows often have duplicates and windows move in and
# out of ties; -0.0 ties with 0.0
_FEW = (-1.5, -0.0, 0.0, 0.25, 1.0, 3.0)
_BAD_ROWS = (["bad"], [math.inf], [])  # an unparsable, a non-finite, a short row


def _arrays(dim):
    """The fields of a DimensionIndex, not copied (as ``astuple`` would)."""
    return [getattr(dim, field.name) for field in dataclasses.fields(dim)]


@st.composite
def _streams(draw):
    """d and the width, and rows of d columns: runs of values from a few, of
    any float, and of one constant row, with malformed rows in between."""
    d = draw(st.integers(2, 3))
    width = draw(st.integers(2, 40))
    rows = []
    while len(rows) < width + draw(st.integers(0, 50)):
        kind = draw(st.sampled_from(["few", "any", "constant", "bad"]))
        length = draw(st.integers(1, 12))
        if kind == "bad":
            bad = draw(st.sampled_from(_BAD_ROWS))
            rows.append(bad * d if bad else bad)
            continue
        if kind == "constant":
            rows += [[draw(st.sampled_from(_FEW))] * d] * length
            continue
        cell = st.sampled_from(_FEW) if kind == "few" else st.floats(-1e3, 1e3)
        rows += [[draw(cell) for _ in range(d)] for _ in range(length)]
    return d, width, rows


@given(
    stream=_streams(),
    step=st.integers(1, _CARRY_MAX_STEP + 1),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
    strict=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_carried_emissions_equal_offline_estimates(stream, step, m, seed, strict):
    d, width, rows = stream
    cfg = WindowConfig(width=width, dims=tuple(range(d)), step=step, m=m, seed=seed)
    handed = []  # (index, a copy of its arrays) of every scored window
    estimate = mcde.stream._estimate

    def recording(stack, alpha, seeds, draws):
        index, = stack
        handed.append((index, [[None if a is None else a.copy() for a in _arrays(dim)]
                               for dim in index.dims]))
        return estimate(stack, alpha, seeds, draws, record_iterations=True)

    valid = [len(row) == d and all(isinstance(v, float) and math.isfinite(v) for v in row)
             for row in rows]
    malformed = [i for i, ok in enumerate(valid) if not ok]
    # strict mode stops at the first malformed row; lenient mode reports each
    end = malformed[0] if strict and malformed else len(rows)
    events = []
    with patch.object(mcde.stream, "_estimate", recording):
        if end < len(rows):
            with pytest.raises(StreamFormatError) as info:
                events.extend(monitor(iter(rows), cfg, strict=strict))
            assert info.value.row_index == end
        else:
            events.extend(monitor(iter(rows), cfg, strict=strict))
    assert [e.row_index for e in events if isinstance(e, RowError)] == \
        ([] if strict else malformed)
    good = [(i, rows[i]) for i in range(end) if valid[i]]

    scores = [e for e in events if isinstance(e, WindowScore)]
    lasts = range(width - 1, len(good), step)  # each window's last good row
    assert [e.row_index for e in scores] == [good[k][0] for k in lasts]
    for event, (index, arrays), last in zip(scores, handed, lasts, strict=True):
        window = np.array([row for _, row in good[last - width + 1:last + 1]])
        offline = mcde.contrast(Dataset(window), m=m, seed=window_seed(seed, event.row_index),
                                record_iterations=True)
        got = event.estimate
        assert got.per_iteration.tobytes() == offline.per_iteration.tobytes()
        assert dataclasses.replace(got, per_iteration=None) == \
            dataclasses.replace(offline, per_iteration=None)
        # every index, carried or rebuilt, is the rebuild's array for array,
        # read-only, and unchanged by the rows that came after it
        for j, (dim, copies) in enumerate(zip(index.dims, arrays, strict=True)):
            want = _build_dimension(window[:, j], j)
            for got_a, copy, want_a in zip(_arrays(dim), copies, _arrays(want), strict=True):
                if want_a is None:
                    assert got_a is None and copy is None
                    continue
                assert not got_a.flags.writeable
                assert got_a.dtype == want_a.dtype
                assert np.array_equal(got_a, want_a)
                assert np.array_equal(copy, want_a)


@pytest.mark.parametrize("d", [2, 3])
def test_carry_is_taken_at_small_steps(monkeypatch, d):
    # a tie-free stream at step 1 builds the first window and carries every
    # later one; past the largest carried step every window is rebuilt
    builds = []

    def counting(column, position, tiebreak=None):
        builds.append(position)
        return _build_dimension(column, position, tiebreak)

    monkeypatch.setattr(mcde.stream, "_build_dimension", counting)
    rows = _uniform_rows(200, d=d, seed=12)
    for step in (1, _CARRY_MAX_STEP, _CARRY_MAX_STEP + 1):
        builds.clear()
        cfg = WindowConfig(width=30, dims=tuple(range(d)), step=step, m=5, seed=0)
        windows = len(list(monitor(iter(rows), cfg)))
        assert windows == len(range(29, 200, step))
        carried = step <= _CARRY_MAX_STEP
        assert builds == list(range(d)) * (1 if carried else windows)
    # a constant head ties the windows that hold two of its rows, ending at
    # rows 29-57, so they are rebuilt; the first tie-free rebuild, ending at
    # row 58, seeds the carry again
    rows[:30] = 0.5
    builds.clear()
    cfg = WindowConfig(width=30, dims=tuple(range(d)), step=1, m=5, seed=0)
    assert len(list(monitor(iter(rows), cfg))) == 171
    assert builds == list(range(d)) * 30


@pytest.mark.parametrize("equal", [(0.25, 0.25), (0.0, -0.0)])
def test_a_tie_drops_the_carry_until_it_leaves(monkeypatch, equal):
    # in a tie-free stream at step 1, row 40 of column 1 equals row 35; only
    # the windows that hold both rows, ending at rows 40-44, and the first
    # window after them are rebuilt, and column 0 stays carried throughout
    ends = []  # the last row of every emitted window
    built = []  # (column, the last row of its window) of every rebuild

    def counting(column, position, tiebreak=None):
        built.append((position, 9 + len(ends)))  # windows end at rows 9, 10, ...
        return _build_dimension(column, position, tiebreak)

    monkeypatch.setattr(mcde.stream, "_build_dimension", counting)
    rows = _uniform_rows(80, seed=5)
    rows[35, 1], rows[40, 1] = equal
    cfg = WindowConfig(width=10, dims=(0, 1), step=1, m=5, seed=0)
    for event in monitor(iter(rows), cfg):
        ends.append(event.row_index)
    assert ends == list(range(9, 80))
    assert built == [(0, 9), (1, 9)] + [(1, end) for end in range(40, 46)]


@pytest.mark.parametrize("step", [1, _CARRY_MAX_STEP + 1])
def test_a_tie_break_vector_is_drawn_once_per_tied_column(monkeypatch, step):
    # column 1 ties from row 60 on, column 0 never: only column 1's vector
    # is drawn, at its first tied rebuild, and every later one reuses it
    draws = []

    def counting(position, n):
        draws.append(position)
        return mcde.ranking._tiebreak(position, n)

    monkeypatch.setattr(mcde.stream, "_tiebreak", counting)
    rows = _uniform_rows(120, seed=9)
    cfg = WindowConfig(width=20, dims=(0, 1), step=step, m=5, seed=0)
    tie_free = list(monitor(iter(rows), cfg))
    assert draws == []
    rows[60:, 1] = np.round(rows[60:, 1] * 4) / 4
    events = list(monitor(iter(rows), cfg))
    assert draws == [1]
    for event in events:
        window = Dataset(rows[event.row_index - 19:event.row_index + 1])
        want = mcde.contrast(window, m=5, seed=window_seed(0, event.row_index))
        assert event.estimate.score == want.score
    # the tie-free windows before row 60 score as they did without the ties
    head = [e for e in events if e.row_index < 60]
    assert [e.estimate.score for e in head] == [e.estimate.score for e in tie_free[:len(head)]]


def test_carried_order_follows_the_leaving_row_through_its_tie_run(monkeypatch):
    # pairs of equal values enter and leave narrow windows, so a column
    # often drops its carry and rejoins it at a tie-free rebuild; the
    # tie-break vectors of the three positions order the pairs either way
    indexes = []
    estimate = mcde.stream._estimate

    def spy(stack, *args):
        indexes.append(stack[0])
        return estimate(stack, *args)

    monkeypatch.setattr(mcde.stream, "_estimate", spy)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        rows = rng.random((80, 3))
        for k in rng.choice(79, size=12, replace=False):
            rows[k + 1, rng.integers(3)] = rows[k, rng.integers(3)]
        indexes.clear()
        cfg = WindowConfig(width=5, dims=(0, 1, 2), step=1, m=3, seed=seed)
        events = list(monitor(iter(rows), cfg))
        assert len(indexes) == len(events) == 76
        for event, index in zip(events, indexes):
            window = rows[event.row_index - 4:event.row_index + 1]
            for j, dim in enumerate(index.dims):
                want = _build_dimension(window[:, j], j)
                for got_a, want_a in zip(_arrays(dim), _arrays(want), strict=True):
                    assert (got_a is None) == (want_a is None)
                    if got_a is not None:
                        assert np.array_equal(got_a, want_a)
