"""Independent brute-force oracles the fast implementations are checked against,
and the one-window test helpers.

The oracles are deliberately written from first principles (sorted lists,
groupby, O(n^2) counting) and share no code with the package kernels; the
test statistic's independent judges are ``mann_whitney_pc_oracle`` and
``local_window_stats_oracle``.  The per-iteration reference for
``contrast`` builds each slice as a row mask from freshly keyed generators
and tests it with ``mwp_test``, one iteration at a time.  ``mwp_test`` and
``window_stats`` score one window through the package's own
``window_rows`` and ``confidences``, so they judge the batching and the
draws, not the statistic.  The reference for ``read_csv`` is its strict
loop alone, which parses every row through ``_parse_cell``.
"""

import csv
import io
import itertools
import math
from array import array
from typing import NamedTuple

import numpy as np

import mcde
from mcde._kernels import cut_runs, window_rows
from mcde.dataset import _decode_error_line, _looks_numeric, _parse_cell
from mcde.mwp import confidences, restriction_bounds
from mcde.slicing import window_view


def average_ranks_oracle(column):
    """O(n^2) 0-based average ranks: count smaller values plus half the ties."""
    column = list(column)
    n = len(column)
    ranks = []
    for v in column:
        smaller = sum(1 for w in column if w < v)
        equal = sum(1 for w in column if w == v)
        ranks.append(smaller + (equal - 1) / 2.0)
    return np.array(ranks)


def average_ranks_oracle_fast(column):
    """Same O(n^2) rank definition as above via numpy broadcasting."""
    col = np.asarray(column, dtype=np.float64)
    smaller = (col[None, :] < col[:, None]).sum(axis=1)
    equal = (col[None, :] == col[:, None]).sum(axis=1)
    return smaller + (equal - 1) / 2.0


def index_order_oracle(column, tiebreak):
    """Reference sorted order of a column: rows by value, tied rows by
    ``tiebreak``, rows with equal draws by row id (``lexsort`` is stable)."""
    return np.lexsort((tiebreak, column))


def dimension_index_oracle(column, tiebreak):
    """The four arrays of a column's ``DimensionIndex``, from the reference
    order: row ids, 0-based tie-averaged ranks, and the start and length of
    every tie group of two or more rows, walked group by group."""
    order = index_order_oracle(column, tiebreak)
    ranks, starts, lengths = [], [], []
    position = 0
    for _, group in itertools.groupby(np.asarray(column, dtype=np.float64)[order].tolist()):
        t = len(list(group))
        ranks.extend([position + (t - 1) / 2.0] * t)
        if t > 1:
            starts.append(position)
            lengths.append(t)
        position += t
    return order, np.array(ranks), np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)


def ranks_of(dim):
    """A ``DimensionIndex``'s 0-based tie-averaged ranks by sorted position:
    the stored ``adjusted_ranks``, or the positions for a tie-free column,
    which stores none."""
    if dim.adjusted_ranks is None:
        return np.arange(dim.n, dtype=np.float64)
    return dim.adjusted_ranks


def tie_corrections_oracle(column):
    """Step function of running t**3 - t sums over sorted tie groups.

    Position p carries the exact integer sum over all groups starting at or
    before p; the last entry is the whole column's correction.
    """
    ordered = sorted(column)
    out = []
    running = 0
    for _, group in itertools.groupby(ordered):
        t = len(list(group))
        running += t**3 - t
        out.extend([running] * t)
    return np.array(out, dtype=np.int64)


def mann_whitney_pc_oracle(sample1, sample2):
    """Textbook two-sided Mann-Whitney confidence level.

    Pooled 0-based average ranks, U1 = R1 - n1(n1-1)/2, normal approximation
    with the tie-corrected standard deviation, folded two-sided via |Z|.
    Returns 0 when the variance vanishes (all values tied) and 1 when a
    sample is empty.
    """
    n1, n2 = len(sample1), len(sample2)
    n = n1 + n2
    if n1 == 0 or n2 == 0:
        return 1.0
    pooled = list(sample1) + list(sample2)
    ranks = average_ranks_oracle(pooled)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 - 1) / 2.0
    mu = n1 * n2 / 2.0
    tie_sum = 0.0
    for _, group in itertools.groupby(sorted(pooled)):
        t = len(list(group))
        tie_sum += t**3 - t
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_sum / (n * (n - 1)))
    if sigma_sq <= 0.0:
        return 0.0
    z = abs(u1 - mu) / math.sqrt(sigma_sq)
    return 2.0 * 0.5 * math.erf(z / math.sqrt(2.0)) + 0.0  # 2*Phi(z) - 1


def local_window_stats_oracle(member, order, values, start, end):
    """Window-local rank sum, member count, and tie correction, brute force."""
    window_rows = [order[j] for j in range(start, end)]
    window_vals = [values[r] for r in window_rows]
    local_ranks = average_ranks_oracle(window_vals)
    r1 = sum(
        float(local_ranks[i]) for i, row in enumerate(window_rows) if member[row]
    )
    n1 = sum(1 for row in window_rows if member[row])
    corr = 0
    for _, group in itertools.groupby(sorted(window_vals)):
        t = len(list(group))
        corr += t**3 - t
    return r1, n1, corr


def ks_distance_to_uniform(values):
    """Exact Kolmogorov distance between an empirical sample and U[0,1]."""
    p = np.sort(np.asarray(values, dtype=np.float64))
    k = p.size
    upper = np.arange(1, k + 1) / k - p
    lower = p - np.arange(0, k) / k
    return float(max(upper.max(), lower.max()))


def draw_slice(index, ref_dim, alpha, rng):
    """Boolean row membership of one random slice conditioning on all
    dimensions but ``ref_dim``.

    For every conditioning dimension (ascending order) a window start is
    drawn uniformly from the 0-based starts {0, ..., n - size - 1}, and rows
    outside ``[start, start + size)`` in that dimension's sorted order are
    masked out.  A full-width window keeps all rows and draws nothing.
    """
    if not 0 <= ref_dim < index.d:
        raise ValueError(f"ref_dim {ref_dim} out of range for d={index.d}")
    n = index.n
    # ceil(n * alpha**(1/(d-1))) in [1, n], forgiving float overshoot below
    # 1e-9 (300.0000000004 keeps 300 rows)
    size = max(1, min(n, math.ceil(n * alpha ** (1.0 / (index.d - 1)) - 1e-9)))
    member = np.ones(n, dtype=bool)
    if size >= n:
        return member
    for j in range(index.d):
        if j == ref_dim:
            continue
        start = int(rng.integers(0, n - size))
        kept = np.zeros(n, dtype=bool)
        kept[index.dims[j].row_ids[start:start + size]] = True
        member &= kept
    return member


def window_stats(member, order, adjusted_ranks, start, end, *, run_starts, run_lengths):
    """``window_rows`` of the one window [start, end) of a column sorted by
    ``order``, where ``member`` is indexed by row; ``adjusted_ranks`` is
    ``None`` for a tie-free column, as the index stores it.

    Returns ``(rank_sum, member_count, tie_correction)``.
    """
    r1, n1, corr = column_window_rows(member[order[start:end]][None], adjusted_ranks,
                                      np.array([start]), end - start, run_starts, run_lengths)
    return float(r1[0]), int(n1[0]), float(corr[0])


def column_window_rows(rows, adjusted_ranks, starts, width, run_starts, run_lengths):
    """``window_rows`` of the windows ``[starts[i], starts[i] + width)`` of
    one column, called as ``contrast`` calls it: a tie-free column
    (``adjusted_ranks`` is ``None``) with the membership alone, a tied one
    with its ranks and the windows' cut runs."""
    if adjusted_ranks is None:
        return window_rows(rows)
    cuts = cut_runs(starts, width, run_starts, run_lengths, len(starts))
    return window_rows(rows, window_view(adjusted_ranks, width)[starts], cuts)


class MwpOutcome(NamedTuple):
    """One restricted test: its value, the slice's rows in the window, the
    window's rows, and whether the window was all tied or the slice empty
    or full."""

    p_c: float
    n1: int
    n_prime: int
    degenerate: bool


def mwp_test(index, member, ref_dim, alpha, rng):
    """The test of the slice ``member`` (boolean, by row) on ``ref_dim``, in a
    restriction window whose start is drawn as ``rng.integers(0, starts)``:
    a batch of one of the tests ``contrast`` scores."""
    dim = index.dims[ref_dim]
    starts, width = restriction_bounds(index.n, alpha)
    start = int(rng.integers(0, starts))
    r1, n1, corr = window_stats(member, dim.row_ids, dim.adjusted_ranks, start, start + width,
                                run_starts=dim.run_starts, run_lengths=dim.run_lengths)
    p_c, tied, empty_full = confidences(np.array([r1]), np.array([n1]), np.array([corr]), width)
    return MwpOutcome(float(p_c[0]), n1, width, bool(tied[0] | empty_full[0]))


def csv_string(ds):
    """``write_csv`` of ``ds`` into a string, with its header."""
    buf = io.StringIO()
    mcde.write_csv(ds, buf)
    return buf.getvalue()


def contrast_iterations_oracle(index, m, alpha, seed):
    """The ``mwp_test`` outcome of each of the M iterations of ``contrast``,
    one iteration at a time, each from a freshly built generator keyed by
    ``(seed, iteration)``."""
    outcomes = []
    for i in range(m):
        key = np.array([seed % 2**64, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        ref_dim = int(rng.integers(0, index.d))
        member = draw_slice(index, ref_dim, alpha, rng)
        outcomes.append(mwp_test(index, member, ref_dim, alpha, rng))
    return outcomes


def read_csv_oracle(source, has_header=None, delimiter=","):
    """``read_csv`` with the strict loop alone: every row as the csv module
    yields it, every cell through ``_parse_cell``; the fast path of plain
    blocks must return the same dataset and raise the same errors."""
    reader = csv.reader(source, delimiter=delimiter)
    names = None
    width = 0
    cells = array("d")
    last_line = 0
    try:
        for row in reader:
            line_no, last_line = last_line + 1, reader.line_num
            if not row:
                continue
            if not width:
                if names is None and (
                    not _looks_numeric(row) if has_header is None else has_header
                ):
                    names = [cell.strip() for cell in row]
                    continue
                width = len(row)
            elif len(row) != width:
                raise mcde.StructureError(
                    f"ragged row at line {line_no}: expected {width} cells, got {len(row)}"
                )
            for j, cell in enumerate(row, 1):
                cells.append(_parse_cell(cell.strip(), line_no, j))
    except csv.Error as exc:
        raise mcde.ParseError(f"{exc} at line {last_line + 1}") from None
    except UnicodeDecodeError as exc:
        raise mcde.ParseError(
            f"cannot decode byte {exc.object[exc.start:exc.start + 1]!r} as "
            f"{exc.encoding} at line {_decode_error_line(exc, reader.line_num)}"
        ) from None
    if not width:
        if names is None:
            raise mcde.StructureError("empty input: no rows found")
        raise mcde.StructureError("no data rows after the header")
    if names is not None and len(names) != width:
        raise mcde.StructureError(
            f"header has {len(names)} names but rows have {width} cells"
        )
    return mcde.Dataset(np.frombuffer(cells).reshape(-1, width), names)
