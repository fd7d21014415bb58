"""Labeled multivariate samples: data model, grouping, and CSV round trips.

A dataset couples an n x p matrix of finite feature values with one class
label per row.  Labels are opaque identifiers (no ordinal meaning); class
order everywhere is first-appearance order in the label vector, which keeps
derived output stable across runs.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDatasetError,
    GinicovError,
    ParseError,
    RaggedRowsError,
    TinyClassError,
    TooFewClassesError,
    TooLargeError,
)

# Budget for the n x n distance matrix: 1 GiB of float64, n <= 11585
_MAX_MATRIX_BYTES = 1 << 30

# numpy's float parse reads these around a number as spaces; float() does not
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Least bytes of a CSV range that a forked child parses: a fork costs a few
# ms, numpy's parse about 8 ms per MB
_SPLIT_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable (X, Y) sample: features in 64-bit floats, labels verbatim.

    ``data`` is a read-only view of the input when that is already a
    C-contiguous float64 matrix (no copy; the caller's array stays writeable),
    and a read-only copy otherwise."""

    data: np.ndarray
    labels: tuple

    def __post_init__(self):
        # a view, so that freezing it leaves the caller's array writeable
        data = np.ascontiguousarray(self.data, dtype=np.float64).view()
        if data.ndim != 2:
            raise ValueError(f"data must be a 2-D matrix, got ndim={data.ndim}")
        n, p = data.shape
        if n < 2:
            raise EmptyDatasetError(f"dataset needs at least 2 rows, got {n}")
        if p < 1:
            raise ValueError("dataset needs at least 1 feature column")
        if not np.isfinite(data).all():
            bad = np.argwhere(~np.isfinite(data))[0]
            raise ValueError(
                f"non-finite feature value at row {bad[0]}, column {bad[1]}"
            )
        labels = tuple(self.labels)
        if len(labels) != n:
            raise ValueError(
                f"labels length {len(labels)} does not match row count {n}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """Partition of rows by class: identifiers, counts and each row's class."""

    classes: tuple
    counts: np.ndarray
    n: int
    codes: np.ndarray  # class position of each row

    @property
    def k(self) -> int:
        return len(self.classes)


def group_index(ds: LabeledDataset) -> GroupIndex:
    """Partition the rows of ``ds`` by label, in first-appearance order."""
    position: dict = {}
    codes = np.array(
        [position.setdefault(lab, len(position)) for lab in ds.labels], np.intp
    )
    classes = tuple(position)
    counts = np.bincount(codes).astype(np.int64)
    for arr in (counts, codes):
        arr.setflags(write=False)
    return GroupIndex(classes, counts, ds.n, codes)


def validate_for_testing(gi: GroupIndex) -> None:
    """Check that every class statistic needed by the tests exists.

    Requires K >= 2 and every class count >= 2 (a single observation gives
    no within-class pair, so its Gini mean difference is undefined).
    """
    if gi.k < 2:
        raise TooFewClassesError(f"testing needs at least 2 classes, got {gi.k}")
    for lab, cnt in zip(gi.classes, gi.counts):
        if cnt < 2:
            raise TinyClassError(
                f"class {lab!r} has only {cnt} observation(s); need at least 2",
                label=lab,
            )


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the host's count (1 when that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_matrix_rows(n: int) -> None:
    """Raise ``TooLargeError`` when n rows need an n x n float64 distance
    matrix over ``_MAX_MATRIX_BYTES``."""
    if 8 * n * n > _MAX_MATRIX_BYTES:
        raise TooLargeError(
            f"{n} rows need a {8 * n * n / 2**30:.2f} GiB distance matrix, "
            f"over its {_MAX_MATRIX_BYTES / 2**30:g} GiB budget "
            f"(n <= {int((_MAX_MATRIX_BYTES // 8) ** 0.5)})"
        )


def _check_feature_matrix(n: int, p: int) -> None:
    """Raise ``TooLargeError`` when n rows of p features need a float64
    feature matrix over ``_MAX_MATRIX_BYTES``."""
    if 8 * n * p > _MAX_MATRIX_BYTES:
        raise TooLargeError(
            f"{n} rows of {p} features need a {8 * n * p / 2**30:.2f} GiB "
            f"feature matrix, over its {_MAX_MATRIX_BYTES / 2**30:g} GiB "
            "budget"
        )


def _label_index(path, label_column, header) -> int:
    """The label column's index as given (negative counts from the end),
    resolved against ``header`` when it is given by name."""
    if isinstance(label_column, int) or (
        isinstance(label_column, str) and label_column.lstrip("-").isdigit()
    ):
        return int(label_column)
    if header is None:
        raise ValueError("label column by name requires a header row")
    if label_column in header:
        return header.index(label_column)
    raise GinicovError(f"{path}: label column {label_column!r} not found in header")


def load_csv(
    path, label_column, has_header: bool = True, workers: int = 1
) -> LabeledDataset:
    """Read a comma-separated file into a LabeledDataset.

    ``label_column`` selects the label column by header name (requires a
    header row) or by 0-based column index.  All remaining columns must
    parse as finite reals and keep their file order; a file with no other
    column raises ``GinicovError`` at its first row.

    The file is UTF-8 text; a leading byte-order mark is dropped.  numpy's C
    tokenizer reads it in one pass (``_load_table``).  Whatever that pass
    does not accept as it stands -- a cell numpy cannot parse (``1_000``,
    say, which ``float`` reads), a non-finite value, a row of another width,
    fewer than 2 rows, a record that runs over lines (a quoted field that
    holds a line end), a line ended by a lone carriage return, a line
    longer than csv's field limit that holds a ``"`` or a comma-separated
    segment over that limit, a line holding one of ``_SEPARATORS``, or a
    row past the budget below -- is read again from the start by the row
    loop (``_load_rows``), which defines the format: it returns that file's
    data or raises its error.
    The row loop converts and checks each row as it is read, so the first
    bad row ends the read; its error names the row's first bad cell.
    The row past the distance-matrix budget (the 11586th, see
    ``_check_matrix_rows``), or the first row whose features would take the
    feature matrix past the same 1 GiB budget (``_check_feature_matrix``),
    raises ``TooLargeError`` before it is converted or any later row is
    read; the one pass stops before that row too.  A file that cannot be
    read or decoded, or that holds a malformed CSV record, raises
    ``GinicovError`` naming the file (and, for a malformed record, its
    line).

    ``workers`` caps the processes that share the one pass: a file of more
    than ``_SPLIT_BYTES`` is cut into up to ``workers`` byte ranges (no more
    than the usable cores, each at least ``_SPLIT_BYTES``), each parsed by
    its own forked process; the result does not depend on the count.
    Raises ``ValueError`` when ``workers`` is below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    try:
        ds = _load_table(path, label_column, has_header, workers)
    except (ValueError, csv.Error, OSError, EOFError, GinicovError):
        ds = None
    return _load_rows(path, label_column, has_header) if ds is None else ds


def _load_table(path, label_column, has_header: bool, workers: int = 1):
    """The dataset as numpy's C tokenizer reads the whole file, or None.

    Returns None, or raises ``ValueError``, ``csv.Error``, ``OSError``,
    ``EOFError`` or ``GinicovError``, wherever the row loop must decide; it
    never returns data that the row loop would not.

    The data from the first data line on are read in the byte ranges of
    ``_cuts``, each by one ``_read_part`` through its own handle, shared
    among up to ``workers`` processes by ``_fork_map``.  Any range that
    fails makes the whole read fail.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        taken = []  # the lines up to the first data line, to find its offset

        def taking():
            for line in fh:
                taken.append(line)
                yield line

        head = taking()
        header = next(csv.reader(head), None) if has_header else None
        label_idx = _label_index(path, label_column, header)
        first = next(filter(lambda line: line.lstrip("\r\n"), head), None)
        if first is None:
            return None
        width = len(next(csv.reader([first])))
        # numpy refuses a label column out of range, and LabeledDataset a
        # file with no feature column; nothing after this sees the header
        if header is not None and len(header) != width:
            return None
        ranges = min(
            workers, _usable_cores(), os.fstat(fh.fileno()).st_size // _SPLIT_BYTES
        )
    cuts = _cuts(path, "".join(taken[:-1]), ranges)
    parts = _fork_map(lambda cut: _read_part(path, width, label_idx, cut), cuts, ranges)
    data = np.concatenate([part[0] for part in parts]) if parts[1:] else parts[0][0]
    # raises on fewer than 2 rows and on a non-finite value
    labels = tuple(itertools.chain.from_iterable(part[1] for part in parts))
    return LabeledDataset(data, labels)


def _fork_context():
    """multiprocessing's fork context, or None where a forked child cannot
    safely run: the platform has no fork, or this process runs another
    thread, which could hold a lock that would stay locked in the child."""
    import multiprocessing
    import threading

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return None
    return multiprocessing.get_context("fork")


def _fork_map(fn, payloads, workers: int) -> list:
    """``[fn(p) for p in payloads]`` on up to ``workers`` processes: forked
    child w runs ``payloads[w::workers]`` and sends its results over a pipe,
    this process runs ``payloads[::workers]``.  The first failure (a share's
    exception, or ``EOFError`` for a child that died) is raised once every
    child whose share was not taken is killed and every child is joined.
    In-process where ``_fork_context`` gives no fork."""
    workers = min(workers, len(payloads))
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        return [fn(p) for p in payloads]
    children = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_send_share, args=(send, fn, payloads[w::workers])
            )
            child.start()
            send.close()
            children.append((child, recv))
        shares = [[fn(p) for p in payloads[::workers]]]
        for child, recv in children:
            with recv:
                share = recv.recv()
            if isinstance(share, BaseException):
                raise share
            shares.append(share)
    finally:
        for child, recv in children:
            if not recv.closed:  # its share was never taken
                child.kill()
                recv.close()
            child.join()
    return [shares[i % workers][i // workers] for i in range(len(payloads))]


def _send_share(conn, fn, share) -> None:
    """A forked child's share: ``fn`` over ``share`` as a list, or the
    exception that stopped it, sent on ``conn``."""
    try:
        conn.send([fn(p) for p in share])
    except Exception as exc:
        conn.send(exc)


def _cuts(path, before: str, ranges: int) -> list:
    """The byte ranges that the data of ``path`` are read in: up to
    ``ranges``.  The data begin after the BOM and ``before`` (the text ahead
    of the first data line); for more than one range one chunked binary scan
    reads them up to the last cut.  Range j > 0 begins just after the first
    ``b"\n"`` at or past j equal shares of the data; no range begins at the
    end of the file.  Each range is (offset, rows, newlines): its first
    byte, the ``b"\n"`` bytes ahead of it, and those in it (None for the
    last range).

    ``rows`` bounds the rows that the ranges before convert, so the budgets
    hold across ranges: ``_read_part`` converts only lines that end in
    ``"\n"`` (or the file's last line), and every such line of an earlier
    range is counted in each later range's ``rows``.  So the rows converted
    across all ranges never pass the budget."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        bom = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        start = bom + len(before.encode())
        targets = [start + (size - start) * j // ranges for j in range(1, ranges)]
        fh.seek(start)
        cuts = [(start, 0)]  # (offset, b"\n" before)
        offset, newlines = start, 0
        while targets and (chunk := fh.read(_SPLIT_BYTES)):
            at = 0
            while targets:
                at = chunk.find(b"\n", max(targets[0] - offset, at))
                if at < 0:
                    break
                at += 1
                targets.pop(0)
                cuts.append((offset + at, newlines + chunk.count(b"\n", 0, at)))
            newlines += chunk.count(b"\n")
            offset += len(chunk)
    cuts = [cut for cut in cuts if cut[0] < size]
    stops = [b[1] - a[1] for a, b in zip(cuts, cuts[1:])] + [None]
    return [cut + (stop,) for cut, stop in zip(cuts, stops)]


def _read_part(path, width: int, label_idx: int, cut):
    """One range of ``_cuts`` through ``np.loadtxt``: its data without the
    label column, and its labels.

    Reads ``cut`` = (offset, rows, newlines) through its own handle (a forked
    child shares the offset of every inherited one) from byte ``offset``
    through the ``newlines``-th line that ends in ``"\n"``, or to the end
    when that is None.  ``rows`` bounds the data rows before (see ``_cuts``),
    so the budgets refuse a row no later than one read of the whole file
    would.  Raises ``ValueError`` at a line for the row loop and at a range
    of another width than ``width``.
    """
    offset, rows, newlines = cut
    labels = []
    field_limit = csv.field_size_limit()

    def keep(cell):
        labels.append(cell)
        return 0.0

    def checked(lines):
        # a line that ends inside a quoted field or in a lone "\r" is the
        # row loop's, so each line begins outside quotes and is one record;
        # only a record over csv's field limit can hold a field csv refuses:
        # a quoted one, or a segment between commas over the limit (its line
        # end counted); the row past the budget is refused before numpy
        # converts it
        nonlocal rows, newlines
        for line in lines:
            if (
                line.endswith("\r")
                or _ends_quoted(line)
                or any(c in line for c in _SEPARATORS)
                or (
                    len(line) > field_limit
                    and ('"' in line or _long_segment(line, field_limit))
                )
            ):
                raise ValueError("a line for the row loop")
            if line.lstrip("\r\n"):
                rows += 1
                _check_matrix_rows(rows)
                _check_feature_matrix(rows, width - 1)
            yield line
            if newlines is not None and line.endswith("\n"):
                newlines -= 1
                if not newlines:
                    return

    with open(path, "rb") as raw:
        raw.seek(offset)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as lines:
            # leading blank lines hold no row and no quote; numpy warns on a
            # range with no row
            rest = checked(lines)
            head = next(filter(lambda line: line.lstrip("\r\n"), rest), None)
            if head is None:
                return np.empty((0, width - 1)), labels
            data = np.loadtxt(
                itertools.chain([head], rest), delimiter=",", quotechar='"',
                comments=None, ndmin=2, converters={label_idx: keep},
            )
    if data.shape[1] != width:
        raise ValueError("a range of another width")
    return np.delete(data, label_idx, axis=1), labels


def _ends_quoted(line: str) -> bool:
    """Whether csv's reader, beginning ``line`` outside quotes, ends it
    inside a quoted field: a ``"`` opens a field only as the field's first
    character, and inside one a doubled ``"`` is a literal one."""
    quoted = False
    at = line.find('"')
    while at >= 0:
        if not quoted:
            quoted = at == 0 or line[at - 1] == ","
        elif line.startswith('"', at + 1):
            at += 1
        else:
            quoted = False
        at = line.find('"', at + 1)
    return quoted


def _long_segment(line: str, limit: int) -> bool:
    """Whether a comma-separated segment of ``line`` runs over ``limit``
    characters.  Each step jumps to the last comma within ``limit + 1``
    characters of a segment's start, so a line costs a few scans, not one
    string per field."""
    start = 0
    while start + limit < len(line):
        comma = line.rfind(",", start, start + limit + 1)
        if comma < 0:
            return True
        start = comma + 1
    return False


def _load_rows(path, label_column, has_header: bool) -> LabeledDataset:
    """Read the file one row at a time; each row's feature cells are parsed
    once by ``float`` and checked finite as the row is read, and the first
    cell that fails raises its ``ParseError`` (see ``load_csv``)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    labels, values = [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) if has_header else None
            if has_header and header is None:
                raise EmptyDatasetError(f"{path} is empty")
            label_idx = _label_index(path, label_column, header)
            rows = filter(None, reader)  # blank lines hold no row
            first = next(rows, None)
            if first is None:
                raise EmptyDatasetError(f"{path} holds no data rows")
            width = len(first)
            if header is not None and len(header) != width:
                raise RaggedRowsError(
                    f"{path}: header has {len(header)} fields but row 0 has {width}"
                )
            if not (-width <= label_idx < width):
                raise ValueError(
                    f"label column index {label_idx} out of range for {width} columns"
                )
            label_idx %= width
            if width < 2:
                raise GinicovError(f"{path}: row 0 holds no feature column")
            for i, row in enumerate(itertools.chain([first], rows)):
                _check_matrix_rows(i + 1)
                _check_feature_matrix(i + 1, width - 1)
                if len(row) != width:
                    raise RaggedRowsError(
                        f"{path}: row {i} has {len(row)} fields, expected {width}"
                    )
                labels.append(row[label_idx])
                # one float() per cell: list.extend keeps the values parsed
                # before the first cell that float() refuses
                cells = row[:label_idx] + row[label_idx + 1:]
                x = []
                try:
                    x.extend(map(float, cells))
                except ValueError:
                    pass
                x = np.array(x)
                bad = np.flatnonzero(~np.isfinite(x))
                k = int(bad[0]) if bad.size else x.size  # the first bad cell
                if k < len(cells):
                    j = k + (k >= label_idx)  # its column in the row
                    why = "is not finite" if bad.size else "is not a number"
                    raise ParseError(
                        f"{path}: row {i}, column {j}: {row[j]!r} {why}", row=i, col=j
                    )
                values.append(x)
    except (UnicodeDecodeError, csv.Error, OSError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            why = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        elif isinstance(exc, csv.Error):
            why = f"line {reader.line_num}: {exc}"
        else:
            why = f"cannot read: {exc.strerror or exc}"
        raise GinicovError(f"{path}: {why}") from None

    if len(labels) < 2:
        raise EmptyDatasetError(
            f"{path} holds {len(labels)} data row(s); need at least 2"
        )
    return LabeledDataset(np.array(values), tuple(labels))


def write_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset so that ``load_csv`` reproduces it bit-exactly.

    Feature values are formatted with 17 significant digits, which float64
    round-trips exactly.  The label column is written first, named "label".
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{j}" for j in range(ds.p)])
        for i in range(ds.n):
            writer.writerow(
                [str(ds.labels[i])] + [format(v, ".17g") for v in ds.data[i]]
            )
