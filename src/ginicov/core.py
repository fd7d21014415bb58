"""Labeled multivariate samples: data model, grouping, and CSV round trips.

A dataset couples an n x p matrix of finite feature values with one class
label per row.  Labels are opaque identifiers (no ordinal meaning); class
order everywhere is first-appearance order in the label vector, which keeps
derived output stable across runs.
"""

from __future__ import annotations

import csv
import itertools
import math
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


def _cell_error(path, i: int, row: list, label_idx: int) -> ParseError:
    """The error for the first feature cell of ``row`` that is not a finite
    real; ``row`` must hold one."""
    for j, cell in enumerate(row):
        if j == label_idx:
            continue
        try:
            v = float(cell)
        except ValueError:
            return ParseError(
                f"{path}: row {i}, column {j}: {cell!r} is not a number",
                row=i,
                col=j,
            )
        if not math.isfinite(v):
            return ParseError(
                f"{path}: row {i}, column {j}: {cell!r} is not finite",
                row=i,
                col=j,
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


def load_csv(path, label_column, has_header: bool = True) -> LabeledDataset:
    """Read a comma-separated file into a LabeledDataset.

    ``label_column`` selects the label column by header name (requires a
    header row) or by 0-based column index.  All remaining columns must
    parse as finite reals and keep their file order; a file with no other
    column raises ``GinicovError`` at its first row.

    The file is UTF-8 text; a leading byte-order mark is dropped.  numpy's C
    tokenizer reads it in one pass (``_load_table``).  Whatever that pass
    does not accept as it stands -- a cell numpy cannot parse (``1_000``,
    say, which ``float`` reads), a non-finite value, a row of another width,
    fewer than 2 rows, a line longer than csv's field limit that holds a
    ``"`` or a comma-separated segment over that limit, a line holding one
    of ``_SEPARATORS``, or a row past the budget below -- is read again from
    the start by the row loop (``_load_rows``), which defines the format: it
    returns that file's data or raises its error.  The row loop checks and
    converts each row as it is read, so the first bad row ends the read.
    The row past the distance-matrix budget (the 11586th, see
    ``_check_matrix_rows``), or the first row whose features would take the
    feature matrix past the same 1 GiB budget (``_check_feature_matrix``),
    raises ``TooLargeError`` before it is converted or any later row is
    read; the one pass stops before that row too.  A file that cannot be
    read or decoded, or that holds a malformed CSV record, raises
    ``GinicovError`` naming the file (and, for a malformed record, its
    line).
    """
    try:
        ds = _load_table(path, label_column, has_header)
    except (ValueError, csv.Error, OSError, GinicovError):
        ds = None
    return _load_rows(path, label_column, has_header) if ds is None else ds


def _load_table(path, label_column, has_header: bool):
    """The dataset as numpy's C tokenizer reads the whole file, or None.

    Returns None, or raises ``ValueError``, ``csv.Error``, ``OSError`` or
    ``GinicovError``, wherever the row loop must decide; it never returns
    data that the row loop would not.
    """
    labels = []

    def keep(cell):
        labels.append(cell)
        return 0.0

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = next(csv.reader(fh), None) if has_header else None
        label_idx = _label_index(path, label_column, header)
        first = next(filter(lambda line: line.strip("\r\n"), fh), None)
        if first is None:
            return None
        width = len(next(csv.reader([first])))
        if (
            width < 2
            or not (-width <= label_idx < width)
            or (header is not None and len(header) != width)
        ):
            return None
        field_limit = csv.field_size_limit()

        def lines():
            # only a line over csv's field limit can hold a field csv refuses:
            # a quoted one, or a segment between commas over the limit (its
            # line end counted); the row past the budget is refused before
            # numpy converts it
            rows = 0
            for line in itertools.chain([first], fh):
                if (
                    len(line) > field_limit
                    and ('"' in line or _long_segment(line, field_limit))
                ) or any(c in line for c in _SEPARATORS):
                    raise ValueError("a line for the row loop")
                if line.strip("\r\n"):
                    rows += 1
                    _check_matrix_rows(rows)
                    _check_feature_matrix(rows, width - 1)
                yield line

        data = np.delete(
            np.loadtxt(
                lines(), delimiter=",", quotechar='"', comments=None, ndmin=2,
                converters={label_idx: keep},
            ),
            label_idx,
            axis=1,
        )
    if data.shape[1] != width - 1:
        return None
    # raises on fewer than 2 rows and on a non-finite value
    return LabeledDataset(data, tuple(labels))


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
    """Read the file one row at a time; each row is checked and converted as
    it is read (see ``load_csv``)."""
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
                # one parse per row; a row that fails is scanned cell by cell
                # so the error names its first bad cell
                cells = row[:label_idx] + row[label_idx + 1:]
                try:
                    x = np.array(list(map(float, cells)))
                except ValueError:
                    raise _cell_error(path, i, row, label_idx) from None
                if not np.isfinite(x).all():
                    raise _cell_error(path, i, row, label_idx)
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
