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


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable (X, Y) sample: features in 64-bit floats, labels verbatim."""

    data: np.ndarray
    labels: tuple

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
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


def load_csv(path, label_column, has_header: bool = True) -> LabeledDataset:
    """Read a comma-separated file into a LabeledDataset, one row at a time.

    ``label_column`` selects the label column by header name (requires a
    header row) or by 0-based column index.  All remaining columns must
    parse as finite reals and keep their file order.

    The file is UTF-8 text; a leading byte-order mark is dropped.  Each row
    is checked and converted as it is read, so the first bad row ends the
    read, and the row past the distance-matrix budget (the 11586th, see
    ``_check_matrix_rows``) raises ``TooLargeError`` before any later row is
    read.  A file that cannot be read or decoded, or that holds a malformed
    CSV record, raises ``GinicovError`` naming the file (and, for a
    malformed record, its line).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    labels, values = [], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) if has_header else None
            if has_header and header is None:
                raise EmptyDatasetError(f"{path} is empty")
            if isinstance(label_column, int) or (
                isinstance(label_column, str) and label_column.lstrip("-").isdigit()
            ):
                label_idx = int(label_column)
            elif header is None:
                raise ValueError("label column by name requires a header row")
            elif label_column in header:
                label_idx = header.index(label_column)
            else:
                raise GinicovError(
                    f"{path}: label column {label_column!r} not found in header"
                )
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
            for i, row in enumerate(itertools.chain([first], rows)):
                _check_matrix_rows(i + 1)
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


def write_csv(ds: LabeledDataset, path, header: bool = True) -> None:
    """Write a dataset so that ``load_csv`` reproduces it bit-exactly.

    Feature values are formatted with 17 significant digits, which float64
    round-trips exactly.  The label column is written first, named "label".
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(["label"] + [f"f{j}" for j in range(ds.p)])
        for i in range(ds.n):
            writer.writerow(
                [str(ds.labels[i])] + [format(v, ".17g") for v in ds.data[i]]
            )
