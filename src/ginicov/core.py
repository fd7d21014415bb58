"""Labeled multivariate samples: data model, grouping, and CSV round trips.

A dataset couples an n x p matrix of finite feature values with one class
label per row.  Labels are opaque identifiers (no ordinal meaning); class
order everywhere is first-appearance order in the label vector, which keeps
derived output stable across runs.
"""

from __future__ import annotations

import csv
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
)


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
    """Partition of rows by class: identifiers, row indices, counts, shares."""

    classes: tuple
    indices: tuple
    counts: np.ndarray
    proportions: np.ndarray
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
    order = np.argsort(codes, kind="stable")
    indices = tuple(np.split(order, np.cumsum(counts)[:-1]))
    proportions = counts / float(ds.n)
    for arr in (*indices, counts, proportions, codes):
        arr.setflags(write=False)
    return GroupIndex(classes, indices, counts, proportions, ds.n, codes)


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


def load_csv(path, label_column, has_header: bool = True) -> LabeledDataset:
    """Read a comma-separated file into a LabeledDataset.

    ``label_column`` selects the label column by header name (requires a
    header row) or by 0-based column index.  All remaining columns must
    parse as finite reals and keep their file order.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        if has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDatasetError(f"{path} is empty") from None
        raw_rows = [row for row in reader if row]

    if isinstance(label_column, int) or (
        isinstance(label_column, str) and label_column.lstrip("-").isdigit()
    ):
        label_idx = int(label_column)
    else:
        if header is None:
            raise ValueError(
                "label column by name requires a header row"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise GinicovError(
                f"{path}: label column {label_column!r} not found in header"
            ) from None

    if not raw_rows:
        raise EmptyDatasetError(f"{path} holds no data rows")
    width = len(raw_rows[0])
    if header is not None and len(header) != width:
        raise RaggedRowsError(
            f"{path}: header has {len(header)} fields but row 0 has {width}"
        )
    if not (-width <= label_idx < width):
        raise ValueError(
            f"label column index {label_idx} out of range for {width} columns"
        )
    label_idx %= width

    labels = []
    values = np.empty((len(raw_rows), width - 1), dtype=np.float64)
    for i, row in enumerate(raw_rows):
        if len(row) != width:
            raise RaggedRowsError(
                f"{path}: row {i} has {len(row)} fields, expected {width}"
            )
        j_out = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                labels.append(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column {j}: {cell!r} is not a number",
                    row=i,
                    col=j,
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: row {i}, column {j}: {cell!r} is not finite",
                    row=i,
                    col=j,
                )
            values[i, j_out] = v
            j_out += 1

    if len(raw_rows) < 2:
        raise EmptyDatasetError(
            f"{path} holds {len(raw_rows)} data row(s); need at least 2"
        )
    return LabeledDataset(values, tuple(labels))


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
