import csv
import io
import multiprocessing
import os
import pickle
import signal
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ginicov.core
from ginicov import (
    EmptyDatasetError,
    GinicovError,
    LabeledDataset,
    ParseError,
    RaggedRowsError,
    TinyClassError,
    TooFewClassesError,
    TooLargeError,
    group_index,
    load_csv,
    validate_for_testing,
    write_csv,
)


def make_ds(labels, values=None):
    labels = tuple(labels)
    if values is None:
        values = np.arange(len(labels), dtype=float).reshape(-1, 1)
    return LabeledDataset(np.asarray(values, dtype=float), labels)


class TestLoadCsv:
    def test_basic_header_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\na,1,2\nb,3,4\na,5,6\n")
        ds = load_csv(f, "y")
        assert ds.n == 3
        assert ds.p == 2
        assert ds.labels == ("a", "b", "a")
        assert np.array_equal(ds.data, [[1, 2], [3, 4], [5, 6]])

    def test_label_column_by_index(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,a\n3,4,b\n")
        ds = load_csv(f, 2, has_header=False)
        assert ds.labels == ("a", "b")
        assert np.array_equal(ds.data, [[1, 2], [3, 4]])

    def test_non_numeric_cell_reports_row_and_col(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\na,1,2\nb,abc,4\n")
        with pytest.raises(ParseError) as exc:
            load_csv(f, "y")
        assert exc.value.row == 1
        assert exc.value.col == 1

    def test_non_finite_cell_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\na,1\nb,inf\n")
        with pytest.raises(ParseError):
            load_csv(f, "y")

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\na,1,2\nb,3\n")
        with pytest.raises(RaggedRowsError):
            load_csv(f, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_and_single_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(f, "y")
        f.write_text("y,x\na,1\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(f, "y")

    def test_unknown_label_name(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\na,1\nb,2\n")
        with pytest.raises(GinicovError):
            load_csv(f, "label")

    def test_name_requires_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,1\nb,2\n")
        with pytest.raises(ValueError):
            load_csv(f, "y", has_header=False)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((120, 200)) * rng.uniform(1e-8, 1e8)
        labels = tuple(str(v) for v in rng.integers(0, 3, 120))
        ds = LabeledDataset(data, labels)
        f = tmp_path / "rt.csv"
        write_csv(ds, f)
        back = load_csv(f, "label")
        assert back.labels == ds.labels
        assert np.array_equal(back.data, ds.data)


class TestLoadCsvRowParse:
    """The row loop parses each cell with ``float`` and checks it finite, so
    the first bad cell of a row names its error."""

    def test_non_finite_before_unparseable_reports_first_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2,x3\na,1,2,3\nb,4,nan,abc\n")
        with pytest.raises(ParseError, match="'nan' is not finite") as exc:
            load_csv(f, "y")
        assert (exc.value.row, exc.value.col) == (1, 2)

    def test_parse_error_after_clean_rows_reports_its_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\na,1,2\nb,3,4\na,5,6\nb,7,x\na,9,9,9\n")
        with pytest.raises(ParseError, match="'x' is not a number") as exc:
            load_csv(f, "y")
        assert (exc.value.row, exc.value.col) == (3, 2)

    @pytest.mark.parametrize(
        "label_col, lines, bad_col",
        [
            (0, ["a,1,2,3", "b,4,5,z"], 3),
            (1, ["1,a,2,3", "4,b,z,5"], 2),
            (3, ["1,2,3,a", "z,4,5,b"], 0),
            (-1, ["1,2,3,a", "4,z,5,b"], 1),
            (-3, ["1,a,2,3", "4,b,5,z"], 3),
            (3, ["1,2,3,a", "inf,4,5,b"], 0),
            (-1, ["1,2,3,a", "4,-inf,z,b"], 1),
        ],
    )
    def test_columns_around_label(self, tmp_path, label_col, lines, bad_col):
        f = tmp_path / "d.csv"
        good = lines[0]
        f.write_text(f"{good}\n{good}\n")
        ds = load_csv(f, label_col, has_header=False)
        cells = good.split(",")
        label = cells.pop(label_col)
        assert ds.labels == (label, label)
        assert ds.data.tolist() == [[float(c) for c in cells]] * 2
        f.write_text(f"{good}\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ParseError) as exc:
            load_csv(f, label_col, has_header=False)
        assert (exc.value.row, exc.value.col) == (1, bad_col)

    def test_cells_python_float_accepts(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,x1,x2,x3\na," 1.5 ",1_000,1e-320\nb,-0.0,7,2\n')
        ds = load_csv(f, "y")
        assert ds.data[0].tolist() == [1.5, 1000.0, 1e-320]
        assert ds.data[0, 2] == float("1e-320") != 0.0
        assert np.signbit(ds.data[1, 0])


def traced_peak(fn):
    """Return value and traced allocation peak (bytes) of ``fn()``."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadCsvOnePass:
    """Rows are checked and converted as they are read; no table of cell
    strings is built."""

    def test_traced_peak_stays_near_the_result(self, tmp_path):
        rng = np.random.default_rng(11)
        labels = tuple(str(v) for v in rng.integers(1, 4, 300))
        ds = LabeledDataset(rng.standard_normal((300, 2000)), labels)
        f = tmp_path / "wide.csv"
        write_csv(ds, f)
        back, peak = traced_peak(lambda: load_csv(f, "label"))
        assert np.array_equal(back.data, ds.data)
        assert back.labels == labels
        assert peak < 2.5 * back.data.nbytes

    def test_oversized_file_is_refused_at_the_row_past_the_budget(self, tmp_path):
        f = tmp_path / "tall.csv"
        rows = "".join(f"{'ab'[i % 2]},{i},{-i}\n" for i in range(4 * 11586))
        # a malformed last row is never reached
        f.write_text("y,x1,x2\n" + rows + "b,oops,1\n")

        def refuse():
            with pytest.raises(TooLargeError, match="^11586 rows need"):
                load_csv(f, "y")

        def parse():
            with open(f, newline="") as fh:
                return len(list(csv.reader(fh)))

        _, refused = traced_peak(refuse)
        _, full = traced_peak(parse)
        assert refused < full / 3

    def test_wide_file_is_refused_at_the_row_past_the_feature_budget(
        self, tmp_path, monkeypatch
    ):
        # 4 rows of 50 features fill the budget exactly; the 5th row crosses
        # it and is refused before its malformed cell is converted
        monkeypatch.setattr(ginicov.core, "_MAX_MATRIX_BYTES", 8 * 4 * 50)
        rows = [[f"{i}.5"] * 50 for i in range(4)] + [["oops"] * 50]
        body = "".join(f"{'ab'[i % 2]}," + ",".join(r) + "\n" for i, r in enumerate(rows))
        f = tmp_path / "wide.csv"
        f.write_text("y," + ",".join(f"x{j}" for j in range(50)) + "\n" + body)
        with pytest.raises(TooLargeError, match="^5 rows of 50 features need a"):
            load_csv(f, "y")
        f.write_text(f.read_text().rsplit("\n", 2)[0] + "\n")
        assert load_csv(f, "y").data.shape == (4, 50)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_text("label,x\na,1\nb,2\n", encoding="utf-8-sig")
        assert load_csv(f, "label").labels == ("a", "b")
        f.write_text("1,a\n2,b\n", encoding="utf-8-sig")
        assert load_csv(f, 1, has_header=False).data.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"y,x\na,1\nb,\xff2\n", r"not UTF-8 text \(byte 0xff"),
            (b"y,x\na,1\nb," + b"1" * 131073 + b"\n", "line 3: field larger"),
            # finite, so only the line-length rule keeps it from numpy
            (b"y,x\na,1\nb,0." + b"0" * 131072 + b"1\n", "line 3: field larger"),
        ],
        ids=["not-utf8", "field-over-limit", "finite-field-over-limit"],
    )
    def test_unreadable_content_is_a_data_error(self, tmp_path, content, message):
        f = tmp_path / "d.csv"
        f.write_bytes(content)
        with pytest.raises(GinicovError, match=message) as exc:
            load_csv(f, "y")
        assert type(exc.value) is GinicovError
        assert str(exc.value).startswith(f"{f}: ")

    def test_header_error_comes_before_a_later_read_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\na,1\nb," + "1" * 131073 + "\n")
        with pytest.raises(GinicovError, match="label column 'label' not found"):
            load_csv(f, "label")


# Cells for the files below: plain numbers, which numpy's tokenizer reads as
# ``float`` does, and odd cells, which it may read otherwise or not at all.
_PLAIN = ["0", "1", "-2.5", "3e2", ".5", "7.", "1234.5678"]
_ODD = [
    " 3 ", '"4"', '" 5 "', "\t6", '"7" ', ' "8"', "1_000", "\u0661", "nan",
    "inf", "-Infinity", "1e400", "0x1", "1e-320", "-0.0", "", " ", "x",
    '"a,b"', '"q""r"', '"', '"1\n2"', '"a\n\nb"', "a b", "2\x1c", "\x1f3",
]


@st.composite
def csv_files(draw):
    """A small CSV text, its label column, whether it has a header and csv's
    field limit to read it under: the default, or one that small lines and
    cells run over."""
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    rows = [
        [draw(st.sampled_from(_PLAIN)) for _ in range(width)]
        for _ in range(draw(st.integers(0, 5)))
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD))
    if rows and draw(st.sampled_from([False, False, True])):  # a ragged row
        row = draw(st.sampled_from(rows))
        row[:] = row[: draw(st.integers(0, width + 1))] + ["1"] * draw(
            st.integers(0, 1)
        )
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(0, len(lines))), "")
    has_header = draw(st.booleans())
    names = [f"c{j}" for j in range(width + draw(st.sampled_from([0, 0, 0, 1])))]
    if has_header:
        lines.insert(0, ",".join(names))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    label_column = draw(
        st.one_of(
            st.integers(-width - 1, width),
            st.integers(-width, width - 1).map(str),
            st.sampled_from(names + ["zz"]),
        )
    )
    field_limit = draw(st.sampled_from([csv.field_size_limit(), 3, 4, 6, 12]))
    return text, label_column, has_header, field_limit


def outcome(load, path, label_column, has_header):
    """What a loader makes of a file: its data and labels, or its error."""
    try:
        ds = load(path, label_column, has_header)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return ds.data.shape, ds.data.tobytes(), ds.labels


class TestLoadCsvTokenizer:
    """numpy's tokenizer reads what it can; the row loop decides the rest."""

    @settings(max_examples=400, deadline=None)
    @given(case=csv_files())
    # a quoted field over the limit whose every line is within it
    @example(case=(' 3 ,0,"\n0,0,0\n0,0,"4"\n0,0,0\n0,0,0', -1, False, 12))
    def test_equals_the_row_loop(self, tmp_path_factory, case):
        text, label_column, has_header, field_limit = case
        f = tmp_path_factory.getbasetemp() / "case.csv"
        f.write_text(text, encoding="utf-8", newline="")
        default = csv.field_size_limit(field_limit)
        try:
            assert outcome(load_csv, f, label_column, has_header) == outcome(
                ginicov.core._load_rows, f, label_column, has_header
            )
        finally:
            csv.field_size_limit(default)

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(',a"', max_size=30))
    def test_ends_quoted_as_csv_reads(self, line):
        # a line that ends inside a quoted field takes its line end into it
        text = line + "\nz\n"
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert ginicov.core._ends_quoted(line + "\n") == any(
            "\n" in field for row in rows for field in row
        )

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(",ab\n", max_size=40), limit=st.integers(0, 12))
    def test_long_segment_is_the_longest_split(self, line, limit):
        assert ginicov.core._long_segment(line, limit) == (
            max(map(len, line.split(","))) > limit
        )

    @pytest.mark.parametrize(
        "line, one_pass",
        [("a,1.25,2.5", True), ("a,1.2500000,2.5", False), ('"a",1.25,2.5', False)],
    )
    def test_lines_over_the_field_limit(self, tmp_path, line, one_pass):
        # unquoted fields within the limit are the tokenizer's to read
        f = tmp_path / "d.csv"
        f.write_text(f"y,x1,x2\nb,3,4\n{line}\n")
        default = csv.field_size_limit(8)
        try:
            try:
                ds = ginicov.core._load_table(f, "y", True)
            except ValueError:
                ds = None
            assert (ds is not None) == one_pass
            assert outcome(load_csv, f, "y", True) == outcome(
                ginicov.core._load_rows, f, "y", True
            )
        finally:
            csv.field_size_limit(default)

    @pytest.mark.parametrize(
        "budget, width, fits, message",
        [
            (8 * 4 * 50, 51, 4, "^5 rows of 50 features need a"),
            (72, 2, 3, "^4 rows need a"),
        ],
    )
    def test_well_formed_rows_past_the_budget_are_refused(
        self, tmp_path, monkeypatch, budget, width, fits, message
    ):
        monkeypatch.setattr(ginicov.core, "_MAX_MATRIX_BYTES", budget)
        f = tmp_path / "d.csv"
        rows = [
            f"{'ab'[i % 2]}," + ",".join(["1.5"] * (width - 1)) for i in range(fits)
        ]
        f.write_text("\n".join(rows) + "\n")
        # a file at the budget is the tokenizer's to read
        ds = ginicov.core._load_table(f, 0, has_header=False)
        assert ds.data.shape == (fits, width - 1)
        f.write_text("\n".join(rows + rows[:1]) + "\n")
        with pytest.raises(TooLargeError, match=message):
            load_csv(f, 0, has_header=False)

    def test_first_record_is_measured_whole(self, tmp_path):
        # its first line has the header's width, the record itself one more
        f = tmp_path / "d.csv"
        f.write_text('y,x\n1,"2\n",3\n4,5,6\n')
        with pytest.raises(RaggedRowsError, match="header has 2 fields but row 0 has"):
            load_csv(f, "y")

    @pytest.mark.parametrize("cell", ["2\x1c", "\x1f2"])
    def test_information_separator_is_no_space(self, tmp_path, cell):
        # numpy's parse skips it around a number; float() refuses it
        f = tmp_path / "d.csv"
        f.write_text(f"y,x\na,1\nb,{cell}\n")
        with pytest.raises(ParseError, match="is not a number"):
            load_csv(f, "y")

    def test_tokenizer_reads_a_plain_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,x1,x2\r\n"a,b",1,2\r\n\r\nb, 3 ,"4"\r\n')
        ds = ginicov.core._load_table(f, "y", True)
        assert ds.labels == ("a,b", "b")
        assert ds.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# Labels for the split files below, one of them multi-byte UTF-8
_LABELS = ["a", "b", "x y", "\u00e9", "\u30e9\u30d9\u30eb"]


@st.composite
def split_files(draw):
    """A CSV file of up to 30 rows, as bytes, with its label column and
    whether it has a header: odd cells and ragged rows now and then, blank
    lines anywhere, each line with its own ending, an optional byte-order
    mark, and rarely a quoted label that runs over lines."""
    width = draw(st.sampled_from([2, 3, 4]))
    rows = [
        [draw(st.sampled_from(_LABELS))]
        + [draw(st.sampled_from(_PLAIN)) for _ in range(width - 1)]
        for _ in range(draw(st.integers(0, 30)))
    ]
    unquoted = [cell for cell in _ODD if '"' not in cell]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, width - 1))] = draw(st.sampled_from(unquoted))
    if rows and draw(st.sampled_from([False] * 5 + [True])):  # a ragged row
        draw(st.sampled_from(rows)).append("1")
    if rows and draw(st.sampled_from([False] * 5 + [True])):
        draw(st.sampled_from(rows))[0] = '"q\n\nr"'
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 6))):  # blank lines
        lines.insert(draw(st.integers(0, len(lines))), "")
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, ",".join(["y"] + [f"x{j}" for j in range(width - 1)]))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if text and draw(st.booleans()):  # no line end after the last line
        text = text.rstrip("\r\n")
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    label_column = draw(st.sampled_from(["y", 0, -width][not has_header:]))
    return bom + text.encode("utf-8"), label_column, has_header


def _split_small(monkeypatch, split_bytes=64, cores=4):
    """Split files of a few lines, on up to ``cores`` whatever the host's."""
    monkeypatch.setattr(ginicov.core, "_SPLIT_BYTES", split_bytes)
    monkeypatch.setattr(ginicov.core, "_usable_cores", lambda: cores)


def _tall(path, rows, last=None, eol="\n"):
    """A header and ``rows`` two-feature rows, then the line ``last``, each
    line ended by ``eol``."""
    body = "".join(f"{'ab'[i % 2]},{i},{-i}{eol}" for i in range(rows))
    path.write_text(
        f"y,x1,x2{eol}" + body + ("" if last is None else last + eol), newline=""
    )


class TestLoadCsvSplit:
    """Forked children parse byte ranges of a file; the parts stack to the
    one pass's data, and any failure goes to the row loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=split_files(),
        workers=st.integers(1, 4),
        split_bytes=st.integers(4, 48),
    )
    def test_equals_the_one_pass_and_the_row_loop(
        self, tmp_path_factory, case, workers, split_bytes
    ):
        content, label_column, has_header = case
        f = tmp_path_factory.getbasetemp() / "split.csv"
        f.write_bytes(content)
        with mock.patch.object(ginicov.core, "_SPLIT_BYTES", split_bytes), \
                mock.patch.object(ginicov.core, "_usable_cores", lambda: 4):
            split = outcome(
                lambda *args: load_csv(*args, workers=workers),
                f, label_column, has_header,
            )
            assert split == outcome(load_csv, f, label_column, has_header)
        assert split == outcome(ginicov.core._load_rows, f, label_column, has_header)
        assert not multiprocessing.active_children()

    @settings(max_examples=200, deadline=None)
    @given(
        case=split_files(),
        ranges=st.integers(2, 4),
        split_bytes=st.integers(4, 48),
    )
    def test_cuts_follow_a_newline_and_bound_the_rows_before(
        self, tmp_path_factory, case, ranges, split_bytes
    ):
        content, _, _ = case
        f = tmp_path_factory.getbasetemp() / "cuts.csv"
        f.write_bytes(content)
        with mock.patch.object(ginicov.core, "_SPLIT_BYTES", split_bytes):
            cuts = ginicov.core._cuts(f, "", ranges)
        start = 3 if content.startswith(b"\xef\xbb\xbf") else 0
        if start == len(content):  # no data, so no range
            assert cuts == []
            return
        assert len(cuts) <= ranges
        assert cuts[0][:2] == (start, 0)
        offsets = [offset for offset, _, _ in cuts]
        assert offsets == sorted(set(offsets))
        for offset, rows, _ in cuts[1:]:
            assert content[offset - 1:offset] == b"\n" and offset < len(content)
            data = content[start:offset]
            # the ranges convert only lines that end in "\n"
            lines = io.StringIO(data.decode("utf-8"), newline="")
            assert rows >= sum(
                1 for line in lines if line.strip("\r\n") and line.endswith("\n")
            )
        # each range but the last stops after its count of b"\n"
        ends = offsets[1:] + [None]
        for (offset, _, newlines), end in zip(cuts, ends):
            lf = None if end is None else content[offset:end].count(b"\n")
            assert newlines == lf

    def test_a_large_file_is_cut_into_ranges_for_the_workers(
        self, tmp_path, monkeypatch, forks
    ):
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        _tall(f, 60)
        expected = ginicov.core._load_rows(f, "y", True)
        monkeypatch.setattr(ginicov.core, "_load_rows", None)  # the parts decide
        for workers, children in [(1, 0), (2, 1), (3, 2), (8, 3)]:
            ds = load_csv(f, "y", workers=workers)
            assert len(forks) == children
            forks.clear()
            assert np.array_equal(ds.data, expected.data)
            assert ds.labels == expected.labels
        assert not multiprocessing.active_children()

    def test_a_range_of_blank_lines_is_an_empty_part(
        self, tmp_path, monkeypatch, forks
    ):
        # the middle range holds only blank lines; numpy would warn on it
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        rows = [f"{'ab'[i % 2]},{i}" for i in range(40)]
        f.write_text("y,x\n" + "\n".join(rows[:20]) + "\n" * 600
                     + "\n".join(rows[20:]) + "\n")
        expected = ginicov.core._load_rows(f, "y", True)
        monkeypatch.setattr(ginicov.core, "_load_rows", None)
        ds = load_csv(f, "y", workers=3)
        assert len(forks) == 2
        assert ds.labels == expected.labels
        assert np.array_equal(ds.data, expected.data)

    def test_ranges_are_capped_by_the_cores_and_the_size(
        self, tmp_path, monkeypatch, forks
    ):
        f = tmp_path / "d.csv"
        _tall(f, 60)  # 527 bytes: each range holds at least the split size
        for split_bytes, cores, children in [(64, 2, 1), (263, 4, 1), (264, 4, 0)]:
            _split_small(monkeypatch, split_bytes, cores)
            load_csv(f, "y", workers=4)
            assert len(forks) == children
            forks.clear()

    def test_a_quoted_file_is_split_like_any_other(
        self, tmp_path, monkeypatch, forks
    ):
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n" + "".join(
            f'"{"ab"[i % 2]}",{i},"{-i}"\n' for i in range(60)
        ) + '"a,""b""",60,-60\n')
        expected = ginicov.core._load_rows(f, "y", True)
        monkeypatch.setattr(ginicov.core, "_load_rows", None)  # the parts decide
        ds = load_csv(f, "y", workers=4)
        assert len(forks) == 3
        assert ds.labels == expected.labels and ds.labels[-1] == 'a,"b"'
        assert np.array_equal(ds.data, expected.data)

    @pytest.mark.parametrize(
        "last",
        ['"a\nb",60,-60', "a,60,-60\rb,61,-61"],
        ids=["record-over-lines", "lone-cr"],
    )
    def test_lines_that_end_inside_quotes_or_in_a_lone_cr_go_to_the_row_loop(
        self, tmp_path, monkeypatch, forks, last
    ):
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        _tall(f, 60, last=last)
        with pytest.raises(ValueError, match="a line for the row loop"):
            ginicov.core._load_table(f, "y", True, 3)
        assert len(forks) == 2
        assert outcome(
            lambda *args: load_csv(*args, workers=3), f, "y", True
        ) == outcome(ginicov.core._load_rows, f, "y", True)
        assert not multiprocessing.active_children()

    def test_a_bad_cell_in_the_last_range_is_the_row_loops_error(
        self, tmp_path, monkeypatch, forks
    ):
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        _tall(f, 60, last="b,oops,1")
        with pytest.raises(ParseError, match="row 60, column 1: 'oops'") as exc:
            load_csv(f, "y", workers=3)
        assert (exc.value.row, exc.value.col) == (60, 1)
        assert len(forks) == 2
        assert not multiprocessing.active_children()

    def test_a_child_that_dies_leaves_the_file_to_the_row_loop(
        self, tmp_path, monkeypatch, forks
    ):
        _split_small(monkeypatch)
        monkeypatch.setattr(ginicov.core, "_send_share", lambda *args: os._exit(3))
        f = tmp_path / "d.csv"
        _tall(f, 60)
        ds = load_csv(f, "y", workers=2)
        assert ds.data.shape == (60, 2) and ds.labels[-1] == "b"
        assert [child.exitcode for child in forks] == [3]
        assert not multiprocessing.active_children()

    def test_a_failed_first_range_stops_every_child(
        self, tmp_path, monkeypatch, forks
    ):
        _split_small(monkeypatch)
        monkeypatch.setattr(ginicov.core, "_send_share", lambda *args: time.sleep(60))
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\na,oops,0\n" + "".join(
            f"{'ab'[i % 2]},{i},{-i}\n" for i in range(60)
        ))
        started = time.perf_counter()
        with pytest.raises(ParseError, match="row 0, column 1: 'oops'"):
            load_csv(f, "y", workers=3)
        assert time.perf_counter() - started < 30
        assert len(forks) == 2
        assert not multiprocessing.active_children()
        assert not any(child.is_alive() for child in forks)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("budget, message", [(40, "^41 rows need"), (80, None)])
    def test_the_row_budget_holds_across_ranges(
        self, tmp_path, monkeypatch, forks, budget, message, eol
    ):
        # each range counts from an upper bound on the rows before it, one
        # per line whatever its line end
        _split_small(monkeypatch)
        monkeypatch.setattr(ginicov.core, "_MAX_MATRIX_BYTES", 8 * budget * budget)
        f = tmp_path / "d.csv"
        _tall(f, 41, eol=eol)
        if message is None:
            assert load_csv(f, "y", workers=3).n == 41
        else:
            with pytest.raises(TooLargeError, match=message):
                load_csv(f, "y", workers=3)
        _tall(f, 40, eol=eol)
        assert ginicov.core._load_table(f, "y", True, 3).n == 40
        assert len(forks) == 4

    def test_no_range_converts_past_the_budget_beside_lone_cr_lines(
        self, tmp_path, monkeypatch
    ):
        # a line ended by a lone "\r" is in no later range's bound, so no
        # range converts it; the ranges run in turn here, to count them all
        _split_small(monkeypatch)
        monkeypatch.setattr(ginicov.core, "_MAX_MATRIX_BYTES", 8 * 40 * 40)
        monkeypatch.setattr(ginicov.core, "_fork_context", lambda: None)
        converted = []
        loadtxt = np.loadtxt

        def counting(lines, **kwargs):
            def counted():
                for line in lines:
                    converted.append(bool(line.strip("\r\n")))
                    yield line

            return loadtxt(counted(), **kwargs)

        monkeypatch.setattr(ginicov.core.np, "loadtxt", counting)
        f = tmp_path / "d.csv"
        ends = ["\r", "\n"]
        f.write_text("y,x1,x2\n" + "".join(
            f"{'ab'[i % 2]},{i},{-i}{ends[i % 2]}" for i in range(41)
        ), newline="")
        assert len(ginicov.core._cuts(f, "y,x1,x2\n", 3)) == 3
        with pytest.raises(TooLargeError, match="^41 rows need"):
            load_csv(f, "y", workers=3)
        assert sum(converted) <= 40

    def test_no_split_beside_another_thread(self, tmp_path, monkeypatch, forks):
        _split_small(monkeypatch)
        f = tmp_path / "d.csv"
        _tall(f, 60)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert load_csv(f, "y", workers=2).n == 60
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_refused(self, tmp_path, workers):
        f = tmp_path / "d.csv"
        _tall(f, 3)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            load_csv(f, "y", workers=workers)


def _payload_and_pid(payload):
    return payload, os.getpid()


class TestForkMap:
    """Child w runs payloads[w::workers], this process runs the rest, and
    the results come back in payload order; any failure is raised here
    once every child is stopped."""

    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        yield
        assert not multiprocessing.active_children()

    def test_results_come_back_in_payload_order(self, forks):
        out = ginicov.core._fork_map(_payload_and_pid, list(range(7)), 3)
        assert [payload for payload, _ in out] == list(range(7))
        pids = [pid for _, pid in out]
        assert pids[0::3] == [os.getpid()] * 3
        assert pids[1::3] == [forks[0].pid] * 2
        assert pids[2::3] == [forks[1].pid] * 2

    @pytest.mark.parametrize(
        "tasks, workers",
        [(7, 3), (2, 8), (3, 3), (5, 1), (1, 4), (0, 3), (4, 0)],
    )
    def test_one_child_per_share_but_the_first(self, forks, tasks, workers):
        payloads = list(range(-tasks, 0))
        out = ginicov.core._fork_map(abs, payloads, workers)
        assert out == [abs(p) for p in payloads]
        assert len(forks) == max(min(workers, tasks) - 1, 0)

    def test_a_childs_exception_is_raised_here(self, forks):
        def checked(payload):
            if payload == 4:
                raise ValueError(f"payload {payload} refused")
            return payload

        with pytest.raises(ValueError, match="^payload 4 refused$"):
            ginicov.core._fork_map(checked, list(range(7)), 3)
        assert len(forks) == 2

    def test_a_childs_parse_error_keeps_its_cell(self, forks):
        def parsed(payload):
            if payload == 1:
                raise ParseError("d.csv: row 3, column 4: 'x' is not a number", 3, 4)
            return payload

        with pytest.raises(ParseError, match="^d.csv: row 3, column 4: 'x'") as exc:
            ginicov.core._fork_map(parsed, [0, 1], 2)
        assert (exc.value.row, exc.value.col) == (3, 4)
        assert len(forks) == 1

    def test_a_child_that_dies_raises_here(self, forks):
        def dying(payload):
            if payload == 2:
                os._exit(3)
            return payload

        with pytest.raises(EOFError):
            ginicov.core._fork_map(dying, list(range(7)), 3)
        assert [child.exitcode for child in forks] == [0, 3]

    def test_a_result_that_cannot_be_sent_raises_here(self, forks):
        with pytest.raises(TypeError, match="cannot pickle"):
            ginicov.core._fork_map(lambda _: threading.Lock(), [1, 2], 2)
        assert [child.exitcode for child in forks] == [0]

    def test_a_failure_here_stops_every_child(self, forks):
        parent = os.getpid()

        def work(payload):
            if os.getpid() == parent:
                raise ValueError("the first share failed")
            time.sleep(60)

        started = time.perf_counter()
        with pytest.raises(ValueError, match="the first share failed"):
            ginicov.core._fork_map(work, list(range(3)), 3)
        assert time.perf_counter() - started < 30
        assert [child.exitcode for child in forks] == [-signal.SIGKILL] * 2

    def test_nothing_forks_beside_another_thread(self, forks):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            out = ginicov.core._fork_map(_payload_and_pid, list(range(5)), 3)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert out == [(payload, os.getpid()) for payload in range(5)]
        assert forks == []


@pytest.mark.parametrize(
    "error, attributes",
    [
        (ParseError("d.csv: row 3, column 4: 'x' is not a number", 3, 4),
         {"row": 3, "col": 4}),
        (TinyClassError("class 'a' has only 1 observation(s)", label="a"),
         {"label": "a"}),
    ],
)
def test_package_errors_survive_a_pickle_round_trip(error, attributes):
    # a forked child's error reaches its parent pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert {name: getattr(back, name) for name in attributes} == attributes


class TestUsableCores:
    def test_the_affinity_where_the_platform_reports_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ginicov.core._usable_cores() == 2

    @pytest.mark.parametrize("count, cores", [(8, 8), (None, 1)])
    def test_the_hosts_count_elsewhere(self, monkeypatch, count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert ginicov.core._usable_cores() == cores


class TestLabeledDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_ds("ab", [[0.0], [np.nan]])

    def test_rejects_single_row(self):
        with pytest.raises(EmptyDatasetError):
            LabeledDataset(np.zeros((1, 2)), ("a",))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), ("a", "b"))

    def test_data_is_read_only(self):
        ds = make_ds("ab")
        with pytest.raises(ValueError):
            ds.data[0, 0] = 1.0

    def test_callers_array_stays_writeable(self):
        a = np.random.default_rng(3).standard_normal((6, 3))
        ds = LabeledDataset(a, "aabbcc")
        # a view of the caller's float64 matrix, not a copy
        assert np.shares_memory(ds.data, a)
        a[0, 0] = 1.0
        assert ds.data[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.data[0, 0] = 2.0


class TestGroupIndex:
    def test_counts_and_proportions(self):
        gi = group_index(make_ds("aabbb"))
        assert gi.classes == ("a", "b")
        assert gi.counts.tolist() == [2, 3]
        assert (gi.counts / gi.n).tolist() == [0.4, 0.6]

    def test_single_class(self):
        gi = group_index(make_ds("aaa"))
        assert gi.k == 1
        assert gi.counts.tolist() == [3]
        assert (gi.counts / gi.n).tolist() == [1.0]

    def test_first_appearance_order(self):
        gi = group_index(make_ds("caca"))
        assert gi.classes == ("c", "a")
        assert np.flatnonzero(gi.codes == 0).tolist() == [0, 2]
        assert np.flatnonzero(gi.codes == 1).tolist() == [1, 3]
        assert gi.codes.tolist() == [0, 1, 0, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            labels = tuple(int(v) for v in rng.integers(0, 5, n))
            gi = group_index(make_ds(labels))
            assert int(gi.counts.sum()) == n
            assert abs(float((gi.counts / gi.n).sum()) - 1.0) <= 1e-12
            for c, lab in enumerate(gi.classes):
                rows = np.flatnonzero(gi.codes == c)
                assert rows.size == gi.counts[c]
                assert all(labels[i] == lab for i in rows)


class TestValidateForTesting:
    def test_boundary_ok(self):
        validate_for_testing(group_index(make_ds("aabb")))

    def test_tiny_class(self):
        with pytest.raises(TinyClassError) as exc:
            validate_for_testing(group_index(make_ds("aaaaab")))
        assert exc.value.label == "b"

    def test_too_few_classes(self):
        with pytest.raises(TooFewClassesError):
            validate_for_testing(group_index(make_ds("aaaaaaa")))
