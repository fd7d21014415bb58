import csv
import tracemalloc

import numpy as np
import pytest

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
    """Each row is parsed in one call; a row that fails is rescanned cell by
    cell, so errors and values match a per-cell parse."""

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
        ],
        ids=["not-utf8", "field-over-limit"],
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
