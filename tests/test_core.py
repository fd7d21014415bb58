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
        assert gi.proportions.tolist() == [0.4, 0.6]

    def test_single_class(self):
        gi = group_index(make_ds("aaa"))
        assert gi.k == 1
        assert gi.counts.tolist() == [3]
        assert gi.proportions.tolist() == [1.0]

    def test_first_appearance_order(self):
        gi = group_index(make_ds("caca"))
        assert gi.classes == ("c", "a")
        assert gi.indices[0].tolist() == [0, 2]
        assert gi.indices[1].tolist() == [1, 3]
        assert gi.codes.tolist() == [0, 1, 0, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            labels = tuple(int(v) for v in rng.integers(0, 5, n))
            gi = group_index(make_ds(labels))
            seen = np.concatenate([ix for ix in gi.indices])
            assert sorted(seen.tolist()) == list(range(n))
            assert int(gi.counts.sum()) == n
            assert abs(float(gi.proportions.sum()) - 1.0) <= 1e-12
            for c, ix in enumerate(gi.indices):
                assert (gi.codes[ix] == c).all()


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
