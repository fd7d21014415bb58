import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy

import ginicov
from ginicov.cli import build_parser, main

VERSIONS = {
    "ginicov": ginicov.__version__,
    "numpy": np.__version__,
    "scipy": scipy.__version__,
}

FOUR_CSV = "y,x1\na,0\na,2\nb,1\nb,3\n"


def assert_blas_provenance(provenance):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert provenance["blas"] == {"name": blas["name"], "version": blas["version"]}
    # 1 where the kernel pins numpy's bundled OpenBLAS, null where it is absent
    threads = provenance["kernel_blas_threads"]
    assert threads == ginicov.distmat.kernel_blas_threads()
    assert threads in (1, None)


def assert_config_is_the_command_line(provenance, argv):
    # every parsed option, as given or defaulted, in the parser's order
    parsed = vars(build_parser().parse_args(argv))
    del parsed["func"]
    assert list(provenance["config"].items()) == list(parsed.items())


@pytest.fixture
def four_csv(tmp_path):
    f = tmp_path / "four.csv"
    f.write_text(FOUR_CSV)
    return str(f)


def degenerate_first_replicate(monkeypatch):
    """Make the first normal test of a study report no z, as a vanishing
    null deviation would."""
    original = ginicov.experiments._normal_test_from_distance
    calls = []

    def first_degenerate(d, gi, alpha):
        res = original(d, gi, alpha)
        calls.append(res)
        return replace(res, z=None, degenerate=True) if len(calls) == 1 else res

    monkeypatch.setattr(
        ginicov.experiments, "_normal_test_from_distance", first_degenerate
    )


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ginicov", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestCmdTest:
    def test_four_point_gini_perm(self, four_csv, capsys):
        code = main(
            [
                "test", "--input", four_csv, "--label-col", "y",
                "--method", "gini-perm", "--permutations", "9", "--seed", "1",
            ]
        )
        out = capsys.readouterr()
        assert code == 0
        payload = json.loads(out.out)
        assert abs(payload["statistic"] - (-1.0 / 3.0)) <= 1e-12
        grid = [round((k + 1) / 10.0, 10) for k in range(10)]
        assert any(abs(payload["p_value"] - g) < 1e-12 for g in grid)
        assert payload["permutations"] == 9
        assert payload["seed"] == 1
        assert payload["n"] == 4 and payload["p"] == 1 and payload["K"] == 2
        assert payload["class_counts"] == [2, 2]

    @pytest.mark.parametrize("method", ["gini-normal", "gini-perm", "dcov-perm"])
    def test_equidistant_rows_are_degenerate(self, tmp_path, capsys, method):
        f = tmp_path / "eye.csv"
        # rows of np.eye(11), labelled a, b, a, ...; no header
        f.write_text("".join(
            "ab"[i % 2] + "," + ",".join(map(str, row)) + "\n"
            for i, row in enumerate(np.eye(11))
        ))
        argv = ["test", "--input", str(f), "--label-col", "0", "--no-header"]
        assert main(argv + ["--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate"] is True
        assert payload["p_value"] == 1.0 and payload["reject"] is False

    @pytest.mark.parametrize("rows", [
        "a,1.5,2\na,1.5,2\nb,1.5,2\nb,1.5,2\nb,1.5,2\n",
        "a,0.0,0\na,-0.0,0\nb,-0.0,-0.0\nb,0.0,-0.0\n",
    ], ids=["identical-points", "signed-zeros"])
    def test_zero_distances_print_a_positive_zero_statistic(
        self, tmp_path, capsys, rows
    ):
        # identical points: every distance is zero, and so is the statistic,
        # printed as 0.0, not -0.0
        f = tmp_path / "same.csv"
        f.write_text("y,x1,x2\n" + rows)
        argv = ["test", "--input", str(f), "--label-col", "y",
                "--method", "dcov-perm", "--permutations", "9"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert '"statistic": 0.0,' in out
        assert json.loads(out)["degenerate"] is True

    @pytest.mark.parametrize("method", ["gini-normal", "gini-perm", "dcov-perm"])
    def test_values_that_overflow_the_distances_exit_one(
        self, tmp_path, capsys, method
    ):
        # finite values near 1e200 would square past the largest double and
        # leave a NaN statistic, which is not JSON
        f = tmp_path / "big.csv"
        values = (1e200, -1e200, 3e199, 1.0, 2.0, -5e199, 7e199, 0.5)
        f.write_text("y,x\n" + "".join(
            f"{'ab'[i // 4]},{v!r}\n" for i, v in enumerate(values)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["test", "--input", str(f), "--label-col", "y",
                         "--method", method])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: values up to 1e+200 ")
        assert captured.err.count("\n") == 1

    def test_permutations_beyond_one_stream_word_exit_two(self, four_csv, capsys):
        code = main(
            [
                "test", "--input", four_csv, "--label-col", "y",
                "--method", "gini-perm", "--permutations", "4294967296",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: permutation count")

    def test_key_order_is_stable(self, four_csv, capsys):
        main(["test", "--input", four_csv, "--label-col", "y"])
        out = capsys.readouterr().out
        keys = list(json.loads(out).keys())
        assert keys == [
            "method", "statistic", "z", "p_value", "alpha", "reject",
            "n", "p", "K", "class_counts", "degenerate",
        ]
        assert out.count("\n") == 1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_provenance_on_stderr_once_the_file_is_read(
        self, four_csv, capsys, threads
    ):
        argv = ["test", "--input", four_csv, "--label-col", "y", "--threads", threads]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n"] == 4
        assert captured.err.count("\n") == 1
        provenance = json.loads(captured.err)
        assert_config_is_the_command_line(provenance, argv)
        assert provenance["config"]["subcommand"] == "test"
        assert provenance["versions"] == VERSIONS
        assert_blas_provenance(provenance)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "absent.csv")
        code = main(["test", "--input", path, "--label-col", "y"])
        err = capsys.readouterr().err
        assert code == 1
        assert "absent.csv" in err

    def test_tiny_class_exits_one(self, tmp_path, capsys):
        f = tmp_path / "tiny.csv"
        f.write_text("y,x\na,1\na,2\na,3\nb,4\n")
        code = main(["test", "--input", str(f), "--label-col", "y"])
        err = capsys.readouterr().err
        assert code == 1
        assert "b" in err

    @pytest.mark.parametrize("method", ["gini-normal", "dcov-perm"])
    def test_distance_matrix_over_budget_exits_one(self, tmp_path, capsys, method):
        f = tmp_path / "tall.csv"
        f.write_text("y,x\n" + "".join(f"{'ab'[i % 2]},{i}\n" for i in range(11586)))
        code = main(["test", "--input", str(f), "--label-col", "y", "--method", method])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: 11586 rows need")

    def test_feature_matrix_over_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ginicov.core, "_MAX_MATRIX_BYTES", 8 * 4 * 50)
        f = tmp_path / "wide.csv"
        f.write_text(
            "".join(f"{'ab'[i % 2]}," + ",".join(["1"] * 50) + "\n" for i in range(5))
        )
        code = main(["test", "--input", str(f), "--label-col", "0", "--no-header"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: 5 rows of 50 features need a")

    @pytest.mark.parametrize(
        "name, content",
        [
            ("latin1.csv", b"y,x\na,1\na,2\nb,\xe93\nb,4\n"),
            ("wide_field.csv", b"y,x\na,1\na,2\nb," + b"3" * 131073 + b"\nb,4\n"),
            ("folder.csv", None),
        ],
        ids=["not-utf8", "field-over-limit", "directory"],
    )
    def test_unreadable_input_exits_one(self, tmp_path, capsys, name, content):
        f = tmp_path / name
        if content is None:
            f.mkdir()
        else:
            f.write_bytes(content)
        code = main(["test", "--input", str(f), "--label-col", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {f}: ")
        assert captured.err.count("\n") == 1

    def test_label_column_alone_exits_one_at_the_first_row(self, tmp_path, capsys):
        # the ragged last row is never reached
        f = tmp_path / "labels.csv"
        f.write_text("y\n" + "a\nb\n" * 25 + "a,1\n")
        code = main(["test", "--input", str(f), "--label-col", "y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {f}: row 0 holds no feature column\n"

    def test_label_col_by_index_without_header(self, tmp_path, capsys):
        f = tmp_path / "nh.csv"
        f.write_text("a,0\na,2\nb,1\nb,3\n")
        code = main(
            ["test", "--input", str(f), "--label-col", "0", "--no-header"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 4

    @pytest.mark.parametrize("method", ["gini-normal", "gini-perm"])
    @pytest.mark.parametrize("alpha", ["1.5", "-1", "0", "nan"])
    def test_alpha_outside_unit_interval_exits_two(
        self, four_csv, capsys, method, alpha
    ):
        code = main(
            [
                "test", "--input", four_csv, "--label-col", "y",
                "--method", method, "--alpha", alpha,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: alpha must be in (0, 1)")

    @pytest.mark.parametrize(
        "method, flag, value, message",
        [
            ("gini-normal", "--alpha", "nan", "alpha must be in (0, 1)"),
            ("dcov-perm", "--alpha", "1.5", "alpha must be in (0, 1)"),
            ("gini-perm", "--permutations", "0", "permutation count"),
            ("dcov-perm", "--permutations", "4294967296", "permutation count"),
            ("gini-normal", "--threads", "-5", "threads must be >= 0"),
            ("gini-perm", "--threads", "-1", "threads must be >= 0"),
        ],
    )
    def test_usage_error_comes_before_reading_the_file(
        self, tmp_path, capsys, method, flag, value, message
    ):
        f = tmp_path / "malformed.csv"
        f.write_text("y,x\na,1\na,oops\nb,3\nb,4\n")
        args = ["test", "--input", str(f), "--label-col", "y", "--method", method]
        code = main(args + [flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {message}")
        # the same file alone is a data error
        assert main(args) == 1

    def test_normal_test_ignores_the_permutation_count(self, four_csv, capsys):
        args = ["test", "--input", four_csv, "--label-col", "y"]
        assert main(args + ["--permutations", "0"]) == 0
        assert main(args) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    @pytest.mark.parametrize("method", ginicov.experiments.ALL_METHODS)
    def test_wide_data_is_byte_identical_for_any_thread_count(
        self, tmp_path, capsys, monkeypatch, method
    ):
        # p = 1100 takes the threaded tiles; three cores make 0 mean 3, and
        # 16 KB ranges let the 500 KB file be read in up to three
        rng = np.random.default_rng(21)
        f = tmp_path / "wide.csv"
        ginicov.write_csv(
            ginicov.LabeledDataset(rng.standard_normal((24, 1100)),
                                   tuple(i % 3 for i in range(24))),
            f,
        )
        monkeypatch.setattr(ginicov.experiments, "_usable_cores", lambda: 3)
        monkeypatch.setattr(ginicov.core, "_usable_cores", lambda: 3)
        monkeypatch.setattr(ginicov.core, "_SPLIT_BYTES", 1 << 14)
        used, loads = [], []
        original = ginicov.ktest.pairwise_distances
        load = ginicov.cli.load_csv

        def recording(ds, threads=1):
            used.append(threads)
            return original(ds, threads)

        def recording_load(*args, workers=1):
            loads.append(workers)
            return load(*args, workers=workers)

        monkeypatch.setattr(ginicov.ktest, "pairwise_distances", recording)
        monkeypatch.setattr(ginicov.cli, "load_csv", recording_load)
        args = ["test", "--input", str(f), "--label-col", "label",
                "--method", method, "--permutations", "99", "--threads"]
        outs = []
        for threads in ("1", "2", "0"):
            assert main(args + [threads]) == 0
            outs.append(capsys.readouterr().out)
        assert used == loads == [1, 2, 3]
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["p"] == 1100

    def test_unknown_flag_exits_two(self, four_csv):
        proc = run_cli(["test", "--input", four_csv, "--label-col", "y", "--bogus"])
        assert proc.returncode == 2


class TestCmdSimulate:
    def test_row_count_for_grid(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = [
            "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
            "--beta-grid", "0,0.2,0.4,0.6,0.8,1", "--reps", "2",
            "--methods", "gini-normal,gini-perm", "--permutations", "9",
            "--seed", "7", "--out", str(out), "--json-out", str(tmp_path / "r.json"),
        ]
        code = main(argv)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 12
        err = capsys.readouterr().err
        provenance = json.loads(err.split("\n")[0])
        assert_config_is_the_command_line(provenance, argv)
        assert provenance["config"]["seed"] == 7
        assert provenance["versions"] == VERSIONS
        assert_blas_provenance(provenance)

    def test_degenerate_replicates_reported_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        out, mirror = tmp_path / "p.csv", tmp_path / "p.json"
        args = [
            "simulate", "--example", "2", "--p", "4", "--sizes", "4,4,4",
            "--beta-grid", "0,1", "--reps", "5", "--threads", "1",
            "--methods", "gini-normal,gini-perm", "--permutations", "9",
            "--out", str(out), "--json-out", str(mirror),
        ]
        assert main(args) == 0
        assert "were degenerate" not in capsys.readouterr().err
        clean = out.read_bytes(), mirror.read_bytes()
        degenerate_first_replicate(monkeypatch)
        assert main(args) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err[2:] == [
            "gini-normal at beta 0: 1 of 5 replicates were degenerate "
            "(no rejection)"
        ]
        # the counts stay out of the power files
        assert (out.read_bytes(), mirror.read_bytes()) == clean

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--example", "2", "--p", "6", "--sizes", "4,4,4",
            "--beta", "0.5", "--reps", "6", "--methods", "gini-normal",
            "--seed", "7", "--threads", "1",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(f1)]).returncode == 0
        assert run_cli(args + ["--out", str(f2)]).returncode == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_beta_out_of_range_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--beta", "1.5", "--reps", "2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_zero_reps_exits_two(self, tmp_path):
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--beta", "0", "--reps", "0", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0,x", "0,,1"])
    def test_unparsable_beta_grid_names_the_flag(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--beta-grid", grid, "--reps", "2", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "usage error: --beta-grid must be comma-separated numbers in [0, 1], "
            f"got {grid!r}\n"
        )
        assert not out.exists()

    def test_invalid_example_exits_two(self, tmp_path):
        proc = run_cli(
            [
                "simulate", "--example", "1", "--p", "4", "--sizes", "3,3,3",
                "--reps", "2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert proc.returncode == 2

    def test_bad_sizes_exit_two(self, tmp_path):
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3;3;3",
                "--reps", "2", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("methods", ["gini-perm", "gini-normal,dcov-perm"])
    def test_bad_permutation_count_exits_two_before_provenance(
        self, tmp_path, capsys, methods
    ):
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--reps", "2", "--methods", methods, "--permutations", "0",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: permutation count")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["", " , ", "gini-normal,bogus"])
    def test_bad_method_list_exits_two_before_provenance(
        self, tmp_path, capsys, methods
    ):
        code = main(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--reps", "2", "--methods", methods, "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert err.count("\n") == 1

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "r.csv"
        mirror = tmp_path / "r.json"
        code = main(
            [
                "simulate", "--example", "3", "--p", "4", "--sizes", "3,3,3",
                "--beta", "1", "--reps", "3", "--methods", "gini-normal",
                "--seed", "1", "--out", str(out), "--json-out", str(mirror),
            ]
        )
        assert code == 0
        payload = json.loads(mirror.read_text())
        assert len(payload) == 1 and payload[0]["example"] == 3

    @pytest.mark.parametrize("mirror", ["same.csv", "./same.csv"])
    def test_json_mirror_on_the_csv_exits_two_before_provenance(
        self, tmp_path, capsys, monkeypatch, mirror
    ):
        def no_generation(*a):
            raise AssertionError("a study whose outputs clash generated data")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        monkeypatch.chdir(tmp_path)
        code = main(
            ["simulate", "--example", "2", "--p", "3", "--sizes", "3,3,3",
             "--reps", "2", "--threads", "1", "--out", "same.csv",
             "--json-out", mirror]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "usage error: --out and --json-out name the same file: 'same.csv'\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestCmdNormality:
    def test_summary_plus_z_lines(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        argv = [
            "normality", "--p", "5", "--reps", "100", "--seed", "3",
            "--sizes", "8,9,10", "--out", str(out),
        ]
        code = main(argv)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,replicates,max_density_gap"
        assert lines[1].startswith("5,100,")
        assert len(lines) == 3 + 100
        provenance = json.loads(capsys.readouterr().err.split("\n")[0])
        assert_config_is_the_command_line(provenance, argv)
        assert provenance["config"]["subcommand"] == "normality"
        assert provenance["versions"] == VERSIONS
        assert_blas_provenance(provenance)

    def test_degenerate_replicates_reported_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "n.csv"
        args = [
            "normality", "--p", "4", "--reps", "12", "--seed", "5",
            "--sizes", "6,7", "--threads", "1", "--out", str(out),
        ]
        assert main(args) == 0
        assert "were degenerate" not in capsys.readouterr().err
        clean = out.read_bytes()
        degenerate_first_replicate(monkeypatch)
        assert main(args) == 0
        assert "1 of 12 replicates were degenerate" in capsys.readouterr().err
        lines = out.read_bytes().split(b"\n")
        # same layout; only the degenerate replicate's z line reads 0.0
        assert lines[0] == clean.split(b"\n")[0]
        assert lines[3] == b"0.0"
        assert lines[4:] == clean.split(b"\n")[4:]

    def test_zero_reps_exits_two(self, tmp_path):
        code = main(
            ["normality", "--p", "5", "--reps", "0", "--out", str(tmp_path / "n.csv")]
        )
        assert code == 2

    def test_one_rep_exits_two(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = main(["normality", "--p", "5", "--reps", "1", "--out", str(out)])
        assert code == 2
        assert "at least 2 replicates" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_samples_not_schema(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["normality", "--p", "4", "--reps", "20", "--sizes", "6,6"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        la, lb = a.read_text().split("\n"), b.read_text().split("\n")
        assert la[0] == lb[0]
        assert len(la) == len(lb)
        assert la[3:] != lb[3:]


class TestSettingsBeforeProvenance:
    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                 "--reps", "2", "--threads", "-1"],
                "threads must be >= 0",
            ),
            (["normality", "--p", "4", "--reps", "2", "--threads", "-1"],
             "threads must be >= 0"),
            (["normality", "--p", "4", "--reps", "1"], "the normality study's KDE"),
            (
                ["simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                 "--reps", "2", "--methods", "gini-perm,gini-perm"],
                "method 'gini-perm' is listed more than once",
            ),
        ],
        ids=["simulate-threads", "normality-threads", "normality-reps",
             "simulate-repeated-method"],
    )
    def test_bad_setting_exits_two_without_provenance(
        self, tmp_path, capsys, args, message
    ):
        out = tmp_path / "x.csv"
        code = main(args + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--example", "2", "--p", "1", "--sizes", "11582,2,2",
              "--reps", "2", "--threads", "1"], "rows need a"),
            (["normality", "--p", "1", "--sizes", "12000,2", "--reps", "2",
              "--threads", "1"], "rows need a"),
            (["simulate", "--example", "2", "--p", "100000000000", "--sizes",
              "3,3,3", "--reps", "1", "--threads", "1"], "GiB feature matrix"),
            (["normality", "--p", "100000000000", "--reps", "2",
              "--threads", "1"], "GiB feature matrix"),
        ],
        ids=["simulate", "normality", "simulate-features", "normality-features"],
    )
    def test_over_budget_study_exits_one_without_provenance(
        self, tmp_path, capsys, monkeypatch, args, message
    ):
        def no_generation(*a):
            raise AssertionError("an over-budget study generated data")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        out = tmp_path / "x.csv"
        code = main(args + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, flag, target",
        [
            pytest.param(args, flag, target, id=f"{args[0]}-{flag[2:]}-{target}")
            for args, flag in [
                (["simulate", "--example", "2", "--p", "3", "--sizes", "3,3,3",
                  "--reps", "2", "--threads", "1"], "--out"),
                (["simulate", "--example", "2", "--p", "3", "--sizes", "3,3,3",
                  "--reps", "2", "--threads", "1"], "--json-out"),
                (["normality", "--p", "3", "--reps", "2", "--threads", "1"], "--out"),
            ]
            for target in ["directory", "missing-parent", "empty"]
            # an empty --json-out asks for no JSON mirror
            if (flag, target) != ("--json-out", "empty")
        ],
    )
    def test_unwritable_output_exits_one_before_provenance(
        self, tmp_path, capsys, monkeypatch, args, flag, target
    ):
        def no_generation(*a):
            raise AssertionError("a study with an unwritable output generated data")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        (tmp_path / "dir").mkdir()
        bad = {
            "directory": tmp_path / "dir",
            "missing-parent": tmp_path / "missing" / "x.csv",
            "empty": "",
        }[target]
        paths = {"--out": tmp_path / "x.csv", flag: bad}
        code = main(args + [a for f, p in paths.items() for a in (f, str(p))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]

    def test_a_failed_write_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        def denied(rows, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(ginicov.cli, "write_power_csv", denied)
        code = main(
            ["simulate", "--example", "2", "--p", "3", "--sizes", "3,3,3",
             "--reps", "2", "--threads", "1", "--out", str(tmp_path / "x.csv")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1].startswith("error: [Errno 13]")

    def test_one_class_study_exits_one_without_provenance(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_generation(*a):
            raise AssertionError("a one-class study generated data")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        out = tmp_path / "x.csv"
        code = main(
            ["normality", "--p", "3", "--sizes", "10", "--reps", "4",
             "--threads", "1", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: testing needs at least 2 classes, got 1\n"
        assert not out.exists()


class TestStdoutDiscipline:
    def test_stdout_machine_readable_only(self, four_csv):
        proc = run_cli(["test", "--input", four_csv, "--label-col", "y"])
        assert proc.returncode == 0
        json.loads(proc.stdout)
        assert proc.stdout.count("\n") == 1

    def test_simulate_stdout_empty(self, tmp_path):
        proc = run_cli(
            [
                "simulate", "--example", "2", "--p", "4", "--sizes", "3,3,3",
                "--beta", "0", "--reps", "2", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
