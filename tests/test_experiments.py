import os
from dataclasses import replace

import numpy as np
import pytest

import ginicov.experiments
from ginicov import (
    DegenerateSampleError,
    ScenarioSpec,
    StudyConfig,
    TooLargeError,
    kde_gaussian,
    normality_study,
    size_power_study,
)
from ginicov.experiments import (
    POWER_CSV_HEADER,
    _power_records,
    _run_tasks,
    grid_points,
    max_gap_to_normal,
    silverman_bandwidth,
    write_normality_csv,
    write_power_csv,
    write_power_json,
)
from ginicov.streams import substream


class TestKde:
    def test_integrates_to_one(self):
        z = substream(61).standard_normal(400)
        xs = grid_points(-10.0, 10.0, 0.01)
        dens = kde_gaussian(z, grid=(-10.0, 10.0, 0.01))
        assert abs(np.trapezoid(dens, xs) - 1.0) <= 1e-3

    def test_symmetric_samples_symmetric_density(self):
        dens = kde_gaussian([-1.5, 1.5], bandwidth=0.8)
        assert np.abs(dens - dens[::-1]).max() <= 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            kde_gaussian([2.0, 2.0, 2.0])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            kde_gaussian([1.0])

    def test_bad_bandwidth(self):
        for bandwidth in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                kde_gaussian([0.0, 1.0], bandwidth=bandwidth)

    def test_silverman_uses_robust_spread(self):
        z = substream(62).standard_normal(800)
        h = silverman_bandwidth(z)
        sd = z.std(ddof=1)
        iqr = np.percentile(z, 75) - np.percentile(z, 25)
        assert abs(h - 0.9 * min(sd, iqr / 1.34) * 800 ** (-0.2)) <= 1e-15

    def test_self_consistency_on_exact_normal_draws(self):
        z = substream(63).standard_normal(5000)
        assert max_gap_to_normal(z) <= 0.03

    def test_grid_points(self):
        xs = grid_points(-4.0, 4.0, 0.01)
        assert xs.size == 801
        assert xs[0] == -4.0
        assert xs[-1] == 4.0


class TestNormalityStudy:
    def test_requires_example_one(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=4, sizes=(3, 3, 3)), replicates=4
        )
        with pytest.raises(ValueError):
            normality_study(cfg)

    def test_collects_one_z_per_replicate(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=4, sizes=(6, 7, 8), seed=3),
            replicates=25,
        )
        row = normality_study(cfg, threads=1)
        assert row.z_samples.shape == (25,)
        assert row.p == 4
        assert row.max_density_gap >= 0.0

    def test_degenerate_replicates_are_counted(self, monkeypatch):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=4, sizes=(6, 7), seed=8),
            replicates=10,
        )
        clean = normality_study(cfg, threads=1)
        assert clean.degenerate == 0
        original = ginicov.experiments._normal_test_from_distance
        calls = []

        def third_degenerate(d, gi, alpha):
            calls.append(None)
            res = original(d, gi, alpha)
            return replace(res, z=None, degenerate=True) if len(calls) == 3 else res

        monkeypatch.setattr(
            ginicov.experiments, "_normal_test_from_distance", third_degenerate
        )
        row = normality_study(cfg, threads=1)
        assert row.degenerate == 1
        assert row.z_samples[2] == 0.0
        keep = np.arange(10) != 2
        assert np.array_equal(row.z_samples[keep], clean.z_samples[keep])

    def test_refuses_fewer_than_two_replicates_before_generating(
        self, monkeypatch
    ):
        def no_generation(*args):
            raise AssertionError("a replicate was generated")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=4, sizes=(6, 7), seed=8),
            replicates=1,
        )
        with pytest.raises(ValueError, match="at least 2 replicates"):
            normality_study(cfg, threads=1)

    def test_thread_count_invariant(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=3, sizes=(5, 6, 7), seed=4),
            replicates=16,
        )
        a = normality_study(cfg, threads=1)
        b = normality_study(cfg, threads=2)
        assert np.array_equal(a.z_samples, b.z_samples)
        assert a.max_density_gap == b.max_density_gap


class RecordingExecutor:
    """Stand-in for ProcessPoolExecutor: records its worker count and maps
    in-process, so no process is started."""

    max_workers = []

    def __init__(self, max_workers):
        RecordingExecutor.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestRunTasks:
    CORES = os.cpu_count() or 1

    @pytest.mark.parametrize(
        "tasks, threads, pools",
        [
            (2, 64, [2]),
            (9, 3, [3]),
            (3, 0, [min(3, CORES)] if CORES > 1 else []),
            (1, 8, []),
            (2, 1, []),
            (0, 4, []),
        ],
    )
    def test_never_more_workers_than_tasks(self, monkeypatch, tasks, threads, pools):
        monkeypatch.setattr(RecordingExecutor, "max_workers", [])
        monkeypatch.setattr(
            ginicov.experiments, "ProcessPoolExecutor", RecordingExecutor
        )
        payloads = list(range(-tasks, 0))
        assert _run_tasks(abs, payloads, threads) == [abs(p) for p in payloads]
        assert RecordingExecutor.max_workers == pools


class TestSizePowerStudy:
    def test_rows_in_beta_method_order(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=6, sizes=(5, 5, 5), seed=5),
            replicates=6,
            methods=("gini-normal", "gini-perm"),
            permutations=19,
        )
        rows = size_power_study(cfg, [0.0, 0.5, 1.0], threads=1)
        assert [(r.beta, r.method) for r in rows] == [
            (0.0, "gini-normal"),
            (0.0, "gini-perm"),
            (0.5, "gini-normal"),
            (0.5, "gini-perm"),
            (1.0, "gini-normal"),
            (1.0, "gini-perm"),
        ]
        for r in rows:
            assert 0.0 <= r.rejection_rate <= 1.0
            count = r.rejection_rate * r.replicates
            assert abs(count - round(count)) <= 1e-9

    def test_one_task_pass_for_the_whole_grid(self, monkeypatch):
        original = ginicov.experiments._run_tasks
        calls = []

        def counting(worker, payloads, threads):
            calls.append(len(payloads))
            return original(worker, payloads, threads)

        monkeypatch.setattr(ginicov.experiments, "_run_tasks", counting)
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=6, sizes=(5, 5, 5), seed=5),
            replicates=4,
            methods=("gini-normal", "dcov-perm"),
            permutations=19,
        )
        rows = size_power_study(cfg, [0.0, 0.5, 1.0], threads=1)
        assert calls == [3 * 4]
        assert len(rows) == 3 * 2

    def test_refuses_an_empty_beta_grid(self, monkeypatch):
        monkeypatch.setattr(ginicov.experiments, "_run_tasks", None)
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=6, sizes=(5, 5, 5)), replicates=4
        )
        with pytest.raises(ValueError, match="beta grid is empty"):
            size_power_study(cfg, [])

    def test_requires_alternative_example(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=4, sizes=(5, 5)), replicates=2
        )
        with pytest.raises(ValueError):
            size_power_study(cfg, [0.0])

    def test_thread_count_invariant(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=3, p=12, sizes=(8, 6, 7), seed=6),
            replicates=24,
            methods=("gini-normal", "dcov-perm"),
            permutations=29,
        )
        a = size_power_study(cfg, [0.0, 1.0], threads=1)
        b = size_power_study(cfg, [0.0, 1.0], threads=2)
        assert [r.rejection_rate for r in a] == [r.rejection_rate for r in b]

    def test_shared_permutation_pass_matches_single_methods(self):
        # gini-perm and dcov-perm share one set of replicate streams; each
        # rate must equal the rate of the method run on its own
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=100, sizes=(15, 10, 8), seed=13),
            replicates=20,
            methods=("gini-perm", "dcov-perm"),
            permutations=49,
        )
        both = size_power_study(cfg, [0.0, 1.0], threads=1)
        for method in cfg.methods:
            alone = size_power_study(
                replace(cfg, methods=(method,)), [0.0, 1.0], threads=1
            )
            assert [r.rejection_rate for r in alone] == [
                r.rejection_rate for r in both if r.method == method
            ]

    def test_normal_and_permutation_size_agree(self):
        # paired on the same null datasets, the two calibrations land on
        # nearly the same empirical size
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=200, sizes=(40, 40, 40), seed=7),
            replicates=1000,
            methods=("gini-normal", "gini-perm"),
            permutations=199,
        )
        rows = size_power_study(cfg, [0.0], threads=0)
        rates = {r.method: r.rejection_rate for r in rows}
        assert abs(rates["gini-normal"] - rates["gini-perm"]) <= 0.02

    def test_power_monotone_in_beta(self):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=200, sizes=(40, 40, 40), seed=8),
            replicates=300,
        )
        rows = size_power_study(cfg, [0.0, 0.4, 0.8], threads=0)
        rates = [r.rejection_rate for r in rows]
        assert rates[1] >= rates[0] - 0.03
        assert rates[2] >= rates[1] - 0.03
        assert rates[2] > rates[0] + 0.5

    def test_permutation_size_unbalanced_null(self):
        # permutation calibration holds its level on the unbalanced null
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=200, sizes=(50, 40, 30), seed=12),
            replicates=500,
            methods=("gini-perm",),
            permutations=199,
        )
        rate = size_power_study(cfg, [0.0], threads=0)[0].rejection_rate
        assert 0.03 <= rate <= 0.08, rate


class TestEmission:
    @staticmethod
    def _rows():
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=5, sizes=(4, 4, 4), seed=9),
            replicates=5,
            methods=("gini-normal",),
        )
        return size_power_study(cfg, [0.0, 1.0], threads=1)

    def test_power_csv_layout_and_determinism(self, tmp_path):
        rows = self._rows()
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        write_power_csv(rows, f1)
        write_power_csv(self._rows(), f2)
        text = f1.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == POWER_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith('2,5,"4,4,4",0.0,gini-normal,0.05,5,')
        assert f1.read_bytes() == f2.read_bytes()

    def test_one_record_per_row_keyed_by_the_header(self):
        records = _power_records(self._rows())
        assert len(records) == 2
        for rec in records:
            assert list(rec) == POWER_CSV_HEADER.split(",")
            assert rec["elapsed_ms"] is None

    def test_power_json_mirror(self, tmp_path):
        import json

        rows = self._rows()
        f = tmp_path / "m.json"
        write_power_json(rows, f)
        payload = json.loads(f.read_text())
        assert len(payload) == 2
        assert payload[0]["method"] == "gini-normal"
        assert payload[0]["sizes"] == [4, 4, 4]
        assert payload[0]["elapsed_ms"] is None

    def test_normality_csv_layout(self, tmp_path):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=3, sizes=(5, 5), seed=10),
            replicates=12,
        )
        row = normality_study(cfg, threads=1)
        f = tmp_path / "n.csv"
        write_normality_csv(row, f)
        lines = f.read_text().strip().split("\n")
        assert lines[0] == "p,replicates,max_density_gap"
        assert lines[2] == "z"
        assert len(lines) == 3 + 12
        for z_line in lines[3:]:
            float(z_line)


class TestStudyConfig:
    def test_validation(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3))
        with pytest.raises(ValueError):
            StudyConfig(scenario=scen, replicates=0)
        with pytest.raises(ValueError):
            StudyConfig(scenario=scen, replicates=1, alpha=1.0)
        with pytest.raises(ValueError):
            StudyConfig(scenario=scen, replicates=1, methods=("bogus",))

    def test_refuses_an_empty_method_list(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3))
        with pytest.raises(ValueError, match="at least one method"):
            StudyConfig(scenario=scen, replicates=1, methods=())

    def test_unknown_method_message_lists_the_choices(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3))
        with pytest.raises(ValueError) as exc:
            StudyConfig(scenario=scen, replicates=1, methods=("gini-normal", "x"))
        assert "'x'" in str(exc.value)
        assert "gini-normal, gini-perm, dcov-perm" in str(exc.value)

    @pytest.mark.parametrize("method", ["gini-perm", "dcov-perm"])
    @pytest.mark.parametrize("permutations", [0, -1, 2**32])
    def test_permutation_methods_check_the_count(self, method, permutations):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3))
        with pytest.raises(ValueError, match="permutation count"):
            StudyConfig(
                scenario=scen,
                replicates=1,
                methods=("gini-normal", method),
                permutations=permutations,
            )

    def test_normal_method_alone_ignores_the_permutation_count(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3))
        cfg = StudyConfig(scenario=scen, replicates=1, permutations=0)
        assert cfg.methods == ("gini-normal",)

    @pytest.mark.parametrize("example, sizes", [(1, (11584, 2)), (2, (11582, 2, 2))])
    def test_refuses_a_sample_over_the_distance_matrix_budget(self, example, sizes):
        scen = ScenarioSpec(example=example, p=1, sizes=sizes)
        with pytest.raises(TooLargeError, match="^11586 rows need"):
            StudyConfig(scenario=scen, replicates=1)

    def test_accepts_the_largest_sample_within_budget(self):
        scen = ScenarioSpec(example=2, p=1, sizes=(11581, 2, 2))
        assert sum(StudyConfig(scenario=scen, replicates=1).scenario.sizes) == 11585

    def test_root_seed_override(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3), seed=5)
        assert StudyConfig(scenario=scen, replicates=1).root_seed == 5
        assert StudyConfig(scenario=scen, replicates=1, seed=77).root_seed == 77
