import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ginicov.experiments
from ginicov import distmat
from ginicov import (
    DegenerateSampleError,
    ScenarioSpec,
    StudyConfig,
    TooFewClassesError,
    TooLargeError,
    kde_gaussian,
    normality_study,
    size_power_study,
)
from ginicov.experiments import (
    KDE_GRID,
    POWER_CSV_HEADER,
    _power_records,
    _run_tasks,
    max_gap_to_normal,
    silverman_bandwidth,
    write_normality_csv,
    write_power_csv,
    write_power_json,
)
from ginicov.distmat import class_sums, pairwise_distances
from ginicov.streams import substream
from test_core import traced_peak

SRC = os.path.dirname(os.path.dirname(ginicov.__file__))


class TestKde:
    def test_integrates_to_one(self):
        z = substream(61).standard_normal(400)
        dens = kde_gaussian(z)
        assert abs(np.trapezoid(dens, KDE_GRID) - 1.0) <= 1e-3

    def test_symmetric_samples_symmetric_density(self):
        dens = kde_gaussian([-1.5, 1.5])
        assert np.abs(dens - dens[::-1]).max() <= 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            kde_gaussian([2.0, 2.0, 2.0])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            kde_gaussian([1.0])

    def test_silverman_uses_robust_spread(self):
        z = substream(62).standard_normal(800)
        h = silverman_bandwidth(z)
        sd = z.std(ddof=1)
        iqr = np.percentile(z, 75) - np.percentile(z, 25)
        assert abs(h - 0.9 * min(sd, iqr / 1.34) * 800 ** (-0.2)) <= 1e-15

    def test_zero_iqr_falls_back_to_the_sd(self):
        # eight zeros, as a mostly degenerate normality study enters them
        z = np.array([0.0] * 8 + [1.0, 2.0])
        assert np.percentile(z, 75) == np.percentile(z, 25)
        assert silverman_bandwidth(z) == 0.9 * z.std(ddof=1) * 10 ** (-0.2)
        assert np.isfinite(kde_gaussian(z)).all()

    @pytest.mark.parametrize("m", [2, 3, 17, 96, 1000, 5001])
    def test_sliced_density_equals_the_one_shot_formula(self, m):
        z = substream(64, m).standard_normal(m)
        h = silverman_bandwidth(z)
        u = (KDE_GRID[:, None] - z[None, :]) / h
        one_shot = np.exp(-0.5 * u * u).sum(axis=1)
        one_shot *= 1.0 / (m * h * np.sqrt(2.0 * np.pi))
        assert np.array_equal(kde_gaussian(z), one_shot)

    def test_traced_peak_stays_below_one_grid_wide_temporary(self):
        # one 801 x m temporary alone is 128 MB at m = 20000, so a KDE that
        # spans the whole grid at once breaks the bound
        z = substream(65).standard_normal(20000)
        assert traced_peak(lambda: kde_gaussian(z))[1] < 64e6

    def test_self_consistency_on_exact_normal_draws(self):
        z = substream(63).standard_normal(5000)
        assert max_gap_to_normal(z) <= 0.03

    def test_grid_points(self):
        assert KDE_GRID.size == 801
        assert KDE_GRID[0] == -4.0
        assert KDE_GRID[-1] == 4.0
        assert np.allclose(np.diff(KDE_GRID), 0.01)


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

    @pytest.mark.parametrize(
        "methods", [("gini-perm",), ("gini-normal", "dcov-perm")]
    )
    def test_refuses_a_permutation_method_before_generating(
        self, monkeypatch, methods
    ):
        def no_generation(*args):
            raise AssertionError("a replicate was generated")

        monkeypatch.setattr(ginicov.experiments, "scenario_dataset", no_generation)
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=1, p=4, sizes=(6, 7), seed=8),
            replicates=4,
            methods=methods,
        )
        with pytest.raises(ValueError, match="runs gini-normal alone"):
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


def _blas_after_a_product(seed):
    """Worker: one class-sum product on a small design, then the
    OpenBLAS thread count and the number of this process's threads."""
    rng = np.random.default_rng(seed)
    d = pairwise_distances(rng.standard_normal((20, 4)))
    class_sums(d, d.sum(axis=1), rng.integers(0, 3, (5, 20)), 3)
    return distmat._openblas_threads()[0](), len(os.listdir("/proc/self/task"))


def _in_fresh_interpreter(script: str) -> str:
    """stdout of ``script`` run by a fresh interpreter that imports the
    package from this source tree."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the null design of the malloc-threshold tests, run for 8 replicates
_SMALL_NULL = dict(example=1, p=500, sizes=(30, 40, 50))


class TestRunTasks:
    @pytest.mark.skipif(
        distmat._openblas_threads() is None
        or not os.path.isdir("/proc/self/task")
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs numpy's bundled OpenBLAS, /proc/self/task and forked workers",
    )
    def test_forked_workers_never_restart_the_blas_pool(self):
        # a parent at two threads must not hand the count to its workers:
        # a worker that sets it itself restarts OpenBLAS's pool after the fork
        get, set_ = distmat._openblas_threads()
        before = get()
        try:
            set_(2)
            assert _run_tasks(_blas_after_a_product, [1, 2], 2) == [(1, 1), (1, 1)]
        finally:
            set_(before)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs forked workers",
    )
    def test_forked_workers_inherit_scipys_distance_module(self):
        # a fresh interpreter, so no earlier test has imported scipy.spatial
        script = """
            import sys
            import ginicov
            from ginicov.experiments import _run_tasks

            assert "scipy.spatial" not in sys.modules

            def probe(_):
                return "scipy.spatial.distance" in sys.modules

            print(_run_tasks(probe, [1, 2], 2))
            """
        assert _in_fresh_interpreter(script) == "[True, True]\n"

    @pytest.mark.parametrize(
        "tasks, threads, children",
        [
            (2, 64, 1),
            (9, 3, 2),
            (3, 0, 2),
            (1, 8, 0),
            (2, 1, 0),
            (0, 4, 0),
            (9, 64, 3),
            (9, 0, 3),
        ],
    )
    def test_never_more_workers_than_tasks(
        self, forks, monkeypatch, tasks, threads, children
    ):
        # this process runs one share, so w workers fork w - 1 children;
        # with 4 usable cores, at most 3
        monkeypatch.setattr(ginicov.experiments, "_usable_cores", lambda: 4)
        payloads = list(range(-tasks, 0))
        assert _run_tasks(abs, payloads, threads) == [abs(p) for p in payloads]
        assert len(forks) == children
        assert not multiprocessing.active_children()


class TestKeepFreedMemory:
    def test_a_repeated_study_faults_in_no_freed_memory(self):
        pytest.importorskip("resource")
        # without the raised thresholds, glibc hands each replicate's freed
        # arrays back to the kernel and the next replicate faults them in
        # again: about 200 minor faults per replicate of the second call
        out = _in_fresh_interpreter(
            f"""
            import resource
            from ginicov import ScenarioSpec, StudyConfig, normality_study
            from ginicov.distmat import _keep_freed_memory

            cfg = StudyConfig(scenario=ScenarioSpec(**{_SMALL_NULL!r}), replicates=8)
            normality_study(cfg, threads=1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            normality_study(cfg, threads=1)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(_keep_freed_memory(), (after - before) / cfg.replicates)
            """
        )
        found, per_replicate = out.split()
        if found != "True":
            pytest.skip("the C library has no mallopt; nothing is set")
        assert float(per_replicate) < 20

    def test_no_mallopt_sets_nothing_and_changes_no_z(self):
        # a fresh interpreter whose C library lookup fails; the study forks
        # after the helper has run
        out = _in_fresh_interpreter(
            f"""
            import ctypes

            class NoLibc(ctypes.CDLL):
                def __init__(self, name, *args, **kwargs):
                    if name is None:
                        raise OSError("no C library")
                    super().__init__(name, *args, **kwargs)

            ctypes.CDLL = NoLibc
            from ginicov import ScenarioSpec, StudyConfig, normality_study
            from ginicov.distmat import _keep_freed_memory

            cfg = StudyConfig(scenario=ScenarioSpec(**{_SMALL_NULL!r}), replicates=8)
            z = normality_study(cfg, threads=2).z_samples
            print(_keep_freed_memory(), z.tobytes().hex())
            """
        )
        found, z = out.split()
        assert found == "False"
        cfg = StudyConfig(scenario=ScenarioSpec(**_SMALL_NULL), replicates=8)
        assert z == normality_study(cfg, threads=1).z_samples.tobytes().hex()


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

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(4, 8)] * 3),
        p=st.integers(1, 6),
        replicates=st.integers(1, 5),
        permutations=st.integers(9, 19),
        betas=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_do_not_depend_on_the_worker_count(
        self, sizes, p, replicates, permutations, betas, seed
    ):
        cfg = StudyConfig(
            scenario=ScenarioSpec(example=2, p=p, sizes=sizes, seed=seed),
            replicates=replicates,
            methods=ginicov.experiments.ALL_METHODS,
            permutations=permutations,
        )
        serial = size_power_study(cfg, betas, threads=1)
        for threads in (2, 3, 5):
            assert size_power_study(cfg, betas, threads=threads) == serial

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

    def test_degenerate_replicates_are_counted_per_method(self, monkeypatch):
        original = ginicov.experiments._normal_test_from_distance
        calls = []

        def second_degenerate(d, gi, alpha):
            calls.append(None)
            res = original(d, gi, alpha)
            return replace(res, z=None, degenerate=True) if len(calls) == 2 else res

        monkeypatch.setattr(
            ginicov.experiments, "_normal_test_from_distance", second_degenerate
        )
        rows = self._rows()
        assert [row.degenerate for row in rows] == [1, 0]
        # the count is no column of the power files
        assert "degenerate" not in _power_records(rows)[0]

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

    def test_refuses_a_one_class_study(self):
        scen = ScenarioSpec(example=1, p=3, sizes=(10,))
        with pytest.raises(TooFewClassesError, match="at least 2 classes, got 1"):
            StudyConfig(scenario=scen, replicates=2)

    def test_accepts_the_largest_sample_within_budget(self):
        scen = ScenarioSpec(example=2, p=1, sizes=(11581, 2, 2))
        assert sum(StudyConfig(scenario=scen, replicates=1).scenario.sizes) == 11585

    def test_refuses_a_feature_matrix_over_budget_and_accepts_one_at_it(self):
        # 8 rows of 2**24 features fill the 1 GiB budget exactly; the smallest
        # step past it is one more feature (64 bytes)
        def config(p):
            scen = ScenarioSpec(example=2, p=p, sizes=(2, 2, 4))
            return StudyConfig(scenario=scen, replicates=1)

        assert config(2**24).scenario.p == 2**24
        with pytest.raises(TooLargeError, match="^8 rows of 16777217 features"):
            config(2**24 + 1)

    def test_root_seed_override(self):
        scen = ScenarioSpec(example=2, p=4, sizes=(3, 3, 3), seed=5)
        assert StudyConfig(scenario=scen, replicates=1).root_seed == 5
        assert StudyConfig(scenario=scen, replicates=1, seed=77).root_seed == 77
