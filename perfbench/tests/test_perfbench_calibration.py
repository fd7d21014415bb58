"""The end-to-end timings are scaled by the calibration kernel runs that
bracket each operation and by the baseline imports that bracket each
set-up sample."""

import calibration
import pytest
import run
from workloads import WORKLOADS


def _kernel(factor):
    t = calibration.REFERENCE_S * factor
    return {"wall": t, "cpu": t}


def _baseline(factor):
    return calibration.IMPORT_REFERENCE_S * factor


def test_timings_are_scaled_by_the_bracketing_yardstick_runs():
    wl = WORKLOADS["perm-study"]
    records = [{"wall": 2.0, "cpu": 4.0}, {"wall": 3.0, "cpu": 6.0}]
    # the host ran at reference speed, then 1.5x and 2x slower
    kernels = [_kernel(1.0), _kernel(2.0), _kernel(2.0)]
    baseline = [_baseline(f) for f in (1.0, 2.0, 2.0)]
    samples = run.end_to_end(wl, records, kernels, [3.0, 4.0], baseline, 100.0)
    n = wl.replicates
    assert samples["raw_setup_s"] == [3.0, 4.0]
    assert samples["setup_s"] == pytest.approx([3.0 / 1.5, 4.0 / 2.0])
    assert samples["raw_replicates_per_s"] == [n / 2.0, n / 3.0]
    assert samples["replicates_per_s"] == pytest.approx([n / 2.0 * 1.5, n / 3.0 * 2.0])
    assert samples["cpu_per_replicate_ms"] == pytest.approx(
        [4.0 / n * 1e3 / 1.5, 6.0 / n * 1e3 / 2.0]
    )


def test_calibrated_and_raw_agree_at_reference_speed():
    wl = WORKLOADS["cli-test"]
    records = [{"wall": 1.0, "cpu": 1.0, "method": m}
               for m in ("gini-normal", "gini-perm", "dcov-perm")]
    kernels = [_kernel(1.0)] * 2
    samples = run.end_to_end(wl, records, kernels, [0.5], [_baseline(1.0)] * 2,
                             100.0)
    assert samples["replicates_per_s"] == pytest.approx([1.0])
    assert samples["raw_replicates_per_s"] == pytest.approx([1.0])


def test_a_missing_calibration_is_an_error():
    wl = WORKLOADS["perm-study"]
    with pytest.raises(SystemExit):
        run.end_to_end(wl, [{"wall": 1.0, "cpu": 1.0}], [_kernel(1.0)],
                       [0.5], [_baseline(1.0)] * 2, 1.0)
