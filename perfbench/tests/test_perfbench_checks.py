"""Each workload's reference check accepts the program's outputs on a small
design and rejects them once one expected rejection count is perturbed."""

import ginicov
import ginicov.cli
import pytest
from workloads import METHODS, CliTest, NormalStudy, PermStudy, close

SEED = 20240


def _small(wl, **design):
    for key, value in design.items():
        setattr(wl, key, value)
    return wl


def test_perm_study_check():
    wl = _small(PermStudy(), p=100, sizes=(24, 16, 10), beta=0.8,
                replicates=3, permutations=49)
    expected = wl.expected(SEED, {})
    output = wl.run(ginicov, SEED, {}, wl.replicates, 1)
    assert wl.check(expected, output) == []
    assert sum(output.values()) > 0
    for method in METHODS:
        bad = {"rejections": dict(expected["rejections"])}
        bad["rejections"][method] += 1
        assert wl.check(bad, output) != []


def test_normal_study_check():
    wl = _small(NormalStudy(), p=40, replicates=6)
    expected = wl.expected(SEED, {})
    output = wl.run(ginicov, SEED, {}, wl.replicates, 1)
    assert wl.check(expected, output) == []
    bad = dict(expected, rejections=expected["rejections"] + 1)
    assert wl.check(bad, output) != []
    z = list(output["z"])
    z[2] *= 1.0 + 1e-9
    assert wl.check(expected, dict(output, z=z)) != []


def test_cli_test_check(tmp_path):
    # p above 1024 keeps the tree-sum distance branch
    wl = _small(CliTest(), p=1030, sizes=(8, 8, 8), permutations=49)
    inputs = wl.setup(SEED, tmp_path)
    expected = wl.expected(SEED, inputs)
    outputs = [wl.call(ginicov.cli.main, inputs, m, SEED) for m in METHODS]
    for out in outputs:
        assert wl.check(expected, out) == []
    for out in outputs:
        bad = {"scale": expected["scale"],
               "calls": {m: dict(v) for m, v in expected["calls"].items()}}
        bad["calls"][out["method"]]["reject"] ^= True
        assert wl.check(bad, out) != []


@pytest.mark.parametrize(
    "a, b, scale, ok",
    [(1.0, 1.0 + 1e-13, 0.0, True), (1.0, 1.0 + 1e-11, 0.0, False),
     (1e-6, 1e-6 + 1e-15, 1.0, True), (1e-6, 1e-6 + 1e-15, 0.0, False),
     (None, None, 0.0, True), (None, 0.5, 1.0, False)],
)
def test_close(a, b, scale, ok):
    assert close(a, b, scale) is ok
