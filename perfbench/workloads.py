"""The three benchmark workloads.

Each workload has a fixed design, an operation that the load process runs
through the package's public entry points, expected outputs computed by
``reference`` from the same seed, and a check that lists every mismatch.
Within one run every operation repeats the same inputs, so one reference
computation covers all of them.

* ``perm-study``: few, heavy tasks dominated by the permutation engine and
  RNG stream construction (criterion-6 design).
* ``normal-study``: many light tasks with no permutations, dominated by
  data generation and the pdist distance path (criterion-7 design).
* ``cli-test``: ``ginicov test`` on a CSV, the only path through
  ``load_csv`` and the p > 1024 tree-sum distances.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np

import reference as ref

METHODS = ("gini-normal", "gini-perm", "dcov-perm")
ALPHA = 0.05
# the study pool and any future test-level parallelism use 2 workers
WORKERS = 2
# statistics and z values may move in the last bits (a different summation
# order), never by more than this share of their natural scale
REL_TOL = 1e-12


def close(a, b, scale: float = 0.0) -> bool:
    """|a - b| within REL_TOL of max(|a|, |b|, scale); None only equals None."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


class PermStudy:
    name = "perm-study"
    entry = "experiments.size_power_study"
    example, p, sizes, beta = 2, 500, (72, 36, 12), 0.4
    permutations = 999
    replicates = 24

    def design(self) -> dict:
        return {"n": sum(self.sizes), "p": self.p,
                "permutations": self.permutations}

    def setup(self, seed, workdir) -> dict:
        return {}

    def run(self, g, seed, inputs, replicates, threads) -> dict:
        cfg = g.StudyConfig(
            scenario=g.ScenarioSpec(
                example=self.example, p=self.p, sizes=self.sizes, seed=seed
            ),
            replicates=replicates,
            methods=METHODS,
            alpha=ALPHA,
            permutations=self.permutations,
            seed=seed,
        )
        rows = g.size_power_study(cfg, [self.beta], threads=threads)
        return {r.method: round(r.rejection_rate * r.replicates) for r in rows}

    def expected(self, seed, inputs) -> dict:
        # beta batch 0 of the study draws from derive(seed, 0)
        scenario_seed = ref.derive(seed, 0)
        counts = dict.fromkeys(METHODS, 0)
        for r in range(self.replicates):
            x, labels = ref.scenario_data(
                self.example, self.p, self.sizes, self.beta, scenario_seed, r
            )
            d = ref.distances(x)
            perm_seed = ref.derive(scenario_seed, r, ref.PERM_SALT)
            outcome = ref.perm_tests(d, labels, self.permutations, perm_seed)
            outcome["gini-normal"] = ref.normal_test(d, labels, ALPHA)
            for m in METHODS:
                counts[m] += bool(outcome[m]["reject"])
        return {"rejections": counts}

    def check(self, expected, output) -> list:
        want = expected["rejections"]
        if output != want:
            return [f"rejection counts {output} != expected {want}"]
        return []


class NormalStudy:
    name = "normal-study"
    entry = "experiments.normality_study"
    example, p, sizes = 1, 500, (30, 40, 50, 60, 70)
    replicates = 96

    def design(self) -> dict:
        return {"n": sum(self.sizes), "p": self.p, "permutations": 0}

    def setup(self, seed, workdir) -> dict:
        return {}

    def run(self, g, seed, inputs, replicates, threads) -> dict:
        cfg = g.StudyConfig(
            scenario=g.ScenarioSpec(
                example=self.example, p=self.p, sizes=self.sizes, seed=seed
            ),
            replicates=replicates,
            seed=seed,
        )
        row = g.normality_study(cfg, threads=threads)
        return {"z": [float(z) for z in row.z_samples],
                "gap": row.max_density_gap}

    def expected(self, seed, inputs) -> dict:
        z = []
        for r in range(self.replicates):
            x, labels = ref.scenario_data(
                self.example, self.p, self.sizes, 0.0, seed, r
            )
            res = ref.normal_test(ref.distances(x), labels, ALPHA)
            z.append(0.0 if res["z"] is None else res["z"])
        return {"z": z, "gap": ref.kde_gap(np.asarray(z)),
                "rejections": _normal_rejections(z)}

    def check(self, expected, output) -> list:
        z = output["z"]
        if len(z) != len(expected["z"]):
            return [f"{len(z)} z samples, expected {len(expected['z'])}"]
        bad = [i for i, (a, b) in enumerate(zip(z, expected["z"]))
               if not close(a, b, 1.0)]
        errors = [f"z sample {i}: {z[i]!r} != {expected['z'][i]!r}"
                  for i in bad[:3]]
        if _normal_rejections(z) != expected["rejections"]:
            errors.append(
                f"{_normal_rejections(z)} rejections at alpha={ALPHA}, "
                f"expected {expected['rejections']}"
            )
        if not close(output["gap"], expected["gap"], 1.0):
            errors.append(f"KDE gap {output['gap']!r} != {expected['gap']!r}")
        return errors


def _normal_rejections(z) -> int:
    """Replicates whose gini-normal test rejects at ALPHA."""
    return sum(1.0 - 0.5 * math.erfc(-v / math.sqrt(2.0)) < ALPHA for v in z)


class CliTest:
    name = "cli-test"
    entry = "cli.main"
    example, p, sizes, beta = 3, 2000, (100, 100, 100), 0.3
    permutations = 999

    def design(self) -> dict:
        return {"n": sum(self.sizes), "p": self.p,
                "permutations": self.permutations}

    def _data(self, seed):
        return ref.scenario_data(
            self.example, self.p, self.sizes, self.beta, seed, 0
        )

    def setup(self, seed, workdir) -> dict:
        """Write the input CSV: a "label" column (1..K) then f0..f{p-1},
        values at 17 significant digits so they parse back bit-exactly."""
        x, labels = self._data(seed)
        path = workdir / "cli-test.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["label"] + [f"f{j}" for j in range(self.p)]))
            fh.write("\n")
            for lab, row in zip(labels, x):
                fh.write(f"{lab + 1}," + ",".join(format(v, ".17g") for v in row))
                fh.write("\n")
        return {"csv": str(path), "csv_bytes": path.stat().st_size}

    def argv(self, inputs, method, seed) -> list:
        return ["test", "--input", inputs["csv"], "--label-col", "label",
                "--method", method, "--alpha", str(ALPHA),
                "--permutations", str(self.permutations), "--seed", str(seed),
                "--threads", str(WORKERS)]

    def call(self, main, inputs, method, seed) -> dict:
        """One ``ginicov test`` call in-process; stdout is the result."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(self.argv(inputs, method, seed))
        return {"method": method, "rc": rc, "out": buf.getvalue()}

    def expected(self, seed, inputs) -> dict:
        x, labels = self._data(seed)
        d = ref.distances(x)
        results = ref.perm_tests(d, labels, self.permutations, seed, ALPHA)
        results["gini-normal"] = ref.normal_test(d, labels, ALPHA)
        common = {"n": int(x.shape[0]), "p": self.p, "K": len(self.sizes),
                  "class_counts": list(self.sizes)}
        return {"scale": ref.gmd(d),
                "calls": {m: dict(results[m], **common) for m in METHODS}}

    def check(self, expected, output) -> list:
        method = output["method"]
        if output["rc"] != 0:
            return [f"{method}: exit code {output['rc']}"]
        try:
            got = json.loads(output["out"])
        except ValueError:
            return [f"{method}: stdout is not one JSON line"]
        want = expected["calls"][method]
        errors = [
            f"{method}: {key} {got.get(key)!r} != expected {want[key]!r}"
            for key in ("reject", "n", "p", "K", "class_counts")
            if got.get(key) != want[key]
        ]
        if method == "gini-normal":
            # a continuous function of z: compared like z
            if not close(got.get("p_value"), want["p_value"], 1.0):
                errors.append(f"{method}: p_value {got.get('p_value')!r}")
            if not close(got.get("z"), want["z"], 1.0):
                errors.append(f"{method}: z {got.get('z')!r}")
        elif got.get("p_value") != want["p_value"]:
            errors.append(
                f"{method}: p_value {got.get('p_value')!r} != "
                f"expected {want['p_value']!r}"
            )
        if not close(got.get("statistic"), want["statistic"], expected["scale"]):
            errors.append(f"{method}: statistic {got.get('statistic')!r}")
        return errors


WORKLOADS = {w.name: w for w in (PermStudy(), NormalStudy(), CliTest())}
