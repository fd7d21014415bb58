"""Command-line front end.

Three subcommands: ``test`` runs one K-sample test on a CSV file and prints
a single JSON line to stdout; ``simulate`` runs a size/power study to a CSV
file; ``normality`` runs the null-normality study.  Exit codes encode
operational success only (0 ok, 1 data error, 2 usage error); the
statistical decision is data, not an exit status.  stdout carries
machine-readable results; diagnostics and provenance go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import scipy

from . import __version__
from .core import group_index, load_csv
from .distmat import kernel_blas_threads
from .errors import GinicovError
from .experiments import (
    ALL_METHODS,
    StudyConfig,
    _check_kde_replicates,
    _resolve_workers,
    normality_study,
    size_power_study,
    write_normality_csv,
    write_power_csv,
    write_power_json,
)
from .ktest import (
    METHOD_DCOV_PERM,
    METHOD_GINI_NORMAL,
    METHOD_GINI_PERM,
    _check_alpha,
    _check_permutations,
    gini_normal_test,
    permutation_test,
)
from .simgen import ScenarioSpec

_USAGE_ERROR = 2
_DATA_ERROR = 1


def _parse_sizes(text: str) -> tuple:
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"sizes must be comma-separated integers, got {text!r}")
    return sizes


def _parse_methods(text: str) -> tuple:
    # StudyConfig checks the methods
    return tuple(m.strip() for m in text.split(",") if m.strip())


def cmd_test(args) -> int:
    # usage errors come before the file is read
    _check_alpha(args.alpha)
    if args.method != METHOD_GINI_NORMAL:
        _check_permutations(args.permutations)
    ds = load_csv(args.input, args.label_col, not args.no_header)
    if args.method == METHOD_GINI_NORMAL:
        res = gini_normal_test(ds, alpha=args.alpha)
    else:
        stat = "gini" if args.method == METHOD_GINI_PERM else "dcov"
        res = permutation_test(
            ds,
            statistic=stat,
            permutations=args.permutations,
            alpha=args.alpha,
            seed=args.seed,
        )
    gi = group_index(ds)
    out = {"method": res.method, "statistic": res.statistic}
    if res.z is not None:
        out["z"] = res.z
    out.update(
        {
            "p_value": res.p_value,
            "alpha": res.alpha,
            "reject": res.reject,
            "n": ds.n,
            "p": ds.p,
            "K": gi.k,
            "class_counts": [int(c) for c in gi.counts],
        }
    )
    if res.permutations is not None:
        out["permutations"] = res.permutations
        out["seed"] = res.seed
    out["degenerate"] = res.degenerate
    print(json.dumps(out))
    return 0


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built against, if it says."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no "dicts" mode
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _provenance(config: dict) -> None:
    versions = dict(ginicov=__version__, numpy=np.__version__, scipy=scipy.__version__)
    record = {
        "config": config,
        "versions": versions,
        "blas": _blas(),
        "kernel_blas_threads": kernel_blas_threads(),
    }
    print(json.dumps(record), file=sys.stderr)


def cmd_simulate(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = _parse_methods(args.methods)
    if args.beta_grid:
        betas = [float(b) for b in args.beta_grid.split(",")]
    else:
        betas = [args.beta]
    for b in betas:
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {b}")
    scenario = ScenarioSpec(
        example=args.example, p=args.p, sizes=sizes, seed=args.seed
    )
    cfg = StudyConfig(
        scenario=scenario,
        replicates=args.reps,
        methods=methods,
        alpha=args.alpha,
        permutations=args.permutations,
        seed=args.seed,
    )
    _resolve_workers(args.threads)  # usage errors come before provenance
    _provenance(
        {
            "subcommand": "simulate",
            "example": args.example,
            "p": args.p,
            "sizes": list(sizes),
            "beta_grid": betas,
            "methods": list(methods),
            "alpha": args.alpha,
            "permutations": args.permutations,
            "replicates": args.reps,
            "seed": args.seed,
            "threads": args.threads,
            "out": args.out,
        }
    )
    start = time.perf_counter()
    rows = size_power_study(cfg, betas, threads=args.threads)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    write_power_csv(rows, args.out)
    if args.json_out:
        write_power_json(rows, args.json_out)
    print(f"wrote {len(rows)} rows to {args.out} ({elapsed_ms:.0f} ms)", file=sys.stderr)
    return 0


def cmd_normality(args) -> int:
    sizes = _parse_sizes(args.sizes)
    scenario = ScenarioSpec(example=1, p=args.p, sizes=sizes, seed=args.seed)
    cfg = StudyConfig(scenario=scenario, replicates=args.reps, seed=args.seed)
    # usage errors come before provenance
    _check_kde_replicates(cfg.replicates)
    _resolve_workers(args.threads)
    _provenance(
        {
            "subcommand": "normality",
            "p": args.p,
            "sizes": list(sizes),
            "replicates": args.reps,
            "seed": args.seed,
            "threads": args.threads,
            "out": args.out,
        }
    )
    row = normality_study(cfg, threads=args.threads)
    write_normality_csv(row, args.out)
    print(
        f"max KDE-normal gap {row.max_density_gap:.4f} over "
        f"{row.replicates} replicates -> {args.out}",
        file=sys.stderr,
    )
    if row.degenerate:
        print(
            f"{row.degenerate} of {row.replicates} replicates were degenerate "
            "(no z; entered as 0.0)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginicov",
        description="K-sample tests built on the categorical Gini covariance",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    t = sub.add_parser("test", help="run one test on a CSV file")
    t.add_argument("--input", required=True, help="CSV file path")
    t.add_argument(
        "--label-col",
        required=True,
        help="label column: header name, or 0-based index",
    )
    t.add_argument(
        "--method",
        default=METHOD_GINI_NORMAL,
        choices=[METHOD_GINI_NORMAL, METHOD_GINI_PERM, METHOD_DCOV_PERM],
    )
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--permutations", type=int, default=999)
    t.add_argument("--seed", type=int, default=42)
    t.add_argument("--threads", type=int, default=0, help="accepted; no effect")
    t.add_argument(
        "--no-header", action="store_true", help="the file has no header row"
    )
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", help="run a size/power study")
    s.add_argument("--example", type=int, required=True, choices=[2, 3])
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--sizes", required=True, help="comma-separated class sizes")
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--beta-grid", default="", help="comma-separated betas")
    s.add_argument("--reps", type=int, required=True)
    s.add_argument(
        "--methods",
        default=METHOD_GINI_NORMAL,
        help="comma-separated subset of: " + ", ".join(ALL_METHODS),
    )
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--permutations", type=int, default=999)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--threads", type=int, default=0)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--json-out", default="", help="optional JSON mirror path")
    s.set_defaults(func=cmd_simulate)

    n = sub.add_parser("normality", help="run the null-normality study")
    n.add_argument("--p", type=int, required=True)
    n.add_argument("--sizes", default="30,40,50,60,70")
    n.add_argument("--reps", type=int, required=True)
    n.add_argument("--seed", type=int, default=42)
    n.add_argument("--threads", type=int, default=0)
    n.add_argument("--out", required=True, help="output CSV path")
    n.set_defaults(func=cmd_normality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GinicovError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
