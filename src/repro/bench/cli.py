"""``repro bench`` subcommand: run the benchmark regression suite."""

from __future__ import annotations

from repro.bench.runner import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_RESULTS_DIR,
    run_suite,
)
from repro.bench.suites import SUITES


def add_bench_parser(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="run seeded benchmarks, write BENCH_<name>.json, gate on baselines",
    )
    bench.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="benchmarks to run (default: all); see --list",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="small-seed variant for CI (same code paths, reduced sizes)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list available benchmarks"
    )
    bench.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help="where BENCH_<name>.json and the paper tables land "
        f"(default: {DEFAULT_RESULTS_DIR})",
    )
    bench.add_argument(
        "--baseline-dir",
        default=DEFAULT_BASELINE_DIR,
        help="committed baselines to compare against "
        f"(default: {DEFAULT_BASELINE_DIR}; smoke variants in smoke/)",
    )
    bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the baselines from this run instead of comparing",
    )


def cmd_bench(args) -> int:
    if args.list:
        for spec in SUITES:
            print(f"{spec.name:<20} seed={spec.seed:<10} {spec.description}")
        return 0
    return run_suite(
        names=args.names or None,
        smoke=args.smoke,
        results_dir=args.results_dir,
        baseline_dir=args.baseline_dir,
        update_baselines=args.update_baselines,
    )
