"""Host-clock benchmark of the ClusterBFT reproduction.

    python3 benchmarks/perf/run.py --workload NAME [--seed S] [--seconds N] [--trace 0|1]
    python3 benchmarks/perf/run.py --check | --selfcheck | --sensitivity

One invocation measures one workload and prints every metric by name
with its unit, the operations attempted and failed, and - as the last
line - one JSON object.  ``--trace 0`` (default) gives the end-to-end
metrics, ``--trace 1`` the per-layer ones; metric names, units and
bounds are declared once, in ``BENCHMARK.json`` at the repository root.

This file only orchestrates: every measurement runs in a fresh child
interpreter (``child.py``) started with ``PYTHONHASHSEED=0``, one at a
time, so the load is one single-threaded process.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

DEFAULT_SEED = 20131209
#: A child that runs longer than this is killed (the contract's limit
#: for one invocation is 180 s).
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 3
#: Runs per set of ``--selfcheck``.
SELFCHECK_RUNS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(role: str, timeout: float | None = CHILD_TIMEOUT_S, **options) -> dict:
    """Run one child role to completion and return what it printed."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--role", role,
        "--workdir", str(WORK / f"{os.getpid()}-{role}"),
    ]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command += ["--spawned-at", repr(perf_counter())]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark child {role!r} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: every metric the children produced."""
    common = {"workload": workload, "seed": seed, "seconds": seconds}
    if trace:
        return spawn("trace", trace_path=HERE / f"trace-{workload}.json", **common)
    # Set-up is timed in fresh processes, several times, and the median
    # reported: one sample would carry a cold import or a compile.
    setups = [spawn("setup", **common) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn("timed", **common)
    setups.append(run)
    run["attempted"] += sum(sample["attempted"] for sample in setups[:-1])
    run["failed"] += sum(sample["failed"] for sample in setups[:-1])
    for key in ("setup_s", "setup_raw_s"):
        run["metrics"][key] = statistics.median(
            sample["metrics"][key] for sample in setups
        )
    return run


def report(run: dict, declared: list[dict]) -> dict:
    """Print the declared metrics of ``run`` by name and unit; return
    the result object the last output line carries."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = run["metrics"][name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name:40s} {value!r:>24} {entry['unit']}")
    print(f"ops_attempted {run['attempted']}  ops_failed {run['failed']}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def command_run(args, spec: dict) -> int:
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"--workload must be one of {', '.join(names)}")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {int(bool(args.trace))}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = report(run, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# --selfcheck: A/A
# ---------------------------------------------------------------------------


def command_selfcheck(args, spec: dict) -> int:
    """Two interleaved sets of runs of the same code per workload; the
    set medians must agree within each metric's bound."""
    ok = True
    record = {}
    for entry in spec["workloads"]:
        workload = entry["name"]
        sets: tuple[list, list] = ([], [])
        for _ in range(SELFCHECK_RUNS):
            for side in sets:
                side.append(measure(workload, args.seed, args.seconds, False))
                print(f"# {workload} run {len(sets[0]) + len(sets[1])}"
                      f"/{2 * SELFCHECK_RUNS} done", file=sys.stderr)
        runs = sets[0] + sets[1]
        failed = sum(run["failed"] for run in runs)
        latencies = {run["metrics"]["harness.sim_latency_s"] for run in runs}
        ok = ok and failed == 0 and len(latencies) == 1
        print(f"{workload}: ops_failed {failed}, simulated latency "
              f"{'bit-identical' if len(latencies) == 1 else 'DIFFERS'} "
              f"over {len(runs)} runs ({sorted(latencies)})")
        record[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = (
                statistics.median(run["metrics"][name] for run in side)
                for side in sets
            )
            difference = abs(second - first) / first
            passed = difference <= metric["bound"]
            ok = ok and passed
            record[workload][name] = {
                "median_a": first, "median_b": second,
                "difference": difference, "bound": metric["bound"],
            }
            print(f"  {name:14s} A {first:14.6f}  B {second:14.6f}  "
                  f"diff {difference:8.4%}  bound {metric['bound']:.0%}  "
                  f"{'ok' if passed else 'FAIL'}")
        for name in ("throughput", "harness.throughput_raw", "setup_s", "setup_raw_s"):
            values = [run["metrics"][name] for run in runs]
            record[workload][f"spread:{name}"] = child.iqr_ratio(values)
            print(f"  spread over {len(values)} runs  {name:24s} {child.iqr_ratio(values):8.4%}")
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "selfcheck.json", "w") as handle:
        json.dump({"pass": ok, "seed": args.seed, "seconds": args.seconds,
                   "runs_per_set": SELFCHECK_RUNS, "workloads": record}, handle, indent=2)
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --sensitivity, --check
# ---------------------------------------------------------------------------


def throughput_bound(spec: dict) -> float:
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "throughput")


def command_sensitivity(args, spec: dict) -> int:
    outcome = spawn("sensitivity", timeout=None, seed=args.seed,
                    bound=throughput_bound(spec))
    for row in outcome["rows"]:
        wanted = "> bound" if row["role"] == "named" else "within bound"
        print(f"{row['layer']:28s} x{1 + row['factor']:5.2f} on {row['workload']:17s}"
              f" throughput drop {row['throughput_drop']:8.2%}  want {wanted}"
              f" ({row['bound']:.0%})  {'ok' if row['pass'] else 'FAIL'}")
    print("sensitivity", "ok" if outcome["pass"] else "FAILED")
    return 0 if outcome["pass"] else 1


def calib_imports() -> set[str]:
    """Top-level package names ``calib.py`` imports."""
    tree = ast.parse((HERE / "calib.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def command_check(args, spec: dict) -> int:
    """Smoke run at 1/20 size plus a schema check against BENCHMARK.json."""
    problems = []
    if "repro" in calib_imports():
        problems.append("calib.py imports repro")
    outcome = spawn("check", seed=args.seed)
    declared = [entry["name"] for entry in spec["workloads"]]
    if sorted(outcome) != sorted(declared):
        problems.append(f"workloads {sorted(outcome)} != declared {sorted(declared)}")
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    for workload, run in outcome.items():
        if run["failed"]:
            problems.append(f"{workload}: {run['failed']} operations failed "
                            "(or tracing left a wrapper installed)")
        missing = end_to_end - set(run["end_to_end"])
        if missing:
            problems.append(f"{workload}: end-to-end metrics missing {sorted(missing)}")
        if set(run["per_layer"]) != per_layer:
            problems.append(
                f"{workload}: per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(run['per_layer']) ^ per_layer)}"
            )
        print(f"{workload:18s} ops {run['attempted']:3d} failed {run['failed']} "
              f"throughput {run['end_to_end']['throughput']:.1f} units/s "
              f"unattributed {run['per_layer']['unattributed_share']:.1%}")
    for problem in problems:
        print("PROBLEM:", problem)
    print("check", "ok" if not problems else "FAILED")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv, spec: dict | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 0.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--sensitivity", action="store_true")
    # Internal: one measurement role inside a child interpreter.
    parser.add_argument("--role", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-path", help=argparse.SUPPRESS)
    parser.add_argument("--bound", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if "--role" in (argv if argv is not None else sys.argv):
        return child.main(parse_args(argv, None))
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: no program to measure: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    try:
        if args.check:
            return command_check(args, spec)
        if args.selfcheck:
            return command_selfcheck(args, spec)
        if args.sensitivity:
            return command_sensitivity(args, spec)
        if not args.workload:
            raise SystemExit("run.py: --workload NAME (or --check / --selfcheck"
                             " / --sensitivity) is required")
        return command_run(args, spec)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
