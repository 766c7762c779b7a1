"""Host-time trajectory: one committed line per workload per PR.

    python3 benchmarks/host_trajectory.py --record [--label TEXT] [--seed S] [--seconds N]
    python3 benchmarks/host_trajectory.py --check

``--record`` shells out to ``benchmarks/perf/run.py`` (``--trace 0`` and
``--trace 1``) for every workload ``BENCHMARK.json`` declares, then to
tier-1 and to two chaos campaigns, and appends to
``benchmarks/host_trajectory.jsonl``:

* one ``"kind": "workload"`` line per workload - git sha, seed, the
  end-to-end values, the ten largest ``*.self_s`` as shares of
  ``harness.rep_s``, and ``common.encode.calls_per_record``;
* one ``"kind": "tier1"`` line - wall seconds and test count;
* one ``"kind": "chaos"`` line - wall seconds of ``repro chaos run`` for
  each campaign in ``CHAOS_CAMPAIGNS`` (median of ``CHAOS_RUNS`` fresh
  children, interpreter start included);
* one ``"kind": "size"`` line - physical lines and file count of
  ``src/repro``, the lines of ``core/controller.py`` and of
  ``core/resource_manager.py``, the five longest functions (by ``ast``)
  of the tree and of the controller, and the method count and largest
  parameter count of ``ClusterBFTController``, and the lines and job
  count of ``.github/workflows/ci.yml``: the numbers ROADMAP aim 2 is
  judged by, next to the host time they cost.

A PR that touches the data path records the parent's code first and its
own code last, so the file is the repository's host-time history.  It
lives outside ``benchmarks/perf/`` because a PR that claims a gain may
not edit that directory.  ``--check`` validates that every line parses
and names only workloads and metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "host_trajectory.jsonl"
RUN = HERE / "perf" / "run.py"
DEFAULT_SEED = 23
TOP_LAYERS = 10
#: Per-layer values recorded beside the self-time shares.
PER_LAYER_KEPT = ("harness.rep_s", "common.encode.calls_per_record")
#: campaign -> ``--seeds`` argument of the timed ``repro chaos run``.
CHAOS_CAMPAIGNS = {"service": 5, "smoke": 2}
CHAOS_RUNS = 3
SRC = ROOT / "src" / "repro"
CONTROLLER = "core/controller.py"
RESOURCE_MANAGER = "core/resource_manager.py"
LONGEST_KEPT = 5
SIZE_KEYS = {
    "sha", "src_lines", "src_files", "controller_lines", "longest_functions",
    "controller_longest_functions", "controller_max_params",
}
CI = ROOT / ".github" / "workflows" / "ci.yml"
#: Counts a size line carries since PR 20 (the first two) and PR 23 (the
#: CI pair); older lines do not.
SIZE_COUNTS_SINCE = ("controller_methods", "resource_manager_lines", "ci_lines", "ci_jobs")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    """One ``run.py`` invocation; the metric values of its final JSON line."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: {result['failed']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def workload_line(workload: str, seed: int, seconds: float) -> dict:
    end_to_end = measure(workload, seed, seconds, 0)
    layers = measure(workload, seed, seconds, 1)
    rep_s = layers["harness.rep_s"]
    shares = sorted(
        ((name, value / rep_s) for name, value in layers.items()
         if name.endswith(".self_s")),
        key=lambda pair: -pair[1],
    )[:TOP_LAYERS]
    return {
        "kind": "workload",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "end_to_end": end_to_end,
        "self_s_share": {name: round(share, 4) for name, share in shares},
        "per_layer": {name: layers[name] for name in PER_LAYER_KEPT},
    }


def src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def tier1_line() -> dict:
    env = src_env()
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    wall = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit("tier-1 did not pass:\n" + done.stdout[-2000:])
    # pyproject's addopts already carries one -q, so tier-1 runs at -qq
    # and prints no "N passed" summary: count the progress dots.
    progress = re.findall(r"^([.sxX]+) +\[ *\d+%\]$", done.stdout, re.MULTILINE)
    return {"kind": "tier1", "wall_s": round(wall, 1), "tests": "".join(progress).count(".")}


def chaos_line() -> dict:
    env = src_env()
    wall_s = {}
    for campaign, seeds in CHAOS_CAMPAIGNS.items():
        walls = []
        for _ in range(CHAOS_RUNS):
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "repro", "chaos", "run",
                 "--campaign", campaign, "--seeds", str(seeds)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            )
            walls.append(perf_counter() - start)
            if done.returncode != 0:
                raise SystemExit(f"chaos campaign {campaign} failed:\n" + done.stdout[-2000:])
        wall_s[campaign] = round(statistics.median(walls), 3)
    return {"kind": "chaos", "wall_s": wall_s}


def functions_in(tree: ast.AST, prefix: str = ""):
    """``(qualname, node)`` of every function in ``tree``, nested ones too."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield qualname, child
            yield from functions_in(child, qualname + ".")
        else:
            yield from functions_in(child, prefix)


def size_line() -> dict:
    """Code size where aim 2 looks at it.  Lines are physical lines
    (``wc -l``); a function's length is ``end_lineno - lineno + 1``; a
    parameter count includes ``self``."""
    lines = {}
    lengths = {}
    max_params = (0, "")
    methods = 0
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        text = path.read_text()
        lines[name] = text.count("\n")
        for qualname, node in functions_in(ast.parse(text)):
            lengths[f"{name}:{qualname}"] = node.end_lineno - node.lineno + 1
            if name == CONTROLLER and qualname.startswith("ClusterBFTController."):
                methods += qualname.count(".") == 1  # not a def nested in a method
                args = node.args
                count = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
                max_params = max(max_params, (count, qualname))

    def longest(names) -> list[list]:
        """``[name, lines]`` pairs, longest first (a list: the order is the point)."""
        return sorted(([n, lengths[n]] for n in names), key=lambda pair: -pair[1])[:LONGEST_KEPT]

    return {
        "kind": "size",
        "src_lines": sum(lines.values()),
        "src_files": len(lines),
        "controller_lines": lines[CONTROLLER],
        "longest_functions": longest(lengths),
        "controller_longest_functions": longest(
            n for n in lengths if n.startswith(CONTROLLER + ":")
        ),
        "controller_max_params": {"count": max_params[0], "function": max_params[1]},
        "controller_methods": methods,
        "resource_manager_lines": lines[RESOURCE_MANAGER],
        **ci_size(),
    }


def ci_size() -> dict[str, int]:
    """Physical lines of the CI workflow and its job count: the keys
    indented two spaces in the block of the top-level ``jobs:`` key."""
    lines = CI.read_text().splitlines()
    block = lines[lines.index("jobs:") + 1:]
    block = block[: next((i for i, line in enumerate(block) if line[:1].strip()), len(block))]
    return {
        "ci_lines": len(lines),
        "ci_jobs": sum(bool(re.fullmatch(r"  [\w-]+:", line)) for line in block),
    }


def command_record(args, spec: dict) -> int:
    stamp = {
        "sha": git("rev-parse", "--short", "HEAD"),
        # True when src/ differs from the commit named by ``sha``.
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
        "label": args.label,
    }

    def append(line: dict) -> None:
        text = json.dumps({**stamp, **line}, sort_keys=True)
        with open(TRAJECTORY, "a") as handle:
            handle.write(text + "\n")
        print(text, flush=True)

    for entry in spec["workloads"]:
        append(workload_line(entry["name"], args.seed, args.seconds))
    append(tier1_line())
    append(chaos_line())
    append(size_line())
    return 0


def problems_in(line: dict, spec: dict) -> list[str]:
    """Names in one trajectory line that ``BENCHMARK.json`` does not declare."""
    if line.get("kind") == "tier1":
        return [] if {"sha", "wall_s", "tests"} <= set(line) else ["tier1 line incomplete"]
    if line.get("kind") == "chaos":
        ok = "sha" in line and set(line["wall_s"]) == set(CHAOS_CAMPAIGNS)
        return [] if ok else ["chaos line incomplete"]
    if line.get("kind") == "size":
        ok = SIZE_KEYS <= set(line) and all(
            len(line[key]) == LONGEST_KEPT
            for key in ("longest_functions", "controller_longest_functions")
        ) and all(
            type(line[key]) is int and line[key] > 0
            for key in SIZE_COUNTS_SINCE if key in line
        )
        return [] if ok else ["size line incomplete"]
    if line.get("kind") != "workload":
        return [f"unknown kind {line.get('kind')!r}"]
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    found = []
    if line["workload"] not in {entry["name"] for entry in spec["workloads"]}:
        found.append(f"undeclared workload {line['workload']!r}")
    if set(line["end_to_end"]) != end_to_end:
        found.append(f"end_to_end names {sorted(set(line['end_to_end']) ^ end_to_end)}")
    for name in line["self_s_share"]:
        if name not in per_layer or not name.endswith(".self_s"):
            found.append(f"undeclared self-time layer {name!r}")
    for name in line["per_layer"]:
        if name not in per_layer:
            found.append(f"undeclared per-layer metric {name!r}")
    return found


def command_check(spec: dict) -> int:
    problems = []
    count = 0
    with open(TRAJECTORY) as handle:
        for number, text in enumerate(handle, 1):
            count += 1
            try:
                found = problems_in(json.loads(text), spec)
            except (ValueError, KeyError, TypeError) as error:
                found = [f"does not parse: {error!r}"]
            problems += [f"line {number}: {problem}" for problem in found]
    for problem in problems:
        print("PROBLEM:", problem)
    print(f"host_trajectory: {count} lines,", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--label", default="", help="free text, e.g. 'PR 17 parent'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    return command_check(spec) if args.check else command_record(args, spec)


if __name__ == "__main__":
    sys.exit(main())
