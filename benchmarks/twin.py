"""Twin: run one artifact recipe against two source trees and compare.

    python3 benchmarks/twin.py TREE_A TREE_B OUT

Side ``a`` runs every step of ``RECIPE`` against ``TREE_A/src`` in
``OUT/a`` under ``PYTHONHASHSEED=1``; side ``b`` runs the same steps
against ``TREE_B/src`` in ``OUT/b`` under ``PYTHONHASHSEED=2``.  Inputs
are copied or generated into each side's directory and named by relative
path, so no artifact names its tree.  The sides pass when every file of
``a`` equals the same file of ``b``, every step exits with the code it
declares on both sides, and within each side both files of every pair in
``PAIRS`` are equal.  Each mismatch is printed with the first record that
differs (a JSONL line with its ``seq``/``kind`` or ``type``/``name``/``id``,
the first differing key path of a JSON file, the byte offset of any other
file) and the exit code is 1.

CI runs ``python3 benchmarks/twin.py . . twin-out``: one tree, two hash
seeds.  A change that must move no byte runs the same command on
``git archive`` exports of its parent and of itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

KILL = "REPRO_JOURNAL_KILL_AT"
#: Exit code of a step the ``REPRO_JOURNAL_KILL_AT`` seam kills.
KILLED = -signal.SIGKILL
#: ``{KIND@WAL}`` in a step: the ``seq`` of the first KIND record of WAL.
FIRST_SEQ = re.compile(r"\{(\w+)@([\w.-]+)\}")
#: Copied from the tree into each side directory, under the same path.
INPUTS = (
    "examples/tenants.json",
    "examples/follower_analysis.pig",
    "examples/alerts.json",
    "benchmarks/baselines",
    "benchmarks/results",
)
GROUP_COUNT = """A = LOAD 'in' AS (k:int, v:int);
G = GROUP A BY k;
C = FOREACH G GENERATE group AS k, COUNT(A) AS n;
STORE C INTO 'out';
"""
TWO_GROUPS = """A = LOAD 'in' AS (k:int, v:int);
B = FILTER A BY v IS NOT NULL;
G = GROUP B BY k;
C = FOREACH G GENERATE group AS k, COUNT(B) AS n;
H = GROUP C BY n;
D = FOREACH H GENERATE group AS n, COUNT(C) AS m;
STORE D INTO 'out';
"""


def pairs_csv(seed: int, rows: int, keys: int, values: int) -> str:
    """``rows`` lines ``key,value`` drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return "".join(f"{rng.randrange(keys)},{rng.randrange(values)}\n" for _ in range(rows))


#: A tenant trace whose deployment masks no fault (r = 1 at f = 1):
#: ``repro lint`` must report it and ``repro serve`` must refuse it.
UNMASKED = json.dumps({
    "name": "unmasked",
    "bft": {"f": 1, "replication": 1},
    "tenants": [{"tenant": "solo", "jobs": [{"workload": "select", "rows": 8}]}],
}, indent=2) + "\n"

#: A tenant trace with a misspelt ``bft`` key: ``repro lint`` must
#: report it and ``repro serve`` must refuse it.
TYPO = json.dumps({
    "name": "typo",
    "bft": {"f": 1, "replicas": 1},
    "tenants": [{"tenant": "solo", "jobs": [{"workload": "select", "rows": 8}]}],
}, indent=2) + "\n"
#: A one-record journal whose header config has no nodes: ``repro
#: resume`` must refuse it with one line and exit 2.
BAD_HEADER = json.dumps({
    "kind": "header", "seq": 0, "schema": "repro.journal/v1", "seed": 1,
    "script": GROUP_COUNT,
    "script_sha256": hashlib.sha256(GROUP_COUNT.encode()).hexdigest(),
    "config": {"cluster": {"num_nodes": 0}, "cost": {}, "bft": {}, "seed": 1},
    "block_bytes": 1 << 20, "inputs": {},
}, sort_keys=True) + "\n"

#: Written into each side directory before the first step.
GENERATED = {
    "job.pig": GROUP_COUNT,
    "in.csv": pairs_csv(42, 200, 6, 100),
    "ckpt.pig": TWO_GROUPS,
    "ckpt-in.csv": pairs_csv(11, 200, 6, 100),
    "edges.csv": pairs_csv(7, 2000, 50, 500),
    "unmasked.json": UNMASKED,
    "typo.json": TYPO,
    "bad-header.wal": BAD_HEADER,
}

# A step is its declared exit code and a command line run in the side
# directory.  Leading NAME=VALUE words set environment variables, a final
# "> FILE" writes stdout to FILE, ``repro`` is ``python -m repro`` and
# ``examples/NAME.py`` is that script of the side's tree.
CHAOS = "repro chaos run --campaign"
SERVE = "repro serve examples/tenants.json"
JOB = "repro run job.pig --input in=in.csv --nodes 8"
CKPT = "repro run ckpt.pig --input in=ckpt-in.csv --nodes 8"
CKPT_ON = f"{CKPT} --checkpoints --checkpoint-density 1.0 -n 0"
FOLLOW = "repro run examples/follower_analysis.pig --input twitter/followers=edges.csv"
#: A traced chaos cell with a quarantine, a suspicion series and two
#: firing alerts: the read side's richest input.
OBS = "obs/obs-quarantine"
GEO = "examples/geo_migration.py"
EXAMPLES = (
    "airline_fault_tolerance", "fault_isolation_demo", "plan_optimizer",
    "replication_guarantees", "twitter_analysis", "weather_bft_frontend",
)
RECIPE = (
    (0, f"{CHAOS} smoke --seeds 2 --report smoke.json --trace-dir smoke > smoke.txt"),
    (0, f"{CHAOS} obs --seeds 2 --report obs.json --trace-dir obs > obs.txt"),
    (0, f"{CHAOS} ckpt --seeds 2 --report ckpt.json --trace-dir ckpt > ckpt.txt"),
    (0, f"{CHAOS} region-loss --seeds 2 --report region-loss.json"
        " --trace-dir region-loss > region-loss.txt"),
    (0, f"{CHAOS} default --report default.json > default.txt"),
    (0, f"{CHAOS} durability --seeds 1 --report durability.json > durability.txt"),
    (0, f"{CHAOS} geo --seeds 1 --report geo.json > geo.txt"),
    (0, f"{CHAOS} service --seeds 5 --report service.json"
        " --trace-dir service > service.txt"),
    (1, f"{CHAOS} weakened-safe1 --seeds 1 --report weakened.json > weakened.txt"),
    (0, "repro lint --service-trace examples/tenants.json > tenants-lint.txt"),
    (1, "repro lint --service-trace unmasked.json > unmasked-lint.txt"),
    (2, "repro serve unmasked.json > unmasked-serve.txt"),
    (1, "repro lint --service-trace typo.json > typo-lint.txt"),
    (2, "repro serve typo.json > typo-serve.txt"),
    (0, f"{SERVE} --ledger serve.ledger --out serve.json > serve.txt"),
    (0, f"{SERVE} --slo --ledger slo.ledger > slo.txt"),
    (KILLED, f"{KILL}=30 {SERVE} --ledger serve-kill.ledger"),
    (0, "repro serve --resume --ledger serve-kill.ledger > serve-resume.txt"),
    (0, f"{JOB} --journal job.wal --outputs-json job.json > job.txt"),
    (KILLED, f"{KILL}=5 {JOB} --journal job-kill.wal"),
    (0, "repro resume job-kill.wal --outputs-json job-kill.json > job-resume.txt"),
    (0, "repro resume job-kill.wal --outputs-json job-kill2.json > job-resume2.txt"),
    (2, "repro resume bad-header.wal > bad-header.txt"),
    (0, f"{CKPT_ON} --journal cp.wal --outputs-json cp.json > cp.txt"),
    (0, f"{CKPT} --outputs-json cp-free.json > cp-free.txt"),
    (KILLED, f"{KILL}={{checkpoint@cp.wal}} {CKPT_ON} --journal cp-kill.wal"),
    (0, "repro resume cp-kill.wal --outputs-json cp-kill.json > cp-resume.txt"),
    (0, f"{FOLLOW} --trace causal.jsonl --causal --journal causal.wal"
        " --outputs-json causal.json > causal-run.txt"),
    (0, f"{FOLLOW} --journal untraced.wal --outputs-json untraced.json > untraced.txt"),
    (0, "repro trace causal.jsonl --causal --chrome-flow flow.json > causal.txt"),
    (0, "repro alerts causal.jsonl --format json > alerts.json"),
    (0, "repro alerts causal.jsonl --rules examples/alerts.json > alerts-rules.txt"),
    (0, f"{FOLLOW} --schedule-from-trace causal.jsonl --outputs-json sched.json > sched.txt"),
    (0, f"repro trace {OBS}-s1.jsonl > obs-trace.txt"),
    (0, f"repro trace --diff {OBS}-s1.jsonl {OBS}-s2.jsonl > obs-diff.txt"),
    (0, f"repro report {OBS}-s1.jsonl > obs-report.txt"),
    (0, f"repro report {OBS}-s1.jsonl --format html -o obs-report.html"),
    (0, f"{GEO} run geo.wal geo-run.json > geo-run.txt"),
    (KILLED, f"{KILL}={{reconfig@geo.wal}} {GEO} run geo-kill.wal"),
    (0, f"{GEO} resume geo-kill.wal geo-kill.json > geo-resume.txt"),
    (0, "repro bench --results-dir bench > bench.txt"),
    (0, "repro bench --smoke --results-dir bench-smoke > bench-smoke.txt"),
    (0, "examples/quickstart.py --trace quickstart.jsonl > quickstart.txt"),
    (0, "repro trace quickstart.jsonl > quickstart-trace.txt"),
    (0, "repro report quickstart.jsonl > report.txt"),
    (0, "repro report quickstart.jsonl --format html -o report.html"),
    *((0, f"examples/{name}.py > {name}.txt") for name in EXAMPLES),
)
#: The paper tables the full ``repro bench`` run writes; each must equal
#: its committed copy in ``benchmarks/results``.
TABLES = (
    "fig9", "fig10", "table3", "fig11", "fig12", "fig13", "fig14",
    "ablation_combiner", "ablation_marker", "ablation_optimizer", "ablation_speculation",
)
#: (reference, twin): files that must be equal within each side.
PAIRS = (
    ("serve.ledger", "serve-kill.ledger"),  # resumed = uninterrupted
    ("job.json", "job-kill.json"),
    ("job.json", "job-kill2.json"),  # a resumed journal is complete
    ("cp.json", "cp-kill.json"),
    ("geo-run.json", "geo-kill.json"),
    ("cp-free.json", "cp.json"),  # checkpointed = checkpoint-free
    ("untraced.wal", "causal.wal"),  # traced = untraced: latency, winners
    ("untraced.json", "causal.json"),
    ("serve.ledger", "slo.ledger"),  # ... and on a faulty, random service
    *((f"benchmarks/results/{name}.txt", f"bench/{name}.txt") for name in TABLES),
)
#: Suffixes of JSON-lines files: traces, WALs, ledgers.
JSONL = {".jsonl", ".wal", ".ledger"}
#: The fields that name a JSONL record, in the order they are printed.
NAMING = ("seq", "kind", "type", "name", "id")
ABSENT = "<absent>"


def first_seq(wal: Path, kind: str) -> int:
    """``seq`` of the first ``kind`` record of a WAL or ledger."""
    with open(wal) as handle:
        return next(r["seq"] for r in map(json.loads, handle) if r["kind"] == kind)


def run_step(command: str, tree: Path, side: Path, env: dict) -> tuple[int | None, str]:
    """Run one recipe step in ``side``: its exit code and stderr tail."""
    command, _, stdout = command.partition(" > ")
    try:
        command = FIRST_SEQ.sub(lambda m: str(first_seq(side / m[2], m[1])), command)
    except (OSError, ValueError, KeyError, StopIteration) as error:
        return None, f"no kill seq: {error!r}"
    words = shlex.split(command)
    env = dict(env)
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    program = ["-m", "repro"] if words[0] == "repro" else [str(tree / words[0])]
    with open(side / stdout if stdout else os.devnull, "w") as out:
        done = subprocess.run(
            [sys.executable, *program, *words[1:]],
            cwd=side, env=env, stdout=out, stderr=subprocess.PIPE, text=True,
        )
    return done.returncode, done.stderr[-400:]


def run_side(tree: Path, side: Path, hash_seed: str) -> list[tuple[int | None, str]]:
    """Every step of the recipe against ``tree/src``, in a fresh ``side``."""
    shutil.rmtree(side, ignore_errors=True)
    for name in INPUTS:
        (side / name).parent.mkdir(parents=True, exist_ok=True)
        copy = shutil.copytree if (tree / name).is_dir() else shutil.copyfile
        copy(tree / name, side / name)
    for name, text in GENERATED.items():
        (side / name).write_text(text)
    env = {name: value for name, value in os.environ.items() if name != KILL}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    return [run_step(command, tree, side, env) for _code, command in RECIPE]


def describe(line: bytes | None) -> str:
    """A JSONL record by its naming fields."""
    try:
        record = json.loads(line)
    except (TypeError, ValueError):
        return "no line" if line is None else "not JSON"
    if not isinstance(record, dict):
        return "not an object"
    return " ".join(f"{key}={record[key]}" for key in NAMING if key in record) or "a record"


def key_path(x, y, path: str = "$") -> str | None:
    """The first key path at which two JSON values differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        members = ((f"{path}.{k}", x.get(k, ABSENT), y.get(k, ABSENT)) for k in {**x, **y})
    elif isinstance(x, list) and isinstance(y, list):
        pairs = enumerate(zip_longest(x, y, fillvalue=ABSENT))
        members = ((f"{path}[{i}]", u, v) for i, (u, v) in pairs)
    else:
        same = type(x) is type(y) and x == y
        return None if same else f"{path}: {json.dumps(x)[:80]} vs {json.dumps(y)[:80]}"
    return next(filter(None, (key_path(u, v, p) for p, u, v in members)), None)


def json_path(x: bytes | None, y: bytes | None) -> str | None:
    """:func:`key_path` of two JSON documents; ``None`` unless both parse."""
    try:
        return key_path(json.loads(x), json.loads(y))
    except (TypeError, ValueError):
        return None


def first_difference(path_x: Path, path_y: Path) -> str | None:
    """Where two files first differ; ``None`` when they are byte-identical."""
    try:
        x, y = path_x.read_bytes(), path_y.read_bytes()
    except FileNotFoundError as error:
        return f"no file {Path(error.filename).name}"
    if x == y:
        return None
    if path_x.suffix in JSONL:
        for number, (u, v) in enumerate(zip_longest(x.splitlines(), y.splitlines()), 1):
            if u != v:
                where = json_path(u, v)
                line = f"line {number} ({describe(u)} vs {describe(v)})"
                return f"{line} at {where}" if where else line
    elif path_x.suffix == ".json" and (where := json_path(x, y)):
        return where
    offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    return f"byte {offset}"


def compare_sides(a: Path, b: Path) -> tuple[int, list[str]]:
    """How many files both sides hold, and one line per difference."""
    names = [{p.relative_to(s).as_posix() for p in s.rglob("*") if p.is_file()} for s in (a, b)]
    both = sorted(names[0] & names[1])
    problems = [f"{n}: only in {'a' if n in names[0] else 'b'}" for n in sorted(names[0] ^ names[1])]
    problems += [f"{n}: {found}" for n in both if (found := first_difference(a / n, b / n))]
    return len(both), problems


def step_problems(runs_a: list, runs_b: list) -> list[str]:
    """One line per step not exiting as declared on both sides, followed
    by the last lines of its stderr."""
    problems = []
    for (code, command), (got_a, err_a), (got_b, err_b) in zip(RECIPE, runs_a, runs_b):
        if got_a == got_b == code:
            continue
        problems.append(f"exit a={got_a} b={got_b}, declared {code}: {command}")
        for side, err in (("a", err_a), ("b", err_b)):
            problems += [f"  {side}: {line}" for line in err.splitlines()[-3:]]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv[1:3]]
    sides = [Path(argv[3]).resolve() / name for name in "ab"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(run_side, trees, sides, ("1", "2")))
    compared, problems = compare_sides(*sides)
    problems = step_problems(*runs) + problems + [
        f"{side.name}: {twin} vs {reference}: {found}"
        for side in sides
        for reference, twin in PAIRS
        if (found := first_difference(side / twin, side / reference))
    ]
    codes = Counter(code for code, _command in RECIPE)
    print(f"twin: a = {argv[1]}/src under PYTHONHASHSEED=1, b = {argv[2]}/src under =2")
    print(f"steps: {len(RECIPE)} per side, declared exit codes "
          + ", ".join(f"{count} x {code}" for code, count in sorted(codes.items())))
    print(f"files: {compared} present in both sides")
    print(f"pairs: {len(PAIRS)} per side")
    for reference, twin in PAIRS:
        print(f"  {twin} = {reference}")
    for problem in problems:
        print("DIFF", problem)
    print("twin:", f"{len(problems)} differences" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
