"""Fail closed: truncated and garbled operator inputs raise a typed error.

Three inputs come from outside the program besides scripts and WALs:
telemetry traces (``read_jsonl_lenient``), alert-rules files
(``slo.parse_rules`` / ``load_rules``) and tenant traces
(``tenants.parse_trace`` / ``trace_problems``).  Each is cut at every
byte and, under Hypothesis (derandomised, so tier-1 is repeatable),
spliced with JSON syntax and bytes that are not UTF-8, and has values
swapped for values of other types.  A reader may only return what it
documents or raise a ``ReproError``.  The one documented lenient
recovery is the trace reader's: a cut-off final line is dropped with a
warning, so every byte prefix of a trace reads back.  The file inputs
of ``repro run`` and ``repro explain`` (the script and its CSVs) fail
with one line naming the file and exit 2, before any job runs; so do
a script that does not parse and a LOAD path with no ``--input``.
The write-ahead logs (journal and ledger), garbled the same way,
reopen or raise their log's error, and a reopen writes to the file
only to cut a valid log's torn tail.
"""

import copy
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.common.records import records_from_rows
from repro.core import journal as wal
from repro.service.ledger import MultiplexedLedger
from repro.service.tenants import SETTINGS, parse_trace, trace_problems
from repro.telemetry import Telemetry
from repro.telemetry.export import read_jsonl_lenient
from repro.telemetry.slo import AlertRule, load_rules, parse_rules

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
RULES = (EXAMPLES / "alerts.json").read_bytes()
TENANTS = (EXAMPLES / "tenants.json").read_bytes()


def small_trace() -> bytes:
    telemetry = Telemetry.recording()
    with telemetry.tracer.span("run", attrs={"script_id": "s1", "note": "é²"}):
        telemetry.tracer.event("verify.timeout", sid="s1")
        telemetry.metrics.gauge("suspicion_suspects").set(1.0)
    telemetry.finalize()
    return "".join(
        json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        for record in telemetry.export_records()
    ).encode()


TRACE = small_trace()

FRAGMENTS = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"\n", b" ", b"null", b"true",
    b"-1", b"0", b"1e999", b"NaN", b"[]", b"{}", b'"x"', b"\xff", b"\xc3",
    b"\x00",
]
VALUES = [None, True, -1, 0, 2.5, 1e999, float("nan"), "x", "", [], {}, [1], {"a": 1}]

edits = st.lists(
    st.tuples(
        st.floats(0, 1),
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(FRAGMENTS),
    ),
    min_size=1,
    max_size=4,
)
swaps = st.lists(
    st.tuples(st.floats(0, 1), st.sampled_from(VALUES)), min_size=1, max_size=3
)


def garble(data: bytes, edits) -> bytes:
    for where, kind, fragment in edits:
        at = int(where * len(data))
        if kind == "insert":
            data = data[:at] + fragment + data[at:]
        elif kind == "replace":
            data = data[:at] + fragment + data[at + len(fragment):]
        else:
            data = data[:at] + data[at + len(fragment):]
    return data


def slots(node):
    """Every (container, key) in a parsed JSON document, in order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from slots(child)


def swap(data: bytes, swaps) -> object:
    """The document parsed, with values put where others were."""
    document = json.loads(data)
    for where, value in swaps:
        found = list(slots(document))
        container, key = found[int(where * (len(found) - 1))]
        container[key] = copy.deepcopy(value)
    return document


def typed_or_returns(call, *args):
    try:
        return call(*args)
    except ReproError:
        return None


# -- telemetry traces --------------------------------------------------------


def read_trace(tmp_path, data: bytes):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    return read_jsonl_lenient(str(path))


def test_every_prefix_of_a_trace_reads_back(tmp_path):
    lines = TRACE.splitlines()
    for cut in range(len(TRACE) + 1):
        prefix = TRACE[:cut]
        records, warnings = read_trace(tmp_path, prefix)
        assert records == [json.loads(line) for line in lines[: len(records)]]
        torn = prefix.splitlines()[len(records):]
        assert len(torn) <= 1 and (torn == []) == (not any(
            "truncated" in warning for warning in warnings
        ))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edits=edits)
def test_a_garbled_trace_fails_closed(tmp_path_factory, edits):
    tmp_path = tmp_path_factory.mktemp("trace")
    read = typed_or_returns(read_trace, tmp_path, garble(TRACE, edits))
    if read is not None:
        assert all(isinstance(record, dict) for record in read[0])


def run_after(tmp_path, prior: bytes) -> int:
    """``repro run --schedule-from-trace`` of a one-job script, with
    ``prior`` as its prior trace."""
    for name, data in (
        ("job.pig", b"A = LOAD 'in' AS (k:int, v:int);\nSTORE A INTO 'out';\n"),
        ("in.csv", b"1,2\n"),
        ("prior.jsonl", prior),
    ):
        (tmp_path / name).write_bytes(data)
    return main([
        "run", str(tmp_path / "job.pig"), "--input", f"in={tmp_path / 'in.csv'}",
        "--schedule-from-trace", str(tmp_path / "prior.jsonl"),
    ])


def test_a_prior_trace_fails_closed(tmp_path, capsys):
    """``repro run --schedule-from-trace`` refuses a prior trace with a
    line that is JSON but not an object, naming the file, and drops a
    torn final line with a warning, as every trace reader drops it."""
    with pytest.raises(SystemExit, match="prior.jsonl: .* not an object"):
        run_after(tmp_path, TRACE + b"[1, 2]\n")
    torn = TRACE + TRACE.splitlines(keepends=True)[0][:20]
    assert run_after(tmp_path, torn) == 0
    assert "prior.jsonl: " in capsys.readouterr().err


# -- alert rules -------------------------------------------------------------


def load(tmp_path, data: bytes):
    path = tmp_path / "rules.json"
    path.write_bytes(data)
    return load_rules(str(path))


def rules_or_typed_error(call, *args):
    rules = typed_or_returns(call, *args)
    assert rules is None or all(isinstance(rule, AlertRule) for rule in rules)


def test_every_prefix_of_a_rules_file_fails_closed(tmp_path):
    for cut in range(len(RULES) + 1):
        rules_or_typed_error(load, tmp_path, RULES[:cut])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edits=edits, swaps=swaps)
def test_a_garbled_rules_file_fails_closed(tmp_path_factory, edits, swaps):
    rules_or_typed_error(load, tmp_path_factory.mktemp("rules"), garble(RULES, edits))
    rules_or_typed_error(parse_rules, swap(RULES, swaps))


# -- tenant traces -----------------------------------------------------------


def parses_or_fails_closed(text: str) -> None:
    typed_or_returns(parse_trace, text, "fuzzed.json")


def test_every_prefix_of_a_tenant_trace_fails_closed():
    text = TENANTS.decode()
    for cut in range(len(text) + 1):
        parses_or_fails_closed(text[:cut])


#: The deployment slots of a tenant trace, (container, key) from the
#: document root, and the values put there: those of ``VALUES`` plus
#: numbers in and out of each setting's range.
DEPLOYMENT = [
    *((section, key) for section, keys in SETTINGS.items() for key in keys),
    ("faults", "node"),
    ("faults", "params"),
]
deployments = st.dictionaries(
    st.sampled_from(DEPLOYMENT),
    st.sampled_from([*VALUES, 1, 3, 99, 0.5]),
    min_size=1,
    max_size=3,
)


def deploy(data: bytes, overrides: dict) -> dict:
    """The document parsed, with deployment slots set."""
    document = json.loads(data)
    for (section, key), value in overrides.items():
        container = document["faults"][0] if section == "faults" else document[section]
        container[key] = copy.deepcopy(value)
    return document


def lint_agrees_with_serve(document) -> None:
    """PLAN008 (``trace_problems``) reports a problem exactly when
    ``repro serve`` (``parse_trace``) refuses the trace."""
    problems = trace_problems(document)
    assert all(isinstance(problem, str) for problem in problems)
    parsed = typed_or_returns(parse_trace, json.dumps(document), "fuzzed.json")
    assert (problems == []) == (parsed is not None), problems


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edits=edits, swaps=swaps, overrides=deployments)
def test_a_garbled_tenant_trace_fails_closed(edits, swaps, overrides):
    parses_or_fails_closed(garble(TENANTS, edits).decode(errors="replace"))
    lint_agrees_with_serve(swap(TENANTS, swaps))
    lint_agrees_with_serve(deploy(TENANTS, overrides))


# -- write-ahead logs --------------------------------------------------------


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A small valid journal and ledger, as bytes, by log class."""
    root = tmp_path_factory.mktemp("logs")
    journal = wal.Journal.create(
        str(root / "run.wal"), SystemConfig(), "A = LOAD 'in' AS (k:int);\n",
        {"in": records_from_rows([(1,), (2,)])}, block_bytes=256,
    )
    journal.append(wal.ANALYZER, suspects=["node_0001"], cleared=[])
    journal.append(wal.EVICTION, node="node_0001", suspicion=0.5, jobs=3)
    journal.close()
    ledger = MultiplexedLedger.create(str(root / "svc.ledger"), TENANTS.decode())
    ledger.append(wal.ADMIT, tenant="a", workload="w", index=0, t=0.0, queued_for=0.0)
    ledger.close()
    return {
        wal.Journal: (root / "run.wal").read_bytes(),
        MultiplexedLedger: (root / "svc.ledger").read_bytes(),
    }


@settings(derandomize=True, max_examples=100, deadline=None)
@given(edits=edits)
def test_a_garbled_log_reopens_or_is_left_as_it_was(logs, tmp_path_factory, edits):
    """Garbled anywhere, or followed by a garbled copy of its last
    record without the newline, as a crash mid-append leaves a log."""
    root = tmp_path_factory.mktemp("wal")
    for (log_class, valid), torn in itertools.product(logs.items(), (False, True)):
        path = root / log_class.noun
        if torn:
            data = valid + garble(valid.splitlines()[-1], edits)
        else:
            data = garble(valid, edits)
        path.write_bytes(data)
        try:
            log, records = log_class.reopen(str(path))
        except log_class.error:
            assert path.read_bytes() == data
        else:
            log.close()
            assert records[0]["kind"] == wal.HEADER
            assert path.read_bytes() == data[: data.rfind(b"\n") + 1]


NOT_A_LOG = b"this is a text file\nwithout a trailing newline"


@pytest.mark.parametrize("command", ["resume", "serve"])
@pytest.mark.parametrize(
    "data, says",
    [(NOT_A_LOG, "corrupt at record 0"), (b"\xff\xfe\n", "is not UTF-8 text")],
    ids=["text-without-final-newline", "not-utf8"],
)
def test_resume_refuses_a_file_that_is_not_a_log_and_leaves_it(
    tmp_path, capsys, command, data, says
):
    """``repro resume`` and ``repro serve --resume`` print one line and
    exit 2 on a file that is not a log, and do not touch it: not even
    the text after its last newline, which a log's reopen would cut."""
    path = tmp_path / "notes.txt"
    path.write_bytes(data)
    argv = ["resume", str(path)]
    if command == "serve":
        argv = ["serve", "--resume", "--ledger", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"repro {command}: ") and says in line
    assert path.read_bytes() == data


# -- repro run / explain file inputs -----------------------------------------

LOAD = b"A = LOAD 'in' AS (a:int, b:int);\n"
PROJECT = LOAD + b"B = FOREACH A GENERATE b;\nSTORE B INTO 'out';\n"
STORE_ALL = LOAD + b"STORE A INTO 'out';\n"
TOO_NARROW = "line 2 has 1 field(s) but its LOAD schema has 2"


@pytest.mark.parametrize("command", ["run", "explain"])
@pytest.mark.parametrize(
    "script, csv, names, says",
    [
        (PROJECT, b"1,2\n3\n", "in.csv", TOO_NARROW),
        (STORE_ALL, b"1,2\n3\n", "in.csv", TOO_NARROW),
        (STORE_ALL, b"1,2\n\n1,2,3\n", "in.csv",
         "line 3 has 3 field(s) but its LOAD schema has 2"),
        (PROJECT, None, "in.csv", "No such file"),
        (None, b"1,2\n", "job.pig", "No such file"),
        (PROJECT, b"1,2\n\xff,3\n", "in.csv", "not UTF-8"),
        (PROJECT + b"-- \xe9\n", b"1,2\n", "job.pig", "not UTF-8"),
        (LOAD + b"B = FOREACH A GENERATE ;\n", b"1,2\n", "job.pig", "(line 2, column"),
        (PROJECT + b"C = LOAD 'twitter/followers' AS (u:int);\nSTORE C INTO 'c';\n",
         b"1,2\n", "job.pig", "LOAD 'twitter/followers' has no --input"),
    ],
    ids=[
        "narrow-row", "narrow-row-stored", "wide-row-stored", "missing-csv",
        "missing-script", "csv-not-utf8", "script-not-utf8", "syntax-error",
        "load-without-input",
    ],
)
def test_run_and_explain_fail_closed_on_file_inputs(
    tmp_path, capsys, command, script, csv, names, says
):
    given = {"job.pig": script, "in.csv": csv}
    for name, data in given.items():
        if data is not None:
            (tmp_path / name).write_bytes(data)
    argv = [command, str(tmp_path / "job.pig"), "--input", f"in={tmp_path / 'in.csv'}"]
    if command == "run":
        argv += ["--journal", str(tmp_path / "run.wal")]
        argv += ["--trace", str(tmp_path / "run.jsonl")]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"repro {command}: ") and names in line and says in line
    # Before any job runs: no journal or trace is even opened.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name, data in given.items() if data is not None
    )
