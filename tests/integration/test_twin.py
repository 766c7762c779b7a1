"""The twin script's comparison and recipe, without running a step.

``benchmarks/twin.py`` runs a recipe of CLI steps against two source
trees and compares what they leave behind.  These tests load it by path
and check what it reports for hand-made side directories, and that its
recipe is well formed; no step is executed.
"""

import importlib.util
import json
from pathlib import Path

TWIN_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "twin.py"
_spec = importlib.util.spec_from_file_location("twin", TWIN_PATH)
twin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(twin)


def sides(tmp_path, files_a, files_b):
    roots = tmp_path / "a", tmp_path / "b"
    for root, files in zip(roots, (files_a, files_b)):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    return roots


def jsonl(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


def test_identical_sides_have_no_difference(tmp_path):
    files = {"r.json": '{"k": 1}\n', "t/c.jsonl": jsonl({"seq": 0}), "o.txt": "hi\n"}
    assert twin.compare_sides(*sides(tmp_path, files, files)) == (3, [])


def test_a_file_on_one_side_only(tmp_path):
    a, b = sides(tmp_path, {"o.txt": "1"}, {"o.txt": "1", "extra.txt": "2"})
    assert twin.compare_sides(a, b) == (1, ["extra.txt: only in b"])


def test_wal_difference_names_line_seq_and_kind(tmp_path):
    header = {"kind": "header", "seq": 0}
    a, b = sides(
        tmp_path,
        {"run.wal": jsonl(header, {"kind": "commit", "seq": 1})},
        {"run.wal": jsonl(header, {"kind": "verdict", "seq": 1})},
    )
    assert twin.compare_sides(a, b)[1] == [
        'run.wal: line 2 (seq=1 kind=commit vs seq=1 kind=verdict) '
        'at $.kind: "commit" vs "verdict"'
    ]


def test_missing_line_is_named(tmp_path):
    record = {"kind": "run_end", "seq": 4}
    a, b = sides(tmp_path, {"s.ledger": jsonl(record)}, {"s.ledger": ""})
    assert twin.compare_sides(a, b)[1] == ["s.ledger: line 1 (seq=4 kind=run_end vs no line)"]


def test_trace_difference_names_type_name_and_id(tmp_path):
    span = {"type": "span", "name": "task", "id": 7, "start": 1.0}
    a, b = sides(
        tmp_path, {"c.jsonl": jsonl(span)}, {"c.jsonl": jsonl({**span, "start": 1.5})}
    )
    assert twin.compare_sides(a, b)[1] == [
        "c.jsonl: line 1 (type=span name=task id=7 vs type=span name=task id=7) "
        "at $.start: 1.0 vs 1.5"
    ]


def test_json_difference_names_the_key_path(tmp_path):
    report = {"cells": [{"seed": 1, "latency": [2.5, 3.0]}]}
    moved = {"cells": [{"seed": 1, "latency": [2.5, 3.25]}]}
    extra = {"cells": [{"seed": 1, "latency": [2.5, 3.0], "reruns": 1}]}
    a, b = sides(
        tmp_path,
        {"r.json": json.dumps(report), "s.json": json.dumps(report)},
        {"r.json": json.dumps(moved), "s.json": json.dumps(extra)},
    )
    assert twin.compare_sides(a, b)[1] == [
        "r.json: $.cells[0].latency[1]: 3.0 vs 3.25",
        's.json: $.cells[0].reruns: "<absent>" vs 1',
    ]


def test_other_files_name_the_byte_offset(tmp_path):
    a, b = sides(
        tmp_path,
        {"o.txt": "assured=True\n", "p.txt": "abc"},
        {"o.txt": "assured=False\n", "p.txt": "abcd"},
    )
    assert twin.compare_sides(a, b)[1] == ["o.txt: byte 8", "p.txt: byte 3"]


def test_mismatched_exit_code_is_reported():
    runs = [(code, "") for code, _command in twin.RECIPE]
    assert twin.step_problems(runs, runs) == []
    broken = list(runs)
    broken[0] = (2, "Traceback\nValueError: boom\n")
    assert twin.step_problems(runs, broken) == [
        f"exit a=0 b=2, declared 0: {twin.RECIPE[0][1]}",
        "  b: Traceback",
        "  b: ValueError: boom",
    ]


def test_first_seq_reads_the_reference_wal(tmp_path):
    wal = tmp_path / "ref.wal"
    kinds = ("header", "digest", "checkpoint", "verdict", "checkpoint")
    wal.write_text(jsonl(*({"kind": kind, "seq": seq} for seq, kind in enumerate(kinds))))
    assert twin.first_seq(wal, "checkpoint") == 2


def test_recipe_is_well_formed():
    """Every step declares its exit code; a killed step is exactly one
    that arms the kill seam; a kill seq and every in-side pair name files
    an earlier step writes."""
    written = set(twin.GENERATED) | set(twin.INPUTS)
    for step in twin.RECIPE:
        code, command = step
        assert type(code) is int and code in (0, 1, twin.KILLED), step
        assert (code == twin.KILLED) == command.startswith(twin.KILL + "="), step
        for _kind, wal in twin.FIRST_SEQ.findall(command):
            assert wal in written, f"{command}: no earlier step writes {wal}"
        written |= set(command.replace(" > ", " ").split())
    for reference, other in twin.PAIRS:
        assert reference != other
        assert {reference, other} <= written, (reference, other)
