"""One trace model: every reader indexes a trace once.

``TraceModel.of`` is the only loop over a record list in the analysis,
alert, profile, causal and report modules.  These tests hand the public
entry points a list that counts how often it is iterated, and check
that the HTML report is laid out from the report's sections rather than
recovered from its text.
"""

import html
import re

import pytest

from repro.chaos.runner import run_one
from repro.chaos.scenarios import SCENARIOS
from repro.telemetry.analysis import TraceModel, summarize
from repro.telemetry.causal import CausalGraph
from repro.telemetry.report import build_report, render_html, render_text
from repro.telemetry.slo import DEFAULT_RULES, evaluate
from repro.telemetry.straggler import build_profile

SECTION_TITLES = (
    "1. critical path",
    "2. node timeline (busy/idle)",
    "3. verification tail",
    "4. suspicion series",
    "5. event log",
    "6. network",
    "7. slo alerts",
    "8. rerun economics",
)


class CountingList(list):
    """A record list that counts the passes made over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.fixture(scope="module")
def quarantine_records():
    """The ``obs-quarantine`` chaos cell: assured runs with a quarantine,
    a suspicion series and firing alerts."""
    ctx, violations = run_one(SCENARIOS["obs-quarantine"], seed=1)
    assert violations == []
    return ctx.records


@pytest.mark.parametrize(
    "read",
    [
        build_report,
        lambda records: evaluate(records, DEFAULT_RULES),
        summarize,
        build_profile,
        CausalGraph,
    ],
    ids=["build_report", "evaluate", "summarize", "build_profile", "causal"],
)
def test_each_reader_iterates_the_records_once(quarantine_records, read):
    records = CountingList(quarantine_records)
    read(records)
    assert records.iterations == 1


def test_a_model_is_read_as_it_is(quarantine_records):
    records = CountingList(quarantine_records)
    trace = TraceModel.of(records)
    assert TraceModel.of(trace) is trace
    report = build_report(trace)
    assert report.alert_firings == evaluate(trace, DEFAULT_RULES)
    assert records.iterations == 1
    assert render_text(report) == render_text(build_report(quarantine_records))


def test_model_groups_keep_stream_order(quarantine_records):
    trace = TraceModel.of(quarantine_records)
    events = [r for r in quarantine_records if r["type"] == "event"]
    assert trace.events == events
    for name, group in trace.events_by_name.items():
        assert group == [r for r in events if r["name"] == name]
    tasks = [r for r in quarantine_records if r["type"] == "span" and r["name"] == "task"]
    assert trace.spans["task"] == tasks
    assert trace.span_count == sum(r["type"] == "span" for r in quarantine_records)


def test_html_headings_are_the_report_sections(quarantine_records):
    report = build_report(quarantine_records, source="obs-quarantine-s1.jsonl")
    assert report.alert_firings  # the trace has tables worth titling
    page = render_html(report)
    text = render_text(report)

    headings = re.findall(r"<h2>(.*?)</h2>", page)
    assert headings == list(SECTION_TITLES)

    # Each section's <pre> holds the section's text, table titles too.
    blocks = re.findall(r"</h2>\n(?:<div class=\"legend\">.*?</svg>\n)?<pre>(.*?)</pre>", page, re.S)
    assert len(blocks) == len(SECTION_TITLES)
    for title, following, block in zip(
        SECTION_TITLES, SECTION_TITLES[1:] + (None,), blocks
    ):
        start = text.index(f"\n{title}\n{'=' * len(title)}\n") + 2 * len(title) + 3
        end = text.index(f"\n{following}\n") if following else len(text)
        assert html.unescape(block) == text[start:end].strip("\n")
    for table_title in ("alert firings", "event counts", "per-run reuse"):
        assert table_title in page
        assert f"<h2>{table_title}</h2>" not in page
