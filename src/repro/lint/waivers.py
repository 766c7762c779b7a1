"""Inline waivers: ``# lint: allow DET002 <reason>``.

A waiver written on the same line as a finding suppresses that rule on
that line; a waiver on its own line covers the line immediately below
(so statements too long to share a line stay waivable).  Waivers require
a reason and must actually suppress something — a reasonless or unused
waiver is itself reported (WAIVE001 / WAIVE002), keeping the exception
list honest as code moves around.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic

#: Matches the comment body of a waiver: marker, rule list, then reason.
WAIVER_RE = re.compile(
    r"#\s*lint:\s*allow\s+"
    r"(?P<rules>[A-Z][A-Z0-9]*\d(?:\s*,\s*[A-Z][A-Z0-9]*\d)*)"
    r"(?:\s+(?P<reason>\S.*?))?\s*$"
)

#: Cheap pre-filter: any comment mentioning the waiver marker.
MARKER_RE = re.compile(r"#\s*lint:")


@dataclass
class Waiver:
    """One parsed waiver comment."""

    rules: tuple[str, ...]
    line: int  # line the comment is written on
    target_line: int  # line the waiver applies to
    reason: str
    used: bool = field(default=False, compare=False)

    def covers(self, rule: str, line: int) -> bool:
        return rule in self.rules and line == self.target_line


def collect_waivers(source: str) -> tuple[list[Waiver], list[tuple[int, str]]]:
    """Extract waivers from ``source``.

    Returns ``(waivers, malformed)`` where ``malformed`` lists
    ``(line, comment_text)`` pairs for comments that carry the
    ``# lint:`` marker but do not parse as a waiver.
    """
    waivers: list[Waiver] = []
    malformed: list[tuple[int, str]] = []
    if not MARKER_RE.search(source):
        return waivers, malformed  # no marker anywhere: skip tokenizing
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return waivers, malformed  # unparseable source is reported elsewhere
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if not MARKER_RE.search(token.string):
            continue
        match = WAIVER_RE.search(token.string)
        row, col = token.start
        if match is None:
            malformed.append((row, token.string.strip()))
            continue
        standalone = token.line[:col].strip() == ""
        rules = tuple(r.strip() for r in match.group("rules").split(","))
        waivers.append(
            Waiver(
                rules=rules,
                line=row,
                target_line=row + 1 if standalone else row,
                reason=(match.group("reason") or "").strip(),
            )
        )
    return waivers, malformed


def apply_waivers(
    diagnostics: list[Diagnostic],
    waivers: list[Waiver],
    malformed: list[tuple[int, str]],
    path: str,
) -> list[Diagnostic]:
    """Suppress waived diagnostics and report waiver misuse.

    Returns the full diagnostic list: findings, waived findings (kept,
    flagged ``waived=True``), plus WAIVE001 (reasonless waiver),
    WAIVE002 (waiver that suppressed nothing) and WAIVE003 (malformed
    waiver comment) findings.
    """
    out: list[Diagnostic] = []
    for diagnostic in diagnostics:
        waiver = next(
            (w for w in waivers if w.covers(diagnostic.rule, diagnostic.line)),
            None,
        )
        if waiver is not None:
            waiver.used = True
            out.append(diagnostic.waive(waiver.reason or "no reason given"))
        else:
            out.append(diagnostic)
    for waiver in waivers:
        if not waiver.reason:
            out.append(
                Diagnostic(
                    rule="WAIVE001",
                    path=path,
                    line=waiver.line,
                    message=(
                        "waiver for "
                        + ", ".join(waiver.rules)
                        + " has no reason; write `# lint: allow "
                        + waiver.rules[0]
                        + " <reason>`"
                    ),
                )
            )
        if not waiver.used:
            out.append(
                Diagnostic(
                    rule="WAIVE002",
                    path=path,
                    line=waiver.line,
                    message=(
                        "unused waiver for "
                        + ", ".join(waiver.rules)
                        + "; nothing on line "
                        + str(waiver.target_line)
                        + " triggers it"
                    ),
                )
            )
    for line, text in malformed:
        out.append(
            Diagnostic(
                rule="WAIVE003",
                path=path,
                line=line,
                message=f"malformed waiver comment: {text!r}",
            )
        )
    return out
