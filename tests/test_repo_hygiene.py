"""Standing rules of ROADMAP.md that a test can hold."""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent

#: CHANGES.md entries are one bullet per PR: ``- PR 8: ...`` / ``- ISSUE 22: ...``.
ENTRY = re.compile(r"^- (?:PR|ISSUE) (\d+)\b", re.MULTILINE)


def _entries() -> dict[int, str]:
    text = (ROOT / "CHANGES.md").read_text()
    starts = list(ENTRY.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return {
        int(match.group(1)): text[match.start() : end].rstrip("\n")
        for match, end in zip(starts, ends)
    }


def test_changes_entries_are_short_from_pr_22_on():
    """What changed, what moved, what was run: <= 15 lines and <= 1,500
    characters.  The narrative belongs in the PR, the design in DESIGN.md
    (the entries before PR 22 are ~5 KB single lines and stay as they are)."""
    entries = _entries()
    assert 22 in entries, "every PR appends its entry"
    for number, entry in entries.items():
        if number >= 22:
            assert len(entry) <= 1_500, f"entry {number}: {len(entry)} characters"
            assert entry.count("\n") < 15, f"entry {number}: over 15 lines"
