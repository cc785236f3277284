"""Standing rules of ROADMAP.md that a test can hold."""

from __future__ import annotations

import ast
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


# --- reachability: what no query reaches leaves src/repro ----------------------

SRC = ROOT / "src" / "repro"

#: Packages whose public names must be reached (ROADMAP aim 2, item 10).
REACH_PACKAGES = (
    "engine", "storage", "compression", "cpusim", "iosim", "obs", "index", "design", "model",
)

#: Public names that no module of ``src/repro`` (their own included) and
#: nothing under ``benchmarks/`` refers to, each with the reason it stays.  The list
#: can only shrink: a name that gets a caller, or goes, must leave it.
UNREACHED = {
    "storage/faults.py:FaultPlan.schedule_transient_reads":
        "fault-injection API (README 'Integrity'): transient read errors for the retry path",
    "storage/faults.py:FaultPlan.schedule_bit_flip":
        "fault-injection API (README 'Integrity'): seeded bit flips for salvage scans",
    "storage/faults.py:FaultPlan.wrap_table":
        "fault-injection API (README 'Integrity'): installs a plan on a loaded table",
    "storage/write_store.py:WriteOptimizedStore.merge_into":
        "durable merge: the store-level door of the one merge transaction (README)",
    "storage/write_store.py:merge_into_directory":
        "durable merge: the on-disk door, versioned directories and a durable CURRENT flip",
    "storage/write_store.py:open_current":
        "durable merge: reopens the version CURRENT names after a crash",
    "storage/page.py:downgrade_page_v2":
        "format compatibility: produces the legacy v1 pages open_table still reads",
    "storage/delete_vector.py:DeleteVector.to_bytes":
        "format compatibility: the delete vector's paged, checksummed on-disk codec",
    "model/calibrate.py:scanner_params_from_measurement":
        "ROADMAP 7 fits the real clock's per-tuple costs through it",
    "index/scan.py:IndexScan":
        "waits on ROADMAP 10(b): a plan-time choice between index and scan",
    "index/access_path.py:index_scan_seconds_for_rids":
        "waits on ROADMAP 10(b): a plan-time choice between index and scan",
    "design/physical.py:LayoutAdvisor":
        "a Figure 1 advisor box (README 'repro.design', examples/physical_design.py)",
    "design/physical.py:LayoutAdvisor.recommend":
        "the layout advisor's one entry point (examples/physical_design.py)",
    "design/mv_advisor.py:MaterializedViewAdvisor":
        "a Figure 1 advisor box (README 'repro.design', examples/physical_design.py)",
    "model/speedup.py:crossover_projectivity":
        "the Section 5 model's crossover, which examples/ exercises",
    "design/mv_advisor.py:MaterializedViewAdvisor.affinity":
        "the attribute-affinity counts ([9] in the paper) the MV advisor's docstring names",
    "engine/query.py:ScanQuery.predicates_on":
        "query API: the predicates bound to one attribute, as an access-path choice reads them",
    "engine/executor.py:QueryResult.is_complete":
        "documented result API (README 'Integrity')",
    "obs/export.py:QueryProfile.save_chrome_trace":
        "documented profile API (README 'Observability')",
    "obs/export.py:QueryProfile.save_profile":
        "documented profile API: the flat profile beside save_chrome_trace",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referred(tree: ast.AST, re_exports: bool) -> set[str]:
    """Every name ``tree`` refers to: bare names, attributes and imports
    (imports only when ``re_exports`` count, i.e. outside an ``__init__``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and re_exports:
            names.update(alias.name for alias in node.names)
    return names


def _public(tree: ast.Module):
    """``(qualified name, name)`` of each public top-level function or
    class and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def unreached(src: pathlib.Path, benchmarks: pathlib.Path, allowed) -> tuple[list, list]:
    """``(orphans, stale)``: public names of ``REACH_PACKAGES`` that
    nothing refers to and ``allowed`` does not list, and the entries of
    ``allowed`` that are reached or gone.

    A name counts as reached when its own module, another module of
    ``src``, or any file under ``benchmarks`` refers to it by name; a
    package ``__init__`` re-exporting it does not count, and tests and
    examples are not looked at.
    """
    referred: dict[str, set[str]] = {}
    defined: list[tuple[str, str, str]] = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text())
        referred[module] = _referred(tree, path.name != "__init__.py")
        if module.split("/")[0] in REACH_PACKAGES:
            defined += [(module, qualified, name) for qualified, name in _public(tree)]
    outside = set()
    for path in benchmarks.rglob("*.py"):
        outside |= _referred(ast.parse(path.read_text()), True)
    for names in referred.values():
        outside |= names
    orphans = sorted(
        f"{module}:{qualified}"
        for module, qualified, name in defined
        if name not in outside
    )
    return (
        [orphan for orphan in orphans if orphan not in allowed],
        sorted(set(allowed) - set(orphans)),
    )


def test_every_public_name_is_reached():
    orphans, stale = unreached(SRC, ROOT / "benchmarks", UNREACHED)
    assert not orphans, (
        "nothing in src/repro or benchmarks/ refers to these: delete them, "
        f"or list each in UNREACHED with why it stays: {orphans}"
    )
    assert not stale, f"reached or gone: drop from UNREACHED: {stale}"


def test_every_allowlist_entry_has_a_reason():
    for entry, reason in UNREACHED.items():
        assert reason.strip() and "\n" not in reason, entry
        assert "test" not in reason.lower(), f"{entry}: tests do not count as a caller"


def test_reachability_reports_a_planted_orphan_and_a_stale_entry(tmp_path):
    src, benchmarks = tmp_path / "src" / "repro", tmp_path / "benchmarks"
    (src / "engine").mkdir(parents=True)
    benchmarks.mkdir()
    (src / "engine" / "__init__.py").write_text(
        "from repro.engine.scan import Planted, called, orphan, own_use\n"
    )
    (src / "engine" / "scan.py").write_text(
        "def called():\n    return own_use()\n\n\n"
        "def own_use():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "class Planted:\n"
        "    def benched(self):\n        return 3\n\n"
        "    def unused(self):\n        return 4\n\n"
        "    def _private(self):\n        return 5\n"
    )
    (src / "database.py").write_text("from repro.engine.scan import called\n")
    (benchmarks / "bench.py").write_text("Planted().benched()\n")
    orphans, stale = unreached(src, benchmarks, {})
    assert orphans == ["engine/scan.py:Planted.unused", "engine/scan.py:orphan"]
    assert stale == []

    allowed = {
        "engine/scan.py:orphan": "kept",
        "engine/scan.py:Planted.unused": "kept",
        "engine/scan.py:called": "reached, so stale",
        "engine/gone.py:deleted": "gone, so stale",
    }
    orphans, stale = unreached(src, benchmarks, allowed)
    assert orphans == []
    assert stale == ["engine/gone.py:deleted", "engine/scan.py:called"]
