"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/spine/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a result ``run.py`` wrote (one run) or a collection
``collect.py`` wrote (several).  For every workload x end-to-end metric
the medians of the two sets are compared against the bound fixed in
``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound *and* by more than either set's own spread;
* ``unresolved`` — neither, but a set's spread (interquartile distance
  over its median) is wider than the bound, so "unchanged" cannot be
  claimed;
* ``within`` — otherwise.

One row per workload; exit status 1 when anything is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

import stats

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(path: str) -> list[dict]:
    """The runs in one file, each as ``{"workload.metric": value}``."""
    document = json.loads(pathlib.Path(path).read_text())
    runs = document.get("runs", [document])
    prefix = f"{document['workload']}." if "workload" in document else ""
    return [
        {prefix + name: entry["value"] for name, entry in run["metrics"].items()}
        for run in runs
    ]


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(verdict, change)``; ``change`` > 0 means B is worse, as a share of A."""
    base = statistics.median(a)
    change = (statistics.median(b) - base) / base if base else 0.0
    if better == "higher":
        change = -change
    noise = max(stats.spread(s) if len(s) > 1 else 0.0 for s in (a, b))
    if change > max(bound, noise):
        return "worse", change
    if -change > max(bound, noise):
        return "better", change
    if noise > bound:
        return "unresolved", change
    return "within", change


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list, bool]:
    """Rows ``[workload, cell, ...]`` and whether anything got worse."""
    rows = []
    any_worse = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        row = [workload]
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            a = [run[key] for run in a_runs if key in run]
            b = [run[key] for run in b_runs if key in run]
            if not a or not b:
                row.append("missing")
                continue
            word, change = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= word == "worse"
            row.append(f"{word} {change:+.1%}")
        rows.append(row)
    return rows, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs = [run for path in argv[:split] for run in load_runs(path)]
    b_runs = [run for path in argv[split + 1 :] for run in load_runs(path)]
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    rows, any_worse = compare(a_runs, b_runs, spec)
    header = ["workload"] + [metric["name"] for metric in spec["end_to_end"]]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    print(f"A: {len(a_runs)} run(s)   B: {len(b_runs)} run(s)   change > 0 means B is worse")
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
