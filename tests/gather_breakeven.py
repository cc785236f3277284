"""Fit ``repro.storage.page.GATHER_SHARE``: where reading survivors' slots
stops paying against decoding a window whole.

A row or PAX scan decodes its predicate attributes over a window, then
reads every other selected attribute at the survivors alone
(``TuplePageCodec.take``); a position-driven column node reads its
column's wanted codes the same way (``ColumnPageCodec.gather``).  Above
a survivor share, decoding the attribute over the window and taking
from it is cheaper; this script measures both ways on one window of
LINEITEM — ROW, ROW-Z, PAX, PAX-Z, and COLUMN and COLUMN-Z, one column
file at a time — every attribute but the FOR-delta ones (always decoded
whole), at a ladder of survivor shares, and prints the share at which
the two cost the same, per layout, and the one threshold (a multiple of
0.05) that loses least against the faster way, summed over the layouts
and every share.  The module constant is that last number.

Run with::

    PYTHONPATH=src python tests/gather_breakeven.py [--rows 5000] [--passes 15] [--reps 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import Layout, apply_fig5_compression, generate_lineitem, load_table
from repro.storage import page as page_module

SHARES = (0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.7, 1.0)
LAYOUTS = (
    ("ROW", Layout.ROW, False),
    ("ROW-Z", Layout.ROW, True),
    ("PAX", Layout.PAX, False),
    ("PAX-Z", Layout.PAX, True),
    ("COLUMN", Layout.COLUMN, False),
    ("COLUMN-Z", Layout.COLUMN, True),
)


def window(file) -> bytes:
    """A file's pages as one unit."""
    return bytes(file.read_pages(range(file.num_pages)))


class ColumnArm:
    """``take`` over the files of a COLUMN table: each attribute's wanted
    codes gathered from its own file's window (``ColumnPageCodec.gather``)."""

    def __init__(self, table):
        self.files = {
            name: (column_file.page_codec, window(column_file.file))
            for name, column_file in table.column_files.items()
            if not column_file.page_codec.codec.decodes_whole_page
        }

    def take(self, _unit, _total, names, rows):
        taken = {}
        for name in names:
            codec, unit = self.files[name]
            pages, slots = np.divmod(rows, codec.tuples_per_page)
            taken[name] = codec.gather(unit, pages, slots, False)[1]
        return taken


def best_of(reps: int, run) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def take_seconds(codec, unit, total, names, rows, share: float, reps: int) -> float:
    """Best-of-``reps`` seconds of ``codec.take`` under ``GATHER_SHARE =
    share`` (1.0 always reads slots, -1.0 always decodes whole)."""
    saved = page_module.GATHER_SHARE
    page_module.GATHER_SHARE = share
    try:
        return best_of(reps, lambda: codec.take(unit, total, names, rows))
    finally:
        page_module.GATHER_SHARE = saved


def crossing(shares, gather, whole) -> float:
    """The share where ``gather - whole`` first turns positive,
    interpolated linearly; 1.0 when it never does."""
    diff = np.asarray(gather) - np.asarray(whole)
    for at in range(1, len(shares)):
        if diff[at - 1] <= 0 < diff[at]:
            lo, hi = shares[at - 1], shares[at]
            return lo + (hi - lo) * -diff[at - 1] / (diff[at] - diff[at - 1])
    return 0.0 if diff[0] > 0 else 1.0


def regret(threshold: float, timings) -> float:
    """What a ``threshold`` costs over the best choice, summed over every
    layout and share, each as a fraction of the faster way."""
    total = 0.0
    for gather, whole in timings:
        for share, slow, fast in zip(SHARES, gather, whole):
            chosen = slow if share <= threshold else fast
            total += chosen / min(slow, fast) - 1
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=5_000)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    plain = generate_lineitem(args.rows, seed=args.seed)
    packed = apply_fig5_compression(plain)
    rng = np.random.default_rng(args.seed)
    cases = []
    for label, layout, compressed in LAYOUTS:
        table = load_table(packed if compressed else plain, layout)
        total = table.num_rows
        if layout is Layout.COLUMN:
            codec = ColumnArm(table)
            unit, names = None, tuple(codec.files)
        else:
            codec = table.page_codec
            unit = window(table.file)
            names = tuple(
                name
                for name in table.schema.attribute_names
                if name not in getattr(codec, "_whole_page", ())
            )
        draws = [
            np.sort(rng.choice(total, size=max(1, int(share * total)), replace=False))
            for share in SHARES
        ]
        cases.append((label, codec, unit, total, names, draws))
    # Every cell is timed once per pass and keeps its best: a stretch of
    # noise on a shared box spoils one pass of a cell, not the cell.
    best = np.full((len(cases), len(SHARES), 2), np.inf)
    for _ in range(args.passes):
        for at, (_label, codec, unit, total, names, draws) in enumerate(cases):
            for share_at, rows in enumerate(draws):
                for way, share in enumerate((1.0, -1.0)):
                    seconds = take_seconds(codec, unit, total, names, rows, share, args.reps)
                    best[at, share_at, way] = min(best[at, share_at, way], seconds)
    print(
        f"LINEITEM, {args.rows} rows, one window; best of {args.passes} passes of "
        f"{args.reps}, us per take of every attribute"
    )
    print(f"{'layout':8}{'share':>7}{'slots':>10}{'whole':>10}")
    crossings, timings = [], []
    for (label, *_rest), cells in zip(cases, best):
        gather, whole = cells[:, 0].tolist(), cells[:, 1].tolist()
        for share, slow, fast in zip(SHARES, gather, whole):
            print(f"{label:8}{share:7.2f}{1e6 * slow:10.0f}{1e6 * fast:10.0f}")
        crossings.append(crossing(SHARES, gather, whole))
        timings.append((gather, whole))
        print(f"{label:8} break-even share {crossings[-1]:.3f}")
    print(f"median break-even over layouts: {float(np.median(crossings)):.3f}")
    candidates = np.arange(0.0, 1.0001, 0.05)
    fitted = min(candidates, key=lambda threshold: regret(threshold, timings))
    print(f"threshold of least regret over all {len(LAYOUTS)}: {fitted:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
