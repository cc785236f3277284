"""Ablation — CRC32 page verification on vs off, measured scan time.

A scan checks a page's trailer CRC the first time it reads the page
after the table is loaded; the file then remembers that the page passed
(:meth:`repro.storage.pagefile.PagedFile.verified`), and later scans of
the resident table skip the check.  So this bench times **first-read
cost**: every timed repeat loads the table afresh (``load_table``, not
timed) and times one full scan of it, with verification enabled and
disabled (:func:`repro.storage.page.set_checksum_verification`); the
overhead is what checking every page once costs.  The **resident
re-scan** column times a full scan of a table already read once, every
page verified: what each scan after the first costs, checks on.  Unlike
the paper-figure benches this measures wall-clock time of this
implementation, not the paper's cost model — the question is about our
own read path.
"""

import time

from _common import BENCH_ROWS, publish, run_once

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.experiments.report import ExperimentOutput, FigureResult
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.page import set_checksum_verification

LAYOUTS = (Layout.ROW, Layout.COLUMN, Layout.PAX)
REPEATS = 5


def _time_first_read(data, layout, query) -> tuple[float, int]:
    """Best-of-N wall time of the first full scan after a fresh load,
    plus the rows returned."""
    best = float("inf")
    tuples = 0
    for _ in range(REPEATS):
        table = load_table(data, layout)
        start = time.perf_counter()
        result = run_scan(table, query)
        best = min(best, time.perf_counter() - start)
        tuples = result.num_tuples
    return best, tuples


def _time_rescan(data, layout, query) -> float:
    """Best-of-N wall time of a full scan of a table already read once."""
    table = load_table(data, layout)
    run_scan(table, query)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_scan(table, query)
        best = min(best, time.perf_counter() - start)
    return best


def run_ablation(num_rows: int) -> ExperimentOutput:
    data = generate_orders(num_rows, seed=17)
    select = tuple(data.schema.attribute_names)
    query = ScanQuery("ORDERS", select=select)
    table_out = FigureResult(
        title=f"Full scan of {num_rows} rows: first read after a load, CRC verification on vs off",
        headers=[
            "layout",
            "first read, verify on (ms)",
            "verify off (ms)",
            "overhead",
            "resident re-scan (ms)",
        ],
    )
    series = {"on": [], "off": [], "rescan": []}
    for layout in LAYOUTS:
        on_time, on_tuples = _time_first_read(data, layout, query)
        previous = set_checksum_verification(False)
        try:
            off_time, off_tuples = _time_first_read(data, layout, query)
        finally:
            set_checksum_verification(previous)
        rescan_time = _time_rescan(data, layout, query)
        assert on_tuples == off_tuples == num_rows
        overhead = on_time / off_time - 1.0
        table_out.add_row(
            layout.value,
            round(on_time * 1e3, 2),
            round(off_time * 1e3, 2),
            f"{overhead:+.1%}",
            round(rescan_time * 1e3, 2),
        )
        series["on"].append(on_time)
        series["off"].append(off_time)
        series["rescan"].append(rescan_time)
    return ExperimentOutput(
        name="Ablation: page checksum verification cost",
        tables=[table_out],
        series=series,
    )


def bench_ablation_checksum(benchmark):
    out = run_once(benchmark, lambda: run_ablation(BENCH_ROWS))
    publish(out, "ablation_checksum.txt")
    # Verification must never be catastrophically expensive: CRC32 over
    # a 4 KB page is memory-bandwidth-bound, so a first read should stay
    # within a small multiple of the unverified one on every layout.
    for on_time, off_time in zip(out.series["on"], out.series["off"]):
        assert on_time < off_time * 5
