#!/usr/bin/env python3
"""Beyond the paper: the extensions, end to end.

The paper states several things in passing that this library turns into
running code.  This example walks through four of them on one dataset:

1. **C-Store projections** — materialize a vertical partition re-sorted
   on a low-cardinality attribute, let run-length encoding (which the
   paper deliberately excluded) collapse the sort column, and route
   queries to the cheapest covering view.
2. **Secondary index vs scan** (§2.1.1) — find the selectivity where an
   unclustered index stops paying off.
3. **Scan sharing** (§2.1.1) — N concurrent scans off one stream.
4. **PAX** (§6) — row-store I/O with column-store cache behaviour.

Run with::

    python examples/beyond_the_paper.py
"""

import numpy as np

from repro import ExperimentConfig, Layout, ScanQuery, generate_lineitem, load_table
from repro.design import ViewRouter, materialize_view
from repro.engine.executor import run_scan
from repro.engine.predicate import predicate_for_selectivity
from repro.index import SecondaryIndex, breakeven_selectivity, compare_access_paths
from repro.iosim import DiskArraySim, SharedScanQuery, SharedScanSimulator


def cstore_projections(data, base_table) -> None:
    print("1. C-Store projections (materialized views + RLE)")
    view = materialize_view(
        data,
        ("L_LINENUMBER", "L_QUANTITY", "L_EXTENDEDPRICE"),
        name="SALES_BY_LINE",
        sort_key="L_LINENUMBER",
        compress=True,
        use_rle=True,
    )
    print(f"   view {view.name}: {view.table.total_bytes / view.table.num_rows:.1f} B/tuple vs "
          f"{base_table.total_bytes / base_table.num_rows:.1f} B/tuple base")
    for attr in view.attributes:
        spec = view.table.schema.attribute(attr).spec
        print(f"     {attr:18s} {spec.describe()}")

    router = ViewRouter(base_table)
    router.add_view(view)
    query = ScanQuery("LINEITEM", select=("L_QUANTITY", "L_EXTENDEDPRICE"))
    table, source = router.route(query)
    result = run_scan(table, query)
    print(f"   routed {query.describe()!r} -> {source} "
          f"({result.num_tuples} tuples)\n")


def index_vs_scan(data, base_table) -> None:
    print("2. Secondary index vs sequential scan (§2.1.1)")
    index = SecondaryIndex("L_SUPPKEY", data.column("L_SUPPKEY"))
    breakeven = breakeven_selectivity(base_table.schema.row_stride)
    print(f"   closed-form breakeven on this testbed: {breakeven:.4%}")
    tuples_per_page = base_table.page_codec.tuples_per_page
    for selectivity in (0.00003, 0.0001, 0.01):
        matches = int(selectivity * 60_000_000)
        costs = compare_access_paths(
            matches, 60_000_000, tuples_per_page, base_table.page_size
        )
        print(f"   {selectivity:8.4%}: seq {costs.sequential_seconds:7.1f}s "
              f"vs index {costs.index_seconds:7.1f}s -> {costs.winner}")
    print()


def scan_sharing_demo(base_table) -> None:
    print("3. Scan sharing (§2.1.1)")
    table_bytes = sum(
        base_table.file_sizes_for([], cardinality=60_000_000).values()
    )
    simulator = SharedScanSimulator(table_bytes, sim=DiskArraySim())
    queries = [SharedScanQuery(f"report-{i}") for i in range(4)]
    outcome = simulator.compare(queries)
    print(f"   4 concurrent scans: independent {outcome.independent_makespan:.0f}s, "
          f"shared {outcome.shared_makespan:.0f}s "
          f"({outcome.speedup:.1f}x)\n")


def pax_demo(data) -> None:
    print("4. PAX: row I/O, column caches (§6)")
    pred = predicate_for_selectivity("L_PARTKEY", data.column("L_PARTKEY"), 0.10)
    query = ScanQuery("LINEITEM", select=("L_PARTKEY", "L_QUANTITY"),
                      predicates=(pred,))
    config = ExperimentConfig()
    from repro.experiments.runner import measure_scan

    for layout in (Layout.ROW, Layout.PAX, Layout.COLUMN):
        table = load_table(data, layout)
        m = measure_scan(table, query, config)
        print(f"   {layout.value:6s}: elapsed {m.elapsed:6.1f}s, "
              f"usr-L2 {m.cpu.usr_l2:5.2f}s, reads {m.bytes_read / 1e9:5.2f} GB")


def main() -> None:
    data = generate_lineitem(8_000, seed=99)
    base_table = load_table(data, Layout.ROW)
    cstore_projections(data, base_table)
    index_vs_scan(data, base_table)
    scan_sharing_demo(base_table)
    pax_demo(data)


if __name__ == "__main__":
    main()
