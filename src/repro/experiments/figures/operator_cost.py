"""Section 5's operator-cost claim, measured.

"Note that a high-cost relational operator lowers the CPU rate, and the
difference between columns and rows in a CPU-bound system becomes less
noticeable."  This experiment stacks increasingly expensive aggregation
above the same CPU-bound scan (compressed ORDERS-Z on a single disk)
and watches the column-over-row speedup converge toward 1.
"""

from __future__ import annotations

from repro.engine.query import AggregateFunction, AggregateSpec, Query, ScanQuery
from repro.experiments.config import DEFAULT_EXECUTED_ROWS, ExperimentConfig
from repro.experiments.report import ExperimentOutput, FigureResult
from repro.experiments.runner import measure_scan
from repro.experiments.workloads import prepare_orders

SELECTIVITY = 0.50
SELECTED = ("O_ORDERDATE", "O_CUSTKEY", "O_TOTALPRICE")

#: Operator stacks of increasing CPU cost above the same scan.
_STACKS = (
    ("scan only", None, False),
    (
        "+ hash agg, 3 groups",
        AggregateSpec(
            group_by=("O_ORDERDATE",),  # replaced below with a coarse key
            function=AggregateFunction.SUM,
            argument="O_TOTALPRICE",
        ),
        False,
    ),
    (
        "+ hash agg, many groups",
        AggregateSpec(
            group_by=("O_CUSTKEY",),
            function=AggregateFunction.SUM,
            argument="O_TOTALPRICE",
        ),
        False,
    ),
    (
        "+ sort-based agg",
        AggregateSpec(
            group_by=("O_CUSTKEY",),
            function=AggregateFunction.SUM,
            argument="O_TOTALPRICE",
        ),
        True,
    ),
)


def run(
    num_rows: int = DEFAULT_EXECUTED_ROWS,
    config: ExperimentConfig | None = None,
) -> ExperimentOutput:
    """Stack operators above a CPU-bound scan, watch the gap close."""
    base = config or ExperimentConfig()
    # Six disks make both layouts CPU-bound, where the claim applies.
    calibration = base.calibration.with_overrides(num_disks=6)
    config_one_disk = base.with_(calibration=calibration)
    prepared = prepare_orders(num_rows, compressed=True)
    predicate = prepared.predicate("O_ORDERDATE", SELECTIVITY)
    query = ScanQuery(
        prepared.schema.name, select=SELECTED, predicates=(predicate,)
    )

    table = FigureResult(
        title="Speedup vs operator cost above the scan (ORDERS-Z, 6 disks)",
        headers=["plan", "row CPU (s)", "col CPU (s)", "speedup"],
    )
    series: dict[str, list[float]] = {"speedup": [], "row_cpu": [], "col_cpu": []}
    for label, spec, sort_based in _STACKS:
        stacked = Query(query, aggregate=spec, sort_based=sort_based)
        row = measure_scan(prepared.row, stacked, config_one_disk)
        col = measure_scan(prepared.column, stacked, config_one_disk)
        speedup = row.elapsed / col.elapsed
        table.add_row(
            label,
            round(row.cpu.total, 2),
            round(col.cpu.total, 2),
            round(speedup, 3),
        )
        series["speedup"].append(speedup)
        series["row_cpu"].append(row.cpu.total)
        series["col_cpu"].append(col.cpu.total)

    return ExperimentOutput(
        name="Section 5: operator cost closes the gap",
        tables=[table],
        series=series,
    )
