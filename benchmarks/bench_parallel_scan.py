"""Parallel-query grid: serial against ``workers=2`` on every layout.

Times the partitioned parallel executor against the serial one on
LINEITEM loaded as ROW, COLUMN and PAX, for three queries over the
reference projection (``L_PARTKEY, L_ORDERKEY, L_SUPPKEY,
L_LINENUMBER``):

* a scan where ``L_PARTKEY`` is at most its 10 % quantile;
* the same scan at 50 %;
* ``SUM(L_EXTENDEDPRICE)`` over the 50 % selection.

Every cell first passes a hard gate: the parallel result must be
byte-identical to the serial one (positions and every column), or
the run fails.  Then each arm is timed ``--repeats`` times, alternating
serial and parallel; a cell reports its best times, its speed-up
(best serial / best parallel) and every run, in
``bench_parallel_scan.json`` under ``--out`` (provenance-stamped, for
the CI artifact upload).  Speed-ups are machine-dependent: on a box
with fewer than two free cores threads only contend.  A scan cell also
reports the paper-scale model's speed-up
(:func:`~repro.experiments.runner.measure_parallel_scan`: ``max(slowest
partition stream, CPU / workers)``), which no machine moves.

Last comes the speed-up gate, the Figure 6 baseline: the COLUMN scan at
10 % projecting ``L_PARTKEY, L_ORDERKEY, L_QUANTITY, L_SHIPMODE`` on 4
workers, byte-identical to serial, must run at least 1.5x faster than
serial (median of ``--repeats`` runs each; override the threshold with
``REPRO_PARALLEL_SPEEDUP``).  It is enforced, with a non-zero exit on a
miss, only on a machine with at least 4 cores; on fewer it is reported.

Usage::

    python benchmarks/bench_parallel_scan.py --rows 1000000 --out parallel-artifacts

At ``--rows 400000`` the gate times the same workload it always has.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.data.tpch import generate_lineitem
from repro.engine.executor import run_scan
from repro.engine.parallel import parallel_query, shutdown_pools
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import AggregateFunction, AggregateSpec, Query, ScanQuery
from repro.experiments.runner import measure_parallel_scan
from repro.obs.provenance import provenance
from repro.storage.layout import Layout
from repro.storage.loader import load_table

SELECT = ("L_PARTKEY", "L_ORDERKEY", "L_SUPPKEY", "L_LINENUMBER")
LAYOUTS = (Layout.ROW, Layout.COLUMN, Layout.PAX)
WORKERS = 2
GATE_SELECT = ("L_PARTKEY", "L_ORDERKEY", "L_QUANTITY", "L_SHIPMODE")
GATE_WORKERS = 4


def _queries(data) -> dict[str, Query]:
    partkeys = data.column("L_PARTKEY")

    def scan(selectivity: float) -> ScanQuery:
        predicate = predicate_for_selectivity("L_PARTKEY", partkeys, selectivity)
        return ScanQuery("LINEITEM", select=SELECT, predicates=(predicate,))

    total = AggregateSpec((), AggregateFunction.SUM, "L_EXTENDEDPRICE")
    half = scan(0.5)
    return {
        "scan 10%": Query(scan(0.1)),
        "scan 50%": Query(half),
        "sum 50%": Query(
            ScanQuery("LINEITEM", select=("L_EXTENDEDPRICE",), predicates=half.predicates),
            aggregate=total,
        ),
    }


def _assert_identical(parallel, serial, label: str) -> None:
    assert np.array_equal(parallel.positions, serial.positions), label
    assert set(parallel.columns) == set(serial.columns), label
    for name, column in serial.columns.items():
        assert parallel.columns[name].dtype == column.dtype, (label, name)
        assert np.array_equal(parallel.columns[name], column), (label, name)


def _seconds(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _gate(data, repeats: int) -> dict:
    """Time the Figure 6 baseline serial and on ``GATE_WORKERS`` workers;
    its verdict counts only on a machine with that many cores."""
    table = load_table(data, Layout.COLUMN)
    predicate = predicate_for_selectivity("L_PARTKEY", data.column("L_PARTKEY"), 0.1)
    query = ScanQuery("LINEITEM", select=GATE_SELECT, predicates=(predicate,))
    _assert_identical(
        parallel_query(table, query, workers=GATE_WORKERS), run_scan(table, query), "gate"
    )
    serial_s, parallel_s = [], []
    for _repeat in range(repeats):
        serial_s.append(_seconds(lambda: run_scan(table, query)))
        parallel_s.append(_seconds(lambda: parallel_query(table, query, workers=GATE_WORKERS)))
    threshold = float(os.environ.get("REPRO_PARALLEL_SPEEDUP", "1.5"))
    speedup = statistics.median(serial_s) / statistics.median(parallel_s)
    enforced = (os.cpu_count() or 1) >= GATE_WORKERS
    return {
        "workers": GATE_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "threshold": threshold,
        "enforced": enforced,
        "ok": speedup >= threshold or not enforced,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000, help="LINEITEM rows")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per arm")
    parser.add_argument(
        "--out", default="parallel-artifacts", help="directory for bench_parallel_scan.json"
    )
    args = parser.parse_args(argv)

    data = generate_lineitem(args.rows, seed=5)
    queries = _queries(data)
    print(
        f"{args.rows:,} LINEITEM rows, serial vs workers={WORKERS}, best of "
        f"{args.repeats}, {os.cpu_count()} core(s)"
    )
    print(
        f"{'layout':<8}{'query':<10}{'serial ms':>11}{'parallel ms':>13}{'speed-up':>10}"
        f"{'model':>8}"
    )
    cells = []
    for layout in LAYOUTS:
        table = load_table(data, layout)
        for name, query in queries.items():
            label = f"{layout.name} {name}"
            serial = run_scan(table, query)
            info: dict = {}
            parallel = parallel_query(table, query, workers=WORKERS, info=info)
            _assert_identical(parallel, serial, label)
            assert info["mode"] == "parallel", (label, info["mode"])
            serial_s, parallel_s = [], []
            for _repeat in range(args.repeats):
                serial_s.append(_seconds(lambda: run_scan(table, query)))
                parallel_s.append(
                    _seconds(lambda: parallel_query(table, query, workers=WORKERS))
                )
            speedup = min(serial_s) / min(parallel_s)
            model = None
            if query.aggregate is None:
                model = measure_parallel_scan(table, query.scan, workers=WORKERS).speedup
            print(
                f"{layout.name:<8}{name:<10}{min(serial_s) * 1e3:>11.1f}"
                f"{min(parallel_s) * 1e3:>13.1f}{speedup:>9.2f}x"
                + (f"{model:>7.2f}x" if model is not None else f"{'-':>8}")
            )
            cells.append(
                {
                    "layout": layout.name,
                    "query": name,
                    "serial_s": serial_s,
                    "parallel_s": parallel_s,
                    "speedup": speedup,
                    "model_speedup": model,
                }
            )
        del table
    print(f"correctness: every workers={WORKERS} result byte-identical to serial")
    gate = _gate(data, args.repeats)
    shutdown_pools()
    verdict = ("OK" if gate["ok"] else "FAIL") if gate["enforced"] else "reported only"
    print(
        f"speed-up gate (COLUMN scan 10%, {GATE_WORKERS} workers, median, >= "
        f"{gate['threshold']:.2f}x on {GATE_WORKERS}+ cores): {gate['speedup']:.2f}x -> {verdict}"
    )

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench_parallel_scan.json").write_text(
        json.dumps(
            {
                "rows": args.rows,
                "workers": WORKERS,
                "repeats": args.repeats,
                "cores": os.cpu_count(),
                "cells": cells,
                "gate": gate,
                "provenance": provenance(),
            },
            indent=2,
        )
        + "\n"
    )
    return 0 if gate["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
