"""Parallel-scan speedup benchmark (serial vs 2 and 4 workers).

Runs the Figure 6 baseline workload — a LINEITEM selection at 10%
selectivity projecting four attributes — through the partitioned
parallel executor and reports three things:

1. **correctness (hard gate)** — every parallel configuration must be
   byte-identical to the serial scan; any mismatch fails the run;
2. **wall-clock speedup** — median of repeated timed runs, serial vs
   workers = 2 and 4.  The >= 1.5x-at-4-workers expectation is only
   enforced when the machine actually has >= 4 cores (CI runners and
   containers are often 1-2 cores, where forked workers just contend);
   override the threshold with ``REPRO_PARALLEL_SPEEDUP``;
3. **paper-scale model speedup** — :func:`measure_parallel_scan`'s
   deterministic ``max(slowest partition stream, CPU / workers)``
   estimate, which is machine-independent and always reported.

Emits a provenance-stamped ``bench_parallel_scan.json`` under ``--out``
for the CI artifact upload.

Usage::

    python benchmarks/bench_parallel_scan.py --out parallel-artifacts
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
from repro.engine.query import ScanQuery
from repro.experiments.runner import measure_parallel_scan
from repro.obs.provenance import provenance
from repro.storage.layout import Layout
from repro.storage.loader import load_table

#: Enough rows that a scan takes real work, and big enough that
#: dispatch and the one-off table ship are noise, not signal.
ROWS = 400_000
SELECTIVITY = 0.10
SELECT = ("L_PARTKEY", "L_ORDERKEY", "L_QUANTITY", "L_SHIPMODE")
WORKER_COUNTS = (2, 4)


def _workload():
    data = generate_lineitem(ROWS, seed=5)
    table = load_table(data, Layout.COLUMN)
    predicate = predicate_for_selectivity(
        "L_PARTKEY", data.column("L_PARTKEY"), SELECTIVITY
    )
    query = ScanQuery("LINEITEM", select=SELECT, predicates=(predicate,))
    return table, query


def _assert_identical(parallel, serial, label: str) -> None:
    assert np.array_equal(parallel.positions, serial.positions), label
    assert set(parallel.columns) == set(serial.columns), label
    for name in serial.columns:
        assert np.array_equal(parallel.columns[name], serial.columns[name]), (
            label,
            name,
        )


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per arm")
    parser.add_argument(
        "--out",
        default="parallel-artifacts",
        help="directory for bench_parallel_scan.json",
    )
    args = parser.parse_args(argv)
    threshold = float(os.environ.get("REPRO_PARALLEL_SPEEDUP", "1.5"))
    cores = os.cpu_count() or 1

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    table, query = _workload()
    serial = run_scan(table, query)
    print(
        f"workload: {ROWS} LINEITEM rows, {SELECTIVITY:.0%} selectivity, "
        f"{serial.num_tuples} qualifying tuples, {cores} core(s)"
    )

    # 1. Correctness gate (also warms both code paths).
    for workers in WORKER_COUNTS:
        result = parallel_query(table, query, workers=workers)
        _assert_identical(result, serial, f"workers={workers}")
    print("correctness: parallel output byte-identical to serial for "
          + ", ".join(f"{w} workers" for w in WORKER_COUNTS))

    # 2. Wall-clock timing.
    serial_time = _median_time(lambda: run_scan(table, query), args.repeats)
    wall = {}
    for workers in WORKER_COUNTS:
        infos: list[dict] = []

        def arm(w=workers, infos=infos):
            infos.append({})
            parallel_query(table, query, workers=w, info=infos[-1])

        elapsed = _median_time(arm, args.repeats)
        wall[workers] = {
            "elapsed": elapsed,
            "speedup": serial_time / elapsed if elapsed else float("inf"),
            # Submit to last worker output: ``elapsed`` minus this is merge.
            "dispatch_ms": statistics.median(i["dispatch_ms"] for i in infos),
            "tables_shipped": sum(i["tables_shipped"] for i in infos),
        }
    print(f"wall clock: serial {serial_time * 1e3:.1f} ms")
    for workers, numbers in wall.items():
        print(
            f"  {workers} workers: {numbers['elapsed'] * 1e3:.1f} ms "
            f"({numbers['speedup']:.2f}x), dispatch {numbers['dispatch_ms']:.1f} ms, "
            f"{numbers['tables_shipped']} table ship(s)"
        )

    # 3. Paper-scale model estimate (deterministic, machine-independent).
    model = {}
    for workers in WORKER_COUNTS:
        estimate = measure_parallel_scan(table, query, workers=workers)
        model[workers] = {
            "elapsed": estimate.elapsed,
            "serial_elapsed": estimate.serial.elapsed,
            "io_elapsed": estimate.io_elapsed,
            "cpu_total": estimate.cpu.total,
            "speedup": estimate.speedup,
        }
        print(
            f"model: {workers} workers -> {estimate.elapsed:.2f}s "
            f"vs serial {estimate.serial.elapsed:.2f}s ({estimate.speedup:.2f}x)"
        )

    enforced = cores >= 4
    speedup4 = wall[4]["speedup"]
    ok = speedup4 >= threshold if enforced else True
    if enforced:
        print(
            f"speedup gate (>= {threshold:.2f}x at 4 workers on {cores} cores): "
            f"{speedup4:.2f}x -> {'OK' if ok else 'FAIL'}"
        )
    else:
        print(
            f"speedup gate skipped: only {cores} core(s); "
            f"reporting {speedup4:.2f}x informationally"
        )

    (out_dir / "bench_parallel_scan.json").write_text(
        json.dumps(
            {
                "rows": ROWS,
                "selectivity": SELECTIVITY,
                "cores": cores,
                "serial_wall_seconds": serial_time,
                "wall": {str(k): v for k, v in wall.items()},
                "model": {str(k): v for k, v in model.items()},
                "threshold": threshold,
                "gate_enforced": enforced,
                "ok": ok,
                "provenance": provenance(),
            },
            indent=2,
        )
        + "\n"
    )
    shutdown_pools()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
