"""Concurrent-workload throughput benchmark (shared scans on vs off).

Drives the cooperative scheduler with 1, 4, 16, and 64 simultaneous
clients — every client a COLUMN-layout ORDERS selection at ~30%
selectivity over the same column set, the regime where Figure 11's
competing-scans contention bites — and reports, per client count and
sharing arm.  Every scheduled query rides a scan stream: sharing on,
one stream serves the batch; sharing off, each query opens its own and
rides it alone, so the off arm reads the table once per client:

1. **correctness (hard gate)** — every handle's result must be
   byte-identical to the serial scan of the same query;
2. **I/O gate (hard)** — at every client count the modeled I/O that
   sharing saves over the sharing-off arm must reach the iosim model's
   share for the same clients (:func:`repro.iosim.measure_competing_scans`,
   all arriving together) less 0.1 point: one circular pass serves the
   whole batch, queued clients included, so 64 clients read the table
   once, not once per admission window of ``MAX_INFLIGHT``;
3. **latency + throughput** — p50/p95/p99 of per-query latency (queue
   time included, as governance counts it) and queries/second from the
   batch makespan;
4. **paper-scale model** — the same model's numbers on the simulated
   disk array (machine-independent shape of Figure 11).

Emits a provenance-stamped ``bench_workload_throughput.json`` under
``--out`` for the CI artifact upload.

Usage::

    python benchmarks/bench_workload_throughput.py --out workload-artifacts
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler
from repro.iosim import measure_competing_scans
from repro.obs.provenance import provenance
from repro.storage.layout import Layout
from repro.storage.loader import load_table

ROWS = 60_000
SELECTIVITY = 0.30
SELECT = ("O_ORDERKEY", "O_CUSTKEY", "O_TOTALPRICE", "O_ORDERDATE")
CLIENT_COUNTS = (1, 4, 16, 64)
MAX_INFLIGHT = 8
#: How far below the model's I/O saving the measured one may fall.
IO_SAVED_SLACK = 0.001


def _workload():
    data = generate_orders(ROWS, seed=13)
    table = load_table(data, Layout.COLUMN)
    predicate = predicate_for_selectivity(
        "O_TOTALPRICE", data.column("O_TOTALPRICE"), SELECTIVITY
    )
    query = ScanQuery("ORDERS", select=SELECT, predicates=(predicate,))
    return table, query


def _assert_identical(got, want, label: str) -> None:
    assert np.array_equal(got.positions, want.positions), label
    assert set(got.columns) == set(want.columns), label
    for name in want.columns:
        assert np.array_equal(got.columns[name], want.columns[name]), (label, name)


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _run_batch(table, query, serial, clients: int, share: bool) -> dict:
    scheduler = Scheduler(max_inflight=MAX_INFLIGHT, share_scans=share)
    started = time.perf_counter()
    handles = [
        scheduler.submit(table, query, label=f"client-{index}")
        for index in range(clients)
    ]
    scheduler.run()
    makespan = time.perf_counter() - started
    label = f"clients={clients} share={'on' if share else 'off'}"
    for handle in handles:
        assert handle.state is QueryState.DONE, f"{label}: {handle.error}"
        _assert_identical(handle.result, serial, label)
    latencies = [handle.latency for handle in handles]
    stats = scheduler.stats()
    return {
        "clients": clients,
        "share_scans": share,
        "makespan_seconds": makespan,
        "qps": clients / makespan if makespan else float("inf"),
        "latency_p50_seconds": _percentile(latencies, 50),
        "latency_p95_seconds": _percentile(latencies, 95),
        "latency_p99_seconds": _percentile(latencies, 99),
        "max_queue_wait_seconds": stats["max_queue_wait_s"],
        "modeled_io_bytes": stats["modeled_io_bytes"],
        "share_hits": stats["share_hits"],
        "share_misses": stats["share_misses"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="workload-artifacts",
        help="directory for bench_workload_throughput.json",
    )
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    table, query = _workload()
    serial = run_scan(table, query)
    table_bytes = table.total_bytes
    print(
        f"workload: {ROWS} ORDERS rows ({table_bytes / 1e6:.1f} MB COLUMN), "
        f"{SELECTIVITY:.0%} selectivity, {serial.num_tuples} qualifying tuples, "
        f"max_inflight={MAX_INFLIGHT}"
    )

    # Paper-scale model: the same client counts on the simulated array,
    # all arriving together (the worst competing-scans regime).
    points = {
        clients: measure_competing_scans(table_bytes, [0.0] * clients)
        for clients in CLIENT_COUNTS
    }
    arms = []
    ok = True
    for clients in CLIENT_COUNTS:
        on = _run_batch(table, query, serial, clients, share=True)
        off = _run_batch(table, query, serial, clients, share=False)
        arms.extend([on, off])
        saved = 1 - on["modeled_io_bytes"] / off["modeled_io_bytes"]
        print(
            f"  {clients:>2} clients: sharing on {on['qps']:7.1f} qps "
            f"p50 {on['latency_p50_seconds'] * 1e3:6.1f} ms "
            f"p95 {on['latency_p95_seconds'] * 1e3:6.1f} ms "
            f"p99 {on['latency_p99_seconds'] * 1e3:6.1f} ms | "
            f"off {off['qps']:7.1f} qps | io saved {saved:6.1%}"
        )
        target = points[clients].io_savings - IO_SAVED_SLACK
        if saved < target:
            ok = False
            print(
                f"  FAIL: sharing saved {saved:.2%} of modeled I/O at {clients} "
                f"clients, below the model's {points[clients].io_savings:.2%} - 0.1 pt"
            )
    print(
        "correctness: every concurrent result byte-identical to serial; "
        f"I/O gate {'OK' if ok else 'FAIL'}"
    )
    for clients, point in points.items():
        print(
            f"model: {clients:>2} clients -> sharing saves "
            f"{point.io_savings:.1%} of bytes, {point.speedup:.2f}x makespan"
        )

    (out_dir / "bench_workload_throughput.json").write_text(
        json.dumps(
            {
                "rows": ROWS,
                "selectivity": SELECTIVITY,
                "select": list(SELECT),
                "table_bytes": table_bytes,
                "max_inflight": MAX_INFLIGHT,
                "client_counts": list(CLIENT_COUNTS),
                "arms": arms,
                "model": {str(clients): point.as_dict() for clients, point in points.items()},
                "ok": ok,
                "provenance": provenance(),
            },
            indent=2,
        )
        + "\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
