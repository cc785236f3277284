"""The layer pass: per-layer metrics under the end-to-end ones (``--trace 1``).

Three kinds of measurement, all recorded as spans from this file (the
system itself is not instrumented):

* a **ladder** over the first ``TRACED_OPS`` ops of the workload's list:
  around each op the layer's public functions run on the same inputs,
  each rung repeating everything below it — read only, +CRC, +decode,
  +predicate, full scan, +operator / +facade / +scheduler / +overlay —
  so consecutive differences are each layer's share and sum to the op;
* **workload probes** that need the workload's own state (scheduler
  batches, the hybrid round's sub-steps, the worker pool);
* **micro probes** that need no workload (codec rates, loader, persist,
  the ROADMAP reference query on every scan path); they run on a seeded
  reference table in every traced run.

A per-layer metric whose layer does no work on a workload reads 0 there.
A probe whose target no longer exists reads ``null`` (with the reason)
in ``trace.json`` and the printed table, and never fails the run.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import adapter as sut
import stats
from measure import Measurement
from yardstick import Stopwatch, at_speed_1
from workloads import Op, predicate_of, scan_query, parallel_shape

TRACED_OPS = 24
LADDER_REPS = 3
#: Micro probes are milliseconds long; they can afford more repetitions.
MICRO_REPS = 4
#: A traced span is divided by the median of this many latest yardstick
#: samples (one is taken before every timed call, so about the last 50 ms).
RECENT_SAMPLES = 5
REFERENCE_ROWS = 20_000
CODEC_VALUES = 1 << 20

#: Per-layer metrics: name -> unit.  Times are ms per traced op.
PER_LAYER = {
    "storage.loader.row_load_mrows_per_s": "Mrows/s",
    "storage.loader.col_load_mrows_per_s": "Mrows/s",
    "storage.persist.save_mb_per_s": "MB/s",
    "storage.persist.open_mb_per_s": "MB/s",
    "storage.pagefile.read_ms": "ms",
    "storage.page.crc_ms": "ms",
    "storage.page.row_decode_ms": "ms",
    "storage.page.col_decode_ms": "ms",
    "storage.rowz.decode_ms": "ms",
    "compression.pack.decode_mvals_per_s": "Mvals/s",
    "compression.dict.decode_mvals_per_s": "Mvals/s",
    "compression.for.decode_mvals_per_s": "Mvals/s",
    "compression.for-delta.decode_mvals_per_s": "Mvals/s",
    "compression.unpack_bits_mvals_per_s": "Mvals/s",
    "compression.encode_mvals_per_s": "Mvals/s",
    "engine.predicate.eval_ms": "ms",
    "engine.operators.scan_row.self_ms": "ms",
    "engine.operators.scan_column.self_ms": "ms",
    "engine.operators.scan_column.per_extra_column_ms": "ms",
    "engine.operators.scan_row.ref_ms": "ms",
    "engine.operators.scan_column.ref_ms": "ms",
    "engine.operators.scan_fused.ref_ms": "ms",
    "engine.operators.scan_pax.ref_ms": "ms",
    "engine.compressed_exec.ref_ms": "ms",
    "engine.operators.aggregate.self_ms": "ms",
    "engine.operators.sort.self_ms": "ms",
    "engine.operators.merge_join.self_ms": "ms",
    "engine.executor.mrows_per_s": "Mrows/s",
    "engine.parallel.speedup_w2": "ratio",
    "engine.parallel.dispatch_ms": "ms",
    "engine.scheduler.solo_overhead_ms": "ms",
    "engine.scheduler.qps_c1": "1/s",
    "engine.scheduler.qps_c16": "1/s",
    "engine.scheduler.queue_wait_p90_ms": "ms",
    "engine.scheduler.latency_p95_ms": "ms",
    "engine.sharing.solo_delta_ms": "ms",
    "engine.sharing.hit_ratio": "ratio",
    "engine.sharing.io_saved_share": "fraction",
    "engine.sharing.off_qps_c64": "1/s",
    "engine.hybrid.union_penalty_ms": "ms",
    "engine.hybrid.overlay_penalty_ms": "ms",
    "engine.hybrid.union_penalty_ms_per_kstaged": "ms",
    "storage.write_store.insert_krows_per_s": "krows/s",
    "storage.delete_vector.delete_kpos_per_s": "kpos/s",
    "database.merge_krows_per_s": "krows/s",
    "database.predicate_delete_ms": "ms",
    "database.facade_ms": "ms",
    "obs.overhead_share": "fraction",
    "cpusim.pages_touched": "count",
    "cpusim.values_decoded": "count",
    "cpusim.values_copied": "count",
    "cpusim.blocks_produced": "count",
    "cpusim.modeled_cpu_s": "s",
    "cpusim.modeled_over_measured": "ratio",
    "harness.trace_overhead_share": "fraction",
    "harness.pass_spread": "fraction",
    "harness.machine_slowdown": "ratio",
    "harness.machine_slowdown_swing": "fraction",
}


class Tracer:
    """Spans in memory, written out once at exit.

    ``start``/``end`` are wall seconds since the tracer began; a span
    taken through :meth:`timed` also carries its ``cpu`` seconds, the
    machine ``slowdown`` they were divided by, and the resulting duration
    ``at_speed_1`` that the metrics are computed from.
    """

    def __init__(self, workload: str, yard):
        self.workload = workload
        self.yard = yard
        self.spans: list[dict] = []
        self.epoch = time.perf_counter()

    def add(self, name: str, start, end, op_id=None, parent=None, **counts) -> int:
        """Record one span; returns its index (what children name as parent)."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op_id": op_id,
                "workload": self.workload,
                **counts,
            }
        )
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, op_id=None, parent=None, **counts):
        started = time.perf_counter() - self.epoch
        index = self.add(name, started, None, op_id, parent, **counts)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter() - self.epoch

    def timed(self, name: str, fn, op_id=None, parent=None, reps=LADDER_REPS, **counts):
        """Run ``fn`` ``reps`` times, one span each.

        Returns the fastest, in seconds at yardstick speed 1.
        """
        self.yard.sample()
        latest = len(self.yard.samples) - 1
        slowdown = self.yard.around(latest - RECENT_SAMPLES + 1, latest)
        best = float("inf")
        for _ in range(reps):
            with self.span(name, op_id, parent, slowdown=slowdown, **counts) as index:
                with Stopwatch() as watch:
                    fn()
            seconds = at_speed_1(watch.wall, watch.cpu, slowdown)
            self.spans[index].update(cpu=watch.cpu, at_speed_1=seconds)
            best = min(best, seconds)
        return best


def measures(*names: str):
    """Declare which per-layer metrics a probe function reports."""

    def mark(fn):
        fn.names = names
        return fn

    return mark


class Probes:
    """Collects metric values; a failing probe nulls only its own names."""

    def __init__(self):
        self.values: dict[str, float | None] = dict.fromkeys(PER_LAYER, 0.0)
        self.reasons: dict[str, str] = {}

    def run(self, fn, *args, names: tuple[str, ...] = ()) -> None:
        try:
            self.values.update(fn(*args))
        except Exception as exc:  # a missing probe target must not end the run
            traceback.print_exc(file=sys.stderr)
            for name in names or fn.names:
                self.values[name] = None
                self.reasons[name] = f"{type(exc).__name__}: {exc}"


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _mean_ms(samples: list[float]) -> float:
    return _ms(statistics.fmean(samples)) if samples else 0.0


def _traced_ops(workload) -> list[tuple[int, Op]]:
    return list(enumerate(workload.ops[:TRACED_OPS]))


def _traced_units(workload) -> list[list[int]]:
    """Units among the first ``TRACED_OPS`` ops (one batch on ``sched_batch``)."""
    return [unit for unit in workload.units if unit[0] < TRACED_OPS]


def _trace_overhead(traced: list[float], untraced: list[float]) -> dict:
    """Traced full-op time over the same ops' untraced median, minus one."""
    share = sum(traced) / sum(untraced[: len(traced)]) - 1
    return {"harness.trace_overhead_share": share}


# --- ladders ----------------------------------------------------------------


def _page_ladder(tracer, op_id, parent, file, decode, predicate, attr_of):
    """Rungs read -> +CRC -> +decode -> +predicate over one paged file."""
    pages = range(file.num_pages)

    def read():
        for index in pages:
            file.read_page(index)

    def crc():
        for index in pages:
            sut.page_checksum(file.read_page(index))

    def decoded():
        for index in pages:
            decode(file.read_page(index))

    def filtered():
        for index in pages:
            predicate.evaluate(attr_of(decode(file.read_page(index))))

    count = {"pages": file.num_pages}
    return [
        tracer.timed(name, fn, op_id, parent, **count)
        for name, fn in (
            ("read", read),
            ("read+crc", crc),
            ("read+crc+decode", decoded),
            ("read+crc+decode+predicate", filtered),
        )
    ]


@measures(
    "storage.pagefile.read_ms",
    "storage.page.crc_ms",
    "storage.page.row_decode_ms",
    "storage.rowz.decode_ms",
    "engine.predicate.eval_ms",
    "engine.operators.scan_row.self_ms",
    "harness.trace_overhead_share",
)
def row_ladder(tracer, workload, m: Measurement) -> dict:
    """``row_plain`` / ``row_z``: the four page rungs, then the full scan."""
    steps = {key: [] for key in ("read", "crc", "decode", "predicate", "self", "full")}
    for op_id, op in _traced_ops(workload):
        table = workload.tables[op.target]
        attr = op.pred[0]
        with tracer.span("ladder", op_id) as parent:
            read, crc, decode, predicate = _page_ladder(
                tracer,
                op_id,
                parent,
                table.file,
                table.page_codec.decode_columns,
                predicate_of(op.pred),
                lambda decoded: decoded[2][attr],
            )
            full = tracer.timed("op", lambda: workload.execute(op), op_id, parent)
        for key, value in zip(
            steps,
            (read, crc - read, decode - crc, predicate - decode, full - predicate, full),
        ):
            steps[key].append(value)
    decode_name = (
        "storage.rowz.decode_ms" if workload.compressed else "storage.page.row_decode_ms"
    )
    return {
        "storage.pagefile.read_ms": _mean_ms(steps["read"]),
        "storage.page.crc_ms": _mean_ms(steps["crc"]),
        decode_name: _mean_ms(steps["decode"]),
        "engine.predicate.eval_ms": _mean_ms(steps["predicate"]),
        "engine.operators.scan_row.self_ms": _mean_ms(steps["self"]),
        **_trace_overhead(steps["full"], m.op_medians()),
    }


@measures(
    "storage.pagefile.read_ms",
    "storage.page.crc_ms",
    "storage.page.col_decode_ms",
    "engine.predicate.eval_ms",
    "engine.operators.scan_column.self_ms",
    "engine.operators.scan_column.per_extra_column_ms",
    "harness.trace_overhead_share",
)
def column_ladder(tracer, workload, m: Measurement) -> dict:
    """``col_scan``: page rungs over the dense first node, then the rest.

    The first scan node reads the predicate column densely; every
    further column is position-driven, and its cost is what
    ``per_extra_column_ms`` charges.
    """
    steps = {key: [] for key in ("read", "crc", "decode", "predicate", "self", "full")}
    extra_seconds = 0.0
    extra_columns = 0
    for op_id, op in _traced_ops(workload):
        table = workload.tables[op.target]
        attr = op.pred[0]
        column_file = table.column_file(attr)
        narrow = Op(op.kind, op.target, (attr,), op.pred)
        with tracer.span("ladder", op_id) as parent:
            read, crc, decode, predicate = _page_ladder(
                tracer,
                op_id,
                parent,
                column_file.file,
                column_file.page_codec.decode,
                predicate_of(op.pred),
                lambda decoded: decoded[1],
            )
            first = tracer.timed(
                "first-node", lambda: workload.execute(narrow), op_id, parent
            )
            full = tracer.timed("op", lambda: workload.execute(op), op_id, parent)
        for key, value in zip(
            steps,
            (read, crc - read, decode - crc, predicate - decode, first - predicate, full),
        ):
            steps[key].append(value)
        if len(op.select) > 1:
            extra_seconds += full - first
            extra_columns += len(op.select) - 1
    return {
        "storage.pagefile.read_ms": _mean_ms(steps["read"]),
        "storage.page.crc_ms": _mean_ms(steps["crc"]),
        "storage.page.col_decode_ms": _mean_ms(steps["decode"]),
        "engine.predicate.eval_ms": _mean_ms(steps["predicate"]),
        "engine.operators.scan_column.self_ms": _mean_ms(steps["self"]),
        "engine.operators.scan_column.per_extra_column_ms": (
            _ms(extra_seconds / extra_columns) if extra_columns else 0.0
        ),
        **_trace_overhead(steps["full"], m.op_medians()),
    }


@measures(
    "engine.operators.aggregate.self_ms",
    "engine.operators.sort.self_ms",
    "engine.operators.merge_join.self_ms",
    "engine.parallel.dispatch_ms",
    "engine.parallel.speedup_w2",
    "harness.trace_overhead_share",
)
def analytic_ladder(tracer, workload, m: Measurement) -> dict:
    """Scan -> serial plan -> inline partitions -> two workers, per op."""
    table = workload.tables["LINEITEM"]
    above = {"agg": [], "sort": [], "join": []}
    dispatch, serial_total, parallel_total, fulls = [], 0.0, 0.0, []
    for op_id, op in _traced_ops(workload):
        query = scan_query(op)
        with tracer.span("ladder", op_id) as parent:
            scan = tracer.timed("scan", lambda: sut.run_scan(table, query), op_id, parent)
            full = tracer.timed("op", lambda: workload.execute(op), op_id, parent)
            fulls.append(full)
            if op.kind == "join":
                left = workload.left_query(op)
                scan += tracer.timed(
                    "scan-left",
                    lambda: sut.run_scan(workload.tables["ORDERS"], left),
                    op_id,
                    parent,
                )
                above["join"].append(full - scan)
                continue
            shape = parallel_shape(op)
            if op.kind == "topn":
                continue  # no serial plan builder is exported for top-N
            if op.kind == "agg":
                serial = tracer.timed(
                    "serial-plan",
                    lambda: sut.execute_plan(
                        sut.aggregate_plan(
                            sut.ExecutionContext(),
                            table,
                            query,
                            shape["aggregate"],
                            sort_based=shape["sort_based"],
                        )
                    ),
                    op_id,
                    parent,
                )
                above["sort" if shape["sort_based"] else "agg"].append(serial - scan)
            else:
                serial = scan
            inline = tracer.timed(
                "inline-partitions",
                lambda: sut.parallel_query(table, query, workers=1, **shape),
                op_id,
                parent,
            )
            dispatch.append(inline - serial)
            serial_total += serial
            parallel_total += full
    return {
        "engine.operators.aggregate.self_ms": _mean_ms(above["agg"]),
        "engine.operators.sort.self_ms": _mean_ms(above["sort"]),
        "engine.operators.merge_join.self_ms": _mean_ms(above["join"]),
        "engine.parallel.dispatch_ms": _mean_ms(dispatch),
        "engine.parallel.speedup_w2": (
            serial_total / parallel_total if parallel_total else 0.0
        ),
        **_trace_overhead(fulls, m.op_medians()),
    }


def _solo(table, query, share: bool):
    scheduler = sut.Scheduler(share_scans=share)
    handle = scheduler.submit(table, query)
    scheduler.run()
    return handle.value()


@measures(
    "database.facade_ms",
    "engine.scheduler.solo_overhead_ms",
    "engine.sharing.solo_delta_ms",
)
def scheduler_ladder(tracer, workload, m: Measurement) -> dict:
    """One query: bare scan -> facade -> scheduler (sharing off, then on)."""
    table = workload.tables["ORDERS"]
    facade, solo, delta = [], [], []
    for op_id, op in _traced_ops(workload):
        query = scan_query(op)
        predicates = (predicate_of(op.pred),)
        with tracer.span("ladder", op_id) as parent:
            scan = tracer.timed("scan", lambda: sut.run_scan(table, query), op_id, parent)
            via_db = tracer.timed(
                "facade",
                lambda: workload.db.query("ORDERS", op.select, predicates),
                op_id,
                parent,
            )
            off = tracer.timed(
                "scheduler", lambda: _solo(table, query, False), op_id, parent
            )
            on = tracer.timed(
                "scheduler+sharing", lambda: _solo(table, query, True), op_id, parent
            )
        facade.append(via_db - scan)
        solo.append(off - scan)
        delta.append(on - off)
    return {
        "database.facade_ms": _mean_ms(facade),
        "engine.scheduler.solo_overhead_ms": _mean_ms(solo),
        "engine.sharing.solo_delta_ms": _mean_ms(delta),
    }


@measures(
    "engine.scheduler.qps_c1",
    "engine.scheduler.qps_c16",
    "engine.sharing.off_qps_c64",
    "engine.sharing.hit_ratio",
    "engine.sharing.io_saved_share",
    "engine.scheduler.queue_wait_p90_ms",
    "engine.scheduler.latency_p95_ms",
    "harness.trace_overhead_share",
)
def scheduler_probes(tracer, workload, m: Measurement) -> dict:
    """Batches of 1, 16 and 64 (sharing off), plus the measured passes' counts."""
    db = workload.db
    first = workload.units[0]
    traced = tracer.timed("op", lambda: workload.run_unit(first), first[0])
    ones = sum(
        tracer.timed("batch-1", lambda: db.run_workload(workload.requests([i])), i)
        for i in first[:16]
    )
    sixteen = tracer.timed(
        "batch-16", lambda: db.run_workload(workload.requests(first[:16]))
    )
    off_info: dict = {}
    off = tracer.timed(
        "batch-64-sharing-off",
        lambda: db.run_workload(
            workload.requests(first), share_scans=False, info=off_info
        ),
        reps=1,
    )
    last = m.passes[-1]
    hits = sum(c["share_hits"] for c in last.counts)
    misses = sum(c["share_misses"] for c in last.counts)
    return {
        "engine.scheduler.qps_c1": 16 / ones,
        "engine.scheduler.qps_c16": 16 / sixteen,
        "engine.sharing.off_qps_c64": len(first) / off,
        "engine.sharing.hit_ratio": hits / (hits + misses),
        "engine.sharing.io_saved_share": (
            1 - last.counts[0]["modeled_io_bytes"] / off_info["modeled_io_bytes"]
        ),
        "engine.scheduler.queue_wait_p90_ms": _ms(stats.percentile(last.op_waits, 90)),
        "engine.scheduler.latency_p95_ms": stats.percentile(
            [_ms(s) for s in m.op_medians()], 95
        ),
        **_trace_overhead([traced], m.unit_medians()),
    }


@measures(
    "storage.write_store.insert_krows_per_s",
    "storage.delete_vector.delete_kpos_per_s",
    "database.merge_krows_per_s",
    "database.predicate_delete_ms",
    "database.facade_ms",
    "engine.hybrid.union_penalty_ms",
    "engine.hybrid.overlay_penalty_ms",
    "engine.hybrid.union_penalty_ms_per_kstaged",
    "harness.trace_overhead_share",
)
def hybrid_probes(tracer, workload, m: Measurement) -> dict:
    """Replay the first rounds; after each merge, time the same reads clean."""
    db, table = workload.db, workload.table
    totals = dict.fromkeys(("insert", "delete", "purge", "merge"), 0.0)
    writes = deleted = merged_rows = 0
    dirty_union, dirty_overlay, staged = [], [], []
    clean_union, clean_overlay, facade, purges, fulls = [], [], [], [], []
    for unit in _traced_units(workload):
        op_id = unit[0]
        op = workload.ops[op_id]
        slowdown = tracer.yard.sample()
        with tracer.span("op", op_id, slowdown=slowdown) as parent:
            run = workload.run_unit(unit)
        fulls.append(at_speed_1(run.seconds, run.cpu_seconds, slowdown))
        begin = tracer.spans[parent]["start"]
        for name, seconds in run.counts["steps"].items():
            # The round's own sub-steps, re-based onto the tracer's clock.
            tracer.add(name, begin, begin + seconds, op_id, parent, slowdown=slowdown)
            begin += seconds
        steps = {
            name: seconds / slowdown for name, seconds in run.counts["steps"].items()
        }
        totals["insert"] += steps["insert"]
        totals["delete"] += steps["delete"]
        writes += run.counts["writes"]
        deleted += run.counts["deleted"]
        dirty_union.append(steps["union"])
        dirty_overlay.append(steps["overlay"])
        staged.append(run.counts["staged"] / 1e3)
        if "merge" not in steps:
            continue
        totals["merge"] += steps["merge"]
        purges.append(steps["purge"])
        merged_rows += db.table(table).num_rows
        predicates = (predicate_of(op.pred),)
        column = db.table(table, sut.Layout.COLUMN)
        union = tracer.timed(
            "clean-union",
            lambda: db.query(table, op.select, predicates, layout=sut.Layout.COLUMN),
            op_id,
        )
        clean_union.append(union)
        clean_overlay.append(
            tracer.timed(
                "clean-overlay",
                lambda: db.run_workload(
                    workload.overlay_requests(op), layout=sut.Layout.ROW
                ),
                op_id,
            )
        )
        scan = tracer.timed(
            "clean-scan", lambda: sut.run_scan(column, scan_query(op)), op_id
        )
        facade.append(union - scan)
    return {
        "storage.write_store.insert_krows_per_s": writes / totals["insert"] / 1e3,
        "storage.delete_vector.delete_kpos_per_s": deleted / totals["delete"] / 1e3,
        "database.merge_krows_per_s": merged_rows / totals["merge"] / 1e3,
        "database.predicate_delete_ms": _mean_ms(purges),
        "database.facade_ms": _mean_ms(facade),
        "engine.hybrid.union_penalty_ms": _mean_ms(dirty_union) - _mean_ms(clean_union),
        "engine.hybrid.overlay_penalty_ms": (
            _mean_ms(dirty_overlay) - _mean_ms(clean_overlay)
        ),
        "engine.hybrid.union_penalty_ms_per_kstaged": _ms(
            stats.slope(staged, dirty_union)
        ),
        **_trace_overhead(fulls, m.op_medians()),
    }


# --- micro probes -------------------------------------------------------------


@measures("storage.loader.row_load_mrows_per_s", "storage.loader.col_load_mrows_per_s")
def loader_probe(tracer, data) -> dict:
    out = {}
    for key, layout in (("row", sut.Layout.ROW), ("col", sut.Layout.COLUMN)):
        seconds = tracer.timed(
            f"load-{key}",
            lambda: sut.load_table(data, layout),
            reps=MICRO_REPS,
            rows=data.num_rows,
        )
        out[f"storage.loader.{key}_load_mrows_per_s"] = data.num_rows / seconds / 1e6
    return out


@measures("storage.persist.save_mb_per_s", "storage.persist.open_mb_per_s")
def persist_probe(tracer, data, directory: pathlib.Path) -> dict:
    table = sut.load_table(data, sut.Layout.COLUMN)
    target = directory / "persist-probe"
    try:
        save = tracer.timed("save", lambda: sut.save_table(table, target), reps=MICRO_REPS)
        opened = tracer.timed("open", lambda: sut.open_table(target), reps=MICRO_REPS)
    finally:
        shutil.rmtree(target, ignore_errors=True)
    megabytes = table.total_bytes / 1e6
    return {
        "storage.persist.save_mb_per_s": megabytes / save,
        "storage.persist.open_mb_per_s": megabytes / opened,
    }


@measures(*(name for name in PER_LAYER if name.startswith("compression.")))
def codec_probe(tracer, seed: int, count: int) -> dict:
    """Each codec's page-at-a-time decode rate, measured on its own.

    Pages hold what a 4 KB column page holds for that codec: the rate
    includes the per-page dispatch the scanners pay today.
    """
    rng = np.random.default_rng([seed, 0xC0DEC])
    columns = {
        "pack": (sut.CodecKind.PACK, rng.integers(0, 1 << 11, count)),
        "dict": (sut.CodecKind.DICT, rng.integers(0, 11, count) * 7919),
        "for": (sut.CodecKind.FOR, 1_000_000 + rng.integers(0, 60_000, count)),
        "for-delta": (sut.CodecKind.FOR_DELTA, np.cumsum(rng.integers(1, 5, count))),
    }
    payload = sut.page_payload_bytes(4096)
    out = {}
    encode_seconds = 0.0
    for key, (kind, values) in columns.items():
        codec = sut.build_codec_for_values(kind, sut.IntType(), values)
        per_page = codec.values_per_page(payload)
        chunks = [values[lo : lo + per_page] for lo in range(0, count, per_page)]
        pages: list = []

        def encode():
            pages[:] = [codec.encode_page(chunk) for chunk in chunks]

        def decode():
            for chunk, (data, state) in zip(chunks, pages):
                codec.decode_page(data, len(chunk), state)

        encode_seconds += tracer.timed(
            f"encode-{key}", encode, reps=MICRO_REPS, values=count
        )
        seconds = tracer.timed(f"decode-{key}", decode, reps=MICRO_REPS, values=count)
        out[f"compression.{key}.decode_mvals_per_s"] = count / seconds / 1e6
    out["compression.encode_mvals_per_s"] = len(columns) * count / encode_seconds / 1e6

    bits = 11
    values = columns["pack"][1]
    per_page = payload * 8 // bits
    packed = [
        (sut.pack_bits(values[lo : lo + per_page], bits), len(values[lo : lo + per_page]))
        for lo in range(0, count, per_page)
    ]

    def unpack():
        for data, length in packed:
            sut.unpack_bits(data, bits, length)

    seconds = tracer.timed("unpack-bits", unpack, reps=MICRO_REPS, values=count)
    out["compression.unpack_bits_mvals_per_s"] = count / seconds / 1e6
    return out


def reference_probes(probes: Probes, tracer, data) -> None:
    """ROADMAP's reference query — 4 attributes, 10 % on L_PARTKEY — per path."""
    names = ("L_PARTKEY", "L_ORDERKEY", "L_SUPPKEY", "L_LINENUMBER")
    cut = int(np.sort(data.column("L_PARTKEY"))[data.num_rows // 10])
    op = Op("scan", "LINEITEM", names, ("L_PARTKEY", cut))
    query = scan_query(op)

    def path(name, layout: str, compressed=False, scan_args=dict):
        # Layout and scan arguments are looked up inside the probe, so a
        # path that has been deleted nulls this metric and nothing else.
        def run():
            source = sut.apply_fig5_compression(data) if compressed else data
            table = sut.load_table(source, getattr(sut.Layout, layout))
            kwargs = scan_args()
            seconds = tracer.timed(
                name, lambda: sut.run_scan(table, query, **kwargs), reps=MICRO_REPS
            )
            return {name: _ms(seconds)}

        probes.run(run, names=(name,))

    path("engine.operators.scan_row.ref_ms", "ROW")
    path("engine.operators.scan_column.ref_ms", "COLUMN")
    path(
        "engine.operators.scan_fused.ref_ms",
        "COLUMN",
        scan_args=lambda: {"column_scanner": sut.ColumnScannerKind.FUSED},
    )
    path("engine.operators.scan_pax.ref_ms", "PAX")
    path(
        "engine.compressed_exec.ref_ms",
        "COLUMN",
        compressed=True,
        scan_args=lambda: {"context": sut.ExecutionContext(compressed_execution=True)},
    )


# --- whole-workload probes ------------------------------------------------------


def replay_seconds(workload, units, yard) -> float:
    """Total time of ``units`` on the workload's current (or fresh) state."""
    if workload.mutating:
        workload.setup()
    before = yard.sample()
    runs = [workload.run_unit(unit) for unit in units]
    slowdown = statistics.fmean((before, yard.sample()))
    return sum(at_speed_1(run.seconds, run.cpu_seconds, slowdown) for run in runs)


@measures("obs.overhead_share")
def obs_probe(tracer, workload, m: Measurement) -> dict:
    """The traced units with metrics and the flight recorder off, then on."""
    units = _traced_units(workload)
    arms = {"off": float("inf"), "on": float("inf")}
    for _ in range(LADDER_REPS):
        for arm in arms:
            if arm == "off":
                sut.metrics.disable()
                sut.recorder.disable()
            try:
                with tracer.span(f"obs-{arm}") as index:
                    seconds = replay_seconds(workload, units, tracer.yard)
                tracer.spans[index]["replayed_seconds"] = seconds
            finally:
                sut.metrics.enable()
                sut.recorder.enable()
            arms[arm] = min(arms[arm], seconds)
    return {"obs.overhead_share": (arms["on"] - arms["off"]) / arms["on"]}


@measures(*(name for name in PER_LAYER if name.startswith("cpusim.")))
def cpusim_probe(tracer, workload, m: Measurement) -> dict:
    """Exact event sums of one pass, and the modeled clock beside the real one."""
    total = sut.CostEvents()
    for events in m.passes[0].events:
        total.merge(events)
    modeled = sut.CpuModel().cpu_seconds(total)
    return {
        "cpusim.pages_touched": int(total.pages_touched),
        "cpusim.values_decoded": int(total.total_decodes()),
        "cpusim.values_copied": int(total.values_copied),
        "cpusim.blocks_produced": int(total.blocks_produced),
        "cpusim.modeled_cpu_s": modeled,
        "cpusim.modeled_over_measured": modeled / sum(m.unit_medians()),
    }


@measures(
    "engine.executor.mrows_per_s",
    "harness.pass_spread",
    "harness.machine_slowdown",
    "harness.machine_slowdown_swing",
)
def whole_run_probe(tracer, workload, m: Measurement) -> dict:
    """What the untraced passes say as a whole: the paper's unit, and the noise."""
    rows = sum(workload.rows_scanned(op) for op in workload.ops)
    totals = [sum(p.unit_seconds) for p in m.passes]
    slowdowns = [slowdown for _, slowdown in m.yard.samples]
    deciles = statistics.quantiles(slowdowns, n=10)
    return {
        "engine.executor.mrows_per_s": rows / sum(m.unit_medians()) / 1e6,
        "harness.pass_spread": max(totals) / min(totals) - 1,
        "harness.machine_slowdown": statistics.median(slowdowns),
        "harness.machine_slowdown_swing": deciles[-1] / deciles[0] - 1,
    }


#: The probes that need the workload's own ops and state, per workload.
WORKLOAD_PROBES = {
    "row_plain": (row_ladder,),
    "row_z": (row_ladder,),
    "col_scan": (column_ladder,),
    "analytic": (analytic_ladder,),
    "sched_batch": (scheduler_ladder, scheduler_probes),
    "hybrid_rw": (hybrid_probes,),
}


def layer_pass(m: Measurement, out_dir: pathlib.Path) -> tuple[dict, dict]:
    """Every per-layer metric for the measured workload; writes ``trace.json``.

    Returns ``(values, reasons)``: ``values[name]`` is a number, or
    ``None`` with ``reasons[name]`` saying why the probe had no target.
    """
    workload = m.workload
    name = workload.name
    tracer = Tracer(name, m.yard)
    probes = Probes()
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.setup()
    try:
        for probe in (
            *WORKLOAD_PROBES[name],
            obs_probe,
            cpusim_probe,
            whole_run_probe,
        ):
            probes.run(probe, tracer, workload, m)

        reference = sut.generate_lineitem(
            max(500, int(REFERENCE_ROWS * workload.scale)), seed=workload.seed
        )
        probes.run(loader_probe, tracer, reference)
        probes.run(persist_probe, tracer, reference, out_dir)
        probes.run(
            codec_probe,
            tracer,
            workload.seed,
            max(1 << 14, int(CODEC_VALUES * workload.scale)),
        )
        reference_probes(probes, tracer, reference)
    finally:
        workload.close()
    (out_dir / "trace.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": workload.seed,
                "oplist_hash": m.oplist_hash,
                "metrics": probes.values,
                "null_reasons": probes.reasons,
                "spans": tracer.spans,
            }
        )
        + "\n"
    )
    return probes.values, probes.reasons
