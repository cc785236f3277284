"""Golden pin of every scan strategy: events, bytes, blocks, corruption.

``build_cases()`` names every case of the matrix and how to run it;
``tests/test_scan_golden.py`` runs them and compares with
``tests/data/scan_golden.json``, which ``python tests/scan_golden.py``
(``make scan-golden``) wrote.  The JSON is never regenerated
automatically: a scan refactor must reproduce it unchanged, and a
deliberate accounting change regenerates it in the same commit.

Per case the pin holds the non-zero entries of ``events.as_dict()``, a
CRC of the positions and of every output column (name, dtype, bytes),
the count of logical blocks handed off, the row count, the corruption report
(``pages_scanned`` plus ``(file, page, rows_lost)`` per fault) and the
number of governance checkpoints passed.  Shared
cases pin both riders and the stream's own ``io_events``.
"""

from __future__ import annotations

import functools
import json
import pathlib
import zlib

import numpy as np

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.tpch import apply_fig5_compression, generate_lineitem
from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.governance import QueryContext
from repro.engine.plan import ColumnScannerKind, scan_plan
from repro.engine.predicate import ComparisonOp, Predicate, predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.sharing import SharedScanConsumer, SharedScanStream
from repro.errors import ReproError
from repro.index.scan import IndexScan
from repro.index.secondary import SecondaryIndex
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "scan_golden.json"

ROWS = 3_000
SEED = 20060912
WINDOWS = {
    "all": None,
    "interior": (137, 2011),
    "overhang": (2990, 5000),
    "empty": (50, 50),
}
#: scanner name -> (layout, column-scanner kind)
SCANNERS = {
    "row": (Layout.ROW, ColumnScannerKind.PIPELINED),
    "pax": (Layout.PAX, ColumnScannerKind.PIPELINED),
    "pipelined": (Layout.COLUMN, ColumnScannerKind.PIPELINED),
    "fused": (Layout.COLUMN, ColumnScannerKind.FUSED),
}
SELECTIVITIES = {"0.1pct": 0.001, "10pct": 0.1, "100pct": 1.0}
CORRUPT_PAGES = (1, 5)
#: Calibration overrides of the page-at-a-time scan: a one-page I/O
#: unit, and one unit to a row, PAX or column scan's read.
PAGE_AT_A_TIME = {"io_unit_bytes": 4096, "default_prefetch_depth": 1}


@functools.lru_cache(maxsize=None)
def _data(dataset: str):
    plain = generate_lineitem(ROWS, seed=SEED)
    return apply_fig5_compression(plain) if dataset == "z" else plain


@functools.lru_cache(maxsize=None)
def _table(dataset: str, layout: Layout, corrupt: bool = False):
    """A loaded table; ``corrupt`` bit-flips pages 1 and 5 of every file.

    The flips are applied on read at a fixed byte and bit, so one
    wrapped table serves every case identically.
    """
    table = load_table(_data(dataset), layout)
    if corrupt:
        plan = FaultPlan(seed=7)
        for page in CORRUPT_PAGES:
            plan.schedule_bit_flip(page, byte=11, bit=3)
        plan.wrap_table(table)
    return table


def _queries(dataset: str) -> dict[str, ScanQuery]:
    """Nine scan shapes over LINEITEM (see the module docstring)."""
    columns = _data(dataset).columns
    name = _data(dataset).schema.name
    queries: dict[str, ScanQuery] = {}
    for label, selectivity in SELECTIVITIES.items():
        first = predicate_for_selectivity(
            "L_PARTKEY", columns["L_PARTKEY"], selectivity
        )
        queries[f"one-{label}"] = ScanQuery(
            name,
            select=("L_PARTKEY", "L_ORDERKEY", "L_QUANTITY", "L_SHIPDATE"),
            predicates=(first,),
        )
        # Second predicate on a different attribute that is *not*
        # selected; a text column rides in the select list.
        second = predicate_for_selectivity(
            "L_EXTENDEDPRICE", columns["L_EXTENDEDPRICE"], max(selectivity, 0.5)
        )
        queries[f"two-{label}"] = ScanQuery(
            name,
            select=("L_ORDERKEY", "L_SHIPMODE", "L_PARTKEY", "L_DISCOUNT"),
            predicates=(first, second),
        )
    queries["all16"] = ScanQuery(name, select=tuple(columns))
    # Two predicates on the same (FOR-delta in -Z) attribute.
    keys = columns["L_ORDERKEY"]
    queries["band"] = ScanQuery(
        name,
        select=("L_ORDERKEY", "L_COMMENT"),
        predicates=(
            Predicate("L_ORDERKEY", ComparisonOp.GE, int(np.quantile(keys, 0.3))),
            Predicate("L_ORDERKEY", ComparisonOp.LT, int(np.quantile(keys, 0.6))),
        ),
    )
    # A text predicate whose attribute is not projected.
    queries["text"] = ScanQuery(
        name,
        select=("L_LINENUMBER", "L_TAX"),
        predicates=(Predicate("L_RETURNFLAG", ComparisonOp.EQ, b"R"),),
    )
    return queries


def _code_queries() -> dict[str, ScanQuery]:
    """Predicates on DICT columns of LINEITEM-Z (compressed execution)."""
    columns = _data("z").columns
    discount = predicate_for_selectivity("L_DISCOUNT", columns["L_DISCOUNT"], 0.3)
    tax = predicate_for_selectivity("L_TAX", columns["L_TAX"], 0.5)
    return {
        "dict-selected": ScanQuery(
            "LINEITEM-Z", select=("L_DISCOUNT", "L_PARTKEY"), predicates=(discount,)
        ),
        "dict-unselected": ScanQuery(
            "LINEITEM-Z", select=("L_PARTKEY", "L_SHIPMODE"), predicates=(tax,)
        ),
        "dict-two-on-one": ScanQuery(
            "LINEITEM-Z",
            select=("L_DISCOUNT", "L_TAX"),
            predicates=(discount, Predicate("L_DISCOUNT", ComparisonOp.NE, 3)),
        ),
        "dict-then-plain": ScanQuery(
            "LINEITEM-Z",
            select=("L_TAX", "L_ORDERKEY"),
            predicates=(
                tax,
                predicate_for_selectivity("L_PARTKEY", columns["L_PARTKEY"], 0.4),
            ),
        ),
        # No predicate at all: the flag must change nothing.
        "dict-no-predicate": ScanQuery(
            "LINEITEM-Z", select=("L_DISCOUNT", "L_TAX", "L_RETURNFLAG")
        ),
        "dict-constant-false": ScanQuery(
            "LINEITEM-Z",
            select=("L_DISCOUNT",),
            predicates=(Predicate("L_DISCOUNT", ComparisonOp.LT, -1),),
        ),
    }


# --- what is pinned ---------------------------------------------------------


def _events(events) -> dict:
    return {name: count for name, count in events.as_dict().items() if count}


def _digest(block) -> str:
    crc = zlib.crc32(str(block.positions.dtype).encode())
    crc = zlib.crc32(np.ascontiguousarray(block.positions).tobytes(), crc)
    for name, column in block.columns.items():
        crc = zlib.crc32(f"{name}:{column.dtype}".encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(column).tobytes(), crc)
    return f"{crc:08x}"


def _record(context: ExecutionContext, blocks) -> dict:
    merged = concat_blocks(blocks)
    corruption = context.corruption
    return {
        "events": _events(context.events),
        "digest": _digest(merged),
        # Logical blocks handed off; a batch with no tuple is one hand-off.
        "blocks": sum(max(1, block.num_blocks) for block in blocks),
        "rows": len(merged),
        "pages_scanned": corruption.pages_scanned,
        "faults": [[f.file, f.page, f.rows_lost] for f in corruption.faults],
        # Governance checkpoints passed: where a cancel or deadline can land.
        "ticks": context.governance.ticks,
    }


def _context(salvage: bool = False, compressed_execution: bool = False, **overrides):
    """``overrides`` are calibration fields (:data:`PAGE_AT_A_TIME`: page at a time)."""
    return ExecutionContext(
        calibration=DEFAULT_CALIBRATION.with_overrides(**overrides),
        strict_integrity=not salvage,
        compressed_execution=compressed_execution,
        governance=QueryContext(),
    )


def _run_scan(
    dataset, scanner, query, window, corrupt=False, **context_args
) -> dict:
    layout, kind = SCANNERS[scanner]
    context = _context(**context_args)
    plan = scan_plan(
        context, _table(dataset, layout, corrupt), query, kind, row_range=window
    )
    return _record(context, plan.drain())


def _run_strict(dataset, scanner, query) -> dict:
    """Strict integrity over corrupt pages: only the error type is pinned."""
    try:
        _run_scan(dataset, scanner, query, None, corrupt=True)
    except ReproError as exc:
        return {"raises": type(exc).__name__}
    return {"raises": None}


def _run_shared(dataset, layout, first_query, second_query, salvage: bool) -> dict:
    """Two riders on one stream; the second attaches after 3 pumps.

    Salvage runs read the corrupt table, clean runs the clean one.
    """
    table = _table(dataset, layout, corrupt=salvage)
    attrs = tuple(
        dict.fromkeys(first_query.scan_attributes() + second_query.scan_attributes())
    )
    stream = SharedScanStream(table, attrs, strict_integrity=not salvage)
    first = SharedScanConsumer(_context(salvage), stream, first_query)
    first.open()
    for _ in range(3):
        first.advance()
    second = SharedScanConsumer(_context(salvage), stream, second_query)
    second.open()
    riders = {}
    for label, rider in (("first", first), ("second", second)):
        blocks = []
        while (block := rider.next()) is not None:
            blocks.append(block)
        rider.close()
        riders[label] = _record(rider.context, blocks)
        riders[label]["attach_cursor"] = rider.attach_cursor
    return {
        "segments": stream.num_segments,
        "io_events": _events(stream.io_events),
        **riders,
    }


def _run_shared_strict(dataset, layout, query) -> dict:
    """Strict riders over corrupt pages: the stream fails, every rider raises."""
    stream = SharedScanStream(
        _table(dataset, layout, corrupt=True),
        query.scan_attributes(),
        strict_integrity=True,
    )
    riders = [SharedScanConsumer(_context(), stream, query) for _ in range(2)]
    raised = []
    for rider in riders:
        rider.open()
        try:
            while rider.next() is not None:
                pass
        except ReproError as exc:
            raised.append(type(exc).__name__)
    return {
        "raises": raised,
        "failed": type(stream.failed).__name__,
        "cursor": stream.cursor,
        "io_events": _events(stream.io_events),
    }


def _run_index(dataset: str, predicate: Predicate, select) -> dict:
    table = _table(dataset, Layout.ROW)
    index = SecondaryIndex(predicate.attr, _data(dataset).columns[predicate.attr])
    context = _context()
    plan = IndexScan(context, table, index, predicate, select)
    return _record(context, plan.drain())


# --- the matrix -------------------------------------------------------------


def build_cases() -> dict[str, "functools.partial[dict]"]:
    """``case id -> zero-argument callable returning the pinned record``."""
    case = functools.partial
    cases: dict[str, functools.partial] = {}
    for dataset in ("plain", "z"):
        queries = _queries(dataset)
        for scanner in SCANNERS:
            for qname, query in queries.items():
                for wname, window in WINDOWS.items():
                    cases[f"clean/{scanner}/{dataset}/{qname}/{wname}"] = case(
                        _run_scan, dataset, scanner, query, window
                    )
                for wname in ("all", "interior"):
                    cases[f"salvage/{scanner}/{dataset}/{qname}/{wname}"] = case(
                        _run_scan, dataset, scanner, query, WINDOWS[wname],
                        corrupt=True, salvage=True,
                    )
            cases[f"strict/{scanner}/{dataset}"] = case(
                _run_strict, dataset, scanner, queries["one-10pct"]
            )
        for label, selectivity in SELECTIVITIES.items():
            predicate = predicate_for_selectivity(
                "L_PARTKEY", _data(dataset).columns["L_PARTKEY"], selectivity
            )
            cases[f"index/{dataset}/{label}"] = case(
                _run_index, dataset, predicate, ("L_PARTKEY", "L_SHIPMODE", "L_TAX")
            )

        # Two riders on one shared stream.
        pairs = {
            "same": ("one-10pct", "one-10pct"),
            "narrow-wide": ("two-0.1pct", "all16"),
            "band-text": ("band", "text"),
            "wide-narrow": ("all16", "one-100pct"),
        }
        for layout in (Layout.ROW, Layout.PAX, Layout.COLUMN):
            for pname, (first, second) in pairs.items():
                for mode, salvage in (("clean", False), ("salvage", True)):
                    cases[f"shared/{layout.name}/{dataset}/{pname}/{mode}"] = case(
                        _run_shared, dataset, layout,
                        queries[first], queries[second], salvage,
                    )

            cases[f"shared-strict/{layout.name}/{dataset}"] = case(
                _run_shared_strict, dataset, layout, queries["two-10pct"]
            )

    # compressed_execution=True with predicates on DICT columns; only
    # the pipelined scanner acts on the flag, the others must ignore it.
    for scanner in SCANNERS:
        for qname, query in _code_queries().items():
            for wname, window in WINDOWS.items():
                cases[f"codes/{scanner}/{qname}/{wname}"] = case(
                    _run_scan, "z", scanner, query, window, compressed_execution=True
                )
            cases[f"codes-salvage/{scanner}/{qname}"] = case(
                _run_scan, "z", scanner, query, None,
                corrupt=True, salvage=True, compressed_execution=True,
            )
    return cases


def main() -> int:
    cases = build_cases()
    golden = {case_id: run() for case_id, run in cases.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    lines = [  # one case per line, so a moved event is a one-line diff
        f"{json.dumps(case_id)}:{json.dumps(golden[case_id], sort_keys=True, separators=(',', ':'))}"
        for case_id in sorted(golden)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
