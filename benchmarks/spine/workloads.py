"""The six workloads: seeded inputs, op lists, execution and expected results.

A workload owns one *op list* — fixed by the seed, identical on every
pass — grouped into *units* (the unit is one op everywhere except
``sched_batch``, where it is one 64-query batch).  ``setup()`` rebuilds
everything a pass needs from the seed (data, freshly loaded tables, the
op list, pools, warm-up) and is what ``setup_s`` times; ``run_unit()``
is what the latency metrics time; ``expected()`` is the numpy oracle.

Op lists are *stratified*, not sampled.  The seed decides the data, one
log-uniform selectivity draw inside each stratum (hence every predicate
constant) and the order of the ops; which attributes an op projects, how
many, and which kind of op it is are functions of the stratum index
alone.  Every value moves with the seed, yet two seeds give the same
latency *distribution* — measured on ``col_scan``, sampling the
attributes too moved ``ops_per_s`` by 18 % between seeds, against 7 %
between runs of one seed.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

import adapter as sut
import oracle
from yardstick import Stopwatch

#: Integer attributes with thousands of distinct values: a quantile
#: threshold on them achieves the selectivity that was drawn.
LINEITEM_PRED_ATTRS = (
    "L_PARTKEY",
    "L_ORDERKEY",
    "L_SUPPKEY",
    "L_EXTENDEDPRICE",
    "L_SHIPDATE",
    "L_COMMITDATE",
    "L_RECEIPTDATE",
)
OPS_PER_PASS = 120
WARMUP_OPS = 3


@dataclass(frozen=True)
class Op:
    """One timed operation, as plain values (so the list hashes stably)."""

    kind: str
    target: str
    select: tuple[str, ...]
    pred: tuple[str, int]
    args: tuple = ()


@dataclass
class UnitRun:
    """What one executed unit reports back to the measuring loop."""

    seconds: float
    #: CPU seconds of this process inside the timed span (the rest is waiting).
    cpu_seconds: float
    latencies: list[float]
    digests: list
    events: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Per op, how long it waited before it started (scheduled ops only).
    waits: list[float] = field(default_factory=list)


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _stratified_log(rng: np.random.Generator, count: int, lo: float, hi: float):
    """One log-uniform draw from each of ``count`` strata of ``[lo, hi]``."""
    u = (np.arange(count) + rng.random(count)) / count
    return lo * (hi / lo) ** u


def _sorted_columns(data, attrs) -> dict[str, np.ndarray]:
    """Each attribute's values in order, for picking quantile thresholds."""
    return {attr: np.sort(data.column(attr)) for attr in attrs}


def predicate_of(pred: tuple[str, int]):
    return sut.Predicate(pred[0], sut.ComparisonOp.LE, pred[1])


def scan_query(op: Op) -> "sut.ScanQuery":
    return sut.ScanQuery(op.target, select=op.select, predicates=(predicate_of(op.pred),))


def result_digest(result) -> oracle.Digest:
    return oracle.digest(result.positions, result.columns)


def scan_ops(
    rng: np.random.Generator,
    data,
    targets: tuple[str, ...],
    count: int,
    selectivity: tuple[float, float],
    max_attrs: int,
) -> list[Op]:
    """The paper's template — ``select A1..Ak where A1 <= c`` — ``count`` times.

    Stratum ``i`` fixes the selectivity band; strides coprime with the
    cycle lengths spread projectivity, predicate attribute, projected
    attributes and target table evenly over the bands, so every seed
    covers the selectivity x projectivity plane the same way.
    """
    names = data.schema.attribute_names
    sorted_cols = _sorted_columns(data, LINEITEM_PRED_ATTRS)
    sels = _stratified_log(rng, count, *selectivity)
    ops = []
    for i in range(count):
        block = i // max_attrs
        width = 1 + (i * 7 + block) % max_attrs
        attr = LINEITEM_PRED_ATTRS[(i * 3) % len(LINEITEM_PRED_ATTRS)]
        start = (i * 5 + block) % len(names)
        rotated = names[start:] + names[:start]
        others = [name for name in rotated if name != attr][: width - 1]
        ops.append(
            Op(
                kind="scan",
                target=targets[block % len(targets)],
                select=(attr, *others),
                pred=(attr, oracle.threshold(sorted_cols[attr], sels[i])),
            )
        )
    return [ops[i] for i in rng.permutation(count)]


class Workload:
    """Base: one op per unit, ops are plain scans through ``run_scan``."""

    name = ""
    #: Rows of the driving table at scale 1 (frozen; see BENCHMARK.json).
    rows = 0
    #: Whether ops change the tables (a replay then needs a fresh set-up).
    mutating = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.num_rows = max(200, int(self.rows * scale))
        self.ops: list[Op] = []
        self.units: list[list[int]] = []
        self.tables: dict = {}
        self.data: dict = {}

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Everything a pass needs, rebuilt from the seed (timed as set-up)."""
        self.units = []
        self.build()
        if not self.units:
            self.units = [[i] for i in range(len(self.ops))]
        self.warmup()

    def build(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        for op in self.ops[:WARMUP_OPS]:
            self.execute(op)

    def close(self) -> None:
        """Stop whatever the workload started (worker pools)."""

    # --- identity -----------------------------------------------------------

    def oplist_hash(self) -> str:
        return hashlib.sha256(repr(self.ops).encode()).hexdigest()[:16]

    def stored_bytes(self) -> int:
        return sum(table.total_bytes for table in self.tables.values())

    def user_bytes(self) -> int:
        return sum(
            table.num_rows * table.schema.tuple_width for table in self.tables.values()
        )

    def rows_scanned(self, op: Op) -> int:
        return self.tables[op.target].num_rows

    # --- execution ----------------------------------------------------------

    def execute(self, op: Op):
        return sut.run_scan(self.tables[op.target], scan_query(op))

    def run_unit(self, unit: list[int]) -> UnitRun:
        op = self.ops[unit[0]]
        with Stopwatch() as watch:
            result = self.execute(op)
        return UnitRun(
            watch.wall, watch.cpu, [watch.wall], [result_digest(result)], [result.events]
        )

    # --- oracle -------------------------------------------------------------

    def expected(self) -> list[oracle.Digest]:
        return [self.expect(op) for op in self.ops]

    def expect(self, op: Op) -> oracle.Digest:
        return oracle.digest(*oracle.scan(self.data[op.target].columns, op.select, op.pred))


class RowPlain(Workload):
    """The paper's baseline row store: every page read and decoded."""

    name = "row_plain"
    rows = 5_000
    selectivity = (0.001, 1.0)
    max_attrs = 16
    compressed = False

    def build(self) -> None:
        data = sut.generate_lineitem(self.num_rows, seed=self.seed)
        if self.compressed:
            data = sut.apply_fig5_compression(data)
        self.data = {"T": data}
        self.tables = {"T": sut.load_table(data, sut.Layout.ROW)}
        self.ops = scan_ops(
            _rng(self.seed, self.name),
            data,
            ("T",),
            OPS_PER_PASS,
            self.selectivity,
            self.max_attrs,
        )


class RowZ(RowPlain):
    """The same generator over LINEITEM-Z: the codecs' decode side."""

    name = "row_z"
    rows = 2_800
    compressed = True


class ColScan(Workload):
    """Pipelined column scans, alternating the plain and the Fig-5 table."""

    name = "col_scan"
    rows = 30_000
    selectivity = (0.001, 0.5)
    max_attrs = 8

    def build(self) -> None:
        plain = sut.generate_lineitem(self.num_rows, seed=self.seed)
        packed = sut.apply_fig5_compression(plain)
        self.data = {"plain": plain, "z": packed}
        self.tables = {
            key: sut.load_table(data, sut.Layout.COLUMN)
            for key, data in self.data.items()
        }
        self.ops = scan_ops(
            _rng(self.seed, self.name),
            plain,
            ("plain", "z"),
            OPS_PER_PASS,
            self.selectivity,
            self.max_attrs,
        )


# --- analytic ---------------------------------------------------------------

_GROUP_KEYS = (
    ("L_RETURNFLAG",),
    ("L_SHIPMODE",),
    ("L_LINENUMBER",),
    ("L_RETURNFLAG", "L_LINESTATUS"),
)
_FUNCTIONS = ("count", "sum", "min", "max", "avg")
_ARGUMENTS = ("L_QUANTITY", "L_EXTENDEDPRICE", "L_DISCOUNT")
_TOPN_KEYS = ("L_EXTENDEDPRICE", "L_SHIPDATE", "L_PARTKEY")
#: Half aggregates, a fifth each top-N and selections, a tenth joins —
#: dealt over the selectivity strata so each kind sees the whole range.
_KIND_CYCLE = (
    "agg", "topn", "agg", "scan", "agg", "join", "agg", "topn", "agg", "scan",
)


class Analytic(Workload):
    """What runs above a scan: aggregates, top-N, selections, a merge join."""

    name = "analytic"
    rows = 2_400  # LINEITEM rows; two orders for every seven of them
    workers = 2

    def build(self) -> None:
        sut.shutdown_pools()
        # Orders get 1-7 line items each (4 on average); taking the first
        # ``num_rows`` of them from 2/7 as many orders fixes the row count
        # for every seed, so ``stored_bytes_per_user_byte`` is one number.
        orders = sut.generate_orders(max(60, self.num_rows * 2 // 7), seed=self.seed)
        lineitem = sut.generate_lineitem(
            self.num_rows, seed=self.seed, order_keys=orders.column("O_ORDERKEY")
        )
        self.data = {"LINEITEM": lineitem, "ORDERS": orders}
        self.tables = {
            key: sut.load_table(data, sut.Layout.COLUMN)
            for key, data in self.data.items()
        }
        self.ops = self._ops(_rng(self.seed, self.name), lineitem, orders)

    def close(self) -> None:
        sut.shutdown_pools()

    def _ops(self, rng, lineitem, orders) -> list[Op]:
        count = OPS_PER_PASS
        sorted_cols = _sorted_columns(lineitem, LINEITEM_PRED_ATTRS)
        sels = _stratified_log(rng, count, 0.01, 0.5)
        order_totals = np.sort(orders.column("O_TOTALPRICE"))
        ops = []
        seen = dict.fromkeys(_KIND_CYCLE, 0)
        for i in range(count):
            kind = _KIND_CYCLE[i % len(_KIND_CYCLE)]
            # ``nth`` op of its kind: hash/sort-based aggregation and
            # ascending/descending top-N alternate, functions, group keys
            # and arguments cycle at coprime lengths.
            nth = seen[kind]
            seen[kind] += 1
            attr = LINEITEM_PRED_ATTRS[(i * 3) % len(LINEITEM_PRED_ATTRS)]
            pred = (attr, oracle.threshold(sorted_cols[attr], sels[i]))
            if kind == "agg":
                group_by = _GROUP_KEYS[(nth // 2) % len(_GROUP_KEYS)]
                function = _FUNCTIONS[nth % len(_FUNCTIONS)]
                argument = (
                    None if function == "count" else _ARGUMENTS[nth % len(_ARGUMENTS)]
                )
                select = group_by + ((argument,) if argument else ())
                args = (group_by, function, argument, nth % 2 == 1)
            elif kind == "topn":
                key = _TOPN_KEYS[nth % len(_TOPN_KEYS)]
                select = (key, "L_ORDERKEY")
                args = (key, 100, nth % 2 == 1)
            elif kind == "scan":
                select = (attr, "L_QUANTITY")
                args = ()
            else:
                select = ("L_ORDERKEY", "L_QUANTITY")
                left_pred = (
                    "O_TOTALPRICE",
                    oracle.threshold(order_totals, 0.1 + 0.8 * sels[i]),
                )
                args = (("O_ORDERKEY", "O_TOTALPRICE"), left_pred)
            ops.append(Op(kind, "LINEITEM", select, pred, args))
        return [ops[i] for i in rng.permutation(count)]

    @staticmethod
    def left_query(op: Op) -> "sut.ScanQuery":
        """The ORDERS side of a join op."""
        left_select, left_pred = op.args
        return sut.ScanQuery(
            "ORDERS", select=left_select, predicates=(predicate_of(left_pred),)
        )

    def execute(self, op: Op):
        table = self.tables["LINEITEM"]
        query = scan_query(op)
        if op.kind == "join":
            plan = sut.merge_join_plan(
                sut.ExecutionContext(),
                self.tables["ORDERS"],
                self.left_query(op),
                table,
                query,
                "O_ORDERKEY",
                "L_ORDERKEY",
            )
            return sut.execute_plan(plan)
        return sut.parallel_query(
            table, query, workers=self.workers, **parallel_shape(op)
        )

    def rows_scanned(self, op: Op) -> int:
        rows = self.tables["LINEITEM"].num_rows
        if op.kind == "join":
            rows += self.tables["ORDERS"].num_rows
        return rows

    def expect(self, op: Op) -> oracle.Digest:
        columns = self.data["LINEITEM"].columns
        if op.kind == "agg":
            group_by, function, argument, _sort_based = op.args
            out = oracle.aggregate(columns, op.pred, group_by, function, argument)
        elif op.kind == "topn":
            out = oracle.topn(columns, op.select, op.pred, *op.args)
        elif op.kind == "scan":
            out = oracle.scan(columns, op.select, op.pred)
        else:
            left_select, left_pred = op.args
            out = oracle.merge_join(
                self.data["ORDERS"].columns,
                left_select,
                left_pred,
                "O_ORDERKEY",
                columns,
                op.select,
                op.pred,
                "L_ORDERKEY",
            )
        return oracle.digest(*out)


def parallel_shape(op: Op) -> dict:
    """``parallel_query`` keyword arguments for one analytic op."""
    if op.kind == "agg":
        group_by, function, argument, sort_based = op.args
        spec = sut.AggregateSpec(
            group_by, sut.AggregateFunction(function), argument
        )
        return {"aggregate": spec, "sort_based": sort_based}
    if op.kind == "topn":
        return {"topn": op.args}
    return {}


# --- sched_batch ------------------------------------------------------------

_WIDE = ("O_ORDERKEY", "O_CUSTKEY", "O_TOTALPRICE", "O_ORDERDATE")
_NARROW = ("O_CUSTKEY", "O_TOTALPRICE")


class SchedBatch(Workload):
    """64 synchronized closed-loop clients through ``run_workload``."""

    name = "sched_batch"
    rows = 20_000
    clients = 64
    batches = 10

    def build(self) -> None:
        data = sut.generate_orders(self.num_rows, seed=self.seed)
        self.data = {"ORDERS": data}
        self.db = sut.Database(layouts=(sut.Layout.COLUMN,))
        self.db.create_table(data)
        self.tables = {"ORDERS": self.db.table("ORDERS")}
        rng = _rng(self.seed, self.name)
        sorted_cols = _sorted_columns(data, _WIDE)
        self.ops = []
        self.units = []
        for _batch in range(self.batches):
            sels = _stratified_log(rng, self.clients, 0.01, 0.5)
            # Three clients in four ask for the wide column set: two
            # shared streams per batch.
            shapes = [_NARROW if i % 4 == 3 else _WIDE for i in range(self.clients)]
            ops = []
            for i, select in enumerate(shapes):
                attr = select[(i // 4) % len(select)]
                pred = (attr, oracle.threshold(sorted_cols[attr], sels[i]))
                ops.append(Op("scan", "ORDERS", select, pred))
            first = len(self.ops)
            self.ops += [ops[i] for i in rng.permutation(self.clients)]
            self.units.append(list(range(first, len(self.ops))))

    def requests(self, indices: list[int]) -> list:
        return [
            sut.WorkloadQuery(
                "ORDERS",
                select=self.ops[i].select,
                predicates=(predicate_of(self.ops[i].pred),),
            )
            for i in indices
        ]

    def warmup(self) -> None:
        self.db.run_workload(self.requests(list(range(WARMUP_OPS))))

    def run_unit(self, unit: list[int]) -> UnitRun:
        requests = self.requests(unit)
        info: dict = {}
        with Stopwatch() as watch:
            handles = self.db.run_workload(requests, info=info)
        digests = [
            result_digest(handle.result) if handle.error is None else None
            for handle in handles
        ]
        return UnitRun(
            watch.wall,
            watch.cpu,
            [handle.latency for handle in handles],
            digests,
            [handle.result.events for handle in handles if handle.error is None],
            counts={
                key: info[key]
                for key in ("share_hits", "share_misses", "modeled_io_bytes")
            },
            waits=[handle.queue_seconds for handle in handles],
        )


# --- hybrid_rw --------------------------------------------------------------

_ORDERS_PRED_ATTRS = ("O_ORDERKEY", "O_CUSTKEY", "O_TOTALPRICE", "O_ORDERDATE")
_HYBRID_EXTRAS = ("O_TOTALPRICE", "O_ORDERSTATUS", "O_CUSTKEY")


class HybridRW(Workload):
    """Writes beside reads: one op is a round of insert, delete, two reads.

    Every fourth round ends with a predicate delete and a merge.  Delete
    positions are stored as fractions of the table's current size, so the
    op list is fixed by the seed alone while the positions stay valid as
    merges shrink and grow the table.
    """

    name = "hybrid_rw"
    rows = 6_500
    table = "ORDERS"
    sort_key = "O_ORDERKEY"
    merge_every = 4
    mutating = True

    def build(self) -> None:
        data = sut.generate_orders(self.num_rows, seed=self.seed)
        self.writes = max(10, self.num_rows // 15)
        fresh = sut.generate_orders(OPS_PER_PASS * self.writes, seed=self.seed + 1)
        self.data = {self.table: data, "fresh": fresh}
        self.db = sut.Database(layouts=(sut.Layout.ROW, sut.Layout.COLUMN))
        self.db.create_table(data, sort_key=self.sort_key)
        self.tables = {
            "row": self.db.table(self.table, sut.Layout.ROW),
            "column": self.db.table(self.table, sut.Layout.COLUMN),
        }
        names = data.schema.attribute_names
        as_lists = [fresh.column(name).tolist() for name in names]
        self.row_batches = [
            list(zip(*(values[lo : lo + self.writes] for values in as_lists)))
            for lo in range(0, OPS_PER_PASS * self.writes, self.writes)
        ]
        rng = _rng(self.seed, self.name)
        sorted_cols = _sorted_columns(data, _ORDERS_PRED_ATTRS)
        sels = _stratified_log(rng, OPS_PER_PASS, 0.01, 0.5)
        self.fractions = rng.random((OPS_PER_PASS, self.writes))
        self.ops = []
        for i in range(OPS_PER_PASS):
            # Rounds run in list order (the table's state depends on it),
            # so the selectivity strata are dealt over the rounds by a
            # stride coprime with their number, not by a shuffle.
            sel = sels[(i * 37) % OPS_PER_PASS]
            attr = _ORDERS_PRED_ATTRS[i % len(_ORDERS_PRED_ATTRS)]
            others = [a for a in _HYBRID_EXTRAS if a != attr][:2]
            purge = None
            if i % self.merge_every == self.merge_every - 1:
                purge = (
                    "O_CUSTKEY",
                    oracle.threshold(sorted_cols["O_CUSTKEY"], 0.01),
                )
            self.ops.append(
                Op(
                    "round",
                    self.table,
                    (attr, *others),
                    (attr, oracle.threshold(sorted_cols[attr], sel)),
                    (i, zlib.crc32(self.fractions[i].tobytes()), purge),
                )
            )

    def user_bytes(self) -> int:
        # Both layouts store the same user rows once.
        table = self.tables["row"]
        return table.num_rows * table.schema.tuple_width

    def rows_scanned(self, op: Op) -> int:
        # One hybrid COLUMN query and two scheduled ROW queries per round.
        return 3 * self.num_rows

    def warmup(self) -> None:
        op = self.ops[0]
        self.db.query(self.table, op.select, (predicate_of(op.pred),))
        self.db.run_workload(self.overlay_requests(op), layout=sut.Layout.ROW)

    def overlay_requests(self, op: Op) -> list:
        predicate = (predicate_of(op.pred),)
        return [
            sut.WorkloadQuery(self.table, select=op.select[:2], predicates=predicate),
            sut.WorkloadQuery(self.table, select=op.select[1:], predicates=predicate),
        ]

    def positions(self, op: Op, total_rows: int) -> np.ndarray:
        return np.unique((self.fractions[op.args[0]] * total_rows).astype(np.int64))

    def run_unit(self, unit: list[int]) -> UnitRun:
        op = self.ops[unit[0]]
        rows = self.row_batches[op.args[0]]
        purge = op.args[2]
        db, table = self.db, self.table
        steps = {}
        clock = time.perf_counter
        with Stopwatch() as watch:
            started = clock()
            db.insert_many(table, rows)
            steps["insert"] = clock()
            positions = self.positions(op, db.write_store(table).total_rows)
            parts = [db.delete(table, positions=positions)]
            steps["delete"] = clock()
            union = db.query(
                table, op.select, (predicate_of(op.pred),), layout=sut.Layout.COLUMN
            )
            steps["union"] = clock()
            handles = db.run_workload(self.overlay_requests(op), layout=sut.Layout.ROW)
            steps["overlay"] = clock()
            if purge is not None:
                parts.append(db.delete(table, predicates=(predicate_of(purge),)))
                steps["purge"] = clock()
                db.merge(table)
                steps["merge"] = clock()
        results = [union] + [handle.value() for handle in handles]
        parts += [result_digest(result) for result in results]
        if purge is not None:
            parts.append(db.table(table).num_rows)
        durations = {}
        previous = started
        for name, stamp in steps.items():
            durations[name] = stamp - previous
            previous = stamp
        return UnitRun(
            watch.wall,
            watch.cpu,
            [watch.wall],
            [oracle.combine(parts)],
            [result.events for result in results],
            counts={
                "steps": durations,
                "staged": len(rows) * (op.args[0] % self.merge_every + 1),
                "writes": len(rows),
                "deleted": len(positions),
            },
        )

    def expected(self) -> list[oracle.Digest]:
        data = self.data[self.table]
        fresh = self.data["fresh"].columns
        model = oracle.HybridModel(data.columns, self.sort_key)
        out = []
        for op in self.ops:
            index, _crc, purge = op.args
            lo = index * self.writes
            model.insert({n: col[lo : lo + self.writes] for n, col in fresh.items()})
            parts = [model.delete(self.positions(op, model.total_rows))]
            reads = [
                model.scan(select, op.pred)
                for select in (op.select, op.select[:2], op.select[1:])
            ]
            if purge is not None:
                parts.append(model.delete_where(purge))
            parts += [oracle.digest(*read) for read in reads]
            if purge is not None:
                parts.append(model.merge())
            out.append(oracle.combine(parts))
        return out


WORKLOADS = {
    cls.name: cls for cls in (RowPlain, RowZ, ColScan, Analytic, SchedBatch, HybridRW)
}
