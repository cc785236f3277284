"""Seeded random generator of schemas, data, codec assignments, queries.

Everything a case contains is a pure function of its integer seed, so
any failure is replayable with ``python -m repro.testing --seed N``.
Each seed also *features* one codec kind (round-robin over the
registered kinds) and guarantees a compatible column carries it, so a
modest number of consecutive seeds covers the whole layout x codec
matrix deterministically.

Cases deliberately include the adversarial corners: empty tables,
single-row tables, constant columns, long runs, zipf skew, negative
domains, zero-selectivity and full-selectivity predicates, and
max-width text values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.registry import build_codec_for_values
from repro.data.generator import GeneratedTable
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import (
    AggregateFunction,
    AggregateSpec,
    JoinSide,
    Query,
    ScanQuery,
)
from repro.types.datatypes import FixedTextType, IntType
from repro.types.schema import Attribute, TableSchema

#: Codec kinds cycled through as each seed's featured kind.
FEATURED_KINDS = (
    CodecKind.NONE,
    CodecKind.PACK,
    CodecKind.DICT,
    CodecKind.FOR,
    CodecKind.FOR_DELTA,
    CodecKind.RLE,
)

#: Value distributions the integer-column generator draws from.
INT_DISTRIBUTIONS = (
    "uniform",
    "narrow",
    "zipf",
    "runs",
    "sorted",
    "constant",
    "negative",
)

_CASE_KINDS = ("scan", "scan", "scan", "aggregate", "aggregate", "join", "limit", "topn")

_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class GeneratedCase:
    """One seed-replayable differential test case."""

    seed: int
    kind: str
    page_size: int
    #: Plain (codec-free) tables by name; the harness applies
    #: ``codec_specs`` per layout.
    tables: dict[str, GeneratedTable]
    #: Full codec assignment, possibly including column-only kinds (RLE).
    codec_specs: dict[str, dict[str, CodecSpec]]
    #: The primary scan (the right/fact side for joins).
    query: ScanQuery
    aggregate: AggregateSpec | None = None
    sort_based: bool = False
    join_left_query: ScanQuery | None = None
    join_left_key: str | None = None
    join_right_key: str | None = None
    limit_count: int | None = None
    topn_key: str | None = None
    topn_count: int | None = None
    topn_descending: bool = False
    #: Parallel execution toggle: ``workers > 1`` additionally runs the
    #: case through :func:`repro.engine.parallel.parallel_query` with
    #: ``num_partitions`` row-range partitions and diffs that result
    #: against the oracle too.  Both are pure functions of the seed, so
    #: a failing parallel case replays with the same worker count.
    workers: int = 1
    num_partitions: int | None = None
    #: Governance knobs (see :mod:`repro.engine.governance`): a subset
    #: of cases runs with a generous deadline and/or a memory budget
    #: armed.  The budget is sized so reduced-width retries trigger on
    #: the bigger cases while the answer must still equal the oracle's;
    #: a typed :class:`~repro.errors.GovernanceError` is an acceptable
    #: outcome, anything untyped is a failure.
    deadline: float | None = None
    memory_budget: int | None = None
    #: Notes appended by the minimizer describing applied shrink steps.
    shrink_steps: list[str] = field(default_factory=list)
    #: Interleaved insert/delete/merge ops applied before the query
    #: (see :mod:`repro.testing.writes`).  Non-empty cases run the
    #: hybrid read/write differential battery instead of the plain
    #: matrix: every scanner architecture's hybrid scan, the scheduler
    #: (sharing on/off per ``sharing``), and a rebuilt-table leg must
    #: all equal the pure-Python :class:`~repro.testing.writes
    #: .WriteModel` oracle.
    write_ops: list = field(default_factory=list)
    #: Scheduler shared-scan toggle for the write-case scheduler leg.
    sharing: bool = False

    def request(self, left_table=None) -> Query:
        """The case's query as the one value every executor takes.

        ``left_table`` is the loaded left input of a join case (the
        case holds plain data; its harness loads it per layout).
        """
        join = None
        if self.join_left_query is not None:
            join = JoinSide(
                left_table,
                self.join_left_query,
                self.join_left_key,
                self.join_right_key,
            )
        topn = None
        if self.topn_key is not None:
            topn = (self.topn_key, self.topn_count, self.topn_descending)
        return Query(
            self.query,
            aggregate=self.aggregate,
            sort_based=self.sort_based,
            limit=self.limit_count,
            topn=topn,
            join=join,
        )

    def describe(self) -> str:
        """One replayable human-readable summary."""
        table = self.tables[self.query.table]
        parts = [
            f"seed={self.seed} kind={self.kind} page_size={self.page_size}",
            f"table {self.query.table}: {table.num_rows} rows x "
            f"{len(table.schema)} attrs",
            "codecs: "
            + ", ".join(
                f"{t}.{a}={spec.kind.value}"
                for t, specs in sorted(self.codec_specs.items())
                for a, spec in specs.items()
                if spec.kind is not CodecKind.NONE
            ),
            f"query: {self.query.describe()}",
        ]
        if self.aggregate is not None:
            how = "sort" if self.sort_based else "hash"
            parts.append(
                f"aggregate[{how}]: {self.aggregate.function.value}"
                f"({self.aggregate.argument}) group by {self.aggregate.group_by}"
            )
        if self.join_left_query is not None:
            parts.append(
                f"join: {self.join_left_query.describe()} on "
                f"{self.join_left_key}={self.join_right_key}"
            )
        if self.limit_count is not None:
            parts.append(f"limit: {self.limit_count}")
        if self.topn_key is not None:
            direction = "desc" if self.topn_descending else "asc"
            parts.append(f"top-n: {self.topn_count} by {self.topn_key} {direction}")
        if self.workers > 1:
            parts.append(
                f"parallel: workers={self.workers} "
                f"partitions={self.num_partitions or self.workers}"
            )
        if self.deadline is not None or self.memory_budget is not None:
            parts.append(
                f"governance: deadline={self.deadline} "
                f"budget={self.memory_budget}"
            )
        if self.write_ops:
            parts.append(
                f"writes[sharing={'on' if self.sharing else 'off'}]: "
                + "; ".join(op.describe() for op in self.write_ops)
            )
        if self.shrink_steps:
            parts.append("shrunk: " + "; ".join(self.shrink_steps))
        return "\n  ".join(parts)


# --- column data ----------------------------------------------------------------


def _int_values(
    rng: random.Random, nprng: np.random.Generator, n: int, dist: str
) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if dist == "uniform":
        values = nprng.integers(0, 1_000_000, size=n)
    elif dist == "narrow":
        values = nprng.integers(0, rng.choice([2, 5, 16]), size=n)
    elif dist == "zipf":
        domain = np.arange(rng.choice([4, 16, 64]))
        weights = 1.0 / (domain + 1.0) ** 1.3
        values = nprng.choice(domain, size=n, p=weights / weights.sum())
    elif dist == "runs":
        run_length = rng.choice([2, 3, 8, 32])
        distinct = nprng.integers(0, 1000, size=max(1, n // run_length + 1))
        values = np.repeat(distinct, run_length)[:n]
    elif dist == "sorted":
        values = np.sort(nprng.integers(0, 100_000, size=n))
    elif dist == "constant":
        values = np.full(n, int(nprng.integers(-100, 100)))
    elif dist == "negative":
        values = nprng.integers(-5_000, 5_000, size=n)
    else:  # pragma: no cover - closed set
        raise ValueError(f"unknown distribution {dist!r}")
    return values.astype(np.int64)


def _text_values(
    rng: random.Random, nprng: np.random.Generator, n: int, width: int
) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=f"S{width}")
    pool_size = rng.choice([1, 3, 8, 24])
    pool = []
    for index in range(pool_size):
        # Cover the adversarial corners: empty strings and values at the
        # full field width.
        if index == 0 and rng.random() < 0.3:
            pool.append(b"")
        elif index == 1 and rng.random() < 0.5:
            pool.append("".join(rng.choice(_WORD_CHARS) for _ in range(width)).encode())
        else:
            length = rng.randint(1, width)
            pool.append("".join(rng.choice(_WORD_CHARS) for _ in range(length)).encode())
    pool_array = np.array(pool, dtype=f"S{width}")
    return pool_array[nprng.integers(0, len(pool_array), size=n)]


def _compatible_kinds(attr_type, values: np.ndarray) -> list[CodecKind]:
    """Codec kinds that can legally encode this column."""
    kinds = [CodecKind.NONE, CodecKind.DICT]
    if isinstance(attr_type, IntType):
        kinds += [CodecKind.FOR, CodecKind.FOR_DELTA, CodecKind.RLE]
        if values.size and int(values.min()) >= 0:
            kinds.append(CodecKind.PACK)
    elif isinstance(attr_type, FixedTextType):
        kinds.append(CodecKind.PACK)  # pad-byte suppression
    if values.size == 0:
        return [CodecKind.NONE]  # nothing to size a codec from
    return kinds


def _spec_for(kind: CodecKind, attr_type, values: np.ndarray) -> CodecSpec:
    codec = build_codec_for_values(kind, attr_type, values, page_capacity_hint=256)
    return codec.spec


def _make_table(
    rng: random.Random,
    nprng: np.random.Generator,
    name: str,
    num_rows: int,
    featured: CodecKind,
    extra_int_sorted: bool = False,
) -> tuple[GeneratedTable, dict[str, CodecSpec]]:
    """A random table plus a codec assignment honouring ``featured``."""
    num_int = rng.randint(1, 3)
    num_text = rng.randint(0, 2)
    attributes: list[Attribute] = []
    columns: dict[str, np.ndarray] = {}
    for index in range(num_int):
        attr_name = f"{name.lower()}_i{index}"
        dist = rng.choice(INT_DISTRIBUTIONS)
        if featured is CodecKind.PACK and index == 0 and dist == "negative":
            dist = "uniform"  # guarantee a PACK-compatible column
        if featured is CodecKind.RLE and index == 0 and dist in ("uniform", "negative"):
            dist = "runs"  # make the featured RLE column interesting
        values = _int_values(rng, nprng, num_rows, dist)
        if extra_int_sorted and index == 0:
            values = np.sort(values)
        attributes.append(Attribute(attr_name, IntType()))
        columns[attr_name] = values
    for index in range(num_text):
        width = rng.choice([4, 8, 12])
        attr_name = f"{name.lower()}_t{index}"
        attributes.append(Attribute(attr_name, FixedTextType(width)))
        columns[attr_name] = _text_values(rng, nprng, num_rows, width)
    schema = TableSchema(name=name, attributes=tuple(attributes))
    data = GeneratedTable(schema=schema, columns=columns)

    specs: dict[str, CodecSpec] = {}
    featured_placed = False
    for attr in schema:
        values = columns[attr.name]
        kinds = _compatible_kinds(attr.attr_type, values)
        if not featured_placed and featured in kinds:
            kind = featured
            featured_placed = True
        elif rng.random() < 0.35:
            kind = CodecKind.NONE
        else:
            kind = rng.choice(kinds)
        if kind is not CodecKind.NONE:
            specs[attr.name] = _spec_for(kind, attr.attr_type, values)
    return data, specs


# --- predicates and queries -----------------------------------------------------

_INT_OPS = tuple(ComparisonOp)
_TEXT_OPS = tuple(ComparisonOp)


def _predicate_for(
    rng: random.Random, data: GeneratedTable, attr: Attribute
) -> Predicate:
    values = data.columns[attr.name]
    if isinstance(attr.attr_type, IntType):
        op = rng.choice(_INT_OPS)
        if values.size and rng.random() < 0.7:
            constant = int(values[rng.randrange(values.size)])
            # Occasionally nudge off an existing value to hit gaps.
            if rng.random() < 0.3:
                constant += rng.choice([-1, 1])
        else:
            constant = rng.randint(-10, 1_000_000)
        return Predicate(attr.name, op, constant)
    op = rng.choice(_TEXT_OPS)
    if values.size:
        constant = bytes(values[rng.randrange(values.size)])
    else:
        constant = b"x"
    return Predicate(attr.name, op, constant)


def _scan_query(
    rng: random.Random,
    data: GeneratedTable,
    must_select: tuple[str, ...] = (),
    max_predicates: int = 3,
) -> ScanQuery:
    names = list(data.schema.attribute_names)
    k = rng.randint(1, len(names))
    select = list(must_select)
    for name in rng.sample(names, k):
        if name not in select:
            select.append(name)
    select = select[: max(len(must_select), k) or 1]
    if not select:
        select = [names[0]]
    predicates = tuple(
        _predicate_for(rng, data, data.schema.attribute(rng.choice(names)))
        for _ in range(rng.randint(0, max_predicates))
    )
    return ScanQuery(data.schema.name, select=tuple(select), predicates=predicates)


def _num_rows(rng: random.Random, allow_empty: bool = True) -> int:
    roll = rng.random()
    if allow_empty and roll < 0.04:
        return 0
    if roll < 0.12:
        return 1
    if roll < 0.5:
        return rng.randint(2, 40)
    return rng.randint(41, 150)


# --- case kinds -----------------------------------------------------------------


def _aggregate_case(rng: random.Random, case: GeneratedCase) -> GeneratedCase:
    data = case.tables[case.query.table]
    int_selected = [
        name
        for name in case.query.select
        if isinstance(data.schema.attribute(name).attr_type, IntType)
    ]
    function = rng.choice(tuple(AggregateFunction))
    if function is not AggregateFunction.COUNT and not int_selected:
        function = AggregateFunction.COUNT
    argument = rng.choice(int_selected) if function is not AggregateFunction.COUNT else None
    group_pool = [n for n in case.query.select if n != argument] or list(case.query.select)
    group_by = tuple(
        rng.sample(group_pool, min(len(group_pool), rng.randint(0, 2)))
    )
    sort_based = bool(group_by) and rng.random() < 0.4
    return replace(
        case,
        aggregate=AggregateSpec(group_by=group_by, function=function, argument=argument),
        sort_based=sort_based,
    )


def _join_case(
    rng: random.Random, nprng: np.random.Generator, seed: int, featured: CodecKind,
    page_size: int,
) -> GeneratedCase:
    dim_rows = max(1, _num_rows(rng, allow_empty=False) // 2)
    # Unique, sorted dimension keys with random gaps.
    keys = np.cumsum(nprng.integers(1, 4, size=dim_rows)).astype(np.int64)
    dim_data, dim_specs = _make_table(rng, nprng, "DIM", dim_rows, featured)
    key_attr = Attribute("dim_key", IntType())
    dim_schema = TableSchema(
        "DIM", attributes=(key_attr,) + dim_data.schema.attributes
    )
    dim_columns = {"dim_key": keys, **dim_data.columns}
    dim_data = GeneratedTable(schema=dim_schema, columns=dim_columns)

    fact_rows = _num_rows(rng, allow_empty=True)
    fact_data, fact_specs = _make_table(rng, nprng, "FCT", fact_rows, featured)
    # Sorted foreign keys; some may fall outside the dimension domain.
    fk_domain = np.concatenate([keys, keys.max() + np.arange(1, 4)]) if dim_rows else keys
    fks = np.sort(fk_domain[nprng.integers(0, len(fk_domain), size=fact_rows)])
    fact_schema = TableSchema(
        "FCT", attributes=(Attribute("fct_key", IntType()),) + fact_data.schema.attributes
    )
    fact_columns = {"fct_key": fks.astype(np.int64), **fact_data.columns}
    fact_data = GeneratedTable(schema=fact_schema, columns=fact_columns)

    if fact_rows:
        fact_specs = dict(fact_specs)
        fact_specs["fct_key"] = _spec_for(
            rng.choice([CodecKind.NONE, CodecKind.FOR_DELTA, CodecKind.RLE]),
            IntType(),
            fact_columns["fct_key"],
        )
    left_query = _scan_query(rng, dim_data, must_select=("dim_key",), max_predicates=1)
    right_query = _scan_query(rng, fact_data, must_select=("fct_key",), max_predicates=1)
    return GeneratedCase(
        seed=seed,
        kind="join",
        page_size=page_size,
        tables={"DIM": dim_data, "FCT": fact_data},
        codec_specs={"DIM": dim_specs, "FCT": fact_specs},
        query=right_query,
        join_left_query=left_query,
        join_left_key="dim_key",
        join_right_key="fct_key",
    )


def generate_case(seed: int, force_writes: bool = False) -> GeneratedCase:
    """The differential test case for one seed (pure function).

    With ``force_writes`` the case is always a plain scan and carries a
    seed-derived interleaving of insert/delete/merge ops (see
    :mod:`repro.testing.writes`); the op stream is drawn from an
    independent rng, so ``generate_case(seed)`` without writes is
    byte-identical to what it produced before writes existed.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    featured = FEATURED_KINDS[seed % len(FEATURED_KINDS)]
    kind = "scan" if force_writes else rng.choice(_CASE_KINDS)
    page_size = rng.choice([512, 1024, 4096])

    if kind == "join":
        return _join_case(rng, nprng, seed, featured, page_size)

    num_rows = _num_rows(rng)
    data, specs = _make_table(rng, nprng, "T", num_rows, featured)
    query = _scan_query(rng, data)
    case = GeneratedCase(
        seed=seed,
        kind=kind,
        page_size=page_size,
        tables={"T": data},
        codec_specs={"T": specs},
        query=query,
    )
    if kind == "aggregate":
        case = _aggregate_case(rng, case)
    elif kind == "limit":
        case = replace(case, limit_count=rng.randint(0, num_rows + 2))
    elif kind == "topn":
        case = replace(
            case,
            topn_key=rng.choice(query.select),
            topn_count=rng.randint(1, num_rows + 2),
            topn_descending=rng.random() < 0.5,
        )
    # About a third of non-join cases additionally exercise the
    # partitioned parallel executor; deliberately includes more
    # partitions than rows (empty partitions) and uneven splits.
    if rng.random() < 0.35:
        case = replace(
            case,
            workers=rng.choice([2, 3, 4]),
            num_partitions=rng.choice([1, 2, 3, 5, 7]),
        )
    # A slice of cases runs governed: the deadline is generous (it must
    # not fire on a healthy case), the budget ranges from narrow-retry
    # territory down to abort territory — the harness accepts a typed
    # GovernanceError and diffs everything else against the oracle.
    if rng.random() < 0.15:
        case = replace(case, deadline=rng.choice([5.0, 10.0, 30.0]))
    if rng.random() < 0.10:
        case = replace(
            case, memory_budget=rng.choice([4_096, 16_384, 262_144, 4_000_000])
        )
    if force_writes:
        from repro.testing.writes import generate_write_ops

        # Write cases isolate the hybrid read/write differential: no
        # governance knobs (covered by dedicated tests) and a
        # seed-derived sharing toggle for the scheduler leg.
        case = replace(
            case,
            deadline=None,
            memory_budget=None,
            write_ops=generate_write_ops(seed, data),
            sharing=bool(seed % 2),
        )
    return case
