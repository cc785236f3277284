"""Declarative query specs (the paper uses precompiled queries).

The experiments all instantiate one template::

    select A1, A2 ... from TABLE
    where predicate(A1) yields a chosen selectivity

plus an optional result shape on top.  :class:`ScanQuery` captures the
template and :class:`Query` the whole request — the scan plus at most
one of aggregate / order-by / top-N, a limit, or a merge-join left
side; :func:`repro.engine.plan.build_plan` turns either into an
operator tree for any layout, and every executor (serial drain,
partition-and-merge, time-slice) runs that one value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.types.schema import TableSchema

if TYPE_CHECKING:
    from repro.storage.table import Table


@dataclass(frozen=True)
class ScanQuery:
    """A projection + conjunctive SARGable selection over one table."""

    table: str
    select: tuple[str, ...]
    predicates: tuple[Predicate, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.select:
            raise PlanError("a query must select at least one attribute")
        if len(set(self.select)) != len(self.select):
            raise PlanError(f"duplicate attributes in select list: {self.select}")

    def validate_against(self, schema: TableSchema) -> None:
        """Check every referenced attribute exists."""
        for name in self.select:
            schema.attribute(name)
        for predicate in self.predicates:
            schema.attribute(predicate.attr)

    def scan_attributes(self) -> tuple[str, ...]:
        """Attributes the scan must read: selected plus predicate attrs.

        Predicate attributes are pushed to the front (the paper pushes
        selective scan nodes as deep as possible).
        """
        ordered = [p.attr for p in self.predicates if p.attr in self.select]
        ordered += [p.attr for p in self.predicates if p.attr not in self.select]
        ordered += [name for name in self.select if name not in ordered]
        # Preserve first occurrence only.
        seen: set[str] = set()
        unique = []
        for name in ordered:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return tuple(unique)

    def predicates_on(self, attr: str) -> tuple[Predicate, ...]:
        """The predicates bound to one attribute."""
        return tuple(p for p in self.predicates if p.attr == attr)

    def selected_width(self, schema: TableSchema) -> int:
        """Uncompressed bytes per tuple the query projects."""
        return sum(schema.attribute(name).width for name in self.select)

    def describe(self) -> str:
        where = " and ".join(p.describe() for p in self.predicates) or "true"
        return f"select {', '.join(self.select)} from {self.table} where {where}"


class AggregateFunction(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregateSpec:
    """A grouped aggregation over a scan's output."""

    group_by: tuple[str, ...]
    function: AggregateFunction
    argument: str | None = None

    def __post_init__(self) -> None:
        needs_arg = self.function is not AggregateFunction.COUNT
        if needs_arg and self.argument is None:
            raise PlanError(f"{self.function.value} needs an argument attribute")

    def output_name(self) -> str:
        """The result column's name (``count`` / ``sum_X`` / ...)."""
        if self.function is AggregateFunction.COUNT:
            return "count"
        return f"{self.function.value}_{self.argument}"


@dataclass(frozen=True)
class JoinSide:
    """The left input of a merge join and the key pair joining it."""

    table: Table
    scan: ScanQuery
    left_key: str
    right_key: str


@dataclass(frozen=True)
class Query:
    """One whole request: a scan and the result shape stacked on it.

    At most one of ``aggregate`` (hash, or sort-based with
    ``sort_based``), ``order_by`` and ``topn`` (``(key, count,
    descending)``); ``limit`` composes with a plain or sorted scan;
    ``join`` makes ``scan`` the right input of a merge join and takes
    no other shape.  The value is what every executor is handed, so
    the combinations are checked here, once.
    """

    scan: ScanQuery
    aggregate: AggregateSpec | None = None
    sort_based: bool = False
    order_by: tuple[str, ...] = ()
    limit: int | None = None
    topn: tuple[str, int, bool] | None = None
    join: JoinSide | None = None

    def __post_init__(self) -> None:
        shapes = sum(
            [self.aggregate is not None, bool(self.order_by), self.topn is not None]
        )
        if shapes > 1:
            raise PlanError(
                "a query has one result shape at a time "
                "(aggregate | order_by | topn)"
            )
        if self.limit is not None and (
            self.aggregate is not None or self.topn is not None
        ):
            raise PlanError("limit composes only with plain or sorted scans")
        if self.join is not None and (shapes or self.limit is not None):
            raise PlanError("a merge join takes no other result shape")

    @property
    def plain(self) -> bool:
        """True when the request is just its scan."""
        return self == Query(self.scan)
