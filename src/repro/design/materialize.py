"""Materializing and routing to vertical-partition views.

Completes the Figure 1 MV-advisor loop: the advisor proposes attribute
groups (:mod:`repro.design.mv_advisor`), this module materializes them
as real tables — optionally re-sorted on a leading attribute, the
C-Store projection idea — and routes queries to the cheapest view that
covers them.

A view sorted on a low-cardinality attribute is where run-length
encoding shines; combined with :class:`repro.compression.rle.RleCodec`
this reproduces the design point the paper's related work attributes to
C-Store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.advisor import CompressionAdvisor
from repro.compression.base import CodecKind
from repro.compression.rle import RleCodec
from repro.data.generator import GeneratedTable
from repro.engine.query import ScanQuery
from repro.errors import PlanError, SchemaError
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.table import Table
from repro.types.datatypes import IntType
from repro.types.schema import TableSchema


@dataclass(frozen=True)
class MaterializedView:
    """One materialized vertical partition, with how it was made."""

    name: str
    base_table: str
    attributes: tuple[str, ...]
    sort_key: str | None
    table: Table
    compress: bool = False
    use_rle: bool = False

    def covers(self, query: ScanQuery) -> bool:
        """Can this view answer the query's scan?"""
        return set(query.scan_attributes()) <= set(self.attributes)

    def refreshed(self, data: GeneratedTable) -> "MaterializedView":
        """This view's definition materialized over new base ``data``."""
        return materialize_view(
            data,
            self.attributes,
            name=self.name,
            sort_key=self.sort_key,
            layout=self.table.layout,
            compress=self.compress,
            use_rle=self.use_rle,
            page_size=self.table.page_size,
        )


def materialize_view(
    data: GeneratedTable,
    attributes: tuple[str, ...],
    name: str | None = None,
    sort_key: str | None = None,
    layout: Layout = Layout.COLUMN,
    compress: bool = False,
    use_rle: bool = False,
    page_size: int = 4096,
) -> MaterializedView:
    """Build one view table from base data.

    ``sort_key`` re-clusters the view (C-Store projections); with
    ``compress`` the advisor picks per-column schemes, and ``use_rle``
    additionally lets sorted integer columns use run-length encoding.
    """
    for attr in attributes:
        data.schema.attribute(attr)
    if sort_key is not None and sort_key not in attributes:
        raise PlanError(f"sort key {sort_key!r} must be a view attribute")

    columns = {attr: data.columns[attr] for attr in attributes}
    if sort_key is not None:
        order = np.argsort(columns[sort_key], kind="stable")
        columns = {attr: col[order] for attr, col in columns.items()}

    view_name = name or f"{data.schema.name}__{'_'.join(attributes)}"
    schema = TableSchema(
        name=view_name,
        attributes=tuple(data.schema.attribute(attr) for attr in attributes),
    )
    if compress:
        advisor = CompressionAdvisor()
        attr_types = {a.name: a.attr_type for a in schema}
        specs = advisor.advise(attr_types, columns)
        if use_rle:
            for attr_name, values in columns.items():
                attr = schema.attribute(attr_name)
                if not isinstance(attr.attr_type, IntType):
                    continue
                rle_bits = RleCodec.effective_bits_per_value(values)
                if rle_bits < specs[attr_name].bits:
                    specs[attr_name] = RleCodec.spec_for_values(values)
        schema = schema.with_codecs(specs)
    view_data = GeneratedTable(schema=schema, columns=dict(columns))
    table = load_table(view_data, layout, page_size=page_size)
    return MaterializedView(
        name=view_name,
        base_table=data.schema.name,
        attributes=tuple(attributes),
        sort_key=sort_key,
        table=table,
        compress=compress,
        use_rle=use_rle,
    )


class ViewRouter:
    """Routes a scan query to the cheapest covering view."""

    def __init__(self, base_table: Table):
        self.base_table = base_table
        self._views: list[MaterializedView] = []

    def add_view(self, view: MaterializedView) -> None:
        if view.base_table != self.base_table.schema.name:
            raise SchemaError(
                f"view {view.name!r} is over {view.base_table!r}, router is "
                f"for {self.base_table.schema.name!r}"
            )
        self._views.append(view)

    @property
    def views(self) -> list[MaterializedView]:
        return list(self._views)

    def route(self, query: ScanQuery) -> tuple[Table, str]:
        """``(table, source name)`` of the cheapest covering relation."""
        query.validate_against(self.base_table.schema)
        candidates = [view for view in self._views if view.covers(query)]
        if not candidates:
            return self.base_table, self.base_table.schema.name
        best = min(candidates, key=lambda view: view.table.total_bytes)
        if best.table.total_bytes >= self.base_table.total_bytes:
            return self.base_table, self.base_table.schema.name
        return best.table, best.name
