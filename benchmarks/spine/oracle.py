"""Numpy oracle: every op's expected result, straight from the generated columns.

Nothing here calls into the system under test.  A result is compared by
its *digest* — row count plus a CRC32 over the positions and every
column's bytes — so verification costs microseconds and stays outside
the timed spans.
"""

from __future__ import annotations

import zlib

import numpy as np

Digest = tuple[int, int]
Columns = dict[str, np.ndarray]


def _canonical(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return np.ascontiguousarray(values, dtype="<i8")
    if values.dtype.kind == "f":
        return np.ascontiguousarray(values, dtype="<f8")
    return np.ascontiguousarray(values)


def digest(positions: np.ndarray, columns: Columns) -> Digest:
    """``(row count, CRC32)`` of a result; column order does not matter."""
    crc = zlib.crc32(_canonical(positions).tobytes())
    for name in sorted(columns):
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(_canonical(columns[name]).tobytes(), crc)
    return len(positions), crc


def combine(parts: list) -> Digest:
    """One digest over several results and counts (a ``hybrid_rw`` round)."""
    return len(parts), zlib.crc32(repr(parts).encode())


def threshold(sorted_values: np.ndarray, selectivity: float) -> int:
    """The constant ``c`` for which ``attr <= c`` keeps about ``selectivity``."""
    index = int(selectivity * (len(sorted_values) - 1))
    return int(sorted_values[index])


def scan(columns: Columns, select: tuple[str, ...], pred: tuple[str, int]):
    """``select ... where attr <= value``: positions and selected columns."""
    attr, value = pred
    positions = np.flatnonzero(columns[attr] <= value)
    return positions, {name: columns[name][positions] for name in select}


def aggregate(
    columns: Columns,
    pred: tuple[str, int],
    group_by: tuple[str, ...],
    function: str,
    argument: str | None,
):
    """Grouped aggregate over the qualifying rows, groups in key order."""
    positions, picked = scan(
        columns, group_by + ((argument,) if argument else ()), pred
    )
    if not len(positions):
        return positions, {}
    if len(group_by) > 1:
        keys = np.rec.fromarrays(
            [picked[name] for name in group_by], names=list(group_by)
        )
    else:
        keys = picked[group_by[0]]
    distinct, group_ids = np.unique(keys, return_inverse=True)
    group_ids = group_ids.reshape(-1)
    groups = len(distinct)
    counts = np.bincount(group_ids, minlength=groups)
    if function == "count":
        values, name = counts, "count"
    else:
        arg = picked[argument].astype(np.int64)
        name = f"{function}_{argument}"
        if function in ("sum", "avg"):
            sums = np.zeros(groups, dtype=np.int64)
            np.add.at(sums, group_ids, arg)
            values = sums if function == "sum" else sums / counts
        else:
            order = np.lexsort((arg, group_ids))
            firsts = np.flatnonzero(np.diff(group_ids[order], prepend=-1))
            if function == "min":
                values = arg[order][firsts]
            else:
                lasts = np.append(firsts[1:], len(order)) - 1
                values = arg[order][lasts]
    out = {name: values}
    for key in group_by:
        out[key] = distinct[key] if len(group_by) > 1 else distinct
    return np.arange(groups, dtype=np.int64), out


def topn(
    columns: Columns,
    select: tuple[str, ...],
    pred: tuple[str, int],
    key: str,
    count: int,
    descending: bool,
):
    """The ``count`` best qualifying rows by ``key``.

    Ties break by ascending position when ascending and by descending
    position when descending — the order a stable sort read backwards
    produces.
    """
    positions, _ = scan(columns, (), pred)
    keys = columns[key][positions].astype(np.int64)
    if descending:
        order = np.lexsort((-positions, -keys))
    else:
        order = np.lexsort((positions, keys))
    positions = positions[order[:count]]
    return positions, {name: columns[name][positions] for name in select}


def merge_join(
    left: Columns,
    left_select: tuple[str, ...],
    left_pred: tuple[str, int],
    left_key: str,
    right: Columns,
    right_select: tuple[str, ...],
    right_pred: tuple[str, int],
    right_key: str,
):
    """One-to-many join on sorted keys (unique on the left); right order."""
    _, left_cols = scan(left, left_select, left_pred)
    right_positions, right_cols = scan(right, right_select, right_pred)
    left_keys = left_cols[left_key]
    if not len(left_keys) or not len(right_positions):
        return np.zeros(0, dtype=np.int64), {}
    slot = np.searchsorted(left_keys, right_cols[right_key])
    slot = np.minimum(slot, len(left_keys) - 1)
    matched = left_keys[slot] == right_cols[right_key]
    out = {name: col[slot[matched]] for name, col in left_cols.items()}
    for name, col in right_cols.items():
        out.setdefault(name, col[matched])
    return right_positions[matched], out


class HybridModel:
    """The write store's contract in thirty lines.

    One table as columns in global-position order (base rows, then
    staged rows in insertion order) plus a deleted mask.  Reads see the
    live rows renumbered densely; a merge keeps the live rows and
    re-clusters them with a *stable* sort on the sort key.
    """

    def __init__(self, columns: Columns, sort_key: str):
        self.columns = dict(columns)
        self.sort_key = sort_key
        self.deleted = np.zeros(self.total_rows, dtype=bool)

    @property
    def total_rows(self) -> int:
        return len(self.columns[self.sort_key])

    def insert(self, rows: Columns) -> None:
        self.columns = {
            name: np.concatenate([col, rows[name]])
            for name, col in self.columns.items()
        }
        self.deleted = np.concatenate(
            [self.deleted, np.zeros(len(rows[self.sort_key]), dtype=bool)]
        )

    def delete(self, positions: np.ndarray) -> int:
        newly = int(np.count_nonzero(~self.deleted[positions]))
        self.deleted[positions] = True
        return newly

    def delete_where(self, pred: tuple[str, int]) -> int:
        attr, value = pred
        return self.delete(np.flatnonzero(self.columns[attr] <= value))

    def live(self) -> Columns:
        keep = ~self.deleted
        return {name: col[keep] for name, col in self.columns.items()}

    def scan(self, select: tuple[str, ...], pred: tuple[str, int]):
        return scan(self.live(), select, pred)

    def merge(self) -> int:
        live = self.live()
        order = np.argsort(live[self.sort_key], kind="stable")
        self.columns = {name: col[order] for name, col in live.items()}
        self.deleted = np.zeros(self.total_rows, dtype=bool)
        return self.total_rows
