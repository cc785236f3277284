"""Cache-line accounting for the hardware-prefetcher-aware memory model.

Section 2.1.2: on a Pentium 4-class CPU, sequentially accessed memory is
prefetched into L2 and costs memory-*bandwidth* time (overlappable with
computation), while unpredictable accesses stall for the full measured
memory latency (380 cycles).  The scanners therefore classify the lines
they touch on each page: when a scan node visits most of a page's lines
the hardware prefetcher keeps up (sequential); when it hops across a
sparse position list, each touched line is a random miss.

The model is written once, for all of a scan node's pages and every
line size at a time (:func:`position_lines`).
"""

from __future__ import annotations

import numpy as np

#: A node whose positions cover at least this fraction of a page's lines
#: is treated as a sequential (prefetched) access pattern.
PREFETCH_COVERAGE_THRESHOLD = 0.5


def page_lines(count, value_bits: int, line_bytes: int):
    """Lines occupied by ``count`` packed values (a number, or one per page)."""
    line_bits = line_bytes * 8
    return (count * value_bits + line_bits - 1) // line_bits


def position_lines(
    bounds: np.ndarray,
    in_page: np.ndarray,
    counts: np.ndarray,
    value_bits: int,
    line_sizes,
    threshold: float = PREFETCH_COVERAGE_THRESHOLD,
) -> list[tuple[int, int]]:
    """The lines a position-driven access moves: ``(seq_lines,
    rand_lines)`` summed over its pages, one pair per line size.

    Page ``t`` of the ``len(counts)`` pages accessed holds ``counts[t]``
    values of fixed width (``value_bits``), densely packed from its
    start, and the positions ``in_page[bounds[t]:bounds[t + 1]]`` —
    value indexes on it, strictly ascending, as a position list's are;
    a page may have none.  A page's *touched* lines are the distinct
    cache lines holding a value's first or last bit (a wide value can
    straddle lines).  Where they cover at least ``threshold`` of the
    lines the page occupies, all of those arrive via the prefetcher;
    under sparser coverage each touched line is an unpredicted miss.

    In such a list the line ids ``first0, last0, first1, last1, ...``
    never descend within a page, so a line is distinct when it differs
    from the id before it — no sort.  Every line size is one row of the
    same arrays: the positions' bit offsets are computed once.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    offsets = np.asarray(in_page, dtype=np.int64) * value_bits
    size = offsets.size
    line_bytes = np.array(line_sizes, dtype=np.int64)[:, None]
    line_bits = line_bytes * 8
    rows = np.arange(len(line_sizes))[:, None]
    first = offsets // line_bits
    last = (offsets + (value_bits - 1)) // line_bits
    # Is ``first`` a line not yet seen on its page?  A column more than
    # there are positions, where an empty last page's front falls.
    fresh = np.empty((len(line_sizes), size + 1), dtype=bool)
    np.not_equal(first[:, 1:], last[:, :-1], out=fresh[:, 1:size])
    fresh[:, bounds[:-1]] = True
    fresh[:, size] = False
    # Plus a line a value straddles into.
    touched = _per_page(fresh, bounds + rows * (size + 1))
    touched += _per_page(last != first, bounds + rows * size)
    total = page_lines(np.asarray(counts, dtype=np.int64), value_bits, line_bytes)
    dense = touched / np.maximum(total, 1) >= threshold  # an empty page has no coverage
    seq = (total * dense).sum(axis=1).tolist()
    rand = (touched * ~dense).sum(axis=1).tolist()
    return list(zip(seq, rand))


def _per_page(marks: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many of each row's ``marks`` fall on each page, where row
    ``r``'s pages start at the flat offsets ``bounds[r]``."""
    edges = np.searchsorted(np.flatnonzero(marks), bounds)
    return edges[:, 1:] - edges[:, :-1]
