"""Cache-line accounting for the hardware-prefetcher-aware memory model.

Section 2.1.2: on a Pentium 4-class CPU, sequentially accessed memory is
prefetched into L2 and costs memory-*bandwidth* time (overlappable with
computation), while unpredictable accesses stall for the full measured
memory latency (380 cycles).  The scanners therefore classify the lines
they touch on each page: when a scan node visits most of a page's lines
the hardware prefetcher keeps up (sequential); when it hops across a
sparse position list, each touched line is a random miss.

The model is written once, for any number of pages at a time
(:func:`classify_access`).
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


def classify_access(
    pages: np.ndarray,
    positions: np.ndarray,
    counts: np.ndarray,
    value_bits: int,
    line_bytes: int,
    threshold: float = PREFETCH_COVERAGE_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a positional access into ``(seq_lines, rand_lines)`` per page.

    ``positions[i]`` is a value index on page ``pages[i]`` of the
    ``len(counts)`` pages accessed; page ``p`` holds ``counts[p]`` values
    of fixed width (``value_bits``), densely packed from its start.
    ``pages`` ascends and the positions of one page ascend strictly, as
    a position list does.  A page's *touched* lines are the distinct
    cache lines holding a value's first or last bit (a wide value can
    straddle lines).  Where they cover at least ``threshold`` of the
    lines the page occupies, all of those arrive via the prefetcher;
    under sparser coverage each touched line is an unpredicted miss.

    In such a list the line ids ``first0, last0, first1, last1, ...``
    never descend within a page, so a line is distinct when it differs
    from the id before it — no sort.
    """
    line_bits = line_bytes * 8
    pages = np.asarray(pages, dtype=np.int64)
    offsets = np.asarray(positions, dtype=np.int64) * value_bits
    first = offsets // line_bits
    last = (offsets + (value_bits - 1)) // line_bits
    fresh = np.empty(first.size, dtype=bool)  # is ``first`` a line not yet seen?
    fresh[:1] = True
    np.not_equal(first[1:], last[:-1], out=fresh[1:])
    fresh[1:] |= pages[1:] != pages[:-1]
    distinct = fresh + (last != first).view(np.int8)
    touched = np.bincount(pages, distinct, len(counts)).astype(np.int64)
    total = page_lines(np.asarray(counts, dtype=np.int64), value_bits, line_bytes)
    dense = touched / np.maximum(total, 1) >= threshold  # an empty page has no coverage
    return np.where(dense, total, 0), np.where(dense, 0, touched)
