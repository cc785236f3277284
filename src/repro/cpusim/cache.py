"""Cache-line accounting for the hardware-prefetcher-aware memory model.

Section 2.1.2: on a Pentium 4-class CPU, sequentially accessed memory is
prefetched into L2 and costs memory-*bandwidth* time (overlappable with
computation), while unpredictable accesses stall for the full measured
memory latency (380 cycles).  The scanners therefore classify the lines
they touch on each page: when a scan node visits most of a page's lines
the hardware prefetcher keeps up (sequential); when it hops across a
sparse position list, each touched line is a random miss.

The model is written once, for every page of every position-driven
access a query makes and every line size at a time
(:func:`access_lines`).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

#: A node whose positions cover at least this fraction of a page's lines
#: is treated as a sequential (prefetched) access pattern.
PREFETCH_COVERAGE_THRESHOLD = 0.5


def page_lines(count, value_bits: int, line_bytes: int):
    """Lines occupied by ``count`` packed values (a number, or one per page)."""
    line_bits = line_bytes * 8
    return (count * value_bits + line_bits - 1) // line_bits


def access_lines(
    accesses, line_sizes, threshold: float = PREFETCH_COVERAGE_THRESHOLD
) -> list[tuple[int, int]]:
    """The lines a query's position-driven accesses move: ``(seq_lines,
    rand_lines)`` summed over the pages of every access, each page's
    times its access's weight, one pair per line size.

    An access is ``(bounds, in_page, counts, value_bits, weight)``: page
    ``t`` of its ``len(counts)`` pages holds ``counts[t]`` values of
    ``value_bits`` each, densely packed from its start, and the positions
    ``in_page[bounds[t]:bounds[t + 1]]`` — value indexes on it, strictly
    ascending, as a position list's are; a page may have none.  A page's
    *touched* lines are the distinct cache lines holding a value's first
    or last bit (a wide value can straddle lines).  Where they cover at
    least ``threshold`` of the lines the page occupies, all of those
    arrive via the prefetcher; under sparser coverage each touched line
    is an unpredicted miss.

    Every access's positions are laid back to back, so each page is one
    range of a single array, whatever access it belongs to.  In such a
    range the line ids ``first0, last0, first1, last1, ...`` never
    descend, so a line is distinct when it differs from the id before it
    — no sort.  Every line size is one row of the same arrays: the
    positions' bit offsets are computed once, in one pass for the query.
    """
    bounds, in_page, counts, bits, weights = zip(*accesses)
    pages = [len(page_counts) for page_counts in counts]
    sizes = [int(page_bounds[-1]) for page_bounds in bounds]
    size = sum(sizes)
    # Each value's first bit on its page, and its last (a page's bits fit 32).
    offsets = [np.multiply(chosen, width, dtype=np.int32) for chosen, width in zip(in_page, bits)]
    line_bits = np.array(line_sizes, dtype=np.int32)[:, None] * 8
    first = np.concatenate(offsets) // line_bits
    last = np.concatenate([at + (width - 1) for at, width in zip(offsets, bits)]) // line_bits
    # Each page's first position among all of them, then the end.
    per_access = np.array((bits, weights, list(accumulate(sizes, initial=0))[:-1]))
    page_bits, page_weight, page_base = per_access.repeat(pages, axis=1)
    edges = np.empty(len(page_bits) + 1, dtype=np.int64)
    starts = edges[:-1]
    np.add(np.concatenate([page_bounds[:-1] for page_bounds in bounds]), page_base, out=starts)
    edges[-1] = size
    # A line a position brings in: its first, where that differs from the
    # line before it on its page, and its last, where the value
    # straddles.  A column more than there are positions, where an empty
    # last page's front falls, holds none.
    fresh = np.empty((len(line_sizes), size + 1), dtype=bool)
    np.not_equal(first[:, 1:], last[:, :-1], out=fresh[:, 1:size])
    fresh[:, starts] = True
    fresh[:, size] = False
    marks = fresh.view(np.int8)
    marks[:, :size] += last != first
    # What reduceat reads for an empty page is dropped.
    touched = np.add.reduceat(marks, starts, axis=1, dtype=np.int32) * (edges[1:] > starts)
    total = page_lines(np.concatenate(counts, dtype=np.int64), page_bits, line_bits // 8)
    dense = touched / np.maximum(total, 1) >= threshold  # an empty page has no coverage
    seq = (total * dense) @ page_weight
    rand = (touched * ~dense) @ page_weight
    return list(zip(seq.tolist(), rand.tolist()))
