"""A yardstick for the machine's speed at this moment.

On the shared two-core box this benchmark runs on, the *same* scan takes
13 ms in one half-minute and 38 ms in the next (measured; no steal time
is reported, pure-Python loops slow down 1.6x, numpy page work 3x — a
neighbour on the memory system).  No run of ten seconds can average that
away, so every timed span is divided by the slowdown the yardstick shows
at that moment, and metrics read as *milliseconds at yardstick speed 1*.

The yardstick is a fixed kernel that never touches the system under
test: it streams through an 8 MB buffer 24 pages at a time and does to
each 4 KB page what a scanner does — checksum it, view it as a
structured array, widen eight integer columns, copy a text column,
evaluate a predicate, gather the survivors.  Its slowdown therefore
tracks the data path's (page-sized numpy calls plus interpreter
dispatch), not a spinning counter's.

``REFERENCE_SECONDS`` only fixes the unit: it is roughly the kernel's time
on the box the baselines were taken on, on a quiet day.  On other hardware
every metric shifts by one constant factor, which a parent-versus-change
comparison on the same box cancels.

Only the time a span spent *computing* is divided (``at_speed_1``): time
the process spent asleep or blocked — a supervisor polling its worker
pool — passes at the same speed on a slow machine as on a fast one.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

REFERENCE_SECONDS = 0.45e-3
PAGE_BYTES = 4096
PAGES_PER_CALL = 24
BUFFER_PAGES = 2048
KERNEL_RUNS_PER_SAMPLE = 3

_ROW = np.dtype(
    {
        "names": [f"a{i}" for i in range(8)] + ["text"],
        "formats": ["<i4"] * 8 + ["S60"],
        "offsets": [4 * i for i in range(8)] + [32],
        "itemsize": 92,
    }
)
_ROWS_PER_PAGE = (PAGE_BYTES - 20) // _ROW.itemsize


def at_speed_1(wall: float, cpu: float, slowdown: float) -> float:
    """A span's seconds had the machine run at yardstick speed 1.

    ``cpu`` (this process's CPU seconds inside the span) scales with the
    slowdown; the rest of ``wall`` was spent waiting and does not.
    """
    return cpu / slowdown + (wall - cpu)


class Stopwatch:
    """Wall and CPU seconds of a ``with`` block (CPU: this process, all threads)."""

    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = min(self.wall, time.process_time() - self._cpu)


class Yardstick:
    """Samples of the machine's slowdown, taken between timed spans."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._buffer = rng.integers(
            0, 255, PAGE_BYTES * BUFFER_PAGES, dtype=np.uint8
        ).tobytes()
        self._page = 0
        #: ``(perf_counter time, slowdown)`` of every sample, in order.
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> int:
        first = self._page
        self._page = (first + PAGES_PER_CALL) % (BUFFER_PAGES - PAGES_PER_CALL)
        survivors = 0
        for index in range(first, first + PAGES_PER_CALL):
            page = self._buffer[index * PAGE_BYTES : (index + 1) * PAGE_BYTES]
            zlib.crc32(page)
            rows = np.frombuffer(page, dtype=_ROW, count=_ROWS_PER_PAGE, offset=4)
            columns = {name: rows[name].astype(np.int64) for name in _ROW.names[:8]}
            columns["text"] = np.ascontiguousarray(rows["text"])
            mask = columns["a0"] <= 0
            survivors += len(np.flatnonzero(mask))
            for column in columns.values():
                column[mask]
        return survivors

    def sample(self) -> float:
        """Run the kernel a few times; record and return the slowdown now."""
        times = []
        for _ in range(KERNEL_RUNS_PER_SAMPLE):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        slowdown = statistics.median(times) / REFERENCE_SECONDS
        self.samples.append((time.perf_counter(), slowdown))
        return slowdown

    def around(self, first: int, last: int) -> float:
        """Median slowdown over samples ``first..last`` (indices, clipped)."""
        window = self.samples[max(0, first) : last + 1]
        return statistics.median(slowdown for _, slowdown in window)
