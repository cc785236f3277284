"""Scan streams and their AIO submission policies.

A stream turns a list of file extents into a sequence of *windows*
(``prefetch_depth`` consecutive I/O units of one file, the amount the
AIO layer issues at once).  Multi-file scans visit their files round
robin — the pipelined column scanner consumes all its columns at the
same row pace.

The policy controls how many windows a stream keeps in flight:

* ``ROW`` / ``COLUMN_SLOW`` — one window at a time; the next window is
  submitted only when the current one completes.  This is the paper's
  "slow" column variant (wait for one column's request before
  submitting the next).
* ``COLUMN_FAST`` — two windows in flight: while the disk serves column
  *i*, the CPU has already submitted column *i+1*'s request.  Being one
  step ahead is what gets the column system favored by the FIFO
  controller under competing traffic (Figure 11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.iosim.request import FileExtent


class SubmissionPolicy(enum.Enum):
    """How aggressively a stream keeps requests outstanding."""

    ROW = "row"
    COLUMN_FAST = "column-fast"
    COLUMN_SLOW = "column-slow"

    @property
    def windows_in_flight(self) -> int:
        if self is SubmissionPolicy.COLUMN_FAST:
            return 2
        return 1


@dataclass(frozen=True)
class _Window:
    """One batch of consecutive units from one file."""

    file_name: str
    offset: int
    size_bytes: int
    unit_bytes: int

    def unit_extents(self) -> list[tuple[int, int]]:
        """``(offset, size)`` per unit within this window."""
        units = []
        offset = self.offset
        remaining = self.size_bytes
        while remaining > 0:
            size = min(self.unit_bytes, remaining)
            units.append((offset, size))
            offset += size
            remaining -= size
        return units


class ScanStream:
    """A sequential scan of one or more files through the AIO layer."""

    def __init__(
        self,
        name: str,
        files: list[FileExtent],
        unit_bytes: int,
        prefetch_depth: int,
        policy: SubmissionPolicy,
        start_time: float = 0.0,
    ):
        if not files:
            raise SimulationError(f"stream {name!r} has no files")
        if unit_bytes <= 0:
            raise SimulationError(f"unit size must be positive: {unit_bytes}")
        if prefetch_depth <= 0:
            raise SimulationError(f"prefetch depth must be positive: {prefetch_depth}")
        self.name = name
        self.files = list(files)
        self.unit_bytes = unit_bytes
        self.prefetch_depth = prefetch_depth
        self.policy = policy
        self.start_time = start_time
        self._windows = self._build_windows()

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files)

    def windows(self) -> list[_Window]:
        """The stream's windows in submission order."""
        return list(self._windows)

    def _build_windows(self) -> list[_Window]:
        """Round-robin windows of ``prefetch_depth`` units per file."""
        window_bytes = self.unit_bytes * self.prefetch_depth
        cursors = {f.name: 0 for f in self.files}
        remaining = {f.name: f.size_bytes for f in self.files}
        order = [f.name for f in self.files if f.size_bytes > 0]
        windows: list[_Window] = []
        index = 0
        while order:
            file_name = order[index % len(order)]
            size = min(window_bytes, remaining[file_name])
            windows.append(
                _Window(
                    file_name=file_name,
                    offset=cursors[file_name],
                    size_bytes=size,
                    unit_bytes=self.unit_bytes,
                )
            )
            cursors[file_name] += size
            remaining[file_name] -= size
            if remaining[file_name] <= 0:
                position = order.index(file_name)
                order.pop(position)
                # Keep the round-robin pointer on the next file.
                index = position
            else:
                index += 1
        return windows
