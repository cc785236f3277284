"""The FIFO disk-array controller event loop.

The array serves one I/O unit at a time in submission (FIFO) order.
A unit that is not contiguous with the previously served one — a
different file, a different offset, or another stream's data in
between — costs a head repositioning (seek) before the transfer.
Streams submit windows of units and refill when a window completes,
per their :class:`~repro.iosim.streams.SubmissionPolicy`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import SimulationError
from repro.iosim.request import IoRequest
from repro.iosim.streams import ScanStream
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class IoSlice:
    """One served I/O unit on the simulated clock (for trace export).

    Feed a list of these to :func:`repro.obs.export.chrome_trace` via
    ``io_slices=`` to see per-stream disk activity in Perfetto.
    """

    stream: str
    file: str
    start: float          #: simulated seconds (seek included)
    finish: float
    size_bytes: int
    seek_seconds: float   #: 0.0 when the unit was contiguous


@dataclass
class StreamStats:
    """Per-stream outcome of one simulation run."""

    name: str
    bytes_read: int = 0
    units: int = 0
    windows: int = 0
    switches: int = 0          #: served units that required a seek
    seek_seconds: float = 0.0
    transfer_seconds: float = 0.0
    start_time: float = 0.0
    finish_time: float = 0.0

    @property
    def elapsed(self) -> float:
        """Wall time from stream start to its last completed unit."""
        return self.finish_time - self.start_time


@dataclass
class _StreamState:
    stream: ScanStream
    stats: StreamStats
    pending_windows: list = field(default_factory=list)  # reversed stack
    next_window_id: int = 0
    open_windows: dict[int, int] = field(default_factory=dict)  # id -> units left


class DiskArraySim:
    """Simulates one run of concurrent scan streams over the array."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration

    @property
    def unit_bytes(self) -> int:
        """Array-wide transfer size of one I/O unit (striped)."""
        return self.calibration.io_unit_bytes * self.calibration.num_disks

    def transfer_seconds(self, size_bytes: int) -> float:
        return size_bytes / self.calibration.total_disk_bandwidth

    def run(
        self, streams: list[ScanStream], trace: list | None = None
    ) -> dict[str, StreamStats]:
        """Run all streams to completion; returns stats per stream.

        When ``trace`` is a list, one :class:`IoSlice` per served unit
        is appended to it (per-stream I/O spans on the simulated
        clock).
        """
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate stream names: {names}")
        states = {
            s.name: _StreamState(
                stream=s,
                stats=StreamStats(name=s.name, start_time=s.start_time),
                pending_windows=list(reversed(s.windows())),
            )
            for s in streams
        }

        seq = itertools.count()
        queue: list[tuple[float, int, IoRequest]] = []

        def submit_window(state: _StreamState, now: float) -> None:
            if not state.pending_windows:
                return
            window = state.pending_windows.pop()
            window_id = state.next_window_id
            state.next_window_id += 1
            units = window.unit_extents()
            state.open_windows[window_id] = len(units)
            state.stats.windows += 1
            for offset, size in units:
                request = IoRequest(
                    stream_name=state.stream.name,
                    file_name=window.file_name,
                    offset=offset,
                    size_bytes=size,
                    submit_time=now,
                    seq=next(seq),
                    window_id=window_id,
                )
                heapq.heappush(queue, (request.submit_time, request.seq, request))

        for state in states.values():
            for _ in range(state.stream.policy.windows_in_flight):
                submit_window(state, state.stream.start_time)

        server_time = 0.0
        last_file: str | None = None
        last_end_offset = -1

        while queue:
            _submit, _seq, request = heapq.heappop(queue)
            state = states[request.stream_name]
            start = max(server_time, request.submit_time)
            contiguous = (
                request.file_name == last_file
                and request.offset == last_end_offset
            )
            seek = 0.0 if contiguous else self.calibration.seek_seconds
            transfer = self.transfer_seconds(request.size_bytes)
            finish = start + seek + transfer
            request.start_time = start
            request.finish_time = finish

            stats = state.stats
            stats.bytes_read += request.size_bytes
            stats.units += 1
            if not contiguous:
                stats.switches += 1
            stats.seek_seconds += seek
            stats.transfer_seconds += transfer
            stats.finish_time = max(stats.finish_time, finish)

            if trace is not None:
                trace.append(
                    IoSlice(
                        stream=request.stream_name,
                        file=request.file_name,
                        start=start,
                        finish=finish,
                        size_bytes=request.size_bytes,
                        seek_seconds=seek,
                    )
                )

            server_time = finish
            last_file = request.file_name
            last_end_offset = request.end_offset

            remaining = state.open_windows[request.window_id] - 1
            state.open_windows[request.window_id] = remaining
            if remaining == 0:
                del state.open_windows[request.window_id]
                submit_window(state, finish)

        stats = {name: state.stats for name, state in states.items()}
        # The metrics count the run once, from its stream sums.
        if obs_metrics.enabled():
            obs_metrics.IO_UNITS.inc(sum(s.units for s in stats.values()))
            obs_metrics.IO_BYTES.inc(sum(s.bytes_read for s in stats.values()))
            obs_metrics.IO_SEEKS.inc(sum(s.switches for s in stats.values()))
        return stats

    def solo_scan_seconds(self, stream: ScanStream) -> float:
        """Convenience: elapsed time of one stream running alone."""
        return self.run([stream])[stream.name].elapsed
