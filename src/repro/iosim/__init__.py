"""Discrete-event disk-array simulation.

Models the paper's I/O substrate: a software RAID of identical disks
(60 MB/s each), an AIO interface that issues 128 KB-per-disk I/O units
with a configurable prefetch depth, and a FIFO disk controller that
charges a head-repositioning penalty whenever the served request is not
contiguous with the previous one.

The Figure 11 effect — the pipelined column scanner staying "one step
ahead" in the request queue and getting favored by the controller —
emerges from the per-stream submission policies, not from special
casing.
"""

from repro.iosim.request import FileExtent, IoRequest
from repro.iosim.sharing import (
    CompetingScansMeasurement,
    SharedScanOutcome,
    SharedScanQuery,
    SharedScanSimulator,
    measure_competing_scans,
)
from repro.iosim.sim import DiskArraySim, StreamStats
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.iosim.traffic import competing_row_scan

__all__ = [
    "FileExtent",
    "IoRequest",
    "ScanStream",
    "SubmissionPolicy",
    "DiskArraySim",
    "StreamStats",
    "SharedScanSimulator",
    "SharedScanQuery",
    "SharedScanOutcome",
    "CompetingScansMeasurement",
    "measure_competing_scans",
    "competing_row_scan",
]
