"""Scan sharing (Section 2.1.1's circular-scan optimization).

When multiple concurrent queries scan the same table, it often pays to
employ a single scanner and deliver data to every query off one reading
stream (Teradata, RedBrick, SQL Server, QPipe).  The paper notes the
optimization is orthogonal to row-vs-column placement and does not
study it; it is implemented here as an extension so the benefit can be
quantified on the same simulated array.

A late arrival attaches to the running scan mid-file (circular scan):
it consumes from the attach point to the end alongside the others, then
the stream wraps around once to serve it the prefix it missed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.iosim.request import FileExtent
from repro.iosim.sim import DiskArraySim
from repro.iosim.streams import ScanStream, SubmissionPolicy


@dataclass(frozen=True)
class SharedScanQuery:
    """One query attached to a shared table scan."""

    name: str
    arrival_time: float = 0.0


@dataclass(frozen=True)
class SharedScanOutcome:
    """Completion times with and without sharing."""

    shared_finish: dict[str, float]
    independent_finish: dict[str, float]

    @property
    def shared_makespan(self) -> float:
        return max(self.shared_finish.values())

    @property
    def independent_makespan(self) -> float:
        return max(self.independent_finish.values())

    @property
    def speedup(self) -> float:
        """Makespan improvement from sharing the scan."""
        if self.shared_makespan == 0:
            return 1.0
        return self.independent_makespan / self.shared_makespan


class SharedScanSimulator:
    """Compares one shared circular scan against independent scans."""

    def __init__(
        self,
        table_bytes: int,
        sim: DiskArraySim | None = None,
        prefetch_depth: int | None = None,
    ):
        if table_bytes <= 0:
            raise SimulationError(f"table must be non-empty: {table_bytes}")
        self.table_bytes = table_bytes
        self.sim = sim or DiskArraySim()
        self.prefetch_depth = (
            prefetch_depth
            if prefetch_depth is not None
            else self.sim.calibration.default_prefetch_depth
        )

    def _scan_seconds(self) -> float:
        """One full sequential pass over the table."""
        stream = ScanStream(
            name="pass",
            files=[FileExtent("T", self.table_bytes)],
            unit_bytes=self.sim.unit_bytes,
            prefetch_depth=self.prefetch_depth,
            policy=SubmissionPolicy.ROW,
        )
        return self.sim.solo_scan_seconds(stream)

    def run_shared(self, queries: list[SharedScanQuery]) -> dict[str, float]:
        """Completion time per query under one circular scan.

        The scan runs continuously while any query is unserved.  A query
        arriving at time ``t`` into a scan that started at position
        ``p(t)`` finishes one full table-length later: it rides to the
        end of the current pass and the scan wraps around for the
        prefix.  The disk does one stream of sequential I/O, so each
        query's service takes exactly one pass from its arrival (plus
        waiting for the scan to start).
        """
        self._validate(queries)
        pass_seconds = self._scan_seconds()
        start = min(query.arrival_time for query in queries)
        finish = {}
        for query in queries:
            begin = max(query.arrival_time, start)
            finish[query.name] = begin + pass_seconds
        return finish

    def run_independent(self, queries: list[SharedScanQuery]) -> dict[str, float]:
        """Completion time per query with one stream per query."""
        self._validate(queries)
        streams = [
            ScanStream(
                name=query.name,
                files=[FileExtent(f"T.{query.name}", self.table_bytes)],
                unit_bytes=self.sim.unit_bytes,
                prefetch_depth=self.prefetch_depth,
                policy=SubmissionPolicy.ROW,
                start_time=query.arrival_time,
            )
            for query in queries
        ]
        stats = self.sim.run(streams)
        return {name: s.finish_time for name, s in stats.items()}

    def compare(self, queries: list[SharedScanQuery]) -> SharedScanOutcome:
        """Both policies for the same arrival pattern."""
        return SharedScanOutcome(
            shared_finish=self.run_shared(queries),
            independent_finish=self.run_independent(queries),
        )

    @staticmethod
    def _validate(queries: list[SharedScanQuery]) -> None:
        if not queries:
            raise SimulationError("no queries to schedule")
        names = [query.name for query in queries]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate query names: {names}")
        if any(query.arrival_time < 0 for query in queries):
            raise SimulationError("arrival times must be non-negative")


@dataclass(frozen=True)
class CompetingScansMeasurement:
    """One Figure 11 point: n competing scans, shared vs independent.

    ``independent_bytes_read`` is always ``n x table_bytes`` (every
    query drags its own stream through the array, contending for the
    heads); ``shared_bytes_read`` is what the single circular scan
    actually transferred while any query was unserved — exactly one
    pass when the arrivals are simultaneous, approaching one pass per
    *batch* as arrivals cluster.  Sharing therefore strictly reduces
    modeled I/O bytes for any >= 2 co-running scans of the same table.
    """

    queries: tuple[str, ...]
    pass_seconds: float
    shared_finish: dict[str, float]
    independent_finish: dict[str, float]
    shared_bytes_read: int
    independent_bytes_read: int

    @property
    def shared_makespan(self) -> float:
        return max(self.shared_finish.values())

    @property
    def independent_makespan(self) -> float:
        return max(self.independent_finish.values())

    @property
    def speedup(self) -> float:
        """Makespan improvement from sharing the scan."""
        if self.shared_makespan == 0:
            return 1.0
        return self.independent_makespan / self.shared_makespan

    @property
    def io_savings(self) -> float:
        """Fraction of independent-scan bytes the shared stream avoids."""
        if self.independent_bytes_read == 0:
            return 0.0
        return 1.0 - self.shared_bytes_read / self.independent_bytes_read

    def as_dict(self) -> dict:
        return {
            "queries": list(self.queries),
            "pass_seconds": self.pass_seconds,
            "shared_finish": dict(self.shared_finish),
            "independent_finish": dict(self.independent_finish),
            "shared_makespan": self.shared_makespan,
            "independent_makespan": self.independent_makespan,
            "speedup": self.speedup,
            "shared_bytes_read": self.shared_bytes_read,
            "independent_bytes_read": self.independent_bytes_read,
            "io_savings": self.io_savings,
        }


def measure_competing_scans(
    table_bytes: int,
    arrivals: list[float] | list[SharedScanQuery],
    sim: DiskArraySim | None = None,
    prefetch_depth: int | None = None,
) -> CompetingScansMeasurement:
    """The Figure 11 competing-scans model for one arrival pattern.

    ``arrivals`` is either a list of arrival times (queries named
    ``q0..qN``) or explicit :class:`SharedScanQuery` objects.  The
    independent side reproduces the figure's shape — per-query latency
    grows with the number of competing streams as the array seeks
    between them — while the shared circular scan serves every rider
    in one pass from its arrival, with the I/O stream accounted once.
    """
    queries = [
        query
        if isinstance(query, SharedScanQuery)
        else SharedScanQuery(name=f"q{index}", arrival_time=float(query))
        for index, query in enumerate(arrivals)
    ]
    simulator = SharedScanSimulator(table_bytes, sim=sim, prefetch_depth=prefetch_depth)
    pass_seconds = simulator._scan_seconds()
    shared = simulator.run_shared(queries)
    independent = simulator.run_independent(queries)
    # The circular scan reads continuously from the first arrival until
    # the last rider is served; bytes follow from the pass rate.
    start = min(query.arrival_time for query in queries)
    end = max(shared.values())
    busy_seconds = max(0.0, end - start)
    shared_bytes = (
        int(round(table_bytes * busy_seconds / pass_seconds))
        if pass_seconds > 0
        else table_bytes
    )
    return CompetingScansMeasurement(
        queries=tuple(query.name for query in queries),
        pass_seconds=pass_seconds,
        shared_finish=shared,
        independent_finish=independent,
        shared_bytes_read=shared_bytes,
        independent_bytes_read=table_bytes * len(queries),
    )
