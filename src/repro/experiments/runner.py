"""Execute + simulate one scan query and report paper-style numbers.

The measurement pipeline:

1. execute the query on the real (small) table, collecting work events;
2. scale the event counts to the configured cardinality (all linear);
3. run the discrete-event disk simulation with the *paper-scale* file
   sizes, the configured prefetch depth, and any competing stream;
4. charge the simulation's I/O counters (bytes, units, stream switches)
   into the events and convert everything into the paper's CPU
   breakdown;
5. elapsed time is ``max(I/O, CPU)`` — the engine overlaps I/O with
   computation through its AIO interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpusim.breakdown import CpuBreakdown
from repro.cpusim.costmodel import CpuModel
from repro.cpusim.events import CostEvents
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, run_scan
from repro.engine.plan import ColumnScannerKind
from repro.engine.query import JoinSide, Query, ScanQuery
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.iosim.request import FileExtent
from repro.iosim.sim import DiskArraySim, StreamStats
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.iosim.traffic import competing_row_scan
from repro.storage.layout import Layout
from repro.storage.table import ColumnTable, PaxTable, RowTable, Table

_VICTIM = "measured-query"


@dataclass(frozen=True)
class ScanMeasurement:
    """One (query, layout, configuration) data point."""

    layout: Layout
    selected_attributes: int
    selected_bytes: int          #: uncompressed bytes per tuple projected
    bytes_read: int              #: paper-scale bytes the scan reads
    io_elapsed: float            #: disk-sim wall time for the scan
    io_stats: StreamStats
    cpu: CpuBreakdown
    events: CostEvents
    result_tuples: int           #: qualifying tuples in the small run
    executed_rows: int
    cardinality: int

    @property
    def elapsed(self) -> float:
        """Total elapsed time: I/O overlapped with computation."""
        return max(self.io_elapsed, self.cpu.total)

    @property
    def cpu_seconds(self) -> float:
        return self.cpu.total

    @property
    def io_bound(self) -> bool:
        return self.io_elapsed >= self.cpu.total


def _scan_policy(table: Table, config: ExperimentConfig) -> SubmissionPolicy:
    if isinstance(table, (RowTable, PaxTable)):
        return SubmissionPolicy.ROW
    if config.slow_column_io:
        return SubmissionPolicy.COLUMN_SLOW
    return SubmissionPolicy.COLUMN_FAST


def _scan_files(table: Table, query: ScanQuery, config: ExperimentConfig) -> list[FileExtent]:
    """Paper-scale file extents the scan must read."""
    if isinstance(table, (RowTable, PaxTable)):
        sizes = table.file_sizes_for([], cardinality=config.cardinality)
    elif isinstance(table, ColumnTable):
        attrs = list(query.scan_attributes())
        sizes = table.file_sizes_for(attrs, cardinality=config.cardinality)
    else:
        raise SimulationError(f"unsupported table type: {type(table).__name__}")
    prefix = table.schema.name
    return [
        FileExtent(name=f"{prefix}.{name}", size_bytes=size)
        for name, size in sizes.items()
    ]


@dataclass(frozen=True)
class JoinMeasurement:
    """One merge-join (query, layouts, configuration) data point."""

    bytes_read: int
    io_elapsed: float
    cpu: CpuBreakdown
    events: CostEvents
    result_tuples: int
    left_cardinality: int
    right_cardinality: int

    @property
    def elapsed(self) -> float:
        return max(self.io_elapsed, self.cpu.total)

    @property
    def io_bound(self) -> bool:
        return self.io_elapsed >= self.cpu.total


def measure_join(
    left_table: Table,
    left_query: ScanQuery,
    right_table: Table,
    right_query: ScanQuery,
    left_key: str,
    right_key: str,
    config: ExperimentConfig | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
) -> JoinMeasurement:
    """Measure a merge join of two tables under one configuration.

    ``config.cardinality`` sets the *left* (parent) table's paper-scale
    row count; the right side scales by the materialized ratio (TPC-H:
    about four line items per order).  The disks serve both scans'
    files through one stream, so the join's disk rate follows the
    paper's weighted-file-rate equation (eq. 2).
    """
    config = config or ExperimentConfig()
    if left_table.num_rows <= 0 or right_table.num_rows <= 0:
        raise SimulationError("cannot measure a join over empty tables")

    context = ExecutionContext(
        calibration=config.calibration, block_size=config.block_size
    )
    join = JoinSide(left_table, left_query, left_key, right_key)
    result = run_scan(
        right_table, Query(right_query, join=join), context, column_scanner
    )

    left_cardinality = config.cardinality
    ratio = right_table.num_rows / left_table.num_rows
    right_cardinality = int(round(left_cardinality * ratio))
    scale = left_cardinality / left_table.num_rows
    events = context.events.scaled(scale)

    sim = DiskArraySim(config.calibration)
    files = _scan_files(
        left_table, left_query, config.with_(cardinality=left_cardinality)
    )
    files += _scan_files(
        right_table, right_query, config.with_(cardinality=right_cardinality)
    )
    any_columnar = isinstance(left_table, ColumnTable) or isinstance(
        right_table, ColumnTable
    )
    policy = (
        SubmissionPolicy.COLUMN_FAST if any_columnar else SubmissionPolicy.ROW
    )
    if len(files) == 1:
        policy = SubmissionPolicy.ROW
    victim = ScanStream(
        name=_VICTIM,
        files=files,
        unit_bytes=sim.unit_bytes,
        prefetch_depth=config.effective_prefetch_depth,
        policy=policy,
    )
    stats = sim.run([victim])[_VICTIM]

    events.bytes_read = stats.bytes_read
    events.io_requests = stats.units
    events.stream_switches = stats.switches
    cpu = CpuModel(config.calibration).breakdown(events)
    return JoinMeasurement(
        bytes_read=stats.bytes_read,
        io_elapsed=stats.elapsed,
        cpu=cpu,
        events=events,
        result_tuples=result.num_tuples,
        left_cardinality=left_cardinality,
        right_cardinality=right_cardinality,
    )


@dataclass(frozen=True)
class ParallelScanMeasurement:
    """One scan measured with partitioned multi-core execution.

    The disk array serves one stream per partition (all starting at
    time zero, so they compete for the same spindles); CPU work is the
    merged per-worker events divided across ``workers`` cores.
    """

    serial: ScanMeasurement
    workers: int
    partitions: int
    io_elapsed: float            #: slowest partition stream's finish time
    cpu: CpuBreakdown
    events: CostEvents

    @property
    def elapsed(self) -> float:
        return max(self.io_elapsed, self.cpu.total / self.workers)

    @property
    def speedup(self) -> float:
        """Serial elapsed over parallel elapsed."""
        return self.serial.elapsed / self.elapsed if self.elapsed else float("inf")


def measure_parallel_scan(
    table: Table,
    query: ScanQuery,
    config: ExperimentConfig | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    workers: int = 2,
    partitions: int | None = None,
) -> ParallelScanMeasurement:
    """Measure one scan fanned out over row-range partitions.

    Executes the real partition-and-merge machinery (in process — the
    accounting, not the wall clock, is what feeds the model), scales the
    merged events to paper cardinality, and simulates one disk stream
    per partition: partition ``i`` reads its proportional share of every
    file extent, and all streams start at time zero.  Elapsed is
    ``max(slowest stream, CPU / workers)`` — the multi-core analogue of
    the serial ``max(I/O, CPU)`` overlap.
    """
    from repro.engine.parallel import parallel_query
    from repro.storage.partition import partition_ranges

    config = config or ExperimentConfig()
    if table.num_rows <= 0:
        raise SimulationError("cannot measure a scan over an empty table")
    if workers < 1:
        raise SimulationError(f"worker count must be positive: {workers}")
    partitions = partitions if partitions is not None else workers

    serial = measure_scan(table, query, config, column_scanner)

    context = ExecutionContext(
        calibration=config.calibration, block_size=config.block_size
    )
    parallel_query(
        table,
        query,
        workers=1,  # in-process: we want the events, not the wall clock
        partitions=partitions,
        context=context,
        column_scanner=column_scanner,
    )
    scale = config.cardinality / table.num_rows
    events = context.events.scaled(scale)

    sim = DiskArraySim(config.calibration)
    extents = _scan_files(table, query, config)
    ranges = partition_ranges(config.cardinality, partitions)
    streams = []
    for index, (lo, hi) in enumerate(ranges):
        fraction = (hi - lo) / config.cardinality
        files = [
            FileExtent(
                name=f"{extent.name}[p{index}]",
                size_bytes=max(1, int(extent.size_bytes * fraction)),
            )
            for extent in extents
        ]
        streams.append(
            ScanStream(
                name=f"partition-{index}",
                files=files,
                unit_bytes=sim.unit_bytes,
                prefetch_depth=config.effective_prefetch_depth,
                policy=_scan_policy(table, config),
            )
        )
    all_stats = sim.run(streams)
    io_elapsed = max(stats.elapsed for stats in all_stats.values())

    events.bytes_read = sum(stats.bytes_read for stats in all_stats.values())
    events.io_requests = sum(stats.units for stats in all_stats.values())
    events.stream_switches = sum(stats.switches for stats in all_stats.values())
    cpu = CpuModel(config.calibration).breakdown(events)
    return ParallelScanMeasurement(
        serial=serial,
        workers=workers,
        partitions=partitions,
        io_elapsed=io_elapsed,
        cpu=cpu,
        events=events,
    )


def measure_scan(
    table: Table,
    query: ScanQuery | Query,
    config: ExperimentConfig | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
) -> ScanMeasurement:
    """Measure one query under one configuration.

    A :class:`~repro.engine.query.Query` carries operators above the
    scan: their accumulator updates, group probes and sort comparisons
    land in the CPU events, which is how the §5 claim about high-cost
    operators is checked.  The disks serve the same scan either way.
    """
    scan = query.scan if isinstance(query, Query) else query
    config = config or ExperimentConfig()
    if table.num_rows <= 0:
        raise SimulationError("cannot measure a scan over an empty table")

    # 1-2: real execution, scaled events.
    context = ExecutionContext(
        calibration=config.calibration, block_size=config.block_size
    )
    result: QueryResult = run_scan(table, query, context, column_scanner)
    scale = config.cardinality / table.num_rows
    events = context.events.scaled(scale)

    # 3: paper-scale disk simulation.
    sim = DiskArraySim(config.calibration)
    depth = config.effective_prefetch_depth
    victim = ScanStream(
        name=_VICTIM,
        files=_scan_files(table, scan, config),
        unit_bytes=sim.unit_bytes,
        prefetch_depth=depth,
        policy=_scan_policy(table, config),
    )
    streams = [victim]
    if config.competing is not None:
        comp_depth = config.competing.prefetch_depth or depth
        streams.append(
            competing_row_scan(
                file_bytes=config.competing.file_bytes,
                unit_bytes=sim.unit_bytes,
                prefetch_depth=comp_depth,
                start_time=config.competing.start_time,
            )
        )
    stats = sim.run(streams)[_VICTIM]

    # 4: fold the I/O counters into the CPU events.
    events.bytes_read = stats.bytes_read
    events.io_requests = stats.units
    events.stream_switches = stats.switches
    cpu = CpuModel(config.calibration).breakdown(events)

    return ScanMeasurement(
        layout=table.layout,
        selected_attributes=len(scan.select),
        selected_bytes=scan.selected_width(table.schema),
        bytes_read=stats.bytes_read,
        io_elapsed=stats.elapsed,
        io_stats=stats,
        cpu=cpu,
        events=events,
        result_tuples=result.num_tuples,
        executed_rows=table.num_rows,
        cardinality=config.cardinality,
    )
