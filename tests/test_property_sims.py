"""Property-based simulator tests: conservation laws and bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.iosim.request import FileExtent
from repro.iosim.sharing import SharedScanQuery, SharedScanSimulator
from repro.iosim.sim import DiskArraySim
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.model.rates import parallel_rate

MB = 1_000_000

stream_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),      # number of files
        st.integers(min_value=1, max_value=400),    # MB per file
        st.integers(min_value=1, max_value=48),     # prefetch depth
        st.sampled_from(list(SubmissionPolicy)),
        st.floats(min_value=0.0, max_value=60.0),   # start time
    ),
    min_size=1,
    max_size=4,
)


def build_streams(specs):
    sim = DiskArraySim()
    streams = []
    for index, (nfiles, mb, depth, policy, start) in enumerate(specs):
        files = [
            FileExtent(f"s{index}.f{j}", mb * MB // nfiles) for j in range(nfiles)
        ]
        streams.append(
            ScanStream(
                name=f"s{index}",
                files=files,
                unit_bytes=sim.unit_bytes,
                prefetch_depth=depth,
                policy=policy,
                start_time=start,
            )
        )
    return sim, streams


@settings(max_examples=40, deadline=None)
@given(stream_specs)
def test_disk_sim_conserves_bytes(specs):
    sim, streams = build_streams(specs)
    stats = sim.run(streams)
    for stream in streams:
        assert stats[stream.name].bytes_read == stream.total_bytes
        units = sum(len(window.unit_extents()) for window in stream.windows())
        assert stats[stream.name].units == units


@settings(max_examples=40, deadline=None)
@given(stream_specs)
def test_disk_sim_elapsed_bounds(specs):
    """No stream beats raw bandwidth; total busy time is consistent."""
    sim, streams = build_streams(specs)
    stats = sim.run(streams)
    bandwidth = DEFAULT_CALIBRATION.total_disk_bandwidth
    for stream in streams:
        s = stats[stream.name]
        # Lower bound: its own transfer time.
        assert s.elapsed >= s.bytes_read / bandwidth - 1e-9
        # Completion never precedes its start.
        assert s.finish_time >= s.start_time
    # The array serves one request at a time: total busy time fits
    # between the earliest start and the latest finish.
    busy = sum(stats[s.name].seek_seconds + stats[s.name].transfer_seconds for s in streams)
    start = min(stats[s.name].start_time for s in streams)
    finish = max(stats[s.name].finish_time for s in streams)
    assert busy <= (finish - start) + 1e-9


@settings(max_examples=40, deadline=None)
@given(stream_specs)
def test_disk_sim_deterministic(specs):
    sim, streams_a = build_streams(specs)
    _sim, streams_b = build_streams(specs)
    stats_a = sim.run(streams_a)
    stats_b = DiskArraySim().run(streams_b)
    for name in stats_a:
        assert stats_a[name].finish_time == stats_b[name].finish_time
        assert stats_a[name].switches == stats_b[name].switches


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=10, max_value=2_000),
)
def test_scan_sharing_speedup_bounded_by_n(count, mb):
    simulator = SharedScanSimulator(mb * MB)
    queries = [SharedScanQuery(f"q{i}") for i in range(count)]
    outcome = simulator.compare(queries)
    # Sharing can't beat N concurrent-arrival queries by more than ~N
    # (the independent runs pay extra seeks, hence the slack).
    assert outcome.speedup <= count * 1.5 + 1e-9
    assert outcome.speedup >= 1.0 - 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=1e9),
        min_size=1,
        max_size=6,
    )
)
def test_parallel_rate_properties(rates):
    combined = parallel_rate(*rates)
    # Never faster than the slowest stage...
    assert combined <= min(rates) + 1e-6
    # ...and symmetric in its arguments.
    assert parallel_rate(*reversed(rates)) == pytest.approx(combined)
    # Adding a stage can only slow the pipeline down.
    assert parallel_rate(*rates, 1e6) <= combined + 1e-6
