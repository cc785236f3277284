"""Disk-array simulator tests: bandwidth, seeks, prefetch, competition."""

import pytest

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.errors import SimulationError
from repro.iosim.request import FileExtent
from repro.iosim.sim import DiskArraySim
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.iosim.traffic import competing_row_scan
from repro.obs import metrics

GB = 1_000_000_000


def make_stream(name, files, depth=48, policy=SubmissionPolicy.ROW, start=0.0):
    sim = DiskArraySim()
    return ScanStream(
        name=name,
        files=files,
        unit_bytes=sim.unit_bytes,
        prefetch_depth=depth,
        policy=policy,
        start_time=start,
    )


class TestStreams:
    def test_window_round_robin_over_files(self):
        files = [FileExtent(f"c{i}", 10 * 384 * 1024) for i in range(3)]
        stream = make_stream("s", files, depth=5)
        windows = stream.windows()
        # 10 units per file at depth 5 -> 2 windows per file, alternating.
        assert [w.file_name for w in windows] == ["c0", "c1", "c2", "c0", "c1", "c2"]

    def test_total_accounting(self):
        files = [FileExtent("a", 1_000_000), FileExtent("b", 2_000_000)]
        stream = make_stream("s", files)
        assert stream.total_bytes == 3_000_000
        units = sum(len(window.unit_extents()) for window in stream.windows())
        assert units == 3 + 6  # ceil per file at 384 KiB units

    def test_empty_file_skipped(self):
        stream = make_stream("s", [FileExtent("a", 0), FileExtent("b", 100)])
        assert all(w.file_name == "b" for w in stream.windows())

    def test_invalid_arguments(self):
        sim = DiskArraySim()
        with pytest.raises(SimulationError):
            ScanStream("s", [], sim.unit_bytes, 48, SubmissionPolicy.ROW)
        with pytest.raises(SimulationError):
            ScanStream(
                "s", [FileExtent("a", 1)], sim.unit_bytes, 0, SubmissionPolicy.ROW
            )
        with pytest.raises(SimulationError):
            FileExtent("a", -1)

    def test_policy_lookahead(self):
        assert SubmissionPolicy.COLUMN_FAST.windows_in_flight == 2
        assert SubmissionPolicy.COLUMN_SLOW.windows_in_flight == 1
        assert SubmissionPolicy.ROW.windows_in_flight == 1


class TestSoloScans:
    def test_row_scan_runs_at_full_bandwidth(self):
        sim = DiskArraySim()
        stream = make_stream("row", [FileExtent("T", GB)])
        elapsed = sim.solo_scan_seconds(stream)
        ideal = GB / DEFAULT_CALIBRATION.total_disk_bandwidth
        assert elapsed == pytest.approx(ideal, rel=0.01)

    def test_multi_file_scan_pays_seeks(self):
        sim = DiskArraySim()
        one = make_stream("one", [FileExtent("T", GB)])
        many = make_stream(
            "many",
            [FileExtent(f"c{i}", GB // 8) for i in range(8)],
            policy=SubmissionPolicy.COLUMN_FAST,
        )
        assert sim.solo_scan_seconds(many) > sim.solo_scan_seconds(one)

    def test_smaller_prefetch_means_more_seeks(self):
        sim = DiskArraySim()
        files = [FileExtent(f"c{i}", GB // 4) for i in range(4)]
        times = [
            sim.solo_scan_seconds(
                make_stream("s", files, depth=d, policy=SubmissionPolicy.COLUMN_FAST)
            )
            for d in (2, 8, 48)
        ]
        assert times[0] > times[1] > times[2]

    def test_prefetch_does_not_affect_single_file(self):
        sim = DiskArraySim()
        times = {
            d: sim.solo_scan_seconds(make_stream("s", [FileExtent("T", GB)], depth=d))
            for d in (2, 48)
        }
        assert times[2] == pytest.approx(times[48], rel=1e-6)

    def test_stats_accounting(self):
        sim = DiskArraySim()
        stream = make_stream("s", [FileExtent("T", 10 * sim.unit_bytes)])
        stats = sim.run([stream])["s"]
        assert stats.bytes_read == 10 * sim.unit_bytes
        assert stats.units == 10
        assert stats.switches == 1  # the initial positioning seek
        assert stats.elapsed > 0


class TestCompetition:
    def _competing(self, depth, policy):
        sim = DiskArraySim()
        victim_files = [FileExtent(f"c{i}", GB // 4) for i in range(4)]
        victim = make_stream("victim", victim_files, depth=depth, policy=policy)
        competitor = competing_row_scan(4 * GB, sim.unit_bytes, depth)
        return sim.run([victim, competitor])["victim"].elapsed

    def test_competition_slows_the_victim(self):
        sim = DiskArraySim()
        files = [FileExtent(f"c{i}", GB // 4) for i in range(4)]
        solo = sim.solo_scan_seconds(
            make_stream("victim", files, policy=SubmissionPolicy.COLUMN_FAST)
        )
        shared = self._competing(48, SubmissionPolicy.COLUMN_FAST)
        assert shared > solo

    def test_fast_column_beats_slow_column_under_competition(self):
        fast = self._competing(16, SubmissionPolicy.COLUMN_FAST)
        slow = self._competing(16, SubmissionPolicy.COLUMN_SLOW)
        assert fast < slow

    def test_a_run_moves_the_metrics_by_its_stream_sums(self):
        """Two competing streams: the unit, byte and seek series move by
        exactly what the run's stream stats add up to."""
        metrics.enable()
        sim = DiskArraySim()
        victim = make_stream(
            "victim",
            [FileExtent(f"c{i}", 40 * sim.unit_bytes) for i in range(3)],
            depth=4,
            policy=SubmissionPolicy.COLUMN_FAST,
        )
        competitor = competing_row_scan(100 * sim.unit_bytes, sim.unit_bytes, 4)
        series = (metrics.IO_UNITS, metrics.IO_BYTES, metrics.IO_SEEKS)
        before = [counter.value for counter in series]
        stats = sim.run([victim, competitor]).values()
        moved = [counter.value - was for counter, was in zip(series, before)]
        sums = [sum(getattr(s, name) for s in stats) for name in ("units", "bytes_read", "switches")]
        assert moved == sums
        assert sums[0] == 220 and sums[2] > 2  # the two streams did compete

    def test_duplicate_stream_names_rejected(self):
        sim = DiskArraySim()
        streams = [
            make_stream("x", [FileExtent("a", 100)]),
            make_stream("x", [FileExtent("b", 100)]),
        ]
        with pytest.raises(SimulationError):
            sim.run(streams)

    def test_late_start_time(self):
        sim = DiskArraySim()
        early = make_stream("early", [FileExtent("a", GB)])
        late = make_stream("late", [FileExtent("b", GB)], start=1_000.0)
        stats = sim.run([early, late])
        # The late stream begins after the early one is long done and
        # then runs unimpeded at full bandwidth.
        assert stats["early"].finish_time < 1_000.0
        assert stats["late"].start_time == 1_000.0
        assert stats["late"].finish_time > 1_000.0
        assert stats["late"].elapsed == pytest.approx(
            stats["late"].seek_seconds + stats["late"].transfer_seconds, rel=0.01
        )

    def test_io_seconds_split(self):
        sim = DiskArraySim()
        stream = make_stream("s", [FileExtent("T", 5 * sim.unit_bytes)])
        stats = sim.run([stream])["s"]
        assert stats.transfer_seconds == pytest.approx(
            stats.bytes_read / DEFAULT_CALIBRATION.total_disk_bandwidth
        )
