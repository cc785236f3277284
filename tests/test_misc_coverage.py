"""Remaining-surface tests: breakdown rendering, stream edge cases,
encode_prefix defaults, calibration hardware knobs."""

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.registry import build_codec
from repro.cpusim.breakdown import ZERO_BREAKDOWN, CpuBreakdown
from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.iosim.request import FileExtent, IoRequest
from repro.iosim.sim import DiskArraySim
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.types.datatypes import IntType


class TestBreakdownRendering:
    def test_zero_breakdown(self):
        assert ZERO_BREAKDOWN.total == 0.0
        assert ZERO_BREAKDOWN.user == 0.0

    def test_describe_lists_components(self):
        breakdown = CpuBreakdown(
            sys=1.0, usr_uop=0.5, usr_l2=0.25, usr_l1=0.1, usr_rest=0.15
        )
        text = breakdown.describe()
        for key in ("sys", "usr-uop", "usr-L2", "usr-L1", "usr-rest"):
            assert key in text

    def test_as_dict_round_numbers(self):
        breakdown = CpuBreakdown(
            sys=1.0, usr_uop=2.0, usr_l2=3.0, usr_l1=4.0, usr_rest=5.0
        )
        assert breakdown.as_dict() == {
            "sys": 1.0,
            "usr-uop": 2.0,
            "usr-L2": 3.0,
            "usr-L1": 4.0,
            "usr-rest": 5.0,
        }


class TestStreamEdges:
    def test_odd_file_size_final_unit_smaller(self):
        sim = DiskArraySim()
        size = sim.unit_bytes * 3 + 1000
        stream = ScanStream(
            "s",
            [FileExtent("T", size)],
            sim.unit_bytes,
            48,
            SubmissionPolicy.ROW,
        )
        stats = sim.run([stream])["s"]
        assert stats.bytes_read == size
        assert stats.units == 4

    def test_request_sort_key_orders_by_submission(self):
        a = IoRequest("s", "f", 0, 10, submit_time=1.0, seq=2, window_id=0)
        b = IoRequest("s", "f", 10, 10, submit_time=1.0, seq=3, window_id=0)
        c = IoRequest("s", "f", 20, 10, submit_time=0.5, seq=9, window_id=0)
        assert sorted([a, b, c], key=lambda r: r.sort_key())[0] is c

    def test_tiny_file_single_window(self):
        sim = DiskArraySim()
        stream = ScanStream(
            "s", [FileExtent("T", 100)], sim.unit_bytes, 48, SubmissionPolicy.ROW
        )
        (window,) = stream.windows()
        assert len(window.unit_extents()) == 1


class TestEncodePrefixDefaults:
    def test_fixed_codec_prefix_consumes_capacity(self):
        codec = build_codec(CodecSpec(kind=CodecKind.PACK, bits=8), IntType())
        values = np.arange(200)
        payload, _state, consumed = codec.encode_prefix(values, 64)
        assert consumed == 64 * 8 // 8  # 64 bytes of 8-bit values
        np.testing.assert_array_equal(
            codec.decode_page(payload, consumed, _state), values[:consumed]
        )

    def test_prefix_shorter_than_capacity(self):
        codec = build_codec(CodecSpec(kind=CodecKind.PACK, bits=8), IntType())
        values = np.arange(5)
        _payload, _state, consumed = codec.encode_prefix(values, 64)
        assert consumed == 5


class TestHardwareKnobs:
    def test_more_cpus_raise_cpdb(self):
        base = DEFAULT_CALIBRATION
        dual = base.with_overrides(num_cpus=2)
        assert dual.cpdb == pytest.approx(2 * base.cpdb)
        assert dual.aggregate_clock_hz == pytest.approx(2 * base.clock_hz)

    def test_more_cpus_halve_cpu_time(self):
        from repro.cpusim.costmodel import CpuModel
        from repro.cpusim.events import CostEvents

        events = CostEvents(predicate_evals=10_000_000, mem_rand_lines=1_000)
        single = CpuModel(DEFAULT_CALIBRATION).cpu_seconds(events)
        dual = CpuModel(
            DEFAULT_CALIBRATION.with_overrides(num_cpus=2)
        ).cpu_seconds(events)
        assert dual == pytest.approx(single / 2)

    def test_cpdb_reference_points(self):
        # §5: the paper's machine is 18 cpdb; one disk makes it 54.
        assert DEFAULT_CALIBRATION.cpdb == pytest.approx(17.8, abs=0.2)
        one_disk = DEFAULT_CALIBRATION.with_overrides(num_disks=1)
        assert one_disk.cpdb == pytest.approx(53.3, abs=0.5)


class TestPagedFileRepr:
    def test_repr_mentions_name_and_size(self):
        from repro.storage.pagefile import PagedFile

        file = PagedFile("ORDERS.O_CUSTKEY", page_size=64)
        file.append_pages(b"\x00" * 64)
        text = repr(file)
        assert "ORDERS.O_CUSTKEY" in text
        assert "pages=1" in text
