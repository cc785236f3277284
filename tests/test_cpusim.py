"""CPU cost-model tests: events, cache classification, breakdowns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind
from repro.cpusim.breakdown import CpuBreakdown
from repro.cpusim.cache import (
    classify_access,
    classify_page_access,
    line_coverage,
    lines_touched,
    page_lines,
)
from repro.cpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.cpusim.costmodel import CpuModel
from repro.cpusim.events import CostEvents


class TestCostEvents:
    def test_merge(self):
        a = CostEvents(tuples_examined=5, bytes_copied=10)
        a.count_decode(CodecKind.PACK, 3)
        b = CostEvents(tuples_examined=2)
        b.count_decode(CodecKind.PACK, 1)
        b.count_decode(CodecKind.DICT, 4)
        a.merge(b)
        assert a.tuples_examined == 7
        assert a.values_decoded == {CodecKind.PACK: 4, CodecKind.DICT: 4}

    def test_scaled_is_linear(self):
        events = CostEvents(tuples_examined=100, mem_seq_lines=40)
        events.count_decode(CodecKind.FOR, 10)
        scaled = events.scaled(1000.0)
        assert scaled.tuples_examined == 100_000
        assert scaled.mem_seq_lines == 40_000
        assert scaled.values_decoded[CodecKind.FOR] == 10_000
        # The original is untouched.
        assert events.tuples_examined == 100

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            CostEvents().scaled(-1)

    def test_as_dict_includes_decodes(self):
        events = CostEvents()
        events.count_decode(CodecKind.DICT, 7)
        assert events.as_dict()["decoded_dict"] == 7

    def test_total_decodes(self):
        events = CostEvents()
        events.count_decode(CodecKind.DICT, 7)
        events.count_decode(CodecKind.PACK, 3)
        assert events.total_decodes() == 10


class TestCacheModel:
    def test_dense_positions_cover_all_lines(self):
        positions = np.arange(128)
        touched, coverage = line_coverage(positions, 128, 32, 128)
        assert touched == page_lines(128, 32, 128)
        assert coverage == 1.0

    def test_sparse_positions_touch_few_lines(self):
        positions = np.array([0, 1000])
        assert lines_touched(positions, 32, 128) == 2

    def test_values_sharing_a_line_counted_once(self):
        positions = np.array([0, 1, 2, 3])  # 4-byte values in one 128 B line
        assert lines_touched(positions, 32, 128) == 1

    def test_wide_value_straddles_lines(self):
        # one 69-byte value starting at byte 100 crosses a line boundary
        positions = np.array([1])
        assert lines_touched(positions, 69 * 8, 128) == 2

    def test_classification_threshold(self):
        dense = np.arange(100)
        seq, rand = classify_page_access(dense, 100, 32, 128)
        assert seq > 0 and rand == 0
        sparse = np.array([0, 900])
        seq, rand = classify_page_access(sparse, 1000, 32, 128)
        assert seq == 0 and rand == 2
        # Exactly at the 50% threshold counts as prefetchable.
        boundary = np.array([0, 90])
        seq, rand = classify_page_access(boundary, 100, 32, 128)
        assert seq == 4 and rand == 0

    def test_empty_positions(self):
        assert lines_touched(np.array([], dtype=np.int64), 32, 128) == 0
        assert page_lines(0, 32, 128) == 0


# --- the one-page union1d model, kept as the reference --------------------------


def reference_lines_touched(positions, value_bits, line_bytes):
    if positions.size == 0:
        return 0
    bit_offsets = np.asarray(positions, dtype=np.int64) * value_bits
    line_ids = bit_offsets // (line_bytes * 8)
    # Wide values can straddle lines; count the end line too.
    end_line_ids = (bit_offsets + value_bits - 1) // (line_bytes * 8)
    return int(np.union1d(line_ids, end_line_ids).size)


def reference_page_lines(count, value_bits, line_bytes):
    if count <= 0:
        return 0
    total_bits = count * value_bits
    return (total_bits + line_bytes * 8 - 1) // (line_bytes * 8)


def reference_classify_page_access(positions, count, value_bits, line_bytes, threshold=0.5):
    """``classify_page_access`` as it was: a sort + unique per page."""
    touched = reference_lines_touched(positions, value_bits, line_bytes)
    total = reference_page_lines(count, value_bits, line_bytes)
    touched, coverage = (0, 0.0) if total == 0 else (touched, touched / total)
    if coverage >= threshold:
        return reference_page_lines(count, value_bits, line_bytes), 0
    return 0, touched


#: Packed widths, and whole-byte text widths up to L_COMMENT's 69 bytes —
#: wider than an L1 line, so one value can cover three lines (the model
#: counts its first and its last).
VALUE_BITS = st.one_of(st.integers(1, 63), st.integers(1, 69).map(lambda width: 8 * width))
#: How a page's positions are drawn: none at all, a sparse few, the
#: first value of every other line (coverage at or next to exactly 0.5),
#: a random half, everything.
DENSITIES = ("none", "sparse", "alternate-lines", "half", "all")


@settings(max_examples=300, deadline=None)
@given(
    pages=st.integers(1, 40),
    value_bits=VALUE_BITS,
    line_bytes=st.sampled_from((64, 128)),
    payload_bytes=st.sampled_from((236, 1004, 4076)),
    last_fill=st.floats(0.01, 1.0),
    densities=st.lists(st.sampled_from(DENSITIES), min_size=40, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_access_is_the_union1d_model_page_by_page(
    pages, value_bits, line_bytes, payload_bytes, last_fill, densities, seed
):
    rng = np.random.default_rng(seed)
    capacity = payload_bytes * 8 // value_bits
    counts = np.full(pages, capacity)
    counts[-1] = max(1, int(capacity * last_fill))  # a short last page
    per_page = []
    for count, density in zip(counts.tolist(), densities):
        if density == "none":
            chosen = np.zeros(0, dtype=np.int64)
        elif density == "sparse":
            chosen = np.unique(rng.integers(0, count, 3))
        elif density == "alternate-lines":
            starts = np.arange(0, count * value_bits, 2 * line_bytes * 8)
            chosen = np.unique(-(-starts // value_bits))
            chosen = chosen[chosen < count]
        elif density == "half":
            chosen = np.flatnonzero(rng.random(count) < 0.5)
        else:
            chosen = np.arange(count)
        per_page.append(chosen)
    on_page = np.repeat(np.arange(pages), [chosen.size for chosen in per_page])
    in_page = np.concatenate(per_page)

    seq, rand = classify_access(on_page, in_page, counts, value_bits, line_bytes)
    expected = [
        reference_classify_page_access(chosen, count, value_bits, line_bytes)
        for chosen, count in zip(per_page, counts.tolist())
    ]
    assert list(zip(seq.tolist(), rand.tolist())) == expected
    # ... and the one-page spelling is the same function.
    for chosen, count, pair in zip(per_page, counts.tolist(), expected):
        assert classify_page_access(chosen, count, value_bits, line_bytes) == pair


def test_exactly_half_the_lines_is_dense_on_every_page():
    """Coverage == 0.5 counts as prefetchable, page by page, beside a
    page just under it and a page with no position at all."""
    # 32-bit values, 128 B lines: 100 values occupy 4 lines.
    on_page = np.array([0, 0, 1, 3, 3])
    in_page = np.array([0, 90, 0, 0, 90])
    seq, rand = classify_access(on_page, in_page, [100, 100, 100, 100], 32, 128)
    assert seq.tolist() == [4, 0, 0, 4]
    assert rand.tolist() == [0, 1, 0, 0]


class TestCalibration:
    def test_paper_cpdb_rating(self):
        # One 3.2 GHz CPU over three 60 MB/s disks: ~18 cpdb.
        assert DEFAULT_CALIBRATION.cpdb == pytest.approx(17.8, abs=0.2)

    def test_single_disk_cpdb_triples(self):
        single = DEFAULT_CALIBRATION.with_overrides(num_disks=1)
        assert single.cpdb == pytest.approx(3 * DEFAULT_CALIBRATION.cpdb)

    def test_overrides_do_not_mutate_default(self):
        DEFAULT_CALIBRATION.with_overrides(clock_hz=1e9)
        assert DEFAULT_CALIBRATION.clock_hz == 3.2e9

    def test_memory_bus_is_one_byte_per_cycle(self):
        c = DEFAULT_CALIBRATION
        assert c.l2_line_bytes / c.seq_line_cycles == pytest.approx(1.0)


class TestCpuModel:
    def test_uop_is_instructions_over_three(self):
        model = CpuModel()
        events = CostEvents(predicate_evals=1_000_000)
        breakdown = model.breakdown(events)
        inst = model.user_instructions(events)
        assert breakdown.usr_uop == pytest.approx(
            inst / 3.0 / DEFAULT_CALIBRATION.clock_hz
        )

    def test_sequential_memory_overlaps_with_compute(self):
        model = CpuModel()
        # Lots of compute, little memory: no visible L2 stall.
        busy = CostEvents(predicate_evals=10_000_000, mem_seq_lines=1_000)
        assert model.breakdown(busy).usr_l2 == 0.0
        # Lots of memory, no compute: the full bandwidth time shows.
        idle = CostEvents(mem_seq_lines=1_000_000)
        expected = 1_000_000 * 128 / DEFAULT_CALIBRATION.clock_hz
        assert model.breakdown(idle).usr_l2 == pytest.approx(expected)

    def test_random_misses_never_overlap(self):
        model = CpuModel()
        events = CostEvents(predicate_evals=10_000_000, mem_rand_lines=1_000_000)
        breakdown = model.breakdown(events)
        assert breakdown.usr_l2 == pytest.approx(
            1_000_000 * 380 / DEFAULT_CALIBRATION.clock_hz
        )

    def test_sys_time_components(self):
        model = CpuModel()
        events = CostEvents(bytes_read=3_200_000_000)
        assert model.sys_seconds(events) == pytest.approx(1.0)  # 1 cycle/B
        events2 = CostEvents(io_requests=80_000)
        assert model.sys_seconds(events2) == pytest.approx(
            80_000 * DEFAULT_CALIBRATION.sys_cycles_per_request / 3.2e9
        )

    def test_decode_costs_by_kind(self):
        model = CpuModel()
        cheap = CostEvents()
        cheap.count_decode(CodecKind.FOR, 1000)
        pricey = CostEvents()
        pricey.count_decode(CodecKind.FOR_DELTA, 1000)
        assert model.user_instructions(pricey) > model.user_instructions(cheap)

    def test_breakdown_total_is_sum(self):
        breakdown = CpuBreakdown(sys=1.0, usr_uop=2.0, usr_l2=0.5, usr_l1=0.25, usr_rest=1.25)
        assert breakdown.user == pytest.approx(4.0)
        assert breakdown.total == pytest.approx(5.0)

    def test_breakdown_arithmetic(self):
        a = CpuBreakdown(sys=1, usr_uop=1, usr_l2=1, usr_l1=1, usr_rest=1)
        doubled = a + a
        assert doubled.total == pytest.approx(2 * a.total)
        scaled = a.scaled(3.0)
        assert scaled.total == pytest.approx(3 * a.total)

    def test_custom_calibration_changes_results(self):
        slow = CpuModel(Calibration(clock_hz=1.6e9))
        fast = CpuModel(Calibration(clock_hz=3.2e9))
        events = CostEvents(predicate_evals=1_000_000)
        assert slow.user_seconds(events) == pytest.approx(
            2 * fast.user_seconds(events)
        )
