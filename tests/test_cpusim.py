"""CPU cost-model tests: events, cache classification, breakdowns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind
from repro.cpusim.breakdown import CpuBreakdown
from repro.cpusim.cache import PREFETCH_COVERAGE_THRESHOLD, access_lines, page_lines
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


def position_lines(
    bounds, in_page, counts, value_bits, line_sizes, threshold=PREFETCH_COVERAGE_THRESHOLD
):
    """The lines one access moves alone: :func:`access_lines` of it, once."""
    access = (np.asarray(bounds, dtype=np.int64), in_page, counts, value_bits, 1)
    return access_lines([access], line_sizes, threshold)


def classify_page_access(
    positions, count, value_bits, line_bytes, threshold=PREFETCH_COVERAGE_THRESHOLD
):
    """:func:`position_lines` of one page: ``(seq_lines, rand_lines)``."""
    bounds = [0, np.size(positions)]
    ((seq, rand),) = position_lines(bounds, positions, [count], value_bits, [line_bytes], threshold)
    return seq, rand


def lines_touched(positions, value_bits, line_bytes):
    """Distinct lines under ``positions``: no coverage reaches an
    infinite threshold, so every touched line is "random"."""
    return classify_page_access(positions, 0, value_bits, line_bytes, np.inf)[1]


class TestCacheModel:
    def test_dense_positions_cover_all_lines(self):
        positions = np.arange(128)
        assert classify_page_access(positions, 128, 32, 128) == (page_lines(128, 32, 128), 0)

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
#: The calibration's L1 and L2 lines, and two that are not a power of
#: two — 48 B is narrower than a 69-byte value.
LINE_SIZES = (64, 128, 48, 100)
#: How a page's positions are drawn: none at all (what salvage leaves of
#: a dropped page), a sparse few, the first value of every other line
#: (coverage at or next to exactly 0.5), a random half, everything.
DENSITIES = ("none", "sparse", "alternate-lines", "half", "all")


def lines_page_by_page(per_page, counts, value_bits, line_sizes):
    """:func:`position_lines` of each page alone: one list of pairs per page."""
    return [
        position_lines([0, chosen.size], chosen, [count], value_bits, line_sizes)
        for chosen, count in zip(per_page, counts)
    ]


@settings(max_examples=300, deadline=None)
@given(
    pages=st.integers(1, 40),
    value_bits=VALUE_BITS,
    payload_bytes=st.sampled_from((236, 1004, 4076)),
    last_fill=st.floats(0.01, 1.0),
    densities=st.lists(st.sampled_from(DENSITIES), min_size=40, max_size=40),
    alternate_line=st.sampled_from(LINE_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_position_lines_is_the_union1d_model_page_by_page(
    pages, value_bits, payload_bytes, last_fill, densities, alternate_line, seed
):
    """Every line size in one call, against the sort + unique model of
    each page: the sums over the pages, and each page alone."""
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
            starts = np.arange(0, count * value_bits, 2 * alternate_line * 8)
            chosen = np.unique(-(-starts // value_bits))
            chosen = chosen[chosen < count]
        elif density == "half":
            chosen = np.flatnonzero(rng.random(count) < 0.5)
        else:
            chosen = np.arange(count)
        per_page.append(chosen)
    bounds = np.cumsum([0] + [chosen.size for chosen in per_page])
    in_page = np.concatenate(per_page)

    sums = position_lines(bounds, in_page, counts, value_bits, LINE_SIZES)
    expected = [
        [
            reference_classify_page_access(chosen, count, value_bits, line_bytes)
            for line_bytes in LINE_SIZES
        ]
        for chosen, count in zip(per_page, counts.tolist())
    ]
    assert sums == [tuple(map(sum, zip(*pairs))) for pairs in zip(*expected)]
    assert lines_page_by_page(per_page, counts.tolist(), value_bits, LINE_SIZES) == expected


def _drawn_access(draw, value_bits, salvaged_pages):
    """One position-driven access as a column node makes it: the pages
    its positions touch, each full but a short last one — or emptied by
    salvage (no value, no position) — and ascending positions on each."""
    payload_bytes = draw(st.sampled_from((236, 1004, 4076)))
    capacity = max(1, payload_bytes * 8 // value_bits)
    pages = draw(st.integers(1, 8))
    counts = [capacity] * pages
    counts[-1] = draw(st.integers(1, capacity))
    per_page = []
    for page in range(pages):
        if page in salvaged_pages:
            counts[page] = 0
            per_page.append(np.zeros(0, dtype=np.int64))
            continue
        density = draw(st.sampled_from(DENSITIES))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if density == "none":
            chosen = np.zeros(0, dtype=np.int64)
        elif density == "sparse":
            chosen = np.unique(rng.integers(0, counts[page], 3))
        elif density == "alternate-lines":
            chosen = np.arange(0, counts[page], 2 * max(1, 512 // value_bits))
        elif density == "half":
            chosen = np.flatnonzero(rng.random(counts[page]) < 0.5)
        else:
            chosen = np.arange(counts[page])
        per_page.append(chosen)
    bounds = np.cumsum([0] + [chosen.size for chosen in per_page])
    return per_page, bounds, np.concatenate(per_page), np.array(counts)


@st.composite
def query_accesses(draw):
    """The distinct line accesses of one query: a mix of widths from 1
    bit to 552 (69-byte text), page geometries, salvaged pages and node
    multiplicities."""
    accesses = []
    for _ in range(draw(st.integers(1, 6))):
        value_bits = draw(st.one_of(st.integers(1, 64), st.integers(1, 69).map(lambda w: 8 * w)))
        salvaged = draw(st.sets(st.integers(0, 7), max_size=2))
        per_page, bounds, in_page, counts = _drawn_access(draw, value_bits, salvaged)
        weight = draw(st.integers(1, 7))
        accesses.append((per_page, bounds, in_page, counts, value_bits, weight))
    return accesses


@settings(max_examples=300, deadline=None)
@given(accesses=query_accesses())
def test_one_charge_per_query_is_the_sum_of_its_accesses(accesses):
    """The query's one pass (:func:`access_lines`) against each access
    alone (:func:`position_lines`) and against the union1d model of each
    page, every access weighted by the nodes that made it."""
    got = access_lines([access[1:] for access in accesses], LINE_SIZES)
    alone = [(0, 0)] * len(LINE_SIZES)
    union1d = [(0, 0)] * len(LINE_SIZES)
    for per_page, bounds, in_page, counts, bits, weight in accesses:
        sums = position_lines(bounds, in_page, counts, bits, LINE_SIZES)
        alone = [(s + weight * ds, r + weight * dr) for (s, r), (ds, dr) in zip(alone, sums)]
        for row, line_bytes in enumerate(LINE_SIZES):
            for chosen, count in zip(per_page, counts.tolist()):
                ds, dr = reference_classify_page_access(chosen, count, bits, line_bytes)
                s, r = union1d[row]
                union1d[row] = (s + weight * ds, r + weight * dr)
    assert got == alone == union1d


def test_exactly_half_the_lines_is_dense_on_every_page():
    """Coverage == 0.5 counts as prefetchable, page by page, beside a
    page just under it and a page with no position at all."""
    # 32-bit values: 100 values occupy 4 lines of 128 B, 7 of 64 B.
    bounds = [0, 2, 3, 3, 5]
    in_page = np.array([0, 90, 0, 0, 90])
    counts = [100, 100, 100, 100]
    assert position_lines(bounds, in_page, counts, 32, (128, 64)) == [(8, 1), (0, 5)]
    per_page = [in_page[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert lines_page_by_page(per_page, counts, 32, (128, 64)) == [
        [(4, 0), (0, 2)],
        [(0, 1), (0, 1)],
        [(0, 0), (0, 0)],
        [(4, 0), (0, 2)],
    ]


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
