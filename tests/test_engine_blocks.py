"""Block and predicate tests."""

import numpy as np
import pytest

from repro.engine.blocks import Block, as_batch, concat_blocks, logical_bounds
from repro.engine.predicate import (
    ComparisonOp,
    Predicate,
    predicate_for_selectivity,
)
from repro.errors import EngineError, PlanError


def block(n=10):
    return Block(
        columns={"a": np.arange(n), "b": np.arange(n) * 2},
        positions=np.arange(n, dtype=np.int64),
    )


class TestBlock:
    def test_length_and_columns(self):
        b = block(5)
        assert len(b) == 5
        assert b.attribute_names == ["a", "b"]
        np.testing.assert_array_equal(b.column("b"), [0, 2, 4, 6, 8])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EngineError):
            Block(columns={"a": np.arange(3)}, positions=np.arange(4))

    def test_missing_column_rejected(self):
        with pytest.raises(EngineError):
            block().column("zz")

    def test_take(self):
        mask = np.array([True, False] * 5)
        taken = block(10).take(mask)
        assert len(taken) == 5
        np.testing.assert_array_equal(taken.column("a"), [0, 2, 4, 6, 8])
        np.testing.assert_array_equal(taken.positions, [0, 2, 4, 6, 8])

    def test_rows(self):
        rows = block(3).rows()
        assert rows == [(0, 0), (1, 2), (2, 4)]


class TestBatchConcat:
    def test_logical_block_sizes(self):
        batch = as_batch(block(250), 100)
        assert batch.num_blocks == 3
        assert batch.block_sizes().tolist() == [100, 100, 50]
        assert [len(p) for p in batch.logical_blocks()] == [100, 100, 50]

    def test_one_block_or_none_needs_no_bounds(self):
        assert as_batch(block(100), 100).bounds is None
        assert as_batch(block(100), 100).num_blocks == 1
        assert as_batch(block(0), 100).num_blocks == 0
        assert block(7).block_sizes().tolist() == [7]

    def test_no_logical_block_spans_two_runs(self):
        # Pages of 26, 0, 250 and 100 qualifying tuples, blocks of 100.
        assert logical_bounds(100, [26, 0, 250, 100]).tolist() == [26, 126, 226, 276, 376]
        assert logical_bounds(100, []).tolist() == []
        batch = as_batch(block(376), 100, runs=[26, 0, 250, 100])
        assert batch.block_sizes().tolist() == [26, 100, 100, 50, 100]

    def test_logical_blocks_roundtrip_through_concat(self):
        original = block(321)
        rebuilt = concat_blocks(as_batch(block(321), 64).logical_blocks())
        np.testing.assert_array_equal(rebuilt.column("a"), original.column("a"))
        np.testing.assert_array_equal(rebuilt.positions, original.positions)

    @pytest.mark.parametrize(
        "want, sizes, left",
        [(1, [26], [100, 50]), (26, [26], [100, 50]), (27, [26, 100], [50]),
         (126, [26, 100], [50]), (127, [26, 100, 50], None), (10_000, [26, 100, 50], None)],
    )
    def test_split_cuts_at_the_first_boundary_at_or_past_want(self, want, sizes, left):
        batch = as_batch(block(176), 100, runs=[26, 150])
        head, rest = batch.split(want)
        assert head.block_sizes().tolist() == sizes
        assert (rest and rest.block_sizes().tolist()) == left
        pieces = [head] if rest is None else [head, rest]
        np.testing.assert_array_equal(concat_blocks(pieces).positions, np.arange(176))

    def test_a_single_block_is_never_split(self):
        single = block(5)
        head, rest = single.split(1)
        assert head is single and rest is None

    def test_head_clips_the_block_the_cut_falls_in(self):
        batch = as_batch(block(250), 100)
        assert batch.head(130).block_sizes().tolist() == [100, 30]
        assert batch.head(100).block_sizes().tolist() == [100]
        assert batch.head(7).block_sizes().tolist() == [7]
        np.testing.assert_array_equal(batch.head(130).column("b"), np.arange(130) * 2)
        assert block(10).head(3).num_blocks == 1

    def test_concat_empty(self):
        empty = concat_blocks([])
        assert len(empty) == 0

    def test_concat_mismatched_schemas_rejected(self):
        other = Block(columns={"x": np.arange(2)}, positions=np.arange(2))
        with pytest.raises(EngineError):
            concat_blocks([block(2), other])

    def test_bad_block_size_rejected(self):
        with pytest.raises(EngineError):
            as_batch(block(5), 0)


class TestPredicate:
    def test_all_operators(self):
        values = np.array([1, 2, 3, 4])
        cases = {
            ComparisonOp.LT: [True, False, False, False],
            ComparisonOp.LE: [True, True, False, False],
            ComparisonOp.GT: [False, False, True, True],
            ComparisonOp.GE: [False, True, True, True],
            ComparisonOp.EQ: [False, True, False, False],
            ComparisonOp.NE: [True, False, True, True],
        }
        for op, expected in cases.items():
            mask = Predicate("a", op, 2).evaluate(values)
            np.testing.assert_array_equal(mask, expected)

    def test_describe(self):
        assert Predicate("a", ComparisonOp.LE, 5).describe() == "a <= 5"


class TestSelectivityPredicate:
    def test_hits_target_on_uniform_data(self, rng):
        values = rng.integers(0, 1_000_000, size=20_000)
        for target in (0.001, 0.01, 0.10, 0.5):
            predicate = predicate_for_selectivity("a", values, target)
            achieved = np.count_nonzero(predicate.evaluate(values)) / values.size
            assert abs(achieved - target) < max(0.01, target * 0.2)

    def test_extremes(self, rng):
        values = rng.integers(0, 100, size=1000)
        everything = predicate_for_selectivity("a", values, 1.0)
        assert everything.evaluate(values).all()
        nothing = predicate_for_selectivity("a", values, 0.0)
        assert not nothing.evaluate(values).any()

    def test_bad_inputs(self):
        with pytest.raises(PlanError):
            predicate_for_selectivity("a", np.array([1, 2]), 1.5)
        with pytest.raises(PlanError):
            predicate_for_selectivity("a", np.array([], dtype=np.int64), 0.5)
        with pytest.raises(PlanError):
            predicate_for_selectivity("a", np.array([b"x"], dtype="S4"), 0.5)

    def test_an_empty_column_qualifies_nothing(self):
        predicate = Predicate("a", ComparisonOp.LE, 5)
        mask = predicate.evaluate(np.array([], dtype=np.int64))
        assert mask.dtype == bool and mask.size == 0
