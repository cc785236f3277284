"""Scan sharing and compressed execution tests."""

import numpy as np
import pytest

from repro.compression.base import CodecKind
from repro.compression.dictionary import DictionaryCodec
from repro.engine.compressed_exec import rewrite_all, rewrite_predicate
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import ScanQuery
from repro.errors import SimulationError
from repro.iosim.sharing import SharedScanQuery, SharedScanSimulator
from repro.types.datatypes import FixedTextType

GB = 1_000_000_000


class TestScanSharing:
    def test_shared_makespan_is_one_pass(self):
        simulator = SharedScanSimulator(9 * GB)
        queries = [SharedScanQuery(f"q{i}") for i in range(6)]
        outcome = simulator.compare(queries)
        one_pass = simulator._scan_seconds()
        assert outcome.shared_makespan == pytest.approx(one_pass)

    def test_sharing_speedup_grows_with_concurrency(self):
        simulator = SharedScanSimulator(4 * GB)
        speedups = []
        for count in (1, 2, 4):
            queries = [SharedScanQuery(f"q{i}") for i in range(count)]
            speedups.append(simulator.compare(queries).speedup)
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 1.8
        assert speedups[2] > speedups[1]

    def test_late_arrival_rides_the_scan(self):
        simulator = SharedScanSimulator(9 * GB)
        outcome = simulator.compare(
            [SharedScanQuery("a"), SharedScanQuery("b", arrival_time=15.0)]
        )
        # Shared: the late query finishes one pass after its arrival.
        one_pass = simulator._scan_seconds()
        assert outcome.shared_finish["b"] == pytest.approx(15.0 + one_pass)
        assert outcome.shared_finish["b"] < outcome.independent_finish["b"]

    def test_validation(self):
        simulator = SharedScanSimulator(GB)
        with pytest.raises(SimulationError):
            simulator.compare([])
        with pytest.raises(SimulationError):
            simulator.compare([SharedScanQuery("a"), SharedScanQuery("a")])
        with pytest.raises(SimulationError):
            simulator.compare([SharedScanQuery("a", arrival_time=-1.0)])
        with pytest.raises(SimulationError):
            SharedScanSimulator(0)


def make_dict_codec(values, width=11):
    spec = DictionaryCodec.spec_for_values(np.asarray(values, dtype=f"S{width}"))
    return DictionaryCodec(spec, FixedTextType(width))


class TestPredicateRewriting:
    @pytest.fixture
    def codec(self):
        return make_dict_codec([b"1-URGENT", b"2-HIGH", b"3-MEDIUM", b"5-LOW"])

    def test_eq_rewrites_to_code(self, codec):
        predicate = Predicate("p", ComparisonOp.EQ, b"2-HIGH")
        code_predicate = rewrite_predicate(predicate, codec)
        codes = np.array([0, 1, 2, 1])
        np.testing.assert_array_equal(
            code_predicate.evaluate(codes), [False, True, False, True]
        )

    def test_eq_missing_value_is_always_false(self, codec):
        predicate = Predicate("p", ComparisonOp.EQ, b"9-NOPE")
        code_predicate = rewrite_predicate(predicate, codec)
        assert not code_predicate.evaluate(np.arange(4)).any()

    def test_ne_missing_value_is_always_true(self, codec):
        predicate = Predicate("p", ComparisonOp.NE, b"9-NOPE")
        code_predicate = rewrite_predicate(predicate, codec)
        assert code_predicate.evaluate(np.arange(4)).all()

    @pytest.mark.parametrize(
        "op",
        [ComparisonOp.LE, ComparisonOp.LT, ComparisonOp.GE, ComparisonOp.GT],
    )
    def test_range_rewrites_match_value_semantics(self, codec, op):
        values = codec.dictionary
        codes = np.arange(values.size)
        for boundary in [b"0-AAA", b"2-HIGH", b"4-ZZZ", b"9-ZZZ"]:
            predicate = Predicate("p", op, boundary)
            code_predicate = rewrite_predicate(predicate, codec)
            expected = predicate.evaluate(values.astype("S11"))
            np.testing.assert_array_equal(
                code_predicate.evaluate(codes), expected, err_msg=f"{op} {boundary}"
            )

    def test_rewrite_all_fails_closed(self, codec):
        predicates = (
            Predicate("p", ComparisonOp.EQ, b"2-HIGH"),
            Predicate("p", ComparisonOp.LE, b"5-LOW"),
        )
        assert rewrite_all(predicates, codec) is not None


class TestCompressedExecutionEndToEnd:
    @pytest.fixture(scope="class")
    def compressed(self):
        from repro.experiments.workloads import prepare_orders

        return prepare_orders(1_200, seed=77, compressed=True)

    @pytest.mark.parametrize(
        "predicate",
        [
            Predicate("O_ORDERPRIORITY", ComparisonOp.EQ, b"1-URGENT"),
            Predicate("O_ORDERPRIORITY", ComparisonOp.LE, b"3-MEDIUM"),
            Predicate("O_ORDERSTATUS", ComparisonOp.NE, b"F"),
            Predicate("O_ORDERPRIORITY", ComparisonOp.EQ, b"MISSING"),
        ],
    )
    def test_same_answers_on_and_off(self, compressed, predicate):
        query = ScanQuery(
            compressed.schema.name,
            select=(predicate.attr, "O_TOTALPRICE"),
            predicates=(predicate,),
        )
        off = run_scan(compressed.column, query, ExecutionContext())
        on = run_scan(
            compressed.column, query, ExecutionContext(compressed_execution=True)
        )
        assert on.num_tuples == off.num_tuples
        np.testing.assert_array_equal(on.positions, off.positions)
        for name in query.select:
            np.testing.assert_array_equal(on.column(name), off.column(name))

    def test_decode_counts_drop(self, compressed):
        predicate = Predicate("O_ORDERPRIORITY", ComparisonOp.EQ, b"1-URGENT")
        query = ScanQuery(
            compressed.schema.name,
            select=("O_TOTALPRICE",),
            predicates=(predicate,),
        )
        off = ExecutionContext()
        run_scan(compressed.column, query, off)
        on = ExecutionContext(compressed_execution=True)
        run_scan(compressed.column, query, on)
        n = compressed.data.num_rows
        assert off.events.values_decoded[CodecKind.DICT] >= n
        # On codes: no dictionary lookups for the unprojected predicate.
        assert on.events.values_decoded.get(CodecKind.DICT, 0) == 0

    def test_flag_ignored_for_unrewritable_predicates(self, compressed):
        # PACK columns cannot run on codes: both paths must still agree.
        predicate = Predicate("O_ORDERDATE", ComparisonOp.LE, 9_000)
        query = ScanQuery(
            compressed.schema.name,
            select=("O_ORDERDATE",),
            predicates=(predicate,),
        )
        off = run_scan(compressed.column, query, ExecutionContext())
        on = run_scan(
            compressed.column, query, ExecutionContext(compressed_execution=True)
        )
        np.testing.assert_array_equal(on.positions, off.positions)
