"""Workload-preparation and figure-plumbing tests."""

import pytest

from repro.compression.base import CodecKind
from repro.errors import SchemaError
from repro.experiments.workloads import (
    clear_cache,
    prepare_lineitem,
    prepare_orders,
)
from repro.storage.layout import Layout


class TestPreparedTables:
    def test_both_layouts_materialized(self):
        prepared = prepare_orders(400, seed=5)
        assert prepared.row.layout is Layout.ROW
        assert prepared.column.layout is Layout.COLUMN
        assert prepared.row.num_rows == 400

    def test_caching_returns_same_object(self):
        a = prepare_orders(400, seed=5)
        b = prepare_orders(400, seed=5)
        assert a is b
        c = prepare_orders(400, seed=6)
        assert c is not a

    def test_clear_cache(self):
        a = prepare_orders(444, seed=5)
        clear_cache()
        b = prepare_orders(444, seed=5)
        assert a is not b

    def test_compressed_variant(self):
        packed = prepare_orders(400, seed=5, compressed=True)
        assert packed.schema.name == "ORDERS-Z"
        assert packed.schema.packed_tuple_bits == 92

    def test_orderkey_plain_for_variant(self):
        plain = prepare_orders(400, seed=5, compressed=True, orderkey_plain_for=True)
        spec = plain.schema.attribute("O_ORDERKEY").spec
        assert spec.kind is CodecKind.FOR
        assert spec.bits >= 16  # the paper's 16-bit plain FOR
        delta = prepare_orders(400, seed=5, compressed=True)
        assert delta.schema.attribute("O_ORDERKEY").spec.kind is CodecKind.FOR_DELTA

    def test_plain_for_requires_compressed(self):
        with pytest.raises(SchemaError):
            prepare_orders(400, seed=5, orderkey_plain_for=True)

    def test_predicate_helper(self):
        prepared = prepare_orders(2_000, seed=5)
        predicate = prepared.predicate("O_ORDERDATE", 0.10)
        achieved = predicate.evaluate(prepared.data.column("O_ORDERDATE")).mean()
        assert achieved == pytest.approx(0.10, abs=0.03)

    def test_attrs_prefix(self):
        prepared = prepare_lineitem(300, seed=5)
        assert prepared.attrs_prefix(3) == (
            "L_PARTKEY",
            "L_ORDERKEY",
            "L_SUPPKEY",
        )
        with pytest.raises(SchemaError):
            prepared.attrs_prefix(0)
        with pytest.raises(SchemaError):
            prepared.attrs_prefix(17)


class TestExperimentRegistry:
    def test_every_experiment_registered(self):
        from repro.experiments.figures import (
            ALL_EXPERIMENTS,
            EXTENSION_EXPERIMENTS,
            PAPER_EXPERIMENTS,
        )

        assert set(PAPER_EXPERIMENTS) == {
            "figure-2",
            "figure-2-measured",
            "figure-6",
            "figure-7",
            "figure-8",
            "figure-9",
            "figure-10",
            "figure-11",
            "table-1",
            "model-validation",
        }
        assert set(EXTENSION_EXPERIMENTS) == {
            "index-breakeven",
            "scan-sharing",
            "pax-comparison",
            "compressed-execution",
            "rle-projection",
            "join-analysis",
            "capacity-sweep",
            "sensitivity",
            "operator-cost",
        }
        assert set(ALL_EXPERIMENTS) == set(PAPER_EXPERIMENTS) | set(
            EXTENSION_EXPERIMENTS
        )

    def test_cli_runs_one_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure-2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "regenerated" in out

    def test_cli_row_override(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--rows", "1000", "index-breakeven"]) == 0
        assert "index vs sequential scan" in capsys.readouterr().out
