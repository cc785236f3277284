"""Integration tests: the paper's headline shapes must reproduce.

Each test asserts one qualitative result the paper reports — who wins,
where crossovers fall, which components move — on the session's one run
of its experiment (``experiment_runs``, tests/conftest.py).  Only the RLE
sorted-projection claim keeps a larger run of its own, and the §2.2 /
§4.2 ablations measure small tables of their own.
"""

import ast
import pathlib

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_EXPERIMENTS, rle_projection
from repro.experiments.runner import measure_scan
from repro.experiments.workloads import prepare_lineitem, prepare_orders
from repro.storage.layout import Layout
from repro.storage.loader import load_table


def relative_errors(out) -> np.ndarray:
    measured = np.asarray(out.series["measured"])
    predicted = np.asarray(out.series["predicted"])
    return np.abs(predicted - measured) / measured


class TestFigure2:
    def test_row_advantage_only_lean_and_cpu_bound(self, experiment_runs):
        out = experiment_runs["figure-2"]
        widths = out.series["widths"]
        # At cpdb >= 72 columns win everywhere.
        assert min(out.series["cpdb_144"]) > 1.0
        # At cpdb 9, rows win for lean tuples but lose for wide ones.
        low = out.series["cpdb_9"]
        assert low[0] < 1.0  # 4-byte tuples
        assert low[-1] > 1.0  # 36-byte tuples
        # Speedup grows with width at fixed cpdb.
        assert low == sorted(low)
        assert len(widths) == len(low)


class TestFigure2Measured:
    def test_simulation_tracks_the_section_5_formula(self, experiment_runs):
        out = experiment_runs["figure-2-measured"]
        # The largest deviations come from column-file seeks, which the
        # model deliberately ignores ("we do not model disk seeks").
        assert relative_errors(out).max() < 0.15
        measured = np.asarray(out.series["measured"])
        predicted = np.asarray(out.series["predicted"])
        assert ((measured > 1) == (predicted > 1)).all()


class TestFigure6:
    def test_row_store_flat_in_projectivity(self, experiment_runs):
        elapsed = experiment_runs["figure-6"].series["row_elapsed"]
        assert max(elapsed) - min(elapsed) < 0.02 * max(elapsed)

    def test_row_store_io_bound_near_paper_time(self, experiment_runs):
        # 9.5 GB over 180 MB/s: ~52.5s (the paper plots ~55s).
        row = experiment_runs["figure-6"].series["row_elapsed"]
        assert row[0] == pytest.approx(52.5, rel=0.05)

    def test_column_store_elapsed_grows_with_bytes(self, experiment_runs):
        col = experiment_runs["figure-6"].series["col_elapsed"]
        assert all(b >= a - 1e-6 for a, b in zip(col, col[1:]))

    def test_crossover_above_85_percent_projectivity(self, experiment_runs):
        series = experiment_runs["figure-6"].series
        bytes_sel = series["selected_bytes"]
        row = series["row_elapsed"]
        col = series["col_elapsed"]
        crossing = [
            bytes_sel[i] / 150 for i in range(len(col)) if col[i] > row[i]
        ]
        assert crossing, "the column store should lose at full projectivity"
        assert min(crossing) >= 0.85

    def test_column_cpu_exceeds_row_cpu_at_high_projectivity(self, experiment_runs):
        series = experiment_runs["figure-6"].series
        assert series["col_cpu"][-1] > series["row_cpu"][-1]

    def test_string_attributes_add_l2_component(self, experiment_runs):
        l2 = experiment_runs["figure-6"].series["col_l2"]
        # Attributes 9-11 are the strings; the L2 component must jump.
        assert l2[10] > l2[7] + 0.2


class TestFigure7:
    def test_low_selectivity_flattens_column_cpu(self, experiment_runs):
        cpu_01 = experiment_runs["figure-7"].series["col_cpu"]
        cpu_10 = experiment_runs["figure-6"].series["col_cpu"]
        # Growth from 1 to 16 attributes (sys time excluded: compare
        # against the growth at 10% selectivity).
        growth_01 = cpu_01[-1] - cpu_01[0]
        growth_10 = cpu_10[-1] - cpu_10[0]
        assert growth_01 < 0.5 * growth_10

    def test_io_unchanged_by_selectivity(self, experiment_runs):
        np.testing.assert_allclose(
            experiment_runs["figure-7"].series["col_elapsed"][-1],
            experiment_runs["figure-6"].series["col_elapsed"][-1],
            rtol=0.02,
        )

    def test_string_memory_delays_disappear(self, experiment_runs):
        l2 = experiment_runs["figure-7"].series["col_l2"]
        assert max(l2) < 0.3


class TestFigure8:
    def test_narrow_tuples_hide_memory_delays(self, experiment_runs):
        out = experiment_runs["figure-8"]
        assert max(out.series["col_l2"]) < 0.05
        # Row scan of 1.9 GB: ~10.8 s.
        assert out.series["row_elapsed"][0] == pytest.approx(10.8, rel=0.05)

    def test_row_store_flat_in_projectivity(self, experiment_runs):
        row = experiment_runs["figure-8"].series["row_elapsed"]
        assert max(row) - min(row) < 0.02 * max(row)

    def test_column_cpu_overtakes_row_cpu(self, experiment_runs):
        out = experiment_runs["figure-8"]
        assert out.series["col_cpu"][-1] > out.series["row_cpu"][-1]


class TestFigure9:
    def test_column_store_becomes_cpu_bound(self, experiment_runs):
        # Elapsed ~= CPU for the compressed column store.
        fig9 = experiment_runs["figure-9"]
        np.testing.assert_allclose(
            fig9.series["col_delta_elapsed"], fig9.series["col_delta_cpu"], rtol=0.01
        )

    def test_for_delta_jumps_at_second_attribute(self, experiment_runs):
        fig9 = experiment_runs["figure-9"]
        delta_cpu = fig9.series["col_delta_cpu"]
        for_cpu = fig9.series["col_for_cpu"]
        jump_delta = delta_cpu[1] - delta_cpu[0]
        jump_for = for_cpu[1] - for_cpu[0]
        assert jump_delta > jump_for

    def test_row_store_cpu_rises_with_decompression(self, experiment_runs):
        row_cpu = experiment_runs["figure-9"].series["row_cpu"]
        assert row_cpu[-1] > row_cpu[0]

    def test_crossover_moves_left_vs_uncompressed(self, experiment_runs):
        fig9 = experiment_runs["figure-9"]
        plain = experiment_runs["figure-8"]

        def crossover(out, col_key):
            for sel, row, col in zip(
                out.series["selected_bytes"],
                out.series["row_elapsed"],
                out.series[col_key],
            ):
                if col > row:
                    return sel
            return None

        packed_cross = crossover(fig9, "col_delta_elapsed")
        plain_cross = crossover(plain, "col_elapsed")
        assert packed_cross is not None
        assert plain_cross is None or packed_cross < plain_cross
        # The compressed column store loses before full projectivity.
        assert packed_cross < fig9.series["selected_bytes"][-1]


class TestFigure10:
    def test_prefetch_ordering(self, experiment_runs):
        out = experiment_runs["figure-10"]
        # At full projectivity, smaller prefetch = slower column store.
        last = -1
        previous = None
        for depth in (2, 4, 8, 16, 48):
            value = out.series[f"col_depth_{depth}"][last]
            if previous is not None:
                assert value < previous
            previous = value
        # The row store is untouched by prefetch depth and flat.
        row = out.series["row_elapsed"]
        assert max(row) - min(row) < 1e-6

    def test_shallow_prefetch_at_least_doubles_column_time(self, experiment_runs):
        series = experiment_runs["figure-10"].series
        assert series["col_depth_2"][-1] > 2 * series["col_depth_48"][-1]


class TestFigure11:
    @pytest.mark.parametrize("depth", [48, 8, 2])
    def test_column_beats_row_in_all_configurations(self, experiment_runs, depth):
        fig11 = experiment_runs["figure-11"]
        row = fig11.series[f"row_{depth}"]
        col = fig11.series[f"col_{depth}"]
        assert all(c < r for c, r in zip(col, row))

    @pytest.mark.parametrize("depth", [48, 8, 2])
    def test_slow_variant_loses_its_edge(self, experiment_runs, depth):
        fig11 = experiment_runs["figure-11"]
        fast = fig11.series[f"col_{depth}"]
        slow = fig11.series[f"col_slow_{depth}"]
        assert all(s >= f for f, s in zip(fast, slow))
        # At full projectivity the slow variant approaches the row store.
        row_last = fig11.series[f"row_{depth}"][-1]
        assert slow[-1] == pytest.approx(row_last, rel=0.15)


class TestTable1:
    def test_all_trends_hold(self, experiment_runs):
        out = experiment_runs["table-1"]
        assert all(v == 1.0 for v in out.series["holds"])


class TestModelValidation:
    def test_model_within_25_percent(self, experiment_runs):
        assert relative_errors(experiment_runs["model-validation"]).max() < 0.25

    def test_model_picks_the_winner(self, experiment_runs):
        out = experiment_runs["model-validation"]
        measured = np.asarray(out.series["measured"])
        predicted = np.asarray(out.series["predicted"])
        assert ((measured > 1) == (predicted > 1)).mean() >= 0.85


class TestIndexBreakeven:
    def test_index_wins_only_at_tiny_selectivity(self, experiment_runs):
        series = experiment_runs["index-breakeven"].series
        assert series["index"][0] < series["sequential"][0]
        assert series["index"][-1] > series["sequential"][-1]

    def test_measured_flip_sits_near_the_closed_form(self, experiment_runs):
        series = experiment_runs["index-breakeven"].series
        flips = [
            s
            for s, i, q in zip(series["selectivity"], series["index"], series["sequential"])
            if i > q
        ]
        assert flips and flips[0] / series["breakeven"][0] < 10

    def test_paper_reference_breakeven_is_0_008_percent(self, experiment_runs):
        reference = experiment_runs["index-breakeven"].series["paper_reference"][0]
        assert reference == pytest.approx(8.5e-5, rel=0.05)


class TestScanSharing:
    def test_sharing_approaches_n_fold_makespan(self, experiment_runs):
        series = experiment_runs["scan-sharing"].series
        for count, speedup in zip(series["queries"], series["speedup"]):
            if count == 1:
                assert speedup == pytest.approx(1.0, abs=0.01)
            else:
                assert speedup > 0.85 * count

    def test_late_arrival_finishes_sooner_shared(self, experiment_runs):
        series = experiment_runs["scan-sharing"].series
        assert series["staggered_shared_late"][0] < series["staggered_independent_late"][0]


class TestPaxComparison:
    def test_pax_io_is_the_row_stores(self, experiment_runs):
        series = experiment_runs["pax-comparison"].series
        pax = series["pax_elapsed"]
        assert max(pax) - min(pax) < 0.02 * max(pax)
        assert all(abs(p - r) / r < 0.10 for p, r in zip(pax, series["row_elapsed"]))

    def test_pax_memory_traffic_scales_like_columns(self, experiment_runs):
        series = experiment_runs["pax-comparison"].series
        assert series["pax_mem"][0] < 0.2 * series["row_mem"][0]
        assert series["pax_mem"][-1] > 5 * series["pax_mem"][0]

    def test_columns_still_win_narrow_projections_on_io(self, experiment_runs):
        series = experiment_runs["pax-comparison"].series
        assert series["col_elapsed"][0] < 0.2 * series["pax_elapsed"][0]


class TestCompressedExecution:
    def test_codes_save_cpu_when_the_predicate_is_not_projected(self, experiment_runs):
        series = experiment_runs["compressed-execution"].series
        unprojected = [
            (d, c)
            for d, c, p in zip(series["decoded"], series["on_codes"], series["projected"])
            if p == 0.0
        ]
        assert unprojected
        assert all(c < d for d, c in unprojected)


class TestRleProjection:
    def test_rle_halves_the_sorted_key(self, experiment_runs):
        fig5_bytes, rle_bytes = experiment_runs["rle-projection"].series["key_bytes"]
        assert rle_bytes < 0.7 * fig5_bytes

    def test_sorted_projection_collapses_its_sort_column(self):
        # The RLE column's share falls with the rows run: 0.076x the
        # plain one at 1,200 rows, 0.025x at 4,000 (EXPERIMENTS.md's).
        series = rle_projection.run(num_rows=4_000).series
        assert series["sorted_column_rle"][0] < 0.05 * series["sorted_column_plain"][0]

    def test_rle_scan_is_never_slower(self, experiment_runs):
        plain, rle = experiment_runs["rle-projection"].series["scan_elapsed"]
        assert rle <= plain * 1.01


class TestJoinAnalysis:
    def test_columns_win_narrow_fact_projections_and_decay(self, experiment_runs):
        speedups = experiment_runs["join-analysis"].series["speedup"]
        assert speedups[0] > 3.0
        assert all(b < a for a, b in zip(speedups, speedups[1:]))


class TestCapacitySweep:
    def test_speedup_rises_with_cpdb(self, experiment_runs):
        # More disks hurt columns (the query turns CPU-bound), more CPUs
        # help them.
        series = experiment_runs["capacity-sweep"].series
        measured = np.asarray(series["measured"])[np.argsort(series["cpdb"])]
        assert all(b >= a - 1e-9 for a, b in zip(measured, measured[1:]))

    def test_model_tracks_the_measured_speedup(self, experiment_runs):
        assert relative_errors(experiment_runs["capacity-sweep"]).max() < 0.15


class TestSensitivity:
    def test_claims_survive_2x_miscalibration(self, experiment_runs):
        series = experiment_runs["sensitivity"].series
        assert all(v == 1.0 for v in series["claim1"])
        assert all(v == 1.0 for v in series["claim2"])
        # The 50%-projection speedup stays comfortably above 1 throughout.
        assert min(series["speedup"]) > 2.0


class TestOperatorCost:
    def test_rows_win_the_bare_cpu_bound_scan(self, experiment_runs):
        assert experiment_runs["operator-cost"].series["speedup"][0] < 1.0

    def test_costlier_operators_pull_the_ratio_toward_one(self, experiment_runs):
        gaps = np.abs(np.asarray(experiment_runs["operator-cost"].series["speedup"]) - 1.0)
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]


class TestAblations:
    """§2.2's fixed block and page sizes and §4.2's fused scanner, each on
    the smallest table at which its claim shows."""

    def test_bigger_blocks_never_cost_more_cpu(self):
        # 1,200 rows: the fewest at which 100 -> 1,600-tuple blocks save
        # anything, so the second claim is not vacuous.
        prepared = prepare_orders(1_200)
        query = ScanQuery(
            "ORDERS",
            select=prepared.attrs_prefix(4),
            predicates=(prepared.predicate("O_ORDERDATE", 0.10),),
        )
        cpu = [
            measure_scan(prepared.column, query, ExperimentConfig(block_size=size)).cpu.total
            for size in (10, 50, 100, 400, 1_600)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(cpu, cpu[1:]))
        # The paper's 100 is about L1 residency, not iterator overhead:
        # 16x larger blocks save little.
        assert cpu[2] - cpu[-1] < 0.25 * cpu[2]

    def test_page_size_has_no_visible_effect(self):
        # "No visible effect on performance" for sequential scans.  The
        # modeled time does not depend on the rows run; 500 fill several
        # pages of every size but the largest.
        data = generate_orders(500, seed=1)
        predicate = predicate_for_selectivity("O_ORDERDATE", data.column("O_ORDERDATE"), 0.10)
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERDATE", "O_ORDERKEY", "O_CUSTKEY"),
            predicates=(predicate,),
        )
        for layout in (Layout.ROW, Layout.COLUMN):
            elapsed = [
                measure_scan(load_table(data, layout, page_size=size), query).elapsed
                for size in (2_048, 4_096, 8_192, 16_384)
            ]
            assert max(elapsed) - min(elapsed) < 0.05 * max(elapsed), layout

    def test_pipelined_wins_selective_scans_fused_wins_full_ones(self):
        # 300 rows: the fewest at which the pipeline's 0.1 % win shows.
        prepared = prepare_lineitem(300)
        cpu = {}
        for selectivity in (0.001, 1.0):
            query = ScanQuery(
                "LINEITEM",
                select=prepared.attrs_prefix(8),
                predicates=(prepared.predicate("L_PARTKEY", selectivity),),
            )
            cpu[selectivity] = [
                measure_scan(prepared.column, query, column_scanner=kind).cpu.total
                for kind in (ColumnScannerKind.PIPELINED, ColumnScannerKind.FUSED)
            ]
        # Later pipeline nodes touch one value in a thousand; the fused
        # scanner decodes every accessed column densely ...
        pipelined, fused = cpu[0.001]
        assert pipelined < fused
        # ... until per-position bookkeeping dominates (§4.2).
        pipelined, fused = cpu[1.0]
        assert fused < pipelined


def test_every_registered_experiment_has_a_shape_assertion():
    """Each registered experiment's session run is read by a test here."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    asserted = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "experiment_runs"
        and isinstance(node.slice, ast.Constant)
    }
    assert sorted(set(ALL_EXPERIMENTS) - asserted) == []
