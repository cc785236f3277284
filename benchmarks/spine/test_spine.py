"""Spine self-tests: ``python -m pytest benchmarks/spine -q`` (about 20 s).

Everything runs at 1/20 scale with a single pass, so the numbers mean
nothing — the tests pin the *shape*: every metric named in
``BENCHMARK.json`` is emitted with its unit, the oracle catches a wrong
result, op lists are a function of the seed, and a probe without a
target reads null instead of ending the run.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapter  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((adapter.ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_lists_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == measure.END_TO_END
    assert _units("per_layer") == layers.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_and_layer_pass_emit_every_metric(name, tmp_path):
    m = measure.measure(name, seed=5, seconds=0.0, scale=SCALE, min_passes=1)
    assert m.failed == 0, m.errors[:3]
    assert m.attempted == len(m.workload.ops)

    end_to_end = measure.end_to_end(m)
    assert set(end_to_end) == set(_units("end_to_end"))
    assert all(value > 0 for value in end_to_end.values())
    assert end_to_end["ok_share"] == 1.0

    values, reasons = layers.layer_pass(m, tmp_path)
    assert set(values) == set(_units("per_layer"))
    assert reasons == {}
    assert all(isinstance(value, (int, float)) for value in values.values())

    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["spans"], "the layer pass recorded no spans"
    for span in trace["spans"]:
        assert {"name", "start", "end", "parent", "op_id", "workload"} <= set(span)
        assert span["end"] >= span["start"]
        assert span["workload"] == name
    assert "harness.trace_overhead_share" in values

    if name in ("row_plain", "row_z"):
        # The rungs plus the scanner's self time are the traced op.
        rungs = (
            "storage.pagefile.read_ms",
            "storage.page.crc_ms",
            "storage.page.row_decode_ms",
            "storage.rowz.decode_ms",
            "engine.predicate.eval_ms",
            "engine.operators.scan_row.self_ms",
        )
        fastest: dict[int, float] = {}
        for span in trace["spans"]:
            if span["name"] == "op":
                seconds = span["at_speed_1"]
                op_id = span["op_id"]
                fastest[op_id] = min(fastest.get(op_id, seconds), seconds)
        traced_op_ms = statistics.fmean(fastest.values()) * 1e3
        assert sum(values[rung] for rung in rungs) == pytest.approx(traced_op_ms)
        assert values["engine.operators.scan_row.self_ms"] >= 0
    if name == "col_scan":
        assert values["engine.operators.scan_column.per_extra_column_ms"] > 0


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile(list(range(640)), 99)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    def oplist(seed):
        workload = WORKLOADS[name](seed, SCALE)
        try:
            workload.build()
        finally:
            workload.close()
        return workload.oplist_hash()

    assert oplist(11) == oplist(11)
    assert oplist(11) != oplist(12)


def test_a_corrupted_result_counts_as_failed(monkeypatch):
    cls = WORKLOADS["row_plain"]
    honest = cls.execute

    def corrupt(self, op):
        result = honest(self, op)
        if op is self.ops[7]:
            result.positions = result.positions + 1
        return result

    monkeypatch.setattr(cls, "execute", corrupt)
    m = measure.measure("row_plain", seed=5, seconds=0.0, scale=SCALE, min_passes=1)
    assert m.failed == 1
    assert measure.end_to_end(m)["ok_share"] < 1.0


def test_a_raising_op_counts_as_failed(monkeypatch):
    cls = WORKLOADS["row_plain"]
    honest = cls.execute

    def explode(self, op):
        if op is self.ops[7]:
            raise RuntimeError("injected")
        return honest(self, op)

    monkeypatch.setattr(cls, "execute", explode)
    m = measure.measure("row_plain", seed=5, seconds=0.0, scale=SCALE, min_passes=1)
    assert m.failed == 1 and "injected" in m.errors[0]


def test_a_probe_without_a_target_reads_null():
    probes = layers.Probes()
    probes.run(
        lambda: {"engine.operators.scan_pax.ref_ms": adapter.Layout.NO_SUCH_LAYOUT},
        names=("engine.operators.scan_pax.ref_ms",),
    )
    assert probes.values["engine.operators.scan_pax.ref_ms"] is None
    assert "AttributeError" in probes.reasons["engine.operators.scan_pax.ref_ms"]
    assert adapter.optional("repro.engine.plan", "NoSuchName") is None
    assert adapter.optional("repro.no_such_module", "anything") is None


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "within"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "better"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def test_command_line_contract(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", "col_scan",
            "--seed", "2",
            "--seconds", "0",
            "--trace", "0",
            "--scale", str(SCALE),
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == _units("end_to_end")
