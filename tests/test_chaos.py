"""Chaos-harness quotas and unit checks.

The 200-case seeded sweep always runs in tier-1 and asserts the
governance invariant — *correct result XOR typed error, within
deadline x slack* — across serial and parallel injections.  The deep
2,000-case sweep carries the ``chaos`` marker and runs only under
``pytest --run-chaos`` (or ``make chaos-deep``).
"""

from __future__ import annotations

import pytest

from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.chaos import (
    SlowPagedFile,
    generate_chaos_case,
    main,
    run_chaos_case,
    run_chaos_suite,
    slow_down_table,
)
from repro.testing.genquery import generate_case

SMOKE_CASES = 200
DEEP_CASES = 2_000


def _assert_clean(report) -> None:
    assert report.ok, "\n" + report.format()
    # Both arms of the XOR must be exercised: some queries complete
    # (oracle-equal), some abort with typed governance errors.
    assert report.completed > 0
    assert report.typed_errors, "no typed aborts: injections never fired"


def test_chaos_smoke_quota():
    _assert_clean(run_chaos_suite(SMOKE_CASES, start_seed=0))


@pytest.mark.chaos
def test_chaos_deep_sweep():
    _assert_clean(run_chaos_suite(DEEP_CASES, start_seed=0))


def test_generation_is_pure():
    assert generate_chaos_case(7).describe() == generate_chaos_case(7).describe()


def test_generation_covers_every_injection():
    cases = [generate_chaos_case(seed) for seed in range(SMOKE_CASES)]
    assert any(case.mode == "serial" for case in cases)
    assert any(case.mode == "parallel" for case in cases)
    assert any(case.inject_crash is not None for case in cases)
    assert any(case.inject_stall is not None for case in cases)
    assert any(case.slow_decode_s for case in cases)
    assert any(case.alloc_spike for case in cases)
    assert any(case.cancel_after_ticks is not None for case in cases)
    assert any(case.deadline == 0.0 for case in cases)
    assert all(case.case.kind != "join" for case in cases)


def test_slow_paged_file_preserves_bytes():
    case = generate_case(1)
    table = load_table(case.tables["T"], Layout.ROW, page_size=case.page_size)
    before = table.file.read_page(0) if table.file.num_pages else b""
    slow_down_table(table, delay_s=0.0)
    assert isinstance(table.file, SlowPagedFile)
    after = table.file.read_page(0) if table.file.num_pages else b""
    assert before == after


def test_outcome_records_governance_notes():
    # A stall case must surface its degradation in the outcome notes.
    for seed in range(SMOKE_CASES):
        chaos = generate_chaos_case(seed)
        if chaos.inject_stall is None or chaos.deadline != 15.0:
            continue
        outcome = run_chaos_case(chaos)
        assert outcome.ok, outcome.violations
        if outcome.completed and outcome.outcomes:
            assert any(
                "stalled" in note or "degraded" in note for note in outcome.outcomes
            )
            return
    pytest.skip("no completing stall case in the smoke range")


def test_cli_replay_single_seed(capsys):
    assert main(["--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "chaos seed=3" in out
    assert "seed 3:" in out
