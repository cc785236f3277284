"""Chaos under concurrency: faults hit single queries in a live batch.

Seeded :func:`~repro.testing.chaos.generate_workload_chaos_case` batches
run kills, cancellations, tight deadlines, and stalls against individual
queries of a concurrent workload (sharing on and off, all four scanner
architectures).  The invariant, checked per query:

* every query ends in *correct result XOR typed error* (a
  :class:`~repro.errors.GovernanceError` subclass or
  :class:`~repro.testing.chaos.ChaosKill`);
* a query with no injection of its own completes byte-identically to
  its serial run — one victim's fault never corrupts or cancels its
  scan-share peers.

The 40-seed smoke sweep runs in tier-1; the 300-seed deep sweep runs
under ``pytest --run-chaos`` (or ``make chaos-deep``).
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler
from repro.errors import EngineError, QueryCancelled, QueryTimeout
from repro.obs import recorder as flight
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.chaos import (
    ChaosKill,
    generate_workload_chaos_case,
    run_workload_chaos_case,
)

SMOKE_SEEDS = 40
DEEP_SEEDS = 300


def _sweep(start: int, count: int) -> None:
    failures = []
    for seed in range(start, start + count):
        outcome = run_workload_chaos_case(generate_workload_chaos_case(seed))
        if not outcome.ok:
            case = generate_workload_chaos_case(seed)
            failures.append(
                case.describe() + "\n    " + "\n    ".join(outcome.violations)
            )
    assert not failures, "\n".join(failures)


def test_workload_chaos_smoke():
    _sweep(0, SMOKE_SEEDS)


@pytest.mark.chaos
def test_workload_chaos_deep():
    _sweep(0, DEEP_SEEDS)


def test_generation_is_pure():
    a = generate_workload_chaos_case(11).describe()
    b = generate_workload_chaos_case(11).describe()
    assert a == b


def test_generation_covers_every_injection_and_config():
    cases = [generate_workload_chaos_case(seed) for seed in range(SMOKE_SEEDS)]
    injections = {
        query.injection
        for case in cases
        for query in case.queries
        if query.injection
    }
    assert injections == {"kill", "cancel", "deadline", "stall"}
    assert {case.layout_name for case in cases} == {"row", "pax", "column", "fused"}
    assert any(case.share_scans for case in cases)
    assert any(not case.share_scans for case in cases)
    # Every case keeps at least one healthy peer to assert isolation on.
    assert all(
        any(query.injection is None for query in case.queries) for case in cases
    )


def test_outcome_states_name_the_typed_errors():
    for seed in range(SMOKE_SEEDS):
        case = generate_workload_chaos_case(seed)
        if not any(q.injection == "kill" for q in case.queries):
            continue
        outcome = run_workload_chaos_case(case)
        assert "ChaosKill" in outcome.states
        return
    pytest.fail("no kill case in the smoke range")


class TestPeerIsolation:
    """Deterministic versions of the sweep's isolation invariant."""

    QUERY = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))

    @pytest.fixture(scope="class")
    def table(self):
        return load_table(generate_orders(500, seed=21), Layout.COLUMN)

    def test_killed_rider_leaves_sharing_peers_intact(self, table):
        scheduler = Scheduler(max_inflight=4, share_scans=True)

        def kill(context):
            if context.ticks > 2:
                raise ChaosKill("injected kill")

        victim = scheduler.submit(table, self.QUERY, on_tick=kill)
        peers = [scheduler.submit(table, self.QUERY) for _ in range(2)]
        scheduler.run()
        assert victim.state is QueryState.FAILED
        assert isinstance(victim.error, ChaosKill)
        want = scheduler.handles()[1].result
        for peer in peers:
            assert peer.state is QueryState.DONE, peer.error
            assert peer.result.num_tuples == 500
            assert peer.result.positions.tolist() == want.positions.tolist()

    def test_cancelled_rider_leaves_peers_intact(self, table):
        scheduler = Scheduler(max_inflight=4, share_scans=True)

        def cancel(context):
            if context.ticks > 2:
                context.token.cancel("operator fatigue")

        victim = scheduler.submit(table, self.QUERY, on_tick=cancel)
        peer = scheduler.submit(table, self.QUERY)
        scheduler.run()
        assert isinstance(victim.error, QueryCancelled)
        assert peer.state is QueryState.DONE, peer.error

    def test_expired_deadline_in_queue_fails_fast_without_running(self, table):
        scheduler = Scheduler(max_inflight=1, share_scans=True)
        slow = scheduler.submit(table, self.QUERY)
        doomed = scheduler.submit(table, self.QUERY, timeout=0.0)
        scheduler.run()
        assert slow.state is QueryState.DONE
        assert doomed.state is QueryState.FAILED
        assert isinstance(doomed.error, QueryTimeout)
        # It never got a plan: no pages were read on its behalf.
        assert doomed.result is None

    def test_failure_then_new_arrivals_get_a_fresh_stream(self, table):
        scheduler = Scheduler(max_inflight=4, share_scans=True)

        def kill(context):
            raise ChaosKill("immediate")

        victim = scheduler.submit(table, self.QUERY, on_tick=kill)
        scheduler.run()
        assert victim.state is QueryState.FAILED
        late = scheduler.submit(table, self.QUERY)
        scheduler.run()
        assert late.state is QueryState.DONE, late.error
        assert late.result.num_tuples == 500


class TestUntypedFailures:
    """A generator that raises something untyped fails its own handle —
    typed, cause chained, one black box — and is never advanced again;
    a co-running query still finishes byte-identical to its serial run.
    """

    QUERY = TestPeerIsolation.QUERY

    @pytest.fixture(scope="class")
    def table(self):
        return load_table(generate_orders(500, seed=21), Layout.COLUMN)

    def _assert_peer_is_serial(self, table, peer):
        assert peer.state is QueryState.DONE, peer.error
        serial = run_scan(table, self.QUERY)
        np.testing.assert_array_equal(peer.result.positions, serial.positions)
        for name, column in serial.columns.items():
            np.testing.assert_array_equal(peer.result.columns[name], column)

    def _assert_failed_once(self, error):
        assert isinstance(error, EngineError)
        assert isinstance(error.__cause__, ValueError)
        assert "not a typed error" in str(error)
        assert len(flight.RECORDER.blackboxes) == 1
        assert flight.RECORDER.blackboxes[0]["error"]["type"] == "EngineError"

    def test_query_timeslice(self, table):
        scheduler = Scheduler(max_inflight=4, share_scans=False)

        def crash(context):
            if context.ticks > 2:
                raise ValueError("not a typed error")

        flight.RECORDER.clear()
        victim = scheduler.submit(table, self.QUERY, on_tick=crash)
        peer = scheduler.submit(table, self.QUERY)
        scheduler.run()
        assert victim.state is QueryState.FAILED and victim.result is None
        self._assert_failed_once(victim.error)
        with pytest.raises(EngineError):
            victim.value()
        self._assert_peer_is_serial(table, peer)
        # No later round reads the finished generator and flips the handle.
        assert not scheduler.poll()
        assert victim.state is QueryState.FAILED
        assert (scheduler.completed, scheduler.failed) == (1, 1)

    def test_job_step(self, table):
        scheduler = Scheduler(max_inflight=4, share_scans=False)

        def steps():
            yield
            raise ValueError("not a typed error")

        flight.RECORDER.clear()
        job = scheduler.submit_job(steps(), label="doomed job")
        peer = scheduler.submit(table, self.QUERY)
        scheduler.run()
        assert job.done and job.failed and job.result is None
        self._assert_failed_once(job.error)
        self._assert_peer_is_serial(table, peer)
        assert not scheduler.poll()
        assert job.failed and job.steps == 2

    def test_keyboard_interrupt_is_recorded_then_reraised(self, table):
        scheduler = Scheduler(share_scans=False)

        def interrupt(context):
            if context.ticks > 2:  # mid-slice, past the admission check
                raise KeyboardInterrupt

        victim = scheduler.submit(table, self.QUERY, on_tick=interrupt)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        assert victim.state is QueryState.FAILED
        assert isinstance(victim.error.__cause__, KeyboardInterrupt)
        assert not scheduler.poll()


class TestChaosBlackboxes:
    """Every chaos-injected failure leaves exactly one replayable black box.

    The flight recorder promises one provenance-stamped black box per
    failed query — no more (a double dump would double-count failures
    in post-mortems), no fewer (a silent failure is the worst outcome
    for a black box to miss) — whose event slice names only the failing
    query and whose replay command re-runs the seeded case.
    """

    BLACKBOX_SEEDS = 12

    @staticmethod
    def _deterministic(case) -> bool:
        # Kill/cancel fire on tick counts and an already-expired
        # deadline fails at the first checkpoint; 1 ms deadlines and
        # stalls race the wall clock, so replays may legitimately
        # differ on them.
        return all(
            query.injection in (None, "kill", "cancel")
            or (query.injection == "deadline" and query.timeout == 0.0)
            for query in case.queries
        )

    def test_every_failure_yields_exactly_one_replayable_blackbox(self):
        seeds_with_failures = 0
        for seed in range(self.BLACKBOX_SEEDS):
            case = generate_workload_chaos_case(seed)
            flight.RECORDER.clear()
            outcome = run_workload_chaos_case(case)
            assert outcome.ok, outcome.violations
            failed = {
                f"workload-chaos seed {seed} q{index}": state
                for index, state in enumerate(outcome.states)
                if state != "completed"
            }
            boxes = {box["query"]: box for box in flight.RECORDER.blackboxes}
            assert len(flight.RECORDER.blackboxes) == len(failed), (
                f"seed {seed}: {len(failed)} failures but "
                f"{len(flight.RECORDER.blackboxes)} black boxes"
            )
            assert set(boxes) == set(failed)
            for label, state in failed.items():
                box = boxes[label]
                assert box["error"]["type"] == state
                assert box["replay"] == (
                    f"python -m repro.testing.chaos --workload-seed {seed}"
                )
                assert box["events"], f"{label}: empty event slice"
                assert all(e["query"] == label for e in box["events"])
                assert "ticks" in box["governance"]
                assert box["provenance"]["calibration_fingerprint"]
            seeds_with_failures += bool(failed)
        flight.RECORDER.clear()
        assert seeds_with_failures >= 3, "sweep lost its failure coverage"

    def test_fixed_seed_replays_to_the_same_typed_errors(self):
        def boxed_errors(seed: int) -> list[tuple[str, str]]:
            flight.RECORDER.clear()
            outcome = run_workload_chaos_case(generate_workload_chaos_case(seed))
            assert outcome.ok, outcome.violations
            return sorted(
                (box["query"], box["error"]["type"])
                for box in flight.RECORDER.blackboxes
            )

        replayed = 0
        for seed in range(2 * self.BLACKBOX_SEEDS):
            if replayed >= 4:
                break
            case = generate_workload_chaos_case(seed)
            if not self._deterministic(case):
                continue
            first = boxed_errors(seed)
            if not first:
                continue
            assert boxed_errors(seed) == first, (
                f"seed {seed}: replay produced different black boxes"
            )
            replayed += 1
        flight.RECORDER.clear()
        assert replayed >= 2, "not enough deterministic failing seeds"
