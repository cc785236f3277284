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

import time

import pytest

import numpy as np

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler
from repro.errors import ChecksumError, EngineError, QueryCancelled, QueryTimeout
from repro.obs import recorder as flight
from repro.storage.faults import FaultPlan
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


class TestQueuedRiders:
    """Every exit of a query that boarded a live stream while it waited
    for admission: the typed error it would have hit on its own and
    exactly one black box; peers byte-identical to their serial runs;
    every stream gone once the batch is.

    ``max_inflight=1`` and a table two windows long: the one admitted
    query pumps, the queued ones ride, and a pass outlives a pump.  A
    salvage query in the same queue reads on a stream of its own.
    """

    QUERY = TestPeerIsolation.QUERY
    PEERS = 3

    @staticmethod
    def _table(corrupt_page: int | None = None):
        # 5,000 ROW rows: 40 pages, two windows of 32.
        table = load_table(generate_orders(5_000, seed=21), Layout.ROW)
        if corrupt_page is not None:
            plan = FaultPlan(seed=5)
            plan.schedule_bit_flip(corrupt_page, byte=11, bit=3)
            plan.wrap_table(table)
        return table

    def _run(self, table, victim: dict, pumper: dict | None = None, cancel=False):
        """Submit a pumper, a victim, the peers and a salvager; run;
        check the salvager; return the rest."""
        flight.RECORDER.clear()
        scheduler = Scheduler(max_inflight=1, share_scans=True)
        first = scheduler.submit(table, self.QUERY, label="pumper", **(pumper or {}))
        doomed = scheduler.submit(table, self.QUERY, label="victim", **victim)
        peers = [
            scheduler.submit(table, self.QUERY, label=f"peer {index}")
            for index in range(self.PEERS)
        ]
        salvager = scheduler.submit(table, self.QUERY, label="salvager", salvage=True)
        assert scheduler.poll()  # the pumper's first window
        assert doomed.state is QueryState.QUEUED
        assert [event.detail["queued"] for event in flight.RECORDER.events("share.attach")] == [
            0, 1, *[1] * self.PEERS
        ]
        (stream,) = scheduler.board()["streams"]
        assert set(stream["queued"]) == {"victim", *(peer.governance.label for peer in peers)}
        if cancel:
            doomed.cancel("cancelled while queued")
        scheduler.run()
        assert scheduler.manager.live_streams() == []
        assert scheduler.manager.misses == 2
        assert salvager.state is QueryState.DONE, salvager.error
        salvaged = run_scan(table, self.QUERY, salvage=True)
        np.testing.assert_array_equal(salvager.result.positions, salvaged.positions)
        assert salvager.result.corruption.faults == salvaged.corruption.faults
        return first, doomed, peers

    def _assert_serial(self, handles) -> None:
        serial = run_scan(self._table(), self.QUERY)
        for handle in handles:
            assert handle.state is QueryState.DONE, handle.error
            np.testing.assert_array_equal(handle.result.positions, serial.positions)
            for name, column in serial.columns.items():
                np.testing.assert_array_equal(handle.result.columns[name], column)

    @staticmethod
    def _boxes() -> list[tuple[str, str]]:
        return sorted((box["query"], box["error"]["type"]) for box in flight.RECORDER.blackboxes)

    def test_timeout_while_queued_after_boarding(self):
        table = self._table()
        first, doomed, peers = self._run(
            table,
            victim={"timeout": 0.02},
            # The pumper outlives the victim's deadline: 40 checkpoints of 2 ms.
            pumper={"on_tick": lambda _governance: time.sleep(0.002)},
        )
        assert isinstance(doomed.error, QueryTimeout) and doomed.result is None
        assert doomed.admitted_at is not None
        assert self._boxes() == [("victim", "QueryTimeout")]
        self._assert_serial([first, *peers])

    def test_cancel_while_queued(self):
        first, doomed, peers = self._run(self._table(), victim={}, cancel=True)
        assert isinstance(doomed.error, QueryCancelled) and doomed.result is None
        assert self._boxes() == [("victim", "QueryCancelled")]
        self._assert_serial([first, *peers])

    @pytest.mark.usefixtures("one_unit_windows")
    def test_kill_of_the_peer_that_pumps(self):
        table = self._table()

        def kill(governance):
            if governance.ticks > 36:  # mid second window
                raise ChaosKill("injected kill of the pumping peer")

        first, doomed, peers = self._run(table, victim={}, pumper={"on_tick": kill})
        assert isinstance(first.error, ChaosKill)
        assert self._boxes() == [("pumper", "ChaosKill")]
        self._assert_serial([doomed, *peers])

    @pytest.mark.usefixtures("one_unit_windows")
    def test_strict_stream_failure_while_riders_are_queued(self):
        with pytest.raises(ChecksumError):  # what each would hit on its own
            run_scan(self._table(corrupt_page=36), self.QUERY)
        first, doomed, peers = self._run(self._table(corrupt_page=36), victim={})
        handles = [first, doomed, *peers]
        errors = {id(handle.error) for handle in handles}
        assert all(isinstance(handle.error, ChecksumError) for handle in handles)
        assert len(errors) == 1, "every rider carries the stream's one error"
        assert self._boxes() == sorted(
            (handle.governance.label, "ChecksumError") for handle in handles
        )


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
