"""CI gate: the tracing and governance no-op paths must stay within 5%.

The observability layer promises zero-overhead when disabled: with
``ExecutionContext.tracer is None`` the operator layer takes one
attribute load plus a branch per ``open()``/``next()``/``close()``
call.  This script measures that promise on a pipelined column scan of
4,000 LINEITEM rows at 10% selectivity:

1. **baseline** — ``Operator.open/next/close`` temporarily replaced by
   the pre-instrumentation (seed) bodies, metrics disabled;
2. **no-op** — the shipped instrumented methods, tracer ``None``,
   metrics disabled.

A second paired gate holds query lifecycle governance (see
:mod:`repro.engine.governance`) to the same promise: with
``ExecutionContext.governance is None`` every checkpoint — the one in
``Operator.next()`` and the per-page ``_governance_check()`` calls
inside the scanners — costs one attribute load plus a branch.  The
governance arms swap only those checkpoints (shipped vs stubbed-out),
so the measured ratio isolates the disabled-governance cost.

A third paired gate covers the flight recorder, which — unlike tracing
and governance — ships **enabled by default**.  Its arms run the same
concurrent scheduler batch (where every recorder emit point lives)
with the recorder module flag off vs on, holding the enabled-by-default
cost of :mod:`repro.obs.recorder` to the same 5% budget.

A fourth paired gate prices the hybrid write path's read-side promise:
with nothing staged and nothing deleted, a scan through
``Database.query(..., layout=...)`` — whose resolver makes the
``has_changes`` check for every query — must cost no more than the
plain ``run_scan`` of the same table.

Measurement is built for noisy shared runners: both arms alternate in
paired cycles (each block re-warmed after the method swap, because
swapping class attributes invalidates CPython's adaptive
specialization), each sample times a whole batch of scans, the
per-cycle ratio pairs arms under the same machine conditions, and the
attempt's verdict is the median cycle ratio.  Because load spikes can
only inflate the measured ratio, the gate retries a failing attempt up
to ``--attempts`` times and passes if any attempt lands under the
threshold (default 5%, override via ``REPRO_OVERHEAD_THRESHOLD``).

It also emits artifacts under ``--out``: a provenance-stamped
``overhead.json`` with the measurements, plus a demo Chrome trace and
EXPLAIN ANALYZE text from one traced execution, so every CI run leaves
an inspectable trace behind.

Usage::

    python benchmarks/check_tracing_overhead.py --out obs-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.data.tpch import generate_lineitem
from repro.engine.blocks import Block
from repro.engine.executor import run_scan
from repro.engine.operators.base import Operator
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.errors import EngineError
from repro.obs import SpanTracer, chrome_trace, flat_profile, metrics, render_explain
from repro.obs import recorder as flight
from repro.obs.provenance import provenance
from repro.engine.context import ExecutionContext
from repro.engine.scheduler import Scheduler
from repro.storage.layout import Layout
from repro.storage.loader import load_table

#: The column scan the tracing and governance gates time.
ROWS = 4_000
SELECTIVITY = 0.10
SELECT = ("L_PARTKEY", "L_ORDERKEY", "L_QUANTITY", "L_SHIPMODE")


# --- the seed (pre-instrumentation) operator methods ----------------------


def _seed_open(self) -> None:
    for child in self.children():
        child.open()
    self._open()
    self._opened = True


def _seed_next(self, want: int | None = None) -> Block | None:
    if not self._opened:
        raise EngineError(f"{type(self).__name__}.next() before open()")
    block = self._next(want)
    if block is not None and len(block):
        self.events.blocks_produced += block.num_blocks
    return block


def _seed_close(self) -> None:
    self._close()
    for child in self.children():
        child.close()
    self._opened = False


_INSTRUMENTED = (Operator.open, Operator.next, Operator.close)
_SEED = (_seed_open, _seed_next, _seed_close)


# --- the governance-free checkpoint bodies --------------------------------


def _nogov_next(self, want: int | None = None) -> Block | None:
    # The shipped Operator.next() minus the governance checkpoints.
    if not self._opened:
        raise EngineError(f"{type(self).__name__}.next() before open()")
    tracer = self.context.tracer
    if tracer is None:
        block = self._next(want)
        if block is not None and len(block):
            self.events.blocks_produced += block.num_blocks
        return block
    frame = tracer.enter(self, "next")
    rows = 0
    blocks = 0
    try:
        block = self._next(want)
        if block is not None and len(block):
            rows = len(block)
            blocks = block.num_blocks
            self.events.blocks_produced += blocks
        return block
    finally:
        tracer.exit(frame, self.context.events, rows=rows, blocks=blocks)


def _nogov_check(self) -> None:
    pass


_GOVERNED = (Operator.next, Operator._governance_check)
_UNGOVERNED = (_nogov_next, _nogov_check)

#: Scans per timed sample: batching amortizes timer and scheduler noise
#: that dominates a single ~1 ms scan.
BATCH = 20


def _use(methods) -> None:
    Operator.open, Operator.next, Operator.close = methods


def _workload():
    data = generate_lineitem(ROWS, seed=5)
    table = load_table(data, Layout.COLUMN)
    predicate = predicate_for_selectivity(
        "L_PARTKEY", data.column("L_PARTKEY"), SELECTIVITY
    )
    query = ScanQuery("LINEITEM", select=SELECT, predicates=(predicate,))
    return table, query


def _sample(table, query) -> float:
    started = time.perf_counter()
    for _ in range(BATCH):
        result = run_scan(table, query)
    assert result.num_tuples > 0
    return time.perf_counter() - started


def _paired(
    cycles: int, samples: int, use_baseline, use_candidate, sample=None
) -> tuple[float, list[float]]:
    """One attempt: (median cycle ratio - 1, the per-cycle ratios).

    ``sample`` defaults to the single-query :func:`_sample`; the
    recorder gate passes :func:`_scheduler_sample` instead so its arms
    exercise the scheduler paths the recorder instruments.
    """
    import statistics

    sample = sample or _sample
    table, query = _workload()
    ratios = []
    try:
        for _ in range(cycles):
            use_baseline()
            sample(table, query)  # re-specialize after the method swap
            sample(table, query)
            baseline = min(sample(table, query) for _ in range(samples))
            use_candidate()
            sample(table, query)
            sample(table, query)
            candidate = min(sample(table, query) for _ in range(samples))
            ratios.append(candidate / baseline)
    finally:
        use_candidate()  # leave the shipped methods installed
    return statistics.median(ratios) - 1.0, ratios


def measure(cycles: int, samples: int) -> tuple[float, list[float]]:
    """Tracing gate: seed bodies vs shipped instrumented bodies."""
    return _paired(
        cycles, samples, lambda: _use(_SEED), lambda: _use(_INSTRUMENTED)
    )


def _use_governance(methods) -> None:
    Operator.next, Operator._governance_check = methods


def measure_governance(cycles: int, samples: int) -> tuple[float, list[float]]:
    """Governance gate: stubbed checkpoints vs shipped checkpoints."""
    return _paired(
        cycles,
        samples,
        lambda: _use_governance(_UNGOVERNED),
        lambda: _use_governance(_GOVERNED),
    )


#: Concurrent batches per recorder-gate sample: each batch runs
#: ``SCHED_CLIENTS`` queries through one shared-scan scheduler, hitting
#: every recorder emit point (submit/admit/slice/attach/wrap/detach/done).
SCHED_BATCH = 5
SCHED_CLIENTS = 8


def _scheduler_sample(table, query) -> float:
    started = time.perf_counter()
    for _ in range(SCHED_BATCH):
        scheduler = Scheduler(max_inflight=SCHED_CLIENTS, share_scans=True)
        for index in range(SCHED_CLIENTS):
            scheduler.submit(table, query, label=f"overhead client-{index}")
        scheduler.run()
        assert scheduler.failed == 0
    return time.perf_counter() - started


def measure_recorder(cycles: int, samples: int) -> tuple[float, list[float]]:
    """Recorder gate: flight recorder disabled vs enabled (the default).

    No method swapping — the arms flip the module flag that every
    guarded ``flight.record()`` call checks, which is exactly the knob
    a user has.  The candidate arm (enabled) is the shipped default, so
    this gate prices the recorder's always-on promise.
    """
    return _paired(
        cycles, samples, flight.disable, flight.enable, sample=_scheduler_sample
    )


def measure_write_path(cycles: int, samples: int) -> tuple[float, list[float]]:
    """Write-path gate: plain scan vs the facade over an empty write store.

    Every table a ``Database`` holds carries a write store, so every
    query pays the resolver's hybrid check even when nothing is staged.
    The candidate arm queries through ``Database.query`` with the
    layout named (no view routing) — the path every facade read takes —
    and the baseline arm runs ``run_scan`` on the same table; the
    difference must stay within the same 5% budget as the other
    disabled-feature arms.
    """
    from repro.database import Database

    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(generate_lineitem(ROWS, seed=5))
    table = db.table("LINEITEM")
    arm = {"facade": False}

    def sample(_table, query) -> float:
        started = time.perf_counter()
        if arm["facade"]:
            for _ in range(BATCH):
                result = db.query(
                    "LINEITEM", query.select, query.predicates, layout=Layout.COLUMN
                )
        else:
            for _ in range(BATCH):
                result = run_scan(table, query)
        assert result.num_tuples > 0
        return time.perf_counter() - started

    return _paired(
        cycles,
        samples,
        lambda: arm.update(facade=False),
        lambda: arm.update(facade=True),
        sample=sample,
    )


def demo_artifacts(out_dir: pathlib.Path) -> None:
    """One traced execution: Chrome trace + EXPLAIN text + flat profile."""
    data = generate_lineitem(ROWS, seed=5)
    table = load_table(data, Layout.COLUMN)
    predicate = predicate_for_selectivity(
        "L_PARTKEY", data.column("L_PARTKEY"), SELECTIVITY
    )
    query = ScanQuery("LINEITEM", select=SELECT, predicates=(predicate,))
    context = ExecutionContext(tracer=SpanTracer())
    run_scan(table, query, context)
    explain_text = render_explain(context.tracer)
    (out_dir / "explain_analyze.txt").write_text(explain_text + "\n")
    (out_dir / "chrome_trace.json").write_text(
        json.dumps(chrome_trace(context.tracer), indent=2) + "\n"
    )
    (out_dir / "profile.json").write_text(
        json.dumps(flat_profile(context.tracer, provenance=provenance()), indent=2)
        + "\n"
    )
    print(explain_text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=5, help="paired A/B cycles")
    parser.add_argument(
        "--samples", type=int, default=4, help="timed batches per arm per cycle"
    )
    parser.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="retries for a failing measurement (noise only inflates it)",
    )
    parser.add_argument(
        "--out",
        default="obs-artifacts",
        help="directory for overhead.json + demo trace artifacts",
    )
    args = parser.parse_args(argv)
    threshold = float(os.environ.get("REPRO_OVERHEAD_THRESHOLD", "0.05"))

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_gate(name: str, measurer) -> tuple[float, list[dict]]:
        attempts = []
        overhead = float("inf")
        for attempt in range(args.attempts):
            overhead, ratios = measurer(args.cycles, args.samples)
            attempts.append({"overhead_fraction": overhead, "cycle_ratios": ratios})
            print(
                f"{name} attempt {attempt + 1}: cycle ratios "
                + " ".join(f"{(r - 1) * 100:+.2f}%" for r in ratios)
                + f" -> median {overhead * 100:+.2f}%"
            )
            if overhead <= threshold:
                break
        return overhead, attempts

    # Quiesce the whole obs layer: these arms are the "disabled" promise.
    # The recorder gate also runs here so metrics noise is identical in
    # both of its arms; only the recorder flag differs between them.
    metrics.disable()
    try:
        tracing_overhead, tracing_attempts = run_gate("tracing", measure)
        governance_overhead, governance_attempts = run_gate(
            "governance", measure_governance
        )
        recorder_overhead, recorder_attempts = run_gate(
            "recorder", measure_recorder
        )
        write_overhead, write_attempts = run_gate(
            "write-path", measure_write_path
        )
    finally:
        metrics.enable()

    ok = True
    for name, overhead in (
        ("tracing no-op", tracing_overhead),
        ("governance no-op", governance_overhead),
        ("recorder enabled-by-default", recorder_overhead),
        ("write-path empty-delta", write_overhead),
    ):
        verdict = "OK" if overhead <= threshold else "FAIL"
        ok = ok and overhead <= threshold
        print(
            f"{name} overhead: {overhead * 100:+.2f}% "
            f"(threshold {threshold * 100:.0f}%) -> {verdict}"
        )
    (out_dir / "overhead.json").write_text(
        json.dumps(
            {
                "rows": ROWS,
                "selectivity": SELECTIVITY,
                "batch": BATCH,
                "overhead_fraction": tracing_overhead,
                "threshold": threshold,
                "ok": ok,
                "attempts": tracing_attempts,
                "governance": {
                    "overhead_fraction": governance_overhead,
                    "attempts": governance_attempts,
                },
                "recorder": {
                    "overhead_fraction": recorder_overhead,
                    "attempts": recorder_attempts,
                },
                "write_path": {
                    "overhead_fraction": write_overhead,
                    "attempts": write_attempts,
                },
                "provenance": provenance(),
            },
            indent=2,
        )
        + "\n"
    )
    demo_artifacts(out_dir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
