"""The measuring loop: passes over one workload's fixed op list.

Protocol (see README.md for the noise measurements behind it): the
seeded op list is executed in repeated *passes*, each on freshly set-up
tables after untimed warm-up ops, until ``seconds`` have gone by and at
least three passes are done.  A yardstick sample is taken between units,
and every time is divided by the machine's slowdown around it
(``yardstick.py``); every op's latency, and every unit's time, is then
its **median over the passes**.  Loops are closed — the next op is
issued when the previous one returns.  Results are checked against the
numpy oracle on every pass, outside the timed spans.
"""

from __future__ import annotations

import gc
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import stats
from workloads import WORKLOADS, Workload
from yardstick import Stopwatch, Yardstick, at_speed_1

MIN_PASSES = 3
#: A unit's slowdown is the median of the yardstick samples from this
#: many units before it to this many after it.
SLOWDOWN_WINDOW = 2
#: A set-up (and the import) runs between passes, 0.1-0.3 s with no sample
#: inside it, while the machine's speed flickers faster than that: its
#: slowdown is the median over this many samples (about half a second of
#: ops) on either side, which steadies it more than the two adjacent ones.
SETUP_WINDOW = 30

IMPORT_REPEATS = 5
#: Run in a fresh interpreter: the import of the system, numpy excluded.
_IMPORT_PROBE = (
    "import time, numpy; w = time.perf_counter(); c = time.process_time(); "
    "import adapter; print(time.perf_counter() - w, time.process_time() - c)"
)

#: End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
    "stored_bytes_per_user_byte": "ratio",
}


@dataclass
class Pass:
    """One pass over the op list: times at yardstick speed 1, counts, failures."""

    unit_seconds: list[float]
    op_seconds: list[float]
    #: How long each op waited before it started (scheduled ops only).
    op_waits: list[float]
    failed_ops: list[int]
    events: list
    counts: list[dict]


@dataclass
class Measurement:
    workload: Workload
    yard: Yardstick
    import_seconds: float = 0.0
    #: Read when the passes end, before any child the harness itself starts.
    peak_rss_mb: float = 0.0
    #: Per pass: ``(wall, cpu, index of the yardstick sample taken after it)``.
    setups: list[tuple[float, float, int]] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    oplist_hash: str = ""

    @property
    def attempted(self) -> int:
        return sum(len(p.op_seconds) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failed_ops) for p in self.passes)

    def op_medians(self) -> list[float]:
        """Per-op latency, median over the passes."""
        return [
            statistics.median(times)
            for times in zip(*(p.op_seconds for p in self.passes))
        ]

    def unit_medians(self) -> list[float]:
        return [
            statistics.median(times)
            for times in zip(*(p.unit_seconds for p in self.passes))
        ]


def run_pass(
    workload: Workload, expected: list, errors: list[str], yard: Yardstick
) -> Pass:
    """Execute every unit once; verify each op's digest after its unit."""
    runs, failed, events, counts = [], [], [], []
    first_sample = len(yard.samples)
    for unit in workload.units:
        yard.sample()
        try:
            run = workload.run_unit(unit)
        except Exception as exc:  # a failed op is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            errors.append(f"unit {unit[0]}: {type(exc).__name__}: {exc}")
            runs.append(None)
            failed += unit
            continue
        runs.append(run)
        events += run.events
        counts.append(run.counts)
        for index, got in zip(unit, run.digests):
            if got != expected[index]:
                failed.append(index)
                errors.append(
                    f"op {index}: got {got}, oracle says {expected[index]}"
                )
    yard.sample()
    unit_seconds, op_seconds, op_waits = [], [], []
    for position, (unit, run) in enumerate(zip(workload.units, runs)):
        if run is None:
            unit_seconds.append(float("inf"))
            op_seconds += [float("inf")] * len(unit)
            continue
        # Sample ``first_sample + position`` was taken just before this unit.
        at = first_sample + position
        slowdown = yard.around(at - SLOWDOWN_WINDOW, at + 1 + SLOWDOWN_WINDOW)
        seconds = at_speed_1(run.seconds, run.cpu_seconds, slowdown)
        unit_seconds.append(seconds)
        # Ops inside a unit (a batch) share the unit's correction.
        op_seconds += [latency * seconds / run.seconds for latency in run.latencies]
        op_waits += [wait * seconds / run.seconds for wait in run.waits]
    return Pass(unit_seconds, op_seconds, op_waits, failed, events, counts)


def measure(
    name: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    min_passes: int = MIN_PASSES,
    yard: Yardstick | None = None,
) -> Measurement:
    """Run passes of workload ``name`` for ``seconds`` (at least ``min_passes``)."""
    workload = WORKLOADS[name](seed, scale)
    yard = yard or Yardstick()
    measurement = Measurement(workload, yard)
    expected = None
    started = time.perf_counter()
    try:
        while True:
            # The last pass's cyclic garbage is not this pass's working set.
            gc.collect()
            yard.sample()
            with Stopwatch() as watch:
                workload.setup()
            measurement.setups.append((watch.wall, watch.cpu, len(yard.samples)))
            yard.sample()
            if expected is None:
                expected = workload.expected()
                measurement.oplist_hash = workload.oplist_hash()
            elif workload.oplist_hash() != measurement.oplist_hash:
                raise RuntimeError("op list changed between passes of one seed")
            measurement.passes.append(
                run_pass(workload, expected, measurement.errors, yard)
            )
            elapsed = time.perf_counter() - started
            if len(measurement.passes) >= min_passes and elapsed >= seconds:
                break
    finally:
        workload.close()
    measurement.peak_rss_mb = peak_rss_mb()
    return measurement


def import_seconds(yard: Yardstick) -> float:
    """Median time a fresh interpreter takes to import the system.

    Call it after :func:`measure`: its children would otherwise count as
    the workload's largest child in ``peak_rss_mb``.

    One import per process is all a process can time, and one sample of
    0.15 s swings by a third on this box; so the import is repeated in
    short-lived child interpreters, each timing itself.
    """
    first_sample = len(yard.samples)
    timings = []
    for _ in range(IMPORT_REPEATS):
        yard.sample()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
        timings.append(tuple(map(float, proc.stdout.split())))
    yard.sample()
    slowdown = yard.around(first_sample - SETUP_WINDOW, len(yard.samples))
    return statistics.median(
        at_speed_1(wall, min(wall, cpu), slowdown) for wall, cpu in timings
    )


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest (ended) child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def end_to_end(m: Measurement) -> dict[str, float]:
    """The seven end-to-end metrics of one measurement."""
    op_ms = [seconds * 1e3 for seconds in m.op_medians()]
    workload = m.workload
    setups = [
        at_speed_1(wall, cpu, m.yard.around(mark - SETUP_WINDOW, mark + SETUP_WINDOW))
        for wall, cpu, mark in m.setups
    ]
    return {
        "setup_s": m.import_seconds + statistics.median(setups),
        "ops_per_s": len(op_ms) / sum(m.unit_medians()),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": stats.percentile(op_ms, 90),
        "ok_share": 1 - m.failed / m.attempted,
        "peak_rss_mb": m.peak_rss_mb,
        "stored_bytes_per_user_byte": workload.stored_bytes() / workload.user_bytes(),
    }
