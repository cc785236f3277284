"""Flight recorder: a bounded ring of workload lifecycle events.

Single-query observability (spans, EXPLAIN ANALYZE, cumulative
counters) answers "what did *this* plan do"; the flight recorder
answers "what was the *workload* doing when things went wrong".  It is
a fixed-capacity ring buffer of small structured events — admission,
time slices, shared-scan attach/wrap/detach, governance aborts, storage
retries, salvaged pages, circuit-breaker trips, parallel-worker crashes
and degradations — emitted by the scheduler, the sharing layer,
governance, the parallel supervisor, and the storage retry policy.

**One fact, one emission.**  :func:`record` is the only call a producer
makes for a lifecycle fact: it updates every series
:mod:`repro.obs.metrics` declares ``on=`` the kind (under the metrics
flag), then appends to the ring (under the recorder flag).

The recorder is **on by default** and built to stay under the same
<5% budget the tracing and governance layers are held to (a third
paired gate in ``benchmarks/check_tracing_overhead.py`` measures it):
recording one event is a binding lookup, a guard branch, a monotonic
clock read, and one ``deque.append``; the ring evicts oldest-first so
memory is bounded no matter how long the process serves.  ``disable()``
stops the appends.  Appends are plain CPython deque operations — atomic
under the GIL — so no lock is taken anywhere.

**Black boxes.**  On any query failure — a governance abort, a decode
error, a chaos-injected kill — the failing query's *event slice* (every
ring event carrying its label), its governance snapshot, its span tree
(when traced), and a provenance stamp are frozen into one JSON-ready
black-box dict, exactly one per failure, through :func:`blackbox`.  The
scheduler dumps one for every failed handle and job, an aborted merge
its own; the chaos harness dumps one per raised case and stamps it with
the ``python -m repro.testing.chaos --seed N`` replay command, so a
black box found in a CI artifact can be re-run to the same typed error.
:meth:`repro.database.Database.flight_recorder` and
:meth:`~repro.database.Database.dump_blackbox` expose both from the
facade.
"""

from __future__ import annotations

import pathlib
import time
from collections import deque
from typing import NamedTuple

from repro.obs import metrics

__all__ = [
    "FlightRecorder",
    "RECORDER",
    "RecorderEvent",
    "blackbox",
    "disable",
    "enable",
    "enabled",
    "record",
]

#: Module-global switch, mirroring :mod:`repro.obs.metrics`: checked by
#: every :func:`record` call so a disabled recorder costs one attribute
#: load plus a branch per emit site.
_enabled = True


def enabled() -> bool:
    """Whether lifecycle events are currently recorded."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop the ring and the black boxes; bound series are still fed."""
    global _enabled
    _enabled = False


class RecorderEvent(NamedTuple):
    """One structured lifecycle event in the ring.

    ``kind`` is a dotted ``layer.event`` name (``scheduler.submit``,
    ``share.wrap``, ``governance.timeout``, ``storage.retry``, ...);
    ``query`` is the emitting query's governance label (``None`` for
    events with no query attribution, e.g. storage retries below the
    engine); ``detail`` carries the small JSON-able payload.
    """

    seq: int
    #: ``time.monotonic_ns()`` at emit; comparable within one process.
    ts_ns: int
    kind: str
    query: str | None
    detail: dict

    def as_dict(self) -> dict:
        return {**self._asdict(), "detail": dict(self.detail)}


class FlightRecorder:
    """A bounded, oldest-evicting ring of :class:`RecorderEvent`.

    Sequence numbers keep growing across evictions (and across
    :meth:`clear`), so event ordering survives ring churn and black-box
    file names never collide.
    """

    def __init__(self, capacity: int = 4096, max_blackboxes: int = 64):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        #: Raw event tuples: :meth:`events` wraps them when they are read.
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._seq = 0
        self._cleared_at = 0
        #: Black-box dicts, newest last, bounded like the ring.
        self.blackboxes: deque[dict] = deque(maxlen=max_blackboxes)
        self._blackbox_seq = 0

    # --- recording --------------------------------------------------------

    def record(self, kind: str, query: str | None = None, **detail) -> None:
        """Append one event, evicting the oldest when full."""
        self.append(kind, query, detail)

    def append(self, kind: str, query: str | None, detail: dict) -> None:
        """:meth:`record` with the detail as the dict it already is."""
        self._ring.append((self._seq, time.monotonic_ns(), kind, query, detail))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Events evicted from the ring (oldest-first) since the last clear."""
        return self._seq - self._cleared_at - len(self._ring)

    def events(
        self, kind: str | None = None, query: str | None = None
    ) -> list[RecorderEvent]:
        """Ring contents oldest-first, optionally filtered.

        ``kind`` matches exactly or by ``layer.`` prefix (``"share"``
        matches every ``share.*`` event); ``query`` slices one query's
        events by its governance label.
        """
        out = []
        for event in map(RecorderEvent._make, self._ring):
            if query is not None and event.query != query:
                continue
            if kind is not None and not (
                event.kind == kind or event.kind.startswith(kind + ".")
            ):
                continue
            out.append(event)
        return out

    def clear(self) -> None:
        """Drop every buffered event and black box (sequence kept)."""
        self._ring.clear()
        self.blackboxes.clear()
        self._cleared_at = self._seq

    # --- black boxes ------------------------------------------------------

    def dump_blackbox(
        self,
        query: str,
        error: BaseException | None = None,
        governance: dict | None = None,
        tracer=None,
        replay: str = "",
    ) -> dict:
        """Freeze one failure into a provenance-stamped black-box dict.

        The dict is JSON-ready: the failing query's event slice (from
        the current ring), the typed error, the governance snapshot,
        the span tree when the query was traced, and the replay command
        when the caller knows one (seeded chaos cases do).
        """
        from repro.obs.provenance import provenance

        box: dict = {
            "seq": self._blackbox_seq,
            "query": query,
            "error": None
            if error is None
            else {"type": type(error).__name__, "message": str(error)},
            "events": [event.as_dict() for event in self.events(query=query)],
            "governance": governance,
            "replay": replay,
            "provenance": provenance(),
        }
        if tracer is not None and tracer.roots:
            from repro.obs.export import flat_profile

            box["spans"] = flat_profile(tracer)
        self._blackbox_seq += 1
        self.blackboxes.append(box)
        return box

    def write_blackboxes(self, directory) -> list[pathlib.Path]:
        """Write every held black box as ``blackbox-<seq>.json``."""
        from repro.obs.export import write_json

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [
            write_json(directory / f"blackbox-{box['seq']:04d}.json", box)
            for box in self.blackboxes
        ]


#: The process-wide recorder every instrumented subsystem writes to.
RECORDER = FlightRecorder()


def record(kind: str, query: str | None = None, **detail) -> None:
    """Emit one lifecycle fact to the bound series and the global ring."""
    metrics.REGISTRY.apply(kind, detail)
    if _enabled:
        RECORDER.append(kind, query, detail)


def blackbox(query: str, **parts) -> dict | None:
    """``RECORDER.dump_blackbox(query, **parts)``; nothing while disabled."""
    return RECORDER.dump_blackbox(query, **parts) if _enabled else None
