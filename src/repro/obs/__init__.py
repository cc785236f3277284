"""Observability: lifecycle events and their views, span tracing, provenance.

The measurement substrate for every performance claim this repo makes:

* :mod:`repro.obs.recorder` — ``record(kind, query, **detail)``, the one
  call a producer makes for a lifecycle fact; the flight-recorder ring
  and the black boxes frozen from it;
* :mod:`repro.obs.metrics` — the Prometheus-style registry, its series
  declared as views of those events (``python -m repro.obs.metrics``);
* :mod:`repro.obs.slowlog`, :mod:`repro.obs.dashboard` — the per-batch
  slow-query log and the live scheduler board;
* :mod:`repro.obs.trace`, :mod:`repro.obs.explain`,
  :mod:`repro.obs.export` — per-operator spans with exact
  :class:`~repro.cpusim.events.CostEvents` attribution, EXPLAIN ANALYZE
  text, Chrome ``trace_event`` JSON (:class:`QueryProfile`);
* :mod:`repro.obs.provenance` — git SHA + calibration fingerprint stamps.

The recorder and the registry are on by default (``disable()`` on either
quiesces it); span tracing is opt-in via ``ExecutionContext.tracer``.
"""

from repro.obs import metrics
from repro.obs.explain import format_ns, render_explain
from repro.obs.export import QueryProfile, chrome_trace, flat_profile, write_json
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.provenance import git_sha, provenance
from repro.obs.trace import OperatorSpan, SpanTracer, TraceSlice

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "OperatorSpan",
    "QueryProfile",
    "REGISTRY",
    "SpanTracer",
    "TraceSlice",
    "chrome_trace",
    "flat_profile",
    "format_ns",
    "git_sha",
    "metrics",
    "provenance",
    "render_explain",
    "render_prometheus",
    "write_json",
]
