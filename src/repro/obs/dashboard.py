"""Live scheduler dashboard: a refreshing TUI over the telemetry layer.

``python -m repro.obs.dashboard`` drives a demo concurrent workload
through the cooperative scheduler one ``poll()`` round per frame and
redraws the *scheduler board* between rounds: workload counters,
trailing-window latency percentiles and qps, in-flight and sharing
gauges, the admission queue, running queries with their timeslice
counts, live shared-scan streams (cursor position and attached riders,
a rider that reads fewer attributes than its stream as ``[2/3]``),
open circuit-breaker keys, and the tail of the flight-recorder ring.

Everything renders from the same sources production code uses —
:data:`repro.obs.metrics.REGISTRY`, :meth:`repro.engine.scheduler.
Scheduler.board`, :data:`repro.obs.recorder.RECORDER` — so the
dashboard doubles as living documentation of the telemetry subsystem.
``--html`` writes a standalone snapshot page instead of (or after)
animating, for CI artifacts and sharing.

Usage::

    python -m repro.obs.dashboard                   # animated demo
    python -m repro.obs.dashboard --clients 32      # busier board
    python -m repro.obs.dashboard --html board.html # snapshot export
"""

from __future__ import annotations

import html as _html
import math
import pathlib

__all__ = ["main", "render_board", "render_html"]


def _window_stats() -> dict:
    """Current windowed metrics, NaN-safe for display."""
    from repro.obs import metrics as obs_metrics

    window = obs_metrics.WINDOW_QUERY_LATENCY
    return {
        "qps": obs_metrics.WINDOW_QPS.value,
        "inflight": obs_metrics.SCHEDULER_INFLIGHT.value,
        "hit_ratio": obs_metrics.SHARE_HIT_RATIO.value,
        "p50": window.percentile(0.50),
        "p95": window.percentile(0.95),
        "p99": window.percentile(0.99),
        "samples": window.count,
    }


def _fmt_ms(seconds: float) -> str:
    if math.isnan(seconds):
        return "  n/a"
    return f"{seconds * 1e3:6.2f}ms"


def render_board(
    scheduler=None, breaker=None, width: int = 78, write_board=None
) -> str:
    """The scheduler board as plain text (one dashboard frame).

    ``scheduler`` is any object with a ``board()``/``stats()`` pair
    (``None`` renders the metrics-only view); ``breaker`` is an
    optional :class:`~repro.engine.governance.CircuitBreaker`;
    ``write_board`` is the per-table write-store snapshot from
    :meth:`repro.database.Database.write_board` (staged rows, delete
    vector population, budget, merge-in-progress flag).
    """
    from repro.obs import recorder as flight

    rule = "─" * width
    lines = [rule, "repro scheduler board".center(width), rule]

    stats = _window_stats()
    lines.append(
        f"window(60s): qps {stats['qps']:7.1f}  "
        f"p50 {_fmt_ms(stats['p50'])}  p95 {_fmt_ms(stats['p95'])}  "
        f"p99 {_fmt_ms(stats['p99'])}  ({stats['samples']} samples)"
    )
    lines.append(
        f"gauges: in-flight {stats['inflight']:.0f}   "
        f"share hit ratio {stats['hit_ratio']:.1%}"
    )

    if scheduler is not None:
        board = scheduler.board()
        totals = scheduler.stats()
        lines.append(
            f"workload: {totals['submitted']} submitted  "
            f"{board['completed']} completed  {board['failed']} failed  "
            f"{len(board['queued'])} queued  {len(board['running'])} running"
        )
        lines.append(rule)
        lines.append(f"running ({len(board['running'])}):")
        for entry in board["running"][:10]:
            lines.append(
                f"  {entry['label'][: width - 23]:<{width - 23}} "
                f"{entry['table']:<10} slices={entry['slices']}"
            )
        if not board["running"]:
            lines.append("  (idle)")
        lines.append(f"queued ({len(board['queued'])}):")
        for label in board["queued"][:8]:
            lines.append(f"  {label}")
        if len(board["queued"]) > 8:
            lines.append(f"  ... and {len(board['queued']) - 8} more")
        if not board["queued"]:
            lines.append("  (empty)")
        lines.append(f"shared streams ({len(board['streams'])}):")
        for stream in board["streams"]:
            riders = ", ".join(stream["riders"][:4])
            if len(stream["riders"]) > 4:
                riders += f", +{len(stream['riders']) - 4}"
            if stream["queued"]:
                riders += f" ({len(stream['queued'])} queued)"
            lines.append(
                f"  {stream['table']:<10} segment {stream['cursor']}/"
                f"{stream['segments']}  riders: {riders}"
            )
        if not board["streams"]:
            lines.append("  (none)")
        jobs = board.get("jobs", [])
        if jobs:
            lines.append(f"background jobs ({len(jobs)}):")
            for job in jobs[:6]:
                state = (
                    "FAILED"
                    if job["failed"]
                    else ("done" if job["done"] else "running")
                )
                lines.append(
                    f"  {job['label'][: width - 28]:<{width - 28}} "
                    f"steps={job['steps']:<4} {state}"
                )

    if write_board:
        lines.append(rule)
        lines.append(f"write stores ({len(write_board)}):")
        for name, state in write_board.items():
            budget = (
                f"{state['staged_bytes']}/{state['budget']}B"
                if state["budget"]
                else f"{state['staged_bytes']}B"
            )
            merging = "  MERGING" if state["merging"] else ""
            lines.append(
                f"  {name:<12} staged {state['staged']:>6} ({budget})  "
                f"deleted {state['deleted']:>6}/{state['base_rows']}"
                f"{merging}"[:width]
            )

    if breaker is not None:
        open_keys = breaker.open_keys()
        lines.append(f"breaker: {len(open_keys)} open")
        for key in open_keys[:5]:
            lines.append(f"  OPEN {key}")

    lines.append(rule)
    tail = flight.RECORDER.events()[-8:]
    lines.append(
        f"flight recorder ({len(flight.RECORDER)} events, "
        f"{len(flight.RECORDER.blackboxes)} black boxes):"
    )
    for event in tail:
        who = f" [{event.query}]" if event.query else ""
        detail = " ".join(f"{k}={v}" for k, v in event.detail.items())
        lines.append(f"  #{event.seq:<6} {event.kind:<24}{who} {detail}"[:width])
    lines.append(rule)
    return "\n".join(lines)


def render_html(scheduler=None, breaker=None, write_board=None) -> str:
    """A standalone HTML snapshot of the board (no external assets)."""
    body = _html.escape(render_board(scheduler, breaker, write_board=write_board))
    stats = _window_stats()
    qps = f"{stats['qps']:.1f}"
    p95 = "n/a" if math.isnan(stats["p95"]) else f"{stats['p95'] * 1e3:.2f} ms"
    return f"""<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro scheduler board</title>
<style>
  body {{ background: #101418; color: #d8dee9; font-family: ui-monospace,
         SFMono-Regular, Menlo, Consolas, monospace; margin: 2rem; }}
  .cards {{ display: flex; gap: 1rem; margin-bottom: 1rem; }}
  .card {{ background: #1b2128; border: 1px solid #2c3540; padding: .8rem
          1.2rem; border-radius: 6px; }}
  .card b {{ display: block; font-size: 1.4rem; color: #8fbcbb; }}
  pre {{ background: #161b21; border: 1px solid #2c3540; padding: 1rem;
        border-radius: 6px; overflow-x: auto; }}
</style>
</head>
<body>
<h1>repro scheduler board</h1>
<div class="cards">
  <div class="card"><b>{qps}</b>window qps</div>
  <div class="card"><b>{p95}</b>window p95 latency</div>
  <div class="card"><b>{stats["inflight"]:.0f}</b>in-flight</div>
  <div class="card"><b>{stats["hit_ratio"]:.0%}</b>share hit ratio</div>
</div>
<pre>{body}</pre>
</body>
</html>
"""


def _demo_scheduler(clients: int, rows: int):
    """A scheduler mid-workload for the animated demo."""
    from repro.data.tpch import generate_orders
    from repro.engine.predicate import predicate_for_selectivity
    from repro.engine.query import ScanQuery
    from repro.engine.scheduler import Scheduler
    from repro.storage.layout import Layout
    from repro.storage.loader import load_table

    data = generate_orders(rows, seed=23)
    table = load_table(data, Layout.COLUMN)
    scheduler = Scheduler(max_inflight=8, share_scans=True)
    for index in range(clients):
        selectivity = (0.1, 0.3, 0.6)[index % 3]
        predicate = predicate_for_selectivity(
            "O_TOTALPRICE", data.column("O_TOTALPRICE"), selectivity
        )
        scheduler.submit(
            table,
            ScanQuery(
                "ORDERS",
                select=("O_ORDERKEY", "O_TOTALPRICE"),
                predicates=(predicate,),
            ),
            label=f"demo client-{index}",
        )
    return scheduler


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Refreshing TUI over the scheduler's telemetry.",
    )
    parser.add_argument(
        "--clients", type=int, default=16, help="demo workload queries"
    )
    parser.add_argument(
        "--rows", type=int, default=20_000, help="demo table rows"
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=0,
        help="redraw every N scheduler rounds (0: only the final board)",
    )
    parser.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write a standalone HTML snapshot of the final board",
    )
    parser.add_argument(
        "--no-ansi",
        action="store_true",
        help="never emit ANSI clear codes (plain appended frames)",
    )
    args = parser.parse_args(argv)

    scheduler = _demo_scheduler(args.clients, args.rows)
    ansi = (not args.no_ansi) and sys.stdout.isatty()
    rounds = 0
    while scheduler.poll():
        rounds += 1
        if args.frames and rounds % args.frames == 0:
            if ansi:
                print("\x1b[2J\x1b[H", end="")
            print(render_board(scheduler))
    if ansi and args.frames:
        print("\x1b[2J\x1b[H", end="")
    print(render_board(scheduler))
    print(f"(demo finished in {rounds} scheduler rounds)")
    if args.html:
        path = pathlib.Path(args.html)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_html(scheduler), encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Mirror repro.obs.metrics: under ``python -m`` runpy would execute
    # this file as a second module instance with its own globals, while
    # the engine's hooks write to the canonical ``repro.obs.dashboard``.
    from repro.obs import dashboard as _canonical

    raise SystemExit(_canonical.main())
