"""CLI for the differential fuzzer.

Usage::

    python -m repro.testing --cases 2000        # fuzz a seed range
    python -m repro.testing --seed 1234         # replay one failing case
    python -m repro.testing --seed 1234 --show  # print the case, don't run

Exit status is non-zero when any case fails, so ``make fuzz`` and CI can
gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.testing.genquery import generate_case
from repro.testing.chaos import dump_blackboxes
from repro.testing.harness import SuiteReport, minimize_case, run_case, run_suite


def _replay(seed: int, show_only: bool, writes: bool = False) -> int:
    case = generate_case(seed, force_writes=writes)
    print(case.describe())
    if show_only:
        return 0
    outcome = run_case(case)
    if outcome.ok:
        print(f"seed {seed}: OK ({outcome.checks} checks)")
        return 0
    for failure in outcome.failures:
        print(f"seed {seed}: {failure}")
    minimized = minimize_case(case)
    if minimized.shrink_steps:
        print("minimized case:")
        print("  " + minimized.describe().replace("\n", "\n  "))
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Differential fuzzer: engine vs pure-Python oracle.",
    )
    parser.add_argument("--cases", type=int, default=2000, help="seeds to fuzz")
    parser.add_argument("--start-seed", type=int, default=0, help="first seed")
    parser.add_argument("--seed", type=int, default=None, help="replay one seed")
    parser.add_argument(
        "--show", action="store_true", help="with --seed: print the case and exit"
    )
    parser.add_argument(
        "--no-metamorphic", action="store_true", help="oracle diffs only"
    )
    parser.add_argument(
        "--writes",
        action="store_true",
        help="force an interleaved insert/delete/merge op sequence onto "
        "every case (hybrid read/write differential battery)",
    )
    parser.add_argument(
        "--failures-json",
        metavar="PATH",
        default=None,
        help="write failing seeds (with repro commands and minimized cases) "
        "as JSON; written even when empty, so CI can always upload it",
    )
    parser.add_argument(
        "--blackbox-dir",
        metavar="DIR",
        default=None,
        help="after the run, dump every flight-recorder black box "
        "(captured e.g. by aborted merges) into DIR as JSON",
    )
    args = parser.parse_args(argv)

    if args.seed is not None:
        return _replay(args.seed, args.show, writes=args.writes)

    started = time.perf_counter()
    last_tick = [0.0]

    def progress(done: int, report: SuiteReport) -> None:
        now = time.perf_counter()
        if now - last_tick[0] >= 5.0 or done == args.cases:
            last_tick[0] = now
            print(
                f"  {done}/{args.cases} cases, {report.checks} checks, "
                f"{len(report.failures)} failure(s), {now - started:.1f}s",
                file=sys.stderr,
            )

    report = run_suite(
        args.cases,
        start_seed=args.start_seed,
        metamorphic=not args.no_metamorphic,
        progress=progress,
        force_writes=args.writes,
    )
    print(report.format())
    if args.failures_json is not None:
        import json
        import pathlib

        path = pathlib.Path(args.failures_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "cases": args.cases,
                    "start_seed": args.start_seed,
                    "ok": report.ok,
                    "failures": [
                        {
                            "seed": seed,
                            "message": message,
                            "minimized": minimized,
                            "repro": "python -m repro.testing --seed "
                            f"{seed}{' --writes' if args.writes else ''}",
                        }
                        for seed, message, minimized in report.failures
                    ],
                },
                indent=2,
                default=str,
            )
            + "\n",
            encoding="utf-8",
        )
    dump_blackboxes(args.blackbox_dir, file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
