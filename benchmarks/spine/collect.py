"""Repeat the benchmark over several seeds and summarize the run-to-run spread.

    python3 benchmarks/spine/collect.py --runs 10 --out benchmarks/spine/baselines/seed.json

Each run is ``run.py`` on all six workloads with its own seed.  The file
written holds every run, a provenance stamp, the core count and load
average, and per workload x end-to-end metric the median, quartiles and
spread (interquartile distance over the median) — the numbers the
bounds in ``BENCHMARK.json`` are justified by.  ``compare.py`` reads the
same file as a set of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

import stats

HERE = pathlib.Path(__file__).resolve().parent


def summarize(runs: list[dict]) -> dict:
    """``{metric: {median, q1, q3, spread, values}}`` over a set of runs."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        if len(values) < 2:
            summary[name] = {"median": values[0], "values": values}
            continue
        q1, median, q3 = stats.quartiles(values)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": stats.spread(values),
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="file to write")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import adapter

    runs = []
    load_before = os.getloadavg()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--seed",
                str(seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            return proc.returncode
        run = json.loads(proc.stdout.splitlines()[-1])
        run["seed"] = seed
        runs.append(run)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']}")
    summary = summarize(runs)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "provenance": adapter.provenance(),
                "nproc": os.cpu_count(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
                "seconds": args.seconds,
                "trace": args.trace,
                "summary": summary,
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    for name, row in summary.items():
        if "spread" in row:
            print(f"{name:<44s} median {row['median']:12.6g}  spread {row['spread']:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
