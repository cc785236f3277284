"""Benchmark spine: one command, every metric by name.

    python3 benchmarks/spine/run.py --workload row_z --seed 7 --seconds 10 --trace 0

generates every input from ``--seed``, drives the system only through
its public functions (``adapter.py``), checks every result against a
numpy oracle, prints each metric with its unit and sample count, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
layer pass as well and reports the per-layer ones (and writes
``trace.json`` under ``--out``).  Without ``--workload`` all six run one
after another, each in its own process.  Exit status is non-zero when
any result disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(workload["name"] for workload in SPEC["workloads"])
#: Share of ``--seconds`` a traced run spends on untraced passes (they
#: anchor the trace overhead, the pass spread and the exact counts).
TRACED_RUN_PASS_SHARE = 0.4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="table-size factor")
    parser.add_argument(
        "--out", default=".spine_out", help="directory for trace.json and result files"
    )
    return parser.parse_args(argv)


def _finite(value):
    return value if value is None or math.isfinite(value) else None


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process."""
    source = HERE.parents[1] / "src"
    if not (source / "repro").is_dir():
        print(f"no system to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    # Byte-compile before timing anything, so a fresh checkout's first
    # import costs what every later one does.
    compileall.compile_dir(str(source), quiet=2)
    import layers
    import measure
    from yardstick import Yardstick

    yard = Yardstick()
    out_dir = pathlib.Path(args.out) / args.workload
    seconds = args.seconds * (TRACED_RUN_PASS_SHARE if args.trace else 1.0)
    m = measure.measure(
        args.workload,
        args.seed,
        seconds,
        scale=args.scale,
        min_passes=2 if args.trace else measure.MIN_PASSES,
        yard=yard,
    )
    if not args.trace:
        m.import_seconds = measure.import_seconds(yard)
    samples = len(m.workload.ops)
    print(
        f"workload {args.workload} seed {args.seed} oplist {m.oplist_hash} "
        f"ops {samples} units {len(m.workload.units)} passes {len(m.passes)}"
    )
    slowdowns = sorted(slowdown for _, slowdown in yard.samples)
    print(
        f"yardstick: machine slowdown median {slowdowns[len(slowdowns) // 2]:.3f} "
        f"(min {slowdowns[0]:.3f}, max {slowdowns[-1]:.3f}) over {len(slowdowns)} "
        "samples; times below are at slowdown 1"
    )
    reasons: dict = {}
    if args.trace:
        values, reasons = layers.layer_pass(m, out_dir)
        units = layers.PER_LAYER
    else:
        values = measure.end_to_end(m)
        units = measure.END_TO_END
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  ({reasons[name]})" if name in reasons else ""
        print(f"{name:<52s} {shown:>12s} {units[name]:<8s} samples={samples}{note}")
    for error in m.errors[:20]:
        print(f"FAILED {error}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            # The contract wants a number for every metric: a probe with
            # no target (null above and in trace.json) reads 0 here.
            name: {"value": _finite(value) or 0.0, "unit": units[name]}
            for name, value in values.items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, **result}) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one process each, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name]
        for flag in ("seed", "seconds", "trace", "scale", "out"):
            command += [f"--{flag}", str(getattr(args, flag))]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    line = json.dumps(merged)
    (pathlib.Path(args.out) / f"result-all-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
