# Convenience targets.  `pip install -e .` needs the `wheel` package for
# PEP 660 editable builds; in offline environments without it, the
# legacy `setup.py develop` path below installs identically.

.PHONY: install test bench fuzz write-fuzz crash-matrix chaos chaos-deep scrub experiments experiments-md metrics overhead-gate obs-test parallel-bench workload-bench scheduler-test scan-test scan-golden dashboard regression-check all

install:
	pip install -e . 2>/dev/null || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Differential fuzzing: 2,000 seeded cases through every layout x codec
# configuration vs the pure-Python oracle.  Replay one failure with
# `python -m repro.testing --seed N`.
fuzz:
	python -m repro.testing --cases 2000

# Hybrid read/write differential battery: every fuzz case carries an
# interleaved insert/delete/merge op sequence and is checked through the
# delta overlay, the scheduler, and a rebuilt table vs the write oracle.
# Replay one failure with `python -m repro.testing --seed N --writes`.
write-fuzz:
	python -m repro.testing --cases 2000 --writes

# Crash-safe merge matrix: kill the merge at every declared fault point
# and require reopen to see exactly old-or-new with a clean scrub — plus
# the write-path suite, the merge_into tests (all four merge doors, and
# the staged columns built once per write) and the delete-vector
# properties (set_many against the set() loop, all-or-none), so a
# change to storage/{write_store,delete_vector}.py is gated in one place.
crash-matrix:
	pytest tests/test_merge_crash_matrix.py tests/test_write_path.py \
		tests/test_storage_tables.py::TestWriteStore \
		tests/test_storage_integrity.py::TestVerificationHooks \
		tests/test_property_codecs.py -q

# Chaos harness smoke: 200 seeded lifecycle faults (worker kills/stalls,
# slow decodes, allocation spikes, tight deadlines, mid-scan cancels) vs
# the governance contract — correct result XOR typed error, within
# deadline x slack.  Replay one violation with
# `python -m repro.testing.chaos --seed N`.
chaos:
	python -m repro.testing.chaos --cases 200 --blackbox-dir chaos-artifacts

# The deep 2,000-case chaos sweep (also: pytest --run-chaos).
chaos-deep:
	python -m repro.testing.chaos --cases 2000

# Integrity self-test: inject seeded faults into a scratch table and
# require the scrubber to pinpoint every one.
scrub:
	python -m repro.storage.scrub --self-test

experiments:
	python -m repro.experiments

experiments-md:
	python benchmarks/generate_experiments_md.py

# Run a small demo workload and print its Prometheus text exposition.
metrics:
	python -m repro.obs.metrics

# CI gate: the tracing no-op path must stay within 5% of the raw engine.
overhead-gate:
	python benchmarks/check_tracing_overhead.py --out obs-artifacts

# The telemetry battery: the recorder / metrics / slow-log / dashboard /
# trace suites, per-query attribution under the scheduler, the
# one-emission invariant (every bound series == its events in the ring;
# nothing outside obs/ mutates a bound series; DESIGN §13's generated
# kind -> series table) and the repo hygiene pins, then the four paired
# overhead gates.
# Run it on any change under obs/, or to a `flight.record(` /
# `flight.blackbox(` site anywhere (engine/{scheduler,sharing,governance,
# parallel,executor}.py, storage/{retry,write_store}.py, table_entry.py,
# database.py, testing/chaos.py).
obs-test:
	pytest tests/test_obs_*.py tests/test_scheduler_telemetry.py \
		tests/test_repo_hygiene.py -q
	python benchmarks/check_tracing_overhead.py --out obs-artifacts

# Parallel-scan speedup artifact: serial vs 2/4 workers on the fig06
# baseline workload, plus a hard byte-identity gate against serial.
parallel-bench:
	python benchmarks/bench_parallel_scan.py --out parallel-artifacts

all: install test bench

# Concurrent-workload throughput artifact: 1/4/16/64 clients through the
# cooperative scheduler, shared scans on vs off, with hard byte-identity
# and modeled-I/O-reduction gates.
workload-bench:
	python benchmarks/bench_workload_throughput.py --out workload-artifacts

# The scheduler test battery: equivalence vs serial, scan-sharing
# properties (among them: the run a pump delivers is not observable —
# runs of 1, 3, a window and more leave the bytes, events, ticks,
# faults and cursor of the segment-at-a-time stream, pinned at the
# parent of PR 24), every exit of a window-long pump (an abort at each
# checkpoint, a corrupt page at the first, a middle and the last
# segment), chaos under concurrency, the parallel worker fleet, and
# every result shape on every executor through the one plan builder.
# Run it on any change to engine/scheduler.py or engine/sharing.py:
# what a timeslice pumps may move poll() rounds, never an event.
scheduler-test:
	pytest tests/test_scheduler_equivalence.py tests/test_scan_sharing.py \
		tests/test_scan_units.py::TestSharedRunExits \
		tests/test_scan_units.py::TestSharedGovernance \
		tests/test_scheduler_chaos.py tests/test_scheduler_telemetry.py \
		tests/test_parallel_equivalence.py \
		tests/test_parallel_dispatch.py tests/test_query_request.py -q

# The scan battery: every scan strategy against the golden pin
# (CostEvents, output bytes, logical blocks, corruption, governance
# ticks), the unit-vs-page properties and differentials (scanners,
# shared streams — by unit against by page, and by run against by
# segment: tests/test_scan_sharing.py's run-length property and
# tests/test_scan_units.py's TestSharedRunExits — and every operator
# above a scan: tests/test_batches.py, with its every-checkpoint aborts
# and block-iterator pins), the scanner
# / salvage / sharing / scheduler / telemetry / property / extension /
# index suites, then 200 differential fuzz cases.
# Run it on any change under engine/operators/, engine/blocks.py,
# engine/governance.py (GovernedAccumulator), engine/sharing.py,
# engine/scheduler.py (test_scheduler_telemetry.py pins that a shared
# pass reads a page once and times every page it decodes),
# index/scan.py, storage/{table,page,rowz,pagefile}.py, compression/ or
# cpusim/cache.py (the cache-line model the column scans charge through;
# its union1d reference lives in tests/test_cpusim.py).
scan-test:
	pytest tests/test_scan_golden.py tests/test_scan_units.py \
		tests/test_batches.py tests/test_engine_blocks.py \
		tests/test_engine_scanners.py tests/test_cpusim.py \
		tests/test_salvage_differential.py tests/test_scan_sharing.py \
		tests/test_scheduler_equivalence.py tests/test_scheduler_telemetry.py \
		tests/test_property_engine.py tests/test_extensions.py \
		tests/test_index.py -q
	python -m repro.testing --cases 200

# Rewrite tests/data/scan_golden.json from the current tree.  Never
# automatic: a scan refactor must reproduce the pin unchanged; run this
# only when moving an event, a byte or a block is the point of the change.
scan-golden:
	python tests/scan_golden.py

# Live scheduler board: a demo concurrent workload redrawn as it runs.
# `python -m repro.obs.dashboard --html board.html` for a snapshot page.
dashboard:
	python -m repro.obs.dashboard --frames 1

# Regression sentinel: run the benchmark spine once and compare it,
# workload by workload, against the committed ten-run baseline (exit 1
# when any end-to-end metric is worse beyond its BENCHMARK.json bound
# and the baseline's own spread).
regression-check:
	python3 benchmarks/spine/run.py --seed 1
	python3 benchmarks/spine/compare.py benchmarks/spine/baselines/seed.json \
		-- .spine_out/result-all-trace0.json
