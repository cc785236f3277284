# Convenience targets.  `pip install -e .` needs the `wheel` package for
# PEP 660 editable builds; in offline environments without it, the
# legacy `setup.py develop` path below installs identically.

.PHONY: install test fuzz write-fuzz crash-matrix chaos chaos-deep scrub experiments experiments-md metrics overhead-gate obs-test parallel-test parallel-bench workload-bench scheduler-test scan-test scan-golden dashboard regression-check all

install:
	pip install -e . 2>/dev/null || python setup.py develop

test:
	pytest tests/

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
# the write-path suite (a mistyped batch refused whole, an overlay kept
# whatever lands after it), the merge_into tests (all four merge doors,
# and the staged columns made once per insert) and the delete-vector
# properties (set_many against the set() loop, all-or-none, snapshots
# that stay put), so a change to storage/{write_store,delete_vector}.py
# or engine/hybrid.py is gated in one place.  CI's write-path job runs it.
crash-matrix:
	pytest tests/test_merge_crash_matrix.py tests/test_write_path.py \
		tests/test_storage_tables.py::TestWriteStore \
		tests/test_storage_integrity.py::TestVerificationHooks \
		tests/test_property_codecs.py -q

# Chaos harness smoke: 200 seeded lifecycle faults (partition crashes and
# stalls, slow decodes, allocation spikes, tight deadlines, mid-scan cancels) vs
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
# kind -> series table), the parallel salvage cases (a salvaged page
# counts once per query on every executor) and the repo hygiene pins,
# then the four paired overhead gates.
# Run it on any change under obs/, or to a `flight.record(` /
# `flight.blackbox(` site anywhere (engine/{scheduler,sharing,governance,
# parallel,executor}.py, engine/operators/scan_core.py,
# storage/{retry,write_store}.py, table_entry.py, database.py,
# testing/chaos.py).
obs-test:
	pytest tests/test_obs_*.py tests/test_scheduler_telemetry.py \
		tests/test_repo_hygiene.py -q
	pytest tests/test_parallel_faults.py -k salvage -q
	python benchmarks/check_tracing_overhead.py --out obs-artifacts

# The parallel battery: byte-identity with serial (results and merged
# CostEvents), dispatch over the partition pool (a cancel landing
# mid-scan, shutdown), faults (salvage reports equal to serial, crash
# retries, what partitions on pool threads share, from two caller
# threads at once), governance (deadlines, cancels, the supervision
# ladder, Ctrl-C) and every result shape through the one build_plan.
# AVG's partials aggregate one scan (and sort) of each partition
# (tests/test_parallel_equivalence.py::TestAggregates::
# test_avg_scans_each_partition_once).
# Run it on any change to engine/parallel.py or engine/governance.py.
parallel-test:
	pytest tests/test_parallel_equivalence.py tests/test_parallel_dispatch.py \
		tests/test_parallel_faults.py tests/test_governance.py \
		tests/test_query_request.py -q

# Parallel grid artifact: serial vs workers=2 on ROW, COLUMN and PAX
# LINEITEM (a scan at 10 % and 50 %, a SUM at 50 %; --rows, default 1M),
# plus a hard byte-identity gate against serial and the speed-up gate
# (Figure 6 COLUMN scan at 10 % on 4 workers >= 1.5x serial, enforced on
# 4+ cores; REPRO_PARALLEL_SPEEDUP overrides the threshold).
parallel-bench:
	python benchmarks/bench_parallel_scan.py --out parallel-artifacts

all: install test

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
# segment), queued riders (a query that boards a live stream while it
# waits for admission: results, events and corruption pinned at
# b530eec, before queued queries boarded, in tests/test_scan_sharing.py, one stream per column
# set per batch, a boarding pass that looks up only what changed; every
# exit of a queued rider — timeout, cancel, a killed pumping peer, a
# strict stream failure — in tests/test_scheduler_chaos.py::
# TestQueuedRiders; stream and window freed by reference count in
# tests/test_scheduler_equivalence.py), chaos under concurrency, the
# parallel partition pool, every result shape on every executor through
# the one build_plan, and the scheduler's one read path (an ast pin in
# tests/test_query_request.py: every scheduled plan comes from
# ScanShareManager.acquire; sharing off only means no second rider),
# riders filtered together per (attribute, comparison) against
# every rider filtering alone, pinned at 7573dad (tests/test_scan_sharing.py::
# test_filtering_riders_together_is_not_observable), a stream's window
# size — one, two and 48 I/O units — not observable by a solo rider or
# two riders attached mid-pass, strict and salvage, on ROW, PAX and
# COLUMN (the stream cases of tests/test_scan_units.py::
# test_the_window_size_is_not_observable), the one-emission battery
# (tests/test_obs_one_emission.py), which drives a scheduled stream
# mid-pass, and a rider's page integrity (the rider cases of
# tests/test_scan_units.py's TestCorruptedAfterVerified and
# test_a_page_short_of_its_span_is_refused_by_name: a page flipped after
# it was verified, a short page and a misplaced one, on ROW, PAX and
# COLUMN).
# A row or PAX rider reads the stream's checked pages through the serial
# read step: three riders over a page corrupted mid-window, strict and
# salvage on ROW, ROW-Z and PAX, each rider's output, events, ticks,
# pages scanned and faults and the stream's I/O pinned at 3efecc8
# (tests/test_scan_sharing.py::
# test_a_corrupt_page_mid_window_reaches_each_rider_as_before), and a
# query that arrives mid-pass reading what its peer does not rides the
# live stream (test_a_query_reading_more_rides_the_live_stream,
# test_a_queued_query_boards_the_live_stream_whatever_it_reads); a
# strict rider keeps its first error and reads no later delivery
# (test_a_failed_rider_keeps_its_first_error_and_reads_no_more).
# Run it on any change to engine/scheduler.py or engine/sharing.py:
# what a timeslice pumps, or who rides while queued, may move poll()
# rounds, stream counts and stream I/O, never a query's event.
scheduler-test:
	pytest tests/test_scheduler_equivalence.py tests/test_scan_sharing.py \
		tests/test_scan_units.py::TestSharedRunExits \
		tests/test_scan_units.py::TestSharedGovernance \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-row-strict]" \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-row-salvage]" \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-pax-strict]" \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-pax-salvage]" \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-column-strict]" \
		"tests/test_scan_units.py::test_the_window_size_is_not_observable[stream-column-salvage]" \
		tests/test_scheduler_chaos.py tests/test_scheduler_telemetry.py \
		tests/test_obs_one_emission.py \
		tests/test_parallel_equivalence.py \
		tests/test_parallel_dispatch.py tests/test_query_request.py -q
	pytest tests/test_scan_units.py::TestCorruptedAfterVerified \
		tests/test_scan_units.py::test_a_page_short_of_its_span_is_refused_by_name -k rider -q

# The scan battery: every scan strategy against the golden pin
# (CostEvents, output bytes, logical blocks, corruption, governance
# ticks), the unit-vs-page properties and differentials (scanners,
# shared streams — by unit against by page, and by run against by
# segment: tests/test_scan_sharing.py's run-length property and
# tests/test_scan_units.py's TestSharedRunExits; riders filtered together
# against riders filtering alone: the same file's
# test_filtering_riders_together_is_not_observable — and every operator
# above a scan: tests/test_batches.py, with its every-checkpoint aborts
# and block-iterator pins), the scanner
# / salvage / sharing / scheduler / telemetry / property / extension /
# index suites, the page-integrity suites (CRC checked once per load,
# strict and salvage over corrupt pages, fault injection), the loads'
# unit encoder against CRCs of the page-at-a-time one for every page
# codec (tests/test_page_encode.py), the page codecs' strides,
# capacities and round trips (tests/test_storage_{page,tables}.py), the
# codec suites (bit packing, dictionary, frame-of-reference, their
# properties), the wanted-codes gather against a full decode then a
# take (tests/test_column_gather.py, on either side of the one gather
# share; every page codec's slot gather, the scans at every survivor
# share and a bad code no survivor projects: tests/test_slot_gather.py),
# the column nodes' per-table constants and the deterministic call gauge
# of a selective wide and a one-page COLUMN query
# (tests/test_column_nodes.py), the row scanner's decode
# accounting (tests/test_scanner_decode_accounting.py), the seeded
# fault-injection sweep (tests/test_integrity_stress.py) and the
# governance suite (tests/test_governance.py), then 200 differential
# fuzz cases.
# Run it on any change under engine/operators/, engine/blocks.py,
# engine/governance.py (GovernedAccumulator), engine/sharing.py,
# engine/scheduler.py (test_scheduler_telemetry.py pins that a shared
# pass reads a page once and times every page it decodes),
# index/scan.py, storage/{table,page,rowz,pax,pagefile,loader}.py,
# compression/ or cpusim/cache.py (`access_lines`, the cache-line model a
# column scan charges through once per query, over every line access its
# nodes made; tests/test_cpusim.py holds it to each access alone and to
# the union1d page-by-page reference).
scan-test:
	pytest tests/test_scan_golden.py tests/test_scan_units.py \
		tests/test_batches.py tests/test_engine_blocks.py \
		tests/test_engine_scanners.py tests/test_cpusim.py \
		tests/test_salvage_differential.py tests/test_scan_sharing.py \
		tests/test_scheduler_equivalence.py tests/test_scheduler_telemetry.py \
		tests/test_property_engine.py tests/test_extensions.py \
		tests/test_index.py tests/test_storage_integrity.py \
		tests/test_storage_pax.py tests/test_failure_injection.py \
		tests/test_page_encode.py tests/test_storage_page.py \
		tests/test_storage_tables.py tests/test_compression_bitpack.py \
		tests/test_compression_dictionary.py tests/test_compression_frame.py \
		tests/test_property_codecs.py tests/test_column_gather.py \
		tests/test_slot_gather.py tests/test_column_nodes.py \
		tests/test_scanner_decode_accounting.py tests/test_integrity_stress.py \
		tests/test_governance.py -q
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
