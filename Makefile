.PHONY: test test-async test-faults test-mvcc test-obs test-columnar test-parallel bench bench-suite bench-smoke bench-e2e bench-e2e-smoke ci

# Tier-1 verification: the full unit + benchmark test suite.
test:
	python -m pytest -x -q

# The async / pipelined client-path suites on their own (fast feedback).
test-async:
	python -m pytest tests/test_aio.py tests/test_pipeline.py \
		tests/test_param_slots.py tests/test_driver_agreement.py -q

# The robustness suites (WAL/recovery, transactions, fault injection) with a
# widened seed sweep: FAULT_SEEDS adds extra seeds to every seed-parametrized
# fault test.
test-faults:
	FAULT_SEEDS="21 42 99 1234" python -m pytest tests/test_faults.py \
		tests/test_wal.py tests/test_transactions.py -q

# The concurrency suites (MVCC snapshot isolation, admission control, the
# open-loop load generator) under the same widened seed sweep: FAULT_SEEDS
# feeds the serial-equivalence and loadgen seed-parametrized tests.
test-mvcc:
	FAULT_SEEDS="21 42 99 1234" python -m pytest tests/test_mvcc.py \
		tests/test_admission.py -q

# The observability suites: tracing/metrics units, EXPLAIN (ANALYZE), and
# the span-accounting property tests (every trace partitions its charged
# virtual latency across tiers, sharding, and sync/async clients).
test-obs:
	python -m pytest tests/test_obs.py tests/test_explain.py \
		tests/test_obs_property.py -q

# The columnar-storage and codegen suites: layout-fact units (plain-list
# columns with (kind, nullable) facts, unsharded, per shard and unpacked
# from a process-pool payload), layout x codegen x tier equivalence sweeps
# (sharded and unsharded), the zero-codegen_unsupported property gate, the
# maintained-views property (columns and facts patched through any write
# history == freshly built ones, plus tier and MVCC-snapshot row equality
# around each write), and the vectorized-tier units.
test-columnar:
	python -m pytest tests/test_typed_columns.py tests/test_vectorized.py -q

# The parallel scatter-gather suites: worker-pool units, packed-payload
# round-trips, the parallel ≡ serial scatter ≡ unsharded equivalence sweep
# across all three tiers in thread and process pool modes (fallback plans
# and mid-scatter errors included), sort ties at the gather, aggregates
# staying off the pool, counter accounting, and the parallel trace
# breakdown.
test-parallel:
	python -m pytest tests/test_parallel.py -q

# Engine performance benchmarks; writes BENCH_engine.json in the repo root
# and appends the same report as one line to the tracked BENCH_engine.jsonl.
bench:
	python benchmarks/bench_engine.py

# The paper-figure benchmark suite (pytest-benchmark timings + tables).
bench-suite:
	python -m pytest benchmarks/ -q

# The repository's end-to-end benchmark (BENCHMARK.json): the paper's
# programs and the analytic SQL statements through Engine, ~2 min; records
# land in benchmarks/e2e/out/ and one line per workload is appended to the
# tracked trajectory BENCH_e2e.jsonl.  `--trace 1` adds the per-layer run.
bench-e2e:
	python3 benchmarks/e2e/run.py
	python3 benchmarks/record_e2e.py

# The same workloads at smoke scale (seconds): checks every workload's
# outputs against its reference, not its timing.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --scale smoke

# Scaled-down benchmark run used by CI (covers every bench entry, including
# the vectorized-tier ones — scan_filter_vectorized, hash_join_wide_vectorized,
# aggregate_vectorized — the sharded ones — sharded_point_lookup,
# sharded_scan_filter, sharded_aggregate — and the robustness ones —
# wal_overhead (recovery equivalence asserted, group-commit delta included)
# and fault_retry_convergence (faulty ≡ fault-free row equality asserted) —
# and the concurrency ones — mvcc_reader_writer (snapshot consistency and
# the reader-latency bound asserted) and admission_open_loop (queueing knee
# asserted) — and the observability one — tracing_overhead (traced run
# within 5% of untraced asserted) — and the write-path one —
# write_then_read (reads after a point UPDATE row-identical to an
# interpreted-tier copy, no view re-encoded, each UPDATE on its expected
# access path) — and the codegen ones —
# scan_filter_codegen, aggregate_codegen, sort_limit_codegen (the fused
# top-k), join_filter_codegen (the fused filtered join on 20-column rows),
# join_filter_narrow (7-column rows, which must stay on the kernels),
# string_filter_codegen (row equality
# across codegen/kernel/interpreted asserted, and the run fails if any
# benchmark plan hits a codegen_unsupported fallback); does not overwrite
# BENCH_engine.json or append to BENCH_engine.jsonl.
bench-smoke:
	BENCH_ENGINE_ROWS=2000 BENCH_ENGINE_OUT=/tmp/BENCH_engine_smoke.json \
		python benchmarks/bench_engine.py > /dev/null
	@echo "bench smoke ok (wrote /tmp/BENCH_engine_smoke.json)"

# What CI's test job runs: the full test suite once (it already includes
# the async/pipeline, observability, columnar/codegen and parallel-scatter
# files — the per-area targets above are for fast local feedback), the
# fault and concurrency suites again across extra seeds, and a benchmark
# smoke run.  The workflow's `workers` leg adds test-parallel and the smoke
# run under real thread and process pools.
ci: test test-faults test-mvcc bench-smoke
