#!/usr/bin/env bash
# CI gate: release build, full test suite, lint, and a perf snapshot so every
# PR leaves a comparable BENCH_exec.json trail.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> DML property sweep (write-path equivalence)"
cargo test -q --test dml_props

echo "==> 3-way executor equivalence sweep at 1, 2 and 4 system threads"
# QPE_AP_THREADS sets the system-level default the full bind->plan->execute
# pipeline uses; QPE_MORSEL_ROWS shrinks morsels so test-scale tables
# actually split. The sweep itself additionally runs the parallel executor
# at 2 and 4 threads explicitly.
for t in 1 2 4; do
    QPE_AP_THREADS="$t" QPE_MORSEL_ROWS=64 cargo test -q --test engine_equivalence
done

echo "==> parallel determinism repeat loop (fixed queries, fresh scheduling each run)"
for i in 1 2 3; do
    cargo test -q --test parallel_determinism
done

echo "==> prepared-statement equivalence sweep (prepared ≡ inlined, clean + dirty, 3 executors)"
# prepare+execute(params) must return byte-identical rows AND WorkCounters
# (blocks_pruned included) to the literal-inlined SQL, plus the concurrent
# multi-session smoke test over one shared Arc<HtapSystem>.
cargo test -q --test prepared_props

echo "==> MVCC snapshot gates (committed-prefix oracle, both read paths)"
# The proptest sweep pins a snapshot after every op of a random DML/compact
# tape and holds it to a lockstep oracle system that stopped at that epoch —
# rows AND WorkCounters, on all three executors. The threaded stress test is
# scheduling-sensitive, so it runs three times; reader threads pin snapshots
# while writers stream inserts and assert per-writer prefix consistency.
# Both settings of the read-path toggle must be observationally identical:
# QPE_MVCC_READS=1 executes analytical reads lock-free on a pinned snapshot,
# =0 executes them under the read guard. Same rows, same counters.
for mvcc in 0 1; do
    QPE_MVCC_READS="$mvcc" cargo test -q --test mvcc_props
    QPE_MVCC_READS="$mvcc" cargo test -q --test engine_equivalence
done
for i in 1 2 3; do
    cargo test -q --test mvcc_props concurrent_writers_and_snapshot_readers
done

echo "==> crash-injection sweep (WAL/segment/manifest/checkpoint fail points)"
# Bounded proptest sweep (48 cases fixed in-file): random DML/compact/
# checkpoint interleavings with a simulated kill at every durable-I/O site,
# then reopen and compare against the committed-prefix oracle. The suite
# also covers torn-tail truncation, recovery idempotence (double crash
# during replay), group-commit loss-lessness under concurrent clients, and
# the full open -> write -> crash -> recover -> verify cycle in a tempdir.
cargo test -q --test crash_recovery

echo "==> fault-tolerance sweep (transient retry, governance, panic containment, degraded mode)"
# Transient faults under the retry budget must be invisible (proptest sweep
# against a fault-free oracle); exhausted/persistent faults must degrade to
# read-only and resume cleanly; panics contain at the session boundary.
cargo test -q --test fault_tolerance

echo "==> governance gates (in-flight cancellation + deadline/budget trips, repeated)"
# Cancellation races a 4-thread parallel scan, so it repeats like the
# determinism loop; the timeout/budget trips are deterministic.
for i in 1 2 3; do
    cargo test -q --test fault_tolerance cancellation_interrupts_a_parallel_scan
done
cargo test -q --test fault_tolerance deadlines_trip_timeouts_without_side_effects
cargo test -q --test fault_tolerance memory_budgets_bound_result_materialization

echo "==> network front end (wire ≡ in-process byte-identity, typed errors, fuzz, pinning)"
# The wire path must be a transparent transport: the integration suite
# proves rows, WorkCounters and every typed error (governance trips
# included) round-trip byte-identically to an in-process Session; the fuzz
# suite feeds the framing layer garbage / truncated / bit-flipped streams
# (structured error or clean disconnect, never a panic, length capped
# before allocation); the pinning suite proves a pinned run equals the
# same engine's side of a dual run.
cargo test -q -p qpe_server
cargo test -q --test engine_pinning

echo "==> loadgen smoke (ephemeral-port server, 8 wire clients, all three traffic classes)"
# Gates: wire ≡ in-process equivalence before any load, prepared TP point
# lookups + dual-runs + AP scans + mixed DML all actually served, and zero
# protocol errors after the multi-client traffic.
cargo run --release -p qpe_bench --bin loadgen -- --smoke

echo "==> repo benchmark correctness gates (analytic: AP ≡ TP per statement class, zero failed ops)"
# The exit code is the gate: run.sh fails when a class disagrees across
# engines or any operation fails. Three seconds, untraced — the timings it
# prints are ignored here (a perf PR compares them with benchmark/compare.sh).
bash benchmark/run.sh --workload analytic --seconds 3 --trace 0

echo "==> dirty-table executor comparison (encoded base + delta + tombstones)"
# --dirty applies uncompacted INSERT/DELETEs first, so the scalar-vs-batch
# agreement check runs over dictionary-encoded base blocks read through
# chunked views with live delta rows and tombstones — the encoded-path
# equivalence a clean-table comparison would never exercise.
cargo run --release -p qpe_bench --bin bench_snapshot -- --compare scalar,batch --dirty

echo "==> forced-encoding executor gates (pinned dict/rle/for bases, dirty, scalar vs batch)"
# Each run re-encodes the compared tables' bases under one pinned policy and
# asserts scalar ≡ batch on rows AND WorkCounters before timing — the
# compressed-execution kernels must be result-invariant, not just fast.
for enc in dict rle for; do
    cargo run --release -p qpe_bench --bin bench_snapshot -- --compare scalar,batch --dirty --encoding "$enc"
done
cargo run --release -p qpe_bench --bin bench_snapshot -- --compare batch,par4 --encoding for

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> bench snapshot (BENCH_exec.json; includes prepared-vs-unprepared QPS, plan-cache hit rate, the durability cases: wal_commit_qps group-commit vs per-statement, recovery_time_100k_rows, background_compact_p99_write_stall, and the MVCC mixed-workload reader p99 with/without a concurrent durable writer)"
cargo run --release -p qpe_bench --bin bench_snapshot

echo "==> server loadgen record (server_point_lookup_qps, server_mixed_qps, reader p99 under DML)"
# Runs after the snapshot: both recorders merge-preserve BENCH_exec.json,
# and the wire numbers should overlay the same run's in-process baseline.
cargo run --release -p qpe_bench --bin loadgen -- --record

echo "CI OK"
