#!/usr/bin/env bash
# CI gate: release build, full test suite, equivalence/fault sweeps, lint,
# rustdoc, and the repo benchmark's correctness gates. Leaves the tracked tree
# untouched, and fails at the end if the tree moved while it ran.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every path git reports (tracked changes and unignored new files), plus a
# hash of the tracked diff so a rewrite of an already-edited file shows too.
tree_state() {
    git status --porcelain
    git diff HEAD | git hash-object --stdin
}
state_before=$(tree_state)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> DML property sweep (write-path equivalence)"
cargo test -q --test dml_props

echo "==> row interpreter vs batch at threads 1/2/4, at 1, 2 and 4 system threads"
# QPE_AP_THREADS sets the system-level default the full bind->plan->execute
# pipeline uses; QPE_MORSEL_ROWS shrinks morsels so test-scale tables
# actually split. The sweep itself additionally runs the parallel executor
# at 2 and 4 threads explicitly.
for t in 1 2 4; do
    QPE_AP_THREADS="$t" QPE_MORSEL_ROWS=64 cargo test -q --test engine_equivalence
done

echo "==> ORDER BY tie sweep (4 000 generator top-N queries through the dual run, release)"
# Rows with equal ORDER BY keys keep input order on both engines, so a
# LIMIT/OFFSET that cuts through a run of ties keeps the same rows on both
# and no query may end in EngineMismatch. Ignored in the debug suite for its
# length (about 40 s in release).
cargo test -q --release --test engine_equivalence top_n_tie_sweep -- --ignored

echo "==> parallel determinism repeat loop (fixed queries, fresh scheduling each run)"
for i in 1 2 3; do
    cargo test -q --test parallel_determinism
done

echo "==> morsel pool repeat loop (task panics, concurrent and nested callers)"
# The pool's tests race callers and workers against each other, so they
# repeat with fresh scheduling like the determinism loop.
for i in 1 2 3; do
    cargo test -q -p qpe_htap --lib exec::parallel::tests::pool_
done

echo "==> prepared-statement equivalence sweep (prepared ≡ inlined, clean + dirty, 3 executors)"
# prepare+execute(params) must return byte-identical rows AND WorkCounters
# (blocks_pruned included) to the literal-inlined SQL, plus the concurrent
# multi-session smoke test over one shared Arc<HtapSystem>.
cargo test -q --test prepared_props

echo "==> MVCC snapshot stress (writers streaming inserts under snapshot readers, repeated)"
# The committed-prefix proptest sweep already ran with the workspace tests.
# The threaded stress test is scheduling-sensitive, so it runs three times;
# reader threads pin snapshots while writers stream inserts and assert
# per-writer prefix consistency.
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
# The disk formats themselves: golden segment and WAL bytes captured from an
# earlier build decode and re-encode byte for byte, and truncated,
# bit-flipped or spliced copies (CRC recomputed) read back or fail as
# Corrupt, never panic.
cargo test -q --test disk_golden
cargo test -q --test disk_fuzz

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

echo "==> repo benchmark correctness gates (analytic: AP ≡ TP per statement class; serve_mixed: wire ≡ in-process, reopen keeps every acked write; explain: TP ≡ AP on every generated query; explain_retrieval: every KB write lands; serve_point: wire ≡ in-process for TP-pinned point reads; zero failed ops)"
# The exit code is the gate: run.sh fails when a class disagrees across
# engines, a wire answer differs from the in-process oracle, the reopened
# store lost an acknowledged insert, or any operation fails. serve_mixed
# runs its AP joins over a dirty (base + delta) table beside a live writer.
# In benchmark/src/workloads/serve.rs, `equivalence_gate` checks that
# Dual/TP/AP wire results equal in-process results before any load, and
# the run counts the server's protocol errors, rejections and degraded
# mode as failed ops. Multi-client wire identity stays in qpe_server's
# server_integration suite above. explain runs every generated filter,
# top-N and group-by query on both engines and fails an operation on any
# TP/AP disagreement. explain_retrieval searches, prompts and grades while
# expert corrections grow the KB, and fails unless the KB ends at its 20
# seed entries plus one per write. serve_point checks wire ≡ in-process for
# the point lookup (dual, TP- and AP-pinned) before two connections of
# TP-pinned prepared lookups — the row store's IndexScan path — and counts
# protocol errors and rejections as failed ops.
# Three seconds each, untraced — the timings it prints are ignored here (a
# perf PR compares them with benchmark/compare.sh).
bash benchmark/run.sh --workload analytic --seconds 3 --trace 0
bash benchmark/run.sh --workload serve_mixed --seconds 3 --trace 0
bash benchmark/run.sh --workload explain --seconds 3 --trace 0
bash benchmark/run.sh --workload explain_retrieval --seconds 3 --trace 0
bash benchmark/run.sh --workload serve_point --seconds 3 --trace 0

echo "==> rustdoc -D warnings (broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> line counts (scripts/loc.sh)"
bash scripts/loc.sh

echo "==> tree untouched (git status and diff as at the start)"
# A step that writes a tracked or unignored file (a stray result file, a
# rewritten benchmark/Cargo.lock) shows up here.
state_after=$(tree_state)
if [ "$state_before" != "$state_after" ]; then
    echo "the tree changed during CI (git status, then the tracked diff's hash):"
    diff <(echo "$state_before") <(echo "$state_after") || true
    exit 1
fi

echo "CI OK"
