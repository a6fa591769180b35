//! In-process HTAP substrate for the QPE reproduction.
//!
//! This crate stands in for ByteHTAP in the paper: a single *mutable*
//! database with two execution engines over the same data —
//!
//! * the **TP engine** (row store): row-at-a-time execution, B-tree
//!   primary/secondary indexes, nested-loop and index-nested-loop joins,
//!   sort-based grouping; an OLTP-biased optimizer and cost model. The row
//!   store is also the **write-applying side**: inserts append, deletes
//!   tombstone, updates relocate the tuple, and every index is maintained in
//!   place per write;
//! * the **AP engine** (column store): vectorized columnar scans that touch
//!   only referenced columns, hash joins, hash aggregation; an OLAP-biased
//!   optimizer whose cost scale is deliberately *not comparable* to TP's
//!   (the paper's "never compare costs across engines" trap). Its base
//!   columns are immutable; writes buffer in a versioned **delta region**
//!   (typed column builders + per-row begin/end version stamps) that scans
//!   read through, and `compact()` merges into fresh base columns.
//!
//! # Sessions: prepare once, execute many
//!
//! The client-facing API is the **session layer** ([`session`]):
//! [`session::Session::new`] wraps a shared `Arc<HtapSystem>`, and
//! [`session::Session::prepare`] runs the SQL front end **once** —
//! lex → parse → bind → plan for both engines — with parameter placeholders
//! (`?` positional, `$n` numbered) threaded through every layer:
//! `Expr::Param` in the AST, typed `BoundExpr::Param { idx, ty }` in the
//! binder (types inferred from the comparison/assignment context, coerced by
//! the same rules as INSERT literals), and parameterized index-lookup terms
//! ([`plan::PlanTerm`]) in the physical plan. Prepared statements land in a
//! system-wide LRU **plan cache** (keyed by SQL fingerprint, hit/miss stats
//! via [`engine::HtapSystem::plan_cache_stats`]), so every session shares
//! one front-end investment per distinct statement.
//!
//! [`session::PreparedStatement::execute`] injects the bound values into a
//! clone of the cached plans (*below* the planner, *above* the executors):
//! the executed predicates, pushed scan conjunctions and index keys are
//! byte-identical to what planning the literal-inlined SQL would produce, so
//! zone-map pruning re-specializes per execution and rows, counters and
//! pruning effectiveness exactly match the unprepared run
//! (`tests/prepared_props.rs`).
//!
//! **Concurrency:** the entire read path is `&self`, and analytical reads
//! run on **MVCC snapshots** rather than under the database lock. Every
//! read statement's AP side — and [`engine::HtapSystem::pin_snapshot`]
//! explicitly — takes the read lock only long enough to clone the `Arc`'d
//! column state at the table's current visibility epoch, then drops it and
//! executes entirely lock-free; writers proceed concurrently via
//! copy-on-write (`Arc::make_mut` clones any column an outstanding snapshot
//! still holds). Each delta row carries begin/end version stamps, so a
//! pinned [`engine::Snapshot`] sees exactly the rows committed at its epoch
//! — same rows *and* same work counters as a system that stopped there
//! (`tests/mvcc_props.rs` holds it to a committed-prefix oracle). Old row
//! versions are reclaimed when the last snapshot `Arc` referencing them
//! drops; `compact()` advances the table's history floor, the oldest epoch
//! a version view can still be reconstructed at. Writes take the write lock
//! internally; no statement entry point needs `&mut`.
//!
//! # DML flow (freshness made explicit)
//!
//! `INSERT`/`UPDATE`/`DELETE` statements flow lexer → parser → binder like
//! reads, then [`engine::HtapSystem::execute_statement`] routes them to the **TP
//! engine only**: the TP optimizer plans the row-locating access path
//! (index-aware, via the same single-table logic as reads), the DML executor
//! collects target rids *before* mutating (snapshot semantics), and the
//! write applies to both storage formats at the same rid. Write work is
//! metered by dedicated [`exec::WorkCounters`] fields and priced by the
//! latency model. Statistics stay honest across writes: row counts and
//! min/max maintain incrementally per statement, while ndv refreshes lazily
//! once a write backlog accumulates. Because AP scans always read
//! base + delta, a committed write is visible to the very next analytical
//! query — the ByteHTAP "high data freshness" property — and per-table
//! freshness (delta size, version stamp) is surfaced to the explainer's
//! evidence.
//!
//! Queries are bound by `qpe-sql`, optimized per engine into [`plan::PlanNode`]
//! trees (EXPLAIN JSON shaped exactly like the paper's Table II), executed for
//! real on generated TPC-H data ([`tpch`]), and timed through a deterministic
//! work-counter latency model ([`latency`]) so "which engine is faster" labels
//! are measured, not assumed.
//!
//! # Storage-side scan acceleration (zone maps, blooms, compressed execution)
//!
//! The column store's base segment is block-structured with per-block stats
//! headers ([`storage::zone`]): min/max, NULL count, a constant hint and a
//! small **bloom filter** per column, built at load and rebuilt by
//! compaction. The AP optimizer pushes each scan's filter conjunction into
//! its `TableScan` node, and every executor resolves the scan through one
//! shared entry that consults a [`storage::ScanPruner`]: blocks whose
//! min/max refute a range conjunct — or whose bloom filter proves an `=`/`IN`
//! literal absent — are skipped without touching a cell, while delta rows
//! are *never* pruned (the pruning-safety rule that keeps results exact
//! under buffered DML — base headers can only go conservatively stale, and
//! compaction re-tightens them; bloom false positives only ever cost an
//! extra block scan, never a wrong answer). The optimizer's pruning
//! *estimate* comes from sampled clustering statistics ([`stats`]):
//! sortedness and average run length decide how much of a range predicate's
//! non-selected fraction plausibly folds into whole prunable blocks.
//!
//! Base columns are stored compressed where a cost rule fires —
//! dictionary-encoded low-cardinality strings, run-length-encoded run-heavy
//! ints/dates, frame-of-reference bit-packed ints
//! ([`storage::col_store::ForInt`]) — and the executors run **on** those
//! representations rather than decoding first: equality/IN compare `u32`
//! dictionary codes, hash joins and group-bys hash the codes themselves
//! (kernels in [`eval`] and [`exec`]), RLE predicates evaluate once per run,
//! and FOR range predicates compare bit-packed deltas in the packed domain.
//! The delta region stays plain (append-hot, see [`storage`] for the
//! argument), and nullable typed columns carry a null mask instead of
//! demoting to generic values. Savings surface as fewer
//! `cells_scanned`/`filter_evals` plus the `blocks_checked`/`blocks_pruned`
//! counters the latency model prices — so pruning speeds queries up in
//! wall-clock *and* in the simulated latencies the router trains on, without
//! ever changing results (pruned ≡ unpruned ≡ TP, swept by
//! `tests/dml_props.rs` under random DML interleavings and by the forced
//! per-table [`storage::col_store::EncodingPolicy`] matrix in
//! `tests/engine_equivalence.rs`).
//!
//! # Execution modes
//!
//! One plan vocabulary, three execution modes ([`exec`]):
//!
//! * **Row interpreter** ([`exec::execute_scalar`]) — the reference
//!   semantics, row-at-a-time; TP plans always execute here (index probes
//!   are inherently row-at-a-time). Row-store tuples are read in place,
//!   and joins no longer materialize: a join hands its parent both inputs
//!   and the matched (outer, inner) positions, joins nest, and filters,
//!   sorts, limits and aggregates read a joined row where its cells live.
//!   Only a projection and the root copy cells. Expressions are compiled
//!   once per operator and evaluate to borrowed cells, so a comparison
//!   clones no string. Counters still charge whole tuples, by the same
//!   formulas. Every join matches keys by one equality: NULL and NaN match
//!   nothing, keys of two types never match, `-0.0` matches `0.0`.
//! * **Vectorized batch executor** ([`exec::vector`]) — AP plans execute
//!   over *batches*: typed column arrays (borrowed zero-copy from the column
//!   store) plus a selection vector. Filters write the rows that pass
//!   straight into the next selection ([`eval::eval_predicate_sel`]),
//!   deciding whole FOR blocks, RLE runs and dictionary codes where the
//!   encoding allows, and the same kernels run at every thread count;
//!   aggregation and top-N read typed cells a block at a time, with every
//!   dispatch made before the row loop; joins match on typed key
//!   columns and gather only the columns that remain live above them (late
//!   materialization), sorts and top-N permute the selection, and rows are
//!   materialized once at the aggregation/projection boundary. This makes
//!   the AP engine *operationally* columnar, not just structurally — the
//!   asymmetry the paper's explanations cite ("scan only relevant columns
//!   and apply filters before joining") is now how the code actually runs.
//! * **Morsel-driven parallel executor** ([`exec::parallel`]) — the batch
//!   executor with its kernels fanned out over the calling thread plus one
//!   process-wide pool of parked workers (a call that finds the pool busy
//!   runs on its own thread), knobbed by [`exec::ExecConfig`] (default:
//!   available cores; 1 thread is the exact serial path). Dense kernel
//!   ranges split into fixed-size morsels (cut at base/delta chunk
//!   boundaries); a hash join's build fills one table that its probe
//!   morsels share; aggregation evaluates its key and argument expressions
//!   per morsel, then folds them in one serial block-at-a-time pass over
//!   dense group ids in global row order (float sums keep the serial
//!   association order); sorts and top-N evaluate their key columns per
//!   morsel and order serially. Every merge is order-restoring, so
//!   parallel output is **bit-identical** to serial — rows and counters
//!   alike, at any thread count, on clean and dirty tables.
//!
//! # Durability & crash recovery
//!
//! [`engine::HtapSystem::open`] attaches a data directory and makes the
//! system crash-safe; [`engine::HtapSystem::new`] remains the pure
//! in-memory construction. Durability is layered under the engines, never
//! beside them — the row store, column store, indexes and statistics are
//! rebuilt from persistent state rather than serialized wholesale:
//!
//! * **Group-commit WAL** ([`storage::wal`]): every committed DML statement
//!   appends length-prefixed, CRC32-checksummed records *under the write
//!   lock* (log order ≡ apply order) and fsyncs *after releasing it* —
//!   concurrent committers share one fsync via a leader/follower protocol,
//!   so WAL throughput scales with batch size, not fsync latency.
//! * **Sealed column segments** ([`storage::persist`]): checkpoints write
//!   each table's column-store state — encoded base columns (dictionary,
//!   RLE, null masks preserved exactly), delta region, tombstone bitmap —
//!   into versioned, checksummed segment files, then publish them with an
//!   atomic manifest swap (`manifest.tmp` → fsync → rename). The WAL
//!   rotates to a fresh generation at the same point, so old generations
//!   and segments become garbage the new manifest sweeps.
//! * **Recovery** (`open` of a non-empty directory): load the manifest's
//!   segments, replay the WAL chain through the same `apply_*` entry
//!   points the live statements used, rebuild B-tree indexes over live
//!   rows, and restore catalog + statistics from the manifest. Torn WAL
//!   tails and half-written segments/manifests are detected by checksum
//!   and discarded — recovery returns a [`engine::RecoveryReport`], never
//!   panics on partial state.
//! * **Background compaction** ([`engine::DurabilityOptions::background`]):
//!   a dedicated thread snapshots a dirty table under a brief write lock,
//!   builds the compacted state (encoding, zone maps, indexes, stats)
//!   entirely off-lock, then swaps it in and re-applies the write window
//!   that accumulated meanwhile — writers stay live throughout. In durable
//!   mode the `Compact` WAL record lands at the snapshot point and
//!   concurrent writes are rid-translated so replay converges on the same
//!   bytes.
//!
//! The crash-injection harness (`tests/crash_recovery.rs`) drives random
//! DML/compact/checkpoint interleavings into simulated kills at every
//! durable I/O site and asserts recovered TP ≡ recovered AP ≡ an oracle
//! applying exactly the committed prefix.
//!
//! # Fault-tolerant statement lifecycle
//!
//! Statements are governed and failures are structured — nothing in the
//! engine `panic!`s its way out of a bad statement, and nothing loops
//! forever on a bad disk:
//!
//! * **Governance** ([`exec::ExecGuard`]): every statement runs under a
//!   guard combining a cancel flag ([`session::Session::cancel_handle`] —
//!   usable from any thread), a deadline, and an approximate memory budget
//!   ([`exec::StatementLimits`], defaulted system-wide via
//!   [`engine::HtapSystem::set_statement_limits`] or overridden per call).
//!   All three executors poll it cooperatively at operator/morsel/1k-row
//!   granularity and surface trips as
//!   `HtapError::{Cancelled, Timeout, MemoryBudget}`. Guard polls are one
//!   relaxed atomic load, which keeps the overhead under 2%.
//! * **Transient-fault retry** ([`storage::durable_io::RetryPolicy`]): WAL
//!   fsyncs, segment seals and manifest swaps retry transiently-failing
//!   I/O with exponential backoff + jitter under a bounded budget.
//!   Retryable = I/O errors that may heal (everything except ENOSPC-class
//!   errors, simulated crashes, and checksum corruption).
//! * **Read-only degraded mode**: when retries exhaust (or a non-retryable
//!   error hits, or a writer panic poisons the database lock), the system
//!   latches degraded mode — writes fail fast with
//!   [`engine::HtapError::ReadOnly`] carrying the root cause, while reads
//!   and MVCC snapshots keep serving lock-free.
//!   [`engine::HtapSystem::health`] reports the mode, cause and fault
//!   counters; [`engine::HtapSystem::resume_writes`] re-probes the WAL end
//!   to end and lifts the degradation only on success. The state machine is
//!   `Healthy → (retry budget exhausted | non-retryable | writer panic) →
//!   Degraded → (resume_writes probe OK) → Healthy`.
//! * **Containment**: session-boundary `catch_unwind` turns an executor
//!   panic into [`engine::HtapError::Internal`]; poisoned locks are
//!   recovered rather than propagated (safe because readers only ever see
//!   committed copy-on-write state), with a writer panic additionally
//!   tripping degraded mode. `tests/fault_tolerance.rs` sweeps all of this:
//!   transient errors armed at every durable I/O site over random DML tapes
//!   (zero acked-write loss), mid-scan cancellation, deterministic
//!   timeouts, injected panics, and the degraded-mode round trip.
//!
//! # Engine pinning & the network front end
//!
//! Dual-running every read is the *calibration* configuration — it is what
//! measures both engines, checks cross-engine agreement, and produces the
//! labels the router trains on. Once routing is trusted, a client can
//! **pin**: [`session::Session::pin_engine`] routes a whole session
//! (including statements prepared before the pin), and
//! [`session::PreparedStatement::execute_on`] pins per call. Every
//! statement, ad hoc or prepared, pinned or dual, runs through one site
//! that substitutes its parameters and runs the read or the write. A
//! pinned run returns a [`engine::PinnedQueryOutcome`] whose rows, counters
//! and simulated latency are byte-identical to the same engine's side of a
//! dual run — pinning skips the other engine's work and the agreement
//! check, never changes what the pinned engine computes
//! (`tests/engine_pinning.rs`), and DML stays TP-only on every path.
//!
//! The `qpe_server` crate serves this session layer over TCP: a
//! thread-per-connection server speaking a length-prefixed, CRC-checked
//! binary protocol, where each connection maps onto its own [`session::Session`]
//! over the shared `Arc<HtapSystem>`. The wire is a *transparent
//! transport*: rows, `WorkCounters`, and every typed error — SQL stages,
//! parameter mismatches, `Cancelled`/`Timeout`/`MemoryBudget`/`ReadOnly`
//! governance trips — round-trip losslessly, `Hello` negotiates
//! per-session [`exec::StatementLimits`] clamped by server caps, admission
//! control answers with structured `Busy` frames, and out-of-band `Cancel`
//! (conn-id + secret, Postgres-style) lands on the victim's
//! [`session::Session::cancel_handle`]. Its integration suite proves wire
//! results byte-identical to in-process sessions; its fuzz suite proves
//! the framing layer total on garbage, truncated and bit-flipped input.
//!
//! **Why counters must stay identical across modes:** everything downstream
//! consumes [`exec::WorkCounters`], not wall-clock — the latency model turns
//! counters into deterministic simulated latencies, those latencies pick the
//! winning engine, the winner labels train the router, and the explainer
//! justifies them. If the batch executor counted work differently, switching
//! executors (or thread counts) would silently change every latency, router
//! label and explanation in the system. All modes therefore charge the same
//! counter values for the same plan (asserted by
//! `tests/engine_equivalence.rs`, `tests/dml_props.rs` and
//! `tests/parallel_determinism.rs`), making execution mode a pure
//! performance decision. The simulation prices AP work at one thread, so no
//! thread count, host core count or `QPE_AP_THREADS` setting changes a
//! simulated latency, a winner label or an explanation.

pub mod engine;
pub mod eval;
pub mod exec;
pub mod latency;
pub mod opt;
pub mod plan;
pub mod session;
pub mod stats;
pub mod storage;
pub mod tpch;

pub use engine::{
    BackgroundCompaction, Database, DmlOutcome, DurabilityOptions, EngineKind, EngineRun,
    Health, HtapError, HtapSystem, PinnedQueryOutcome, QueryOutcome, RecoveryReport,
    StatementOutcome,
};
pub use exec::{CancelHandle, DmlKind, DmlResult, ExecConfig, GovernError, StatementLimits};
pub use plan::{NodeType, PlanNode};
pub use session::{PlanCacheStats, PreparedStatement, Session};
pub use storage::{DurabilityError, FailPoints, TableFreshness, WalStats};
pub use storage::durable_io::RetryPolicy;
pub use tpch::TpchConfig;
