//! Group-commit write-ahead log.
//!
//! Every DML statement appends its logical operations ([`super::TableOp`])
//! as checksummed records *while still holding the database write lock* —
//! record order in the file therefore equals apply order in memory, which
//! is what makes single-pass replay deterministic. The statement is only
//! **acknowledged** to the client after [`Wal::commit`] reports the record
//! durable, and that call runs *after* the lock is released, so fsync time
//! never serializes the in-memory write path.
//!
//! # Group commit
//!
//! Committers use a leader/follower protocol: the first committer to find
//! no flush in flight becomes the leader, optionally dwells for the
//! configured interval (letting concurrent statements append into the
//! batch), then writes and fsyncs everything appended so far in **one**
//! syscall pair. Followers whose LSN the leader covered wake up already
//! durable. One fsync thus amortizes over every statement that arrived
//! during the previous fsync + dwell, instead of one fsync per statement.
//!
//! # Record format and torn tails
//!
//! `[len: u32][crc32(payload): u32][payload]`, little-endian. Replay
//! ([`read_wal_file`]) walks records until the bytes stop checksumming —
//! a short frame, bad CRC or undecodable payload marks the *torn tail* a
//! mid-flush crash leaves behind; the tail is physically truncated and
//! replay reports how many bytes were discarded. Because flushes always
//! write a prefix of the append order, a valid record can never follow a
//! torn one.

use super::codec::{self, Reader};
use super::durable_io::{crc32, DurabilityError, DurableFile, RetryPolicy};
use super::TableOp;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of same-statement operations against one table.
    Op {
        /// Target table.
        table: String,
        /// The operation batch.
        op: TableOp,
    },
    /// A compaction of `table` happened at this point of the timeline
    /// (replay re-runs it so later rids resolve in the re-packed space).
    Compact {
        /// Compacted table.
        table: String,
    },
    /// A checkpoint cut the log here; `version` is the manifest version
    /// whose segments capture everything before this record.
    Checkpoint {
        /// Manifest version of the checkpoint.
        version: u64,
    },
}

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_UPDATE: u8 = 3;
const KIND_COMPACT: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;

/// Upper bound on one record's payload — a torn length prefix larger than
/// this is classified as tail garbage without attempting allocation.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Checked `usize → u32` for WAL frame and count fields. An unchecked
/// `as u32` here would wrap: the frame would carry a truncated length, the
/// CRC would be computed over the truncated view, and replay would
/// checksum-pass garbage. Oversized batches are rejected up front instead.
fn checked_len(what: &str, n: usize) -> Result<u32, DurabilityError> {
    u32::try_from(n).map_err(|_| {
        DurabilityError::Corrupt(format!("WAL {what} length {n} exceeds the u32 frame limit"))
    })
}

impl WalRecord {
    fn encode_payload(&self, buf: &mut Vec<u8>) -> Result<(), DurabilityError> {
        match self {
            WalRecord::Op { table, op } => match op {
                TableOp::Insert { rows } => {
                    codec::put_u8(buf, KIND_INSERT);
                    codec::put_str(buf, table);
                    codec::put_u32(buf, checked_len("insert row count", rows.len())?);
                    for row in rows {
                        codec::put_row(buf, row);
                    }
                }
                TableOp::Delete { rids } => {
                    codec::put_u8(buf, KIND_DELETE);
                    codec::put_str(buf, table);
                    codec::put_u32(buf, checked_len("delete rid count", rids.len())?);
                    for rid in rids {
                        codec::put_u32(buf, *rid);
                    }
                }
                TableOp::Update { changes } => {
                    codec::put_u8(buf, KIND_UPDATE);
                    codec::put_str(buf, table);
                    codec::put_u32(buf, checked_len("update change count", changes.len())?);
                    for (rid, row) in changes {
                        codec::put_u32(buf, *rid);
                        codec::put_row(buf, row);
                    }
                }
            },
            WalRecord::Compact { table } => {
                codec::put_u8(buf, KIND_COMPACT);
                codec::put_str(buf, table);
            }
            WalRecord::Checkpoint { version } => {
                codec::put_u8(buf, KIND_CHECKPOINT);
                codec::put_u64(buf, *version);
            }
        }
        Ok(())
    }

    /// Appends the framed record (`len + crc + payload`) to `buf`.
    /// Errors (and leaves `buf` untouched) if any length field overflows
    /// the u32 frame format.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), DurabilityError> {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload)?;
        codec::put_u32(buf, checked_len("payload", payload.len())?);
        codec::put_u32(buf, crc32(&payload));
        buf.extend_from_slice(&payload);
        Ok(())
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord, DurabilityError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            KIND_INSERT => {
                let table = r.str_()?;
                let n = r.count(4)?;
                let rows = (0..n).map(|_| codec::read_row(&mut r)).collect::<Result<_, _>>()?;
                WalRecord::Op { table, op: TableOp::Insert { rows } }
            }
            KIND_DELETE => {
                let table = r.str_()?;
                let n = r.count(4)?;
                let rids = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
                WalRecord::Op { table, op: TableOp::Delete { rids } }
            }
            KIND_UPDATE => {
                let table = r.str_()?;
                let n = r.count(8)?;
                let changes = (0..n)
                    .map(|_| Ok((r.u32()?, codec::read_row(&mut r)?)))
                    .collect::<Result<_, DurabilityError>>()?;
                WalRecord::Op { table, op: TableOp::Update { changes } }
            }
            KIND_COMPACT => WalRecord::Compact { table: r.str_()? },
            KIND_CHECKPOINT => WalRecord::Checkpoint { version: r.u64()? },
            k => return Err(DurabilityError::Corrupt(format!("unknown WAL record kind {k}"))),
        };
        if !r.is_done() {
            return Err(DurabilityError::Corrupt("trailing bytes in WAL payload".into()));
        }
        Ok(rec)
    }
}

#[derive(Debug)]
struct WalState {
    /// Encoded-but-unflushed records.
    buf: Vec<u8>,
    /// LSN = count of records appended so far.
    appended: u64,
    /// Highest LSN known durable.
    durable: u64,
    /// A leader currently owns the file and is flushing.
    flushing: bool,
    /// A flush failed (even after retries) or a crash fired: every later
    /// call errors until [`Wal::revive`] clears the latch.
    dead: bool,
    /// Root cause of the dead latch, surfaced to appenders and followers.
    dead_cause: Option<DurabilityError>,
}

impl WalState {
    fn dead_err(&self) -> DurabilityError {
        self.dead_cause.clone().unwrap_or(DurabilityError::Crashed)
    }
}

/// Counters the benchmarks and crash tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (acknowledged or not).
    pub records: u64,
    /// Physical fsyncs issued. `records / fsyncs` is the group-commit
    /// batching factor.
    pub fsyncs: u64,
}

/// The write-ahead log of one system. See the module docs for the
/// append/commit protocol.
#[derive(Debug)]
pub struct Wal {
    state: Mutex<WalState>,
    cv: Condvar,
    /// The active log file; only a flush leader (or a rotation holding the
    /// database lock) touches it, and never while holding `state`.
    file: Mutex<DurableFile>,
    /// How long a prospective flush leader waits before collecting its
    /// batch (zero = flush at once; batching then comes only from commits
    /// that arrive while an fsync is in flight).
    dwell: Duration,
    /// Bounded retry applied to every physical flush before the dead latch
    /// trips. The batch is written to the (in-memory) page cache once; only
    /// the failing fsync step retries, so no byte is ever duplicated.
    retry: RetryPolicy,
    fsyncs: AtomicU64,
    records: AtomicU64,
    retries: AtomicU64,
}

impl Wal {
    /// Wraps an open log file with the given leader dwell and the default
    /// [`RetryPolicy`].
    pub fn new(file: DurableFile, dwell: Duration) -> Wal {
        Wal::with_retry(file, dwell, RetryPolicy::default())
    }

    /// Wraps an open log file with an explicit flush retry policy.
    pub fn with_retry(file: DurableFile, dwell: Duration, retry: RetryPolicy) -> Wal {
        Wal {
            state: Mutex::new(WalState {
                buf: Vec::new(),
                appended: 0,
                durable: 0,
                flushing: false,
                dead: false,
                dead_cause: None,
            }),
            cv: Condvar::new(),
            file: Mutex::new(file),
            dwell,
            retry,
            fsyncs: AtomicU64::new(0),
            records: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends records (call with the database write lock held, so file
    /// order equals apply order). Returns the LSN to pass to
    /// [`Wal::commit`] after the lock is released.
    pub fn append(&self, records: &[WalRecord]) -> Result<u64, DurabilityError> {
        let mut s = self.lock_state();
        if s.dead {
            return Err(s.dead_err());
        }
        // Encode into a scratch buffer first: if one record of the batch
        // overflows the frame format, nothing of the batch reaches the log
        // (a partial prefix would replay operations that never applied).
        let mut scratch = Vec::new();
        for rec in records {
            rec.encode(&mut scratch)?;
        }
        s.buf.extend_from_slice(&scratch);
        s.appended += records.len() as u64;
        self.records.fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(s.appended)
    }

    /// Blocks until every record up to `lsn` is durable, participating in
    /// the leader/follower group-commit protocol.
    pub fn commit(&self, lsn: u64) -> Result<(), DurabilityError> {
        if !self.dwell.is_zero() {
            let s = self.lock_state();
            if s.dead {
                return Err(s.dead_err());
            }
            // Prospective leader dwells (lock released) so concurrent
            // statements append into the batch; followers skip straight to
            // waiting on the in-flight flush.
            if s.durable < lsn && !s.flushing {
                drop(s);
                std::thread::sleep(self.dwell);
            }
        }
        self.flush_upto(self.lock_state(), lsn)
    }

    /// Flushes everything appended so far (shutdown path).
    pub fn flush_all(&self) -> Result<(), DurabilityError> {
        let s = self.lock_state();
        let target = s.appended;
        self.flush_upto(s, target)
    }

    /// Core leader/follower loop. Consumes the guard; file I/O happens with
    /// `state` released so appenders keep making progress during the fsync.
    fn flush_upto<'a>(
        &'a self,
        mut s: MutexGuard<'a, WalState>,
        target: u64,
    ) -> Result<(), DurabilityError> {
        loop {
            if s.dead {
                return Err(s.dead_err());
            }
            if s.durable >= target {
                return Ok(());
            }
            if s.flushing {
                // Follower: the leader's fsync may already cover us.
                s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the leader for everything appended so far.
            s.flushing = true;
            let batch = std::mem::take(&mut s.buf);
            let upto = s.appended;
            drop(s);
            let res = {
                let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
                // Write the batch into the page cache once; only the fsync
                // step retries (a transient flush failure keeps the pending
                // bytes, so each retry pushes the same prefix-consistent
                // data).
                file.write(&batch).and_then(|()| {
                    let (r, retries) = self.retry.run(|| file.flush());
                    self.retries.fetch_add(retries as u64, Ordering::Relaxed);
                    r
                })
            };
            let mut s2 = self.lock_state();
            s2.flushing = false;
            match res {
                Ok(()) => {
                    s2.durable = upto;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.cv.notify_all();
                    s = s2;
                }
                Err(e) => {
                    s2.dead = true;
                    s2.dead_cause = Some(e.clone());
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Checkpoint rotation (call with the database lock held so no append
    /// races): waits out any in-flight flush, appends `checkpoint_record`,
    /// flushes the old file completely, then swaps in `new_file` as the
    /// active log. Every record up to the rotation is durable afterwards.
    pub fn rotate(
        &self,
        new_file: DurableFile,
        checkpoint_record: WalRecord,
    ) -> Result<(), DurabilityError> {
        let mut s = self.lock_state();
        loop {
            if s.dead {
                return Err(s.dead_err());
            }
            if !s.flushing {
                break;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        checkpoint_record.encode(&mut s.buf)?;
        s.appended += 1;
        self.records.fetch_add(1, Ordering::Relaxed);
        s.flushing = true;
        let batch = std::mem::take(&mut s.buf);
        let upto = s.appended;
        drop(s);
        let res = {
            let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            let r = file.write(&batch).and_then(|()| {
                let (r, retries) = self.retry.run(|| file.flush());
                self.retries.fetch_add(retries as u64, Ordering::Relaxed);
                r
            });
            if r.is_ok() {
                *file = new_file;
            }
            r
        };
        let mut s = self.lock_state();
        s.flushing = false;
        match res {
            Ok(()) => {
                s.durable = upto;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                Ok(())
            }
            Err(e) => {
                s.dead = true;
                s.dead_cause = Some(e.clone());
                self.cv.notify_all();
                Err(e)
            }
        }
    }

    /// Clears the dead latch after the underlying fault healed (the
    /// degraded-mode exit path; callers must first confirm nothing is
    /// crash-poisoned). Buffered-but-unacknowledged records are kept: they
    /// may become durable on the next flush, which is sound — only
    /// *acknowledged* writes carry a durability promise, and the file's
    /// pending bytes are still a prefix of append order.
    pub fn revive(&self) {
        let mut s = self.lock_state();
        s.dead = false;
        s.dead_cause = None;
        self.cv.notify_all();
    }

    /// Whether the dead latch is currently set.
    pub fn is_dead(&self) -> bool {
        self.lock_state().dead
    }

    /// Total flush retries absorbed by the retry policy so far.
    pub fn flush_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Append/fsync counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of scanning one WAL file at recovery.
#[derive(Debug)]
pub struct WalReadOutcome {
    /// Records that checksummed, in append order.
    pub records: Vec<WalRecord>,
    /// Torn-tail bytes discarded (and physically truncated from the file).
    /// An all-zero tail — the untouched remainder of a preallocated chunk,
    /// not a mid-flush crash — is truncated too but counts as zero here.
    pub truncated_bytes: u64,
}

/// Reads every intact record of a WAL file, truncating any torn tail (or
/// preallocation padding) in place so a re-opened log appends after the
/// last good record.
pub fn read_wal_file(path: &Path) -> Result<WalReadOutcome, DurabilityError> {
    let bytes = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut good = 0usize;
    let mut pos = 0usize;
    loop {
        if bytes.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || (len as usize) > bytes.len() - pos - 8 {
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        let Ok(rec) = WalRecord::decode_payload(payload) else {
            break;
        };
        records.push(rec);
        pos += 8 + len as usize;
        good = pos;
    }
    let tail = &bytes[good..];
    // Flushes write prefixes of the append order into a zero-filled
    // preallocated region, so an all-zero tail is padding past the last
    // append, not data lost to a crash.
    let truncated_bytes = if tail.iter().all(|&b| b == 0) { 0 } else { tail.len() as u64 };
    if !tail.is_empty() {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(good as u64)?;
        f.sync_data()?;
    }
    Ok(WalReadOutcome { records, truncated_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::durable_io::FailPoints;
    use qpe_sql::value::Value;
    use std::sync::atomic::AtomicU32;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!("qpe_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}_{}", N.fetch_add(1, Ordering::Relaxed)))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Op {
                table: "t".into(),
                op: TableOp::Insert {
                    rows: vec![vec![Value::Int(1), Value::Str("a".into())], vec![
                        Value::Null,
                        Value::Float(2.5),
                    ]],
                },
            },
            WalRecord::Op { table: "t".into(), op: TableOp::Delete { rids: vec![3, 9] } },
            WalRecord::Op {
                table: "u".into(),
                op: TableOp::Update { changes: vec![(7, vec![Value::Date(10)])] },
            },
            WalRecord::Compact { table: "t".into() },
            WalRecord::Checkpoint { version: 42 },
        ]
    }

    #[test]
    fn records_round_trip_through_a_file() {
        let path = tmp_path("rt");
        let fp = FailPoints::default();
        let wal = Wal::new(
            DurableFile::create(&path, fp, "wal").unwrap(),
            Duration::ZERO,
        );
        let recs = sample_records();
        let lsn = wal.append(&recs).unwrap();
        wal.commit(lsn).unwrap();
        let out = read_wal_file(&path).unwrap();
        assert_eq!(out.truncated_bytes, 0);
        assert_eq!(out.records, recs);
        assert_eq!(wal.stats().records, 5);
        assert_eq!(wal.stats().fsyncs, 1);
    }

    #[test]
    fn oversized_length_is_a_structured_error_not_a_truncated_frame() {
        // u32::MAX still frames; one past it must surface a structured
        // Corrupt error instead of wrapping to 0 and checksum-passing a
        // truncated view on replay. Lengths are synthetic — no 4 GiB
        // buffer is allocated.
        assert_eq!(checked_len("probe", u32::MAX as usize).unwrap(), u32::MAX);
        match checked_len("insert row count", (u32::MAX as usize) + 1) {
            Err(DurabilityError::Corrupt(msg)) => {
                assert!(msg.contains("insert row count"), "{msg}");
                assert!(msg.contains("4294967296"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp_path("torn");
        let mut buf = Vec::new();
        let recs = sample_records();
        for r in &recs {
            r.encode(&mut buf).unwrap();
        }
        let good_len = {
            let mut first_two = Vec::new();
            recs[0].encode(&mut first_two).unwrap();
            recs[1].encode(&mut first_two).unwrap();
            first_two.len()
        };
        // Cut mid-way through the third record.
        std::fs::write(&path, &buf[..good_len + 5]).unwrap();
        let out = read_wal_file(&path).unwrap();
        assert_eq!(out.records, recs[..2]);
        assert_eq!(out.truncated_bytes, 5);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len as u64);
        // Re-reading the truncated file is clean — recovery is idempotent.
        let again = read_wal_file(&path).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.records, recs[..2]);
    }

    #[test]
    fn corrupted_byte_cuts_the_log_at_the_bad_record() {
        let path = tmp_path("crc");
        let mut buf = Vec::new();
        for r in sample_records() {
            r.encode(&mut buf).unwrap();
        }
        // Flip one payload byte of the second record.
        let mut first = Vec::new();
        sample_records()[0].encode(&mut first).unwrap();
        buf[first.len() + 10] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        let out = read_wal_file(&path).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated_bytes > 0);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let path = tmp_path("gc");
        let wal = std::sync::Arc::new(Wal::new(
            DurableFile::create(&path, FailPoints::default(), "wal").unwrap(),
            Duration::from_millis(2),
        ));
        let mut handles = Vec::new();
        for t in 0..6 {
            let wal = std::sync::Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let rec = WalRecord::Op {
                        table: "t".into(),
                        op: TableOp::Delete { rids: vec![t * 100 + i] },
                    };
                    let lsn = wal.append(std::slice::from_ref(&rec)).unwrap();
                    wal.commit(lsn).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.records, 48);
        assert!(
            stats.fsyncs < stats.records,
            "dwell interval must batch commits: {stats:?}"
        );
        assert_eq!(read_wal_file(&path).unwrap().records.len(), 48);
    }

    #[test]
    fn transient_flush_errors_are_retried_transparently() {
        let path = tmp_path("retry");
        let fp = FailPoints::default();
        fp.arm_errors("wal", 3);
        let wal = Wal::new(
            DurableFile::create(&path, fp, "wal").unwrap(),
            Duration::ZERO,
        );
        let lsn = wal.append(&sample_records()).unwrap();
        // Default policy (5 attempts) absorbs the 3 injected errors.
        wal.commit(lsn).unwrap();
        assert_eq!(wal.flush_retries(), 3);
        assert_eq!(read_wal_file(&path).unwrap().records.len(), 5);
    }

    #[test]
    fn exhausted_retries_latch_dead_until_revive() {
        let path = tmp_path("revive");
        let fp = FailPoints::default();
        fp.arm_errors("wal", 100);
        let wal = Wal::with_retry(
            DurableFile::create(&path, fp.clone(), "wal").unwrap(),
            Duration::ZERO,
            RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
        );
        let lsn = wal.append(&sample_records()).unwrap();
        assert!(matches!(wal.commit(lsn), Err(DurabilityError::Io(_))));
        // The dead latch surfaces the root cause, not a fake crash.
        assert!(matches!(
            wal.append(&sample_records()),
            Err(DurabilityError::Io(_))
        ));
        assert!(wal.is_dead());
        fp.heal("wal");
        wal.revive();
        assert!(!wal.is_dead());
        // The buffered (never-acknowledged) batch flushes cleanly now.
        wal.flush_all().unwrap();
        assert_eq!(read_wal_file(&path).unwrap().records.len(), 5);
    }

    #[test]
    fn crashed_flush_poisons_the_wal() {
        let path = tmp_path("dead");
        let fp = FailPoints::default();
        fp.arm("wal", 1);
        let wal = Wal::new(
            DurableFile::create(&path, fp, "wal").unwrap(),
            Duration::ZERO,
        );
        let lsn = wal.append(&sample_records()).unwrap();
        assert_eq!(wal.commit(lsn), Err(DurabilityError::Crashed));
        assert_eq!(wal.append(&sample_records()), Err(DurabilityError::Crashed));
        assert_eq!(wal.flush_all(), Err(DurabilityError::Crashed));
    }
}
