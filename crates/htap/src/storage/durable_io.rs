//! Crash-aware file I/O: the thin layer every durable byte passes through.
//!
//! Durability code is only as trustworthy as its failure testing, so this
//! module makes the failure model *explicit and injectable*:
//!
//! * [`DurableFile`] simulates the page cache: `write` buffers bytes in
//!   memory and only [`DurableFile::flush`] moves them to the OS file and
//!   `fsync`s. A crash between `write` and `flush` therefore loses exactly
//!   the unflushed suffix — the same contract a real kernel gives a real
//!   database after a power cut.
//! * [`FailPoints`] is a per-system registry of armed crash sites. Every
//!   flush (and a few non-file control points like the manifest rename)
//!   consults it; when a site fires, the file persists only a prefix of the
//!   pending bytes (a *torn write*) and the whole registry trips into a
//!   poisoned state where every further I/O returns
//!   [`DurabilityError::Crashed`] — the process is "dead" from the storage
//!   layer's point of view, even though the test harness keeps running and
//!   can immediately re-open the directory to exercise recovery.
//!
//! Beyond crashes, the registry models two further failure classes:
//!
//! * **Transient errors** ([`FailPoints::arm_errors`]): a site returns
//!   [`DurabilityError::Io`] for its next N hits and then heals — the disk
//!   hiccup / EINTR / throttled-volume class. Unlike a crash, nothing is
//!   poisoned and *no bytes move*: an armed flush fails before writing, so
//!   the pending buffer survives intact and a retry re-flushes exactly the
//!   same data. [`RetryPolicy`] is the bounded exponential-backoff loop the
//!   engine wraps around every durable write to absorb this class.
//! * **Injected panics** ([`FailPoints::arm_panic`]): a one-shot panic at a
//!   named control point, used to prove statement containment (a panicking
//!   statement must not take the system down with it).
//!
//! Fail points are deliberately per-system (not global) so crash tests run
//! in parallel, and [`crc32`] is the checksum every WAL record and segment
//! file carries so recovery can *detect* the torn suffixes this module
//! creates.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Errors from the durability layer (WAL, segments, manifest, recovery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// Underlying filesystem error.
    Io(String),
    /// A simulated crash fired (or the system is poisoned by an earlier
    /// one): no further I/O will succeed until the directory is re-opened.
    Crashed,
    /// Persistent state failed validation (checksum mismatch, bad magic,
    /// truncated payload, undecodable record).
    Corrupt(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "io: {e}"),
            DurabilityError::Crashed => write!(f, "simulated crash (storage poisoned)"),
            DurabilityError::Corrupt(e) => write!(f, "corrupt persistent state: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e.to_string())
    }
}

/// One armed crash site.
#[derive(Debug, Clone)]
struct ArmedPoint {
    /// Fire on the n-th hit (1 = the very next hit).
    countdown: u32,
    /// Fraction of pending bytes that still reach the file at a flush site
    /// before the crash (0.0 = nothing, 0.5 = torn in half, 1.0 = the flush
    /// itself completes and the crash lands just after).
    keep_fraction: f64,
}

#[derive(Debug, Default)]
struct FailPointsInner {
    armed: Mutex<HashMap<String, ArmedPoint>>,
    crashed: AtomicBool,
    /// Sites armed to return transient `Io` errors: remaining error count.
    err_armed: Mutex<HashMap<String, u32>>,
    /// Sites armed to panic exactly once.
    panic_armed: Mutex<HashSet<String>>,
}

/// Injectable crash-site registry, shared by every durable file of one
/// system. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct FailPoints {
    inner: Arc<FailPointsInner>,
}

impl FailPoints {
    /// Arms `site` to crash on its `countdown`-th hit, persisting none of
    /// the bytes pending at that point.
    pub fn arm(&self, site: &str, countdown: u32) {
        self.arm_partial(site, countdown, 0.0);
    }

    /// Arms `site` to crash on its `countdown`-th hit after persisting
    /// `keep_fraction` of the pending bytes — the torn-write case recovery
    /// checksums exist for.
    pub fn arm_partial(&self, site: &str, countdown: u32, keep_fraction: f64) {
        let mut armed = lock_unpoisoned(&self.inner.armed);
        armed.insert(
            site.to_string(),
            ArmedPoint { countdown: countdown.max(1), keep_fraction: keep_fraction.clamp(0.0, 1.0) },
        );
    }

    /// True once any armed site has fired (every later I/O call fails).
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Trips the crashed state directly (an "anywhere" kill, no site).
    pub fn trip(&self) {
        self.inner.crashed.store(true, Ordering::SeqCst);
    }

    /// Records a hit on `site`. Returns `Some(keep_fraction)` when the site
    /// fires now (and poisons the registry), `Err` when already poisoned.
    pub(crate) fn observe(&self, site: &str) -> Result<Option<f64>, DurabilityError> {
        if self.crashed() {
            return Err(DurabilityError::Crashed);
        }
        let mut armed = lock_unpoisoned(&self.inner.armed);
        let Some(point) = armed.get_mut(site) else {
            return Ok(None);
        };
        point.countdown -= 1;
        if point.countdown > 0 {
            return Ok(None);
        }
        let keep = point.keep_fraction;
        armed.remove(site);
        self.inner.crashed.store(true, Ordering::SeqCst);
        Ok(Some(keep))
    }

    /// Control-point check for non-file sites (e.g. around the manifest
    /// rename): errors if the site fires or the registry is poisoned.
    pub(crate) fn hit(&self, site: &str) -> Result<(), DurabilityError> {
        if let Some(e) = self.transient_error(site) {
            return Err(e);
        }
        match self.observe(site)? {
            Some(_) => Err(DurabilityError::Crashed),
            None => Ok(()),
        }
    }

    /// Arms `site` to return [`DurabilityError::Io`] for its next `count`
    /// hits, then heal. Unlike [`FailPoints::arm`], nothing is poisoned and
    /// no bytes are torn — the failing operation leaves its pending state
    /// intact, so a retry can succeed once the site heals.
    pub fn arm_errors(&self, site: &str, count: u32) {
        let mut errs = lock_unpoisoned(&self.inner.err_armed);
        if count == 0 {
            errs.remove(site);
        } else {
            errs.insert(site.to_string(), count);
        }
    }

    /// Heals `site` immediately, discarding any remaining transient-error
    /// budget (a disk that recovered faster than expected).
    pub fn heal(&self, site: &str) {
        lock_unpoisoned(&self.inner.err_armed).remove(site);
    }

    /// Consumes one transient-error charge at `site`, if armed.
    pub(crate) fn transient_error(&self, site: &str) -> Option<DurabilityError> {
        let mut errs = lock_unpoisoned(&self.inner.err_armed);
        let n = errs.get_mut(site)?;
        *n -= 1;
        if *n == 0 {
            errs.remove(site);
        }
        Some(DurabilityError::Io(format!("injected transient I/O error at {site}")))
    }

    /// Arms `site` to panic on its next [`FailPoints::panic_if_armed`] — a
    /// one-shot statement-containment probe.
    pub fn arm_panic(&self, site: &str) {
        lock_unpoisoned(&self.inner.panic_armed).insert(site.to_string());
    }

    /// Panics if `site` is armed (consuming the arming). Callers place this
    /// at the control point whose panic behavior they want to prove safe.
    pub fn panic_if_armed(&self, site: &str) {
        if lock_unpoisoned(&self.inner.panic_armed).remove(site) {
            panic!("injected panic at {site}");
        }
    }
}

/// Locks a mutex, recovering from poisoning. Safe for the registries and
/// counters this crate guards with it: their state is updated atomically
/// (insert/remove/increment), so a panicking holder cannot leave them
/// half-written.
pub(crate) fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bounded retry with exponential backoff + jitter for transient durable-I/O
/// failures. This is the engine's *only* tolerance for I/O errors: an
/// operation that still fails after `max_attempts` (or fails non-retryably)
/// escalates to the caller, which trips read-only degraded mode.
///
/// What is retryable: plain [`DurabilityError::Io`] — the EINTR / hiccuping
/// volume class. What is not: `Io` carrying an ENOSPC-class message ("No
/// space left"), which retrying cannot fix; [`DurabilityError::Crashed`]
/// (the harness's simulated process death); and
/// [`DurabilityError::Corrupt`] (retrying would re-read the same bad bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure escalates).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Whether `e` is worth retrying at all.
    pub fn is_retryable(e: &DurabilityError) -> bool {
        match e {
            DurabilityError::Io(msg) => !msg.contains("No space left"),
            DurabilityError::Crashed | DurabilityError::Corrupt(_) => false,
        }
    }

    /// Runs `op` under the policy. Returns the final result plus the number
    /// of retries consumed (0 = first attempt succeeded or failed
    /// non-retryably).
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, DurabilityError>,
    ) -> (Result<T, DurabilityError>, u32) {
        let mut backoff = self.base_backoff;
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) => {
                    if retries + 1 >= self.max_attempts || !Self::is_retryable(&e) {
                        return (Err(e), retries);
                    }
                    retries += 1;
                    if !backoff.is_zero() {
                        // Full backoff plus up to 50% jitter so colliding
                        // writers decorrelate.
                        let half = (backoff.as_nanos() as u64 / 2).max(1);
                        std::thread::sleep(backoff + Duration::from_nanos(jitter_below(half)));
                    }
                    backoff = (backoff * 2).min(self.max_backoff);
                }
            }
        }
    }
}

/// Cheap process-wide jitter source (splitmix64 over an atomic counter) —
/// decorrelates concurrent retry loops without threading RNG state through
/// the storage layer.
fn jitter_below(bound: u64) -> u64 {
    static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut z = SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % bound.max(1)
}

/// Bytes the log-tuned constructors grow the file by ahead of the append
/// point. Appends inside the preallocated region never change the file's
/// size, so each flush's `fdatasync` skips the metadata journal — the size
/// update (and its fsync) is paid once per chunk instead of once per
/// commit.
const LOG_PREALLOC_CHUNK: u64 = 1 << 20;

/// `O_DSYNC` on Linux: every `write(2)` returns only once the data is
/// durable, collapsing the write + `fdatasync` pair into one syscall.
#[cfg(target_os = "linux")]
const O_DSYNC: i32 = 0x1000;

/// A file whose writes buffer in memory (the simulated page cache) until
/// [`DurableFile::flush`] pushes them down with an `fsync`. All durability
/// code writes through this type so the crash harness controls exactly
/// which bytes survive.
#[derive(Debug)]
pub struct DurableFile {
    file: File,
    /// Bytes written but not yet flushed — lost on crash.
    pending: Vec<u8>,
    fp: FailPoints,
    /// Fail-point site consulted by every flush of this file.
    site: &'static str,
    /// Durable bytes written through this handle (the file cursor).
    pos: u64,
    /// Current preallocated file length; flushes extend it chunk-wise.
    prealloc: u64,
    /// Preallocation chunk size (0 = plain file, never preallocated).
    chunk: u64,
    /// File opened `O_DSYNC`: writes are synchronous, flush skips the
    /// separate `fdatasync`.
    dsync: bool,
}

impl DurableFile {
    /// Creates (truncating) a file for writing.
    pub fn create(
        path: &Path,
        fp: FailPoints,
        site: &'static str,
    ) -> Result<DurableFile, DurabilityError> {
        if fp.crashed() {
            return Err(DurabilityError::Crashed);
        }
        let file = File::create(path)?;
        Ok(DurableFile {
            file,
            pending: Vec::new(),
            fp,
            site,
            pos: 0,
            prealloc: 0,
            chunk: 0,
            dsync: false,
        })
    }

    /// Creates (truncating) an append-only log file with the WAL tuning:
    /// chunk-wise preallocation and `O_DSYNC`-style synchronous appends
    /// (where the platform offers the flag). Crash semantics are identical
    /// to [`DurableFile::create`] — only the syscall count per flush drops.
    pub fn create_log(
        path: &Path,
        fp: FailPoints,
        site: &'static str,
    ) -> Result<DurableFile, DurabilityError> {
        Self::open_log(path, fp, site, true)
    }

    /// Opens a log file for appending (recovery re-opens the tail WAL file
    /// after truncating its torn suffix), with the same tuning as
    /// [`DurableFile::create_log`].
    pub fn open_append(
        path: &Path,
        fp: FailPoints,
        site: &'static str,
    ) -> Result<DurableFile, DurabilityError> {
        Self::open_log(path, fp, site, false)
    }

    fn open_log(
        path: &Path,
        fp: FailPoints,
        site: &'static str,
        truncate: bool,
    ) -> Result<DurableFile, DurabilityError> {
        if fp.crashed() {
            return Err(DurabilityError::Crashed);
        }
        let mut opts = OpenOptions::new();
        opts.write(true).create(true).truncate(truncate);
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::fs::OpenOptionsExt;
            opts.custom_flags(O_DSYNC);
        }
        let mut file = opts.open(path)?;
        let pos = file.seek(SeekFrom::End(0))?;
        Ok(DurableFile {
            file,
            pending: Vec::new(),
            fp,
            site,
            pos,
            prealloc: pos,
            chunk: LOG_PREALLOC_CHUNK,
            dsync: cfg!(target_os = "linux"),
        })
    }

    /// Buffers bytes (nothing durable yet).
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), DurabilityError> {
        if self.fp.crashed() {
            return Err(DurabilityError::Crashed);
        }
        self.pending.extend_from_slice(bytes);
        Ok(())
    }

    /// Extends the preallocated region when the pending flush would write
    /// past it, syncing the new size once — steady-state flushes then never
    /// touch file metadata.
    fn reserve(&mut self, add: u64) -> Result<(), DurabilityError> {
        if self.chunk == 0 || self.pos + add <= self.prealloc {
            return Ok(());
        }
        self.prealloc = (self.pos + add).div_ceil(self.chunk) * self.chunk;
        self.file.set_len(self.prealloc)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Pushes pending bytes to the file and `fsync`s. If the flush site is
    /// armed, only the configured prefix of the pending bytes reaches the
    /// file (torn write) and the call fails with
    /// [`DurabilityError::Crashed`].
    pub fn flush(&mut self) -> Result<(), DurabilityError> {
        if let Some(e) = self.fp.transient_error(self.site) {
            // Transient failure: fail *before* any byte moves, keeping the
            // pending buffer intact so a retry re-flushes the same data and
            // the file never holds a torn prefix.
            return Err(e);
        }
        match self.fp.observe(self.site)? {
            None => {
                self.reserve(self.pending.len() as u64)?;
                self.file.write_all(&self.pending)?;
                if !self.dsync {
                    self.file.sync_data()?;
                }
                self.pos += self.pending.len() as u64;
                self.pending.clear();
                Ok(())
            }
            Some(keep_fraction) => {
                let keep = (self.pending.len() as f64 * keep_fraction).floor() as usize;
                let keep = keep.min(self.pending.len());
                // Best-effort torn write: the prefix that "made it to disk"
                // before the kill.
                let _ = self.file.write_all(&self.pending[..keep]);
                let _ = self.file.sync_data();
                self.pending.clear();
                Err(DurabilityError::Crashed)
            }
        }
    }

    /// Bytes buffered but not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

// NOTE: no flush-on-Drop. A dropped DurableFile loses its pending bytes —
// exactly the crash semantics the harness relies on.

const CRC32_POLY: u32 = 0xEDB8_8320;

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// IEEE CRC-32 (the zlib polynomial), table-driven. Every WAL record and
/// segment file carries one so recovery can tell a torn tail from good data.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn unflushed_writes_are_lost_and_flush_persists() {
        let dir = std::env::temp_dir().join(format!("qpe_dio_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f1");
        let fp = FailPoints::default();
        let mut f = DurableFile::create(&path, fp.clone(), "t").unwrap();
        f.write(b"hello").unwrap();
        assert_eq!(f.pending_len(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        f.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        f.write(b" world").unwrap();
        drop(f); // crash before flush: suffix lost
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn armed_flush_tears_the_write_and_poisons_everything() {
        let dir = std::env::temp_dir().join(format!("qpe_dio_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f2");
        let fp = FailPoints::default();
        fp.arm_partial("t", 2, 0.5);
        let mut f = DurableFile::create(&path, fp.clone(), "t").unwrap();
        f.write(b"aaaa").unwrap();
        f.flush().unwrap(); // hit 1: survives
        f.write(b"bbbb").unwrap();
        assert_eq!(f.flush(), Err(DurabilityError::Crashed)); // hit 2: torn
        assert_eq!(std::fs::read(&path).unwrap(), b"aaaabb");
        assert!(fp.crashed());
        // Everything is poisoned from here on.
        assert_eq!(f.write(b"x"), Err(DurabilityError::Crashed));
        assert!(DurableFile::create(&path, fp.clone(), "t").is_err());
        assert_eq!(fp.hit("other"), Err(DurabilityError::Crashed));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_errors_heal_and_keep_pending_intact() {
        let dir = std::env::temp_dir().join(format!("qpe_dio_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f3");
        let fp = FailPoints::default();
        fp.arm_errors("t", 2);
        let mut f = DurableFile::create(&path, fp.clone(), "t").unwrap();
        f.write(b"data").unwrap();
        assert!(matches!(f.flush(), Err(DurabilityError::Io(_))));
        assert!(matches!(f.flush(), Err(DurabilityError::Io(_))));
        // Not a crash: nothing is poisoned, nothing was torn.
        assert!(!fp.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        assert_eq!(f.pending_len(), 4);
        // Healed: the retry flushes the full original payload.
        f.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"data");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retry_policy_absorbs_transient_errors_within_budget() {
        let fp = FailPoints::default();
        fp.arm_errors("ctl", 3);
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let (res, retries) = policy.run(|| fp.hit("ctl"));
        assert!(res.is_ok());
        assert_eq!(retries, 3);
    }

    #[test]
    fn retry_policy_exhausts_and_skips_non_retryable() {
        let fp = FailPoints::default();
        fp.arm_errors("ctl", 10);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let (res, retries) = policy.run(|| fp.hit("ctl"));
        assert!(matches!(res, Err(DurabilityError::Io(_))));
        assert_eq!(retries, 2);
        // ENOSPC-class and crashes are not retried at all.
        assert!(!RetryPolicy::is_retryable(&DurabilityError::Io(
            "No space left on device (os error 28)".into()
        )));
        assert!(!RetryPolicy::is_retryable(&DurabilityError::Crashed));
        let (res, retries) = policy.run(|| -> Result<(), _> { Err(DurabilityError::Crashed) });
        assert_eq!(res, Err(DurabilityError::Crashed));
        assert_eq!(retries, 0);
    }

    #[test]
    fn armed_panic_fires_once() {
        let fp = FailPoints::default();
        fp.arm_panic("stmt");
        let fp2 = fp.clone();
        let r = std::panic::catch_unwind(move || fp2.panic_if_armed("stmt"));
        assert!(r.is_err());
        // One-shot: the next hit is clean.
        fp.panic_if_armed("stmt");
    }

    #[test]
    fn countdown_and_plain_sites() {
        let fp = FailPoints::default();
        fp.arm("ctl", 3);
        assert!(fp.hit("ctl").is_ok());
        assert!(fp.hit("other").is_ok());
        assert!(fp.hit("ctl").is_ok());
        assert_eq!(fp.hit("ctl"), Err(DurabilityError::Crashed));
        assert!(fp.crashed());
    }
}
