//! Persistent column segments and the versioned manifest.
//!
//! A **segment file** (`<table>.v<version>.seg`) serializes one table's full
//! physical column-store state — base columns in their encoded
//! representation, delta builders, tombstone bitmap, version stamp — framed
//! as `magic + payload + crc32(payload)`. Recovery rejects anything whose
//! magic or checksum does not verify; a half-written segment therefore reads
//! as [`DurabilityError::Corrupt`], never as silently wrong data. Zone maps
//! are *not* persisted: they are deterministic over the base and recomputed
//! when [`read_segment`] rebuilds the table, keeping segments smaller and
//! the format simpler.
//!
//! The **manifest** (`manifest.json`) is the durable root pointer: catalog,
//! statistics, generator config, the WAL generation replay starts from, and
//! the list of segment files that make up version `N`. It publishes
//! atomically — serialized to `manifest.tmp`, fsynced, then `rename`d over
//! the live file — so a crash at any point leaves either the old or the new
//! manifest fully intact, and every file the *old* manifest references is
//! only deleted (see [`clean_stale`]) after the rename lands.

use super::codec::{self, Reader};
use super::col_store::{ColumnData, ColumnTable, DictColumn, ForInt, RleRuns};
use super::durable_io::{crc32, DurabilityError, DurableFile, FailPoints};
use crate::stats::DbStats;
use crate::tpch::TpchConfig;
use qpe_sql::catalog::MemoryCatalog;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Segment file magic (8 bytes).
const SEGMENT_MAGIC: &[u8; 8] = b"QPESEG2\0";

/// Manifest schema version.
pub const MANIFEST_FORMAT: u32 = 1;

/// The manifest's on-disk file name.
pub const MANIFEST_FILE: &str = "manifest.json";

/// WAL file name of generation `gen` (`wal.<gen>`).
pub fn wal_file_name(gen: u64) -> String {
    format!("wal.{gen}")
}

/// The WAL generation encoded in a file name, if it is a WAL file.
fn parse_wal_gen(name: &str) -> Option<u64> {
    name.strip_prefix("wal.").and_then(|s| s.parse().ok())
}

/// Segment file name for one table at one manifest version.
pub fn segment_file_name(table: &str, version: u64) -> String {
    format!("{table}.v{version}.seg")
}

/// One table's segment file, as referenced by the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentRef {
    /// Table name.
    pub table: String,
    /// Segment file name (relative to the database directory).
    pub file: String,
}

/// The durable root: everything recovery needs besides the segment files
/// and the WAL chain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Checkpoint version this manifest publishes.
    pub version: u64,
    /// WAL generation replay starts from (`wal.<wal_gen>`; later generations
    /// — left by a checkpoint that crashed before publishing — are replayed
    /// in sequence after it).
    pub wal_gen: u64,
    /// Table catalog, including runtime-created indexes.
    pub catalog: MemoryCatalog,
    /// Optimizer statistics as of the checkpoint (replay advances them
    /// exactly as the live run did).
    pub stats: DbStats,
    /// Dataset/generator configuration.
    pub config: TpchConfig,
    /// Segment file per table.
    pub tables: Vec<SegmentRef>,
}

// ---------------------------------------------------------------------------
// Column codec
// ---------------------------------------------------------------------------
// Tags: 0=Int 1=Float 2=Str 3=Date 4=Dict 5=RleInt 6=RleDate 7=Nullable
// 8=Mixed 9=ForInt. Encoded representations persist as-is — a recovered base
// must be *physically* identical to the pre-crash base, not merely equal
// after decoding, because scans, zone maps and bloom filters depend on the
// representation (zones and blooms themselves are recomputed, which is what
// makes them byte-identical after recovery: same base, same deterministic
// build).

fn put_col(buf: &mut Vec<u8>, col: &ColumnData) {
    match col {
        ColumnData::Int(v) => {
            codec::put_u8(buf, 0);
            codec::put_u32(buf, v.len() as u32);
            for x in v {
                codec::put_i64(buf, *x);
            }
        }
        ColumnData::Float(v) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, v.len() as u32);
            for x in v {
                codec::put_f64(buf, *x);
            }
        }
        ColumnData::Str(v) => {
            codec::put_u8(buf, 2);
            codec::put_u32(buf, v.len() as u32);
            for s in v {
                codec::put_str(buf, s);
            }
        }
        ColumnData::Date(v) => {
            codec::put_u8(buf, 3);
            codec::put_u32(buf, v.len() as u32);
            for d in v {
                codec::put_i32(buf, *d);
            }
        }
        ColumnData::Dict(d) => {
            codec::put_u8(buf, 4);
            codec::put_u32(buf, d.codes.len() as u32);
            for c in &d.codes {
                codec::put_u32(buf, *c);
            }
            codec::put_u32(buf, d.values.len() as u32);
            for s in d.values.iter() {
                codec::put_str(buf, s);
            }
        }
        ColumnData::RleInt(r) => {
            codec::put_u8(buf, 5);
            codec::put_u32(buf, r.ends.len() as u32);
            for e in &r.ends {
                codec::put_u32(buf, *e);
            }
            for v in &r.vals {
                codec::put_i64(buf, *v);
            }
        }
        ColumnData::RleDate(r) => {
            codec::put_u8(buf, 6);
            codec::put_u32(buf, r.ends.len() as u32);
            for e in &r.ends {
                codec::put_u32(buf, *e);
            }
            for v in &r.vals {
                codec::put_i32(buf, *v);
            }
        }
        ColumnData::Nullable { nulls, values } => {
            codec::put_u8(buf, 7);
            codec::put_u32(buf, nulls.len() as u32);
            for &n in nulls {
                codec::put_u8(buf, n as u8);
            }
            put_col(buf, values);
        }
        ColumnData::Mixed(v) => {
            codec::put_u8(buf, 8);
            codec::put_u32(buf, v.len() as u32);
            for val in v {
                codec::put_value(buf, val);
            }
        }
        ColumnData::ForInt(f) => {
            codec::put_u8(buf, 9);
            codec::put_u64(buf, f.len() as u64);
            codec::put_u32(buf, f.refs.len() as u32);
            for x in &f.refs {
                codec::put_i64(buf, *x);
            }
            for x in &f.maxs {
                codec::put_i64(buf, *x);
            }
            for w in &f.widths {
                codec::put_u8(buf, *w);
            }
            for o in &f.offsets {
                codec::put_u32(buf, *o);
            }
            codec::put_u32(buf, f.packed.len() as u32);
            for w in &f.packed {
                codec::put_u64(buf, *w);
            }
        }
    }
}

/// Reads one column, validating every structural invariant the readers rely
/// on (dictionary codes in range, RLE run ends strictly ascending, null mask
/// aligned with its typed vector) so corrupt bytes surface here as
/// [`DurabilityError::Corrupt`] rather than as a panic in a scan.
fn read_col(r: &mut Reader<'_>, allow_nullable: bool) -> Result<ColumnData, DurabilityError> {
    Ok(match r.u8()? {
        0 => {
            let n = r.count(8)?;
            ColumnData::Int((0..n).map(|_| r.i64()).collect::<Result<_, _>>()?)
        }
        1 => {
            let n = r.count(8)?;
            ColumnData::Float((0..n).map(|_| r.f64()).collect::<Result<_, _>>()?)
        }
        2 => {
            let n = r.count(4)?;
            ColumnData::Str((0..n).map(|_| r.str_()).collect::<Result<_, _>>()?)
        }
        3 => {
            let n = r.count(4)?;
            ColumnData::Date((0..n).map(|_| r.i32()).collect::<Result<_, _>>()?)
        }
        4 => {
            let n = r.count(4)?;
            let codes: Vec<u32> = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
            let m = r.count(4)?;
            let values: Vec<String> = (0..m).map(|_| r.str_()).collect::<Result<_, _>>()?;
            if codes.iter().any(|&c| c as usize >= values.len()) {
                return Err(DurabilityError::Corrupt(
                    "dictionary code out of range".into(),
                ));
            }
            ColumnData::Dict(DictColumn { codes, values: values.into() })
        }
        5 => {
            let n = r.count(12)?;
            let ends: Vec<u32> = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
            check_runs(&ends)?;
            let vals: Vec<i64> = (0..n).map(|_| r.i64()).collect::<Result<_, _>>()?;
            ColumnData::RleInt(RleRuns { ends, vals })
        }
        6 => {
            let n = r.count(8)?;
            let ends: Vec<u32> = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
            check_runs(&ends)?;
            let vals: Vec<i32> = (0..n).map(|_| r.i32()).collect::<Result<_, _>>()?;
            ColumnData::RleDate(RleRuns { ends, vals })
        }
        7 if allow_nullable => {
            let n = r.count(1)?;
            let nulls: Vec<bool> = (0..n)
                .map(|_| r.u8().map(|b| b != 0))
                .collect::<Result<_, _>>()?;
            let values = read_col(r, false)?;
            if values.len() != n {
                return Err(DurabilityError::Corrupt(
                    "null mask and typed vector lengths differ".into(),
                ));
            }
            ColumnData::Nullable { nulls, values: Box::new(values) }
        }
        8 => {
            let n = r.count(1)?;
            ColumnData::Mixed((0..n).map(|_| codec::read_value(r)).collect::<Result<_, _>>()?)
        }
        9 => {
            let n_rows = r.u64()? as usize;
            let nb = r.count(21)?;
            let refs: Vec<i64> = (0..nb).map(|_| r.i64()).collect::<Result<_, _>>()?;
            let maxs: Vec<i64> = (0..nb).map(|_| r.i64()).collect::<Result<_, _>>()?;
            let widths: Vec<u8> = (0..nb).map(|_| r.u8()).collect::<Result<_, _>>()?;
            let offsets: Vec<u32> = (0..nb).map(|_| r.u32()).collect::<Result<_, _>>()?;
            let np = r.count(8)?;
            let packed: Vec<u64> = (0..np).map(|_| r.u64()).collect::<Result<_, _>>()?;
            ColumnData::ForInt(
                ForInt::from_parts(n_rows, refs, maxs, widths, offsets, packed)
                    .map_err(|e| DurabilityError::Corrupt(e.into()))?,
            )
        }
        t => {
            return Err(DurabilityError::Corrupt(format!(
                "unknown column tag {t}"
            )))
        }
    })
}

fn check_runs(ends: &[u32]) -> Result<(), DurabilityError> {
    let ascending = ends.windows(2).all(|w| w[0] < w[1]);
    if !ascending || ends.first() == Some(&0) {
        return Err(DurabilityError::Corrupt("RLE run ends not ascending".into()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// Serializes one table's physical state — checkpoints pass the head view
/// ([`ColumnTable::view_at`]) that MVCC reads pin — to `path` through the
/// crash-injectable file layer (flush site `"seg"`), framed
/// `magic + payload + crc32`.
pub fn write_segment(
    path: &Path,
    table: &ColumnTable,
    fp: FailPoints,
) -> Result<(), DurabilityError> {
    let mut payload = Vec::new();
    codec::put_str(&mut payload, table.name());
    codec::put_u64(&mut payload, table.version());
    codec::put_u64(&mut payload, table.history_floor());
    match table.block_rows_override {
        Some(b) => {
            codec::put_u8(&mut payload, 1);
            codec::put_u64(&mut payload, b as u64);
        }
        None => codec::put_u8(&mut payload, 0),
    }
    codec::put_u64(&mut payload, table.base_len() as u64);
    codec::put_u64(&mut payload, table.delta_len() as u64);
    codec::put_u32(&mut payload, table.width() as u32);
    for col in table.base.iter() {
        put_col(&mut payload, col);
    }
    for col in table.delta.iter() {
        put_col(&mut payload, col);
    }
    // Per-row MVCC version stamps (begin/end) over the physical rid space;
    // replay on top of a recovered segment must see the exact visibility
    // history the live table had at checkpoint time.
    let (begin, end) = table.row_versions();
    codec::put_u32(&mut payload, begin.len() as u32);
    for &b in begin {
        codec::put_u64(&mut payload, b);
    }
    for &e in end {
        codec::put_u64(&mut payload, e);
    }
    let mut f = DurableFile::create(path, fp, "seg")?;
    f.write(SEGMENT_MAGIC)?;
    f.write(&payload)?;
    f.write(&crc32(&payload).to_le_bytes())?;
    f.flush()
}

/// Reads and validates a segment file back into a [`ColumnTable`] (zones
/// recomputed). Any framing, checksum or structural violation is
/// [`DurabilityError::Corrupt`].
pub fn read_segment(path: &Path) -> Result<ColumnTable, DurabilityError> {
    let bytes = fs::read(path)?;
    if bytes.len() < SEGMENT_MAGIC.len() + 4 || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(DurabilityError::Corrupt(format!(
            "{}: bad segment magic or truncated file",
            path.display()
        )));
    }
    let payload = &bytes[SEGMENT_MAGIC.len()..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(DurabilityError::Corrupt(format!(
            "{}: segment checksum mismatch",
            path.display()
        )));
    }
    let mut r = Reader::new(payload);
    let name = r.str_()?;
    let version = r.u64()?;
    let history_floor = r.u64()?;
    if history_floor > version {
        return Err(DurabilityError::Corrupt(format!(
            "history floor {history_floor} exceeds version {version}"
        )));
    }
    let block_rows_override = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        t => {
            return Err(DurabilityError::Corrupt(format!(
                "bad block-rows flag {t}"
            )))
        }
    };
    let base_rows = r.u64()? as usize;
    let delta_rows = r.u64()? as usize;
    let width = r.count(2)?;
    let mut base = Vec::with_capacity(width);
    for _ in 0..width {
        let col = read_col(&mut r, true)?;
        if col.len() != base_rows {
            return Err(DurabilityError::Corrupt(
                "base column length differs from header".into(),
            ));
        }
        base.push(col);
    }
    let mut delta = Vec::with_capacity(width);
    for _ in 0..width {
        let col = read_col(&mut r, true)?;
        if col.len() != delta_rows {
            return Err(DurabilityError::Corrupt(
                "delta column length differs from header".into(),
            ));
        }
        delta.push(col);
    }
    let n = r.count(1)?;
    if n != base_rows + delta_rows {
        return Err(DurabilityError::Corrupt(
            "row-version vector length differs from rid space".into(),
        ));
    }
    let row_begin: Vec<u64> = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
    let row_end: Vec<u64> = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
    for (&b, &e) in row_begin.iter().zip(&row_end) {
        if b > version || (e != u64::MAX && (e > version || e <= b)) {
            return Err(DurabilityError::Corrupt(
                "row version stamp out of range".into(),
            ));
        }
    }
    if !r.is_done() {
        return Err(DurabilityError::Corrupt("trailing bytes in segment".into()));
    }
    Ok(ColumnTable::from_parts(
        name,
        base,
        delta,
        row_begin,
        row_end,
        version,
        history_floor,
        block_rows_override,
    ))
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Atomically publishes a manifest: write `manifest.tmp` + fsync (flush site
/// `"manifest"`), then rename over [`MANIFEST_FILE`]. Control sites
/// `"manifest:pre_rename"` / `"manifest:post_rename"` bracket the rename for
/// the crash harness.
pub fn write_manifest(
    dir: &Path,
    manifest: &Manifest,
    fp: &FailPoints,
) -> Result<(), DurabilityError> {
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| DurabilityError::Io(format!("serialize manifest: {e}")))?;
    let tmp = dir.join("manifest.tmp");
    let mut f = DurableFile::create(&tmp, fp.clone(), "manifest")?;
    f.write(json.as_bytes())?;
    f.flush()?;
    fp.hit("manifest:pre_rename")?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    fp.hit("manifest:post_rename")?;
    // Durably record the rename itself (best-effort; not all platforms
    // support fsync on a directory handle).
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Loads the manifest, or `None` when the directory holds no database yet.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, DurabilityError> {
    let path = dir.join(MANIFEST_FILE);
    let json = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let m: Manifest = serde_json::from_str(&json).map_err(|e| {
        DurabilityError::Corrupt(format!("{}: {e}", path.display()))
    })?;
    if m.format != MANIFEST_FORMAT {
        return Err(DurabilityError::Corrupt(format!(
            "unsupported manifest format {}",
            m.format
        )));
    }
    Ok(Some(m))
}

/// Best-effort removal of files the published manifest no longer references:
/// WAL generations before `manifest.wal_gen`, segment files not in the
/// table list, and a leftover `manifest.tmp`. Runs strictly *after* the
/// manifest rename, so a crash during cleanup only leaves garbage, never
/// dangling references.
pub fn clean_stale(dir: &Path, manifest: &Manifest) {
    let referenced: Vec<&str> = manifest.tables.iter().map(|t| t.file.as_str()).collect();
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match parse_wal_gen(name) {
            Some(gen) => gen < manifest.wal_gen,
            None => {
                name == "manifest.tmp"
                    || (name.ends_with(".seg") && !referenced.contains(&name))
            }
        };
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// WAL generation files present in `dir` from `from_gen` upward, in replay
/// order, stopping at the first gap (a missing generation means everything
/// later belongs to a different lineage and must be ignored).
pub fn wal_chain(dir: &Path, from_gen: u64) -> Vec<(u64, PathBuf)> {
    let mut chain = Vec::new();
    let mut gen = from_gen;
    loop {
        let path = dir.join(wal_file_name(gen));
        if !path.exists() {
            break;
        }
        chain.push((gen, path));
        gen += 1;
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qpe_persist_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    fn exotic_table() -> ColumnTable {
        // Exercise every ColumnData representation, plus a live delta and
        // tombstones, so the round trip covers the whole codec.
        let n = 128;
        let ints: Vec<Value> = (0..n).map(|i| Value::Int((i / 32) as i64)).collect();
        let floats: Vec<Value> = (0..n).map(|i| Value::Float(i as f64 / 2.0)).collect();
        let dates: Vec<Value> = (0..n).map(|i| Value::Date(i / 64)).collect();
        let dict: Vec<Value> = (0..n)
            .map(|i| Value::Str(["aa", "bb", "cc"][(i % 3) as usize].to_string()))
            .collect();
        let plain: Vec<Value> = (0..n).map(|i| Value::Str(format!("s{i}"))).collect();
        let nullable: Vec<Value> = (0..n)
            .map(|i| if i % 7 == 0 { Value::Null } else { Value::Int(i as i64) })
            .collect();
        let mixed: Vec<Value> = (0..n)
            .map(|i| if i % 2 == 0 { Value::Int(i as i64) } else { Value::Str("x".into()) })
            .collect();
        // Run-free but narrow-domain: rejected by RLE, accepted by FOR.
        let nar: Vec<Value> = (0..n).map(|i| Value::Int((i * 13 % 97) as i64)).collect();
        let mut t = ColumnTable::from_columns(
            "exotic",
            &[ints, floats, dates, dict, plain, nullable, mixed, nar],
        );
        assert!(
            matches!(t.column(7), ColumnData::ForInt(_)),
            "fixture column 7 must land on the FOR representation"
        );
        t.insert(&[
            Value::Int(999),
            Value::Float(0.25),
            Value::Date(77),
            Value::Str("dd".into()),
            Value::Str("tail".into()),
            Value::Null,
            Value::Float(1.5),
            Value::Int(42),
        ]);
        t.delete(3);
        t.delete(60);
        t
    }

    fn assert_tables_identical(a: &ColumnTable, b: &ColumnTable) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.physical_len(), b.physical_len());
        assert_eq!(a.delta_len(), b.delta_len());
        assert_eq!(a.deleted_len(), b.deleted_len());
        assert_eq!(a.width(), b.width());
        assert_eq!(a.block_rows(), b.block_rows());
        assert_eq!(a.history_floor(), b.history_floor());
        assert_eq!(
            a.row_versions(),
            b.row_versions(),
            "per-row begin/end versions changed across the round trip"
        );
        for ci in 0..a.width() {
            // Same representation, not merely equal values.
            assert_eq!(
                std::mem::discriminant(a.column(ci)),
                std::mem::discriminant(b.column(ci)),
                "column {ci} representation changed across the round trip"
            );
            for rid in 0..a.physical_len() {
                assert_eq!(a.is_deleted(rid), b.is_deleted(rid));
                assert_eq!(
                    a.value(ci, rid).total_cmp(&b.value(ci, rid)),
                    std::cmp::Ordering::Equal,
                    "cell ({ci},{rid})"
                );
            }
            assert_eq!(a.zones(ci).len(), b.zones(ci).len());
        }
    }

    #[test]
    fn segment_round_trips_every_representation() {
        let dir = tempdir("roundtrip");
        let t = exotic_table();
        let path = dir.join(segment_file_name("exotic", 1));
        write_segment(&path, &t, FailPoints::default()).expect("write");
        let back = read_segment(&path).expect("read");
        assert_tables_identical(&t, &back);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_tampered_segment_reads_as_corrupt_not_panic() {
        let dir = tempdir("torn");
        let t = exotic_table();
        let path = dir.join("t.v1.seg");
        // Torn write via the crash layer: only a prefix reaches disk.
        let fp = FailPoints::default();
        fp.arm_partial("seg", 1, 0.5);
        assert!(matches!(
            write_segment(&path, &t, fp),
            Err(DurabilityError::Crashed)
        ));
        assert!(matches!(
            read_segment(&path),
            Err(DurabilityError::Corrupt(_))
        ));
        // A full write with one flipped byte fails the checksum.
        write_segment(&path, &t, FailPoints::default()).expect("write");
        let mut bytes = fs::read(&path).expect("read bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).expect("tamper");
        assert!(matches!(
            read_segment(&path),
            Err(DurabilityError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    fn manifest_fixture() -> Manifest {
        Manifest {
            format: MANIFEST_FORMAT,
            version: 3,
            wal_gen: 3,
            catalog: MemoryCatalog::default(),
            stats: DbStats::default(),
            config: TpchConfig::default(),
            tables: vec![SegmentRef { table: "t".into(), file: "t.v3.seg".into() }],
        }
    }

    #[test]
    fn manifest_round_trips_and_missing_reads_as_none() {
        let dir = tempdir("manifest");
        assert!(read_manifest(&dir).expect("empty dir").is_none());
        let m = manifest_fixture();
        write_manifest(&dir, &m, &FailPoints::default()).expect("write");
        let back = read_manifest(&dir).expect("read").expect("present");
        assert_eq!(back.version, 3);
        assert_eq!(back.wal_gen, 3);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.tables[0].file, "t.v3.seg");
        assert!(!dir.join("manifest.tmp").exists(), "tmp renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_preserves_old_manifest() {
        let dir = tempdir("atomic");
        let mut m = manifest_fixture();
        write_manifest(&dir, &m, &FailPoints::default()).expect("v3");
        // Next publication dies between tmp-fsync and rename.
        m.version = 4;
        let fp = FailPoints::default();
        fp.arm("manifest:pre_rename", 1);
        assert!(write_manifest(&dir, &m, &fp).is_err());
        let back = read_manifest(&dir).expect("read").expect("still present");
        assert_eq!(back.version, 3, "old manifest must survive the crash");
        // The stranded tmp is swept on the next successful cycle.
        assert!(dir.join("manifest.tmp").exists());
        clean_stale(&dir, &back);
        assert!(!dir.join("manifest.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_stale_sweeps_only_unreferenced_files() {
        let dir = tempdir("sweep");
        let m = manifest_fixture(); // wal_gen = 3, references t.v3.seg
        for name in ["wal.1", "wal.2", "wal.3", "wal.4", "t.v2.seg", "t.v3.seg", "other.txt"] {
            fs::write(dir.join(name), b"x").expect("touch");
        }
        clean_stale(&dir, &m);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["other.txt", "t.v3.seg", "wal.3", "wal.4"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_chain_follows_generations_until_first_gap() {
        let dir = tempdir("chain");
        for name in ["wal.2", "wal.3", "wal.5"] {
            fs::write(dir.join(name), b"x").expect("touch");
        }
        let chain = wal_chain(&dir, 2);
        let gens: Vec<u64> = chain.iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, [2, 3], "generation 5 is beyond the gap");
        assert!(wal_chain(&dir, 7).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
