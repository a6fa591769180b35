//! Persistent column segments and the versioned manifest.
//!
//! A **segment file** (`<table>.v<version>.seg`) serializes one table's full
//! physical column-store state — base columns in their encoded
//! representation, delta builders, per-row version stamps — framed as
//! `magic + payload + crc32(payload)`; the payload is one `Segment`, in the
//! layout declared below (see [`super::codec`] for the envelopes and how
//! each field travels). Recovery rejects anything whose
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

use super::codec;
use super::col_store::{ColumnData, ColumnTable, DictColumn, ForInt, RleRuns};
use super::durable_io::{crc32, DurabilityError, DurableFile, FailPoints};
use crate::stats::DbStats;
use crate::tpch::TpchConfig;
use crate::{wire_impl, wire_struct};
use qpe_sql::catalog::MemoryCatalog;
use qpe_sql::value::Value;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
// Segment layout
// ---------------------------------------------------------------------------
// Encoded representations persist as-is — a recovered base must be
// *physically* identical to the pre-crash base, not merely equal after
// decoding, because scans, zone maps and bloom filters depend on the
// representation (zones and blooms themselves are recomputed, which is what
// makes them byte-identical after recovery: same base, same deterministic
// build).

wire_impl! {
    ColumnData: "column tag" {
        0 => (ColumnData::Int(v)) { v: Vec<i64> },
        1 => (ColumnData::Float(v)) { v: Vec<f64> },
        2 => (ColumnData::Str(v)) { v: Vec<String> },
        3 => (ColumnData::Date(v)) { v: Vec<i32> },
        4 => (ColumnData::Dict(DictColumn { codes, values })) {
            codes: Vec<u32>,
            values: Arc<[String]>
        },
        5 => (ColumnData::RleInt(RleRuns { ends, vals })) {
            ends: Vec<u32>,
            vals: Vec<i64> [= ends]
        },
        6 => (ColumnData::RleDate(RleRuns { ends, vals })) {
            ends: Vec<u32>,
            vals: Vec<i32> [= ends]
        },
        7 => (ColumnData::Nullable { nulls, values }) { nulls: Vec<bool>, values: Box<ColumnData> },
        8 => (ColumnData::Mixed(v)) { v: Vec<Value> },
        9 => (ColumnData::ForInt(ForInt { n_rows, refs, maxs, widths, offsets, packed })) {
            n_rows: usize,
            refs: Vec<i64>,
            maxs: Vec<i64> [= refs],
            widths: Vec<u8> [= refs],
            offsets: Vec<u32> [= refs],
            packed: Vec<u64>
        },
    }
}

wire_impl! {
    Option<usize>: "block-rows flag" {
        0 => (None) {},
        1 => (Some(rows)) { rows: usize },
    }
}

wire_struct! {
    /// One table's physical state: the payload of a segment file.
    struct Segment {
        name: String,
        version: u64,
        history_floor: u64,
        block_rows_override: Option<usize>,
        base_rows: usize,
        delta_rows: usize,
        base: Arc<Vec<ColumnData>>,
        delta: Arc<Vec<ColumnData>> [= base],
        /// Per-row MVCC version stamps over the physical rid space: replay
        /// on top of a recovered segment must see the exact visibility
        /// history the live table had at checkpoint time.
        row_begin: Arc<Vec<u64>>,
        row_end: Arc<Vec<u64>> [= row_begin],
    }
}

impl Segment {
    /// The structural invariants readers rely on and the layout cannot
    /// state, so corrupt bytes surface here as [`DurabilityError::Corrupt`]
    /// rather than as a panic in a scan.
    fn check(&self) -> Result<(), String> {
        let (version, floor) = (self.version, self.history_floor);
        if floor > version {
            return Err(format!("history floor {floor} exceeds version {version}"));
        }
        if self.block_rows_override == Some(0) {
            return Err("zero block-rows override".into());
        }
        let rids = self.base_rows.checked_add(self.delta_rows);
        if self.base.is_empty() && rids != Some(0) {
            return Err("a segment without columns holds rows".into());
        }
        let parts = [(&self.base, self.base_rows, "base"), (&self.delta, self.delta_rows, "delta")];
        for (cols, rows, what) in parts {
            for col in cols.iter() {
                check_column(col, true)?;
                if col.len() != rows {
                    return Err(format!("{what} column length differs from header"));
                }
            }
        }
        if rids != Some(self.row_begin.len()) {
            return Err("row-version vector length differs from rid space".into());
        }
        for (&b, &e) in self.row_begin.iter().zip(self.row_end.iter()) {
            if b > version || (e != u64::MAX && (e > version || e <= b)) {
                return Err("row version stamp out of range".into());
            }
        }
        Ok(())
    }
}

/// Dictionary codes in range, RLE run ends ascending, FOR blocks consistent,
/// and a null mask only at the top, as long as the typed vector under it.
fn check_column(col: &ColumnData, allow_nullable: bool) -> Result<(), String> {
    match col {
        ColumnData::Dict(d) if d.codes.iter().any(|&c| c as usize >= d.values.len()) => {
            Err("dictionary code out of range".into())
        }
        ColumnData::RleInt(RleRuns { ends, .. }) | ColumnData::RleDate(RleRuns { ends, .. })
            if !ends.windows(2).all(|w| w[0] < w[1]) || ends.first() == Some(&0) =>
        {
            Err("RLE run ends not ascending".into())
        }
        ColumnData::ForInt(f) => f.check().map_err(String::from),
        ColumnData::Nullable { .. } if !allow_nullable => Err("nested null mask".into()),
        ColumnData::Nullable { nulls, values } => {
            check_column(values, false)?;
            if values.len() != nulls.len() {
                return Err("null mask and typed vector lengths differ".into());
            }
            Ok(())
        }
        _ => Ok(()),
    }
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
    let payload = codec::encode(&Segment {
        name: table.name().to_string(),
        version: table.version(),
        history_floor: table.history_floor(),
        block_rows_override: table.block_rows_override,
        base_rows: table.base_len(),
        delta_rows: table.delta_len(),
        base: Arc::clone(&table.base),
        delta: Arc::clone(&table.delta),
        row_begin: Arc::clone(&table.row_begin),
        row_end: Arc::clone(&table.row_end),
    });
    let mut f = DurableFile::create(path, fp, "seg")?;
    f.write(SEGMENT_MAGIC)?;
    f.write(&payload)?;
    f.write(&codec::encode(&crc32(&payload)))?;
    f.flush()
}

/// Reads and validates a segment file back into a [`ColumnTable`] (zones
/// recomputed). Any framing, checksum or structural violation is
/// [`DurabilityError::Corrupt`].
pub fn read_segment(path: &Path) -> Result<ColumnTable, DurabilityError> {
    let bytes = fs::read(path)?;
    let corrupt = |what: &str| DurabilityError::Corrupt(format!("{}: {what}", path.display()));
    if bytes.len() < SEGMENT_MAGIC.len() + 4 || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt("bad segment magic or truncated file"));
    }
    let payload = &bytes[SEGMENT_MAGIC.len()..bytes.len() - 4];
    let stored: u32 = codec::decode(&bytes[bytes.len() - 4..])?;
    if crc32(payload) != stored {
        return Err(corrupt("segment checksum mismatch"));
    }
    let seg: Segment = codec::decode(payload).map_err(|e| corrupt(&e.0))?;
    seg.check().map_err(|e| corrupt(&e))?;
    Ok(ColumnTable::from_parts(
        seg.name,
        seg.base,
        seg.delta,
        seg.row_begin,
        seg.row_end,
        seg.version,
        seg.history_floor,
        seg.block_rows_override,
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
