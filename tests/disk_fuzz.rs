//! Totality of the disk decoders, in the shape of the wire protocol's fuzz
//! suite: the golden segment and WAL (`tests/golden/disk.*`) are truncated,
//! bit-flipped and spliced, and their checksums are recomputed so that the
//! damaged bytes reach the decoder instead of stopping at the CRC.
//!
//! A damaged segment must read back or fail as `DurabilityError::Corrupt`,
//! never panic. One that reads back must survive every read a scan makes
//! (blocks, block ranges, zone headers, each cell) and re-encode to the
//! bytes it came from. A damaged WAL record must decode or be refused, and
//! replay over it must stop cleanly at the damage.

use proptest::prelude::*;
use qpe_htap::storage::codec;
use qpe_htap::storage::col_store::ColumnTable;
use qpe_htap::storage::crc32;
use qpe_htap::storage::durable_io::{DurabilityError, FailPoints};
use qpe_htap::storage::persist::{read_segment, write_segment};
use qpe_htap::storage::wal::{read_wal_file, WalRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC_LEN: usize = 8;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("qpe_disk_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(N.fetch_add(1, Ordering::Relaxed).to_string())
}

/// One damage to `bytes`: `kind` 0 truncates at `a`, 1 flips bit `a`, and
/// 2 splices — replaces `len` bytes at `b` with the `len` bytes at `a`, or
/// inserts them when `seed` is odd.
fn damage(bytes: &[u8], kind: u8, a: usize, b: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if bytes.is_empty() {
        return out;
    }
    match kind {
        0 => out.truncate(a % bytes.len()),
        1 => {
            let bit = a % (bytes.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
        }
        _ => {
            let a = a % bytes.len();
            let b = b % bytes.len();
            let src = &bytes[a..(a + len).min(bytes.len())];
            let cut = if seed % 2 == 1 {
                0
            } else {
                src.len().min(bytes.len() - b)
            };
            out.splice(b..b + cut, src.iter().copied());
        }
    }
    out
}

/// A segment file around `payload`, with its checksum recomputed.
fn segment_file(payload: &[u8]) -> Vec<u8> {
    let golden = golden("disk.seg");
    let mut file = golden[..MAGIC_LEN].to_vec();
    file.extend_from_slice(payload);
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file
}

fn segment_payload() -> Vec<u8> {
    let golden = golden("disk.seg");
    golden[MAGIC_LEN..golden.len() - 4].to_vec()
}

/// Reads `file` as a segment; a table that reads back is walked the way a
/// scan walks it and must re-encode to the same bytes.
fn read_and_walk(file: &[u8]) -> Result<ColumnTable, DurabilityError> {
    let path = scratch();
    std::fs::write(&path, file).expect("write segment");
    let read = read_segment(&path);
    if let Ok(t) = &read {
        for b in 0..t.n_blocks() {
            let range = t.block_range(b);
            assert!(
                range.start <= range.end && range.end <= t.base_len(),
                "block {b}: {range:?}"
            );
        }
        for ci in 0..t.width() {
            let _ = t.zones(ci);
            for rid in 0..t.physical_len() {
                let _ = t.value(ci, rid);
                let _ = t.is_deleted(rid);
            }
        }
        let _ = t.live_rids();
        write_segment(&path, t, FailPoints::default()).expect("re-encode segment");
        let again = std::fs::read(&path).expect("read re-encoded segment");
        assert!(
            again == file,
            "a segment that decoded re-encoded to other bytes"
        );
    }
    let _ = std::fs::remove_file(&path);
    read
}

fn assert_segment_total(file: &[u8]) {
    match read_and_walk(file) {
        Ok(_) | Err(DurabilityError::Corrupt(_)) => {}
        Err(e) => panic!("damaged segment: expected Ok or Corrupt, got {e:?}"),
    }
}

/// The WAL file's records as `(offset, payload)` pairs.
fn wal_payloads(file: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < file.len() {
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos, file[pos + 8..pos + 8 + len].to_vec()));
        pos += 8 + len;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Truncated, bit-flipped and spliced segment payloads, checksummed
    /// afresh: Ok and walkable, or Corrupt.
    #[test]
    fn segment_decoder_is_total(
        kind in 0u8..3,
        a in 0usize..1_000_000,
        b in 0usize..1_000_000,
        len in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let payload = damage(&segment_payload(), kind, a, b, len, seed);
        assert_segment_total(&segment_file(&payload));
    }

    /// Two bit flips in the segment header and the first columns, where
    /// counts, flags and tags live.
    #[test]
    fn segment_header_flips_are_total(a in 0usize..1_600, b in 0usize..1_600) {
        let once = damage(&segment_payload(), 1, a, 0, 0, 0);
        let twice = damage(&once, 1, b, 0, 0, 0);
        assert_segment_total(&segment_file(&twice));
    }

    /// A damaged WAL record, re-framed with its length and CRC: it decodes
    /// to a record that re-encodes to the same bytes, or it is refused, and
    /// replay stops cleanly at it.
    #[test]
    fn wal_decoder_is_total(
        record in 0usize..5,
        kind in 0u8..3,
        a in 0usize..1_000_000,
        b in 0usize..1_000_000,
        len in 1usize..32,
        seed in 0u64..1_000,
    ) {
        let file = golden("disk.wal");
        let records = wal_payloads(&file);
        let (offset, payload) = &records[record % records.len()];
        let damaged = damage(payload, kind, a, b, len, seed);
        let decoded = codec::decode::<WalRecord>(&damaged);
        if let Ok(rec) = &decoded {
            prop_assert!(codec::encode(rec) == damaged, "a record that decoded re-encoded to other bytes");
        }
        let mut bytes = file[..*offset].to_vec();
        bytes.extend_from_slice(&(damaged.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&damaged).to_le_bytes());
        bytes.extend_from_slice(&damaged);
        bytes.extend_from_slice(&file[offset + 8 + payload.len()..]);
        let path = scratch();
        std::fs::write(&path, &bytes).expect("write WAL");
        let out = read_wal_file(&path).expect("replay reads a damaged WAL");
        let _ = std::fs::remove_file(&path);
        let before = record % records.len();
        prop_assert!(out.records.len() >= before);
        prop_assert_eq!(out.records.len() > before, decoded.is_ok());
    }
}

/// The golden segment's block-rows override, rewritten to `rows` (the
/// payload starts with the table name, then the version and the history
/// floor, then the override's flag byte and value).
fn with_block_rows(rows: u64) -> Vec<u8> {
    let mut payload = segment_payload();
    let name_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let flag = 4 + name_len + 16;
    assert_eq!(payload[flag], 1, "the golden segment pins its block size");
    payload[flag + 1..flag + 9].copy_from_slice(&rows.to_le_bytes());
    segment_file(&payload)
}

/// `set_block_rows` clamps to at least 1, so no writer stores a zero
/// override; one read from disk would divide by zero in `n_blocks`.
#[test]
fn zero_block_rows_override_is_corrupt() {
    assert!(read_and_walk(&with_block_rows(7)).is_ok());
    match read_and_walk(&with_block_rows(0)) {
        Err(DurabilityError::Corrupt(m)) => assert!(m.contains("block-rows"), "message: {m}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|t| t.n_blocks())),
    }
}

/// Every prefix of the golden segment payload is Corrupt, never a table.
#[test]
fn every_truncated_segment_is_corrupt() {
    let payload = segment_payload();
    for cut in 0..payload.len() {
        match read_and_walk(&segment_file(&payload[..cut])) {
            Err(DurabilityError::Corrupt(_)) => {}
            other => panic!(
                "cut at {cut}: expected Corrupt, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}
