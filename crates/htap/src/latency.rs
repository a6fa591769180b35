//! Deterministic work-counter → latency model.
//!
//! Executing at laptop scale cannot reproduce the paper's absolute wall-clock
//! numbers (their testbed ran 100 GB on a six-machine cluster), and raw
//! wall-clock at small scale is noise-dominated. Instead, each engine's
//! latency is computed *deterministically* from the work its operators
//! actually performed ([`crate::exec::WorkCounters`]) times calibrated
//! per-unit costs. The constants encode the mechanisms the paper's experts
//! cite:
//!
//! * TP pays per full row touched (row store), little per index probe, and a
//!   small fixed startup — point lookups and index-served top-N are cheap,
//!   full scans and nested-loop joins are expensive.
//! * AP pays per *cell* of referenced columns (columnar, vectorized), has
//!   cheap hash joins, but a large fixed startup (vectorized pipeline setup,
//!   columnar segment opening) — big scans/joins are cheap, tiny queries are
//!   not.
//!
//! The crossover structure (who wins where) is what the router learns and
//! the explainer explains.

use crate::exec::WorkCounters;
use serde::{Deserialize, Serialize};

/// Per-unit latency constants for one engine, in nanoseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCosts {
    /// Fixed per-query startup.
    pub fixed_ns: u64,
    /// Per full row fetched from the row store.
    pub row_scan_ns: u64,
    /// Per columnar cell touched.
    pub cell_scan_ns: u64,
    /// Per B-tree traversal.
    pub index_probe_ns: u64,
    /// Per row located through an index.
    pub index_fetch_ns: u64,
    /// Per predicate evaluation.
    pub filter_ns: u64,
    /// Per nested-loop pair.
    pub nlj_pair_ns: u64,
    /// Per hash-table insert.
    pub hash_build_ns: u64,
    /// Per hash-table probe.
    pub hash_probe_ns: u64,
    /// Per sort comparison.
    pub sort_cmp_ns: u64,
    /// Per top-N heap push.
    pub topn_push_ns: u64,
    /// Per aggregated row.
    pub agg_row_ns: u64,
    /// Per output row.
    pub output_ns: u64,
    /// Per row appended by `INSERT`.
    pub insert_row_ns: u64,
    /// Per row rewritten by `UPDATE` (tuple relocation).
    pub update_row_ns: u64,
    /// Per row tombstoned by `DELETE`.
    pub delete_row_ns: u64,
    /// Per B-tree index entry modification on the write path.
    pub index_update_ns: u64,
    /// Per zone-map block stats header consulted by a pruned scan. Tiny —
    /// a pruned block costs one header check instead of its cells, which is
    /// exactly how block skipping shows up in simulated latencies.
    pub block_check_ns: u64,
}

impl EngineCosts {
    /// Calibrated TP (row engine) constants.
    pub fn tp() -> Self {
        EngineCosts {
            fixed_ns: 500_000, // 0.5 ms
            row_scan_ns: 1_200,
            cell_scan_ns: 0, // TP never does columnar scans
            index_probe_ns: 1_500,
            index_fetch_ns: 400,
            filter_ns: 100,
            nlj_pair_ns: 80,
            hash_build_ns: 0,
            hash_probe_ns: 0,
            sort_cmp_ns: 120,
            topn_push_ns: 120,
            agg_row_ns: 100,
            output_ns: 100,
            // Writes are the row engine's home turf: append + in-place
            // index maintenance.
            insert_row_ns: 1_500,
            update_row_ns: 2_000,
            delete_row_ns: 800,
            index_update_ns: 600,
            block_check_ns: 0, // the row store has no zone maps
        }
    }

    /// Calibrated AP (column engine) constants.
    pub fn ap() -> Self {
        EngineCosts {
            fixed_ns: 15_000_000, // 15 ms pipeline/segment startup
            row_scan_ns: 1_200,   // AP index structures don't exist; row path unused
            cell_scan_ns: 20,
            index_probe_ns: 0,
            index_fetch_ns: 0,
            filter_ns: 50, // vectorized
            nlj_pair_ns: 80,
            hash_build_ns: 150,
            hash_probe_ns: 80,
            sort_cmp_ns: 60,
            topn_push_ns: 60,
            agg_row_ns: 50,
            output_ns: 100,
            // Column-store write amplification: the system routes DML to TP,
            // so these only matter if that routing ever changes — priced
            // high to keep the asymmetry honest.
            insert_row_ns: 6_000,
            update_row_ns: 8_000,
            delete_row_ns: 2_000,
            index_update_ns: 0,
            block_check_ns: 25,
        }
    }

    /// Simulated latency in nanoseconds for the given counters.
    pub fn latency_ns(&self, c: &WorkCounters) -> u64 {
        self.fixed_ns
            + c.rows_scanned * self.row_scan_ns
            + c.cells_scanned * self.cell_scan_ns
            + c.index_probes * self.index_probe_ns
            + c.index_fetches * self.index_fetch_ns
            + c.filter_evals * self.filter_ns
            + c.nlj_pairs * self.nlj_pair_ns
            + c.hash_build_rows * self.hash_build_ns
            + c.hash_probe_rows * self.hash_probe_ns
            + c.sort_comparisons * self.sort_cmp_ns
            + c.topn_pushes * self.topn_push_ns
            + c.agg_rows * self.agg_row_ns
            + c.output_rows * self.output_ns
            + c.rows_inserted * self.insert_row_ns
            + c.rows_updated * self.update_row_ns
            + c.rows_deleted * self.delete_row_ns
            + c.index_updates * self.index_update_ns
            + c.blocks_checked * self.block_check_ns
    }
}

/// The two-engine latency model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyModel {
    /// TP constants.
    pub tp: EngineCosts,
    /// AP constants.
    pub ap: EngineCosts,
    /// Display-time multiplier used when printing "paper-scale" latencies
    /// (e.g. in the Example 1 demo). Never affects winner decisions.
    pub display_scale: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            tp: EngineCosts::tp(),
            ap: EngineCosts::ap(),
            display_scale: 1.0,
        }
    }
}

impl LatencyModel {
    /// TP latency (ns) for the given counters.
    pub fn tp_latency_ns(&self, c: &WorkCounters) -> u64 {
        self.tp.latency_ns(c)
    }

    /// AP latency (ns) for the given counters.
    pub fn ap_latency_ns(&self, c: &WorkCounters) -> u64 {
        self.ap.latency_ns(c)
    }

    /// Formats a nanosecond latency with the display scale applied.
    pub fn display(&self, ns: u64) -> String {
        format_latency((ns as f64 * self.display_scale) as u64)
    }
}

/// Human formatting: `310ms`, `5.80s`, `42µs`.
pub fn format_latency(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{}ms", (ns as f64 / 1e6).round() as u64)
    } else if ns >= 1_000 {
        format!("{}µs", (ns as f64 / 1e3).round() as u64)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(rows: u64, cells: u64) -> WorkCounters {
        WorkCounters {
            rows_scanned: rows,
            cells_scanned: cells,
            ..Default::default()
        }
    }

    #[test]
    fn tp_cheap_for_point_lookups_ap_cheap_for_scans() {
        let m = LatencyModel::default();
        // Point lookup: TP fetches 1 row via index; AP scans a column.
        let tp_point = WorkCounters {
            index_probes: 1,
            index_fetches: 1,
            rows_scanned: 1,
            ..Default::default()
        };
        let ap_point = counters(0, 30_000);
        assert!(m.tp_latency_ns(&tp_point) < m.ap_latency_ns(&ap_point));

        // Big scan: TP reads 100k full rows; AP reads 200k cells.
        let tp_scan = counters(100_000, 0);
        let ap_scan = counters(0, 200_000);
        assert!(m.tp_latency_ns(&tp_scan) > m.ap_latency_ns(&ap_scan));
    }

    #[test]
    fn fixed_overheads_differ() {
        let m = LatencyModel::default();
        let empty = WorkCounters::default();
        assert_eq!(m.tp_latency_ns(&empty), 500_000);
        assert_eq!(m.ap_latency_ns(&empty), 15_000_000);
    }

    #[test]
    fn latency_is_monotone_in_work() {
        let m = LatencyModel::default();
        let small = counters(10, 10);
        let big = counters(1000, 1000);
        assert!(m.tp_latency_ns(&small) < m.tp_latency_ns(&big));
        assert!(m.ap_latency_ns(&small) < m.ap_latency_ns(&big));
    }

    #[test]
    fn formatting() {
        assert_eq!(format_latency(310_000_000), "310ms");
        assert_eq!(format_latency(5_800_000_000), "5.80s");
        assert_eq!(format_latency(42_000), "42µs");
        assert_eq!(format_latency(999), "999ns");
    }

    #[test]
    fn display_scale_only_affects_display() {
        let m = LatencyModel { display_scale: 1000.0, ..LatencyModel::default() };
        let c = counters(100, 0);
        let ns = m.tp_latency_ns(&c);
        // raw latency unchanged; display shows scaled value
        assert_eq!(ns, 500_000 + 100 * 1_200);
        assert!(m.display(ns).ends_with('s') || m.display(ns).ends_with("ms"));
    }
}
