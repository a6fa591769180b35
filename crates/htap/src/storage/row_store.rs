//! Row-oriented storage for the TP engine.
//!
//! Rows are materialized `Vec<Value>` tuples; every access touches the whole
//! row (the latency model charges full tuple width per row read), which is
//! what makes wide analytical scans expensive on this side. The charge is a
//! model, not a copy: the row interpreter reads tuples in place through
//! [`RowTable::iter_live`] and [`RowTable::row`], and copies only the rows
//! an operator keeps.
//!
//! The row store is the *write-applying* side of the HTAP pair: inserts
//! append, deletes tombstone the slot (rids stay stable for the indexes),
//! updates relocate the tuple (tombstone + append, the classic heap-update
//! discipline), and every B-tree index is maintained in place on each write.
//! Compaction rebuilds the live rows and indexes from the column store's
//! merged base and installs them over the re-packed rid space
//! ([`crate::storage::StoredTable`]).

use super::index::BTreeIndex;
use qpe_sql::catalog::TableDef;
use qpe_sql::value::Value;
use std::collections::HashMap;

/// A row-store table: tuples plus B-tree indexes on the primary key and any
/// declared secondary columns.
#[derive(Debug)]
pub struct RowTable {
    name: String,
    rows: Vec<Vec<Value>>,
    /// Tombstone flags, positionally aligned with `rows`.
    deleted: Vec<bool>,
    /// Number of tombstoned slots (`live = rows.len() - n_deleted`).
    n_deleted: usize,
    /// column index -> B-tree index
    indexes: HashMap<usize, BTreeIndex>,
    width: usize,
}

impl RowTable {
    /// Builds the table (and its indexes) from column-major data.
    pub fn from_columns(def: &TableDef, columns: &[Vec<Value>]) -> Self {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        let width = columns.len();
        let mut rows = Vec::with_capacity(n);
        for r in 0..n {
            let mut row = Vec::with_capacity(width);
            for col in columns {
                row.push(col[r].clone());
            }
            rows.push(row);
        }
        let mut indexes = HashMap::new();
        for (ci, col) in def.columns.iter().enumerate() {
            if def.has_index(&col.name) {
                indexes.insert(ci, BTreeIndex::build(&columns[ci]));
            }
        }
        RowTable {
            name: def.name.clone(),
            rows,
            deleted: vec![false; n],
            n_deleted: 0,
            indexes,
            width,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of *live* rows.
    pub fn row_count(&self) -> usize {
        self.rows.len() - self.n_deleted
    }

    /// Number of physical slots (live rows plus tombstones); rids live in
    /// `0..physical_len()`.
    pub fn physical_len(&self) -> usize {
        self.rows.len()
    }

    /// True when some slots are tombstoned.
    pub fn has_deletions(&self) -> bool {
        self.n_deleted > 0
    }

    /// True when slot `rid` is tombstoned.
    pub fn is_deleted(&self, rid: usize) -> bool {
        self.deleted[rid]
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Borrow a full row by id (tombstoned slots keep their last tuple; the
    /// scan paths and indexes never hand out tombstoned rids).
    pub fn row(&self, rid: usize) -> &[Value] {
        &self.rows[rid]
    }

    /// Live rows in rid order (sequential scan order).
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &Vec<Value>)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(rid, _)| !self.deleted[rid])
    }

    /// The B-tree index on column `ci`, if one exists.
    pub fn index_on(&self, ci: usize) -> Option<&BTreeIndex> {
        self.indexes.get(&ci)
    }

    /// Column indexes that have B-tree indexes.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.indexes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of B-tree indexes on this table.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Appends a row, maintaining every index. Returns the new rid.
    pub fn insert(&mut self, row: Vec<Value>) -> u32 {
        debug_assert_eq!(row.len(), self.width);
        let rid = self.rows.len() as u32;
        for (&ci, idx) in self.indexes.iter_mut() {
            idx.insert(row[ci].clone(), rid);
        }
        self.rows.push(row);
        self.deleted.push(false);
        rid
    }

    /// Tombstones a row, removing it from every index. Returns false when
    /// the rid was already deleted.
    pub fn delete(&mut self, rid: u32) -> bool {
        let r = rid as usize;
        if self.deleted[r] {
            return false;
        }
        for (&ci, idx) in self.indexes.iter_mut() {
            idx.remove(&self.rows[r][ci], rid);
        }
        self.deleted[r] = true;
        self.n_deleted += 1;
        true
    }

    /// Relocating update (tombstone + append): returns the row's new rid.
    pub fn update(&mut self, rid: u32, new_row: Vec<Value>) -> u32 {
        self.delete(rid);
        self.insert(new_row)
    }

    fn rebuild_index(&mut self, ci: usize) {
        let mut idx = BTreeIndex::default();
        for (rid, row) in self.rows.iter().enumerate() {
            if !self.deleted[rid] {
                idx.insert(row[ci].clone(), rid as u32);
            }
        }
        self.indexes.insert(ci, idx);
    }

    /// Adds a secondary index at runtime (mirrors the paper's "an additional
    /// index has been created on c_phone" user context). Only live rows are
    /// indexed.
    pub fn create_index(&mut self, ci: usize) {
        if self.indexes.contains_key(&ci) {
            return;
        }
        self.rebuild_index(ci);
    }

    /// Rebuilds a row table from recovered *physical* state: all slots in
    /// rid order with their tombstone flags (tombstoned slots keep their
    /// last tuple, exactly like the live table). Indexes cover live rows
    /// only, matching incremental index maintenance.
    pub(crate) fn from_physical(
        def: &TableDef,
        rows: Vec<Vec<Value>>,
        deleted: Vec<bool>,
        indexed: &[usize],
    ) -> Self {
        debug_assert_eq!(rows.len(), deleted.len());
        let n_deleted = deleted.iter().filter(|&&d| d).count();
        let width = def.columns.len();
        let mut t = RowTable {
            name: def.name.clone(),
            rows,
            deleted,
            n_deleted,
            indexes: HashMap::new(),
            width,
        };
        for &ci in indexed {
            t.rebuild_index(ci);
        }
        t
    }

    /// Installs compacted state built from the merged column store:
    /// re-packed live rows and their rebuilt indexes.
    pub(crate) fn install_compacted(
        &mut self,
        rows: Vec<Vec<Value>>,
        indexes: HashMap<usize, BTreeIndex>,
    ) {
        self.deleted = vec![false; rows.len()];
        self.n_deleted = 0;
        self.rows = rows;
        self.indexes = indexes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpe_sql::catalog::{ColumnDef, DataType};

    fn def() -> TableDef {
        TableDef {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "k".into(), data_type: DataType::Int, ndv: 3 },
                ColumnDef { name: "v".into(), data_type: DataType::Str, ndv: 3 },
            ],
            row_count: 3,
            indexed_columns: vec![],
            primary_key: "k".into(),
        }
    }

    fn data() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(10), Value::Int(20), Value::Int(30)],
            vec![
                Value::Str("x".into()),
                Value::Str("y".into()),
                Value::Str("z".into()),
            ],
        ]
    }

    #[test]
    fn builds_rows_from_columns() {
        let t = RowTable::from_columns(&def(), &data());
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.width(), 2);
        assert_eq!(t.row(1), &[Value::Int(20), Value::Str("y".into())]);
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn primary_key_is_indexed_automatically() {
        let t = RowTable::from_columns(&def(), &data());
        assert_eq!(t.indexed_columns(), vec![0]);
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(20)), &[1]);
        assert!(t.index_on(1).is_none());
    }

    #[test]
    fn create_index_at_runtime() {
        let mut t = RowTable::from_columns(&def(), &data());
        t.create_index(1);
        assert_eq!(t.index_on(1).unwrap().lookup(&Value::Str("z".into())), &[2]);
        // idempotent
        t.create_index(1);
        assert_eq!(t.indexed_columns(), vec![0, 1]);
    }

    #[test]
    fn insert_appends_and_indexes() {
        let mut t = RowTable::from_columns(&def(), &data());
        let rid = t.insert(vec![Value::Int(40), Value::Str("w".into())]);
        assert_eq!(rid, 3);
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(40)), &[3]);
    }

    #[test]
    fn delete_tombstones_and_unindexes() {
        let mut t = RowTable::from_columns(&def(), &data());
        assert!(t.delete(1));
        assert!(!t.delete(1)); // already gone
        assert_eq!(t.row_count(), 2);
        assert!(t.has_deletions());
        assert!(t.is_deleted(1));
        assert!(t.index_on(0).unwrap().lookup(&Value::Int(20)).is_empty());
        let live: Vec<usize> = t.iter_live().map(|(rid, _)| rid).collect();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    fn update_relocates_and_reindexes() {
        let mut t = RowTable::from_columns(&def(), &data());
        let new_rid = t.update(0, vec![Value::Int(11), Value::Str("x2".into())]);
        assert_eq!(new_rid, 3);
        assert_eq!(t.row_count(), 3);
        assert!(t.index_on(0).unwrap().lookup(&Value::Int(10)).is_empty());
        assert_eq!(t.index_on(0).unwrap().lookup(&Value::Int(11)), &[3]);
    }
}
