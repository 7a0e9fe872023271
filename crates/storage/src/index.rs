//! Hash indices on column subsets of a columnar relation.

use crate::fx::FxHashMap;
use crate::relation::RowsView;

/// A hash index mapping the projection of a row onto `key_cols` to the
/// list of matching **row ids** — positions in the owning relation's
/// insertion-ordered arena. Keys are dictionary ids, so a probe is a
/// hash of a few `u32`s and key equality is branch-light integer
/// comparison — no value hashing or deep compares on the join path.
/// Storing `u32` ids instead of cloned rows keeps an index at four
/// bytes per entry and makes it valid across `Relation::clone()` (the
/// arena is copied verbatim, so ids keep pointing at the same rows).
/// Built once per (relation, column-set) pair on first use and
/// maintained incrementally as the relation grows — the "availability
/// of indices" assumption of the paper's Section 6 cost model.
#[derive(Clone, Debug)]
pub struct Index {
    key_cols: Vec<usize>,
    map: FxHashMap<Vec<u32>, Vec<u32>>,
}

impl Index {
    /// Build an index over an arena view keyed on `key_cols`. Row ids
    /// are the positions in `rows`.
    pub fn build(key_cols: Vec<usize>, rows: RowsView<'_>) -> Index {
        let mut idx = Index { key_cols, map: FxHashMap::default() };
        for id in 0..rows.len() {
            let key = idx.key_cols.iter().map(|&c| rows.cell(id, c)).collect();
            idx.map.entry(key).or_default().push(id as u32);
        }
        idx
    }

    /// The indexed columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Add an encoded row with its arena position (called by the
    /// owning relation on insert).
    pub fn insert_row(&mut self, cell: impl Fn(usize) -> u32, id: u32) {
        let key = self.key_cols.iter().map(|&c| cell(c)).collect();
        self.map.entry(key).or_default().push(id);
    }

    /// Ids of rows whose projection equals the encoded `key`, in
    /// insertion order.
    pub fn get(&self, key: &[u32]) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary;
    use crate::relation::ColumnBuf;
    use gbc_ast::Value;

    fn id(v: i64) -> u32 {
        dictionary::encode(&Value::int(v))
    }

    fn buf(rows: &[&[i64]]) -> ColumnBuf {
        let mut b = ColumnBuf::new();
        for r in rows {
            let ids: Vec<u32> = r.iter().map(|&v| id(v)).collect();
            b.push_ids(&ids);
        }
        b
    }

    #[test]
    fn lookup_by_single_column() {
        let rows = buf(&[&[1, 10], &[1, 20], &[2, 30]]);
        let idx = Index::build(vec![0], rows.view());
        assert_eq!(idx.get(&[id(1)]), &[0, 1]);
        assert_eq!(idx.get(&[id(2)]), &[2]);
        assert_eq!(idx.get(&[id(9)]), &[] as &[u32]);
    }

    #[test]
    fn lookup_by_multiple_columns_respects_order() {
        let rows = buf(&[&[1, 2, 3], &[2, 1, 4]]);
        let idx = Index::build(vec![1, 0], rows.view());
        // Key is (col1, col0).
        assert_eq!(idx.get(&[id(2), id(1)]), &[0]);
        assert_eq!(idx.get(&[id(1), id(2)]), &[1]);
    }

    #[test]
    fn incremental_insert_extends_the_index() {
        let mut idx = Index::build(vec![0], ColumnBuf::new().view());
        assert_eq!(idx.num_keys(), 0);
        let (a, b) = ([id(5), id(1)], [id(5), id(2)]);
        idx.insert_row(|c| a[c], 0);
        idx.insert_row(|c| b[c], 1);
        assert_eq!(idx.get(&[id(5)]), &[0, 1]);
        assert_eq!(idx.num_keys(), 1);
    }
}
