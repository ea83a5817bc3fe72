//! Group-by index structures of Algorithm StatusQ: the RCC-Type-Tree and
//! the SWLIN tree (Section 4.2).
//!
//! Status Queries group by RCC type and by SWLIN hierarchy level (Figure 3).
//! * The **RCC-Type-Tree** partitions row ids by the three RCC categories.
//! * The **SWLIN tree** exploits that the 8-digit codes form a radix
//!   hierarchy (Figure 1): sorting `(packed_swlin, id)` pairs makes every
//!   hierarchy node a contiguous range, so "subtree of hierarchies
//!   specified in the GROUP BY conditions" is a pair of binary searches.

use crate::types::{HeapSize, RowId};
use domd_data::rcc::{RccType, Swlin};

/// Partition of row ids by RCC type, each list ascending.
#[derive(Debug, Clone, Default)]
pub struct RccTypeTree {
    by_type: [Vec<RowId>; 3],
}

impl RccTypeTree {
    /// Builds from `(type, id)` pairs (ids need not be presorted).
    pub fn build(rows: impl IntoIterator<Item = (RccType, RowId)>) -> Self {
        let mut by_type: [Vec<RowId>; 3] = Default::default();
        for (t, id) in rows {
            by_type[t.index()].push(id);
        }
        for v in &mut by_type {
            v.sort_unstable();
        }
        RccTypeTree { by_type }
    }

    /// Ascending row ids of the given type.
    pub fn ids_of(&self, t: RccType) -> &[RowId] {
        &self.by_type[t.index()]
    }

    /// Inserts one `(type, id)` pair, keeping the partition ascending.
    /// `false` when the id is already present for that type.
    pub fn insert(&mut self, t: RccType, id: RowId) -> bool {
        let v = &mut self.by_type[t.index()];
        match v.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                v.insert(pos, id);
                true
            }
        }
    }

    /// Removes one `(type, id)` pair; `false` when absent.
    pub fn remove(&mut self, t: RccType, id: RowId) -> bool {
        let v = &mut self.by_type[t.index()];
        match v.binary_search(&id) {
            Ok(pos) => {
                v.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.by_type.iter().map(Vec::len).sum()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HeapSize for RccTypeTree {
    fn heap_bytes(&self) -> usize {
        self.by_type.iter().map(|v| v.capacity() * std::mem::size_of::<RowId>()).sum()
    }
}

/// Radix view of the SWLIN hierarchy: `(packed code, row id)` pairs sorted
/// by code, where each hierarchy node (prefix) owns a contiguous range.
#[derive(Debug, Clone, Default)]
pub struct SwlinTree {
    entries: Vec<(u32, RowId)>,
}

impl SwlinTree {
    /// Builds from `(swlin, id)` pairs.
    pub fn build(rows: impl IntoIterator<Item = (Swlin, RowId)>) -> Self {
        let mut entries: Vec<(u32, RowId)> =
            rows.into_iter().map(|(w, id)| (w.packed(), id)).collect();
        entries.sort_unstable();
        SwlinTree { entries }
    }

    /// Total rows indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts one `(swlin, id)` pair, keeping entries sorted. `false` when
    /// the exact pair is already present.
    pub fn insert(&mut self, swlin: Swlin, id: RowId) -> bool {
        let entry = (swlin.packed(), id);
        match self.entries.binary_search(&entry) {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, entry);
                true
            }
        }
    }

    /// Removes one `(swlin, id)` pair; `false` when absent.
    pub fn remove(&mut self, swlin: Swlin, id: RowId) -> bool {
        let entry = (swlin.packed(), id);
        match self.entries.binary_search(&entry) {
            Ok(pos) => {
                self.entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The contiguous entry range of the hierarchy node `prefix` at depth
    /// `len` digits (e.g. `prefix=434, len=3` for subtree "434"); `u64`
    /// bounds make a prefix wider than `len` digits match nothing.
    pub fn range_for_prefix(&self, prefix: u32, len: u32) -> &[(u32, RowId)] {
        assert!((1..=8).contains(&len), "SWLIN depth must be 1..=8");
        let unit = 10u64.pow(8 - len);
        let lo = u64::from(prefix) * unit;
        let hi = lo + unit; // exclusive
        let start = self.entries.partition_point(|&(w, _)| u64::from(w) < lo);
        let end = self.entries.partition_point(|&(w, _)| u64::from(w) < hi);
        &self.entries[start..end]
    }

    /// Ascending row ids under the hierarchy node `prefix` at depth `len`.
    pub fn ids_for_prefix(&self, prefix: u32, len: u32) -> Vec<RowId> {
        let mut ids: Vec<RowId> =
            self.range_for_prefix(prefix, len).iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// The distinct child prefixes (one digit deeper) under `prefix`/`len`;
    /// `len = 0` with `prefix = 0` enumerates the root's children (first
    /// digits present in the data).
    pub fn child_prefixes(&self, prefix: u32, len: u32) -> Vec<u32> {
        self.child_prefixes_where(prefix, len, |_| true)
    }

    /// [`Self::child_prefixes`] counting only the rows `keep` accepts: a
    /// child none of whose rows is kept is not listed.
    pub fn child_prefixes_where(
        &self,
        prefix: u32,
        len: u32,
        keep: impl Fn(RowId) -> bool,
    ) -> Vec<u32> {
        assert!(len < 8, "SWLIN codes have 8 digits");
        let slice = if len == 0 {
            assert_eq!(prefix, 0, "root enumeration takes prefix 0");
            &self.entries[..]
        } else {
            self.range_for_prefix(prefix, len)
        };
        let unit = 10u32.pow(8 - (len + 1));
        let mut out = Vec::new();
        for &(w, id) in slice {
            let child = w / unit;
            if out.last() != Some(&child) && keep(id) {
                out.push(child);
            }
        }
        out
    }
}

impl HeapSize for SwlinTree {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u32, RowId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Swlin {
        s.parse().unwrap()
    }

    #[test]
    fn type_tree_partitions() {
        let t = RccTypeTree::build([
            (RccType::Growth, 3),
            (RccType::NewWork, 1),
            (RccType::Growth, 0),
            (RccType::NewGrowth, 2),
        ]);
        assert_eq!(t.ids_of(RccType::Growth), &[0, 3]);
        assert_eq!(t.ids_of(RccType::NewWork), &[1]);
        assert_eq!(t.ids_of(RccType::NewGrowth), &[2]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn swlin_prefix_ranges() {
        let t = SwlinTree::build([
            (w("434-11-001"), 0),
            (w("434-12-900"), 1),
            (w("435-00-000"), 2),
            (w("911-90-001"), 3),
            (w("430-00-000"), 4),
        ]);
        assert_eq!(t.ids_for_prefix(4, 1), vec![0, 1, 2, 4]);
        assert_eq!(t.ids_for_prefix(43, 2), vec![0, 1, 2, 4]);
        assert_eq!(t.ids_for_prefix(434, 3), vec![0, 1]);
        assert_eq!(t.ids_for_prefix(43411, 5), vec![0]);
        assert_eq!(t.ids_for_prefix(9, 1), vec![3]);
        assert!(t.ids_for_prefix(5, 1).is_empty());
    }

    #[test]
    fn swlin_children_enumeration() {
        let t = SwlinTree::build([
            (w("434-11-001"), 0),
            (w("435-00-000"), 1),
            (w("911-90-001"), 2),
            (w("100-00-000"), 3),
        ]);
        assert_eq!(t.child_prefixes(0, 0), vec![1, 4, 9]);
        assert_eq!(t.child_prefixes(4, 1), vec![43]);
        assert_eq!(t.child_prefixes(43, 2), vec![434, 435]);
    }

    #[test]
    fn full_depth_prefix_is_exact_code() {
        let t = SwlinTree::build([(w("434-11-001"), 7), (w("434-11-002"), 8)]);
        assert_eq!(t.ids_for_prefix(43411001, 8), vec![7]);
        assert_eq!(t.ids_for_prefix(43411002, 8), vec![8]);
    }

    #[test]
    fn type_tree_dynamic_maintenance() {
        let mut t = RccTypeTree::build([(RccType::Growth, 0), (RccType::Growth, 4)]);
        assert!(t.insert(RccType::Growth, 2));
        assert!(!t.insert(RccType::Growth, 2), "duplicate rejected");
        assert_eq!(t.ids_of(RccType::Growth), &[0, 2, 4]);
        assert!(t.remove(RccType::Growth, 0));
        assert!(!t.remove(RccType::Growth, 0), "double remove rejected");
        assert_eq!(t.ids_of(RccType::Growth), &[2, 4]);
    }

    #[test]
    fn swlin_tree_dynamic_maintenance() {
        let mut t = SwlinTree::build([(w("434-11-001"), 0), (w("911-90-001"), 1)]);
        assert!(t.insert(w("435-00-000"), 2));
        assert!(!t.insert(w("435-00-000"), 2), "duplicate rejected");
        assert_eq!(t.ids_for_prefix(4, 1), vec![0, 2]);
        assert!(t.remove(w("434-11-001"), 0));
        assert!(!t.remove(w("434-11-001"), 0), "double remove rejected");
        assert_eq!(t.ids_for_prefix(4, 1), vec![2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn over_wide_prefix_matches_nothing() {
        let t = SwlinTree::build([(w("434-11-001"), 0), (w("999-99-999"), 1)]);
        assert!(t.ids_for_prefix(43_411_001, 5).is_empty());
        assert!(t.ids_for_prefix(u32::MAX, 1).is_empty());
    }

    #[test]
    fn leading_zero_codes_sort_first() {
        let t = SwlinTree::build([(w("004-11-001"), 0), (w("434-11-001"), 1)]);
        assert_eq!(t.ids_for_prefix(0, 1), vec![0]);
        assert_eq!(t.child_prefixes(0, 0), vec![0, 4]);
    }
}
