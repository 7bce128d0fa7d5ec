//! Hash partitioning of relational datasets (paper Appendix A).
//!
//! A partition function `h` over a partition key `C ⊆ attrs(R)` maps each tuple
//! to a partition id in `{0, …, n-1}`. The fixpoint operator requires the delta,
//! base and all relations to be *co-partitioned* on the join/group key, which is
//! what makes partition-aware scheduling and stage combination possible.

use crate::hasher::FxHasher;
use crate::row::Row;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// How a dataset is partitioned across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// No known partitioning (e.g. freshly loaded data).
    Unknown {
        /// Number of physical partitions.
        partitions: usize,
    },
    /// Hash-partitioned on the given column indices.
    Hash {
        /// Key column indices.
        key: Vec<usize>,
        /// Number of physical partitions.
        partitions: usize,
    },
    /// A single partition (scalar results, tiny tables).
    Single,
    /// Replicated to every worker (broadcast relations).
    Broadcast {
        /// Number of workers holding a full copy.
        copies: usize,
    },
}

impl Partitioning {
    /// Number of physical partitions.
    pub fn partitions(&self) -> usize {
        match self {
            Partitioning::Unknown { partitions } => *partitions,
            Partitioning::Hash { partitions, .. } => *partitions,
            Partitioning::Single => 1,
            Partitioning::Broadcast { copies } => *copies,
        }
    }

    /// True if this partitioning satisfies "hash on `key` into `n` parts"
    /// (the co-partitioning requirement of Algorithm 4 line 7/12).
    pub fn satisfies_hash(&self, key: &[usize], n: usize) -> bool {
        matches!(self, Partitioning::Hash { key: k, partitions } if k == key && *partitions == n)
    }
}

/// Hash a key (projected values of a row) to a partition id.
#[inline]
pub fn hash_partition(values: &[Value], partitions: usize) -> usize {
    debug_assert!(partitions > 0);
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    (h.finish() % partitions as u64) as usize
}

/// Partition id for `row` under hash partitioning on `key` columns.
#[inline]
pub fn row_partition(row: &Row, key: &[usize], partitions: usize) -> usize {
    let mut h = FxHasher::default();
    for &c in key {
        row.get(c).hash(&mut h);
    }
    (h.finish() % partitions as u64) as usize
}

/// Split rows into `partitions` buckets by hash of `key` columns.
pub fn partition_rows(rows: Vec<Row>, key: &[usize], partitions: usize) -> Vec<Vec<Row>> {
    let mut buckets: Vec<Vec<Row>> = (0..partitions).map(|_| Vec::new()).collect();
    for row in rows {
        let p = row_partition(&row, key, partitions);
        buckets[p].push(row);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    #[test]
    fn partitioning_is_deterministic() {
        let r = int_row(&[7, 9]);
        let p1 = row_partition(&r, &[0], 8);
        let p2 = row_partition(&r, &[0], 8);
        assert_eq!(p1, p2);
        assert!(p1 < 8);
    }

    #[test]
    fn same_key_same_partition() {
        let a = int_row(&[5, 1]);
        let b = int_row(&[5, 99]);
        assert_eq!(row_partition(&a, &[0], 16), row_partition(&b, &[0], 16));
    }

    #[test]
    fn partition_rows_covers_all() {
        let rows: Vec<Row> = (0..100).map(|i| int_row(&[i, i + 1])).collect();
        let buckets = partition_rows(rows, &[0], 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        // No pathological skew on sequential keys.
        assert!(
            buckets.iter().all(|b| b.len() > 5),
            "{:?}",
            buckets.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn satisfies_hash() {
        let p = Partitioning::Hash {
            key: vec![0],
            partitions: 4,
        };
        assert!(p.satisfies_hash(&[0], 4));
        assert!(!p.satisfies_hash(&[1], 4));
        assert!(!p.satisfies_hash(&[0], 8));
        assert!(!Partitioning::Single.satisfies_hash(&[0], 1));
    }
}
