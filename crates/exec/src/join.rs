//! Join kernels (paper Appendix D).
//!
//! - **Hash join**: the base/build side is hashed once and cached across
//!   fixpoint iterations (the paper always builds on the base relation);
//!   the delta streams and probes.
//! - **Sort-merge join**: both sides sorted by key, merged; the base side's
//!   sorted run is likewise built once and reused.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rasql_storage::{KeyIndex, Row, Value, WordMatches, WordTable};

/// The hash table lives beside the index store that keeps it across
/// statements; this is its historical path.
pub use rasql_storage::HashTable;

/// A join build side as the fused pipeline probes it: the build tuples whose
/// key is a key of cells, as cells, in table order. The row table
/// ([`HashTable`]) is the one value cells probe; word cells probe the packed
/// [`WordTable`], so a match extends a packed tuple without a `Value` made.
pub trait JoinTable<C>: Clone + Send + Sync + 'static {
    /// The matches of one probe.
    type Matches<'a>: Iterator<Item = &'a [C]>
    where
        Self: 'a,
        C: 'a;

    /// The build tuples under `key`.
    fn matches(&self, key: &[C]) -> Self::Matches<'_>;

    /// Bytes held: what shipping the built table whole would cost.
    fn size_bytes(&self) -> usize;

    /// The index of the table's keys, when it keeps a [`KeyIndex`].
    fn key_index(&self) -> Option<&KeyIndex> {
        None
    }
}

impl JoinTable<Value> for HashTable {
    type Matches<'a> = std::iter::Map<std::slice::Iter<'a, Row>, fn(&'a Row) -> &'a [Value]>;

    #[inline]
    fn matches(&self, key: &[Value]) -> Self::Matches<'_> {
        self.probe(key).iter().map(Row::values)
    }

    fn size_bytes(&self) -> usize {
        HashTable::size_bytes(self)
    }
}

impl JoinTable<u64> for WordTable {
    type Matches<'a> = WordMatches<'a>;

    #[inline]
    fn matches(&self, key: &[u64]) -> WordMatches<'_> {
        self.probe(key)
    }

    fn size_bytes(&self) -> usize {
        WordTable::size_bytes(self)
    }

    fn key_index(&self) -> Option<&KeyIndex> {
        Some(WordTable::key_index(self))
    }
}

/// A build side pre-sorted on its key columns, reusable across iterations.
#[derive(Debug, Clone)]
pub struct SortedRun {
    rows: Vec<Row>,
    key_cols: Vec<usize>,
}

impl SortedRun {
    /// Sort rows by key columns.
    pub fn build(mut rows: Vec<Row>, key_cols: &[usize]) -> Self {
        rows.sort_unstable_by(|a, b| cmp_keys(a, b, key_cols, key_cols));
        SortedRun {
            rows,
            key_cols: key_cols.to_vec(),
        }
    }

    /// The sorted rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Key columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }
}

fn cmp_keys(a: &Row, b: &Row, a_cols: &[usize], b_cols: &[usize]) -> std::cmp::Ordering {
    for (&ca, &cb) in a_cols.iter().zip(b_cols) {
        let o = a[ca].cmp(&b[cb]);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort-merge join: sorts the probe side, merges against the pre-sorted build
/// run, and emits `probe ++ build` rows through `emit`. Runs whose key holds
/// NULL match nothing, as in the hash join.
pub fn merge_join(
    probe: &mut [Row],
    probe_keys: &[usize],
    build: &SortedRun,
    mut emit: impl FnMut(Row),
) {
    probe.sort_unstable_by(|a, b| cmp_keys(a, b, probe_keys, probe_keys));
    let build_rows = build.rows();
    let bk = build.key_cols();
    let mut bi = 0usize;
    let mut pi = 0usize;
    while pi < probe.len() && bi < build_rows.len() {
        match cmp_keys(&probe[pi], &build_rows[bi], probe_keys, bk) {
            std::cmp::Ordering::Less => pi += 1,
            std::cmp::Ordering::Greater => bi += 1,
            std::cmp::Ordering::Equal => {
                // Find the full runs of equal keys on both sides.
                let b_start = bi;
                let mut b_end = bi + 1;
                while b_end < build_rows.len()
                    && cmp_keys(&build_rows[b_start], &build_rows[b_end], bk, bk)
                        == std::cmp::Ordering::Equal
                {
                    b_end += 1;
                }
                let p_start = pi;
                let mut p_end = pi + 1;
                while p_end < probe.len()
                    && cmp_keys(&probe[p_start], &probe[p_end], probe_keys, probe_keys)
                        == std::cmp::Ordering::Equal
                {
                    p_end += 1;
                }
                let null_key = probe_keys.iter().any(|&c| probe[p_start][c].is_null());
                for p in probe[p_start..p_end].iter().filter(|_| !null_key) {
                    for b in &build_rows[b_start..b_end] {
                        emit(p.concat(b));
                    }
                }
                pi = p_end;
                bi = b_end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::row::int_row;

    #[test]
    fn merge_join_matches_hash_join() {
        let build_rows: Vec<Row> = (0..50).map(|i| int_row(&[i % 10, i])).collect();
        let probe_rows: Vec<Row> = (0..30).map(|i| int_row(&[i % 15, i * 100])).collect();

        // Hash join reference.
        let ht = HashTable::build(&build_rows, &[0]);
        let mut expected = Vec::new();
        for p in &probe_rows {
            for b in ht.probe(std::slice::from_ref(&p[0])) {
                expected.push(p.concat(b));
            }
        }
        expected.sort_unstable();

        // Merge join.
        let run = SortedRun::build(build_rows, &[0]);
        let mut got = Vec::new();
        let mut probe = probe_rows;
        merge_join(&mut probe, &[0], &run, |r| got.push(r));
        got.sort_unstable();

        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn null_keys_match_nothing() {
        let null_row = |v: i64| Row::new(vec![Value::Null, Value::Int(v)]);
        let build = vec![null_row(1), int_row(&[2, 2])];
        let mut probe = vec![null_row(3), int_row(&[2, 4])];
        let ht = HashTable::build(&build, &[0]);
        assert_eq!(ht.len(), 1);
        assert!(ht.probe(&[Value::Null]).is_empty());
        let mut got = Vec::new();
        merge_join(&mut probe, &[0], &SortedRun::build(build, &[0]), |r| {
            got.push(r);
        });
        assert_eq!(got, vec![int_row(&[2, 4, 2, 2])]);
    }

    #[test]
    fn merge_join_empty_sides() {
        let run = SortedRun::build(vec![], &[0]);
        let mut probe = vec![int_row(&[1])];
        let mut n = 0;
        merge_join(&mut probe, &[0], &run, |_| n += 1);
        assert_eq!(n, 0);
    }
}
