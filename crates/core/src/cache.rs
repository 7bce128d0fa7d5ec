//! The version-keyed cache of ad-hoc query results.
//!
//! An entry keys on a *structural* identity (the rendered plan text) plus a
//! *data* identity (the `(version, rewrite_version)` pairs of every base
//! table the plan reads). Because the data identity is part of the key, a
//! stale entry can never be served — invalidation sweeps exist to bound
//! memory and to feed the `cache_invalidations` counter, not for
//! correctness. (Join indexes of base data live in
//! [`rasql_storage::IndexStore`], which advances them instead.)

use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::{Catalog, Relation};
use std::collections::VecDeque;

/// Render a table-version fingerprint: the sorted `(table, version,
/// rewrite_version)` triples of `tables` as seen by `catalog` right now.
/// Tables missing from the catalog fingerprint as `?` (the entry then simply
/// never matches a later lookup).
pub fn version_fingerprint(catalog: &Catalog, tables: &[String]) -> String {
    let mut names: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
    names.sort();
    names.dedup();
    let mut out = String::new();
    for name in &names {
        match catalog.version_of(name) {
            Some(v) => {
                out.push_str(&format!("{name}:{}:{};", v.version, v.rewrite_version));
            }
            None => out.push_str(&format!("{name}:?;")),
        }
    }
    out
}

/// One cached ad-hoc query result: the materialized relation plus the
/// per-clique iteration counts its statistics reported.
#[derive(Clone)]
pub struct CachedQuery {
    /// The result relation.
    pub relation: Relation,
    /// Fixpoint iterations per clique, as originally executed.
    pub iterations: Vec<u32>,
}

struct Entry {
    key: String,
    /// Lower-cased base tables the entry depends on (for invalidation sweeps).
    deps: Vec<String>,
    value: CachedQuery,
}

/// The version-keyed result cache for ad-hoc queries (see
/// [`crate::EngineConfig::result_cache_entries`]): a bounded LRU keyed by
/// plan text + version fingerprint, whose front entry is the least recently
/// read or written.
pub struct ResultCache {
    entries: RankedMutex<VecDeque<Entry>>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables it).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: RankedMutex::new(LockRank::ResultCache, VecDeque::new()),
            capacity,
        }
    }

    /// True when the cache can never hold anything.
    pub fn disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Look up a cached result.
    pub fn get(&self, key: &str) -> Option<CachedQuery> {
        let mut entries = self.entries.lock();
        let at = entries.iter().position(|e| e.key == key)?;
        let entry = entries.remove(at)?;
        let value = entry.value.clone();
        entries.push_back(entry);
        Some(value)
    }

    /// Insert a result (no-op when the key is already present or capacity
    /// is 0).
    pub fn put(&self, key: String, deps: Vec<String>, value: CachedQuery) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock();
        if entries.iter().any(|e| e.key == key) {
            return;
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(Entry { key, deps, value });
    }

    /// Drop entries reading `table`; returns how many were dropped.
    pub fn invalidate(&self, table: &str) -> u64 {
        let needle = table.to_ascii_lowercase();
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|e| !e.deps.contains(&needle));
        (before - entries.len()) as u64
    }

    /// Drop everything; returns how many entries were dropped.
    pub fn clear(&self) -> u64 {
        let mut entries = self.entries.lock();
        let n = entries.len() as u64;
        entries.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::row::int_row;

    fn rel() -> Relation {
        Relation::edges(&[(1, 2)])
    }

    #[test]
    fn lru_eviction_and_dedup() {
        let c = ResultCache::new(2);
        let q = CachedQuery {
            relation: rel(),
            iterations: vec![1],
        };
        c.put("a".into(), vec!["t".into()], q.clone());
        c.put("a".into(), vec!["t".into()], q.clone());
        c.put("b".into(), vec!["t".into()], q.clone());
        assert!(c.get("a").is_some(), "a duplicate put took no second slot");
        c.put("c".into(), vec!["u".into()], q);
        assert!(c.get("b").is_none(), "the least recently read entry goes");
        assert!(c.get("a").is_some() && c.get("c").is_some());
    }

    #[test]
    fn a_key_read_between_puts_survives_one_off_puts() {
        let capacity = 4;
        let c = ResultCache::new(capacity);
        let q = CachedQuery {
            relation: rel(),
            iterations: vec![],
        };
        c.put("hot".into(), vec!["t".into()], q.clone());
        for i in 0..2 * capacity {
            c.put(format!("once{i}"), vec!["t".into()], q.clone());
            assert!(c.get("hot").is_some(), "evicted after {i} one-off puts");
        }
    }

    #[test]
    fn invalidation_is_per_table() {
        let c = ResultCache::new(4);
        let q = CachedQuery {
            relation: rel(),
            iterations: vec![],
        };
        c.put("a".into(), vec!["edge".into()], q.clone());
        c.put("b".into(), vec!["other".into()], q);
        assert_eq!(c.invalidate("EDGE"), 1);
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_some());
        assert_eq!(c.clear(), 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c = ResultCache::new(0);
        assert!(c.disabled());
        c.put(
            "a".into(),
            vec![],
            CachedQuery {
                relation: rel(),
                iterations: vec![],
            },
        );
        assert!(c.get("a").is_none());
    }

    #[test]
    fn fingerprint_tracks_versions() {
        let cat = Catalog::new();
        cat.register("t", rel()).unwrap();
        let tables = vec!["T".to_string(), "t".to_string()];
        let f0 = version_fingerprint(&cat, &tables);
        cat.insert_rows("t", vec![int_row(&[3, 4])]).unwrap();
        let f1 = version_fingerprint(&cat, &tables);
        assert_ne!(f0, f1);
        assert!(version_fingerprint(&cat, &["missing".into()]).contains('?'));
    }
}
