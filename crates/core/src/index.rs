//! The one module that feeds the index store ([`rasql_storage::index`]).
//!
//! Every reader of a join index of base data — the co-partitioned build side
//! of a recursive join, a kernel's CSR graph, a view refresh, a
//! `WHERE col = literal` lookup — comes through
//! [`EvalContext::fetch_index`]: snapshot the plan's tables, ask the store,
//! and on anything but a hit evaluate the plan *over that snapshot* (all of
//! it to build, only the appended suffix of one table to advance) so that
//! what an entry records as covered is exactly what it holds.

use crate::error::EngineError;
use crate::eval::EvalContext;
use rasql_exec::Metrics;
use rasql_plan::LogicalPlan;
use rasql_storage::{
    Catalog, CsrGraph, Fetch, HashTable, InEdges, Index, IndexDep, IndexKey, IndexLayout, Relation,
    Row, Value,
};
use std::sync::Arc;

/// What a key lookup's probe found.
pub(crate) enum Probed {
    /// The partition table of an index the literal hashes to.
    Index(Arc<HashTable>),
    /// The rows a view table's state holds under the literal.
    State(Vec<Row>),
}

/// An index with the table versions it covers (`None`: built privately).
type Versioned = (Index, Option<Vec<IndexDep>>);

/// One table of a plan as a fetch saw it.
struct TableSnapshot {
    /// Lower-cased name.
    table: String,
    rel: Arc<Relation>,
    rewrite_version: u64,
}

impl EvalContext<'_> {
    /// The index of `plan`'s output on `key_cols` in `layout`, current as of
    /// now: lent by the store, advanced by the rows appended since it was
    /// built, or built and published. A plan that reads the query's own
    /// views, and a context without a store, build privately — by the same
    /// routine, nothing is kept.
    ///
    /// `eager` is for readers that need the index whatever it costs
    /// (recursion); a lookup passes `false` and gets `None` until the same
    /// key has been asked for twice at one rewrite version. `None` from an
    /// eager fetch means a CSR layout met a row that is not of its types.
    pub(crate) fn fetch_index(
        &self,
        plan: &LogicalPlan,
        key_cols: &[usize],
        layout: IndexLayout,
        eager: bool,
    ) -> Result<Option<Index>, EngineError> {
        let fetched = self.fetch_versioned(plan, key_cols, layout, eager)?;
        Ok(fetched.map(|(index, _)| index))
    }

    /// [`fetch_index`](Self::fetch_index), with the table versions the index
    /// covers (`None` for a private build): what an index derived from it
    /// is fetched at ([`fetch_in_edges`](Self::fetch_in_edges)).
    pub(crate) fn fetch_versioned(
        &self,
        plan: &LogicalPlan,
        key_cols: &[usize],
        layout: IndexLayout,
        eager: bool,
    ) -> Result<Option<Versioned>, EngineError> {
        let store = self.index.filter(|_| !plan.reads_views());
        if store.is_none() && !eager {
            return Ok(None);
        }
        let key = IndexKey {
            plan: plan.cache_text(),
            key_cols: key_cols.to_vec(),
            layout,
        };
        let snaps = self.snapshot_tables(plan)?;
        let Some(store) = store else {
            let rel = self.eval_over(plan, &snaps, None)?;
            return Ok(Index::build(&key, rel.rows()).map(|index| (index, None)));
        };
        let now: Vec<IndexDep> = snaps
            .iter()
            .map(|s| IndexDep {
                table: s.table.clone(),
                rewrite_version: s.rewrite_version,
                len: s.rel.len(),
            })
            .collect();
        match store.fetch(&key, &now) {
            Fetch::Hit(index) => {
                if eager {
                    Metrics::add(&self.cluster.metrics.cache_hits, 1);
                }
                return Ok(Some((index, Some(now))));
            }
            // plan(new) is plan(old) followed by plan(overlay) only when the
            // plan distributes over appends and scans the grown table once.
            Fetch::Grown { table, from }
                if plan.distributes_over_appends() && plan.scans_of(&table) == 1 =>
            {
                let grown = snaps.iter().find(|s| s.table == table);
                let suffix = &grown.expect("grown table is a dependency").rel.rows()[from..];
                let delta = self.eval_over(plan, &snaps, Some((&table, suffix)))?;
                if let Some(index) = store.advance(&key, &table, from, &now, delta.rows()) {
                    return Ok(Some((index, Some(now))));
                }
            }
            Fetch::Grown { .. } => {}
            Fetch::Miss => {
                if !eager && !store.second_use(&key, &now) {
                    return Ok(None);
                }
            }
        }
        let rel = self.eval_over(plan, &snaps, None)?;
        Ok(Index::build(&key, rel.rows())
            .map(|index| (store.publish(key, now.clone(), index), Some(now))))
    }

    /// The in-edges of `graph`, the CSR graph of `plan` on `key_cols` that a
    /// fetch lent at the versions `at` (`None`: built privately, and so are
    /// they), in the [`IndexLayout::InEdges`] `layout`: lent by the store,
    /// or transposed from `graph` — no row read — and published as a build
    /// or as the advance of an entry that covers fewer rows. A graph whose
    /// queries never pull never has one.
    pub(crate) fn fetch_in_edges(
        &self,
        plan: &LogicalPlan,
        key_cols: &[usize],
        layout: IndexLayout,
        graph: &CsrGraph,
        at: Option<&[IndexDep]>,
    ) -> Result<Arc<InEdges>, EngineError> {
        let transposed = || {
            (graph.in_edges().map(Arc::new))
                .ok_or_else(|| EngineError::Other("a graph too large to transpose".into()))
        };
        let (Some(store), Some(at)) = (self.index.filter(|_| !plan.reads_views()), at) else {
            return transposed();
        };
        let key = IndexKey {
            plan: plan.cache_text(),
            key_cols: key_cols.to_vec(),
            layout,
        };
        let index = match store.fetch(&key, at) {
            Fetch::Hit(index) => index,
            Fetch::Grown { table, from } => {
                let index = Index::InEdges(transposed()?);
                (store.advance_to(&key, &table, from, at, index.clone())).unwrap_or(index)
            }
            Fetch::Miss => store.publish(key, at.to_vec(), Index::InEdges(transposed()?)),
        };
        match index {
            Index::InEdges(inn) => Ok(inn),
            _ => Err(EngineError::Other(
                "index store answered a fetch with another layout".into(),
            )),
        }
    }

    /// The rows of a scanned table whose column `col` may equal `literal` —
    /// a superset of them, in table order. A view table keyed on `col`
    /// answers from the state it is derived from (at most the one row under
    /// the key: no index, no stage); any other table from the partition
    /// table of the `Hash` index of `scan` on `[col]` that `literal` hashes
    /// to, probed by the caller. `None` when there is nothing to use (yet).
    pub(crate) fn probe_scan(
        &self,
        scan: &LogicalPlan,
        col: usize,
        literal: &Value,
    ) -> Result<Option<Probed>, EngineError> {
        if let LogicalPlan::TableScan { table, .. } = scan {
            if let Some(rows) = self.catalog.lookup(table, col, literal) {
                return Ok(Some(Probed::State(rows)));
            }
        }
        let layout = IndexLayout::Hash {
            partitions: self.partitions,
        };
        Ok(match self.fetch_index(scan, &[col], layout, false)? {
            Some(Index::Hash(index)) => Some(Probed::Index(Arc::clone(
                index.table_for(std::slice::from_ref(literal)),
            ))),
            _ => None,
        })
    }

    /// Evaluate `plan` with `table` replaced by only `delta_rows`; every
    /// other table it reads sees its full current contents.
    pub(crate) fn eval_with_table_delta(
        &self,
        plan: &LogicalPlan,
        table: &str,
        delta_rows: &[Row],
    ) -> Result<Relation, EngineError> {
        let snaps = self.snapshot_tables(plan)?;
        self.eval_over(
            plan,
            &snaps,
            Some((&table.to_ascii_lowercase(), delta_rows)),
        )
    }

    /// The tables `plan` scans, each once, sorted by name, as the catalog
    /// holds them right now.
    fn snapshot_tables(&self, plan: &LogicalPlan) -> Result<Vec<TableSnapshot>, EngineError> {
        let mut tables: Vec<String> = Vec::new();
        plan.referenced_tables(&mut tables);
        for t in &mut tables {
            t.make_ascii_lowercase();
        }
        tables.sort();
        tables.dedup();
        tables
            .into_iter()
            .map(|table| {
                let (rel, v) = self.catalog.get_versioned(&table)?;
                Ok(TableSnapshot {
                    table,
                    rel,
                    rewrite_version: v.rewrite_version,
                })
            })
            .collect()
    }

    /// Evaluate `plan` against the snapshot — not the live catalog, which may
    /// have grown since — with at most one table overlaid by other rows.
    fn eval_over(
        &self,
        plan: &LogicalPlan,
        snaps: &[TableSnapshot],
        overlay: Option<(&str, &[Row])>,
    ) -> Result<Relation, EngineError> {
        let catalog = Catalog::new();
        for s in snaps {
            let rel = match overlay {
                Some((table, rows)) if table == s.table => Arc::new(Relation::new_unchecked(
                    s.rel.schema().clone(),
                    rows.to_vec(),
                )),
                _ => Arc::clone(&s.rel),
            };
            catalog.register_shared(&s.table, rel)?;
        }
        let eval = EvalContext {
            catalog: &catalog,
            trace: None,
            index: None,
            ..*self
        };
        eval.evaluate(plan)
    }
}
