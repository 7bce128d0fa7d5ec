//! Materialized recursive views: the registry entry, dependency versioning,
//! and refresh-eligibility bookkeeping.
//!
//! A `CREATE MATERIALIZED VIEW v AS <query>` runs the defining query once and
//! registers its result as a read-only table. The context keeps a [`MatView`]
//! record per view: the analyzed defining query (so a refresh never
//! re-parses), one [`DepRecord`] per base table read (capturing the
//! `(version, rewrite_version, len)` triple as of the last refresh), and —
//! when the static maintenance certificate holds — the converged fixpoint
//! state, resident beside the record ([`CliqueState`]), so the next refresh
//! can resume semi-naive evaluation seeded with only the inserted delta
//! instead of recomputing from scratch. Such a view's result table is derived
//! from that state: a refresh journals only the tuples whose totals changed.
//!
//! Eligibility for incremental refresh is decided *statically* at creation
//! (idempotent `min`/`max` heads with Proven PreM over a single
//! self-recursive clique — the `RA0301` findings of
//! [`rasql_plan::verify_query`] enumerate every violation) and re-checked
//! *dynamically* at refresh time (the delta must be insert-only: a bumped
//! `rewrite_version` on any dependency means rows were deleted or replaced,
//! and the refresh falls back to a full recompute).

use crate::fixpoint::CliqueState;
use rasql_plan::{AnalyzedQuery, BranchStep, JoinBuild, LogicalPlan, PExpr};
use rasql_storage::value::Escaped;
use rasql_storage::{KeyLookup, Relation, Value};
use std::sync::Arc;

/// One base-table dependency of a materialized view, captured as of the
/// view's last (re)materialization.
#[derive(Debug, Clone)]
pub struct DepRecord {
    /// Lower-cased table name.
    pub table: String,
    /// The table's catalog `version` at the last refresh (bumped by every
    /// mutation; a mismatch means the view is stale).
    pub version: u64,
    /// The table's `rewrite_version` at the last refresh (bumped only by
    /// deletes/replaces; a mismatch forces a full recompute).
    pub rewrite_version: u64,
    /// Row count at the last refresh: the suffix `rows[len..]` of the
    /// current relation is exactly the inserted delta.
    pub len: usize,
}

/// A registered materialized view.
#[derive(Debug, Clone)]
pub struct MatView {
    /// View name as written at creation.
    pub name: String,
    /// The analyzed defining query, replayed (in full or resumed) on
    /// refresh.
    pub query: AnalyzedQuery,
    /// The SQL script the view was created from, verbatim. Recovery
    /// re-parses and re-analyzes it (an [`AnalyzedQuery`] holds compiled
    /// plans that never travel through the write-ahead log); plain views the
    /// defining query reads must be created in the same script to be
    /// restorable.
    pub sql: String,
    /// Base tables the defining query reads, with their versions as of the
    /// last refresh.
    pub deps: Vec<DepRecord>,
    /// Monotonically increasing view version, starting at 1 and bumped on
    /// every refresh.
    pub version: u64,
    /// Whether the static maintenance certificate admits delta-seeded
    /// incremental refresh.
    pub eligible: bool,
    /// Why incremental refresh is ruled out (the first `RA0301` finding),
    /// when `eligible` is false.
    pub ineligible_reason: Option<String>,
    /// How the view was last materialized: `"none"` (creation only),
    /// `"full"`, or `"incremental"`.
    pub last_refresh: String,
    /// The converged state a delta-seeded refresh resumes from, when
    /// `eligible`: immutable, replaced by a refresh only once its journal
    /// record is durable.
    pub resident: Option<Arc<CliqueState>>,
}

impl MatView {
    /// Bytes of converged fixpoint state kept resident for this view.
    pub fn retained_bytes(&self) -> u64 {
        self.resident.as_ref().map_or(0, |s| s.size_bytes())
    }

    /// The result table rebuilt from the resident state, when the view's
    /// final plan projects columns of its clique view: what a refresh's
    /// patched table must equal, row for row and in order.
    pub fn state_table(&self) -> Option<Relation> {
        let shape = TableShape::of(&self.query)?;
        Some(shape.table(self.resident.as_ref()?, &self.query))
    }
}

/// A certified view whose final plan is a column projection of one view of
/// its clique: its table is that view's tuples projected, in the resident
/// state's order, so a refresh patches it in place and a key read of it is
/// a probe of the state.
#[derive(Debug, Clone)]
pub(crate) struct TableShape {
    /// The clique view the table projects.
    pub(crate) view: usize,
    /// Per table column, the clique view's column.
    pub(crate) cols: Vec<usize>,
    /// The table column holding the view's key, when the key is one column.
    key: Option<usize>,
}

impl TableShape {
    /// The shape of a certified view's defining query; `None` when its
    /// final plan is not a column projection of a view of its one clique.
    pub(crate) fn of(q: &AnalyzedQuery) -> Option<TableShape> {
        let [clique] = &q.cliques[..] else {
            return None;
        };
        let (name, cols) = match &q.final_plan {
            LogicalPlan::Projection { input, exprs, .. } => {
                let LogicalPlan::ViewScan { view, .. } = &**input else {
                    return None;
                };
                let cols = exprs.iter().map(|e| match e {
                    PExpr::Col(c) => Some(*c),
                    _ => None,
                });
                (view, cols.collect::<Option<Vec<usize>>>()?)
            }
            LogicalPlan::ViewScan { view, schema } => (view, (0..schema.arity()).collect()),
            _ => return None,
        };
        let view = (clique.views.iter()).position(|v| v.name.eq_ignore_ascii_case(name))?;
        let key = match clique.views[view].key_cols[..] {
            [k] => cols.iter().position(|&c| c == k),
            _ => None,
        };
        Some(TableShape { view, cols, key })
    }

    /// The table of `state`.
    pub(crate) fn table(&self, state: &CliqueState, q: &AnalyzedQuery) -> Relation {
        let schema = q.final_plan.schema().clone();
        Relation::new_unchecked(schema, state.table(self.view, &self.cols))
    }

    /// What answers key reads of the table of `state`, when its key is one
    /// column the table keeps.
    pub(crate) fn lookup(&self, state: &Arc<CliqueState>) -> Option<Arc<dyn KeyLookup>> {
        let column = self.key?;
        let lookup = StateLookup {
            state: Arc::clone(state),
            view: self.view,
            column,
        };
        Some(Arc::new(lookup))
    }
}

/// Key reads of a view's table answered from the resident state it is
/// derived from, which it shares with the view's registry record.
struct StateLookup {
    state: Arc<CliqueState>,
    view: usize,
    column: usize,
}

impl KeyLookup for StateLookup {
    fn column(&self) -> usize {
        self.column
    }

    fn position(&self, key: &Value) -> Result<Option<usize>, Escaped> {
        self.state.position(self.view, key)
    }
}

/// Every base table an analyzed query reads — the final plan, the clique
/// base cases, and the base build sides inside recursive branch programs —
/// lower-cased, sorted, deduplicated. These are the tables whose versions a
/// result-cache fingerprint or a [`DepRecord`] snapshot must cover.
pub fn query_dep_tables(q: &AnalyzedQuery) -> Vec<String> {
    let mut out = Vec::new();
    q.final_plan.referenced_tables(&mut out);
    for clique in &q.cliques {
        for view in &clique.views {
            for plan in &view.base {
                plan.referenced_tables(&mut out);
            }
            for prog in &view.recursive {
                for step in &prog.steps {
                    if let BranchStep::HashJoin {
                        build: JoinBuild::Base(plan),
                        ..
                    } = step
                    {
                        plan.referenced_tables(&mut out);
                    }
                }
            }
        }
    }
    let mut out: Vec<String> = out.into_iter().map(|t| t.to_ascii_lowercase()).collect();
    out.sort();
    out.dedup();
    out
}
