//! [`RaSqlContext`] — the public entry point of the engine.

use crate::cache::{version_fingerprint, CachedQuery, ResultCache};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::eval::{EvalContext, ViewData};
use crate::fixpoint::{CliqueState, FixpointExecutor};
use crate::matview::{query_dep_tables, DepRecord, MatView, TableShape};
use rasql_exec::{
    AdmissionController, CancellationToken, Cluster, ClusterConfig, ExecError, Metrics,
    MetricsSnapshot, OperatorTrace, QueryGovernor, QueryTrace,
};
use rasql_parser::ast::Query;
use rasql_parser::{parse_statements, Statement};
use rasql_plan::{
    analyze_query, analyze_statement, optimize, optimize_spec, verify_query, AnalyzedQuery,
    AnalyzedStatement, LogicalPlan, PlanError, VerifyReport, ViewCatalog,
};
use rasql_storage::snapshot::{encode_state, read_snapshot, sweep_stray_temp};
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::wal::{replay, WAL_FILE};
use rasql_storage::{
    Catalog, CrashInjector, DataType, Derived, DurableState, IndexStats, IndexStore, Relation, Row,
    Schema, StorageError, TableImage, Value, ViewDelta, ViewDep, ViewImage, Wal, WalRecord,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod lifecycle;

pub use lifecycle::QueryStats;
use lifecycle::{Clock, Run};

/// The result of one statement: its relation, execution statistics, and —
/// when tracing is on — the full [`QueryTrace`].
///
/// This replaces the old `sql() → Relation` + `last_stats()` side channel:
/// everything a statement produced travels in one value.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows (empty for `CREATE VIEW`).
    pub relation: Relation,
    /// Iterations, wall-clock time, and metric deltas for this statement.
    pub stats: QueryStats,
    /// Per-iteration fixpoint counters, stage spans, and operator counters.
    /// `Some` when tracing was enabled (via [`EngineConfig::tracing`],
    /// [`RaSqlContext::set_tracing`], or `EXPLAIN ANALYZE`).
    pub trace: Option<QueryTrace>,
}

/// Private views, in definition order: a session's, or a replay's copy.
pub(crate) type Views = RankedMutex<Vec<(String, LogicalPlan)>>;

/// Where a statement resolves its names, where the `CREATE VIEW`s of its
/// script land, and who may cancel it — all a [`Session`](crate::Session)
/// supplies to the statement lifecycle besides the statement itself. The
/// default scope is the context's own: the shared catalog, no parent token.
#[derive(Default)]
pub(crate) struct Scope<'a> {
    /// The private views the scope's names resolve in first, over the
    /// shared catalog: a session's, or a throwaway copy for a replay that
    /// must publish nothing (`prepare`, recovery). `None` resolves in — and
    /// publishes to — the shared catalog.
    views: Option<&'a Views>,
    /// The shared catalog with `views` on top, built on first use and dropped
    /// when a statement changes the shared catalog under the script.
    overlay: Option<ViewCatalog>,
    /// Parent of every statement's cancellation token (a session's
    /// interrupt).
    parent: Option<&'a CancellationToken>,
    /// The `CREATE VIEW`s this script has run, in order: with the shared
    /// catalog, the scope a materialized view is defined in — the one
    /// recovery replays its defining script in.
    script: Vec<(String, LogicalPlan)>,
}

impl<'a> Scope<'a> {
    /// A scope over private `views`, its statements' tokens children of
    /// `parent`.
    pub(crate) fn private(views: &'a Views, parent: Option<&'a CancellationToken>) -> Self {
        Scope {
            views: Some(views),
            parent,
            ..Scope::default()
        }
    }

    /// `err` of a materialized view's definition, named for what it is when
    /// the unknown name is a view private to this scope.
    fn private_view_error(&self, err: PlanError) -> PlanError {
        match &err {
            PlanError::UnknownTable(name)
                if self.views.is_some_and(|v| {
                    v.lock().iter().any(|(n, _)| n.eq_ignore_ascii_case(name))
                }) =>
            {
                PlanError::Invalid(format!(
                    "a materialized view may not read view '{name}': it is private to this \
                     session and not created by the view's own script, so recovery could not \
                     replay it — define '{name}' in the same script or on the shared context"
                ))
            }
            _ => err,
        }
    }
}

/// A statement after phases 1–3 of its lifecycle.
pub(crate) struct Planned {
    /// The analyzed statement, every plan in it optimized.
    pub(crate) statement: AnalyzedStatement,
    /// The static verifier's report on the query the statement wraps (empty
    /// for a plain query, which runs without one).
    pub(crate) verification: VerifyReport,
    /// The analysis of the query a `CHECK` wraps, or why there is none —
    /// what its dynamic PreM fallback runs on. `None` for anything else.
    pub(crate) checked: Option<Result<AnalyzedQuery, PlanError>>,
}

/// One executed query: its result, every clique view's converged tuples by
/// lower-cased name, its run and — for a delta-seeded refresh — the state
/// the resumed clique converged to.
struct Executed {
    /// The answer; `None` for a resumed view whose table is patched from
    /// its state instead.
    relation: Option<Relation>,
    views: HashMap<String, ViewData>,
    run: Run,
    state: Option<CliqueState>,
}

/// What a delta-seeded refresh resumes from: the view's resident state,
/// lent, and each grown dependency's appended rows.
struct Resume {
    state: Arc<CliqueState>,
    changed: Vec<(String, Vec<Row>)>,
    /// The view's table is patched from the converged state: the final plan
    /// is not evaluated.
    patched: bool,
}

/// A RaSQL session: registered tables, a simulated cluster, and the SQL
/// entry points.
///
/// ```
/// use rasql_core::RaSqlContext;
/// use rasql_storage::Relation;
///
/// let ctx = RaSqlContext::builder().workers(2).build();
/// ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)])).unwrap();
/// let result = ctx.query("SELECT count(*) FROM edge").unwrap();
/// assert_eq!(result.relation.rows()[0][0], rasql_storage::Value::Int(2));
/// ```
pub struct RaSqlContext {
    catalog: Catalog,
    planner_catalog: RankedMutex<ViewCatalog>,
    cluster: Cluster,
    config: EngineConfig,
    tracing: AtomicBool,
    /// Concurrency gate: queries beyond `max_concurrent_queries` wait in a
    /// bounded queue; beyond `admission_queue` they are rejected.
    admission: Arc<AdmissionController>,
    /// Monotonic query-id source (ids are per-context, starting at 1).
    query_seq: AtomicU64,
    /// Cancellation tokens of queries currently executing, by query id —
    /// the registry [`RaSqlContext::kill`] resolves against.
    active: RankedMutex<HashMap<u64, CancellationToken>>,
    /// Where per-query governors place spill files.
    spill_root: PathBuf,
    /// Join indexes of base data — co-partitioned hash build sides and CSR
    /// kernel graphs — shared by recursion, view refresh and point lookups.
    index: IndexStore,
    /// Ad-hoc query results, keyed by plan text + base-table versions
    /// (capacity from [`EngineConfig::result_cache_entries`]).
    result_cache: ResultCache,
    /// Registered materialized views, by lower-cased name.
    matviews: RankedMutex<BTreeMap<String, MatView>>,
    /// Per-view serialization guards held across CREATE/REFRESH/DROP of a
    /// materialized view. Two concurrent refreshes of the same view (easily
    /// triggered by two clients reading it stale, since reads auto-refresh)
    /// would otherwise interleave their resident-state, catalog, and
    /// dependency-record publishes — pairing one refresh's contents with the
    /// other's `DepRecord`s, which never reads as stale again. Entries are
    /// never removed: a guard may still be held by a late waiter after its
    /// view is dropped, and a tiny map entry per view name ever used is
    /// cheaper than racing on guard identity.
    view_locks: RankedMutex<HashMap<String, Arc<RankedMutex<()>>>>,
    /// Write-ahead journaling state; `Some` when the context owns a data
    /// directory ([`EngineConfig::data_dir`]).
    durability: Option<Durability>,
}

/// The durable half of a context: the log appender plus the compaction
/// threshold. Catalog mutations journal through `wal` from inside the
/// catalog's own critical section; view lifecycle events are appended by the
/// context after their registry publish.
struct Durability {
    wal: Arc<Wal>,
    /// Publish a compacting snapshot once the log holds this many records
    /// (0 disables compaction; the log then only shrinks at startup).
    snapshot_every: u64,
    /// The crashpoint injector shared with `wal` (counts write/fsync/rename
    /// boundaries even when disarmed — the crash-soak's enumeration).
    injector: CrashInjector,
}

impl RaSqlContext {
    /// A context with the default (fully optimized) configuration.
    pub fn in_memory() -> Self {
        Self::builder().build()
    }

    /// The default configuration, to adjust with its setters and finish
    /// with [`EngineConfig::build`]; a preset such as
    /// `EngineConfig::bigdatalog_like()` starts a chain the same way.
    pub fn builder() -> EngineConfig {
        EngineConfig::default()
    }

    /// Recover the exact pre-crash catalog and view registry from `dir`
    /// (snapshot plus WAL tail), then attach the journal so subsequent
    /// mutations are durable. Runs before the context is shared, so plain
    /// sequential application is race-free.
    fn recover(&mut self, dir: &std::path::Path) -> Result<(), EngineError> {
        std::fs::create_dir_all(dir).map_err(StorageError::Io)?;
        // A stray `snapshot.tmp` can only be a publish that died before its
        // rename; the published snapshot (if any) is intact.
        sweep_stray_temp(dir)?;
        let state = read_snapshot(dir)?.unwrap_or_default();
        let outcome = replay(&dir.join(WAL_FILE))?;
        let had_history = state.version_floor > 0
            || !state.tables.is_empty()
            || !state.views.is_empty()
            || !outcome.records.is_empty()
            || outcome.truncated_at.is_some();
        self.catalog.bump_version_floor(state.version_floor);
        let mut views: BTreeMap<String, ViewImage> = BTreeMap::new();
        for img in state.tables {
            self.restore_table(img)?;
        }
        for v in state.views {
            views.insert(v.key.clone(), v);
        }
        // WAL records re-apply on top of the snapshot. Replay is idempotent
        // and version-guarded, so the crash window where a snapshot was
        // renamed live but the log not yet truncated recovers exactly.
        for rec in outcome.records {
            match rec {
                WalRecord::Register(img) | WalRecord::Replace(img) => self.restore_table(img)?,
                WalRecord::Insert {
                    name,
                    rows,
                    version,
                } => self.catalog.apply_insert(&name, rows, version)?,
                WalRecord::Drop { name } => {
                    self.catalog.apply_drop(&name);
                    self.planner_catalog.lock().remove_table(&name);
                }
                WalRecord::ViewPut { image, table } => {
                    if image.eligible {
                        self.catalog.apply_derived(&image.key, table);
                    }
                    views.insert(image.key.clone(), image);
                }
                WalRecord::ViewDelta(delta) => {
                    self.catalog.apply_derived(&delta.key, delta.table);
                    // No image: a snapshot renamed live before the log was
                    // truncated no longer holds a view this log drops later.
                    if let Some(img) = views.get_mut(&delta.key) {
                        img.apply(delta);
                    }
                }
                WalRecord::ViewDrop { key } => {
                    views.remove(&key);
                }
            }
        }
        for (_, img) in views {
            self.restore_view(img)?;
        }
        self.derive_view_tables()?;
        self.publish_retained_bytes();
        let injector = match self.config.crash_spec {
            Some(spec) => CrashInjector::new(spec),
            None => CrashInjector::none(),
        };
        let wal = Arc::new(Wal::open(dir, injector.clone())?);
        if had_history {
            // Compact what was just replayed: recovery is the one moment the
            // whole state is already in hand, and truncating here bounds
            // startup replay work for the next process.
            let encoded = encode_state(&self.durable_state());
            wal.publish_snapshot(&encoded, wal.position())?;
        }
        self.catalog.attach_journal(Arc::clone(&wal));
        self.durability = Some(Durability {
            wal,
            snapshot_every: self.config.snapshot_every,
            injector,
        });
        Ok(())
    }

    /// Crash-site boundaries hit on the durability write path so far — the
    /// counting half of the crash-soak's enumerate-then-kill-at-each
    /// protocol (boundaries are counted even with no
    /// [`rasql_storage::CrashSpec`] armed).
    /// Always 0 on an in-memory context.
    pub fn crashpoint_hits(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.injector.hits())
    }

    /// Count one server connection reaped by the idle keepalive timeout
    /// (`rasql_connections_reaped_total` in the Prometheus exposition).
    pub fn note_connection_reaped(&self) {
        Metrics::add(&self.cluster.metrics.connections_reaped, 1);
    }

    /// Apply one recovered table image: planner schema plus catalog entry.
    fn restore_table(&self, img: TableImage) -> Result<(), EngineError> {
        self.planner_catalog
            .lock()
            .add_table(&img.name, img.schema.clone());
        self.catalog.apply_image(img)?;
        Ok(())
    }

    /// Rebuild one materialized view from its durable image: re-plan the
    /// stored defining script (compiled plans never travel through the log),
    /// rebuild a certified view's resident state, and register the record
    /// verbatim. The view's result table, when derived, is installed by
    /// [`derive_view_tables`](Self::derive_view_tables).
    fn restore_view(&self, img: ViewImage) -> Result<(), EngineError> {
        let ViewImage {
            key,
            sql,
            version,
            eligible,
            ineligible_reason,
            last_refresh,
            deps,
            warm,
        } = img;
        // Planned where it was created: in the shared catalog plus the views
        // its own script creates before it (plain views are planner-only
        // state; these replay into a throwaway scope).
        let mut defined = None;
        let views = Views::new(LockRank::SessionViews, Vec::new());
        read_script(&sql, &mut Scope::private(&views, None), |stmt, scope| {
            match stmt {
                Statement::CreateView { .. } if defined.is_none() => {
                    self.plan(stmt, scope)?;
                }
                Statement::CreateMaterializedView { name, .. }
                    if defined.is_none() && name.eq_ignore_ascii_case(&key) =>
                {
                    defined = Some(self.plan(stmt, scope)?.statement);
                }
                _ => {}
            }
            Ok(())
        })?;
        let Some(AnalyzedStatement::CreateMaterializedView { name, query, .. }) = defined else {
            return Err(EngineError::Other(format!(
                "durability recovery: stored script for materialized view \
                 '{key}' has no matching CREATE MATERIALIZED VIEW statement"
            )));
        };
        // Rebuilt once per open: the rows of the view's last full image and
        // of every refresh after it, merged under its monotone ops.
        let resident = if eligible {
            let state = self.load_state(&query, &warm)?;
            Metrics::add(&self.cluster.metrics.view_state_loads, 1);
            self.warm_view_indexes(&query);
            Some(Arc::new(state))
        } else {
            None
        };
        self.matviews.lock().insert(
            key,
            MatView {
                name,
                query,
                sql,
                deps: deps
                    .into_iter()
                    .map(|d| DepRecord {
                        table: d.table,
                        version: d.version,
                        rewrite_version: d.rewrite_version,
                        len: d.len as usize,
                    })
                    .collect(),
                version,
                eligible,
                ineligible_reason,
                last_refresh,
                resident,
            },
        );
        Ok(())
    }

    /// Recovery, after every view is restored: evaluate each certified
    /// view's result table from its resident state — the views it reads
    /// first — and install it at the version its records carried. A table
    /// the log dropped stays dropped.
    fn derive_view_tables(&self) -> Result<(), EngineError> {
        let registry = self.matviews.lock().clone();
        let mut done = HashSet::new();
        for key in registry.keys() {
            self.derive_view_table(key, &registry, &mut done)?;
        }
        Ok(())
    }

    fn derive_view_table(
        &self,
        key: &str,
        registry: &BTreeMap<String, MatView>,
        done: &mut HashSet<String>,
    ) -> Result<(), EngineError> {
        let Some(mv) = registry.get(key) else {
            return Ok(());
        };
        if !done.insert(key.to_string()) {
            return Ok(());
        }
        for d in &mv.deps {
            self.derive_view_table(&d.table, registry, done)?;
        }
        let Some(state) = &mv.resident else {
            return Ok(());
        };
        let (relation, lookup) = match TableShape::of(&mv.query) {
            Some(shape) => (shape.table(state, &mv.query), shape.lookup(state)),
            None => {
                let spec = &mv.query.cliques[0];
                let views: HashMap<String, ViewData> = (spec.views.iter())
                    .zip(state.relations(spec))
                    .map(|(v, rel)| (v.name.to_ascii_lowercase(), ViewData::Rows(Arc::new(rel))))
                    .collect();
                let relation = EvalContext::statement(self, &views, None, None)
                    .evaluate(&mv.query.final_plan)?;
                (relation, None)
            }
        };
        let schema = relation.schema().clone();
        if self.catalog.fill_derived(key, relation, lookup) {
            self.planner_catalog.lock().add_table(&mv.name, schema);
        }
        Ok(())
    }

    /// The resident state of `query`'s clique built from its converged rows,
    /// one batch per clique view.
    fn load_state<R: AsRef<[Row]>>(
        &self,
        query: &AnalyzedQuery,
        rows: &[R],
    ) -> Result<CliqueState, EngineError> {
        let no_views = HashMap::new();
        let eval = EvalContext::statement(self, &no_views, None, None);
        FixpointExecutor::new(&eval, &self.config).load_state(&query.cliques[0], rows)
    }

    /// The full durable state as of now: catalog version ceiling, every
    /// table image (a derived table's without rows), every view image (a
    /// certified view's converged rows included). The registry is read under
    /// its lock and imaged outside it.
    fn durable_state(&self) -> DurableState {
        let tables = self.catalog.export_tables();
        let registry = self.matviews.lock().clone();
        DurableState {
            version_floor: self.catalog.version_ceiling(),
            tables,
            views: registry.iter().map(|(k, mv)| view_image(k, mv)).collect(),
        }
    }

    /// Append `record` to the journal (a no-op on an in-memory context).
    fn journal(&self, record: &WalRecord) -> Result<(), StorageError> {
        match &self.durability {
            Some(d) => d.wal.append(record),
            None => Ok(()),
        }
    }

    /// Journal the removal of view `key` (a no-op on an in-memory context).
    fn journal_view_drop(&self, key: &str) -> Result<(), EngineError> {
        self.journal(&WalRecord::ViewDrop {
            key: key.to_string(),
        })?;
        Ok(())
    }

    /// Set the resident-state gauge to what the registry holds.
    fn publish_retained_bytes(&self) {
        let bytes = self
            .matviews
            .lock()
            .values()
            .map(MatView::retained_bytes)
            .sum();
        self.cluster
            .metrics
            .retained_bytes
            .store(bytes, Ordering::Relaxed);
    }

    /// Publish a compacting snapshot when the log has grown past the
    /// configured threshold. State is collected *without* the appender lock
    /// (catalog locks rank below it), so publication is guarded by the log
    /// position: a mutation landing in between fails the guard and the
    /// collection retries — after three lost races the log just stays long
    /// until the next mutation tries again. (The record count is no guard:
    /// another thread's snapshot resets it, and later appends can bring it
    /// back to the value a stale collection read.)
    fn maybe_compact(&self) -> Result<(), EngineError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if d.snapshot_every == 0 {
            return Ok(());
        }
        for _ in 0..3 {
            if d.wal.record_count() < d.snapshot_every {
                return Ok(());
            }
            let position = d.wal.position();
            let encoded = encode_state(&self.durable_state());
            if d.wal.publish_snapshot(&encoded, position)? {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Force pending log bytes to disk — the shutdown drain hook (appends
    /// already fsync, so a quiet log makes this a no-op).
    ///
    /// # Errors
    /// [`EngineError::Storage`] on filesystem failure.
    pub fn flush_durability(&self) -> Result<(), EngineError> {
        if let Some(d) = &self.durability {
            d.wal.flush()?;
        }
        Ok(())
    }

    /// A canonical digest of the whole engine state: every base table
    /// (rows, versions), every materialized view (record, converged rows),
    /// serialized in sorted order and checksummed. Two contexts hold
    /// bit-identical state exactly when their digests are equal — the
    /// crash-soak's recovery assertion. The catalog's version *counter* is
    /// excluded: it is a floor, not state (recovery only promises it never
    /// re-mints a recovered version).
    pub fn state_digest(&self) -> String {
        let mut state = self.durable_state();
        state.version_floor = 0;
        let encoded = encode_state(&state);
        format!(
            "{:08x}-{}",
            rasql_storage::wal::crc32(&encoded),
            encoded.len()
        )
    }

    /// [`state_digest`](Self::state_digest) split into its `(tables, views)`
    /// components. The crash-soak compares the pair to accept the one legal
    /// partial recovery of a two-record statement: base tables already at
    /// the post-statement state while the view registry is still at the
    /// pre-statement state (the table record always precedes the view
    /// record in the log, so the inverse split cannot occur).
    pub fn state_digest_parts(&self) -> (String, String) {
        let mut state = self.durable_state();
        state.version_floor = 0;
        let digest = |s: &DurableState| {
            let encoded = encode_state(s);
            format!(
                "{:08x}-{}",
                rasql_storage::wal::crc32(&encoded),
                encoded.len()
            )
        };
        let views = std::mem::take(&mut state.views);
        let tables_digest = digest(&state);
        state.tables = Vec::new();
        state.views = views;
        (tables_digest, digest(&state))
    }

    /// Durability counters for status surfaces (`\durability`, the server's
    /// `Durability` request); `None` on an in-memory context.
    pub fn durability_status(&self) -> Option<rasql_api::DurabilityStatus> {
        self.durability.as_ref().map(|d| {
            let s = d.wal.stats();
            rasql_api::DurabilityStatus {
                data_dir: d.wal.dir().display().to_string(),
                wal_records: s.records,
                wal_bytes: s.bytes,
                snapshots: s.snapshots,
                last_snapshot_bytes: s.last_snapshot_bytes,
            }
        })
    }

    /// The serialization guard of one materialized view, created on first
    /// use. Lock ordering: a view guard is always taken *before* any other
    /// context lock or the admission controller, and never while one is
    /// held, so guards cannot deadlock with query execution.
    fn view_lock(&self, key: &str) -> Arc<RankedMutex<()>> {
        Arc::clone(
            self.view_locks
                .lock()
                .entry(key.to_string())
                .or_insert_with(|| Arc::new(RankedMutex::new(LockRank::ViewSerialization, ()))),
        )
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Enable or disable query tracing for subsequent statements (the
    /// runtime counterpart of [`EngineConfig::tracing`]). `EXPLAIN ANALYZE`
    /// traces its statement regardless of this switch.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether query tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Register a base table.
    pub fn register(&self, name: &str, rel: Relation) -> Result<(), EngineError> {
        self.planner_catalog
            .lock()
            .add_table(name, rel.schema().clone());
        self.catalog.register(name, rel)?;
        self.maybe_compact()?;
        Ok(())
    }

    /// Register or replace a base table. Cached results and indexes built
    /// from the old contents are swept (they could never be served again
    /// anyway — their versions no longer match).
    ///
    /// # Errors
    /// [`EngineError::Storage`] when journaling the replacement to a durable
    /// context's write-ahead log fails; infallible in memory.
    pub fn register_or_replace(&self, name: &str, rel: Relation) -> Result<(), EngineError> {
        self.planner_catalog
            .lock()
            .add_table(name, rel.schema().clone());
        self.catalog.register_or_replace(name, rel)?;
        self.table_rewritten(name);
        self.maybe_compact()?;
        Ok(())
    }

    /// Register a base-table schema in the shared planner catalog without
    /// touching stored data (lint needs later statements to resolve a
    /// materialized view's schema without materializing it).
    pub(crate) fn add_planner_table(&self, name: &str, schema: &Schema) {
        self.planner_catalog.lock().add_table(name, schema.clone());
    }

    /// Rows were appended to `table`: cached results that read it are swept.
    /// The index store is not touched — the next fetch advances its entries
    /// by the appended rows.
    fn table_appended(&self, table: &str) {
        let swept = self.result_cache.invalidate(table);
        if swept > 0 {
            Metrics::add(&self.cluster.metrics.cache_invalidations, swept);
        }
    }

    /// `table` was replaced, deleted from or dropped: cached results and
    /// indexes built from it are swept.
    fn table_rewritten(&self, table: &str) {
        let swept = self.result_cache.invalidate(table) + self.index.sweep(table);
        if swept > 0 {
            Metrics::add(&self.cluster.metrics.cache_invalidations, swept);
        }
    }

    /// Counters of the index store (builds, advances, rebuilds, probes,
    /// entries, bytes); `Display` is the one line status surfaces show.
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Execute one SQL statement; returns its [`QueryResult`] (empty
    /// relation for `CREATE VIEW`, plan text for `EXPLAIN`).
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        let mut results = self.query_script(sql)?;
        results
            .pop()
            .ok_or_else(|| EngineError::Other("empty statement".into()))
    }

    /// Execute a `;`-separated script; returns one [`QueryResult`] per
    /// statement.
    pub fn query_script(&self, sql: &str) -> Result<Vec<QueryResult>, EngineError> {
        let mut out = Vec::new();
        read_script(sql, &mut Scope::default(), |stmt, scope| {
            out.push(self.run_statement(stmt, sql, scope)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Phases 4–6 of the lifecycle for each statement kind, timed by the
    /// statement's one `clock`: a kind supplies only what differs — whether
    /// it is governed, whether its clique runs or resumes, and where its
    /// result is published.
    fn run_planned(
        &self,
        planned: Planned,
        source: &str,
        scope: &mut Scope<'_>,
        clock: Clock,
    ) -> Result<(Relation, Run), EngineError> {
        use AnalyzedStatement as S;
        let Planned {
            statement,
            verification,
            checked,
        } = planned;
        let parent = scope.parent;
        Ok(match statement {
            S::Query(q) => self.run_query(&q, parent, clock)?,
            S::Explain { analyze, inner } => match *inner {
                // EXPLAIN ANALYZE query: execute with tracing forced on, then
                // render the plan annotated with the live counters.
                S::Query(q) if analyze => {
                    let Executed { run, .. } =
                        self.execute(&q, parent, true, None, false, clock)?;
                    let trace = run.trace().expect("tracing forced on");
                    let text = explain_analyzed(&q, trace, &verification);
                    (text_relation("plan", &text), run)
                }
                // Plain EXPLAIN (and EXPLAIN ANALYZE of non-queries, which
                // have nothing to measure): render without executing.
                inner => {
                    let column = if matches!(inner, S::Check(_)) {
                        "check"
                    } else {
                        "plan"
                    };
                    let text = self.explain_text(&inner, verification, checked.as_ref(), source);
                    (text_relation(column, &text), Run::default())
                }
            },
            S::Check(_) => {
                let report = self.run_check(verification, checked.as_ref(), source);
                (text_relation("check", &report.rendered), Run::default())
            }
            // The view landed in the scope when it was planned.
            S::CreateView { .. } => (Relation::empty(Schema::empty()), Run::default()),
            S::Insert { table, rows, .. } => {
                self.guard_not_matview(&table, "INSERT into")?;
                let n = rows.len();
                self.catalog.insert_rows(&table, rows)?;
                self.table_appended(&table);
                self.maybe_compact()?;
                (count_relation("inserted", n), Run::default())
            }
            S::Delete {
                table, keep_plan, ..
            } => {
                self.guard_not_matview(&table, "DELETE from")?;
                let no_views = HashMap::new();
                // Governed like any other statement: the keep-predicate scan
                // charges the memory budget, observes the query deadline, and
                // is killable. Optimistic read-evaluate-replace: the keep
                // plan is evaluated against a version snapshot and published
                // only if the table is still at that version — rows INSERTed
                // concurrently force a re-evaluation instead of being
                // silently clobbered (and the deleted count stays exact).
                let (removed, query_id) = self.with_governor(parent, |governor| loop {
                    let (snapshot, v) = self.catalog.get_versioned(&table)?;
                    let eval = EvalContext::statement(self, &no_views, None, Some(governor));
                    let kept = eval.evaluate(&keep_plan)?;
                    let removed = snapshot.len().saturating_sub(kept.len());
                    if self.catalog.replace_rows_if(&table, kept, v.version)? {
                        return Ok((removed, governor.query_id()));
                    }
                })?;
                self.table_rewritten(&table);
                self.maybe_compact()?;
                (count_relation("deleted", removed), Run::governed(query_id))
            }
            S::CreateMaterializedView { name, query, .. } => {
                // The view's table joins the shared catalog under the script.
                scope.overlay = None;
                self.create_materialized_view(&name, query, &verification, source, parent, clock)?
            }
            S::RefreshMaterializedView { name, .. } => self.refresh_view(&name, parent, clock)?,
            S::DropMaterializedView { name, .. } => {
                scope.overlay = None;
                let key = name.to_ascii_lowercase();
                // Serialized with CREATE/REFRESH of the same view, so a drop
                // can never interleave with a refresh's publish step (which
                // would resurrect the catalog table and resident state).
                let guard = self.view_lock(&key);
                let _guard = guard.lock();
                // As in `materialize`, the registry stays locked from the
                // table's journaled drop to the entry's removal: a snapshot
                // never holds a derived table without its view.
                let mut registry = self.matviews.lock();
                if !registry.contains_key(&key) {
                    return Err(EngineError::UnknownView(name));
                }
                self.catalog.drop_table(&key)?;
                registry.remove(&key);
                drop(registry);
                self.planner_catalog.lock().remove_table(&key);
                self.table_rewritten(&key);
                self.journal_view_drop(&key)?;
                self.publish_retained_bytes();
                self.maybe_compact()?;
                let status = format!("dropped materialized view '{name}'");
                (text_relation("status", &status), Run::default())
            }
        })
    }

    /// Phases 1–3 of the lifecycle: analyze `stmt` and verify the query it
    /// wraps in one scope catalog, then optimize every plan in it once. A
    /// `CREATE VIEW` lands in the scope here: the rest of its script resolves
    /// against it, whether or not the script runs.
    pub(crate) fn plan(
        &self,
        stmt: &Statement,
        scope: &mut Scope<'_>,
    ) -> Result<Planned, EngineError> {
        // A plain query runs without a verdict; whatever else wraps a query
        // reports one.
        let verified = innermost_query(stmt).filter(|_| !matches!(stmt, Statement::Query(_)));
        let analyzed = self.in_catalog(scope, stmt, |catalog| {
            let analyzed = analyze_statement(stmt, catalog)?;
            // A CHECK keeps its AST, so its query is analyzed here, once (the
            // analysis may fail); whatever else wraps a query carries its own.
            let checked = match innermost(stmt) {
                Statement::Check(q) => Some(analyze_query(q, catalog)),
                _ => None,
            };
            let analysis = (checked.as_ref().map(Result::as_ref))
                .or_else(|| analyzed_query(&analyzed).map(Ok));
            let verification = (verified.zip(analysis))
                .map(|(q, analysis)| verify_query(q, analysis))
                .unwrap_or_default();
            Ok((analyzed, verification, checked))
        });
        let (analyzed, verification, checked) = analyzed.map_err(|e| {
            if defines_matview(stmt) {
                scope.private_view_error(e)
            } else {
                e
            }
        })?;
        let statement = optimize_statement(analyzed);
        if let AnalyzedStatement::CreateView { name, plan } = &statement {
            self.define_view(scope, name, plan.clone());
        }
        Ok(Planned {
            statement,
            verification,
            checked,
        })
    }

    /// Run `f` over the catalog `stmt` resolves in under `scope`. A
    /// materialized view's definition (and its `EXPLAIN`) resolves in the
    /// shared catalog plus the script's own views — where recovery replays
    /// it; everything else in the shared catalog or the scope's overlay.
    fn in_catalog<T>(
        &self,
        scope: &mut Scope<'_>,
        stmt: &Statement,
        f: impl FnOnce(&ViewCatalog) -> T,
    ) -> T {
        match scope.views {
            None => f(&self.planner_catalog.lock()),
            Some(_) if defines_matview(stmt) => f(&self.overlay(&scope.script)),
            Some(views) => f(scope
                .overlay
                .get_or_insert_with(|| self.overlay(views.lock().iter()))),
        }
    }

    /// A snapshot of the shared catalog with `views` on top.
    fn overlay<'v>(
        &self,
        views: impl IntoIterator<Item = &'v (String, LogicalPlan)>,
    ) -> ViewCatalog {
        let mut catalog = self.planner_catalog.lock().clone();
        for (name, plan) in views {
            catalog.add_view(name, plan.clone());
        }
        catalog
    }

    /// Publish a `CREATE VIEW` to `scope`: the rest of its script sees it,
    /// and so does the shared catalog or the private views it belongs to.
    fn define_view(&self, scope: &mut Scope<'_>, name: &str, plan: LogicalPlan) {
        match scope.views {
            None => self.planner_catalog.lock().add_view(name, plan.clone()),
            Some(views) => {
                let mut views = views.lock();
                views.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
                views.push((name.to_string(), plan.clone()));
            }
        }
        if let Some(overlay) = &mut scope.overlay {
            overlay.add_view(name, plan.clone());
        }
        scope.script.push((name.to_string(), plan));
    }

    /// INSERT/DELETE targets must be base tables: a materialized view's
    /// contents are derived, and only `REFRESH` may rewrite them.
    fn guard_not_matview(&self, table: &str, action: &str) -> Result<(), EngineError> {
        if self
            .matviews
            .lock()
            .contains_key(&table.to_ascii_lowercase())
        {
            return Err(EngineError::Other(format!(
                "cannot {action} materialized view '{table}': its contents are \
                 derived from its defining query (use REFRESH MATERIALIZED VIEW)"
            )));
        }
        Ok(())
    }

    /// A query: refresh any stale materialized views it reads, then serve it
    /// from the version-keyed result cache, or execute it and fill the cache.
    fn run_query(
        &self,
        q: &AnalyzedQuery,
        parent: Option<&CancellationToken>,
        clock: Clock,
    ) -> Result<(Relation, Run), EngineError> {
        let deps = query_dep_tables(q);
        // Reading a stale materialized view refreshes it first — before the
        // probe, and before this query is admitted — so results are always
        // as-of the current base data.
        let mut visited = HashSet::new();
        for t in &deps {
            self.refresh_if_stale(t, &mut visited, parent, clock)?;
        }
        let traced = self.tracing_enabled();
        // The key: the optimized plan text (cliques + final plan, constants
        // spelled out) plus the version fingerprint of every base table read.
        let key = (!self.result_cache.disabled()).then(|| {
            let mut key: String = q.cliques.iter().map(|c| c.cache_text()).collect();
            key.push_str(&q.final_plan.cache_text());
            key.push('|');
            key.push_str(&version_fingerprint(&self.catalog, &deps));
            key
        });
        if let Some(hit) = key.as_deref().and_then(|k| self.result_cache.get(k)) {
            Metrics::add(&self.cluster.metrics.cache_hits, 1);
            return Ok((hit.relation, Run::cached(hit.iterations, traced, clock)));
        }
        let Executed { relation, run, .. } = self.execute(q, parent, traced, None, false, clock)?;
        let relation = relation.unwrap_or_else(|| Relation::empty(q.final_plan.schema().clone()));
        if let Some(key) = key {
            let cached = CachedQuery {
                relation: relation.clone(),
                iterations: run.iterations().to_vec(),
            };
            self.result_cache.put(key, deps, cached);
        }
        Ok((relation, run))
    }

    /// Run `f` under full query governance: admission, a fresh query id and
    /// cancellation token (child of `parent` when given, so a session
    /// interrupt fans out to every query it has in flight), the kill
    /// registry, and governor teardown on every exit path — success, typed
    /// error, cancellation — which deregisters the query, releases the
    /// admission slot, and removes any spill directory the governor created.
    fn with_governor<T>(
        &self,
        parent: Option<&CancellationToken>,
        f: impl FnOnce(&QueryGovernor) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let permit = match self.admission.admit() {
            Ok(p) => {
                Metrics::add(&self.cluster.metrics.admitted, 1);
                p
            }
            Err(e) => {
                Metrics::add(&self.cluster.metrics.rejected, 1);
                return Err(e.into());
            }
        };
        let query_id = self.query_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let timeout = (self.config.query_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.query_timeout_ms));
        let token = match parent {
            Some(p) => p.child(query_id, timeout),
            None => CancellationToken::new(query_id, timeout),
        };
        let governor =
            QueryGovernor::with_token(query_id, self.config.memory_budget, token, &self.spill_root);
        self.active
            .lock()
            .insert(query_id, governor.token().clone());
        let result = f(&governor);
        self.active.lock().remove(&query_id);
        drop(permit);
        self.cluster.metrics.raise_peak(governor.tracker().peak());
        if matches!(
            &result,
            Err(EngineError::Exec(
                ExecError::Cancelled { .. } | ExecError::DeadlineExceeded { .. }
            ))
        ) {
            Metrics::add(&self.cluster.metrics.cancellations, 1);
        }
        result
    }

    /// `CREATE MATERIALIZED VIEW`: run the defining query once, register its
    /// result as a read-only table, capture dependency versions, and — when
    /// the static maintenance certificate holds — retain the converged
    /// fixpoint state for delta-seeded refresh.
    fn create_materialized_view(
        &self,
        name: &str,
        query: AnalyzedQuery,
        verification: &VerifyReport,
        source: &str,
        parent: Option<&CancellationToken>,
        clock: Clock,
    ) -> Result<(Relation, Run), EngineError> {
        let key = name.to_ascii_lowercase();
        // Serialized with other CREATE/REFRESH/DROP of this name: two
        // concurrent creates would both pass the existence checks and race
        // their registrations.
        let guard = self.view_lock(&key);
        let _guard = guard.lock();
        if self.matviews.lock().contains_key(&key) {
            return Err(EngineError::Other(format!(
                "materialized view '{name}' already exists"
            )));
        }
        if self.catalog.contains(&key) {
            return Err(EngineError::Other(format!(
                "a table named '{name}' already exists"
            )));
        }
        // Static maintenance certificate: idempotent Proven-PreM heads over
        // a single self-recursive clique. The RA0301 findings (if any) name
        // every violating shape; the first one becomes the recorded reason.
        let reason = if query.cliques.is_empty() {
            Some("non-recursive defining query".to_string())
        } else {
            verification.maintenance.first().map(ToString::to_string)
        };
        let mode = match &reason {
            None => "incremental refresh eligible".to_string(),
            Some(reason) => format!("full recompute on refresh: {reason}"),
        };
        let mv = MatView {
            name: name.to_string(),
            query,
            sql: source.to_string(),
            deps: Vec::new(),
            version: 1,
            eligible: reason.is_none(),
            ineligible_reason: reason,
            last_refresh: "none".to_string(),
            resident: None,
        };
        let (nrows, run, _) = self.materialize(&key, mv, false, parent, clock)?;
        let status = format!("materialized view '{name}': {nrows} rows ({mode})");
        Ok((text_relation("status", &status), run))
    }

    /// `REFRESH MATERIALIZED VIEW`: re-materialize a view against the
    /// current base data.
    fn refresh_view(
        &self,
        name: &str,
        parent: Option<&CancellationToken>,
        clock: Clock,
    ) -> Result<(Relation, Run), EngineError> {
        let key = name.to_ascii_lowercase();
        // One refresh of a view at a time: interleaved refreshes could pair
        // one refresh's contents/resident state with the other's `DepRecord`s —
        // a view silently missing derivations that never reads as stale.
        // The registry record is read *under* the guard, so a second
        // refresher sees the first one's updated dependency records (its
        // delta seed is then exactly the rows that arrived in between).
        let guard = self.view_lock(&key);
        let _guard = guard.lock();
        let mut mv = self
            .matviews
            .lock()
            .get(&key)
            .cloned()
            .ok_or_else(|| EngineError::UnknownView(name.to_string()))?;
        mv.version += 1;
        let (view, version) = (mv.name.clone(), mv.version);
        let (nrows, run, mode) = self.materialize(&key, mv, true, parent, clock)?;
        let status = format!(
            "refreshed materialized view '{view}' ({mode}): {nrows} rows, version {version}"
        );
        Ok((text_relation("status", &status), run))
    }

    /// Materialize view `mv` (its serialization guard held) and publish it.
    /// A `refresh` resumes semi-naive evaluation from the view's resident
    /// state seeded with only the inserted delta when
    /// [`resume_state`](Self::resume_state) allows it, and recomputes from
    /// scratch otherwise. Nothing is published until the view's journal
    /// record is durable: then the result table, the registry record and
    /// the resident state, in the order readers rely on. A certified view's
    /// table is derived from its state, so its record — a `ViewDelta` after
    /// a delta-seeded refresh, a `ViewPut` otherwise — is the only one; any
    /// other view journals its table's rows (`Replace`) before its `ViewPut`.
    /// Returns the row count, the run and the mode.
    fn materialize(
        &self,
        key: &str,
        mut mv: MatView,
        refresh: bool,
        parent: Option<&CancellationToken>,
        clock: Clock,
    ) -> Result<(usize, Run, &'static str), EngineError> {
        // Dependency versions are captured *before* execution — a concurrent
        // insert during materialization leaves the view stale (and thus
        // refreshed on next read) rather than silently missed — and before
        // the delta is read: a row landing in between is seeded twice,
        // harmless under the idempotent heads of an incremental view.
        let deps = self.snapshot_deps(&query_dep_tables(&mv.query));
        // A certified view whose final plan projects its clique view gets its
        // table from the state: patched after a resumed run, rebuilt in the
        // state's order after a full one.
        let shape = mv.eligible.then(|| TableShape::of(&mv.query)).flatten();
        let resume = refresh
            .then(|| self.resume_state(&mv, shape.is_some()))
            .flatten();
        // A full run of a certified view builds its resident state from the
        // clique's converged tuples.
        let keep = mv.eligible && resume.is_none();
        let traced = self.tracing_enabled();
        let Executed {
            relation,
            mut views,
            mut run,
            state,
        } = self.execute(&mv.query, parent, traced, resume.as_ref(), keep, clock)?;
        let mode = if resume.is_some() {
            "incremental"
        } else {
            "full"
        };
        if refresh {
            Metrics::add(&self.cluster.metrics.view_refreshes, 1);
            if resume.is_some() {
                Metrics::add(&self.cluster.metrics.view_refreshes_incremental, 1);
            }
            mv.last_refresh = mode.to_string();
        }
        mv.deps = deps;
        let schema = mv.query.final_plan.schema().clone();
        if mv.eligible {
            // `eligible` implies exactly one clique (stratified recursion is
            // an RA0301 finding). A full run (at creation, or after a delete)
            // leaves rows, not state: the state is built from them, and the
            // build sides are fetched so the next insert-only refresh only
            // advances them.
            let state = match state {
                Some(state) => state,
                None => {
                    let spec = &mv.query.cliques[0];
                    let rels: Vec<Option<Arc<Relation>>> = (spec.views.iter())
                        .map(|v| views.remove(&v.name.to_ascii_lowercase()))
                        .map(|data| data.map(ViewData::into_relation))
                        .collect();
                    let rows: Vec<&[Row]> = (rels.iter())
                        .map(|r| r.as_ref().map_or(&[][..], |r| r.rows()))
                        .collect();
                    let state = self.load_state(&mv.query, &rows)?;
                    self.warm_view_indexes(&mv.query);
                    state
                }
            };
            mv.resident = Some(Arc::new(state));
        }
        self.planner_catalog
            .lock()
            .add_table(&mv.name, schema.clone());
        // The registry stays locked from the journal append to the insert,
        // so a snapshot collected meanwhile either holds the new entry or
        // fails its log-position check: compaction never truncates a record
        // whose registry entry it missed (`scheduled_tests::
        // a_view_statement_racing_a_compacting_insert_keeps_its_record`).
        let mut registry = self.matviews.lock();
        let nrows = match &mv.resident {
            Some(state) => {
                let started = clock.elapsed();
                let (rows, lookup) = match &shape {
                    Some(shape) => {
                        // A run that moved tuples rebuilds the table instead.
                        let patch = (resume.as_ref())
                            .and_then(|r| state.table_patch(&r.state, shape.view, &shape.cols));
                        let rows = match patch {
                            Some(patch) => Derived::Patch(patch),
                            None => Derived::Rows(shape.table(state, &mv.query)),
                        };
                        (rows, shape.lookup(state))
                    }
                    None => (
                        Derived::Rows(relation.unwrap_or_else(|| Relation::empty(schema))),
                        None,
                    ),
                };
                let (nrows, written) = match &rows {
                    Derived::Rows(rel) => (rel.len(), rel.len()),
                    Derived::Patch(patch) => {
                        let (held, added) = (patch.ranges.iter())
                            .fold((0, 0), |(h, n), (len, a)| (h + len, n + a.len()));
                        (held + added, patch.set.len() + added)
                    }
                };
                self.catalog
                    .replace_derived(&mv.name, rows, lookup, |table| {
                        if self.durability.is_none() {
                            return Ok(());
                        }
                        self.journal(&match resume {
                            Some(_) => WalRecord::ViewDelta(ViewDelta {
                                key: key.to_string(),
                                version: mv.version,
                                deps: view_deps(&mv.deps),
                                table,
                                changed: state.changed(),
                            }),
                            None => WalRecord::ViewPut {
                                image: view_image(key, &mv),
                                table,
                            },
                        })
                    })?;
                self.table_rewritten(key);
                if let Some(trace) = run.trace_mut() {
                    trace.operators.push(OperatorTrace {
                        path: "refresh".into(),
                        label: format!("refresh table {}", mv.name),
                        rows: written as u64,
                        bytes: 0,
                        elapsed_us: (clock.elapsed() - started).as_micros() as u64,
                    });
                }
                nrows
            }
            None => {
                let relation = relation.unwrap_or_else(|| Relation::empty(schema));
                let nrows = relation.len();
                self.catalog.register_or_replace(&mv.name, relation)?;
                self.table_rewritten(key);
                self.journal(&WalRecord::ViewPut {
                    image: view_image(key, &mv),
                    table: 0,
                })?;
                nrows
            }
        };
        registry.insert(key.to_string(), mv);
        drop(registry);
        self.publish_retained_bytes();
        self.maybe_compact()?;
        Ok((nrows, run, mode))
    }

    /// What a refresh of `mv` resumes from — `None`, a full recompute,
    /// unless the view is certified incremental and every dependency was
    /// never rewritten (deleted from / replaced) and only grew. The resident
    /// state is lent as it is: nothing is decoded.
    fn resume_state(&self, mv: &MatView, patched: bool) -> Option<Resume> {
        let state = Arc::clone(mv.resident.as_ref()?);
        let mut changed = Vec::new();
        for d in &mv.deps {
            let (rel, v) = self.catalog.get_versioned(&d.table).ok()?;
            if v.rewrite_version != d.rewrite_version || rel.len() < d.len {
                return None;
            }
            if rel.len() > d.len {
                changed.push((d.table.clone(), rel.rows()[d.len..].to_vec()));
            }
        }
        Some(Resume {
            state,
            changed,
            patched,
        })
    }

    /// Refresh `table` if it names a stale materialized view, refreshing its
    /// own stale materialized-view dependencies first. `visited` breaks
    /// cycles (a view can never read itself, but defensive anyway).
    fn refresh_if_stale(
        &self,
        table: &str,
        visited: &mut HashSet<String>,
        parent: Option<&CancellationToken>,
        clock: Clock,
    ) -> Result<(), EngineError> {
        let key = table.to_ascii_lowercase();
        if !visited.insert(key.clone()) {
            return Ok(());
        }
        let deps = match self.matviews.lock().get(&key) {
            Some(mv) => mv.deps.clone(),
            None => return Ok(()),
        };
        for d in &deps {
            self.refresh_if_stale(&d.table, visited, parent, clock)?;
        }
        // Re-check after dependency refreshes: refreshing a dependency bumps
        // its version, which is exactly what makes this view stale.
        let stale = match self.matviews.lock().get(&key) {
            Some(mv) => self.deps_stale(&mv.deps),
            None => false,
        };
        if stale {
            self.refresh_view(&key, parent, clock)?;
        }
        Ok(())
    }

    /// True when any dependency's version moved since it was recorded (or
    /// the dependency no longer exists).
    fn deps_stale(&self, deps: &[DepRecord]) -> bool {
        deps.iter()
            .any(|d| match self.catalog.version_of(&d.table) {
                Some(v) => v.version != d.version || v.rewrite_version != d.rewrite_version,
                None => true,
            })
    }

    /// Fetch the build-side indexes a delta-seeded refresh of an eligible
    /// view will ask for, so that refresh only advances them. Purely an
    /// optimization: on failure the refresh builds what it needs.
    fn warm_view_indexes(&self, query: &AnalyzedQuery) {
        let no_views = HashMap::new();
        let eval = EvalContext::statement(self, &no_views, None, None);
        let _ = FixpointExecutor::new(&eval, &self.config).warm_indexes(&query.cliques[0]);
    }

    /// Capture the current `(version, rewrite_version, len)` triple of each
    /// table (missing tables record as zeros and always read as stale).
    fn snapshot_deps(&self, tables: &[String]) -> Vec<DepRecord> {
        tables
            .iter()
            .map(|t| match self.catalog.get_versioned(t) {
                Ok((rel, v)) => DepRecord {
                    table: t.clone(),
                    version: v.version,
                    rewrite_version: v.rewrite_version,
                    len: rel.len(),
                },
                Err(_) => DepRecord {
                    table: t.clone(),
                    version: 0,
                    rewrite_version: 0,
                    len: 0,
                },
            })
            .collect()
    }

    /// The registered materialized views — name, version, staleness,
    /// resident-state bytes, and last refresh mode — for the shell's
    /// `\views` and the server's `ListViews`.
    pub fn view_infos(&self) -> Vec<rasql_api::ViewInfo> {
        let reg = self.matviews.lock();
        reg.values()
            .map(|mv| rasql_api::ViewInfo {
                name: mv.name.clone(),
                version: mv.version,
                stale: self.deps_stale(&mv.deps),
                retained_bytes: mv.retained_bytes(),
                last_refresh: mv.last_refresh.clone(),
            })
            .collect()
    }

    /// The registry record of a materialized view, if one is registered
    /// under `name` (case-insensitive).
    pub fn mat_view(&self, name: &str) -> Option<MatView> {
        self.matviews
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Request cooperative cancellation of a running query. Returns `true`
    /// when `query_id` matched an active query (whose token is now fired —
    /// the query unwinds with [`ExecError::Cancelled`] at its next stage or
    /// round boundary), `false` when no such query is running.
    pub fn kill(&self, query_id: u64) -> bool {
        match self.active.lock().get(&query_id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Ids of the queries currently executing on this context, ascending.
    pub fn active_queries(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.active.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Queries currently admitted (executing) on this context.
    pub fn running_queries(&self) -> usize {
        self.admission.running()
    }

    /// Queries currently blocked in the admission wait queue.
    pub fn waiting_queries(&self) -> usize {
        self.admission.waiting()
    }

    /// Render the compiled plan of a query: the recursive clique plans
    /// (Fig 2a) and the final plan — without executing it.
    pub fn explain(&self, sql: &str) -> Result<String, EngineError> {
        let mut out = String::new();
        read_script(sql, &mut Scope::default(), |stmt, scope| {
            let explain = Statement::Explain {
                analyze: false,
                inner: Box::new(stmt.clone()),
            };
            let Planned {
                statement,
                verification,
                checked,
            } = self.plan(&explain, scope)?;
            if let AnalyzedStatement::Explain { inner, .. } = statement {
                out.push_str(&self.explain_text(&inner, verification, checked.as_ref(), sql));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// The text of a plain `EXPLAIN`: the optimized plan followed by the
    /// verifier's summary of the query it runs — or, for `EXPLAIN CHECK`,
    /// the report, which *is* the plan explanation of a verification-only
    /// statement.
    fn explain_text(
        &self,
        inner: &AnalyzedStatement,
        verification: VerifyReport,
        checked: Option<&Result<AnalyzedQuery, PlanError>>,
        source: &str,
    ) -> String {
        if let AnalyzedStatement::Check(_) = inner {
            return self.run_check(verification, checked, source).rendered;
        }
        let mut text = render_plan(inner);
        if matches!(
            inner,
            AnalyzedStatement::Query(_) | AnalyzedStatement::CreateMaterializedView { .. }
        ) {
            text.push_str("Verification:\n");
            text.push_str(&verification.summary());
        }
        text
    }

    /// Names of the registered base tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Table `name` as the catalog holds it now — a stale materialized
    /// view's table is not refreshed first.
    ///
    /// # Errors
    /// [`EngineError::Storage`] when there is no such table.
    pub fn table(&self, name: &str) -> Result<Arc<Relation>, EngineError> {
        Ok(self.catalog.get(name)?)
    }

    /// Cumulative cluster metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cluster.metrics.snapshot()
    }

    /// Reset cumulative cluster metrics.
    pub fn reset_metrics(&self) {
        self.cluster.metrics.reset();
    }

    /// Analyze a parsed statement against the shared catalog (the PreM
    /// checker's entry point, and tests that inspect plans).
    pub fn analyze(&self, stmt: &Statement) -> Result<AnalyzedStatement, EngineError> {
        Ok(analyze_statement(stmt, &self.planner_catalog.lock())?)
    }

    pub(crate) fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub(crate) fn index_store(&self) -> &IndexStore {
        &self.index
    }
}

/// One view's durable image: its registry record and, when certified, its
/// resident state's rows, sorted.
fn view_image(key: &str, mv: &MatView) -> ViewImage {
    ViewImage {
        key: key.to_string(),
        sql: mv.sql.clone(),
        version: mv.version,
        eligible: mv.eligible,
        ineligible_reason: mv.ineligible_reason.clone(),
        last_refresh: mv.last_refresh.clone(),
        deps: view_deps(&mv.deps),
        warm: mv.resident.as_ref().map_or_else(Vec::new, |s| s.image()),
    }
}

/// Dependency records as the journal carries them.
fn view_deps(deps: &[DepRecord]) -> Vec<ViewDep> {
    deps.iter()
        .map(|d| ViewDep {
            table: d.table.clone(),
            version: d.version,
            rewrite_version: d.rewrite_version,
            len: d.len as u64,
        })
        .collect()
}

/// Parse a script and hand its statements, in order, to `each` in one
/// scope — so a `CREATE VIEW` is visible to the statements after it. Every
/// surface that takes SQL text reads it here; the parsed statements come
/// back for a caller that keeps them.
pub(crate) fn read_script<'a>(
    sql: &str,
    scope: &mut Scope<'a>,
    mut each: impl FnMut(&Statement, &mut Scope<'a>) -> Result<(), EngineError>,
) -> Result<Vec<Statement>, EngineError> {
    let statements = parse_statements(sql)?;
    for stmt in &statements {
        each(stmt, scope)?;
    }
    Ok(statements)
}

/// Phase 3: every plan a statement carries, optimized once — what the
/// result-cache key, the execution, `EXPLAIN` and a stored materialized view
/// then all read.
pub(crate) fn optimize_statement(analyzed: AnalyzedStatement) -> AnalyzedStatement {
    use AnalyzedStatement as S;
    let query = |q: AnalyzedQuery| AnalyzedQuery {
        cliques: q.cliques.into_iter().map(optimize_spec).collect(),
        final_plan: optimize(q.final_plan),
    };
    // A lone plan is a query without cliques.
    let plan = |p: LogicalPlan| {
        query(AnalyzedQuery {
            cliques: Vec::new(),
            final_plan: p,
        })
        .final_plan
    };
    match analyzed {
        S::Query(q) => S::Query(query(q)),
        S::CreateMaterializedView {
            name,
            name_span,
            query: q,
        } => S::CreateMaterializedView {
            name,
            name_span,
            query: query(q),
        },
        S::CreateView { name, plan: p } => S::CreateView {
            name,
            plan: plan(p),
        },
        S::Delete {
            table,
            table_span,
            keep_plan,
        } => S::Delete {
            table,
            table_span,
            keep_plan: plan(keep_plan),
        },
        S::Explain { analyze, inner } => S::Explain {
            analyze,
            inner: Box::new(optimize_statement(*inner)),
        },
        other => other,
    }
}

/// The text of `EXPLAIN ANALYZE` of a query: its plan annotated with the live
/// counters of `trace`, the trace's tables, and the verifier's summary.
fn explain_analyzed(q: &AnalyzedQuery, trace: &QueryTrace, verification: &VerifyReport) -> String {
    let mut text: String = q.cliques.iter().map(|c| c.display()).collect();
    let by_path: HashMap<&str, &rasql_exec::OperatorTrace> = trace
        .operators
        .iter()
        .map(|o| (o.path.as_str(), o))
        .collect();
    text.push_str("Final plan:\n");
    text.push_str(
        &q.final_plan
            .display_annotated(&mut |path| match by_path.get(path) {
                // A scan answered from the index store says so; a scanned one is
                // followed by a `filter` stage below.
                Some(o) => format!(
                    "{}  (rows={} bytes={} time={:.3}ms)",
                    if o.label.starts_with("index lookup") || o.label.starts_with("state lookup") {
                        format!("  [{}]", o.label)
                    } else {
                        String::new()
                    },
                    o.rows,
                    o.bytes,
                    o.elapsed_us as f64 / 1000.0
                ),
                None => String::new(),
            }),
    );
    text.push_str(&trace.render_iterations());
    text.push_str(&trace.render_stages());
    text.push_str(&trace.render_recovery());
    text.push_str(&trace.render_governance());
    text.push_str(&format!(
        "\nTotals: {:.3} ms, {} stages, {} tasks, {} iterations, \
         shuffle {} rows / {} bytes\n",
        trace.elapsed_us as f64 / 1000.0,
        trace.metrics.stages,
        trace.metrics.tasks,
        trace.metrics.iterations,
        trace.metrics.shuffle_rows,
        trace.metrics.shuffle_bytes,
    ));
    if trace.metrics.task_retries + trace.metrics.restores > 0 {
        text.push_str(&format!(
            "Recovered: {} task retries, {} checkpoint restores\n",
            trace.metrics.task_retries, trace.metrics.restores,
        ));
    }
    text.push_str("Verification:\n");
    text.push_str(&verification.summary());
    text
}

/// A one-column relation of `text`, one row per line — the shape status
/// messages, `EXPLAIN` and `CHECK` results travel in.
fn text_relation(column: &str, text: &str) -> Relation {
    let schema = Schema::new(vec![(column, DataType::Str)]);
    let rows = text
        .lines()
        .map(|l| Row::new(vec![Value::str(l)]))
        .collect();
    Relation::new_unchecked(schema, rows)
}

/// A one-column, one-row integer result (`INSERT` / `DELETE` row counts).
fn count_relation(label: &str, n: usize) -> Relation {
    let schema = Schema::new(vec![(label, DataType::Int)]);
    Relation::new_unchecked(schema, vec![Row::new(vec![Value::Int(n as i64)])])
}

/// The former name of the context builder, kept because the benchmark
/// package (`perf/`, built unmodified from this tree) still spells it.
pub type ContextBuilder = EngineConfig;

/// Building a context from its configuration.
///
/// ```
/// use rasql_core::{JoinStrategy, RaSqlContext};
///
/// let ctx = RaSqlContext::builder()
///     .workers(4)
///     .join(JoinStrategy::ShuffleHash)
///     .tracing(true)
///     .build();
/// assert!(ctx.tracing_enabled());
/// ```
impl EngineConfig {
    /// Build the context.
    ///
    /// # Panics
    /// When a data directory is attached and recovery fails (corrupt
    /// durability state, filesystem failure); use
    /// [`EngineConfig::try_build`] to handle those as typed errors.
    pub fn build(self) -> RaSqlContext {
        self.try_build().expect("durability recovery failed")
    }

    /// Build the context, surfacing durability recovery failures as typed
    /// errors. With no data directory, this never fails.
    ///
    /// # Errors
    /// [`EngineError::Storage`] wrapping [`StorageError::Corrupt`] for a
    /// damaged snapshot or mid-log WAL record (torn *tails* are healed
    /// silently), or an I/O failure opening the data directory.
    pub fn try_build(self) -> Result<RaSqlContext, EngineError> {
        let cluster = Cluster::new(ClusterConfig {
            workers: self.workers,
            partition_aware: self.partition_aware,
            stage_latency: std::time::Duration::from_micros(self.stage_latency_us),
            fault_spec: self.fault_spec,
            max_task_retries: self.max_task_retries,
            ..Default::default()
        });
        let admission = Arc::new(AdmissionController::new(
            self.max_concurrent_queries,
            self.admission_queue,
        ));
        let mut ctx = RaSqlContext {
            catalog: Catalog::new(),
            planner_catalog: RankedMutex::new(LockRank::PlannerCatalog, ViewCatalog::new()),
            cluster,
            tracing: AtomicBool::new(self.tracing),
            index: IndexStore::new(),
            result_cache: ResultCache::new(self.result_cache_entries),
            config: self,
            admission,
            query_seq: AtomicU64::new(0),
            active: RankedMutex::new(LockRank::ActiveQueries, HashMap::new()),
            spill_root: std::env::temp_dir(),
            matviews: RankedMutex::new(LockRank::MatViewRegistry, BTreeMap::new()),
            view_locks: RankedMutex::new(LockRank::ViewLockMap, HashMap::new()),
            durability: None,
        };
        if let Some(dir) = ctx.config.data_dir.clone() {
            ctx.recover(&dir)?;
        }
        Ok(ctx)
    }
}

/// Render an optimized statement's plan as text (no execution).
fn render_plan(analyzed: &AnalyzedStatement) -> String {
    let query = |q: &AnalyzedQuery| {
        let mut out: String = q.cliques.iter().map(|c| c.display()).collect();
        out.push_str("Final plan:\n");
        out.push_str(&q.final_plan.display_indent());
        out
    };
    match analyzed {
        AnalyzedStatement::CreateView { name, plan } => {
            format!("CreateView {name}\n{}", plan.display_indent())
        }
        AnalyzedStatement::Query(q) => query(q),
        AnalyzedStatement::Explain { inner, .. } => render_plan(inner),
        AnalyzedStatement::Check(_) => {
            "Check (execute the statement to run the verifier)\n".to_string()
        }
        AnalyzedStatement::Insert { table, rows, .. } => {
            format!("Insert into {table} ({} row(s))\n", rows.len())
        }
        AnalyzedStatement::Delete {
            table, keep_plan, ..
        } => format!(
            "Delete from {table}, keeping:\n{}",
            keep_plan.display_indent()
        ),
        AnalyzedStatement::CreateMaterializedView { name, query: q, .. } => {
            format!("CreateMaterializedView {name}\n{}", query(q))
        }
        AnalyzedStatement::RefreshMaterializedView { name, .. } => {
            format!("RefreshMaterializedView {name}\n")
        }
        AnalyzedStatement::DropMaterializedView { name, .. } => {
            format!("DropMaterializedView {name}\n")
        }
    }
}

/// The statement an `EXPLAIN` wraps, through any number of layers.
fn innermost(stmt: &Statement) -> &Statement {
    match stmt {
        Statement::Explain { inner, .. } => innermost(inner),
        other => other,
    }
}

/// Whether `stmt` defines a materialized view (or explains one): shared
/// state, resolved where recovery replays it.
fn defines_matview(stmt: &Statement) -> bool {
    matches!(innermost(stmt), Statement::CreateMaterializedView { .. })
}

/// The analyzed query an analyzed statement ultimately wraps (through any
/// `EXPLAIN` layers): a query's, or a materialized view's defining one.
fn analyzed_query(analyzed: &AnalyzedStatement) -> Option<&AnalyzedQuery> {
    match analyzed {
        AnalyzedStatement::Explain { inner, .. } => analyzed_query(inner),
        AnalyzedStatement::Query(q)
        | AnalyzedStatement::CreateMaterializedView { query: q, .. } => Some(q),
        _ => None,
    }
}

/// The query AST a statement ultimately wraps (through any `EXPLAIN` /
/// `CHECK` layers) — the input to the static verifier, which needs the AST
/// because source spans don't survive analysis.
fn innermost_query(stmt: &Statement) -> Option<&Query> {
    match innermost(stmt) {
        Statement::Query(q) | Statement::Check(q) => Some(q),
        // A materialized view's verification (including the RA0301
        // maintenance findings) is that of its defining query.
        Statement::CreateMaterializedView { query, .. } => Some(query),
        Statement::Explain { .. }
        | Statement::CreateView { .. }
        | Statement::Insert { .. }
        | Statement::Delete { .. }
        | Statement::RefreshMaterializedView { .. }
        | Statement::DropMaterializedView { .. } => None,
    }
}
