//! [`RaSqlContext`] — the public entry point of the engine.

use crate::cache::{CachedQuery, ResultCache};
use crate::config::{EngineConfig, EvalMode, JoinStrategy};
use crate::error::EngineError;
use crate::eval::EvalContext;
use crate::fixpoint::FixpointExecutor;
use crate::matview::{query_dep_tables, warm_prefix, DepRecord, MatView};
use rasql_exec::{
    AdmissionController, CancellationToken, Cluster, ClusterConfig, ExecError, Metrics,
    MetricsSnapshot, QueryGovernor, QueryTrace, TraceSink,
};
use rasql_parser::{parse_statements, Statement};
use rasql_plan::{
    analyze_statement, optimize, optimize_spec, AnalyzedQuery, AnalyzedStatement, LogicalPlan,
    ViewCatalog,
};
use rasql_storage::snapshot::{encode_state, read_snapshot, sweep_stray_temp};
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::wal::{replay, WAL_FILE};
use rasql_storage::{
    decode_warm_rows, encode_warm_rows, Catalog, CrashInjector, DataType, DurableState, IndexStats,
    IndexStore, Relation, Row, Schema, StorageError, TableImage, Value, ViewDep, ViewImage, Wal,
    WalRecord, WarmStore,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics of the most recent query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// The context-assigned query id (the handle `kill` takes); 0 for
    /// statements that never entered execution (e.g. `CREATE VIEW`).
    pub query_id: u64,
    /// Fixpoint iterations, one entry per recursive clique evaluated.
    pub iterations: Vec<u32>,
    /// Wall-clock time of the execution.
    pub elapsed: Duration,
    /// True when the result was served from the version-keyed result cache
    /// (nothing executed; `metrics` are zero and `query_id` is 0).
    pub cached: bool,
    /// Runtime metric deltas accumulated during the query. The governance
    /// fields (`peak_memory`, `spilled_bytes`, `spill_files`) are this
    /// query's own, from its governor — exact even under concurrency.
    pub metrics: MetricsSnapshot,
}

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

/// What one statement produced when run against a caller-supplied catalog
/// (the [`Session`](crate::Session) path): result rows, or a view definition
/// the caller should install in its own catalog overlay.
pub(crate) enum StatementOutcome {
    /// The statement executed and produced rows (boxed: a result is much
    /// larger than the `CreatedView` variant).
    Rows(Box<QueryResult>),
    /// The statement was a `CREATE VIEW`; nothing was installed — the
    /// optimized plan comes back for the caller's catalog.
    CreatedView {
        /// The view name as written.
        name: String,
        /// The optimized view plan.
        plan: LogicalPlan,
    },
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
    /// would otherwise interleave their warm-state, catalog, and
    /// dependency-record publishes — pairing one refresh's contents with the
    /// other's `DepRecord`s, which never reads as stale again. Entries are
    /// never removed: a guard may still be held by a late waiter after its
    /// view is dropped, and a tiny map entry per view name ever used is
    /// cheaper than racing on guard identity.
    view_locks: RankedMutex<HashMap<String, Arc<RankedMutex<()>>>>,
    /// Warm fixpoint state retained for delta-seeded refresh.
    warm: WarmStore,
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
        Self::with_config(EngineConfig::default())
    }

    /// A builder for configuring a context fluently; see [`ContextBuilder`].
    pub fn builder() -> ContextBuilder {
        ContextBuilder::new()
    }

    /// A context with an explicit configuration.
    ///
    /// # Panics
    /// When [`EngineConfig::data_dir`] is set and recovery fails (corrupt
    /// durability state, filesystem failure); use
    /// [`RaSqlContext::try_with_config`] to handle those as typed errors.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::try_with_config(config).expect("durability recovery failed")
    }

    /// A context with an explicit configuration, surfacing durability
    /// recovery failures as typed errors. With no
    /// [`EngineConfig::data_dir`], this never fails.
    ///
    /// # Errors
    /// [`EngineError::Storage`] wrapping [`StorageError::Corrupt`] for a
    /// damaged snapshot or mid-log WAL record (torn *tails* are healed
    /// silently), or an I/O failure opening the data directory.
    pub fn try_with_config(config: EngineConfig) -> Result<Self, EngineError> {
        let cluster = Cluster::new(ClusterConfig {
            workers: config.workers,
            partition_aware: config.partition_aware,
            stage_latency: std::time::Duration::from_micros(config.stage_latency_us),
            fault_spec: config.fault_spec,
            max_task_retries: config.max_task_retries,
            ..Default::default()
        });
        let admission = Arc::new(AdmissionController::new(
            config.max_concurrent_queries,
            config.admission_queue,
        ));
        let mut ctx = RaSqlContext {
            catalog: Catalog::new(),
            planner_catalog: RankedMutex::new(LockRank::PlannerCatalog, ViewCatalog::new()),
            cluster,
            tracing: AtomicBool::new(config.tracing),
            index: IndexStore::new(),
            result_cache: ResultCache::new(config.result_cache_entries),
            config,
            admission,
            query_seq: AtomicU64::new(0),
            active: RankedMutex::new(LockRank::ActiveQueries, HashMap::new()),
            spill_root: std::env::temp_dir(),
            matviews: RankedMutex::new(LockRank::MatViewRegistry, BTreeMap::new()),
            view_locks: RankedMutex::new(LockRank::ViewLockMap, HashMap::new()),
            warm: WarmStore::new(),
            durability: None,
        };
        if let Some(dir) = ctx.config.data_dir.clone() {
            ctx.recover(&dir)?;
        }
        Ok(ctx)
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
                WalRecord::ViewPut(img) => {
                    views.insert(img.key.clone(), img);
                }
                WalRecord::ViewDrop { key } => {
                    views.remove(&key);
                }
            }
        }
        for (_, img) in views {
            self.restore_view(img)?;
        }
        self.cluster
            .metrics
            .retained_bytes
            .store(self.warm.retained_bytes(), Ordering::Relaxed);
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
            wal.publish_snapshot(&encoded, wal.record_count())?;
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

    /// Rebuild one materialized view from its durable image: re-parse and
    /// re-analyze the stored defining script (compiled plans never travel
    /// through the log), restore warm fixpoint state, and register the
    /// record verbatim.
    fn restore_view(&self, img: ViewImage) -> Result<(), EngineError> {
        let ViewImage {
            key,
            sql,
            version,
            eligible,
            ineligible_reason,
            last_refresh,
            retained_bytes,
            deps,
            warm,
        } = img;
        let statements = parse_statements(&sql)?;
        // Plain views the defining query reads are planner-only state; the
        // ones created in the same script replay into a private overlay.
        let mut pc = self.planner_snapshot();
        let mut create: Option<&Statement> = None;
        for stmt in &statements {
            match stmt {
                Statement::CreateView { .. } => {
                    if let AnalyzedStatement::CreateView { name, plan } =
                        analyze_statement(stmt, &pc)?
                    {
                        pc.add_view(&name, optimize(plan));
                    }
                }
                Statement::CreateMaterializedView { name, .. }
                    if name.to_ascii_lowercase() == key =>
                {
                    create = Some(stmt);
                }
                _ => {}
            }
        }
        let Some(stmt) = create else {
            return Err(EngineError::Other(format!(
                "durability recovery: stored script for materialized view \
                 '{key}' has no matching CREATE MATERIALIZED VIEW statement"
            )));
        };
        let AnalyzedStatement::CreateMaterializedView { name, query, .. } =
            analyze_statement(stmt, &pc)?
        else {
            return Err(EngineError::Other(format!(
                "durability recovery: defining statement of materialized view \
                 '{key}' no longer analyzes as CREATE MATERIALIZED VIEW"
            )));
        };
        for (k, blob) in warm {
            self.warm.put(&k, bytes::Bytes::from(blob));
        }
        if eligible {
            self.warm_view_indexes(&query);
        }
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
                retained_bytes,
            },
        );
        Ok(())
    }

    /// The full durable state as of now: catalog version ceiling, every
    /// table image, every view image (warm blobs included).
    fn durable_state(&self) -> DurableState {
        let tables = self.catalog.export_tables();
        let views = {
            let reg = self.matviews.lock();
            reg.iter().map(|(k, mv)| self.view_image(k, mv)).collect()
        };
        DurableState {
            version_floor: self.catalog.version_ceiling(),
            tables,
            views,
        }
    }

    /// One view's durable image, collected from its registry record and the
    /// warm store.
    fn view_image(&self, key: &str, mv: &MatView) -> ViewImage {
        let prefix = warm_prefix(key);
        let mut warm = Vec::new();
        if mv.eligible {
            // `eligible` implies exactly one clique; blobs are keyed by view
            // index (the same layout `create_materialized_view` writes).
            for i in 0..mv.query.cliques[0].views.len() {
                let k = format!("{prefix}{i}");
                if let Some(b) = self.warm.get(&k) {
                    warm.push((k, b.as_ref().to_vec()));
                }
            }
        }
        ViewImage {
            key: key.to_string(),
            sql: mv.sql.clone(),
            version: mv.version,
            eligible: mv.eligible,
            ineligible_reason: mv.ineligible_reason.clone(),
            last_refresh: mv.last_refresh.clone(),
            retained_bytes: mv.retained_bytes,
            deps: mv
                .deps
                .iter()
                .map(|d| ViewDep {
                    table: d.table.clone(),
                    version: d.version,
                    rewrite_version: d.rewrite_version,
                    len: d.len as u64,
                })
                .collect(),
            warm,
        }
    }

    /// Journal the current registry record of view `key` (a no-op on an
    /// in-memory context or when the view vanished meanwhile).
    fn journal_view_put(&self, key: &str) -> Result<(), EngineError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let img = {
            let reg = self.matviews.lock();
            match reg.get(key) {
                Some(mv) => self.view_image(key, mv),
                None => return Ok(()),
            }
        };
        d.wal.append(&WalRecord::ViewPut(img))?;
        Ok(())
    }

    /// Journal the removal of view `key` (a no-op on an in-memory context).
    fn journal_view_drop(&self, key: &str) -> Result<(), EngineError> {
        if let Some(d) = &self.durability {
            d.wal.append(&WalRecord::ViewDrop {
                key: key.to_string(),
            })?;
        }
        Ok(())
    }

    /// Publish a compacting snapshot when the log has grown past the
    /// configured threshold. State is collected *without* the appender lock
    /// (catalog locks rank below it), so publication is guarded by the
    /// record count: a mutation landing in between fails the guard and the
    /// collection retries — after three lost races the log just stays long
    /// until the next mutation tries again.
    fn maybe_compact(&self) -> Result<(), EngineError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if d.snapshot_every == 0 {
            return Ok(());
        }
        for _ in 0..3 {
            let expected = d.wal.record_count();
            if expected < d.snapshot_every {
                return Ok(());
            }
            let encoded = encode_state(&self.durable_state());
            if d.wal.publish_snapshot(&encoded, expected)? {
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
    /// (rows, versions), every materialized view (record, warm blobs),
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
        let statements = parse_statements(sql)?;
        let mut out = Vec::with_capacity(statements.len());
        for stmt in &statements {
            out.push(self.execute_statement(stmt, sql)?);
        }
        Ok(out)
    }

    pub(crate) fn execute_statement(
        &self,
        stmt: &Statement,
        source: &str,
    ) -> Result<QueryResult, EngineError> {
        let analyzed = {
            let pc = self.planner_catalog.lock();
            analyze_statement(stmt, &pc)?
        };
        if let AnalyzedStatement::CreateView { name, plan } = analyzed {
            let plan = optimize(plan);
            self.planner_catalog.lock().add_view(&name, plan);
            return Ok(empty_result());
        }
        self.dispatch(analyzed, stmt, source, None)
    }

    /// Execute one statement analyzed against a caller-supplied catalog — the
    /// session path. `CREATE VIEW` does *not* mutate the shared planner
    /// catalog; the definition comes back as
    /// [`StatementOutcome::CreatedView`] for the caller to install in its own
    /// overlay. `parent` links the query's cancellation token under the
    /// session's interrupt token, so dropping a connection cancels its
    /// in-flight queries.
    pub(crate) fn run_statement_in(
        &self,
        stmt: &Statement,
        source: &str,
        catalog: &ViewCatalog,
        parent: Option<&CancellationToken>,
    ) -> Result<StatementOutcome, EngineError> {
        let analyzed = analyze_statement(stmt, catalog)?;
        if let AnalyzedStatement::CreateView { name, plan } = analyzed {
            let plan = optimize(plan);
            return Ok(StatementOutcome::CreatedView { name, plan });
        }
        Ok(StatementOutcome::Rows(Box::new(
            self.dispatch(analyzed, stmt, source, parent)?,
        )))
    }

    /// Run a non-view analyzed statement. `CREATE VIEW` never reaches here
    /// (both callers intercept it, because where the view lands differs);
    /// defensively it is a no-op result.
    fn dispatch(
        &self,
        analyzed: AnalyzedStatement,
        stmt: &Statement,
        source: &str,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
        match analyzed {
            AnalyzedStatement::CreateView { .. } => Ok(empty_result()),
            AnalyzedStatement::Query(q) => self.run_query_statement(q, parent),
            AnalyzedStatement::Check(q) => {
                Ok(crate::check::check_result(&self.run_check(&q, source)))
            }
            AnalyzedStatement::Explain { analyze, inner } => {
                let verification = innermost_query(stmt).map(|q| self.verify_ast(q).summary());
                self.execute_explain(analyze, *inner, verification, source, parent)
            }
            AnalyzedStatement::Insert { table, rows, .. } => {
                self.guard_not_matview(&table, "INSERT into")?;
                let n = rows.len();
                self.catalog.insert_rows(&table, rows)?;
                self.table_appended(&table);
                self.maybe_compact()?;
                Ok(count_result("inserted", n))
            }
            AnalyzedStatement::Delete {
                table, keep_plan, ..
            } => {
                self.guard_not_matview(&table, "DELETE from")?;
                let keep_plan = optimize(keep_plan);
                let no_views = HashMap::new();
                // Governed like any other statement: the keep-predicate scan
                // charges the memory budget, observes the query deadline, and
                // is killable. Optimistic read-evaluate-replace: the keep
                // plan is evaluated against a version snapshot and published
                // only if the table is still at that version — rows INSERTed
                // concurrently force a re-evaluation instead of being
                // silently clobbered (and the deleted count stays exact).
                let removed = self.with_governor(parent, |governor| loop {
                    let (snapshot, v) = self.catalog.get_versioned(&table)?;
                    let eval = EvalContext {
                        cluster: &self.cluster,
                        catalog: &self.catalog,
                        views: &no_views,
                        partitions: self.config.partitions,
                        fused: self.config.fused_codegen,
                        trace: None,
                        governor: Some(governor),
                        index: None,
                    };
                    let kept = eval.evaluate(&keep_plan)?;
                    let removed = snapshot.len().saturating_sub(kept.len());
                    if self.catalog.replace_rows_if(&table, kept, v.version)? {
                        return Ok(removed);
                    }
                })?;
                self.table_rewritten(&table);
                self.maybe_compact()?;
                Ok(count_result("deleted", removed))
            }
            AnalyzedStatement::CreateMaterializedView { name, query, .. } => {
                self.create_materialized_view(&name, query, stmt, source, parent)
            }
            AnalyzedStatement::RefreshMaterializedView { name, .. } => {
                self.refresh_view(&name, parent)
            }
            AnalyzedStatement::DropMaterializedView { name, .. } => {
                let key = name.to_ascii_lowercase();
                // Serialized with CREATE/REFRESH of the same view, so a drop
                // can never interleave with a refresh's publish step (which
                // would resurrect the catalog table and warm state).
                let guard = self.view_lock(&key);
                let _guard = guard.lock();
                if self.matviews.lock().remove(&key).is_none() {
                    return Err(EngineError::UnknownView(name));
                }
                self.warm.remove_prefix(&warm_prefix(&key));
                self.catalog.drop_table(&key)?;
                self.planner_catalog.lock().remove_table(&key);
                self.table_rewritten(&key);
                self.journal_view_drop(&key)?;
                self.cluster
                    .metrics
                    .retained_bytes
                    .store(self.warm.retained_bytes(), Ordering::Relaxed);
                self.maybe_compact()?;
                Ok(status_result(&format!(
                    "dropped materialized view '{name}'"
                )))
            }
        }
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

    /// Execute a query statement: refresh any stale materialized views it
    /// reads, then serve from the version-keyed result cache when possible.
    fn run_query_statement(
        &self,
        q: AnalyzedQuery,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
        let deps = query_dep_tables(&q);
        // Reading a stale materialized view refreshes it first, so results
        // are always as-of the current base data.
        let mut visited = HashSet::new();
        for t in &deps {
            self.refresh_if_stale(t, &mut visited, parent)?;
        }
        let traced = self.tracing_enabled();
        if self.result_cache.disabled() {
            return self.execute_query(q, traced, parent);
        }
        let started = Instant::now();
        let key = self.query_cache_key(&q, &deps);
        if let Some(hit) = self.result_cache.get(&key) {
            Metrics::add(&self.cluster.metrics.cache_hits, 1);
            return Ok(QueryResult {
                relation: hit.relation,
                stats: QueryStats {
                    iterations: hit.iterations,
                    cached: true,
                    ..QueryStats::default()
                },
                // A traced session still gets a trace; it says "cached".
                trace: traced.then(|| QueryTrace::cached(started.elapsed())),
            });
        }
        let result = self.execute_query(q, traced, parent)?;
        self.result_cache.put(
            key,
            deps,
            CachedQuery {
                relation: result.relation.clone(),
                iterations: result.stats.iterations.clone(),
            },
        );
        Ok(result)
    }

    /// The result-cache key: the optimized plan text (cliques + final plan,
    /// constants spelled out) plus the version fingerprint of every base
    /// table the query reads.
    fn query_cache_key(&self, q: &AnalyzedQuery, deps: &[String]) -> String {
        let mut key = String::new();
        for clique in &q.cliques {
            key.push_str(&optimize_spec(clique.clone()).cache_text());
        }
        key.push_str(&optimize(q.final_plan.clone()).cache_text());
        key.push('|');
        key.push_str(&crate::cache::version_fingerprint(&self.catalog, deps));
        key
    }

    /// Run an analyzed query; `traced` additionally collects a [`QueryTrace`].
    ///
    /// This is the governed entry point: the query first passes the admission
    /// controller (blocking in its bounded wait queue when the context is at
    /// `max_concurrent_queries`), then runs under a fresh [`QueryGovernor`]
    /// that enforces the memory budget and deadline and is registered in the
    /// active-query table so [`RaSqlContext::kill`] can reach it. Every exit
    /// path — success, typed error, cancellation — deregisters the query,
    /// releases the admission slot, and drops the governor (removing any
    /// spill directory it created).
    ///
    /// With a `parent` token the query's own token is a child of it: the
    /// query still has its own id and deadline, but also observes the
    /// parent's cancel flag (a session interrupt fans out to every query the
    /// session has in flight).
    fn execute_query(
        &self,
        q: AnalyzedQuery,
        traced: bool,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
        self.execute_query_with_views(q, traced, parent)
            .map(|(result, _)| result)
    }

    /// Like [`Self::execute_query`], but also returns the materialized
    /// recursive-clique relations (the converged fixpoint state a
    /// materialized view retains as warm state).
    fn execute_query_with_views(
        &self,
        q: AnalyzedQuery,
        traced: bool,
        parent: Option<&CancellationToken>,
    ) -> Result<(QueryResult, HashMap<String, Arc<Relation>>), EngineError> {
        self.with_governor(parent, |governor| {
            self.execute_governed(q, traced, governor)
        })
    }

    /// Run `f` under full query governance: admission, a fresh query id and
    /// cancellation token (child of `parent` when given), the kill registry,
    /// and governor teardown on every exit path. Both ad-hoc queries and
    /// materialized-view refreshes execute through here.
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

    fn execute_governed(
        &self,
        q: AnalyzedQuery,
        traced: bool,
        governor: &QueryGovernor,
    ) -> Result<(QueryResult, HashMap<String, Arc<Relation>>), EngineError> {
        let start = Instant::now();
        let before = self.cluster.metrics.snapshot();
        let sink = traced.then(TraceSink::new);
        let mut views: HashMap<String, Arc<Relation>> = HashMap::new();
        let mut iterations = Vec::new();
        for clique in q.cliques {
            let clique = optimize_spec(clique);
            let eval = EvalContext {
                cluster: &self.cluster,
                catalog: &self.catalog,
                views: &views,
                partitions: self.config.partitions,
                fused: self.config.fused_codegen,
                trace: sink.as_ref(),
                governor: Some(governor),
                index: Some(&self.index),
            };
            let exec = FixpointExecutor::new(&eval, &self.config);
            let result = exec.run(&clique)?;
            iterations.push(result.iterations);
            for (spec, rel) in clique.views.iter().zip(result.views) {
                views.insert(spec.name.to_ascii_lowercase(), Arc::new(rel));
            }
        }
        let plan = optimize(q.final_plan);
        let eval = EvalContext {
            cluster: &self.cluster,
            catalog: &self.catalog,
            views: &views,
            partitions: self.config.partitions,
            fused: self.config.fused_codegen,
            trace: sink.as_ref(),
            governor: Some(governor),
            index: Some(&self.index),
        };
        // Operator counters only around the final plan, so base-case and
        // build-side evaluations inside the fixpoint don't pollute them.
        if let Some(s) = &sink {
            s.enable_operators(true);
        }
        let rel = eval.evaluate(&plan)?;
        if let Some(s) = &sink {
            s.enable_operators(false);
        }
        let elapsed = start.elapsed();
        let mut metrics = self.cluster.metrics.snapshot().since(&before);
        // Governance numbers come from this query's own governor: global
        // counter deltas would bleed across concurrent queries.
        metrics.peak_memory = governor.tracker().peak();
        metrics.spilled_bytes = governor.spilled_bytes();
        metrics.spill_files = governor.spill_files();
        let stats = QueryStats {
            query_id: governor.query_id(),
            iterations,
            elapsed,
            cached: false,
            metrics,
        };
        Ok((
            QueryResult {
                relation: rel,
                stats,
                trace: sink.map(|s| s.finish(elapsed, metrics)),
            },
            views,
        ))
    }

    /// `CREATE MATERIALIZED VIEW`: run the defining query once, register its
    /// result as a read-only table, capture dependency versions, and — when
    /// the static maintenance certificate holds — retain the converged
    /// fixpoint state for delta-seeded refresh.
    fn create_materialized_view(
        &self,
        name: &str,
        query: AnalyzedQuery,
        stmt: &Statement,
        source: &str,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
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
        let (eligible, reason) = if query.cliques.is_empty() {
            (false, Some("non-recursive defining query".to_string()))
        } else if let Statement::CreateMaterializedView { query: ast, .. } = stmt {
            match self.verify_ast(ast).maintenance.first() {
                None => (true, None),
                Some(d) => (false, Some(d.to_string())),
            }
        } else {
            (false, Some("defining query AST unavailable".to_string()))
        };
        // Dependency versions are captured *before* execution: a concurrent
        // insert during materialization leaves the view stale (and thus
        // refreshed on next read) rather than silently missed.
        let deps = self.snapshot_deps(&query_dep_tables(&query));
        let (result, views) = self.execute_query_with_views(query.clone(), false, parent)?;
        let prefix = warm_prefix(&key);
        let mut retained = 0;
        if eligible {
            // `eligible` implies exactly one clique (stratified recursion is
            // an RA0301 finding); warm blobs are keyed by view index.
            for (i, vs) in query.cliques[0].views.iter().enumerate() {
                let rows = views
                    .get(&vs.name.to_ascii_lowercase())
                    .map(|r| r.rows())
                    .unwrap_or(&[]);
                self.warm
                    .put(&format!("{prefix}{i}"), encode_warm_rows(rows));
            }
            retained = self.warm.retained_bytes_prefix(&prefix);
            self.warm_view_indexes(&query);
        }
        let QueryResult {
            relation, stats, ..
        } = result;
        let nrows = relation.len();
        self.planner_catalog
            .lock()
            .add_table(name, relation.schema().clone());
        self.catalog.register_or_replace(name, relation)?;
        self.matviews.lock().insert(
            key.clone(),
            MatView {
                name: name.to_string(),
                query,
                sql: source.to_string(),
                deps,
                version: 1,
                eligible,
                ineligible_reason: reason.clone(),
                last_refresh: "none".to_string(),
                retained_bytes: retained,
            },
        );
        self.journal_view_put(&key)?;
        self.cluster
            .metrics
            .retained_bytes
            .store(self.warm.retained_bytes(), Ordering::Relaxed);
        self.maybe_compact()?;
        let mode = if eligible {
            "incremental refresh eligible".to_string()
        } else {
            format!(
                "full recompute on refresh: {}",
                reason.unwrap_or_else(|| "ineligible".to_string())
            )
        };
        Ok(QueryResult {
            relation: status_lines(&format!(
                "materialized view '{name}': {nrows} rows ({mode})"
            )),
            stats,
            trace: None,
        })
    }

    /// `REFRESH MATERIALIZED VIEW`: re-materialize a view against the
    /// current base data — resuming semi-naive evaluation from retained warm
    /// state seeded with only the inserted delta when the view is eligible
    /// and the delta is insert-only, recomputing from scratch otherwise.
    fn refresh_view(
        &self,
        name: &str,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
        let key = name.to_ascii_lowercase();
        // One refresh of a view at a time: interleaved refreshes could pair
        // one refresh's contents/warm state with the other's `DepRecord`s —
        // a view silently missing derivations that never reads as stale.
        // The registry record is read *under* the guard, so a second
        // refresher sees the first one's updated dependency records (its
        // delta seed is then exactly the rows that arrived in between).
        let guard = self.view_lock(&key);
        let _guard = guard.lock();
        let mv = self
            .matviews
            .lock()
            .get(&key)
            .cloned()
            .ok_or_else(|| EngineError::UnknownView(name.to_string()))?;
        let prefix = warm_prefix(&key);
        // Incremental needs the static certificate *and* a dynamically
        // insert-only delta *and* intact warm state.
        let mut warm: Vec<Vec<Row>> = Vec::new();
        let mut incremental = mv.eligible && self.insert_only_delta(&mv.deps);
        if incremental {
            for i in 0..mv.query.cliques[0].views.len() {
                match self
                    .warm
                    .get(&format!("{prefix}{i}"))
                    .map(|b| decode_warm_rows(&b))
                {
                    Some(Ok(rows)) => warm.push(rows),
                    _ => {
                        incremental = false;
                        break;
                    }
                }
            }
        }
        // New dependency versions, captured before execution (see
        // `create_materialized_view`).
        let new_deps = self.snapshot_deps(&query_dep_tables(&mv.query));
        let run = self.with_governor(parent, |governor| {
            if incremental {
                let start = Instant::now();
                let before = self.cluster.metrics.snapshot();
                let spec = optimize_spec(mv.query.cliques[0].clone());
                let changed: Vec<(String, Vec<Row>)> = mv
                    .deps
                    .iter()
                    .filter_map(|d| {
                        let rel = self.catalog.get(&d.table).ok()?;
                        (rel.len() > d.len).then(|| (d.table.clone(), rel.rows()[d.len..].to_vec()))
                    })
                    .collect();
                let no_views = HashMap::new();
                let eval = EvalContext {
                    cluster: &self.cluster,
                    catalog: &self.catalog,
                    views: &no_views,
                    partitions: self.config.partitions,
                    fused: self.config.fused_codegen,
                    trace: None,
                    governor: Some(governor),
                    index: Some(&self.index),
                };
                let exec = FixpointExecutor::new(&eval, &self.config);
                let fres = exec.run_resume(&spec, &warm, &changed)?;
                let mut vmap: HashMap<String, Arc<Relation>> = HashMap::new();
                for (vs, rel) in spec.views.iter().zip(fres.views.iter()) {
                    vmap.insert(vs.name.to_ascii_lowercase(), Arc::new(rel.clone()));
                }
                let plan = optimize(mv.query.final_plan.clone());
                let eval = EvalContext {
                    cluster: &self.cluster,
                    catalog: &self.catalog,
                    views: &vmap,
                    partitions: self.config.partitions,
                    fused: self.config.fused_codegen,
                    trace: None,
                    governor: Some(governor),
                    index: Some(&self.index),
                };
                let relation = eval.evaluate(&plan)?;
                let elapsed = start.elapsed();
                let mut metrics = self.cluster.metrics.snapshot().since(&before);
                metrics.peak_memory = governor.tracker().peak();
                metrics.spilled_bytes = governor.spilled_bytes();
                metrics.spill_files = governor.spill_files();
                let stats = QueryStats {
                    query_id: governor.query_id(),
                    iterations: vec![fres.iterations],
                    elapsed,
                    cached: false,
                    metrics,
                };
                Ok((
                    QueryResult {
                        relation,
                        stats,
                        trace: None,
                    },
                    fres.views,
                ))
            } else {
                let (result, views) = self.execute_governed(mv.query.clone(), false, governor)?;
                let mut rels = Vec::new();
                for clique in &mv.query.cliques {
                    for vs in &clique.views {
                        rels.push(
                            views
                                .get(&vs.name.to_ascii_lowercase())
                                .map(|r| (**r).clone())
                                .unwrap_or_else(|| Relation::empty(vs.schema.clone())),
                        );
                    }
                }
                Ok((result, rels))
            }
        });
        let (result, clique_rels) = run?;
        let mut retained = 0;
        if mv.eligible {
            for (i, rel) in clique_rels.iter().enumerate() {
                self.warm
                    .put(&format!("{prefix}{i}"), encode_warm_rows(rel.rows()));
            }
            retained = self.warm.retained_bytes_prefix(&prefix);
            if !incremental {
                // A full fallback (e.g. after a delete, which swept the
                // indexes) converged against the current bases; fetch the
                // build sides again so the next insert-only refresh only
                // advances them.
                self.warm_view_indexes(&mv.query);
            }
        }
        let QueryResult {
            relation, stats, ..
        } = result;
        let nrows = relation.len();
        self.planner_catalog
            .lock()
            .add_table(&mv.name, relation.schema().clone());
        self.catalog.register_or_replace(&mv.name, relation)?;
        self.table_rewritten(&key);
        Metrics::add(&self.cluster.metrics.view_refreshes, 1);
        if incremental {
            Metrics::add(&self.cluster.metrics.view_refreshes_incremental, 1);
        }
        let mode = if incremental { "incremental" } else { "full" };
        let new_version = {
            let mut reg = self.matviews.lock();
            match reg.get_mut(&key) {
                Some(entry) => {
                    entry.deps = new_deps;
                    entry.version += 1;
                    entry.last_refresh = mode.to_string();
                    entry.retained_bytes = retained;
                    entry.version
                }
                // Unreachable while the view guard serializes DROP with
                // refresh, but defensive: nothing to record.
                None => 0,
            }
        };
        self.journal_view_put(&key)?;
        self.cluster
            .metrics
            .retained_bytes
            .store(self.warm.retained_bytes(), Ordering::Relaxed);
        self.maybe_compact()?;
        Ok(QueryResult {
            relation: status_lines(&format!(
                "refreshed materialized view '{}' ({mode}): {nrows} rows, version {new_version}",
                mv.name
            )),
            stats,
            trace: None,
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
            self.refresh_if_stale(&d.table, visited, parent)?;
        }
        // Re-check after dependency refreshes: refreshing a dependency bumps
        // its version, which is exactly what makes this view stale.
        let stale = match self.matviews.lock().get(&key) {
            Some(mv) => self.deps_stale(&mv.deps),
            None => false,
        };
        if stale {
            self.refresh_view(&key, parent)?;
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

    /// True when every dependency still exists, was never rewritten
    /// (deleted from / replaced), and only grew — the precondition for
    /// seeding a refresh with the `rows[len..]` suffixes.
    fn insert_only_delta(&self, deps: &[DepRecord]) -> bool {
        deps.iter()
            .all(|d| match self.catalog.get_versioned(&d.table) {
                Ok((rel, v)) => v.rewrite_version == d.rewrite_version && rel.len() >= d.len,
                Err(_) => false,
            })
    }

    /// Fetch the build-side indexes a delta-seeded refresh of an eligible
    /// view will ask for, so that refresh only advances them. Purely an
    /// optimization: on failure the refresh builds what it needs.
    fn warm_view_indexes(&self, query: &AnalyzedQuery) {
        let spec = optimize_spec(query.cliques[0].clone());
        let no_views = HashMap::new();
        let eval = EvalContext {
            cluster: &self.cluster,
            catalog: &self.catalog,
            views: &no_views,
            partitions: self.config.partitions,
            fused: self.config.fused_codegen,
            trace: None,
            governor: None,
            index: Some(&self.index),
        };
        let _ = FixpointExecutor::new(&eval, &self.config).warm_indexes(&spec);
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
    /// retained warm-state bytes, and last refresh mode — for the shell's
    /// `\views` and the server's `ListViews`.
    pub fn view_infos(&self) -> Vec<rasql_api::ViewInfo> {
        let reg = self.matviews.lock();
        reg.values()
            .map(|mv| rasql_api::ViewInfo {
                name: mv.name.clone(),
                version: mv.version,
                stale: self.deps_stale(&mv.deps),
                retained_bytes: mv.retained_bytes,
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

    fn execute_explain(
        &self,
        analyze: bool,
        inner: AnalyzedStatement,
        verification: Option<String>,
        source: &str,
        parent: Option<&CancellationToken>,
    ) -> Result<QueryResult, EngineError> {
        match inner {
            // EXPLAIN CHECK is the same as CHECK: the report *is* the plan
            // explanation of a verification-only statement.
            AnalyzedStatement::Check(q) => {
                Ok(crate::check::check_result(&self.run_check(&q, source)))
            }
            // EXPLAIN ANALYZE query: execute with tracing forced on, then
            // render the plan annotated with the live counters.
            AnalyzedStatement::Query(q) if analyze => {
                let plan_for_render = optimize(q.final_plan.clone());
                let cliques_for_render: Vec<String> = q
                    .cliques
                    .iter()
                    .cloned()
                    .map(|c| optimize_spec(c).display())
                    .collect();
                let mut result = self.execute_query(q, true, parent)?;
                let trace = result.trace.take().expect("tracing forced on");
                let mut text = String::new();
                for c in &cliques_for_render {
                    text.push_str(c);
                }
                let by_path: HashMap<&str, &rasql_exec::OperatorTrace> = trace
                    .operators
                    .iter()
                    .map(|o| (o.path.as_str(), o))
                    .collect();
                text.push_str("Final plan:\n");
                text.push_str(&plan_for_render.display_annotated(
                    &mut |path| match by_path.get(path) {
                        // A scan answered from the index store says so; a
                        // scanned one is followed by a `filter` stage below.
                        Some(o) => format!(
                            "{}  (rows={} bytes={} time={:.3}ms)",
                            if o.label.starts_with("index lookup") {
                                format!("  [{}]", o.label)
                            } else {
                                String::new()
                            },
                            o.rows,
                            o.bytes,
                            o.elapsed_us as f64 / 1000.0
                        ),
                        None => String::new(),
                    },
                ));
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
                if let Some(v) = verification {
                    text.push_str("Verification:\n");
                    text.push_str(&v);
                }
                Ok(QueryResult {
                    relation: text_relation(&text),
                    stats: result.stats,
                    trace: Some(trace),
                })
            }
            // Plain EXPLAIN (and EXPLAIN ANALYZE of non-queries, which have
            // nothing to measure): render without executing.
            other => {
                let mut text = render_plan(&other);
                if matches!(
                    other,
                    AnalyzedStatement::Query(_) | AnalyzedStatement::CreateMaterializedView { .. }
                ) {
                    if let Some(v) = verification {
                        text.push_str("Verification:\n");
                        text.push_str(&v);
                    }
                }
                Ok(QueryResult {
                    relation: text_relation(&text),
                    stats: QueryStats::default(),
                    trace: None,
                })
            }
        }
    }

    /// Render the compiled plan of a query: the recursive clique plans
    /// (Fig 2a) and the final plan — without executing it.
    pub fn explain(&self, sql: &str) -> Result<String, EngineError> {
        let statements = parse_statements(sql)?;
        let mut out = String::new();
        for stmt in &statements {
            let analyzed = {
                let pc = self.planner_catalog.lock();
                analyze_statement(stmt, &pc)?
            };
            match analyzed {
                AnalyzedStatement::Check(q) => out.push_str(&self.run_check(&q, sql).rendered),
                other => {
                    out.push_str(&render_plan(&other));
                    if matches!(
                        other,
                        AnalyzedStatement::Query(_)
                            | AnalyzedStatement::CreateMaterializedView { .. }
                    ) {
                        if let Some(q) = innermost_query(stmt) {
                            out.push_str("Verification:\n");
                            out.push_str(&self.verify_ast(q).summary());
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Run the static verifier over a query AST against this session's view
    /// catalog (the `CHECK` statement and `EXPLAIN` verification section).
    pub(crate) fn verify_ast(&self, q: &rasql_parser::ast::Query) -> rasql_plan::VerifyReport {
        rasql_plan::verify_query(q, &self.planner_catalog.lock())
    }

    /// Names of the registered base tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Cumulative cluster metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.cluster.metrics.snapshot()
    }

    /// Reset cumulative cluster metrics.
    pub fn reset_metrics(&self) {
        self.cluster.metrics.reset();
    }

    /// Analyze a parsed statement against this session's catalog (used by the
    /// PreM checker and tests that inspect plans).
    pub fn analyze(&self, stmt: &Statement) -> Result<AnalyzedStatement, EngineError> {
        Ok(analyze_statement(stmt, &self.planner_catalog.lock())?)
    }

    pub(crate) fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A clone of the shared planner catalog — the base a session overlays
    /// its private views onto.
    pub(crate) fn planner_snapshot(&self) -> ViewCatalog {
        self.planner_catalog.lock().clone()
    }
}

/// The empty result `CREATE VIEW` statements return.
pub(crate) fn empty_result() -> QueryResult {
    QueryResult {
        relation: Relation::empty(Schema::empty()),
        stats: QueryStats::default(),
        trace: None,
    }
}

/// A one-column, one-row integer result (`INSERT` / `DELETE` row counts).
fn count_result(label: &str, n: usize) -> QueryResult {
    let schema = Schema::new(vec![(label, DataType::Int)]);
    QueryResult {
        relation: Relation::new_unchecked(schema, vec![Row::new(vec![Value::Int(n as i64)])]),
        stats: QueryStats::default(),
        trace: None,
    }
}

/// A one-column status relation, one row per line.
fn status_lines(text: &str) -> Relation {
    let schema = Schema::new(vec![("status", DataType::Str)]);
    let rows = text
        .lines()
        .map(|l| Row::new(vec![Value::str(l)]))
        .collect();
    Relation::new_unchecked(schema, rows)
}

/// A status message packed as a [`QueryResult`] with default stats.
fn status_result(text: &str) -> QueryResult {
    QueryResult {
        relation: status_lines(text),
        stats: QueryStats::default(),
        trace: None,
    }
}

/// Fluent construction of a [`RaSqlContext`]; obtained from
/// [`RaSqlContext::builder`].
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
#[derive(Debug, Clone)]
pub struct ContextBuilder {
    config: EngineConfig,
}

impl Default for ContextBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextBuilder {
    /// Start from the default (fully optimized) configuration.
    pub fn new() -> Self {
        ContextBuilder {
            config: EngineConfig::default(),
        }
    }

    /// Start from an explicit preset (e.g. `EngineConfig::bigdatalog_like()`).
    pub fn preset(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Simulated worker (and partition) count.
    pub fn workers(mut self, n: usize) -> Self {
        self.config = self.config.with_workers(n);
        self
    }

    /// Partition count, decoupled from the worker count.
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n.max(1);
        self
    }

    /// Join strategy for the recursive join.
    pub fn join(mut self, join: JoinStrategy) -> Self {
        self.config = self.config.with_join(join);
        self
    }

    /// Fixpoint evaluation mode (semi-naive vs. naive).
    pub fn eval_mode(mut self, mode: EvalMode) -> Self {
        self.config.eval_mode = mode;
        self
    }

    /// Toggle stage combination (§7.1).
    pub fn stage_combination(mut self, on: bool) -> Self {
        self.config = self.config.with_stage_combination(on);
        self
    }

    /// Toggle decomposed-plan evaluation (§7.2).
    pub fn decomposed_plans(mut self, on: bool) -> Self {
        self.config = self.config.with_decomposed(on);
        self
    }

    /// Toggle fused code generation (§7.3).
    pub fn fused_codegen(mut self, on: bool) -> Self {
        self.config = self.config.with_fused_codegen(on);
        self
    }

    /// Toggle partition-aware scheduling (§6.1).
    pub fn partition_aware(mut self, on: bool) -> Self {
        self.config.partition_aware = on;
        self
    }

    /// Toggle broadcast compression (§7.2).
    pub fn broadcast_compression(mut self, on: bool) -> Self {
        self.config = self.config.with_broadcast_compression(on);
        self
    }

    /// Toggle specialized fixpoint kernels (CSR + dense vertex state).
    pub fn specialized_kernels(mut self, on: bool) -> Self {
        self.config = self.config.with_specialized_kernels(on);
        self
    }

    /// Iteration cap.
    pub fn max_iterations(mut self, n: u32) -> Self {
        self.config = self.config.with_max_iterations(n);
        self
    }

    /// Simulated per-stage scheduler latency in microseconds.
    pub fn stage_latency_us(mut self, us: u64) -> Self {
        self.config = self.config.with_stage_latency_us(us);
        self
    }

    /// Collect a [`QueryTrace`] for every query.
    pub fn tracing(mut self, on: bool) -> Self {
        self.config = self.config.with_tracing(on);
        self
    }

    /// Enable deterministic fault injection on the simulated cluster.
    pub fn faults(mut self, spec: Option<rasql_exec::FaultSpec>) -> Self {
        self.config = self.config.with_faults(spec);
        self
    }

    /// Retry budget for injected task failures.
    pub fn max_task_retries(mut self, retries: u32) -> Self {
        self.config = self.config.with_max_task_retries(retries);
        self
    }

    /// Checkpoint fixpoint state every `k` rounds (0 disables).
    pub fn checkpoint_interval(mut self, k: u32) -> Self {
        self.config = self.config.with_checkpoint_interval(k);
        self
    }

    /// Per-query memory budget in bytes (0 = unlimited). Over budget, shuffle
    /// buffers and fixpoint state spill to disk.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config = self.config.with_memory_budget(bytes);
        self
    }

    /// Per-query deadline in milliseconds (0 = none), enforced cooperatively
    /// at stage and fixpoint-round boundaries.
    pub fn query_timeout_ms(mut self, ms: u64) -> Self {
        self.config = self.config.with_query_timeout_ms(ms);
        self
    }

    /// Cap queries executing concurrently on the context (0 = unlimited).
    pub fn max_concurrent_queries(mut self, n: usize) -> Self {
        self.config = self.config.with_max_concurrent_queries(n);
        self
    }

    /// Admission wait-queue capacity; queries beyond it are rejected.
    pub fn admission_queue(mut self, n: usize) -> Self {
        self.config = self.config.with_admission_queue(n);
        self
    }

    /// Version-keyed result-cache capacity in entries (0 disables caching).
    pub fn result_cache(mut self, entries: usize) -> Self {
        self.config = self.config.with_result_cache(entries);
        self
    }

    /// Attach a data directory: catalog and materialized-view mutations are
    /// journaled to a checksummed write-ahead log in `dir`, and building the
    /// context first recovers whatever state the directory holds.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config = self.config.with_data_dir(dir);
        self
    }

    /// Publish a compacting snapshot every `n` journaled records (0 leaves
    /// the log to grow until the next startup compaction).
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.config = self.config.with_snapshot_every(n);
        self
    }

    /// Enable deterministic crashpoint injection on the durability write
    /// path (testing only: write/fsync/rename boundaries simulate process
    /// death as [`StorageError::InjectedCrash`]).
    pub fn crash_spec(mut self, spec: Option<rasql_storage::CrashSpec>) -> Self {
        self.config = self.config.with_crash_spec(spec);
        self
    }

    /// The configuration built so far.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Build the context.
    ///
    /// # Panics
    /// When a data directory is attached and recovery fails; use
    /// [`ContextBuilder::try_build`] to handle that as a typed error.
    pub fn build(self) -> RaSqlContext {
        RaSqlContext::with_config(self.config)
    }

    /// Build the context, surfacing durability recovery failures as typed
    /// errors (never fails without a data directory).
    ///
    /// # Errors
    /// See [`RaSqlContext::try_with_config`].
    pub fn try_build(self) -> Result<RaSqlContext, EngineError> {
        RaSqlContext::try_with_config(self.config)
    }
}

/// Render an analyzed statement's plan as text (no execution).
fn render_plan(analyzed: &AnalyzedStatement) -> String {
    match analyzed {
        AnalyzedStatement::CreateView { name, plan } => {
            format!(
                "CreateView {name}\n{}",
                optimize(plan.clone()).display_indent()
            )
        }
        AnalyzedStatement::Query(q) => {
            let mut out = String::new();
            for clique in &q.cliques {
                out.push_str(&optimize_spec(clique.clone()).display());
            }
            out.push_str("Final plan:\n");
            out.push_str(&optimize(q.final_plan.clone()).display_indent());
            out
        }
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
            optimize(keep_plan.clone()).display_indent()
        ),
        AnalyzedStatement::CreateMaterializedView { name, query, .. } => format!(
            "CreateMaterializedView {name}\n{}",
            render_plan(&AnalyzedStatement::Query(query.clone()))
        ),
        AnalyzedStatement::RefreshMaterializedView { name, .. } => {
            format!("RefreshMaterializedView {name}\n")
        }
        AnalyzedStatement::DropMaterializedView { name, .. } => {
            format!("DropMaterializedView {name}\n")
        }
    }
}

/// The query AST a statement ultimately wraps (through any `EXPLAIN` /
/// `CHECK` layers) — the input to the static verifier, which needs the AST
/// because source spans don't survive analysis.
fn innermost_query(stmt: &Statement) -> Option<&rasql_parser::ast::Query> {
    match stmt {
        Statement::Query(q) | Statement::Check(q) => Some(q),
        Statement::Explain { inner, .. } => innermost_query(inner),
        // A materialized view's verification (including the RA0301
        // maintenance findings) is that of its defining query.
        Statement::CreateMaterializedView { query, .. } => Some(query),
        Statement::CreateView { .. }
        | Statement::Insert { .. }
        | Statement::Delete { .. }
        | Statement::RefreshMaterializedView { .. }
        | Statement::DropMaterializedView { .. } => None,
    }
}

/// Pack rendered text into a single-column relation, one row per line — the
/// shape `EXPLAIN` results travel in.
fn text_relation(text: &str) -> Relation {
    let schema = Schema::new(vec![("plan", DataType::Str)]);
    let rows = text
        .lines()
        .map(|l| Row::new(vec![Value::str(l)]))
        .collect();
    Relation::new_unchecked(schema, rows)
}
