//! [`Session`] — an isolated view of a shared [`RaSqlContext`].
//!
//! A context is one engine: one catalog of base tables, one simulated
//! cluster, one admission controller. A session is one *client* of that
//! engine — `rasql-server` opens one per connection. Sessions add three
//! things the bare context doesn't have:
//!
//! * **A private view overlay.** `CREATE VIEW` in a session lands in the
//!   session's own catalog, layered over a snapshot of the shared one, so
//!   two connections can define `tc` differently without clobbering each
//!   other. Base tables stay shared: [`Session::register`] is visible to
//!   everyone (a table upload is data, not session state). So is a
//!   materialized view, which may therefore read only what recovery can
//!   replay: base tables, shared views, and views its own script creates.
//! * **Prepared statements.** [`Session::prepare`] parses and plans a
//!   script once; [`Session::execute_prepared`] replays it by name without
//!   re-parsing the text.
//! * **An interrupt token.** Every query a session runs gets a cancellation
//!   token *parented* under the session's interrupt token
//!   ([`Session::interrupt`] fires it). The server calls it when a client
//!   disconnects mid-query: everything that session had in flight unwinds
//!   with `Cancelled` at its next stage boundary, releasing admission slots
//!   and spill directories.
//!
//! Everything else — analysis, verification, optimization, execution — is
//! the context's one statement lifecycle: a session supplies only its views
//! and its interrupt token.
//!
//! Queries from different sessions run concurrently, subject only to the
//! shared admission controller — there is no context-wide lock held across a
//! fixpoint (the planner-catalog lock is held only during analysis).

use crate::context::{read_script, QueryResult, RaSqlContext, Scope, Views};
use crate::error::EngineError;
use rasql_exec::CancellationToken;
use rasql_parser::Statement;
use rasql_storage::sync::{LockRank, RankedMutex};
use rasql_storage::Relation;
use std::collections::HashMap;
use std::sync::Arc;

/// A named, pre-planned script (see [`Session::prepare`]).
#[derive(Clone)]
struct Prepared {
    /// The original SQL (diagnostics quote spans from it).
    source: String,
    /// Its parsed statements, replayed in order by `execute_prepared`.
    statements: Vec<Statement>,
}

/// One client's isolated view of a shared [`RaSqlContext`]: private views,
/// prepared statements, and an interrupt token fanning out to the session's
/// in-flight queries. See the [module docs](self) for the isolation model.
///
/// ```
/// use rasql_core::RaSqlContext;
/// use rasql_storage::Relation;
/// use std::sync::Arc;
///
/// let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
/// ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)])).unwrap();
///
/// let a = ctx.session();
/// let b = ctx.session();
/// a.query("CREATE VIEW pairs AS SELECT Src, Dst FROM edge").unwrap();
/// assert!(a.query("SELECT count(*) FROM pairs").is_ok());
/// assert!(b.query("SELECT count(*) FROM pairs").is_err()); // b never defined it
/// ```
pub struct Session {
    ctx: Arc<RaSqlContext>,
    /// Session-local views in definition order (later wins on re-definition
    /// when overlaid onto the shared catalog).
    views: Views,
    /// Prepared statements by lowercased name.
    prepared: RankedMutex<HashMap<String, Prepared>>,
    /// Parent of every query token this session issues. One-shot: once
    /// fired, the session is dead (subsequent queries cancel immediately) —
    /// it models a closed connection, not a retryable interrupt.
    interrupt: CancellationToken,
}

impl RaSqlContext {
    /// Open a session on this context. Cheap; holds no locks.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            ctx: Arc::clone(self),
            views: RankedMutex::new(LockRank::SessionViews, Vec::new()),
            prepared: RankedMutex::new(LockRank::SessionPrepared, HashMap::new()),
            // Query id 0 is never allocated to a real query; no deadline —
            // per-query deadlines come from the engine config as usual.
            interrupt: CancellationToken::new(0, None),
        }
    }
}

impl Session {
    /// The shared context this session runs on.
    pub fn context(&self) -> &Arc<RaSqlContext> {
        &self.ctx
    }

    /// Execute one SQL statement in this session; see
    /// [`RaSqlContext::query`] for the result shape.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        let mut results = self.query_script(sql)?;
        results
            .pop()
            .ok_or_else(|| EngineError::Other("empty statement".into()))
    }

    /// Execute a `;`-separated script in this session; one [`QueryResult`]
    /// per statement. `CREATE VIEW` lands in the session overlay.
    pub fn query_script(&self, sql: &str) -> Result<Vec<QueryResult>, EngineError> {
        let mut out = Vec::new();
        self.query_script_with(sql, |r| out.push(r))?;
        Ok(out)
    }

    /// Like [`Session::query_script`], but hands each statement's result to
    /// `on_result` as soon as it completes instead of collecting — the
    /// streaming path `rasql-server` uses to push result batches to the
    /// client while later statements are still running. Stops at the first
    /// failing statement.
    pub fn query_script_with(
        &self,
        sql: &str,
        mut on_result: impl FnMut(QueryResult),
    ) -> Result<(), EngineError> {
        read_script(sql, &mut self.scope(), |stmt, scope| {
            on_result(self.ctx.run_statement(stmt, sql, scope)?);
            Ok(())
        })?;
        Ok(())
    }

    /// Streaming variant of [`Session::execute_prepared`].
    pub fn execute_prepared_with(
        &self,
        name: &str,
        mut on_result: impl FnMut(QueryResult),
    ) -> Result<(), EngineError> {
        let prepared = self
            .prepared
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| EngineError::Other(format!("unknown prepared statement '{name}'")))?;
        let mut scope = self.scope();
        for stmt in &prepared.statements {
            on_result(self.ctx.run_statement(stmt, &prepared.source, &mut scope)?);
        }
        Ok(())
    }

    /// Parse and plan a script under `name` for later replay. Planning runs
    /// against the session catalog as it would be at execution time (views
    /// the script itself creates are visible to its later statements) but
    /// publishes nothing, so a bad script fails here, not at `EXECUTE`.
    /// Returns the statement count. Re-preparing a name replaces it.
    pub fn prepare(&self, name: &str, sql: &str) -> Result<usize, EngineError> {
        let views = Views::new(LockRank::SessionViews, self.views.lock().clone());
        let statements = read_script(sql, &mut Scope::private(&views, None), |stmt, scope| {
            self.ctx.plan(stmt, scope).map(drop)
        })?;
        if statements.is_empty() {
            return Err(EngineError::Other("empty statement".into()));
        }
        let count = statements.len();
        self.prepared.lock().insert(
            name.to_ascii_lowercase(),
            Prepared {
                source: sql.to_string(),
                statements,
            },
        );
        Ok(count)
    }

    /// Whether `name` was prepared on this session.
    pub fn has_prepared(&self, name: &str) -> bool {
        self.prepared
            .lock()
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Replay a prepared script; one [`QueryResult`] per statement.
    pub fn execute_prepared(&self, name: &str) -> Result<Vec<QueryResult>, EngineError> {
        let mut out = Vec::new();
        self.execute_prepared_with(name, |r| out.push(r))?;
        Ok(out)
    }

    /// Register or replace a base table — shared with every session (table
    /// data is engine state, not session state).
    ///
    /// # Errors
    /// [`EngineError::Storage`](crate::EngineError::Storage) when journaling
    /// to a durable context's write-ahead log fails; infallible in memory.
    pub fn register(&self, name: &str, rel: Relation) -> Result<(), crate::EngineError> {
        self.ctx.register_or_replace(name, rel)
    }

    /// Names of this session's private views, in definition order.
    pub fn view_names(&self) -> Vec<String> {
        self.views.lock().iter().map(|(n, _)| n.clone()).collect()
    }

    /// Cancel everything this session has in flight (and anything it would
    /// submit later): fires the session interrupt token, which every query
    /// token is a child of. The server calls this when a client connection
    /// drops mid-query.
    pub fn interrupt(&self) {
        self.interrupt.cancel();
    }

    /// The session's interrupt token (parent of every query token it issues).
    pub fn interrupt_token(&self) -> &CancellationToken {
        &self.interrupt
    }

    /// What the session supplies to each statement: its views and its
    /// interrupt token.
    fn scope(&self) -> Scope<'_> {
        Scope::private(&self.views, Some(&self.interrupt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::Value;

    fn ctx() -> Arc<RaSqlContext> {
        let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
        ctx.register("edge", Relation::edges(&[(1, 2), (2, 3), (3, 4)]))
            .unwrap();
        ctx
    }

    #[test]
    fn session_views_are_isolated() {
        let ctx = ctx();
        let a = ctx.session();
        let b = ctx.session();
        a.query(
            "CREATE VIEW hop2 AS SELECT e1.Src, e2.Dst FROM edge e1, edge e2 WHERE e1.Dst = e2.Src",
        )
        .unwrap();
        let rows = a.query("SELECT count(*) FROM hop2").unwrap();
        assert_eq!(rows.relation.rows()[0][0], Value::Int(2));
        // The other session — and the bare context — never see the view.
        assert!(b.query("SELECT count(*) FROM hop2").is_err());
        assert!(ctx.query("SELECT count(*) FROM hop2").is_err());
    }

    #[test]
    fn session_view_redefinition_wins() {
        let ctx = ctx();
        let s = ctx.session();
        s.query("CREATE VIEW v AS SELECT Src FROM edge").unwrap();
        s.query("CREATE VIEW v AS SELECT Src, Dst FROM edge")
            .unwrap();
        let r = s.query("SELECT * FROM v").unwrap();
        assert_eq!(r.relation.schema().arity(), 2);
        assert_eq!(s.view_names(), vec!["v".to_string()]);
    }

    #[test]
    fn prepared_statements_replay() {
        let ctx = ctx();
        let s = ctx.session();
        assert_eq!(s.prepare("walk", "SELECT count(*) FROM edge").unwrap(), 1);
        assert!(s.has_prepared("WALK")); // names are case-insensitive
        let results = s.execute_prepared("walk").unwrap();
        assert_eq!(results[0].relation.rows()[0][0], Value::Int(3));
        // A bad script fails at prepare time, not execute time.
        assert!(s.prepare("bad", "SELECT * FROM nonexistent").is_err());
        assert!(s.execute_prepared("bad").is_err());
    }

    #[test]
    fn interrupt_poisons_the_session() {
        let ctx = ctx();
        let s = ctx.session();
        assert!(s.query("SELECT count(*) FROM edge").is_ok());
        s.interrupt();
        let err = s.query("SELECT count(*) FROM edge").unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Exec(rasql_exec::ExecError::Cancelled { .. })
            ),
            "expected Cancelled, got: {err}"
        );
    }

    #[test]
    fn sessions_share_base_tables() {
        let ctx = ctx();
        let a = ctx.session();
        let b = ctx.session();
        a.register("extra", Relation::edges(&[(9, 10)])).unwrap();
        let r = b.query("SELECT count(*) FROM extra").unwrap();
        assert_eq!(r.relation.rows()[0][0], Value::Int(1));
    }
}
