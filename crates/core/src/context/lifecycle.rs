//! The seals of the statement lifecycle. A statement is timed by one
//! [`Clock`], which only [`RaSqlContext::run_statement`] starts; measured by
//! one metrics delta, which only `execute` takes and only a [`Run`] carries
//! out; and reported by one [`QueryStats`], which only `run_statement`
//! assembles, from that clock and that run. A statement kind that timed,
//! measured or reported by itself would be a second statement path — the
//! copies drift (a cache hit and an `INSERT` once reported no time at all) —
//! and here it does not compile: the fields and constructors it would need
//! are private to this module.

use super::{Executed, QueryResult, Resume, Scope};
use crate::error::EngineError;
use crate::eval::{view_reads, EvalContext, ViewData};
use crate::fixpoint::{FixpointExecutor, FixpointResult};
use crate::RaSqlContext;
use rasql_exec::{CancellationToken, MetricsSnapshot, QueryTrace, TraceSink};
use rasql_parser::Statement;
use rasql_plan::AnalyzedQuery;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics of one statement. Only the statement lifecycle builds one, at
/// the end of the statement, from its clock and its run: outside it neither
/// a literal nor a default compiles.
///
/// ```compile_fail
/// let stats = rasql_core::QueryStats {
///     query_id: 0,
///     iterations: Vec::new(),
///     elapsed: std::time::Duration::ZERO,
///     cached: false,
///     metrics: rasql_exec::MetricsSnapshot::default(),
/// };
/// ```
///
/// ```compile_fail
/// let stats = rasql_core::QueryStats::default();
/// ```
///
/// ```compile_fail
/// let new = rasql_core::QueryStats::new;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// The context-assigned query id (the handle `kill` takes) of a statement
    /// that ran under a governor; 0 for one that never did (e.g. `CREATE
    /// VIEW`, a result-cache hit).
    pub query_id: u64,
    /// Fixpoint iterations, one entry per recursive clique evaluated.
    pub iterations: Vec<u32>,
    /// Wall-clock time of the statement, from its analysis to its result.
    pub elapsed: Duration,
    /// True when the result was served from the version-keyed result cache
    /// (nothing executed; `metrics` are zero and `query_id` is 0).
    pub cached: bool,
    /// Runtime metric deltas accumulated during the query. The governance
    /// fields (`peak_memory`, `spilled_bytes`, `spill_files`) are this
    /// query's own, from its governor — exact even under concurrency.
    pub metrics: MetricsSnapshot,
    /// No literal outside this module.
    seal: Seal,
}

/// What seals [`QueryStats`]: only this module names it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seal;

/// The one clock of a statement, started when `run_statement` takes it up
/// and read by whatever reports time: the statement's stats, a cached
/// trace, a refresh's operator line.
#[derive(Clone, Copy)]
pub(crate) struct Clock(Instant);

impl Clock {
    /// Time since the statement started.
    pub(crate) fn elapsed(self) -> Duration {
        self.0.elapsed()
    }
}

/// What running a statement measured — its [`QueryStats`] except the wall
/// time, which the lifecycle reads last — and its trace. Only `execute`
/// puts a metrics delta in one.
#[derive(Default)]
pub(super) struct Run {
    query_id: u64,
    iterations: Vec<u32>,
    cached: bool,
    metrics: MetricsSnapshot,
    trace: Option<QueryTrace>,
}

impl Run {
    /// A governed statement that ran no plan of its own worth measuring (a
    /// `DELETE`'s keep-predicate scan): its query id only.
    pub(super) fn governed(query_id: u64) -> Self {
        Run {
            query_id,
            ..Run::default()
        }
    }

    /// A result-cache hit: the iterations the cached run took and, for a
    /// traced session, a trace that says "cached".
    pub(super) fn cached(iterations: Vec<u32>, traced: bool, clock: Clock) -> Self {
        Run {
            iterations,
            cached: true,
            trace: traced.then(|| QueryTrace::cached(clock.elapsed())),
            ..Run::default()
        }
    }

    /// Fixpoint iterations, one entry per clique.
    pub(super) fn iterations(&self) -> &[u32] {
        &self.iterations
    }

    /// The trace, when the statement was traced.
    pub(super) fn trace(&self) -> Option<&QueryTrace> {
        self.trace.as_ref()
    }

    /// The trace, to append an operator line to.
    pub(super) fn trace_mut(&mut self) -> Option<&mut QueryTrace> {
        self.trace.as_mut()
    }
}

impl RaSqlContext {
    /// The statement lifecycle. Every statement of every surface — a
    /// context's script, a session's, a prepared replay — runs here, in one
    /// order: analyze, verify and optimize it in its scope's catalog
    /// ([`plan`](Self::plan)); refresh the stale views a query reads; probe
    /// the result cache; admit it under a fresh governor; execute; publish.
    /// One clock times all of it, and its stats are assembled here, last.
    pub(crate) fn run_statement(
        &self,
        stmt: &Statement,
        source: &str,
        scope: &mut Scope<'_>,
    ) -> Result<QueryResult, EngineError> {
        let clock = Clock(Instant::now());
        let planned = self.plan(stmt, scope)?;
        let (relation, run) = self.run_planned(planned, source, scope, clock)?;
        let stats = QueryStats {
            query_id: run.query_id,
            iterations: run.iterations,
            elapsed: clock.elapsed(),
            cached: run.cached,
            metrics: run.metrics,
            seal: Seal,
        };
        Ok(QueryResult {
            relation,
            stats,
            trace: run.trace,
        })
    }

    /// Phases 5 and 6: admit `q` under a fresh governor and run it — each
    /// clique to its fixpoint (resumed from `resume` for a view's
    /// delta-seeded refresh, which also hands back the state it converged
    /// to), then the final plan — taking what the run measured: the metrics
    /// delta, the governor's own numbers and, when `traced`, the trace.
    pub(super) fn execute(
        &self,
        q: &AnalyzedQuery,
        parent: Option<&CancellationToken>,
        traced: bool,
        resume: Option<&Resume>,
        keep_views: bool,
        clock: Clock,
    ) -> Result<Executed, EngineError> {
        self.with_governor(parent, |governor| {
            let before = self.cluster.metrics.snapshot();
            let sink = traced.then(TraceSink::new);
            let mut views: HashMap<String, ViewData> = HashMap::new();
            let mut iterations = Vec::new();
            let mut state = None;
            for (ci, clique) in q.cliques.iter().enumerate() {
                let eval = EvalContext::statement(self, &views, sink.as_ref(), Some(governor));
                let exec = FixpointExecutor::new(&eval, &self.config);
                let result = match resume {
                    Some(r) => {
                        let (iterations, resumed) =
                            exec.run_resume(clique, &r.state, &r.changed)?;
                        let views = if r.patched {
                            Vec::new()
                        } else {
                            (resumed.relations(clique).into_iter())
                                .map(|rel| ViewData::Rows(Arc::new(rel)))
                                .collect()
                        };
                        state = Some(resumed);
                        FixpointResult { views, iterations }
                    }
                    None => exec.run(clique)?,
                };
                iterations.push(result.iterations);
                for (spec, data) in clique.views.iter().zip(result.views) {
                    // A lane view read more than once becomes rows here,
                    // once, so no two readers convert it.
                    let reads = view_reads(&spec.name, &q.final_plan, &q.cliques[ci + 1..]);
                    let data = if reads > 1 && matches!(data, ViewData::Lanes { .. }) {
                        ViewData::Rows(data.into_relation())
                    } else {
                        data
                    };
                    views.insert(spec.name.to_ascii_lowercase(), data);
                }
            }
            let eval = EvalContext::statement(self, &views, sink.as_ref(), Some(governor));
            // Operator counters only around the final plan, so base-case and
            // build-side evaluations inside the fixpoint don't pollute them.
            if let Some(s) = &sink {
                s.enable_operators(true);
            }
            let answer = match resume {
                Some(r) if r.patched => None,
                _ => Some(eval.eval_data(&q.final_plan)?),
            };
            if let Some(s) = &sink {
                s.enable_operators(false);
            }
            // The answer's rows are built here, once. The views go first
            // unless the caller keeps them, so a lane batch the answer reads
            // is dropped as soon as its rows exist.
            if !keep_views {
                views.clear();
            }
            let relation = answer.map(|a| a.into_relation(q.final_plan.schema().clone()));
            let mut metrics = self.cluster.metrics.snapshot().since(&before);
            // Governance numbers come from this query's own governor: global
            // counter deltas would bleed across concurrent queries.
            metrics.peak_memory = governor.tracker().peak();
            metrics.spilled_bytes = governor.spilled_bytes();
            metrics.spill_files = governor.spill_files();
            let run = Run {
                query_id: governor.query_id(),
                iterations,
                cached: false,
                metrics,
                trace: sink.map(|s| s.finish(clock.elapsed(), metrics)),
            };
            Ok(Executed {
                relation,
                views,
                run,
                state,
            })
        })
    }
}
