//! PreM auto-validation — the GPtest analog (paper §3 and Appendix G).
//!
//! Pre-Mappability of a constraint γ to the recursive rule T means
//! `γ(T(I)) = γ(T(γ(I)))`. Appendix G validates it operationally: run the
//! original (endo-aggregate) query and its PreM-checking rewrite *iteration by
//! iteration* and signal a violation as soon as the aggregated results differ.
//!
//! [`PremChecker`] does exactly that with a lock-step single-threaded
//! semi-naive evaluation of both versions:
//!
//! - the **aggregated run** keeps `γ(T(γ(·)))^k` — the endo-aggregate state;
//! - the **stratified run** keeps `T^k(base)` — the un-aggregated state
//!   (the `all` view of Query G2);
//!
//! after every iteration it compares `γ(stratified)` against the aggregated
//! state. Cyclic inputs can make the stratified run diverge (the reason Q2 is
//! preferable!), so the check is bounded and reports
//! [`PremCheckOutcome::HeldWithinBound`] when every compared step matched but
//! the stratified side had not yet converged.
//!
//! [`prem_checking_version`] additionally emits the G2-style rewritten SQL
//! text (the `all` + aggregated view pair of Appendix G).

use crate::context::RaSqlContext;
use crate::error::EngineError;
use crate::eval::EvalContext;
use rasql_exec::HashTable;
use rasql_parser::ast::{AggFunc, CteDef, Select, SelectItem, Statement, TableRef};
use rasql_parser::parse;
use rasql_plan::{AnalyzedStatement, BranchStep, JoinBuild, PExpr, ViewSpec};
use rasql_storage::{FxHashMap, FxHashSet, Row, Value};
use std::collections::HashMap;

/// Outcome of a PreM check.
#[derive(Debug, Clone, PartialEq)]
pub enum PremCheckOutcome {
    /// Both runs converged and every step matched: PreM holds on this input.
    Holds {
        /// Iterations to the fixpoint.
        iterations: u32,
    },
    /// Every compared step matched, but the stratified run hit the
    /// iteration/row bound before converging (typical for cyclic data).
    HeldWithinBound {
        /// Iterations compared.
        iterations: u32,
    },
    /// A step differed: PreM is violated at this iteration.
    Violated {
        /// First differing iteration.
        iteration: u32,
        /// A sample differing group (key, aggregated value, γ(stratified)).
        detail: String,
    },
    /// The query shape is outside what the checker supports.
    Inconclusive(String),
}

/// Bounds for the lock-step check.
#[derive(Debug, Clone, Copy)]
pub struct PremCheckBounds {
    /// Maximum iterations to compare.
    pub max_iterations: u32,
    /// Maximum rows the stratified state may reach.
    pub max_rows: usize,
}

impl Default for PremCheckBounds {
    fn default() -> Self {
        PremCheckBounds {
            max_iterations: 100,
            max_rows: 500_000,
        }
    }
}

/// The PreM checker bound to a context's tables.
pub struct PremChecker<'a> {
    ctx: &'a RaSqlContext,
    bounds: PremCheckBounds,
}

impl<'a> PremChecker<'a> {
    /// A checker with default bounds.
    pub fn new(ctx: &'a RaSqlContext) -> Self {
        PremChecker {
            ctx,
            bounds: PremCheckBounds::default(),
        }
    }

    /// Override the bounds.
    pub fn with_bounds(mut self, bounds: PremCheckBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Run the lock-step check on a RaSQL query.
    pub fn check(&self, sql: &str) -> Result<PremCheckOutcome, EngineError> {
        let stmt = parse(sql)?;
        self.check_statement(&stmt)
    }

    /// Run the lock-step check on an already-parsed statement, analyzed
    /// against the shared catalog.
    pub fn check_statement(&self, stmt: &Statement) -> Result<PremCheckOutcome, EngineError> {
        self.check_analyzed(self.ctx.analyze(stmt)?)
    }

    /// Run the lock-step check on an analyzed statement (the static
    /// verifier's dynamic fallback, which analyzes in the catalog of the
    /// `CHECK` statement's own scope).
    pub(crate) fn check_analyzed(
        &self,
        analyzed: AnalyzedStatement,
    ) -> Result<PremCheckOutcome, EngineError> {
        let q = match analyzed {
            AnalyzedStatement::Query(q) => q,
            AnalyzedStatement::CreateView { .. }
            | AnalyzedStatement::Explain { .. }
            | AnalyzedStatement::Check(_)
            | AnalyzedStatement::Insert { .. }
            | AnalyzedStatement::Delete { .. }
            | AnalyzedStatement::CreateMaterializedView { .. }
            | AnalyzedStatement::RefreshMaterializedView { .. }
            | AnalyzedStatement::DropMaterializedView { .. } => {
                return Ok(PremCheckOutcome::Inconclusive(
                    "only plain queries have recursion to check".into(),
                ))
            }
        };
        if q.cliques.len() != 1 || q.cliques[0].views.len() != 1 {
            return Ok(PremCheckOutcome::Inconclusive(
                "the checker handles a single self-recursive view".into(),
            ));
        }
        let view = &q.cliques[0].views[0];
        if view.aggs.is_empty() {
            return Ok(PremCheckOutcome::Inconclusive(
                "no aggregate in recursion — nothing to validate".into(),
            ));
        }
        if view
            .aggs
            .iter()
            .any(|(_, f)| !matches!(f, AggFunc::Min | AggFunc::Max))
        {
            return Ok(PremCheckOutcome::Inconclusive(
                "sum/count use continuous-count semantics (§3); the step-wise \
                 extrema check applies to min/max"
                    .into(),
            ));
        }
        if view.recursive.iter().any(|p| !p.is_linear()) {
            return Ok(PremCheckOutcome::Inconclusive(
                "non-linear recursion is outside the checker's scope".into(),
            ));
        }
        self.lockstep(view)
    }

    fn lockstep(&self, view: &ViewSpec) -> Result<PremCheckOutcome, EngineError> {
        let ctx = self.ctx;
        let views_empty: HashMap<String, crate::eval::ViewData> = HashMap::new();
        let eval = EvalContext {
            cluster: ctx.cluster(),
            catalog: ctx.catalog(),
            views: &views_empty,
            partitions: ctx.config().partitions,
            fused: true,
            trace: None,
            governor: None,
            index: None,
        };

        // Base rows (deduped — UNION semantics).
        let mut base: Vec<Row> = Vec::new();
        let mut seen: FxHashSet<Row> = FxHashSet::default();
        for plan in &view.base {
            for row in eval.evaluate(plan)?.into_rows() {
                if seen.insert(row.clone()) {
                    base.push(row);
                }
            }
        }

        // Compile branches: join tables + filters + output exprs.
        struct Branch {
            steps: Vec<Step>,
            key_exprs: Vec<PExpr>,
            agg_exprs: Vec<PExpr>,
        }
        enum Step {
            Join { table: HashTable, keys: Vec<PExpr> },
            Filter(PExpr),
        }
        let mut branches = Vec::new();
        for prog in &view.recursive {
            let mut steps = Vec::new();
            for s in &prog.steps {
                match s {
                    BranchStep::Filter(e) => steps.push(Step::Filter(e.clone())),
                    BranchStep::HashJoin {
                        build: JoinBuild::Base(plan),
                        stream_keys,
                        build_keys,
                        ..
                    } => {
                        let rel = eval.evaluate(plan)?;
                        steps.push(Step::Join {
                            // lint: allow(RL0008, the lock-step PreM checker replays one query sequentially on its own tables)
                            table: HashTable::build(rel.rows(), build_keys),
                            keys: stream_keys.clone(),
                        });
                    }
                    BranchStep::HashJoin { .. } => {
                        return Ok(PremCheckOutcome::Inconclusive(
                            "recursive join build sides are unsupported".into(),
                        ))
                    }
                }
            }
            branches.push(Branch {
                steps,
                key_exprs: prog.key_exprs.clone(),
                agg_exprs: prog.agg_exprs.clone(),
            });
        }

        let key_cols = &view.key_cols;
        let agg_cols: Vec<usize> = view.aggs.iter().map(|(c, _)| *c).collect();
        let mins: Vec<bool> = view
            .aggs
            .iter()
            .map(|(_, f)| matches!(f, AggFunc::Min))
            .collect();

        // Derivation: combined keys-then-aggs output → schema-shaped row.
        let to_schema = |key_vals: Vec<Value>, agg_vals: Vec<Value>| -> Row {
            let mut vals = vec![Value::Null; key_cols.len() + agg_cols.len()];
            for (i, &c) in key_cols.iter().enumerate() {
                vals[c] = key_vals[i].clone();
            }
            for (j, &c) in agg_cols.iter().enumerate() {
                vals[c] = agg_vals[j].clone();
            }
            Row::new(vals)
        };

        let derive = |input: &[Row]| -> Vec<Row> {
            let mut out = Vec::new();
            for b in &branches {
                let mut current: Vec<Row> = input.to_vec();
                for step in &b.steps {
                    let mut next = Vec::new();
                    match step {
                        Step::Filter(e) => {
                            next.extend(current.iter().filter(|r| e.eval(r).is_truthy()).cloned());
                        }
                        Step::Join { table, keys } => {
                            for r in &current {
                                let k: Vec<Value> = keys.iter().map(|e| e.eval(r)).collect();
                                for m in table.probe(&k) {
                                    next.push(r.concat(m));
                                }
                            }
                        }
                    }
                    current = next;
                }
                for r in &current {
                    let kv: Vec<Value> = b.key_exprs.iter().map(|e| e.eval(r)).collect();
                    let av: Vec<Value> = b.agg_exprs.iter().map(|e| e.eval(r)).collect();
                    out.push(to_schema(kv, av));
                }
            }
            out
        };

        // Merge into an extrema map; returns changed rows (schema-shaped).
        let merge_agg =
            |state: &mut FxHashMap<Box<[Value]>, Vec<Value>>, rows: &[Row]| -> Vec<Row> {
                use std::collections::hash_map::Entry;
                let mut changed: FxHashMap<Box<[Value]>, Vec<Value>> = FxHashMap::default();
                for row in rows {
                    let key: Box<[Value]> = key_cols.iter().map(|&c| row[c].clone()).collect();
                    let vals: Vec<Value> = agg_cols.iter().map(|&c| row[c].clone()).collect();
                    let mut improved = false;
                    match state.entry(key.clone()) {
                        Entry::Vacant(slot) => {
                            slot.insert(vals);
                            improved = true;
                        }
                        Entry::Occupied(mut slot) => {
                            let entry = slot.get_mut();
                            for (j, v) in vals.iter().enumerate() {
                                let better = if mins[j] {
                                    *v < entry[j]
                                } else {
                                    *v > entry[j]
                                };
                                if better {
                                    entry[j] = v.clone();
                                    improved = true;
                                }
                            }
                        }
                    }
                    if improved {
                        changed.insert(key.clone(), state.get(&key).unwrap().clone());
                    }
                }
                changed
                    .into_iter()
                    .map(|(k, v)| to_schema(k.to_vec(), v))
                    .collect()
            };

        // Aggregated run.
        let mut agg_state: FxHashMap<Box<[Value]>, Vec<Value>> = FxHashMap::default();
        let mut agg_delta = merge_agg(&mut agg_state, &base);
        // Stratified run, and γ of its state: the state only grows, so γ
        // folds each round's new rows into one running extrema map.
        let mut strat_state: FxHashSet<Row> = base.iter().cloned().collect();
        let mut strat_delta: Vec<Row> = base.clone();
        let mut strat_diverged = false;
        let mut gamma: FxHashMap<Box<[Value]>, Vec<Value>> = FxHashMap::default();
        merge_agg(&mut gamma, &base);

        for iteration in 1..=self.bounds.max_iterations {
            let agg_converged = agg_delta.is_empty();
            let strat_converged = strat_delta.is_empty() && !strat_diverged;
            if agg_converged && (strat_converged || strat_diverged) {
                return Ok(if strat_diverged {
                    PremCheckOutcome::HeldWithinBound {
                        iterations: iteration - 1,
                    }
                } else {
                    PremCheckOutcome::Holds {
                        iterations: iteration - 1,
                    }
                });
            }

            if !agg_delta.is_empty() {
                let derived = derive(&agg_delta);
                agg_delta = merge_agg(&mut agg_state, &derived);
            }
            if !strat_diverged && !strat_delta.is_empty() {
                let derived = derive(&strat_delta);
                let mut fresh = Vec::new();
                for row in derived {
                    if strat_state.insert(row.clone()) {
                        fresh.push(row);
                    }
                }
                merge_agg(&mut gamma, &fresh);
                strat_delta = fresh;
                if strat_state.len() > self.bounds.max_rows {
                    strat_diverged = true;
                }
            }

            // Compare γ(stratified) with the aggregated state on the keys the
            // aggregated state knows (the stratified side can only be ahead
            // when it diverges past the bound).
            if !strat_diverged {
                if gamma.len() != agg_state.len() {
                    return Ok(PremCheckOutcome::Violated {
                        iteration,
                        detail: format!(
                            "group counts differ: γ(stratified)={} aggregated={}",
                            gamma.len(),
                            agg_state.len()
                        ),
                    });
                }
                for (k, v) in &gamma {
                    match agg_state.get(k) {
                        Some(av) if av == v => {}
                        other => {
                            return Ok(PremCheckOutcome::Violated {
                                iteration,
                                detail: format!(
                                    "key {k:?}: γ(stratified)={v:?} aggregated={other:?}"
                                ),
                            })
                        }
                    }
                }
            }
        }
        Ok(PremCheckOutcome::HeldWithinBound {
            iterations: self.bounds.max_iterations,
        })
    }
}

/// Produce the PreM-checking rewrite of a query (Appendix G, Query G2): an
/// `all_<view>` companion holding the un-aggregated recursion, with the
/// original view's recursive case re-pointed at it.
pub fn prem_checking_version(sql: &str) -> Result<String, EngineError> {
    let stmt = parse(sql)?;
    let Statement::Query(q) = stmt else {
        return Err(EngineError::Other("expected a query".into()));
    };
    let rec: Vec<&CteDef> = q
        .ctes
        .iter()
        .filter(|c| c.columns.iter().any(|col| col.agg.is_some()))
        .collect();
    if rec.len() != 1 {
        return Err(EngineError::Other(
            "the rewrite handles exactly one aggregate-recursive view".into(),
        ));
    }
    let cte = rec[0];
    let view = &cte.name;
    let all_name = format!("all_{view}");

    let head_plain: Vec<String> = cte.columns.iter().map(|c| c.name.clone()).collect();
    let head_agg: Vec<String> = cte
        .columns
        .iter()
        .map(|c| match c.agg {
            Some(a) => format!("{}() AS {}", a.name(), c.name),
            None => c.name.clone(),
        })
        .collect();

    let branch_sql = |s: &Select, rename_to: &str| render_select(s, view, rename_to);
    let all_branches: Vec<String> = cte
        .branches
        .iter()
        .map(|b| format!("({})", branch_sql(b, &all_name)))
        .collect();
    let agg_branches: Vec<String> = cte
        .branches
        .iter()
        .map(|b| format!("({})", branch_sql(b, &all_name)))
        .collect();

    Ok(format!(
        "WITH recursive {all_name}({}) AS {} , recursive {view}({}) AS {} \
         SELECT * FROM {view}",
        head_plain.join(", "),
        all_branches.join(" UNION "),
        head_agg.join(", "),
        agg_branches.join(" UNION "),
    ))
}

/// Minimal SQL rendering of a branch select, renaming references to
/// `from_view` into `to_view` (enough for recursive-branch shapes).
fn render_select(s: &Select, from_view: &str, to_view: &str) -> String {
    let mut out = String::from("SELECT ");
    let items: Vec<String> = s
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, alias } => {
                let e = rename_expr(expr, from_view, to_view);
                match alias {
                    Some(a) => format!("{e} AS {a}"),
                    None => e,
                }
            }
            SelectItem::Wildcard => "*".into(),
            SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
        })
        .collect();
    out.push_str(&items.join(", "));
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        let tables: Vec<String> = s
            .from
            .iter()
            .map(|t| match t {
                TableRef::Table { name, alias, .. } => {
                    let n = if name.eq_ignore_ascii_case(from_view) {
                        // Keep the original name visible to expressions via an
                        // alias so qualified references still resolve.
                        return match alias {
                            Some(a) => format!("{to_view} {a}"),
                            None => format!("{to_view} {name}"),
                        };
                    } else {
                        name.clone()
                    };
                    match alias {
                        Some(a) => format!("{n} {a}"),
                        None => n,
                    }
                }
                TableRef::Subquery { alias, .. } => format!("(...) {alias}"),
            })
            .collect();
        out.push_str(&tables.join(", "));
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" WHERE ");
        // Qualified column references keep the original view name because the
        // FROM rewrite aliases the renamed table back to it.
        out.push_str(&format!("{w}"));
    }
    out
}

fn rename_expr(e: &rasql_parser::ast::Expr, _from: &str, _to: &str) -> String {
    format!("{e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use rasql_storage::Relation;

    fn graph_ctx() -> RaSqlContext {
        let ctx = RaSqlContext::in_memory();
        // A graph WITH a cycle (2→3→2) plus a tail.
        ctx.register(
            "edge",
            Relation::weighted_edges(&[
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 2, 1.0),
                (3, 4, 5.0),
                (1, 4, 20.0),
            ]),
        )
        .unwrap();
        ctx
    }

    #[test]
    fn sssp_prem_holds_on_cyclic_graph() {
        let ctx = graph_ctx();
        let checker = PremChecker::new(&ctx).with_bounds(PremCheckBounds {
            max_iterations: 50,
            max_rows: 100_000,
        });
        let outcome = checker.check(&library::sssp(1)).unwrap();
        match outcome {
            PremCheckOutcome::Holds { .. } | PremCheckOutcome::HeldWithinBound { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bom_prem_holds() {
        use rasql_storage::{DataType, Schema};
        let ctx = RaSqlContext::in_memory();
        let assbl_schema = Schema::new(vec![("Part", DataType::Int), ("SPart", DataType::Int)]);
        let basic_schema = Schema::new(vec![("Part", DataType::Int), ("Days", DataType::Int)]);
        let pairs = |v: &[(i64, i64)]| {
            v.iter()
                .map(|&(a, b)| rasql_storage::row::int_row(&[a, b]))
                .collect::<Vec<_>>()
        };
        ctx.register(
            "assbl",
            Relation::try_new(assbl_schema, pairs(&[(1, 2), (1, 3), (2, 4)])).unwrap(),
        )
        .unwrap();
        ctx.register(
            "basic",
            Relation::try_new(basic_schema, pairs(&[(3, 5), (4, 7)])).unwrap(),
        )
        .unwrap();
        let outcome = PremChecker::new(&ctx)
            .check(&library::bom_delivery())
            .unwrap();
        assert!(
            matches!(outcome, PremCheckOutcome::Holds { .. }),
            "{outcome:?}"
        );
    }

    /// `Cost - path.Cost` is not monotone: around the cycle 2→3→2 the
    /// stratified run finds ever cheaper costs for 2 after the aggregated run
    /// has converged on 0.0. The round and the group it is caught on are
    /// pinned as the checker reported them when it rebuilt γ every round.
    #[test]
    fn non_monotone_min_is_violated_at_a_pinned_round() {
        let ctx = RaSqlContext::in_memory();
        ctx.register(
            "edge",
            Relation::weighted_edges(&[(1, 2, 1.0), (2, 3, 2.0), (3, 2, 1.0), (1, 4, 20.0)]),
        )
        .unwrap();
        let sql = "WITH recursive path (Dst, min() AS Cost) AS \
                     (SELECT 1, 0.0) UNION \
                     (SELECT edge.Dst, edge.Cost - path.Cost FROM path, edge \
                      WHERE path.Dst = edge.Src) \
                   SELECT Dst, Cost FROM path";
        let outcome = PremChecker::new(&ctx).check(sql).unwrap();
        assert_eq!(
            outcome,
            PremCheckOutcome::Violated {
                iteration: 5,
                detail: "key [Int(2)]: γ(stratified)=[Double(-1.0)] aggregated=Some([Double(0.0)])"
                    .into(),
            }
        );
    }

    #[test]
    fn non_aggregate_query_is_inconclusive() {
        let ctx = graph_ctx();
        let outcome = PremChecker::new(&ctx)
            .check(&library::transitive_closure())
            .unwrap();
        assert!(matches!(outcome, PremCheckOutcome::Inconclusive(_)));
    }

    #[test]
    fn rewrite_produces_all_view() {
        let g2 = prem_checking_version(&library::apsp()).unwrap();
        assert!(g2.contains("all_path"), "{g2}");
        assert!(g2.contains("min() AS Cost"), "{g2}");
        // The rewritten query must itself parse.
        rasql_parser::parse(&g2).unwrap_or_else(|e| panic!("{e}\n{g2}"));
    }
}
