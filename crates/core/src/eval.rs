//! Generic (non-recursive) plan evaluation over the cluster runtime.
//!
//! Used for base-case branches, the build sides of recursive joins, and the
//! final SELECT over materialized fixpoint results. Joins/aggregates shuffle
//! to co-partitioned datasets and run partition-wise, so base-case evaluation
//! is parallel like everything else.

use crate::error::EngineError;
use rasql_exec::{
    run_fused, run_unfused, Cluster, Dataset, HashTable, Pipeline, PipelineStep, Projection,
    QueryGovernor, RowCombiner, TraceSink, TupleSet,
};
use rasql_parser::ast::{AggFunc, BinaryOp};
use rasql_plan::{AggExpr, LogicalPlan, PExpr};
use rasql_storage::{
    Catalog, DataType, FxHashMap, FxHashSet, IndexStore, Partitioning, Relation, Row, Schema, Value,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything a plan evaluation needs.
pub struct EvalContext<'a> {
    /// The cluster to run stages on.
    pub cluster: &'a Cluster,
    /// Base tables.
    pub catalog: &'a Catalog,
    /// Materialized recursive views (by lower-case name).
    pub views: &'a HashMap<String, Arc<Relation>>,
    /// Partition count for shuffles.
    pub partitions: usize,
    /// Fused (codegen-analog) pipelines vs. per-operator passes.
    pub fused: bool,
    /// Per-query trace recorder; `None` disables all recording.
    pub trace: Option<&'a TraceSink>,
    /// Per-query resource governor (memory budget, deadline, cancellation);
    /// `None` runs ungoverned.
    pub governor: Option<&'a QueryGovernor>,
    /// The store of join indexes of base data; `None` builds every index
    /// privately and scans for every lookup.
    pub index: Option<&'a IndexStore>,
}

impl<'a> EvalContext<'a> {
    /// Evaluate a plan to a materialized relation.
    pub fn evaluate(&self, plan: &LogicalPlan) -> Result<Relation, EngineError> {
        let ds = self.eval_ds(plan)?;
        Ok(ds.into_relation(plan.schema().clone()))
    }

    /// Evaluate to a dataset.
    pub fn eval_ds(&self, plan: &LogicalPlan) -> Result<Dataset, EngineError> {
        self.eval_node(plan, "0")
    }

    /// Evaluate one node, recording its output cardinality/bytes/time under
    /// its pre-order `path` (matching
    /// [`LogicalPlan::display_annotated`][rasql_plan::LogicalPlan::display_annotated])
    /// when operator tracing is on. Counters are inclusive of children.
    fn eval_node(&self, plan: &LogicalPlan, path: &str) -> Result<Dataset, EngineError> {
        if let Some(g) = self.governor {
            g.check()?;
        }
        let recording = self.trace.is_some_and(TraceSink::operators_enabled);
        let t0 = Instant::now();
        let ds = self.eval_inner(plan, path)?;
        if recording {
            if let Some(sink) = self.trace {
                let rows = ds.len() as u64;
                let bytes: usize = ds
                    .partitions
                    .iter()
                    .flat_map(|p| p.iter())
                    .map(Row::size_bytes)
                    .sum();
                sink.record_operator(
                    path.to_string(),
                    plan.node_label(),
                    rows,
                    bytes as u64,
                    t0.elapsed(),
                );
            }
        }
        Ok(ds)
    }

    fn eval_inner(&self, plan: &LogicalPlan, path: &str) -> Result<Dataset, EngineError> {
        match plan {
            LogicalPlan::TableScan { table, .. } => {
                let rel = self.catalog.get(table)?;
                Ok(Dataset::scan(&rel, self.partitions))
            }
            LogicalPlan::ViewScan { view, .. } => {
                let rel = self
                    .views
                    .get(&view.to_ascii_lowercase())
                    .ok_or_else(|| EngineError::Other(format!("view '{view}' not materialized")))?;
                Ok(Dataset::scan(rel, self.partitions))
            }
            LogicalPlan::Values { rows, .. } => Ok(Dataset::single(rows.clone())),
            LogicalPlan::Projection { .. } | LogicalPlan::Filter { .. } => {
                self.eval_chain(plan, path)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                ..
            } => self.eval_join(left, right, left_keys, right_keys, residual.as_ref(), path),
            LogicalPlan::Aggregate {
                input,
                group_cols,
                aggs,
                ..
            } => self.eval_aggregate(input, *group_cols, aggs, path),
            LogicalPlan::Union { inputs, .. } => {
                let mut rows = Vec::new();
                for (i, input) in inputs.iter().enumerate() {
                    rows.extend(self.eval_node(input, &format!("{path}.{i}"))?.into_rows());
                }
                Ok(Dataset::round_robin(rows, self.partitions))
            }
            LogicalPlan::Distinct { input } => {
                let child = self.eval_node(input, &format!("{path}.0"))?;
                let arity = input.schema().arity();
                let all_cols: Vec<usize> = (0..arity).collect();
                let shuffled = child.shuffle_if_needed_traced(
                    self.cluster,
                    self.trace,
                    "distinct shuffle",
                    &all_cols,
                    self.partitions,
                )?;
                Ok(shuffled.map_partitions_traced(
                    self.cluster,
                    self.trace,
                    "distinct",
                    |_p, rows| {
                        let mut seen: FxHashSet<&Row> = FxHashSet::default();
                        let mut out = Vec::with_capacity(rows.len());
                        for r in rows {
                            if seen.insert(r) {
                                out.push(r.clone());
                            }
                        }
                        out
                    },
                )?)
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rows = self.eval_node(input, &format!("{path}.0"))?.into_rows();
                let keys = keys.clone();
                rows.sort_by(|a, b| {
                    for &(c, asc) in &keys {
                        let o = a[c].cmp(&b[c]);
                        if o != std::cmp::Ordering::Equal {
                            return if asc { o } else { o.reverse() };
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(Dataset::single(rows))
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = self.eval_node(input, &format!("{path}.0"))?.into_rows();
                rows.truncate(*n as usize);
                Ok(Dataset::single(rows))
            }
        }
    }

    /// Evaluate a `Projection` over any number of `Filter`s as one fused
    /// stage (paper §7.3): the filters become the pipeline's steps, innermost
    /// first, and the projection its final transform, so no row set is
    /// materialized between the chain's nodes. Only the chain's top node and
    /// its input get operator counters — the nodes between them have no
    /// output of their own to count. With nothing left to run (see
    /// [`peel_chain`]) the chain is its input, so a full scan stays the
    /// table's own buffer. A chain that starts with `col = literal` over a
    /// scan runs here on the driver over an index probe when there is one
    /// (see [`Chain::probe`]): no stage.
    fn eval_chain(&self, plan: &LogicalPlan, path: &str) -> Result<Dataset, EngineError> {
        let chain = peel_chain(plan, path);
        if let Some(probe) = chain.probe(self)? {
            let rows = probe.rows();
            return Ok(Dataset::single(if self.fused {
                run_fused(rows, &chain.pipeline)
            } else {
                run_unfused(rows, &chain.pipeline)
            }));
        }
        let input = self.eval_node(chain.input, &chain.path)?;
        if chain.labels.is_empty() {
            return Ok(input);
        }
        let (fused, pipeline) = (self.fused, chain.pipeline);
        Ok(input.map_partitions_traced(
            self.cluster,
            self.trace,
            &chain.labels.join("+"),
            move |_p, rows| {
                if fused {
                    run_fused(rows, &pipeline)
                } else {
                    run_unfused(rows, &pipeline)
                }
            },
        )?)
    }

    /// Stream a plan's output tuples into values of the caller's choosing,
    /// one per input partition, without a row ever being built for them: the
    /// plan's projection/filter chain runs as [`Pipeline::for_each`] over the
    /// chain's input and every output tuple is lent to `fold`. The input
    /// itself — a scan, or a join or aggregate evaluated as
    /// [`EvalContext::eval_ds`] would — is folded where it lives, in one
    /// stage labelled `label`; an unpartitioned input (`Values`, the constant
    /// base case of a single-source query, or an index probe) is folded here
    /// on the driver and costs no stage.
    pub fn fold_partitions<A: Default + Send + 'static>(
        &self,
        plan: &LogicalPlan,
        label: &str,
        fold: impl Fn(&mut A, &[Value]) + Send + Sync + 'static,
    ) -> Result<Vec<A>, EngineError> {
        let chain = peel_chain(plan, "0");
        let probe = chain.probe(self)?;
        let pipeline = chain.pipeline;
        let run = move |rows: &[Row]| {
            let mut acc = A::default();
            pipeline.for_each(rows, &mut |t| fold(&mut acc, t));
            acc
        };
        if let Some(probe) = probe {
            return Ok(vec![run(probe.rows())]);
        }
        let input = self.eval_node(chain.input, &chain.path)?;
        if matches!(input.partitioning, Partitioning::Single) {
            return Ok(input.partitions.iter().map(|p| run(p)).collect());
        }
        Ok(input
            .fold_partitions_traced(self.cluster, self.trace, label, move |_p, rows| run(rows))?)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_keys: &[usize],
        right_keys: &[usize],
        residual: Option<&PExpr>,
        path: &str,
    ) -> Result<Dataset, EngineError> {
        let l = self.eval_node(left, &format!("{path}.0"))?;
        let r = self.eval_node(right, &format!("{path}.1"))?;
        let residual = residual.cloned();

        if left_keys.is_empty() {
            // Cross join (possibly with a residual inequality predicate):
            // replicate the right side and nested-loop per left partition.
            let right_rows = Arc::new(r.collect());
            return Ok(l.map_partitions_traced(
                self.cluster,
                self.trace,
                "cross join",
                move |_p, rows| {
                    let mut out = Vec::new();
                    for a in rows {
                        for b in right_rows.iter() {
                            let joined = a.concat(b);
                            if residual
                                .as_ref()
                                .map(|p| p.eval(&joined).is_truthy())
                                .unwrap_or(true)
                            {
                                out.push(joined);
                            }
                        }
                    }
                    out
                },
            )?);
        }

        // Equi join: co-partition both sides, hash-join partition-wise.
        let l = l.shuffle_if_needed_traced(
            self.cluster,
            self.trace,
            "join probe shuffle",
            left_keys,
            self.partitions,
        )?;
        let r = r.shuffle_if_needed_traced(
            self.cluster,
            self.trace,
            "join build shuffle",
            right_keys,
            self.partitions,
        )?;
        let right_parts = r.partitions;
        let left_keys: Vec<usize> = left_keys.to_vec();
        let right_keys: Vec<usize> = right_keys.to_vec();
        let cluster_metrics = Arc::clone(&self.cluster.metrics);
        Ok(
            l.map_partitions_traced(self.cluster, self.trace, "hash join", move |p, rows| {
                // lint: allow(RL0008, an ad-hoc join hashes its shuffled right side, whatever plan produced it, for this statement only)
                let table = HashTable::build(&right_parts[p], &right_keys);
                let mut out = Vec::new();
                for a in rows {
                    let key: Vec<Value> = left_keys.iter().map(|&c| a[c].clone()).collect();
                    for b in table.probe(&key) {
                        let joined = a.concat(b);
                        if residual
                            .as_ref()
                            .map(|pr| pr.eval(&joined).is_truthy())
                            .unwrap_or(true)
                        {
                            out.push(joined);
                        }
                    }
                }
                rasql_exec::Metrics::add(&cluster_metrics.join_output_rows, out.len() as u64);
                out
            })?,
        )
    }

    fn eval_aggregate(
        &self,
        input: &LogicalPlan,
        group_cols: usize,
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<Dataset, EngineError> {
        let child = self.eval_node(input, &format!("{path}.0"))?;
        let key: Vec<usize> = (0..group_cols).collect();
        let child = if group_cols == 0 {
            // Global aggregate: everything to one partition.
            Dataset::single(child.into_rows())
        } else {
            child.shuffle_if_needed_combined_traced(
                self.cluster,
                self.trace,
                "aggregate shuffle",
                &key,
                self.partitions,
                map_side_combiner(group_cols, aggs, input.schema()).as_ref(),
                self.governor,
            )?
        };
        let aggs: Vec<AggExpr> = aggs.to_vec();
        Ok(child.map_partitions_traced(
            self.cluster,
            self.trace,
            "aggregate",
            move |_p, rows| {
                let mut groups: FxHashMap<Box<[Value]>, Vec<Accumulator>> = FxHashMap::default();
                if group_cols == 0 && rows.is_empty() {
                    // SQL: a global aggregate over zero rows still yields one row.
                    let accs: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
                    return vec![finish_row(&[], &accs)];
                }
                // A group is looked up by its borrowed key and boxed only when
                // it starts; `insert` after a miss grows the map exactly where
                // `entry` would, so the output keeps its order.
                for row in rows {
                    let key = &row.values()[..group_cols];
                    if let Some(accs) = groups.get_mut(key) {
                        accs.iter_mut().for_each(|acc| acc.update(row));
                        continue;
                    }
                    let mut accs: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
                    accs.iter_mut().for_each(|acc| acc.update(row));
                    groups.insert(key.into(), accs);
                }
                groups.iter().map(|(k, accs)| finish_row(k, accs)).collect()
            },
        )?)
    }
}

/// A `Projection` over any number of `Filter`s, peeled off the node under it.
struct Chain<'p> {
    /// What the chain does to a row, as stage-label parts (`filter`,
    /// `project`), in execution order; empty when it does nothing.
    labels: Vec<&'static str>,
    /// The filters as steps, innermost first, then the projection.
    pipeline: Pipeline,
    /// The node the chain reads, and its pre-order path.
    input: &'p LogicalPlan,
    path: String,
    /// `(column, literal)` when the chain reads a table scan and the first
    /// filter its rows meet has the conjunct `column = literal`.
    lookup: Option<(usize, &'p Value)>,
}

/// The rows an index holds under a lookup's literal.
struct Probe<'p> {
    table: Arc<HashTable>,
    literal: &'p Value,
}

impl Probe<'_> {
    fn rows(&self) -> &[Row] {
        self.table.probe(std::slice::from_ref(self.literal))
    }
}

impl<'p> Chain<'p> {
    /// The chain's input narrowed by an index probe, when the chain has a
    /// lookup and the store an index for it. The probe returns a superset of
    /// the matching rows in table order — every row whose key is `Eq` to the
    /// literal as the hash join sees it (`Int(2)` ≡ `Double(2.0)`) — and the
    /// caller runs the whole pipeline over them, the equality filter
    /// included, so rows and row order are the scan's.
    fn probe(&self, eval: &EvalContext<'_>) -> Result<Option<Probe<'p>>, EngineError> {
        let Some((col, literal)) = self.lookup else {
            return Ok(None);
        };
        let started = Instant::now();
        let Some(table) = eval.probe_scan(self.input, col, literal)? else {
            return Ok(None);
        };
        let probe = Probe { table, literal };
        if let (Some(sink), LogicalPlan::TableScan { table, schema }) = (eval.trace, self.input) {
            let rows = probe.rows();
            sink.record_operator(
                self.path.clone(),
                format!("index lookup {table}[{}]", schema.field(col).name),
                rows.len() as u64,
                rows.iter().map(Row::size_bytes).sum::<usize>() as u64,
                started.elapsed(),
            );
        }
        Ok(Some(probe))
    }
}

/// The `column = literal` conjunct of a predicate an index can answer: the
/// literal is not `NULL` (which equals nothing) and, when numeric, small
/// enough that `Int`/`Double` equality and hashing agree exactly (below
/// 2^53 every integer is one `f64`).
fn equality_lookup(predicate: &PExpr) -> Option<(usize, &Value)> {
    let mut node = predicate;
    loop {
        match node {
            PExpr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                if let Some(found) = equality_lookup(right) {
                    return Some(found);
                }
                node = left;
            }
            PExpr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => {
                let (col, literal) = match (&**left, &**right) {
                    (PExpr::Col(c), PExpr::Lit(v)) | (PExpr::Lit(v), PExpr::Col(c)) => (*c, v),
                    _ => return None,
                };
                const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                let usable = match literal {
                    Value::Null => false,
                    #[allow(clippy::cast_precision_loss)]
                    Value::Int(i) => (*i as f64).abs() < EXACT,
                    Value::Double(d) => d.abs() < EXACT,
                    _ => true,
                };
                return usable.then_some((col, literal));
            }
            _ => return None,
        }
    }
}

/// `exprs` as a pipeline's final projection over value tuples: a plain copy
/// when every expression is a column.
pub(crate) fn projection(exprs: Vec<PExpr>) -> Projection {
    let cols = exprs.iter().map(|e| match e {
        PExpr::Col(c) => Some(*c),
        _ => None,
    });
    if let Some(cols) = cols.collect::<Option<Vec<usize>>>() {
        return Projection::Columns(cols.into());
    }
    Projection::Map(Arc::new(move |t: &[Value], out: &mut Vec<Value>| {
        out.extend(exprs.iter().map(|e| e.eval_vals(t)));
        Ok(())
    }))
}

/// Peel `plan`'s projection/filter chain (either part may be absent) for
/// [`EvalContext::eval_chain`] and [`EvalContext::fold_partitions`]. A
/// projection of every input column in order (`SELECT *`) changes no row and
/// is skipped.
fn peel_chain<'p>(plan: &'p LogicalPlan, path: &str) -> Chain<'p> {
    let mut labels = Vec::new();
    let mut node = plan;
    let mut path = path.to_string();
    let mut project: Option<Projection> = None;
    if let LogicalPlan::Projection { input, exprs, .. } = node {
        node = input;
        path.push_str(".0");
        let identity = exprs.len() == input.schema().arity()
            && exprs.iter().enumerate().all(|(i, e)| *e == PExpr::Col(i));
        if !identity {
            labels.push("project");
            project = Some(projection(exprs.clone()));
        }
    }
    let mut steps = Vec::new();
    let mut lookup = None;
    while let LogicalPlan::Filter { input, predicate } = node {
        node = input;
        path.push_str(".0");
        // The innermost filter is the last one this loop sees.
        lookup = equality_lookup(predicate);
        let pred = predicate.clone();
        steps.push(PipelineStep::Filter(Arc::new(move |t: &[Value]| {
            Ok(pred.eval_vals(t).is_truthy())
        })));
    }
    if !steps.is_empty() {
        labels.push("filter");
    }
    // Collected top-down; rows meet the innermost filter first.
    steps.reverse();
    labels.reverse();
    Chain {
        labels,
        pipeline: Pipeline { steps, project },
        lookup: lookup.filter(|_| matches!(node, LogicalPlan::TableScan { .. })),
        input: node,
        path,
    }
}

/// Map-side combiner for the aggregate shuffle (paper §7.1, map side of
/// stage combination): pre-merge rows that share a group key on the write
/// side, so the exchange ships one partial row per (source partition, group)
/// instead of one per input row.
///
/// Only built when the pre-merge is provably invisible downstream: every
/// aggregate is a non-`DISTINCT` `min`/`max`/`sum`, every `sum` argument is
/// an integer column (float addition is order-dependent and the combine
/// reorders it), and no column is consumed by two aggregates with different
/// functions (one cell cannot hold both partials). `count`/`avg` never
/// qualify — they need the uncombined row multiplicity.
fn map_side_combiner(group_cols: usize, aggs: &[AggExpr], input: &Schema) -> Option<RowCombiner> {
    let mut ops: Vec<(usize, AggFunc)> = Vec::new();
    for a in aggs {
        let c = a.arg?; // count(*) has no argument
        if a.distinct {
            return None;
        }
        match a.func {
            AggFunc::Min | AggFunc::Max => {}
            AggFunc::Sum if input.field(c).data_type == DataType::Int => {}
            _ => return None,
        }
        if ops.iter().any(|&(col, f)| col == c && f != a.func) {
            return None;
        }
        if !ops.contains(&(c, a.func)) {
            ops.push((c, a.func));
        }
    }
    Some(Arc::new(move |rows: &[&Row]| {
        // First-seen order keeps the combined bucket deterministic. A group
        // is found by its borrowed key; a row is copied only when it starts
        // a group.
        let mut index: TupleSet<Value> = TupleSet::default();
        let mut acc: Vec<Vec<Value>> = Vec::new();
        for &row in rows {
            let (slot, new) = index.intern(&row.values()[..group_cols]);
            if new {
                acc.push(row.values().to_vec());
                continue;
            }
            let cur = &mut acc[slot];
            for &(c, func) in &ops {
                let v = &row[c];
                if v.is_null() {
                    continue; // SQL aggregates skip NULLs
                }
                let m = &mut cur[c];
                match func {
                    _ if m.is_null() => *m = v.clone(),
                    AggFunc::Min => {
                        if *v < *m {
                            *m = v.clone();
                        }
                    }
                    AggFunc::Max => {
                        if *v > *m {
                            *m = v.clone();
                        }
                    }
                    AggFunc::Sum => *m = m.add(v),
                    AggFunc::Count | AggFunc::Avg => unreachable!("filtered above"),
                }
            }
        }
        acc.into_iter().map(Row::new).collect()
    }))
}

fn finish_row(key: &[Value], accs: &[Accumulator]) -> Row {
    let mut v: Vec<Value> = key.to_vec();
    v.extend(accs.iter().map(Accumulator::finish));
    Row::new(v)
}

/// Aggregate accumulator for final (stratified) aggregation.
struct Accumulator {
    func: AggFunc,
    arg: Option<usize>,
    distinct: Option<FxHashSet<Value>>,
    extremum: Option<Value>,
    sum: Value,
    count: i64,
}

impl Accumulator {
    fn new(spec: &AggExpr) -> Self {
        Accumulator {
            func: spec.func,
            arg: spec.arg,
            distinct: spec.distinct.then(FxHashSet::default),
            extremum: None,
            sum: Value::Int(0),
            count: 0,
        }
    }

    fn update(&mut self, row: &Row) {
        let v = match self.arg {
            Some(c) => row[c].clone(),
            None => Value::Int(1), // count(*)
        };
        if self.arg.is_some() && v.is_null() {
            return; // SQL aggregates skip NULLs
        }
        if let Some(seen) = &mut self.distinct {
            if !seen.insert(v.clone()) {
                return;
            }
        }
        match self.func {
            AggFunc::Min => {
                if self.extremum.as_ref().map(|m| v < *m).unwrap_or(true) {
                    self.extremum = Some(v);
                }
            }
            AggFunc::Max => {
                if self.extremum.as_ref().map(|m| v > *m).unwrap_or(true) {
                    self.extremum = Some(v);
                }
            }
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = self.sum.add(&v);
                self.count += 1;
            }
            AggFunc::Count => self.count += 1,
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Min | AggFunc::Max => self.extremum.clone().unwrap_or(Value::Null),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    self.sum.clone()
                }
            }
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Avg => {
                // Always a double, even over integer inputs.
                match (self.sum.as_f64(), self.count) {
                    (_, 0) => Value::Null,
                    (Some(s), n) => Value::Double(s / n as f64),
                    (None, _) => Value::Null,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_exec::ClusterConfig;
    use rasql_parser::parse;
    use rasql_plan::{analyze_statement, optimize, AnalyzedStatement, ViewCatalog};
    use rasql_storage::{DataType, Schema};

    fn run_sql(sql: &str, tables: &[(&str, Relation)]) -> Relation {
        let catalog = Catalog::new();
        let mut vc = ViewCatalog::new();
        for (name, rel) in tables {
            vc.add_table(name, rel.schema().clone());
            catalog.register(name, rel.clone()).unwrap();
        }
        let stmt = parse(sql).unwrap();
        let analyzed = match analyze_statement(&stmt, &vc).unwrap() {
            AnalyzedStatement::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(analyzed.cliques.is_empty(), "non-recursive tests only");
        let plan = optimize(analyzed.final_plan);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let views = HashMap::new();
        let ctx = EvalContext {
            cluster: &cluster,
            catalog: &catalog,
            views: &views,
            partitions: 4,
            fused: true,
            trace: None,
            governor: None,
            index: None,
        };
        ctx.evaluate(&plan).unwrap().sorted()
    }

    fn edges() -> Relation {
        Relation::edges(&[(1, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn scan_project_filter() {
        let r = run_sql("SELECT Dst FROM edge WHERE Src = 1", &[("edge", edges())]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][0], Value::Int(2));
        assert_eq!(r.rows()[1][0], Value::Int(3));
    }

    #[test]
    fn equi_join() {
        let r = run_sql(
            "SELECT a.Src, b.Dst FROM edge a, edge b WHERE a.Dst = b.Src",
            &[("edge", edges())],
        );
        // (1,2)-(2,3); (1,3)-(3,4); (2,3)-(3,4)
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn cross_join_with_inequality() {
        let r = run_sql(
            "SELECT a.Src, b.Src FROM edge a, edge b WHERE a.Src < b.Src",
            &[("edge", edges())],
        );
        // srcs: 1,1,2,3 → pairs with a<b: (1,2)x2, (1,3)x2, (2,3) → 5
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn group_by_aggregates() {
        let r = run_sql(
            "SELECT Src, count(*), max(Dst) FROM edge GROUP BY Src",
            &[("edge", edges())],
        );
        assert_eq!(r.len(), 3);
        // Src=1: count 2, max 3
        let row = r.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(row[1], Value::Int(2));
        assert_eq!(row[2], Value::Int(3));
    }

    #[test]
    fn global_aggregate_and_distinct() {
        let r = run_sql(
            "SELECT count(distinct Dst), min(Src), avg(Src) FROM edge",
            &[("edge", edges())],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Value::Int(3)); // {2,3,4}
        assert_eq!(r.rows()[0][1], Value::Int(1));
        assert_eq!(r.rows()[0][2], Value::Double(1.75));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let r = run_sql(
            "SELECT count(*) FROM edge WHERE Src = 99",
            &[("edge", edges())],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn having_filters_groups() {
        let r = run_sql(
            "SELECT Src FROM edge GROUP BY Src HAVING count(*) > 1",
            &[("edge", edges())],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn union_dedups() {
        let r = run_sql(
            "(SELECT Src FROM edge) UNION (SELECT Dst FROM edge)",
            &[("edge", edges())],
        );
        // distinct values {1,2,3,4}
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn order_by_and_limit() {
        let r = run_sql(
            "SELECT Src FROM edge ORDER BY Src DESC LIMIT 2",
            &[("edge", edges())],
        );
        assert_eq!(r.len(), 2);
        let vals: Vec<i64> = r.rows().iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![2, 3]); // top-2 of (1,1,2,3), re-sorted asc by harness
    }

    #[test]
    fn distinct_select() {
        let r = run_sql("SELECT DISTINCT Src FROM edge", &[("edge", edges())]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn interval_coalesce_lstart_shape() {
        // The non-recursive part of Example 6.
        let inter = Relation::try_new(
            Schema::new(vec![("s", DataType::Int), ("e", DataType::Int)]),
            vec![
                rasql_storage::row::int_row(&[1, 3]),
                rasql_storage::row::int_row(&[2, 5]),
                rasql_storage::row::int_row(&[7, 9]),
            ],
        )
        .unwrap();
        let r = run_sql(
            "SELECT a.S FROM inter a, inter b WHERE a.S <= b.E \
             GROUP BY a.S HAVING a.S = min(b.S)",
            &[("inter", inter)],
        );
        // Left-most uncovered starts: 1 and ... every a.S pairs with all b
        // having a.S <= b.E; min(b.S)=1 ⇒ only a.S=1 qualifies... and 7 pairs
        // with b=(7,9) and b=(2,5)? 7<=5 no; 7<=3 no; 7<=9 yes ⇒ min(b.S)=7 ⇒ 7.
        let vals: Vec<i64> = r.rows().iter().map(|x| x[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 7]);
    }
}
