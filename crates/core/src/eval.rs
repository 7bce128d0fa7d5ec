//! Generic (non-recursive) plan evaluation over the cluster runtime.
//!
//! Used for base-case branches, the build sides of recursive joins, and the
//! final SELECT over materialized fixpoint results. Joins/aggregates shuffle
//! to co-partitioned datasets and run partition-wise, so base-case evaluation
//! is parallel like everything else.
//!
//! A clique that ran on word lanes or a kernel hands its result over as lane
//! batches ([`ViewData::Lanes`]), and the final plan keeps it in that form
//! ([`Data::Lanes`]) through scans, filter/projection chains compiled on
//! words and typed hash aggregates: rows are built once, for the answer
//! (`evaluate`) or for the first operator with no lane form, which converts
//! its input. A statement converts a view it reads more than once up front,
//! once ([`view_reads`]).

use crate::error::EngineError;
use crate::fixpoint::{word_pred, word_projection};
use crate::index::Probed;
use crate::RaSqlContext;
use rasql_exec::pipeline::PredFn;
use rasql_exec::{
    lanes_of, run_fused, run_unfused, values_of, Cluster, Dataset, Emitted, HashTable, Lane,
    LaneCombiner, LaneDataset, LanePart, Pipeline, PipelineStep, Projection, QueryGovernor,
    RowCombiner, TraceSink, TupleSet, Tuples,
};
use rasql_parser::ast::{AggFunc, BinaryOp};
use rasql_plan::{AggExpr, BranchStep, FixpointSpec, JoinBuild, LogicalPlan, PExpr};
use rasql_storage::{
    Catalog, DataType, FxHashMap, FxHashSet, IndexStore, Partitioning, Relation, Row, Schema, Value,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A clique view's converged tuples, as the statement's plans read them.
#[derive(Clone)]
pub enum ViewData {
    /// Rows: the clique ran (or escaped) on rows, or a reader of the view
    /// has no lane form.
    Rows(Arc<Relation>),
    /// Word lanes: one batch per converged partition, in partition order.
    Lanes {
        /// The view's schema.
        schema: Schema,
        /// Its columns' lanes.
        lanes: Arc<[Lane]>,
        /// The partitions' tuples.
        batches: Vec<Arc<Tuples>>,
    },
}

impl ViewData {
    /// The view as rows, built a batch at a time; a batch nothing else
    /// holds is dropped as soon as its rows are built.
    pub fn into_relation(self) -> Arc<Relation> {
        match self {
            ViewData::Rows(rel) => rel,
            ViewData::Lanes {
                schema, batches, ..
            } => {
                let mut rows = Vec::with_capacity(batches.iter().map(|b| b.len()).sum());
                for batch in batches {
                    rows.extend((0..batch.len()).map(|i| batch.row(i)));
                }
                Arc::new(Relation::new_unchecked(schema, rows))
            }
        }
    }
}

/// What a plan node evaluates to: rows, or the lane tuples of a clique's
/// result on their way through the final plan.
pub enum Data {
    /// Rows.
    Rows(Dataset),
    /// Lane tuples.
    Lanes(LaneDataset),
}

impl Data {
    /// The answer's relation: lane tuples become its rows here, a batch at
    /// a time, each dropped once its rows exist when nothing else holds it.
    pub fn into_relation(self, schema: Schema) -> Relation {
        match self {
            Data::Rows(ds) => ds.into_relation(schema),
            Data::Lanes(ds) => Relation::new_unchecked(schema, ds.into_rows()),
        }
    }

    /// Rows, for an operator with no lane form: lane tuples convert here,
    /// partition by partition, once.
    pub fn rows(self) -> Dataset {
        match self {
            Data::Rows(ds) => ds,
            Data::Lanes(ds) => ds.into_dataset(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Data::Rows(ds) => ds.len(),
            Data::Lanes(ds) => ds.len(),
        }
    }

    /// Bytes of the rows (built or not).
    fn size_bytes(&self) -> u64 {
        match self {
            Data::Rows(ds) => (ds.partitions.iter().flat_map(|p| p.iter()))
                .map(Row::size_bytes)
                .sum::<usize>() as u64,
            Data::Lanes(ds) => ds.size_bytes(),
        }
    }
}

/// Everything a plan evaluation needs. Its fields are private to this
/// module: a statement's context, the PreM checker's and a snapshot's
/// re-scoped copy are the only ones, each made by its named constructor.
pub struct EvalContext<'a> {
    /// The cluster to run stages on.
    cluster: &'a Cluster,
    /// Base tables.
    catalog: &'a Catalog,
    /// Materialized recursive views (by lower-case name).
    views: &'a HashMap<String, ViewData>,
    /// Partition count for shuffles.
    partitions: usize,
    /// Fused (codegen-analog) pipelines vs. per-operator passes.
    fused: bool,
    /// Per-query trace recorder; `None` disables all recording.
    trace: Option<&'a TraceSink>,
    /// Per-query resource governor (memory budget, deadline, cancellation);
    /// `None` runs ungoverned.
    governor: Option<&'a QueryGovernor>,
    /// The store of join indexes of base data; `None` builds every index
    /// privately and scans for every lookup.
    index: Option<&'a IndexStore>,
}

impl<'a> EvalContext<'a> {
    /// How every plan of a statement is evaluated: on `ctx`'s cluster, over
    /// its catalog and index store, with `views` the cliques materialized so
    /// far.
    pub(crate) fn statement(
        ctx: &'a RaSqlContext,
        views: &'a HashMap<String, ViewData>,
        trace: Option<&'a TraceSink>,
        governor: Option<&'a QueryGovernor>,
    ) -> Self {
        EvalContext {
            cluster: ctx.cluster(),
            catalog: ctx.catalog(),
            views,
            partitions: ctx.config().partitions,
            fused: ctx.config().fused_codegen,
            trace,
            governor,
            index: Some(ctx.index_store()),
        }
    }

    /// The lock-step PreM checker's: one query replayed ungoverned and
    /// untraced on `ctx`'s tables, every index built privately.
    pub(crate) fn lockstep(ctx: &'a RaSqlContext, views: &'a HashMap<String, ViewData>) -> Self {
        EvalContext {
            cluster: ctx.cluster(),
            catalog: ctx.catalog(),
            views,
            partitions: ctx.config().partitions,
            fused: true,
            trace: None,
            governor: None,
            index: None,
        }
    }

    /// This context over `catalog` instead — a snapshot of the tables, not
    /// the live catalog — untraced and with no index store.
    pub(crate) fn rescoped<'c>(&self, catalog: &'c Catalog) -> EvalContext<'c>
    where
        'a: 'c,
    {
        EvalContext {
            catalog,
            trace: None,
            index: None,
            ..*self
        }
    }

    /// The cluster stages run on.
    pub(crate) fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The base tables.
    pub(crate) fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The partition count of a shuffle.
    pub(crate) fn partitions(&self) -> usize {
        self.partitions
    }

    /// Fused pipelines, or one pass per operator.
    pub(crate) fn fused(&self) -> bool {
        self.fused
    }

    /// The index store, unless every index is built privately.
    pub(crate) fn index(&self) -> Option<&'a IndexStore> {
        self.index
    }

    /// The statement's trace recorder, if it is traced.
    pub(crate) fn trace(&self) -> Option<&'a TraceSink> {
        self.trace
    }

    /// The statement's governor, if it is governed.
    pub(crate) fn governor(&self) -> Option<&'a QueryGovernor> {
        self.governor
    }

    /// Evaluate a plan to a materialized relation: the answer's rows are
    /// built here when the plan ends on lane tuples.
    pub fn evaluate(&self, plan: &LogicalPlan) -> Result<Relation, EngineError> {
        Ok(self.eval_data(plan)?.into_relation(plan.schema().clone()))
    }

    /// Evaluate a plan, its output left in the form it ends in.
    pub fn eval_data(&self, plan: &LogicalPlan) -> Result<Data, EngineError> {
        self.eval_node(plan, "0")
    }

    /// Evaluate to a dataset.
    pub fn eval_ds(&self, plan: &LogicalPlan) -> Result<Dataset, EngineError> {
        Ok(self.eval_node(plan, "0")?.rows())
    }

    /// Evaluate one node, recording its output cardinality/bytes/time under
    /// its pre-order `path` (matching
    /// [`LogicalPlan::display_annotated`][rasql_plan::LogicalPlan::display_annotated])
    /// when operator tracing is on. Counters are inclusive of children.
    fn eval_node(&self, plan: &LogicalPlan, path: &str) -> Result<Data, EngineError> {
        if let Some(g) = self.governor {
            g.check()?;
        }
        let recording = self.trace.is_some_and(TraceSink::operators_enabled);
        let t0 = Instant::now();
        let ds = self.eval_inner(plan, path)?;
        if recording {
            if let Some(sink) = self.trace {
                let (rows, bytes) = (ds.len() as u64, ds.size_bytes());
                sink.record_operator(
                    path.to_string(),
                    plan.node_label(),
                    rows,
                    bytes,
                    t0.elapsed(),
                );
            }
        }
        Ok(ds)
    }

    fn eval_inner(&self, plan: &LogicalPlan, path: &str) -> Result<Data, EngineError> {
        let rows = |plan: &LogicalPlan, path: &str| -> Result<Dataset, EngineError> {
            Ok(self.eval_node(plan, path)?.rows())
        };
        Ok(Data::Rows(match plan {
            LogicalPlan::TableScan { table, .. } => {
                let rel = self.catalog.get(table)?;
                Dataset::scan(&rel, self.partitions)
            }
            LogicalPlan::ViewScan { view, .. } => {
                let data = self
                    .views
                    .get(&view.to_ascii_lowercase())
                    .ok_or_else(|| EngineError::Other(format!("view '{view}' not materialized")))?;
                match data {
                    ViewData::Rows(rel) => Dataset::scan(rel, self.partitions),
                    ViewData::Lanes { lanes, batches, .. } => {
                        let (lanes, n) = (Arc::clone(lanes), self.partitions);
                        return Ok(Data::Lanes(LaneDataset::scan(lanes, batches, n)));
                    }
                }
            }
            LogicalPlan::Values { rows, .. } => Dataset::single(rows.clone()),
            LogicalPlan::Projection { .. } | LogicalPlan::Filter { .. } => {
                return self.eval_chain(plan, path)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                ..
            } => self.eval_join(left, right, left_keys, right_keys, residual.as_ref(), path)?,
            LogicalPlan::Aggregate {
                input,
                group_cols,
                aggs,
                ..
            } => self.eval_aggregate(input, *group_cols, aggs, path)?,
            LogicalPlan::Union { inputs, .. } => {
                let mut all = Vec::new();
                for (i, input) in inputs.iter().enumerate() {
                    all.extend(rows(input, &format!("{path}.{i}"))?.into_rows());
                }
                Dataset::round_robin(all, self.partitions)
            }
            LogicalPlan::Distinct { input } => {
                let child = rows(input, &format!("{path}.0"))?;
                let arity = input.schema().arity();
                let all_cols: Vec<usize> = (0..arity).collect();
                let shuffled = child.shuffle_if_needed_traced(
                    self.cluster,
                    self.trace,
                    "distinct shuffle",
                    &all_cols,
                    self.partitions,
                )?;
                shuffled.map_partitions_traced(
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
                )?
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rows = rows(input, &format!("{path}.0"))?.into_rows();
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
                Dataset::single(rows)
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = rows(input, &format!("{path}.0"))?.into_rows();
                rows.truncate(*n as usize);
                Dataset::single(rows)
            }
        }))
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
    /// (see [`Chain::probe`]): no stage. Over lane tuples the chain runs
    /// compiled on words ([`Chain::words`]) and yields lane tuples; a chain
    /// that does not compile runs on the rows of its input, and a partition
    /// a cell leaves its lane in at run time on its own rows, in its task.
    fn eval_chain(&self, plan: &LogicalPlan, path: &str) -> Result<Data, EngineError> {
        let chain = peel_chain(plan, path);
        if let Some(probe) = chain.probe(self)? {
            let (rows, pipeline) = (probe.rows(), chain.pipeline());
            return Ok(Data::Rows(Dataset::single(if self.fused {
                run_fused(rows, &pipeline)
            } else {
                run_unfused(rows, &pipeline)
            })));
        }
        let input = self.eval_node(chain.input, &chain.path)?;
        if chain.labels.is_empty() {
            return Ok(input);
        }
        let label = chain.labels.join("+");
        let (fused, pipeline) = (self.fused, chain.pipeline());
        let on_rows = move |rows: &[Row]| {
            if fused {
                run_fused(rows, &pipeline)
            } else {
                run_unfused(rows, &pipeline)
            }
        };
        if let Data::Lanes(ds) = &input {
            if let Some((words, lanes)) = chain.words(&ds.lanes) {
                // A partition a cell leaves its lane in runs on its rows in
                // the same task: the chain is one stage either way.
                let out = Arc::clone(&lanes);
                let parts = ds.fold_partitions_traced(self.cluster, self.trace, &label, {
                    move |_p, part| {
                        run_lanes(&words, &out, part)
                            .ok_or_else(|| on_rows(&part.clone().into_rows()))
                    }
                })?;
                if parts.iter().all(Result::is_ok) {
                    let partitions = parts.into_iter().flatten().collect();
                    return Ok(Data::Lanes(LaneDataset { lanes, partitions }));
                }
                let n = parts.len();
                let parts = parts
                    .into_iter()
                    .map(|p| p.map_or_else(|rows| rows, LanePart::into_rows));
                let partitioning = Partitioning::Unknown { partitions: n };
                return Ok(Data::Rows(Dataset::from_partitions(
                    parts.collect(),
                    partitioning,
                )));
            }
        }
        Ok(Data::Rows(input.rows().map_partitions_traced(
            self.cluster,
            self.trace,
            &label,
            move |_p, rows| on_rows(rows),
        )?))
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
        let pipeline = chain.pipeline();
        let run = move |rows: &[Row]| {
            let mut acc = A::default();
            pipeline.for_each(rows, &mut |t| fold(&mut acc, t));
            acc
        };
        if let Some(probe) = probe {
            return Ok(vec![run(probe.rows())]);
        }
        let input = self.eval_node(chain.input, &chain.path)?.rows();
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
        let l = self.eval_node(left, &format!("{path}.0"))?.rows();
        let r = self.eval_node(right, &format!("{path}.1"))?.rows();
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
                #[expect(
                    clippy::disallowed_methods,
                    reason = "an ad-hoc join hashes its shuffled right side, whatever plan produced it, for this statement only"
                )]
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
        let key: Vec<usize> = (0..group_cols).collect();
        let child = match self.eval_node(input, &format!("{path}.0"))? {
            Data::Lanes(ds) => match LaneAgg::new(group_cols, aggs, input.schema(), &ds.lanes) {
                Some(agg) => return self.lane_aggregate(ds, agg, &key),
                None => ds.into_dataset(),
            },
            Data::Rows(ds) => ds,
        };
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
                combined(group_cols, aggs, input.schema())
                    .map(|ops| row_combiner(group_cols, ops))
                    .as_ref(),
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
                        accs.iter_mut()
                            .for_each(|acc| acc.update_with(|c| row[c].clone()));
                        continue;
                    }
                    let mut accs: Vec<Accumulator> = aggs.iter().map(Accumulator::new).collect();
                    accs.iter_mut()
                        .for_each(|acc| acc.update_with(|c| row[c].clone()));
                    groups.insert(key.into(), accs);
                }
                groups.iter().map(|(k, accs)| finish_row(k, accs)).collect()
            },
        )?)
    }

    /// [`EvalContext::eval_aggregate`] over lane tuples: the same shuffle
    /// (combined where the row path combines) or gather, then one typed
    /// hash aggregate per partition, whose output rows are the first rows
    /// built.
    fn lane_aggregate(
        &self,
        input: LaneDataset,
        agg: LaneAgg,
        key: &[usize],
    ) -> Result<Dataset, EngineError> {
        let child = if key.is_empty() {
            input.gathered()
        } else {
            input.shuffle_combined_traced(
                self.cluster,
                self.trace,
                "aggregate shuffle",
                key,
                self.partitions,
                agg.combiner().as_ref(),
                self.governor,
            )?
        };
        let agg = Arc::new(agg);
        let parts = child.fold_partitions_traced(self.cluster, self.trace, "aggregate", {
            move |_p, part| agg.run(part)
        })?;
        let n = parts.len();
        Ok(Dataset::from_partitions(
            parts,
            Partitioning::Unknown { partitions: n },
        ))
    }
}

/// The pipeline over the tuples of `part`, run a block at a time, its output
/// collected into one batch of `lanes`; `None` when a cell left its lane.
fn run_lanes(pipeline: &Pipeline<u64>, lanes: &Arc<[Lane]>, part: &LanePart) -> Option<LanePart> {
    let (mut s, mut out) = (pipeline.scratch(), Tuples::new(Arc::clone(lanes)));
    for (tuples, range) in part.runs() {
        let mut next = range.start;
        while next < range.end {
            next = pipeline.run_block(&mut s, tuples, next..range.end).ok()?;
            match s.output() {
                Emitted::Block(block) => block.iter().for_each(|t| out.push(t)),
                Emitted::Lent(sel) => sel.iter().for_each(|&i| out.push(tuples.get(i))),
            }
        }
    }
    Some(LanePart::from(out))
}

/// A `Projection` over any number of `Filter`s, peeled off the node under it.
struct Chain<'p> {
    /// What the chain does to a row, as stage-label parts (`filter`,
    /// `project`), in execution order; empty when it does nothing.
    labels: Vec<&'static str>,
    /// The filter predicates, innermost first, then the projection.
    filters: Vec<&'p PExpr>,
    project: Option<&'p [PExpr]>,
    /// The node the chain reads, and its pre-order path.
    input: &'p LogicalPlan,
    path: String,
    /// `(column, literal)` when the chain reads a table scan and the first
    /// filter its rows meet has the conjunct `column = literal`.
    lookup: Option<(usize, &'p Value)>,
}

/// The rows an index or a view's state holds under a lookup's literal.
struct Probe<'p> {
    found: Probed,
    literal: &'p Value,
}

impl Probe<'_> {
    fn rows(&self) -> &[Row] {
        match &self.found {
            Probed::Index(table) => table.probe(std::slice::from_ref(self.literal)),
            Probed::State(rows) => rows,
        }
    }
}

impl<'p> Chain<'p> {
    /// The chain as a pipeline over value tuples.
    fn pipeline(&self) -> Pipeline {
        let filters = self.filters.iter().map(|&pred| {
            let pred = pred.clone();
            let keep: PredFn = Arc::new(move |t: &[Value]| Ok(pred.eval_vals(t).is_truthy()));
            PipelineStep::Filter(keep)
        });
        Pipeline {
            steps: filters.collect(),
            project: self.project.map(|exprs| projection(exprs.to_vec())),
        }
    }

    /// The chain compiled on words over tuples of `lanes`, with the lanes
    /// of its output; `None` when an expression has no word form.
    fn words(&self, lanes: &[Lane]) -> Option<(Pipeline<u64>, Arc<[Lane]>)> {
        let input: Vec<Option<Lane>> = lanes.iter().copied().map(Some).collect();
        let filters = self.filters.iter().map(|e| word_pred(e, &input));
        let steps = filters.map(|keep| keep.map(PipelineStep::Filter));
        let steps = steps.collect::<Option<Vec<_>>>()?;
        let (project, lanes) = match self.project {
            Some(exprs) => {
                let (project, out) = word_projection(exprs, &input)?;
                (Some(project), out)
            }
            None => (None, lanes.into()),
        };
        Some((Pipeline { steps, project }, lanes))
    }

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
        let Some(found) = eval.probe_scan(self.input, col, literal)? else {
            return Ok(None);
        };
        let probe = Probe { found, literal };
        if let (Some(sink), LogicalPlan::TableScan { table, schema }) = (eval.trace, self.input) {
            let rows = probe.rows();
            let source = match probe.found {
                Probed::Index(_) => "index",
                Probed::State(_) => "state",
            };
            sink.record_operator(
                self.path.clone(),
                format!("{source} lookup {table}[{}]", schema.field(col).name),
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
    let mut project = None;
    if let LogicalPlan::Projection { input, exprs, .. } = node {
        node = input;
        path.push_str(".0");
        let identity = exprs.len() == input.schema().arity()
            && exprs.iter().enumerate().all(|(i, e)| *e == PExpr::Col(i));
        if !identity {
            labels.push("project");
            project = Some(&exprs[..]);
        }
    }
    let mut filters = Vec::new();
    let mut lookup = None;
    while let LogicalPlan::Filter { input, predicate } = node {
        node = input;
        path.push_str(".0");
        // The innermost filter is the last one this loop sees.
        lookup = equality_lookup(predicate);
        filters.push(predicate);
    }
    if !filters.is_empty() {
        labels.push("filter");
    }
    // Collected top-down; rows meet the innermost filter first.
    filters.reverse();
    labels.reverse();
    Chain {
        labels,
        filters,
        project,
        lookup: lookup.filter(|_| matches!(node, LogicalPlan::TableScan { .. })),
        input: node,
        path,
    }
}

/// The map-side combine of the aggregate shuffle (paper §7.1, map side of
/// stage combination): pre-merge rows that share a group key on the write
/// side, so the exchange ships one partial row per (source partition, group)
/// instead of one per input row. The `(column, function)` pairs it merges,
/// for the row and the lane combiner alike.
///
/// Only when the pre-merge is provably invisible downstream: every
/// aggregate is a non-`DISTINCT` `min`/`max`/`sum`, every `sum` argument is
/// an integer column (float addition is order-dependent and the combine
/// reorders it), and no column is consumed by two aggregates with different
/// functions (one cell cannot hold both partials). `count`/`avg` never
/// qualify — they need the uncombined row multiplicity. An `Int` partial
/// that would leave `i64` ships its bucket uncombined, so the total is
/// summed exactly wherever the rows landed.
fn combined(group_cols: usize, aggs: &[AggExpr], input: &Schema) -> Option<Vec<(usize, AggFunc)>> {
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
    (group_cols > 0).then_some(ops)
}

/// [`combined`]'s merge over rows.
fn row_combiner(group_cols: usize, ops: Vec<(usize, AggFunc)>) -> RowCombiner {
    Arc::new(move |rows: &[&Row]| {
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
                    AggFunc::Sum => match (&*m, v) {
                        (Value::Int(a), Value::Int(b)) => match a.checked_add(*b) {
                            Some(sum) => *m = Value::Int(sum),
                            None => return rows.iter().map(|&r| r.clone()).collect(),
                        },
                        _ => *m = m.add(v),
                    },
                    AggFunc::Count | AggFunc::Avg => unreachable!("filtered above"),
                }
            }
        }
        acc.into_iter().map(Row::new).collect()
    })
}

fn finish_row(key: &[Value], accs: &[Accumulator]) -> Row {
    let mut v = Vec::with_capacity(key.len() + accs.len());
    v.extend_from_slice(key);
    v.extend(accs.iter().map(Accumulator::finish));
    Row::new(v)
}

/// An exact `Int` total: an `Int` when it fits, its nearest `Double`
/// otherwise — however the addends were grouped or ordered.
fn int_total(total: i128) -> Value {
    #[allow(clippy::cast_precision_loss)]
    i64::try_from(total).map_or(Value::Double(total as f64), Value::Int)
}

/// Aggregate accumulator for final (stratified) aggregation.
struct Accumulator {
    func: AggFunc,
    arg: Option<usize>,
    distinct: Option<FxHashSet<Value>>,
    extremum: Option<Value>,
    /// The `Int` addends, summed exactly.
    ints: i128,
    /// The other addends, summed in arrival order; `None` before the first.
    others: Option<Value>,
    count: i64,
}

impl Accumulator {
    fn new(spec: &AggExpr) -> Self {
        Accumulator {
            func: spec.func,
            arg: spec.arg,
            distinct: spec.distinct.then(FxHashSet::default),
            extremum: None,
            ints: 0,
            others: None,
            count: 0,
        }
    }

    /// Fold in the argument, which `cell` reads from the input tuple's
    /// column (`count(*)`: the `Int` 1).
    fn update_with(&mut self, cell: impl Fn(usize) -> Value) {
        let v = self.arg.map_or(Value::Int(1), cell);
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
                match v {
                    Value::Int(i) => self.ints += i128::from(i),
                    v => {
                        let sum = self.others.take().unwrap_or(Value::Int(0));
                        self.others = Some(sum.add(&v));
                    }
                }
                self.count += 1;
            }
            AggFunc::Count => self.count += 1,
        }
    }

    /// The `sum` of the addends.
    fn total(&self) -> Value {
        match &self.others {
            None => int_total(self.ints),
            Some(others) if self.ints == 0 => others.clone(),
            Some(others) => int_total(self.ints).add(others),
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Min | AggFunc::Max => self.extremum.clone().unwrap_or(Value::Null),
            AggFunc::Sum if self.count == 0 => Value::Null,
            AggFunc::Sum => self.total(),
            AggFunc::Count => Value::Int(self.count),
            // Always a double, even over integer inputs.
            AggFunc::Avg => match (self.total().as_f64(), self.count) {
                (_, 0) | (None, _) => Value::Null,
                (Some(s), n) => Value::Double(s / n as f64),
            },
        }
    }
}

/// The hash aggregate of a final plan over lane tuples — `min`, `max`,
/// `sum`, `count` (`DISTINCT` or not) and `avg`, grouped by lane keys and
/// folded by the row path's [`Accumulator`]s, so its results are the row
/// path's value for value.
struct LaneAgg {
    group_cols: usize,
    aggs: Vec<AggExpr>,
    lanes: Arc<[Lane]>,
    combine: Option<Vec<(usize, AggFunc)>>,
}

impl LaneAgg {
    /// The aggregate over tuples of `lanes`, when it has a lane form: lanes
    /// that are the declared columns' (so the combine is chosen as the row
    /// path chooses it).
    fn new(
        group_cols: usize,
        aggs: &[AggExpr],
        input: &Schema,
        lanes: &Arc<[Lane]>,
    ) -> Option<Self> {
        let declared = lanes_of(input)?;
        (declared == *lanes).then(|| LaneAgg {
            group_cols,
            aggs: aggs.to_vec(),
            lanes: Arc::clone(lanes),
            combine: combined(group_cols, aggs, input),
        })
    }

    /// [`combined`]'s merge over lane tuples.
    fn combiner(&self) -> Option<LaneCombiner> {
        let ops = self.combine.clone()?;
        let (g, lanes) = (self.group_cols, Arc::clone(&self.lanes));
        Some(Arc::new(move |tuples: &[&[u64]]| {
            let mut index = TupleSet::<u64>::new(lanes[..g].into());
            let (a, mut acc) = (lanes.len(), Vec::new());
            for &t in tuples {
                let (slot, new) = index.intern(&t[..g]);
                if new {
                    acc.extend_from_slice(t);
                    continue;
                }
                let cur = &mut acc[slot * a..(slot + 1) * a];
                for &(c, func) in &ops {
                    let (m, v) = (&mut cur[c], t[c]);
                    match func {
                        AggFunc::Min if lanes[c].cmp(v, *m) == Ordering::Less => *m = v,
                        AggFunc::Max if lanes[c].cmp(v, *m) == Ordering::Greater => *m = v,
                        AggFunc::Sum => match (*m as i64).checked_add(v as i64) {
                            Some(sum) => *m = sum as u64,
                            None => {
                                acc.clear();
                                tuples.iter().for_each(|t| acc.extend_from_slice(t));
                                return batch(&lanes, &acc);
                            }
                        },
                        _ => {}
                    }
                }
            }
            batch(&lanes, &acc)
        }))
    }

    /// One partition's groups, as rows: found by interning their lane keys,
    /// each aggregate fed its argument cell as a `Value`, which needs no heap.
    fn run(&self, part: &LanePart) -> Vec<Row> {
        let (g, m) = (self.group_cols, self.aggs.len());
        let mut accs: Vec<Accumulator> = Vec::new();
        if g == 0 {
            // One group, found without a key; SQL: a global aggregate over
            // zero rows still yields one row.
            accs.extend(self.aggs.iter().map(Accumulator::new));
            for t in part.blocks().flat_map(|b| b.iter()) {
                for acc in &mut accs {
                    acc.update_with(|c| self.lanes[c].decode(t[c]));
                }
            }
            return vec![finish_row(&[], &accs)];
        }
        let mut groups = TupleSet::<u64>::new(self.lanes[..g].into());
        for t in part.blocks().flat_map(|b| b.iter()) {
            let (at, new) = groups.intern(&t[..g]);
            if new {
                accs.extend(self.aggs.iter().map(Accumulator::new));
            }
            for acc in &mut accs[at * m..(at + 1) * m] {
                acc.update_with(|c| self.lanes[c].decode(t[c]));
            }
        }
        (groups.tuples().iter().enumerate())
            .map(|(at, key)| {
                finish_row(
                    &values_of(&self.lanes[..g], key),
                    &accs[at * m..(at + 1) * m],
                )
            })
            .collect()
    }
}

/// Tuples of `lanes` from their cells, tuple after tuple.
fn batch(lanes: &Arc<[Lane]>, cells: &[u64]) -> Tuples {
    let mut out = Tuples::new(Arc::clone(lanes));
    let a = lanes.len().max(1);
    cells.chunks(a).for_each(|t| out.push(t));
    out
}

/// How many times `plan` scans view `name`.
fn scans(plan: &LogicalPlan, name: &str) -> usize {
    let own = matches!(plan, LogicalPlan::ViewScan { view, .. } if view.eq_ignore_ascii_case(name));
    let below = plan.children().into_iter().map(|c| scans(c, name));
    usize::from(own) + below.sum::<usize>()
}

/// How many times a statement's plans scan view `name`: the final plan,
/// and the base branches and base build sides of `later` cliques. A view
/// read more than once is converted to rows up front, once; a single reader
/// with no lane form converts what it reads itself.
pub(crate) fn view_reads(name: &str, final_plan: &LogicalPlan, later: &[FixpointSpec]) -> usize {
    let builds = |v: &rasql_plan::ViewSpec| {
        let steps = v.recursive.iter().flat_map(|r| &r.steps);
        let plans = steps.filter_map(|s| match s {
            BranchStep::HashJoin {
                build: JoinBuild::Base(plan),
                ..
            } => Some(plan),
            BranchStep::HashJoin { .. } | BranchStep::Filter(_) => None,
        });
        plans.map(|p| scans(p, name)).sum::<usize>()
    };
    let views = later.iter().flat_map(|spec| &spec.views);
    let clique = views.map(|v| v.base.iter().map(|p| scans(p, name)).sum::<usize>() + builds(v));
    scans(final_plan, name) + clique.sum::<usize>()
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
