//! Operator pipelines: the whole-stage code-generation analog (paper §7.3).
//!
//! Spark's codegen collapses the operators of a stage into one generated
//! function, eliminating per-tuple virtual calls and intermediate
//! materialization. A Rust reproduction cannot JIT, but the same axis exists:
//!
//! - [`run_unfused`] executes each step as its own pass, materializing an
//!   intermediate row vector between operators (the volcano/RDD-chain model);
//! - [`Pipeline::feed`] pushes an input tuple through all steps in one pass:
//!   the tuple in flight is a borrowed slice of one reused buffer and no row
//!   exists between operators, or after them unless the consumer keeps one.
//!   It is written once over the tuple representation's [`Cell`] type: the
//!   generic fixpoint runs it over packed words when every column is a
//!   number, and [`Pipeline::for_each`] / [`run_fused`] run it over the
//!   values of input rows.
//!
//! Both produce identical results; Fig 7 measures the difference.

use crate::join::JoinTable;
use crate::tuples::{Cell, Escaped};
use rasql_storage::{Row, Value};
use std::sync::Arc;

/// A tuple-level predicate.
pub type PredFn<C = Value> = Arc<dyn Fn(&[C]) -> Result<bool, Escaped> + Send + Sync>;
/// A key extractor: appends the tuple's hash-join probe key to the buffer,
/// as cells of the tuple's own type — the key of the build side it probes
/// (`Cell::Table`): values for a row table, lane words for a packed one.
pub type KeyFn<C = Value> = Arc<dyn Fn(&[C], &mut Vec<C>) -> Result<(), Escaped> + Send + Sync>;
/// The final projection: appends the output tuple to the buffer.
pub type MapFn<C = Value> = Arc<dyn Fn(&[C], &mut Vec<C>) -> Result<(), Escaped> + Send + Sync>;

/// One step of a pipeline.
#[derive(Clone)]
pub enum PipelineStep<C: Cell = Value> {
    /// Keep tuples satisfying the predicate.
    Filter(PredFn<C>),
    /// Hash-join: for each input tuple, probe `table` with its key and emit
    /// `tuple ++ match` for every match — a match is already cells of the
    /// tuple's type, so it is copied as it is. An empty key = cross join
    /// (emit against every build row).
    HashJoin {
        /// The (cached) build-side table.
        table: Arc<C::Table>,
        /// Probe-key extractor.
        key: KeyFn<C>,
    },
}

/// A pipeline's final projection.
#[derive(Clone)]
pub enum Projection<C: Cell = Value> {
    /// Output column `j` is input column `cols[j]` — a plain copy, so a
    /// final join assembles its output straight from the tuple in flight and
    /// the matched row, without building their concatenation first.
    Columns(Arc<[usize]>),
    /// Any other transform.
    Map(MapFn<C>),
}

impl<C: Cell> Projection<C> {
    /// Append the projection of `tuple` to `out`.
    #[inline]
    fn apply(&self, tuple: &[C], out: &mut Vec<C>) -> Result<(), Escaped> {
        match self {
            Projection::Columns(cols) => {
                // lint: allow(RL0010, a cell: a word copy when the tuple is packed words)
                out.extend(cols.iter().map(|&c| tuple[c].clone()));
                Ok(())
            }
            Projection::Map(map) => map(tuple, out),
        }
    }
}

/// A pipeline: steps then a final projection.
#[derive(Clone)]
pub struct Pipeline<C: Cell = Value> {
    /// Steps in order.
    pub steps: Vec<PipelineStep<C>>,
    /// Final tuple transform; `None` emits the tuple as it is.
    pub project: Option<Projection<C>>,
}

/// The fused executor's reused buffers: the tuple in flight (a join step
/// extends it with a match and truncates it afterwards), the probe key of
/// the join being entered, and the projected output tuple.
pub struct Scratch<C> {
    /// Filters ahead of the first join, which test an input tuple in place.
    lead: usize,
    tuple: Vec<C>,
    key: Vec<C>,
    out: Vec<C>,
}

/// Value cells have no lane to leave.
fn never_escapes<T>(r: Result<T, Escaped>) -> T {
    // lint: allow(RL0002, only word cells return `Escaped`, and these callers run value cells)
    r.expect("value cells cannot escape")
}

impl<C: Cell> Pipeline<C> {
    /// Identity-projection pipeline.
    pub fn new(steps: Vec<PipelineStep<C>>) -> Self {
        Pipeline {
            steps,
            project: None,
        }
    }

    /// Pipeline with a final transform.
    pub fn with_project(steps: Vec<PipelineStep<C>>, project: MapFn<C>) -> Self {
        Pipeline {
            steps,
            project: Some(Projection::Map(project)),
        }
    }

    /// Buffers for [`Pipeline::feed`], reused across tuples.
    pub fn scratch(&self) -> Scratch<C> {
        let filters = self.steps.iter();
        Scratch {
            lead: filters
                .take_while(|step| matches!(step, PipelineStep::Filter(_)))
                .count(),
            tuple: Vec::new(),
            key: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Fused execution (the "collapsed single function" of §7.3) of one
    /// input tuple: it flows through all steps and each output tuple is lent
    /// to `sink`, which copies what it keeps. Nothing is allocated per
    /// tuple. An error — a word cell left its lane, in a step or in the
    /// sink — ends the tuple at once.
    #[inline]
    pub fn feed(
        &self,
        s: &mut Scratch<C>,
        row: &[C],
        sink: &mut impl FnMut(&[C]) -> Result<(), Escaped>,
    ) -> Result<(), Escaped> {
        // Filters ahead of the first join test the input tuple where it lies.
        for step in &self.steps[..s.lead] {
            if let PipelineStep::Filter(p) = step {
                if !p(row)? {
                    return Ok(());
                }
            }
        }
        if s.lead == self.steps.len() {
            return self.emit(row, &mut s.out, sink);
        }
        s.tuple.clear();
        s.tuple.extend_from_slice(row);
        self.push(s.lead, s, sink)
    }

    fn emit(
        &self,
        tuple: &[C],
        out: &mut Vec<C>,
        sink: &mut impl FnMut(&[C]) -> Result<(), Escaped>,
    ) -> Result<(), Escaped> {
        let Some(project) = &self.project else {
            return sink(tuple);
        };
        out.clear();
        project.apply(tuple, out)?;
        sink(out)
    }

    fn push<S: FnMut(&[C]) -> Result<(), Escaped>>(
        &self,
        i: usize,
        s: &mut Scratch<C>,
        sink: &mut S,
    ) -> Result<(), Escaped> {
        match self.steps.get(i) {
            None => self.emit(&s.tuple, &mut s.out, sink),
            Some(PipelineStep::Filter(p)) => {
                if p(&s.tuple)? {
                    self.push(i + 1, s, sink)?;
                }
                Ok(())
            }
            Some(PipelineStep::HashJoin { table, key }) => {
                // The key buffer is free again once `matches` returns (the
                // matches borrow the table), so the steps below reuse it.
                s.key.clear();
                key(&s.tuple, &mut s.key)?;
                let arity = s.tuple.len();
                if let (Some(Projection::Columns(cols)), true) =
                    (&self.project, i + 1 == self.steps.len())
                {
                    // The last step, under a column projection: every output
                    // cell is a cell of the tuple or of the matched row.
                    for m in table.matches(&s.key) {
                        s.out.clear();
                        for &c in cols.iter() {
                            let cell = match c.checked_sub(arity) {
                                None => &s.tuple[c],
                                Some(b) => &m[b],
                            };
                            // lint: allow(RL0010, a cell: a word copy when the tuple is packed words)
                            s.out.push(cell.clone());
                        }
                        sink(&s.out)?;
                    }
                    return Ok(());
                }
                for m in table.matches(&s.key) {
                    s.tuple.extend_from_slice(m);
                    self.push(i + 1, s, sink)?;
                    s.tuple.truncate(arity);
                }
                Ok(())
            }
        }
    }
}

impl Pipeline {
    /// [`Pipeline::feed`] over input rows, with a sink that cannot fail.
    pub fn for_each(&self, input: &[Row], sink: &mut impl FnMut(&[Value])) {
        let mut s = self.scratch();
        for row in input {
            let fed = self.feed(&mut s, row.values(), &mut |t| {
                sink(t);
                Ok(())
            });
            never_escapes(fed);
        }
    }
}

/// Unfused execution: one full pass (and one intermediate `Vec<Row>`) per
/// operator — the cost model of chained RDD transformations without codegen.
pub fn run_unfused(input: &[Row], pipeline: &Pipeline) -> Vec<Row> {
    run_unfused_rows(input.to_vec(), pipeline)
}

/// [`run_unfused`] over rows the caller hands over.
pub fn run_unfused_rows(mut current: Vec<Row>, pipeline: &Pipeline) -> Vec<Row> {
    let mut k = Vec::new();
    for step in &pipeline.steps {
        let mut next = Vec::with_capacity(current.len());
        match step {
            PipelineStep::Filter(p) => {
                for row in &current {
                    if never_escapes(p(row.values())) {
                        next.push(row.clone());
                    }
                }
            }
            PipelineStep::HashJoin { table, key, .. } => {
                for row in &current {
                    k.clear();
                    never_escapes(key(row.values(), &mut k));
                    for m in table.probe(&k) {
                        next.push(row.concat(m));
                    }
                }
            }
        }
        current = next;
    }
    let Some(project) = &pipeline.project else {
        return current;
    };
    let mut out = Vec::new();
    current
        .iter()
        .map(|r| {
            out.clear();
            never_escapes(project.apply(r.values(), &mut out));
            Row::from_slice(&out)
        })
        .collect()
}

/// Fused execution collected into rows: [`Pipeline::for_each`] with a sink
/// that keeps every output tuple.
pub fn run_fused(input: &[Row], pipeline: &Pipeline) -> Vec<Row> {
    let mut out = Vec::new();
    pipeline.for_each(input, &mut |t| out.push(Row::from_slice(t)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::HashTable;
    use rasql_storage::row::int_row;

    fn pipeline_fixture() -> (Vec<Row>, Pipeline) {
        let input: Vec<Row> = (0..100).map(|i| int_row(&[i, i % 7])).collect();
        let build: Vec<Row> = (0..7).map(|i| int_row(&[i, i * 100])).collect();
        let table = Arc::new(HashTable::build(&build, &[0]));
        let steps = vec![
            PipelineStep::Filter(Arc::new(|r: &[Value]| Ok(r[0].as_int().unwrap() % 2 == 0))),
            PipelineStep::HashJoin {
                table,
                key: Arc::new(|r: &[Value], k: &mut Vec<Value>| {
                    k.push(r[1].clone());
                    Ok(())
                }),
            },
            PipelineStep::Filter(Arc::new(|r: &[Value]| Ok(r[3].as_int().unwrap() >= 100))),
        ];
        let project: MapFn = Arc::new(|r: &[Value], out: &mut Vec<Value>| {
            out.extend([r[0].clone(), r[3].clone()]);
            Ok(())
        });
        (input, Pipeline::with_project(steps, project))
    }

    #[test]
    fn fused_and_unfused_agree() {
        let (input, p) = pipeline_fixture();
        let mut a = run_fused(&input, &p);
        let mut b = run_unfused(&input, &p);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_pipeline_is_projection() {
        let input = vec![int_row(&[1, 2])];
        let p = Pipeline::with_project(
            vec![],
            Arc::new(|r: &[Value], out: &mut Vec<Value>| {
                out.push(r[1].clone());
                Ok(())
            }),
        );
        assert_eq!(run_fused(&input, &p), vec![int_row(&[2])]);
        assert_eq!(run_unfused(&input, &p), vec![int_row(&[2])]);
    }

    #[test]
    fn filter_drops_everything() {
        let input = vec![int_row(&[1]), int_row(&[2])];
        let p = Pipeline::new(vec![PipelineStep::Filter(Arc::new(|_| Ok(false)))]);
        assert!(run_fused(&input, &p).is_empty());
        assert!(run_unfused(&input, &p).is_empty());
    }
}
