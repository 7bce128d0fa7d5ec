//! Operator pipelines: the whole-stage code-generation analog (paper §7.3).
//!
//! Spark's codegen collapses the operators of a stage into one generated
//! function, eliminating per-tuple virtual calls and intermediate
//! materialization. A Rust reproduction cannot JIT, but the same axis exists:
//!
//! - [`run_unfused`] executes each step as its own pass, materializing an
//!   intermediate row vector between operators (the volcano/RDD-chain model);
//! - [`Pipeline::for_each`] pushes every input row through all steps in one
//!   pass: the tuple in flight is a borrowed slice of one reused buffer and
//!   no row exists between operators, or after them unless the consumer
//!   keeps one. [`run_fused`] is that consumer for callers that want rows.
//!
//! Both produce identical results; Fig 7 measures the difference.

use crate::join::HashTable;
use rasql_storage::{Row, Value};
use std::sync::Arc;

/// A tuple-level predicate.
pub type PredFn = Arc<dyn Fn(&[Value]) -> bool + Send + Sync>;
/// A key extractor: appends the tuple's hash-join probe key to the buffer.
pub type KeyFn = Arc<dyn Fn(&[Value], &mut Vec<Value>) + Send + Sync>;
/// The final projection: appends the output tuple to the buffer.
pub type MapFn = Arc<dyn Fn(&[Value], &mut Vec<Value>) + Send + Sync>;

/// One step of a pipeline.
#[derive(Clone)]
pub enum PipelineStep {
    /// Keep tuples satisfying the predicate.
    Filter(PredFn),
    /// Hash-join: for each input tuple, probe `table` with its key and emit
    /// `tuple ++ match` for every match. An empty key = cross join (emit
    /// against every build row).
    HashJoin {
        /// The (cached) build-side table.
        table: Arc<HashTable>,
        /// Probe-key extractor.
        key: KeyFn,
    },
}

/// A pipeline: steps then a final projection.
#[derive(Clone)]
pub struct Pipeline {
    /// Steps in order.
    pub steps: Vec<PipelineStep>,
    /// Final tuple transform; `None` emits the tuple as it is.
    pub project: Option<MapFn>,
}

/// The fused executor's reused buffers: the tuple in flight (a join step
/// extends it with a match and truncates it afterwards), the probe key of
/// the join being entered, and the projected output tuple.
#[derive(Default)]
struct Scratch {
    tuple: Vec<Value>,
    key: Vec<Value>,
    out: Vec<Value>,
}

impl Pipeline {
    /// Identity-projection pipeline.
    pub fn new(steps: Vec<PipelineStep>) -> Self {
        Pipeline {
            steps,
            project: None,
        }
    }

    /// Pipeline with a final projection.
    pub fn with_project(steps: Vec<PipelineStep>, project: MapFn) -> Self {
        Pipeline {
            steps,
            project: Some(project),
        }
    }

    /// Fused execution (the "collapsed single function" of §7.3): every
    /// input row flows through all steps in one pass and each output tuple
    /// is lent to `sink`, which clones what it keeps. Nothing is allocated
    /// per tuple.
    pub fn for_each(&self, input: &[Row], sink: &mut impl FnMut(&[Value])) {
        let mut s = Scratch::default();
        // Filters ahead of the first join test the input row where it lies.
        let lead = self
            .steps
            .iter()
            .take_while(|step| matches!(step, PipelineStep::Filter(_)))
            .count();
        for row in input {
            let kept = self.steps[..lead]
                .iter()
                .all(|step| matches!(step, PipelineStep::Filter(p) if p(row.values())));
            if kept && lead == self.steps.len() {
                self.emit(row.values(), &mut s.out, sink);
            } else if kept {
                s.tuple.clear();
                s.tuple.extend_from_slice(row.values());
                self.push(lead, &mut s, sink);
            }
        }
    }

    fn emit(&self, tuple: &[Value], out: &mut Vec<Value>, sink: &mut impl FnMut(&[Value])) {
        let Some(project) = &self.project else {
            return sink(tuple);
        };
        out.clear();
        project(tuple, out);
        sink(out);
    }

    fn push<S: FnMut(&[Value])>(&self, i: usize, s: &mut Scratch, sink: &mut S) {
        match self.steps.get(i) {
            None => self.emit(&s.tuple, &mut s.out, sink),
            Some(PipelineStep::Filter(p)) => {
                if p(&s.tuple) {
                    self.push(i + 1, s, sink);
                }
            }
            Some(PipelineStep::HashJoin { table, key }) => self.join(i, table, key, s, sink),
        }
    }

    fn join<S: FnMut(&[Value])>(
        &self,
        i: usize,
        table: &HashTable,
        key: &KeyFn,
        s: &mut Scratch,
        sink: &mut S,
    ) {
        // The key buffer is free again once `probe` returns (the matches
        // borrow the table), so the steps below reuse it.
        s.key.clear();
        key(&s.tuple, &mut s.key);
        let arity = s.tuple.len();
        for m in table.probe(&s.key) {
            s.tuple.extend_from_slice(m.values());
            self.push(i + 1, s, sink);
            s.tuple.truncate(arity);
        }
    }
}

/// Unfused execution: one full pass (and one intermediate `Vec<Row>`) per
/// operator — the cost model of chained RDD transformations without codegen.
pub fn run_unfused(input: &[Row], pipeline: &Pipeline) -> Vec<Row> {
    let mut current: Vec<Row> = input.to_vec();
    let mut k = Vec::new();
    for step in &pipeline.steps {
        let mut next = Vec::with_capacity(current.len());
        match step {
            PipelineStep::Filter(p) => {
                for row in &current {
                    if p(row.values()) {
                        next.push(row.clone());
                    }
                }
            }
            PipelineStep::HashJoin { table, key } => {
                for row in &current {
                    k.clear();
                    key(row.values(), &mut k);
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
            project(r.values(), &mut out);
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
    use rasql_storage::row::int_row;

    fn pipeline_fixture() -> (Vec<Row>, Pipeline) {
        let input: Vec<Row> = (0..100).map(|i| int_row(&[i, i % 7])).collect();
        let build: Vec<Row> = (0..7).map(|i| int_row(&[i, i * 100])).collect();
        let table = Arc::new(HashTable::build(&build, &[0]));
        let steps = vec![
            PipelineStep::Filter(Arc::new(|r: &[Value]| r[0].as_int().unwrap() % 2 == 0)),
            PipelineStep::HashJoin {
                table,
                key: Arc::new(|r: &[Value], k: &mut Vec<Value>| k.push(r[1].clone())),
            },
            PipelineStep::Filter(Arc::new(|r: &[Value]| r[3].as_int().unwrap() >= 100)),
        ];
        let project: MapFn = Arc::new(|r: &[Value], out: &mut Vec<Value>| {
            out.extend([r[0].clone(), r[3].clone()]);
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
            Arc::new(|r: &[Value], out: &mut Vec<Value>| out.push(r[1].clone())),
        );
        assert_eq!(run_fused(&input, &p), vec![int_row(&[2])]);
        assert_eq!(run_unfused(&input, &p), vec![int_row(&[2])]);
    }

    #[test]
    fn filter_drops_everything() {
        let input = vec![int_row(&[1]), int_row(&[2])];
        let p = Pipeline::new(vec![PipelineStep::Filter(Arc::new(|_| false))]);
        assert!(run_fused(&input, &p).is_empty());
        assert!(run_unfused(&input, &p).is_empty());
    }
}
