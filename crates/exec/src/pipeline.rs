//! Operator pipelines: the whole-stage code-generation analog (paper §7.3).
//!
//! Spark's codegen collapses the operators of a stage into one generated
//! function, eliminating per-tuple virtual calls and intermediate
//! materialization. A Rust reproduction cannot JIT, but the same axis exists:
//!
//! - [`run_unfused`] executes each step as its own pass, materializing an
//!   intermediate row vector between operators (the volcano/RDD-chain model);
//! - [`Pipeline::run_block`] runs all steps over a *block* of input tuples —
//!   up to [`BLOCK`] of them — one step at a time: the leading filters
//!   select from the block, each testing an input tuple where it lies; a
//!   join computes the block's probe keys, probes its build side for each
//!   and writes `tuple ++ match` into a reused, arity-strided buffer (or,
//!   as the last step under a column projection, the output tuple itself);
//!   the projection writes the output block column by column. Output tuples
//!   come out in the order a tuple-at-a-time executor emits them — input
//!   order, then match order, join after join — and the consumer takes the
//!   whole block ([`Scratch::output`]). Every buffer is reused across
//!   blocks, so nothing is allocated per tuple or per block. It is written
//!   once over the tuple representation's [`Cell`] type: the generic
//!   fixpoint runs it over packed words when every column is a number, and
//!   [`Pipeline::for_each`] / [`run_fused`] run it over the values of input
//!   rows.
//!
//! Both produce identical results; Fig 7 measures the difference.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::join::JoinTable;
use crate::tuples::{Block, Cell, Escaped, Tuples};
use rasql_storage::{Row, Value};
use std::ops::Range;
use std::sync::Arc;

/// Input tuples per block of [`Pipeline::run_block`].
pub const BLOCK: usize = 256;

/// A block whose first join has written this many tuples ends after the
/// input tuple that got it there, so a block's buffers stay bounded by the
/// build side's fan-out rather than `BLOCK` times it.
const OUT_CAP: usize = 16 * BLOCK;

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
    /// Output column `j` is input column `cols[j]` — a gather, so a final
    /// join assembles its output straight from the tuple in flight and the
    /// matched row, without building their concatenation first.
    Columns(Arc<[usize]>),
    /// Any other transform, evaluated per tuple.
    Map(MapFn<C>),
}

impl<C: Cell> Projection<C> {
    /// Append the projection of `tuple` to `out`.
    #[inline]
    fn apply(&self, tuple: &[C], out: &mut Vec<C>) -> Result<(), Escaped> {
        match self {
            Projection::Columns(cols) => {
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

/// Input tuples a pipeline reads by index, where they lie.
pub trait TupleSource<C> {
    /// Tuple `i`.
    fn tuple(&self, i: usize) -> &[C];
}

impl TupleSource<Value> for [Row] {
    #[inline]
    fn tuple(&self, i: usize) -> &[Value] {
        self[i].values()
    }
}

impl<C: Cell> TupleSource<C> for Tuples<C> {
    #[inline]
    fn tuple(&self, i: usize) -> &[C] {
        self.get(i)
    }
}

impl<C> TupleSource<C> for Block<'_, C> {
    #[inline]
    fn tuple(&self, i: usize) -> &[C] {
        self.get(i)
    }
}

/// The selected tuples of an input, by position in the selection.
struct Selected<'a, I: ?Sized> {
    input: &'a I,
    sel: &'a [usize],
}

impl<C, I: TupleSource<C> + ?Sized> TupleSource<C> for Selected<'_, I> {
    #[inline]
    fn tuple(&self, j: usize) -> &[C] {
        self.input.tuple(self.sel[j])
    }
}

/// A reused buffer of same-arity tuples.
struct Batch<C> {
    cells: Vec<C>,
    arity: usize,
    len: usize,
}

impl<C> Batch<C> {
    fn new() -> Self {
        Batch {
            cells: Vec::new(),
            arity: 0,
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.len = 0;
    }

    fn block(&self) -> Block<'_, C> {
        Block::new(&self.cells, self.arity, self.len)
    }
}

/// The block executor's reused buffers: the block's selection, its probe
/// keys, the tuples between steps and the output block.
pub struct Scratch<C> {
    /// Filters ahead of the first join, which test an input tuple in place.
    lead: usize,
    /// The block's input tuples that passed the leading filters, by index.
    sel: Vec<usize>,
    /// The probe keys of the tuples entering a join, one run each.
    keys: Vec<C>,
    /// `tuple ++ match` after a join, and the buffer the next join fills.
    mid: Batch<C>,
    next: Batch<C>,
    /// The output block.
    out: Batch<C>,
    /// The output is the selection itself: the pipeline neither joins nor
    /// projects, so its input tuples are lent where they lie.
    lent: bool,
}

/// What a block run emitted, in emission order.
pub enum Emitted<'a, C> {
    /// The output tuples.
    Block(Block<'a, C>),
    /// The input tuples, by index, that passed the filters of a pipeline
    /// that neither joins nor projects: nothing was copied.
    Lent(&'a [usize]),
}

/// Value cells have no lane to leave.
fn never_escapes<T>(r: Result<T, Escaped>) -> T {
    #[expect(
        clippy::expect_used,
        reason = "only word cells return `Escaped`, and these callers run value cells"
    )]
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

    /// Buffers for [`Pipeline::run_block`], reused across blocks.
    pub fn scratch(&self) -> Scratch<C> {
        let filters = self.steps.iter();
        Scratch {
            lead: filters
                .take_while(|step| matches!(step, PipelineStep::Filter(_)))
                .count(),
            sel: Vec::with_capacity(BLOCK),
            keys: Vec::new(),
            mid: Batch::new(),
            next: Batch::new(),
            out: Batch::new(),
            lent: false,
        }
    }

    /// Fused execution (the "collapsed single function" of §7.3) of one
    /// block: input tuples `range.start..` — at most [`BLOCK`] of them, and
    /// fewer when a fan-out fills the buffers — flow through every step,
    /// and the output is left in `s` ([`Scratch::output`]) until the next
    /// call. Returns the end of the input the block consumed. An error — a
    /// word cell left its lane — ends the block at once.
    pub fn run_block<I: TupleSource<C> + ?Sized>(
        &self,
        s: &mut Scratch<C>,
        input: &I,
        range: Range<usize>,
    ) -> Result<usize, Escaped> {
        let mut end = range.end.min(range.start + BLOCK);
        self.select(s, input, range.start..end)?;
        s.lent = false;
        s.out.clear();
        // Where the tuples in flight are: the selection until a join has
        // run, then `s.mid` — or already `s.out`, projected by the last join.
        let (mut joined, mut projected) = (false, false);
        for (i, step) in self.steps.iter().enumerate().skip(s.lead) {
            let (table, key) = match step {
                PipelineStep::Filter(p) => {
                    Self::filter(p, &mut s.mid)?;
                    continue;
                }
                PipelineStep::HashJoin { table, key } => (&**table, key),
            };
            let gather = match &self.project {
                Some(Projection::Columns(cols)) if i + 1 == self.steps.len() => Some(&**cols),
                _ => None,
            };
            projected = gather.is_some();
            let dst = if projected { &mut s.out } else { &mut s.next };
            if joined {
                // Only the join that reads the input may cut the block short.
                let src = s.mid.block();
                join(
                    &mut s.keys,
                    dst,
                    table,
                    key,
                    &src,
                    src.len(),
                    gather,
                    usize::MAX,
                )?;
            } else {
                let src = Selected { input, sel: &s.sel };
                let n = s.sel.len();
                let stop = join(&mut s.keys, dst, table, key, &src, n, gather, OUT_CAP)?;
                // A block cut short by its fan-out ends after the last
                // selected tuple it consumed.
                if let Some(j) = stop {
                    end = s.sel[j] + 1;
                }
                joined = true;
            }
            if !projected {
                std::mem::swap(&mut s.mid, &mut s.next);
            }
        }
        if projected {
            return Ok(end);
        }
        match (&self.project, joined) {
            (None, false) => s.lent = true,
            (None, true) => std::mem::swap(&mut s.out, &mut s.mid),
            (Some(project), false) => {
                let src = Selected { input, sel: &s.sel };
                emit(project, &src, s.sel.len(), &mut s.out)?;
            }
            (Some(project), true) => emit(project, &s.mid.block(), s.mid.len, &mut s.out)?,
        }
        Ok(end)
    }

    /// The block's leading filters: `s.sel` becomes the input tuples of
    /// `block` that pass them, each tested where it lies.
    fn select<I: TupleSource<C> + ?Sized>(
        &self,
        s: &mut Scratch<C>,
        input: &I,
        block: Range<usize>,
    ) -> Result<(), Escaped> {
        s.sel.clear();
        'tuples: for i in block {
            let tuple = input.tuple(i);
            for step in &self.steps[..s.lead] {
                if let PipelineStep::Filter(p) = step {
                    if !p(tuple)? {
                        continue 'tuples;
                    }
                }
            }
            s.sel.push(i);
        }
        Ok(())
    }

    /// A filter after a join: keep the tuples of `mid` that pass, in order,
    /// moving (not copying) the survivors down.
    fn filter(p: &PredFn<C>, mid: &mut Batch<C>) -> Result<(), Escaped> {
        let a = mid.arity;
        let mut kept = 0;
        for r in 0..mid.len {
            if p(&mid.cells[r * a..(r + 1) * a])? {
                if kept != r {
                    for c in 0..a {
                        mid.cells.swap(kept * a + c, r * a + c);
                    }
                }
                kept += 1;
            }
        }
        mid.cells.truncate(kept * a);
        mid.len = kept;
        Ok(())
    }
}

/// A join step over the `n` tuples of `src`: their probe keys first (into
/// `keys`), then one probe each, writing `tuple ++ match` into `dst` — or,
/// as the last step under a column projection (`gather`), the output tuple
/// itself. Returns the position of the tuple after which `dst` reached
/// `cap` tuples, when tuples of `src` are left: the rest is not joined.
#[allow(clippy::too_many_arguments)]
fn join<C: Cell, S: TupleSource<C> + ?Sized>(
    keys: &mut Vec<C>,
    dst: &mut Batch<C>,
    table: &C::Table,
    key: &KeyFn<C>,
    src: &S,
    n: usize,
    gather: Option<&[usize]>,
    cap: usize,
) -> Result<Option<usize>, Escaped> {
    keys.clear();
    for j in 0..n {
        key(src.tuple(j), keys)?;
    }
    let width = keys.len().checked_div(n).unwrap_or(0);
    dst.clear();
    for j in 0..n {
        let tuple = src.tuple(j);
        for m in table.matches(&keys[j * width..(j + 1) * width]) {
            match gather {
                // Every output cell is a cell of the tuple or of the match.
                Some(cols) => {
                    for &c in cols {
                        let cell = match c.checked_sub(tuple.len()) {
                            None => &tuple[c],
                            Some(b) => &m[b],
                        };
                        dst.cells.push(cell.clone());
                    }
                    dst.arity = cols.len();
                }
                None => {
                    dst.cells.extend_from_slice(tuple);
                    dst.cells.extend_from_slice(m);
                    dst.arity = tuple.len() + m.len();
                }
            }
            dst.len += 1;
        }
        if dst.len >= cap && j + 1 < n {
            return Ok(Some(j));
        }
    }
    Ok(None)
}

/// The projection of the `n` tuples of `src`, as the output block `out`.
fn emit<C: Cell, S: TupleSource<C> + ?Sized>(
    project: &Projection<C>,
    src: &S,
    n: usize,
    out: &mut Batch<C>,
) -> Result<(), Escaped> {
    out.clear();
    for j in 0..n {
        project.apply(src.tuple(j), &mut out.cells)?;
    }
    out.len = n;
    out.arity = match project {
        Projection::Columns(cols) => cols.len(),
        Projection::Map(_) => out.cells.len().checked_div(n).unwrap_or(0),
    };
    Ok(())
}

impl<C: Cell> Scratch<C> {
    /// What the last [`Pipeline::run_block`] emitted.
    pub fn output(&self) -> Emitted<'_, C> {
        if self.lent {
            Emitted::Lent(&self.sel)
        } else {
            Emitted::Block(self.out.block())
        }
    }
}

impl Pipeline {
    /// [`Pipeline::run_block`] over input rows, block after block, lending
    /// every output tuple to a sink that cannot fail.
    pub fn for_each(&self, input: &[Row], sink: &mut impl FnMut(&[Value])) {
        let mut s = self.scratch();
        let mut next = 0;
        while next < input.len() {
            next = never_escapes(self.run_block(&mut s, input, next..input.len()));
            match s.output() {
                Emitted::Block(block) => block.iter().for_each(&mut *sink),
                Emitted::Lent(sel) => sel.iter().for_each(|&i| sink(input[i].values())),
            }
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
#[expect(
    clippy::disallowed_methods,
    reason = "fixtures: build sides made by hand"
)]
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
