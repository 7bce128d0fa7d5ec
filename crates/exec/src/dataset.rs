//! Partitioned datasets: the RDD analog.
//!
//! A `Dataset` is a vector of immutable row partitions, each with a *home*
//! worker. A partition is a *view*: a shared row buffer plus a range, so a
//! base table or materialized view is scanned in place — its partitions are
//! contiguous ranges of the relation's own buffer. Reading a partition from
//! its home worker is free (the view dereferences to `&[Row]`); reading it
//! from elsewhere performs a deep copy and is charged to
//! `remote_fetch_bytes` — making the partition-aware-scheduling ablation
//! measurable in both metrics and wall-clock.

use crate::cluster::{Cluster, StageTask};
use crate::error::ExecError;
use crate::governor::QueryGovernor;
use crate::metrics::Metrics;
use crate::spill::SpillDir;
use crate::trace::{RecoveryEvent, RecoveryKind, StageKind, StageSpan, TraceSink};
use crate::tuples::{lane_partition, Block, Lane, Tuples};
use rasql_storage::{partition::row_partition, Partitioning, Relation, Row, Schema, Value};
use std::ops::{Deref, Range};
use std::sync::Arc;
use std::time::Instant;

/// A map-side combine function: collapses a shuffle bucket's rows, lent in
/// arrival order, into an equivalent (for the downstream consumer) smaller
/// set — e.g. merging monotone-aggregate contributions that share a group
/// key (paper §7.1). It copies only the rows it keeps.
pub type RowCombiner = Arc<dyn Fn(&[&Row]) -> Vec<Row> + Send + Sync>;

/// One partition: a range of a shared, immutable row buffer. Cloning shares
/// the buffer; stage bodies see it as `&[Row]`.
#[derive(Clone)]
pub struct Partition {
    buf: Arc<Vec<Row>>,
    range: Range<usize>,
}

impl Partition {
    /// The rows of `range` in `buf`, without touching a row.
    fn view(buf: Arc<Vec<Row>>, range: Range<usize>) -> Self {
        debug_assert!(range.start <= range.end && range.end <= buf.len());
        Partition { buf, range }
    }

    /// The rows, moved out when this view is all of a buffer nobody else
    /// holds and cloned otherwise.
    fn into_rows(self) -> Vec<Row> {
        if self.range == (0..self.buf.len()) {
            Arc::try_unwrap(self.buf).unwrap_or_else(|shared| shared.as_ref().clone())
        } else {
            self.to_vec()
        }
    }
}

impl From<Vec<Row>> for Partition {
    fn from(rows: Vec<Row>) -> Self {
        let range = 0..rows.len();
        Partition {
            buf: Arc::new(rows),
            range,
        }
    }
}

impl Deref for Partition {
    type Target = [Row];
    fn deref(&self) -> &[Row] {
        &self.buf[self.range.clone()]
    }
}

/// A hash-partitioned, distributed (simulated) collection of rows.
#[derive(Clone)]
pub struct Dataset {
    /// Partition data; views, so local access is zero-copy.
    pub partitions: Vec<Partition>,
    /// How the data is partitioned.
    pub partitioning: Partitioning,
}

impl Dataset {
    /// Create from pre-built partitions.
    pub fn from_partitions(partitions: Vec<Vec<Row>>, partitioning: Partitioning) -> Self {
        Dataset {
            partitions: partitions.into_iter().map(Partition::from).collect(),
            partitioning,
        }
    }

    /// Scan a relation in place: `n` contiguous partitions over its own row
    /// buffer, in table order, with no partitioning guarantee. No row is
    /// copied or allocated.
    pub fn scan(relation: &Relation, n: usize) -> Self {
        let buf = relation.shared_rows();
        let len = buf.len();
        Dataset {
            partitions: (0..n)
                .map(|p| Partition::view(Arc::clone(buf), p * len / n..(p + 1) * len / n))
                .collect(),
            partitioning: Partitioning::Unknown { partitions: n },
        }
    }

    /// Hash-partition rows on `key` columns into `n` partitions.
    pub fn hash_partitioned(rows: Vec<Row>, key: &[usize], n: usize) -> Self {
        let cap = rows.len() / n.max(1) + 1;
        let mut parts: Vec<Vec<Row>> = (0..n).map(|_| Vec::with_capacity(cap)).collect();
        for row in rows {
            let p = row_partition(&row, key, n);
            parts[p].push(row);
        }
        Dataset::from_partitions(
            parts,
            Partitioning::Hash {
                key: key.to_vec(),
                partitions: n,
            },
        )
    }

    /// A single-partition dataset.
    pub fn single(rows: Vec<Row>) -> Self {
        Dataset::from_partitions(vec![rows], Partitioning::Single)
    }

    /// Split rows round-robin into `n` partitions with no partitioning
    /// guarantee (freshly loaded data).
    pub fn round_robin(rows: Vec<Row>, n: usize) -> Self {
        let cap = rows.len() / n.max(1) + 1;
        let mut parts: Vec<Vec<Row>> = (0..n).map(|_| Vec::with_capacity(cap)).collect();
        for (i, row) in rows.into_iter().enumerate() {
            parts[i % n].push(row);
        }
        Dataset::from_partitions(parts, Partitioning::Unknown { partitions: n })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// True if all partitions are empty.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.is_empty())
    }

    /// Gather all rows to the driver.
    pub fn collect(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for p in &self.partitions {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Gather all rows to the driver, consuming the dataset. A partition that
    /// is the whole of a buffer nobody else holds is moved, not cloned — the
    /// fast path for the end-of-query materialization where no other stage
    /// holds the data.
    pub fn into_rows(self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        for p in self.partitions {
            out.extend(p.into_rows());
        }
        out
    }

    /// Materialize into a [`Relation`], consuming the dataset. Partitions
    /// that tile one buffer in order (an unfiltered scan) hand that buffer
    /// back as it is; anything else gathers as [`Dataset::into_rows`] does.
    pub fn into_relation(self, schema: Schema) -> Relation {
        if let Some(first) = self.partitions.first() {
            let mut at = 0;
            let tiles = self.partitions.iter().all(|p| {
                let next = Arc::ptr_eq(&p.buf, &first.buf) && p.range.start == at;
                at = p.range.end;
                next
            });
            if tiles && at == first.buf.len() {
                return Relation::from_shared(schema, Arc::clone(&first.buf));
            }
        }
        Relation::new_unchecked(schema, self.into_rows())
    }

    /// Access partition `p` from worker `worker`: zero-copy if local,
    /// deep-copied (and metered) if remote.
    pub fn read_partition(&self, cluster: &Cluster, p: usize, worker: usize) -> Partition {
        let data = self.partitions[p].clone();
        if cluster.owner_of(p) == worker {
            data
        } else {
            let bytes: usize = data.iter().map(Row::size_bytes).sum();
            Metrics::add(&cluster.metrics.remote_fetches, 1);
            Metrics::add(&cluster.metrics.remote_fetch_bytes, bytes as u64);
            // The deep copy is the simulated network transfer.
            Partition::from(data.to_vec())
        }
    }

    /// Run `f` over every partition as one stage; produces a new dataset with
    /// the same partition count and `Unknown` partitioning (caller may
    /// reassert a partitioning it knows is preserved).
    pub fn map_partitions(
        &self,
        cluster: &Cluster,
        f: impl Fn(usize, &[Row]) -> Vec<Row> + Send + Sync + 'static,
    ) -> Result<Dataset, ExecError> {
        self.map_partitions_traced(cluster, None, "map", f)
    }

    /// [`Dataset::map_partitions`] that records a labelled stage span into
    /// `sink` (when given).
    pub fn map_partitions_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        f: impl Fn(usize, &[Row]) -> Vec<Row> + Send + Sync + 'static,
    ) -> Result<Dataset, ExecError> {
        let parts = self.fold_partitions_traced(cluster, sink, label, f)?;
        let n = parts.len();
        Ok(Dataset::from_partitions(
            parts,
            Partitioning::Unknown { partitions: n },
        ))
    }

    /// Run `f` over every partition as one labelled stage and hand back what
    /// each task made of its partition, in partition order — rows for
    /// [`Dataset::map_partitions_traced`], any other value for a caller that
    /// consumes the partition where it lives instead of producing a dataset.
    /// A task that runs away from its partition's home pays the charged deep
    /// copy of [`Dataset::read_partition`].
    pub fn fold_partitions_traced<R: Send + 'static>(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        f: impl Fn(usize, &[Row]) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, ExecError> {
        fold_stage(cluster, sink, label, &self.partitions, move |p, part| {
            f(p, part)
        })
    }

    /// Shuffle into `n` partitions hash-keyed on `key` columns, as a
    /// map-exchange stage pair. Bytes that cross worker boundaries are charged
    /// to `shuffle_bytes`.
    pub fn shuffle(
        &self,
        cluster: &Cluster,
        key: &[usize],
        n: usize,
    ) -> Result<Dataset, ExecError> {
        self.shuffle_traced(cluster, None, "shuffle", key, n)
    }

    /// [`Dataset::shuffle`] that records the map side as a `shuffle write`
    /// span and the exchange/gather side as a `shuffle read` span.
    pub fn shuffle_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        key: &[usize],
        n: usize,
    ) -> Result<Dataset, ExecError> {
        self.shuffle_combined_traced(cluster, sink, label, key, n, None, None)
    }

    /// [`Dataset::shuffle_traced`] with an optional **map-side combiner**
    /// (paper §7.1, Map side of stage combination): each write task runs the
    /// combiner over its per-target buckets *before* the exchange, shrinking
    /// the shuffled volume. The combiner must be semantics-preserving for the
    /// downstream consumer (e.g. pre-merging monotone-aggregate rows that
    /// share a group key); rows eliminated are charged to `combined_rows`.
    ///
    /// When a `governor` with a memory budget is given, the driver-side
    /// gather charges its working set to the tracker and **spills** gathered
    /// partitions to disk whenever the query goes over budget, merging them
    /// back (in exact arrival order, so results stay bit-identical) before
    /// the dataset is returned. The governor's cancellation token is checked
    /// at the stage boundary.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn shuffle_combined_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        key: &[usize],
        n: usize,
        combiner: Option<&RowCombiner>,
        governor: Option<&QueryGovernor>,
    ) -> Result<Dataset, ExecError> {
        if let Some(g) = governor {
            g.check()?;
        }
        let key_owned: Vec<usize> = key.to_vec();
        let src_parts = self.num_partitions();
        // Map side: bucket each source partition's rows by target partition.
        let key_for_task = key_owned.clone();
        let buckets: Vec<Vec<Vec<Row>>> = {
            let this = self.clone();
            let tasks: Vec<StageTask<Vec<Vec<Row>>>> = (0..src_parts)
                .map(|p| {
                    let this = this.clone();
                    let key = key_for_task.clone();
                    let owner = cluster.owner_of(p);
                    let combiner = combiner.cloned();
                    let metrics = Arc::clone(&cluster.metrics);
                    StageTask::new(owner, move |_w| {
                        let rows = this.partitions[p].iter();
                        let cap = this.partitions[p].len() / n.max(1) + 1;
                        let Some(combine) = &combiner else {
                            let mut out: Vec<Vec<Row>> =
                                (0..n).map(|_| Vec::with_capacity(cap)).collect();
                            for row in rows {
                                out[row_partition(row, &key, n)].push(row.clone());
                            }
                            return out;
                        };
                        // Bucket the rows by reference: the combiner copies
                        // only the rows it keeps.
                        let mut lent: Vec<Vec<&Row>> =
                            (0..n).map(|_| Vec::with_capacity(cap)).collect();
                        for row in rows {
                            lent[row_partition(row, &key, n)].push(row);
                        }
                        let out: Vec<Vec<Row>> =
                            lent.iter().map(|bucket| combine(bucket)).collect();
                        let (before, after) = (lent.iter().map(Vec::len), out.iter().map(Vec::len));
                        let eliminated = before.sum::<usize>() - after.sum::<usize>();
                        Metrics::add(&metrics.combined_rows, eliminated as u64);
                        out
                    })
                })
                .collect();
            cluster.run_stage_traced(
                sink,
                &format!("{label} write"),
                StageKind::ShuffleWrite,
                tasks,
            )?
        };
        let parts = exchange(cluster, sink, label, buckets, n, self.len(), governor)?;
        Ok(Dataset::from_partitions(
            parts,
            Partitioning::Hash {
                key: key_owned,
                partitions: n,
            },
        ))
    }

    /// Repartition to `n` partitions on `key` only if the current partitioning
    /// does not already satisfy it.
    pub fn shuffle_if_needed(
        &self,
        cluster: &Cluster,
        key: &[usize],
        n: usize,
    ) -> Result<Dataset, ExecError> {
        self.shuffle_if_needed_traced(cluster, None, "shuffle", key, n)
    }

    /// [`Dataset::shuffle_if_needed`] with stage-span recording.
    pub fn shuffle_if_needed_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        key: &[usize],
        n: usize,
    ) -> Result<Dataset, ExecError> {
        if self.partitioning.satisfies_hash(key, n) {
            Ok(self.clone())
        } else {
            self.shuffle_traced(cluster, sink, label, key, n)
        }
    }

    /// [`Dataset::shuffle_if_needed_traced`] with a map-side combiner for the
    /// shuffle (no-op when the partitioning is already satisfied — there is
    /// no exchange to shrink).
    #[allow(clippy::too_many_arguments)]
    pub fn shuffle_if_needed_combined_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        key: &[usize],
        n: usize,
        combiner: Option<&RowCombiner>,
        governor: Option<&QueryGovernor>,
    ) -> Result<Dataset, ExecError> {
        if self.partitioning.satisfies_hash(key, n) {
            Ok(self.clone())
        } else {
            self.shuffle_combined_traced(cluster, sink, label, key, n, combiner, governor)
        }
    }
}

/// A partition a stage task reads: shared, and deep-copied — the simulated
/// network transfer — for a task that runs away from its home worker.
trait Remote: Clone + Send + Sync + 'static {
    /// Bytes of its rows (`Row::size_bytes`).
    fn bytes(&self) -> u64;
    fn copied(&self) -> Self;
}

impl Remote for Partition {
    fn bytes(&self) -> u64 {
        self.iter().map(Row::size_bytes).sum::<usize>() as u64
    }
    fn copied(&self) -> Self {
        Partition::from(self.to_vec())
    }
}

/// Run `f` over every partition as one labelled stage, a task per
/// partition on its home worker, and hand back what each task made of its
/// partition, in partition order. A task that runs away from its home pays
/// a charged deep copy.
fn fold_stage<P: Remote, R: Send + 'static>(
    cluster: &Cluster,
    sink: Option<&TraceSink>,
    label: &str,
    partitions: &[P],
    f: impl Fn(usize, &P) -> R + Send + Sync + 'static,
) -> Result<Vec<R>, ExecError> {
    let f = Arc::new(f);
    let tasks: Vec<StageTask<R>> = (partitions.iter().enumerate())
        .map(|(p, part)| {
            let (f, part) = (Arc::clone(&f), part.clone());
            let metrics = Arc::clone(&cluster.metrics);
            let owner = cluster.owner_of(p);
            StageTask::new(owner, move |w| {
                if w == owner {
                    return f(p, &part);
                }
                Metrics::add(&metrics.remote_fetches, 1);
                Metrics::add(&metrics.remote_fetch_bytes, part.bytes());
                f(p, &part.copied())
            })
        })
        .collect();
    cluster.run_stage_traced(sink, label, StageKind::Map, tasks)
}

/// What a shuffle moves from a source partition to a destination and
/// gathers there: a bucket of rows, or of lane tuples.
trait Bucket: Sized {
    fn with_capacity(cap: usize) -> Self;
    fn rows(&self) -> usize;
    /// Bytes of the bucket's rows (`Row::size_bytes`).
    fn bytes(&self) -> u64;
    fn absorb(&mut self, other: Self);
    /// Append the bucket to the spill file `name` and empty it; the bytes
    /// written.
    fn spill(&mut self, dir: &SpillDir, name: &str) -> Result<u64, ExecError>;
    /// Put the rows spilled for this bucket in front of what it holds.
    fn unspill(&mut self, spilled: Vec<Row>);
}

impl Bucket for Vec<Row> {
    fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap)
    }
    fn rows(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> u64 {
        self.iter().map(Row::size_bytes).sum::<usize>() as u64
    }
    fn absorb(&mut self, other: Self) {
        self.extend(other);
    }
    fn spill(&mut self, dir: &SpillDir, name: &str) -> Result<u64, ExecError> {
        let written = dir.append_rows(name, self)?;
        self.clear();
        Ok(written)
    }
    fn unspill(&mut self, mut spilled: Vec<Row>) {
        spilled.append(self);
        *self = spilled;
    }
}

/// The exchange side of a shuffle: gather bucket (src → dst) into dst
/// partitions and count the worker-crossing volume. Under a memory budget
/// the per-dst gather buffers are the unbounded structure: each dst
/// accumulates rows from every source partition, so once the tracker goes
/// over budget the current dst's buffer pages out to a spill file
/// (preserving arrival order) and its charge is released.
fn exchange<B: Bucket>(
    cluster: &Cluster,
    sink: Option<&TraceSink>,
    label: &str,
    buckets: Vec<Vec<B>>,
    n: usize,
    len: usize,
    governor: Option<&QueryGovernor>,
) -> Result<Vec<B>, ExecError> {
    let t_read = Instant::now();
    let cap = len / n.max(1) + 1;
    let mut parts: Vec<B> = (0..n).map(|_| B::with_capacity(cap)).collect();
    let mut charged: Vec<u64> = vec![0; n];
    let mut spilled: Vec<bool> = vec![false; n];
    let mut moved_rows = 0u64;
    let mut moved_bytes = 0u64;
    let mut total_charged = 0u64;
    let spill_name = |dst: usize| format!("shuffle-{label}-d{dst}");
    for (src, src_buckets) in buckets.into_iter().enumerate() {
        for (dst, bucket) in src_buckets.into_iter().enumerate() {
            let bucket_bytes = bucket.bytes();
            if cluster.owner_of(src) != cluster.owner_of(dst) {
                moved_rows += bucket.rows() as u64;
                moved_bytes += bucket_bytes;
            }
            parts[dst].absorb(bucket);
            if let Some(g) = governor {
                g.tracker().charge(bucket_bytes);
                charged[dst] += bucket_bytes;
                total_charged += bucket_bytes;
                if g.tracker().over_budget() && parts[dst].rows() > 0 {
                    let dir = g.spill_dir()?;
                    let first_write = !spilled[dst];
                    let written = parts[dst].spill(&dir, &spill_name(dst))?;
                    g.tracker().release(charged[dst]);
                    total_charged -= charged[dst];
                    charged[dst] = 0;
                    spilled[dst] = true;
                    g.note_spill(written, u64::from(first_write));
                    Metrics::add(&cluster.metrics.spilled_bytes, written);
                    Metrics::add(&cluster.metrics.spill_files, u64::from(first_write));
                    if let Some(s) = sink {
                        s.record_recovery(RecoveryEvent {
                            kind: RecoveryKind::Spill,
                            stage: format!("{label} read"),
                            round: 0,
                            detail: format!("partition {dst} spilled {written} B"),
                        });
                    }
                }
            }
        }
    }
    // Merge spilled prefixes back: the spill file holds each dst's
    // earliest rows (in arrival order); rows still in memory arrived
    // after the last spill, so spilled ++ in-memory reproduces the
    // unbounded gather exactly.
    if let Some(g) = governor {
        for (dst, part) in parts.iter_mut().enumerate() {
            if spilled[dst] {
                part.unspill(g.spill_dir()?.take_rows(&spill_name(dst))?);
            }
        }
        // The gather's transient charges end with the function; the
        // returned dataset's footprint is the consumer's to account.
        g.tracker().release(total_charged);
    }
    Metrics::add(&cluster.metrics.shuffle_rows, moved_rows);
    Metrics::add(&cluster.metrics.shuffle_bytes, moved_bytes);
    if let Some(sink) = sink {
        // The gather runs on the driver, so the whole exchange is "run"
        // time — there is no dispatch or barrier component.
        let us = t_read.elapsed().as_micros() as u64;
        sink.record_stage(StageSpan {
            label: format!("{label} read"),
            kind: StageKind::ShuffleRead,
            tasks: n as u64,
            attempts: n as u64,
            dispatch_us: 0,
            run_us: us,
            barrier_us: 0,
            total_us: us,
        });
    }
    Ok(parts)
}

/// A map-side combine function over lane tuples: [`RowCombiner`]'s
/// counterpart for a [`LaneDataset`]'s shuffle.
pub type LaneCombiner = Arc<dyn Fn(&[&[u64]]) -> Tuples + Send + Sync>;

/// One partition of a [`LaneDataset`]: runs of shared lane batches, in
/// order — a scan's range of a clique's converged partitions, or what a
/// stage made of one. Cloning shares the batches.
#[derive(Clone, Default)]
pub struct LanePart {
    runs: Vec<(Arc<Tuples>, Range<usize>)>,
}

impl From<Tuples> for LanePart {
    fn from(tuples: Tuples) -> Self {
        let range = 0..tuples.len();
        LanePart {
            runs: vec![(Arc::new(tuples), range)],
        }
    }
}

impl LanePart {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(_, r)| r.len()).sum()
    }

    /// True if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The runs, as blocks, in order.
    pub fn blocks(&self) -> impl Iterator<Item = Block<'_, u64>> + '_ {
        self.runs.iter().map(|(t, r)| t.block(r.clone()))
    }

    /// The runs, each a batch and the range of it this partition holds.
    pub fn runs(&self) -> impl Iterator<Item = (&Tuples, Range<usize>)> + '_ {
        self.runs.iter().map(|(t, r)| (&**t, r.clone()))
    }

    /// Every tuple as a row, in order.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len());
        self.append_rows(&mut rows);
        rows
    }

    /// Append every tuple to `rows` as a row, in order; a batch nobody else
    /// holds is dropped as soon as its rows are built.
    fn append_rows(self, rows: &mut Vec<Row>) {
        for (tuples, range) in self.runs {
            rows.extend(range.map(|i| tuples.row(i)));
        }
    }
}

impl Remote for LanePart {
    fn bytes(&self) -> u64 {
        self.blocks()
            .map(|b| (16 + 8 * b.arity() as u64) * b.len() as u64)
            .sum()
    }
    /// The tuples in one batch of their own.
    fn copied(&self) -> LanePart {
        let Some((first, _)) = self.runs.first() else {
            return LanePart::default();
        };
        let mut out = Tuples::new(Arc::clone(first.kinds()));
        self.blocks()
            .for_each(|b| b.iter().for_each(|t| out.push(t)));
        LanePart::from(out)
    }
}

impl Bucket for LanePart {
    fn with_capacity(_: usize) -> Self {
        LanePart::default()
    }
    fn rows(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> u64 {
        Remote::bytes(self)
    }
    fn absorb(&mut self, other: Self) {
        self.runs
            .extend(other.runs.into_iter().filter(|(_, r)| !r.is_empty()));
    }
    fn spill(&mut self, dir: &SpillDir, name: &str) -> Result<u64, ExecError> {
        dir.append_rows(name, &std::mem::take(self).into_rows())
    }
    fn unspill(&mut self, spilled: Vec<Row>) {
        // Spilled rows were lane tuples: each value is its lane's variant.
        let Some(first) = spilled.first() else {
            return;
        };
        let lanes = first.values().iter().map(|v| match v {
            Value::Double(_) => Lane::Double,
            _ => Lane::Int,
        });
        let mut tuples = Tuples::new(lanes.collect());
        for row in &spilled {
            #[expect(
                clippy::expect_used,
                reason = "a row this exchange built from lane tuples fits its lanes"
            )]
            tuples
                .push_values(row.values())
                .expect("spilled lane tuple");
        }
        let tail = std::mem::replace(self, LanePart::from(tuples));
        self.absorb(tail);
    }
}

/// A partitioned collection of lane tuples — the form a clique's word or
/// kernel result keeps through the final plan's scans, filters,
/// projections and aggregate shuffles, until an operator with no lane form
/// or the answer turns it into rows. Counters and stage spans are those of
/// the same [`Dataset`] operation over the equivalent rows.
#[derive(Clone)]
pub struct LaneDataset {
    /// The lanes of the tuples' columns.
    pub lanes: Arc<[Lane]>,
    /// Partition data.
    pub partitions: Vec<LanePart>,
}

impl LaneDataset {
    /// Scan batches in place: `n` contiguous partitions over their
    /// concatenation, split where [`Dataset::scan`] splits a relation of
    /// the same rows. No tuple is copied.
    pub fn scan(lanes: Arc<[Lane]>, batches: &[Arc<Tuples>], n: usize) -> Self {
        let len: usize = batches.iter().map(|b| b.len()).sum();
        let mut partitions: Vec<LanePart> = (0..n).map(|_| LanePart::default()).collect();
        // The batches' first global indices, then each partition's share.
        let mut at = 0;
        for batch in batches {
            let (lo, hi) = (at, at + batch.len());
            at = hi;
            for (p, part) in partitions.iter_mut().enumerate() {
                let (start, end) = ((p * len / n).max(lo), ((p + 1) * len / n).min(hi));
                if start < end {
                    part.runs.push((Arc::clone(batch), start - lo..end - lo));
                }
            }
        }
        LaneDataset { lanes, partitions }
    }

    /// Total tuple count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(LanePart::len).sum()
    }

    /// True if all partitions are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the equivalent rows.
    pub fn size_bytes(&self) -> u64 {
        self.partitions.iter().map(Remote::bytes).sum()
    }

    /// Every partition's runs in one partition, on the driver: what
    /// [`Dataset::single`] of the gathered rows is, with no tuple copied.
    pub fn gathered(self) -> Self {
        let runs = self.partitions.into_iter().flat_map(|p| p.runs);
        LaneDataset {
            lanes: self.lanes,
            partitions: vec![LanePart {
                runs: runs.collect(),
            }],
        }
    }

    /// The equivalent row dataset, partition by partition: no partitioning
    /// guarantee, like a scan's or a stage's output.
    pub fn into_dataset(self) -> Dataset {
        let n = self.partitions.len();
        let parts = self.partitions.into_iter().map(LanePart::into_rows);
        Dataset::from_partitions(parts.collect(), Partitioning::Unknown { partitions: n })
    }

    /// Every tuple as a row, partition by partition.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len());
        self.partitions
            .into_iter()
            .for_each(|part| part.append_rows(&mut rows));
        rows
    }

    /// [`Dataset::fold_partitions_traced`] over lane partitions: one
    /// labelled stage, a task per partition, a charged deep copy for a task
    /// that runs away from its partition's home.
    pub fn fold_partitions_traced<R: Send + 'static>(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        f: impl Fn(usize, &LanePart) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, ExecError> {
        fold_stage(cluster, sink, label, &self.partitions, f)
    }

    /// [`Dataset::shuffle_combined_traced`] over lane tuples: the same write
    /// stage (one task per source partition, the combiner run per target
    /// bucket), the same exchange, and the same counters — rows, row bytes
    /// and combined rows as the equivalent rows would count them.
    #[allow(clippy::too_many_arguments)]
    pub fn shuffle_combined_traced(
        &self,
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        label: &str,
        key: &[usize],
        n: usize,
        combiner: Option<&LaneCombiner>,
        governor: Option<&QueryGovernor>,
    ) -> Result<LaneDataset, ExecError> {
        if let Some(g) = governor {
            g.check()?;
        }
        let tasks: Vec<StageTask<Vec<LanePart>>> = (self.partitions.iter().enumerate())
            .map(|(p, part)| {
                let (part, lanes, key) = (part.clone(), Arc::clone(&self.lanes), key.to_vec());
                let combiner = combiner.cloned();
                let metrics = Arc::clone(&cluster.metrics);
                StageTask::new(cluster.owner_of(p), move |_w| {
                    let mut lent: Vec<Vec<&[u64]>> = (0..n).map(|_| Vec::new()).collect();
                    for t in part.blocks().flat_map(|b| b.iter()) {
                        lent[lane_partition(&lanes, t, &key, n)].push(t);
                    }
                    let bucket = |tuples: &[&[u64]]| match &combiner {
                        Some(combine) => combine(tuples),
                        None => {
                            let mut out = Tuples::new(Arc::clone(&lanes));
                            tuples.iter().for_each(|t| out.push(t));
                            out
                        }
                    };
                    let out: Vec<Tuples> = lent.iter().map(|b| bucket(b)).collect();
                    let before = lent.iter().map(Vec::len).sum::<usize>();
                    let after = out.iter().map(Tuples::len).sum::<usize>();
                    Metrics::add(&metrics.combined_rows, (before - after) as u64);
                    out.into_iter().map(LanePart::from).collect()
                })
            })
            .collect();
        let write = format!("{label} write");
        let buckets = cluster.run_stage_traced(sink, &write, StageKind::ShuffleWrite, tasks)?;
        let partitions = exchange(cluster, sink, label, buckets, n, self.len(), governor)?;
        Ok(LaneDataset {
            lanes: Arc::clone(&self.lanes),
            partitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use rasql_storage::row::int_row;

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| int_row(&[i, i * 10])).collect()
    }

    #[test]
    fn hash_partitioning_groups_keys() {
        let d = Dataset::hash_partitioned(rows(100), &[0], 4);
        assert_eq!(d.len(), 100);
        // Every row in partition p hashes to p.
        for (p, part) in d.partitions.iter().enumerate() {
            for r in part.iter() {
                assert_eq!(row_partition(r, &[0], 4), p);
            }
        }
    }

    #[test]
    fn shuffle_repartitions_correctly() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let d = Dataset::round_robin(rows(50), 4);
        let s = d.shuffle(&c, &[1], 4).unwrap();
        assert_eq!(s.len(), 50);
        assert!(s.partitioning.satisfies_hash(&[1], 4));
        assert!(c.metrics.snapshot().shuffle_rows > 0);
    }

    #[test]
    fn shuffle_if_needed_is_noop_when_satisfied() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let d = Dataset::hash_partitioned(rows(10), &[0], 4);
        let before = c.metrics.snapshot().shuffle_rows;
        let s = d.shuffle_if_needed(&c, &[0], 4).unwrap();
        assert_eq!(c.metrics.snapshot().shuffle_rows, before);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn map_partitions_applies_per_partition() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let d = Dataset::hash_partitioned(rows(20), &[0], 4);
        let doubled = d
            .map_partitions(&c, |_p, part| {
                part.iter()
                    .map(|r| int_row(&[r[0].as_int().unwrap() * 2]))
                    .collect()
            })
            .unwrap();
        assert_eq!(doubled.len(), 20);
        let mut all: Vec<i64> = doubled
            .collect()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn non_aware_scheduling_pays_remote_fetches() {
        let aware = Cluster::new(ClusterConfig {
            workers: 4,
            partition_aware: true,
            ..Default::default()
        });
        let drift = Cluster::new(ClusterConfig {
            workers: 4,
            partition_aware: false,
            ..Default::default()
        });
        let d = Dataset::hash_partitioned(rows(100), &[0], 8);
        d.map_partitions(&aware, |_p, part| part.to_vec()).unwrap();
        d.map_partitions(&drift, |_p, part| part.to_vec()).unwrap();
        assert_eq!(aware.metrics.snapshot().remote_fetch_bytes, 0);
        assert!(drift.metrics.snapshot().remote_fetch_bytes > 0);
    }

    #[test]
    fn scan_shares_the_relation_buffer() {
        let rel = Relation::edges(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let buf = Arc::clone(rel.shared_rows());
        let before = Arc::strong_count(&buf);
        let d = Dataset::scan(&rel, 3);
        // One more reference per partition, and every view points into the
        // relation's own rows: nothing was allocated or copied.
        assert_eq!(Arc::strong_count(&buf), before + 3);
        let mut at = rel.rows().as_ptr();
        for part in &d.partitions {
            assert_eq!(part.as_ptr(), at);
            at = at.wrapping_add(part.len());
        }
        // An unfiltered scan materializes back into the same buffer.
        let back = d.into_relation(rel.schema().clone());
        assert!(Arc::ptr_eq(back.shared_rows(), &buf));
    }

    #[test]
    fn scan_partitions_are_contiguous_and_cover_every_row_once() {
        for len in [0i64, 1, 2, 5, 6, 7, 20] {
            let rel = Relation::new_unchecked(
                Relation::edges(&[]).schema().clone(),
                (0..len).map(|i| int_row(&[i, i])).collect(),
            );
            for n in [1usize, 2, 3, 7] {
                let d = Dataset::scan(&rel, n);
                assert_eq!(d.num_partitions(), n);
                // Table order, each row exactly once.
                assert_eq!(d.collect(), rel.rows(), "len {len} n {n}");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = d.partitions.iter().map(|p| p.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "len {len} n {n}: {sizes:?}");
            }
        }
    }

    #[test]
    fn into_rows_moves_when_unique_and_clones_when_shared() {
        // Unique and whole: the rows' own value allocations move out.
        let d = Dataset::single(rows(4));
        let first = d.partitions[0][0].values().as_ptr();
        assert_eq!(d.into_rows()[0].values().as_ptr(), first);
        // Shared (the relation still holds the buffer): cloned, source intact.
        let rel = Relation::edges(&[(1, 2), (2, 3)]);
        let got = Dataset::scan(&rel, 1).into_rows();
        assert_ne!(got[0].values().as_ptr(), rel.rows()[0].values().as_ptr());
        assert_eq!(got, rel.rows());
        // A partial view of a unique buffer also clones: only its range.
        let part = Partition::view(Arc::new(rows(6)), 2..4);
        assert_eq!(part.into_rows(), rows(6)[2..4]);
    }

    #[test]
    fn remote_read_of_a_scan_is_still_a_charged_copy() {
        let drift = Cluster::new(ClusterConfig {
            workers: 4,
            partition_aware: false,
            ..Default::default()
        });
        let rel = Relation::edges(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
        let d = Dataset::scan(&rel, 4);
        let owner = drift.owner_of(0);
        let local = d.read_partition(&drift, 0, owner);
        assert_eq!(local.as_ptr(), d.partitions[0].as_ptr());
        assert_eq!(drift.metrics.snapshot().remote_fetch_bytes, 0);
        let remote = d.read_partition(&drift, 0, (owner + 1) % 4);
        assert_ne!(remote.as_ptr(), d.partitions[0].as_ptr());
        assert_eq!(&*remote, &*d.partitions[0]);
        let bytes: usize = d.partitions[0].iter().map(Row::size_bytes).sum();
        assert_eq!(drift.metrics.snapshot().remote_fetch_bytes, bytes as u64);
        d.map_partitions(&drift, |_p, part| part.to_vec()).unwrap();
        assert!(drift.metrics.snapshot().remote_fetch_bytes > bytes as u64);
    }

    #[test]
    fn collect_round_trip() {
        let d = Dataset::hash_partitioned(rows(30), &[0], 4);
        let mut got = d.collect();
        got.sort_unstable();
        let mut want = rows(30);
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
