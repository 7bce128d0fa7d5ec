use super::*;

// --------------------------------------------------------------------
// The two tuple representations
// --------------------------------------------------------------------

/// What the interpreter needs from a tuple representation beyond its
/// containers ([`Cell`]): how a branch's expressions become evaluators, and
/// which evaluation paths only it has. `u64` is word lanes, [`Value`] is rows.
pub(super) trait Repr: Cell {
    /// The representation's name in the trace (`tuples=`).
    const TUPLES: &'static str;

    /// Whether cliques may run on it under this configuration.
    fn runs(config: &EngineConfig) -> bool;

    /// A filter over tuples whose columns have the `input` kinds (`None`: a
    /// column the tuple does not carry); `None` to decline the clique.
    fn pred(e: &PExpr, input: &[Option<Self::Kind>]) -> Option<PredFn<Self>>;

    /// A probe-key extractor, with the kinds of the key cells it appends.
    fn key(keys: &[PExpr], input: &[Option<Self::Kind>]) -> Option<ProbeKey<Self>>;

    /// The projection to a tuple of the `target` kinds.
    fn emit(
        exprs: Vec<PExpr>,
        input: &[Option<Self::Kind>],
        target: &[Self::Kind],
    ) -> Option<Projection<Self>>;

    /// Run the branch on an evaluation path other than the fused pipeline,
    /// if this run is on one; false if it is not.
    fn run_apart(
        _b: &CompiledBranch<Self>,
        _io: &mut impl BranchIo<Self>,
        _at: &BranchAt<'_, Self>,
    ) -> Result<bool, Escaped> {
        Ok(false)
    }

    /// The views of a resident state held in this representation; `None`
    /// when it is held in the other one.
    fn lent(state: &CliqueState) -> Option<&[ResidentView<Self>]>;

    /// A resident state of views held in this representation.
    fn resident(views: Vec<ResidentView<Self>>) -> CliqueState;

    /// A view's result from its partitions' tuples, taken one at a time.
    fn view_data(
        schema: &Schema,
        kinds: &Arc<[Self::Kind]>,
        parts: impl Iterator<Item = Tuples<Self>>,
    ) -> ViewData;

    /// The layout of the index store's co-partitioned entry a join of this
    /// shape probes.
    fn layout(partitions: usize, join: &JoinShape<Self>) -> IndexLayout;

    /// The partition tables of an index of that layout.
    fn parts(index: Index) -> Option<Vec<Arc<Self::Table>>>;

    /// A per-query build side of a plan's output rows (a seed's overlay, the
    /// master copy of an uncompressed broadcast).
    fn rows_table(rows: &[Row], join: &JoinShape<Self>) -> Result<Self::Table, Escaped>;

    /// A worker's copy of a compressed broadcast (§7.2), decoded from the
    /// payload.
    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<Self>,
    ) -> Result<Self::Table, Escaped>;

    /// A snapshot of a recursive relation's tuples.
    fn tuples_table(tuples: &Tuples<Self>, join: &JoinShape<Self>) -> Result<Self::Table, Escaped>;
}

/// A seed branch of a resumed run, its recursive build sides' snapshots, and
/// the delta rows its changed build side holds.
pub(super) type SeedRun<C> = (CompiledBranch<C>, Vec<Snapshot<C>>, Relation);

/// A probe-key extractor and the kinds of the key cells it appends.
type ProbeKey<C> = (KeyFn<C>, Arc<[<C as Cell>::Kind]>);

/// What a join takes of its build side: the build key columns, the kinds of
/// the probe's key cells, and per build column the kind a match is read in
/// (`None`: nothing downstream reads it).
#[derive(Clone)]
pub(super) struct JoinShape<C: Cell> {
    pub(super) keys: Vec<usize>,
    pub(super) key_kinds: Arc<[C::Kind]>,
    pub(super) read: Arc<[Option<C::Kind>]>,
}

impl JoinShape<u64> {
    fn words(&self) -> WordShape {
        WordShape::new(&self.keys, &self.key_kinds, &self.read)
    }
}

/// Rows: any column type, every configuration — including the paper's
/// ablation axes (naive evaluation, sort-merge joins, unfused operators).
impl Repr for Value {
    const TUPLES: &'static str = "rows";

    fn runs(_: &EngineConfig) -> bool {
        true
    }

    fn lent(state: &CliqueState) -> Option<&[ResidentView<Value>]> {
        match &state.views {
            Held::Rows(views) => Some(views),
            Held::Words(_) => None,
        }
    }

    fn resident(views: Vec<ResidentView<Value>>) -> CliqueState {
        CliqueState {
            views: Held::Rows(views),
            kept_order: true,
        }
    }

    /// Rows, built a partition at a time.
    fn view_data(
        schema: &Schema,
        _: &Arc<[()]>,
        parts: impl Iterator<Item = Tuples<Value>>,
    ) -> ViewData {
        let mut rows = Vec::new();
        for part in parts {
            rows.reserve(part.len());
            rows.extend((0..part.len()).map(|i| part.row(i)));
        }
        ViewData::Rows(Arc::new(Relation::new_unchecked(schema.clone(), rows)))
    }

    fn layout(partitions: usize, _: &JoinShape<Value>) -> IndexLayout {
        IndexLayout::Hash { partitions }
    }

    fn parts(index: Index) -> Option<Vec<Arc<HashTable>>> {
        match index {
            Index::Hash(index) => Some(index.parts().to_vec()),
            _ => None,
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a per-query build side: a seed's delta overlay or a broadcast's master copy"
    )]
    fn rows_table(rows: &[Row], join: &JoinShape<Value>) -> Result<HashTable, Escaped> {
        Ok(HashTable::build(rows, &join.keys))
    }

    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<Value>,
    ) -> Result<HashTable, Escaped> {
        #[expect(
            clippy::expect_used,
            reason = "round-tripping a payload this pass just compressed"
        )]
        let rows = payload.decompress().expect("own payload");
        Self::rows_table(&rows, join)
    }

    fn tuples_table(tuples: &Tuples<Value>, join: &JoinShape<Value>) -> Result<HashTable, Escaped> {
        Self::rows_table(&tuples.to_rows(), join)
    }

    fn pred(e: &PExpr, _: &[Option<()>]) -> Option<PredFn> {
        let e = e.clone();
        Some(Arc::new(move |t: &[Value]| Ok(e.eval_vals(t).is_truthy())))
    }

    fn key(keys: &[PExpr], _: &[Option<()>]) -> Option<ProbeKey<Value>> {
        let kinds = vec![(); keys.len()].into();
        let keys = keys.to_vec();
        let key: KeyFn = Arc::new(move |t: &[Value], k: &mut Vec<Value>| {
            k.extend(keys.iter().map(|e| e.eval_vals(t)));
            Ok(())
        });
        Some((key, kinds))
    }

    fn emit(exprs: Vec<PExpr>, _: &[Option<()>], _: &[()]) -> Option<Projection> {
        Some(crate::eval::projection(exprs))
    }

    /// A leading sort-merge join (if any) is executed eagerly over
    /// materialized rows; the remaining operators run as a fused or — the
    /// §7.3 ablation — unfused pipeline.
    fn run_apart(
        b: &CompiledBranch<Value>,
        io: &mut impl BranchIo<Value>,
        at: &BranchAt<'_, Value>,
    ) -> Result<bool, Escaped> {
        let sorted = |op: &CompiledOp<Value>| {
            matches!(
                op,
                CompiledOp::Join(CompiledStep {
                    build: BuildSide::PartitionedSorted(_),
                    ..
                })
            )
        };
        if at.fused && !b.ops.iter().any(sorted) {
            return Ok(false);
        }
        let (tuples, range) = io.input();
        let mut current: Vec<Row> = range.map(|i| Row::from_slice(tuples.get(i))).collect();
        let mut start = 0usize;
        for (i, op) in b.ops.iter().enumerate() {
            match op {
                // Only pre-execute filters that precede a sort-merge join.
                CompiledOp::Filter(keep) if b.ops[i..].iter().any(sorted) => {
                    let mut kept = Ok(());
                    current.retain(|r| {
                        keep(r.values()).unwrap_or_else(|e| {
                            kept = Err(e);
                            false
                        })
                    });
                    kept?;
                    start = i + 1;
                }
                CompiledOp::Join(CompiledStep {
                    build: BuildSide::PartitionedSorted(runs),
                    stream_keys,
                    ..
                }) => {
                    let probe_cols: Vec<usize> = stream_keys
                        .iter()
                        .map(|e| match e {
                            PExpr::Col(c) => *c,
                            _ => unreachable!("co-partitioned keys are plain columns"),
                        })
                        .collect();
                    let mut out = Vec::new();
                    merge_join(&mut current, &probe_cols, &runs[at.part], |r| out.push(r));
                    current = out;
                    start = i + 1;
                }
                _ => break,
            }
        }
        let pipeline = b.pipeline(start, at);
        if at.fused {
            let rows = &current[..];
            run_blocks(&pipeline, io, 0..rows.len(), |_, s, block| {
                pipeline.run_block(s, rows, block)
            })?;
            return Ok(true);
        }
        let rows = run_unfused_rows(current, &pipeline);
        let mut cells = Vec::new();
        for chunk in rows.chunks(BLOCK) {
            cells.clear();
            chunk
                .iter()
                .for_each(|r| cells.extend_from_slice(r.values()));
            io.emit_block(Block::new(&cells, cells.len() / chunk.len(), chunk.len()))?;
        }
        Ok(true)
    }
}

/// Word lanes: every expression is compiled against the lanes of its input
/// (`PExpr::compile_words`), so a derivation reads, computes and writes
/// plain `u64` cells. Selected under the condition the kernels use —
/// semi-naive evaluation, hash joins, fused code generation — so the
/// paper's ablation axes keep measuring the row interpreter.
impl Repr for u64 {
    const TUPLES: &'static str = "words";

    fn runs(config: &EngineConfig) -> bool {
        config.eval_mode == EvalMode::SemiNaive
            && config.join == JoinStrategy::ShuffleHash
            && config.fused_codegen
    }

    fn lent(state: &CliqueState) -> Option<&[ResidentView<u64>]> {
        match &state.views {
            Held::Words(views) => Some(views),
            Held::Rows(_) => None,
        }
    }

    fn resident(views: Vec<ResidentView<u64>>) -> CliqueState {
        CliqueState {
            views: Held::Words(views),
            kept_order: true,
        }
    }

    /// The partitions' lane batches as they are: no row is built.
    fn view_data(
        schema: &Schema,
        lanes: &Arc<[Lane]>,
        parts: impl Iterator<Item = Tuples<u64>>,
    ) -> ViewData {
        ViewData::Lanes {
            schema: schema.clone(),
            lanes: Arc::clone(lanes),
            batches: parts.map(Arc::new).collect(),
        }
    }

    fn layout(partitions: usize, join: &JoinShape<u64>) -> IndexLayout {
        IndexLayout::Words {
            partitions,
            lanes: join.key_kinds.to_vec(),
            read: join.read.to_vec(),
        }
    }

    fn parts(index: Index) -> Option<Vec<Arc<WordTable>>> {
        match index {
            Index::Words(index) => Some(index.parts().to_vec()),
            _ => None,
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a per-query build side: a seed's delta overlay or a broadcast's master copy"
    )]
    fn rows_table(rows: &[Row], join: &JoinShape<u64>) -> Result<WordTable, Escaped> {
        WordTable::from_rows(join.words(), rows)
    }

    /// Straight from the payload's column lanes into cells: no row is built
    /// per decompressed edge or per hashed edge.
    #[expect(
        clippy::disallowed_methods,
        reason = "the broadcast models the network: every worker builds its copy"
    )]
    fn payload_table(
        payload: &CompressedRelation,
        join: &JoinShape<u64>,
    ) -> Result<WordTable, Escaped> {
        #[expect(
            clippy::expect_used,
            reason = "round-tripping a payload this pass just compressed"
        )]
        let batch = payload.decompress_lanes().expect("own payload");
        WordTable::from_batch(join.words(), &batch)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a snapshot of a recursive relation's own tuples, not of base data"
    )]
    fn tuples_table(tuples: &Tuples<u64>, join: &JoinShape<u64>) -> Result<WordTable, Escaped> {
        WordTable::from_tuples(join.words(), tuples.kinds(), tuples.iter())
    }

    fn pred(e: &PExpr, input: &[Option<Lane>]) -> Option<PredFn<u64>> {
        word_pred(e, input)
    }

    fn key(keys: &[PExpr], input: &[Option<Lane>]) -> Option<ProbeKey<u64>> {
        let keys = word_exprs(keys, input)?;
        let lanes = keys.iter().map(|&(_, lane)| lane).collect();
        // The probed table is keyed on these lanes: the key is the words.
        let key: KeyFn<u64> = Arc::new(move |t: &[u64], k: &mut Vec<u64>| {
            for (e, _) in &keys {
                k.push(e.eval_cells(t)?);
            }
            Ok(())
        });
        Some((key, lanes))
    }

    fn emit(exprs: Vec<PExpr>, input: &[Option<Lane>], target: &[Lane]) -> Option<Projection<u64>> {
        let (projection, lanes) = word_projection(&exprs, input)?;
        // A column whose static type is not its target's lane would store
        // another variant than the row path does.
        (*lanes == *target).then_some(projection)
    }
}

/// A filter compiled against `input` lanes.
pub(crate) fn word_pred(e: &PExpr, input: &[Option<Lane>]) -> Option<PredFn<u64>> {
    let e = e.compile_words(input)?;
    (e.ty() == WordType::Bool)
        .then(|| -> PredFn<u64> { Arc::new(move |t| Ok(e.eval_cells(t)? == 1)) })
}

/// The projection to `exprs` compiled against `input` lanes, with the lanes
/// of its output.
pub(crate) fn word_projection(
    exprs: &[PExpr],
    input: &[Option<Lane>],
) -> Option<(Projection<u64>, Arc<[Lane]>)> {
    let exprs = word_exprs(exprs, input)?;
    let lanes = exprs.iter().map(|&(_, lane)| lane).collect();
    // A projection that only copies columns — every set view's.
    let cols: Option<Vec<usize>> = exprs.iter().map(|(e, _)| e.column()).collect();
    let projection = match cols {
        Some(cols) => Projection::Columns(cols.into()),
        None => Projection::Map(Arc::new(move |t: &[u64], out: &mut Vec<u64>| {
            for (e, _) in &exprs {
                out.push(e.eval_cells(t)?);
            }
            Ok(())
        })),
    };
    Some((projection, lanes))
}

/// Each expression compiled against `input`, with the lane of its result.
fn word_exprs(exprs: &[PExpr], input: &[Option<Lane>]) -> Option<Vec<(WordExpr, Lane)>> {
    let typed = exprs.iter().map(|e| {
        let e = e.compile_words(input)?;
        let lane = e.ty().lane()?;
        Some((e, lane))
    });
    typed.collect()
}
