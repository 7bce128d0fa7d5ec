use super::*;

impl<'a> FixpointExecutor<'a> {
    // ----------------------------------------------------------------
    // Specialized fixpoint kernels (§7.3): CSR broadcast + dense state
    // ----------------------------------------------------------------

    /// Try to evaluate the clique on the monomorphized kernel selected by
    /// [`select_kernel`]. Returns `Ok(None)` when the *data* disagrees with
    /// the statically selected shape (a non-`Int` vertex id, a mistyped
    /// aggregate value or edge weight, checked before any kernel state
    /// exists; an `Int` sum that leaves `i64`, found mid-run) — the caller
    /// then falls back to the generic interpreter, which re-evaluates the
    /// base and build plans.
    pub(super) fn run_specialized(
        &self,
        spec: &FixpointSpec,
        kp: &KernelPlan,
    ) -> Result<Option<FixpointResult>, EngineError> {
        let v = &spec.views[0];
        // `None`: the base case is the graph's sources, read off the graph.
        let seeds = if seeds_off_graph(v, kp) {
            None
        } else {
            let Some(seeds) = self.kernel_seeds(v, kp)? else {
                return Ok(None);
            };
            Some(seeds)
        };
        let Some(graph) = self.kernel_graph(kp, seeds.as_deref())? else {
            return Ok(None);
        };
        match (kp.op, kp.scalar) {
            (KernelOp::Set, _) => {
                let along = |_: u32, _: &[i64], _: usize, dst: u32| Ok(dst);
                self.run_dense::<DenseSetState, (), i64, _>(v, kp, graph, along)
            }
            (KernelOp::Min, KernelScalar::I64) => self.run_kernel_agg::<i64, MinOp>(v, kp, graph),
            (KernelOp::Min, KernelScalar::F64) => self.run_kernel_agg::<f64, MinOp>(v, kp, graph),
            (KernelOp::Max, KernelScalar::I64) => self.run_kernel_agg::<i64, MaxOp>(v, kp, graph),
            (KernelOp::Max, KernelScalar::F64) => self.run_kernel_agg::<f64, MaxOp>(v, kp, graph),
            (KernelOp::Sum, _) => self.run_kernel_agg::<i64, SumOp>(v, kp, graph),
        }
    }

    /// The view's base case as typed seeds — `(vertex key, aggregate bits)`,
    /// in first-occurrence order — streamed out of the base plans with no row
    /// built for a tuple; `None` when a tuple is not of the kernel's types.
    /// Base branches combine by set UNION: each input partition drops its own
    /// exact duplicates, which is all `min`/`max`/set need (they are
    /// idempotent); `sum` would see a duplicate, so its seeds are also
    /// deduplicated across partitions and branches.
    fn kernel_seeds(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
    ) -> Result<Option<Vec<(i64, u64)>>, EngineError> {
        let (key_col, agg) = (kp.key_col, kp.agg_col.map(|c| (c, kp.scalar)));
        let mut seeds: Vec<(i64, u64)> = Vec::new();
        for plan in &v.base {
            let folds = self.eval().fold_partitions(
                plan,
                "kernel seeds",
                move |f: &mut SeedFold, tuple| {
                    f.push_seed(tuple, key_col, agg);
                },
            )?;
            for fold in folds {
                if fold.mistyped {
                    return Ok(None);
                }
                seeds.extend(fold.seeds);
            }
        }
        if kp.op == KernelOp::Sum {
            let mut seen = FxHashSet::default();
            seeds.retain(|s| seen.insert(*s));
        }
        Ok(Some(seeds))
    }

    /// The clique's CSR graph — the index store's entry for the build plan,
    /// lent, advanced by the edges inserted since, or built — with the seeds
    /// resolved to its dense ids (one `remap` lookup per seed; `None`: the
    /// seeds are read off the graph). The store keeps the graph of the edge
    /// rows alone: seed vertices get their dense ids after every edge
    /// endpoint, so that one entry serves every seed list drawn from the
    /// graph's own vertices, and a list that adds a vertex gets a private
    /// extension of it (typed arrays moved, no row read). The entry is keyed
    /// on the promoted weight (`CsrWeight::promoted`). `None` when the edge
    /// rows are not of the kernel's types — for a kernel that does not
    /// promote, when the graph widened an `Int` weight.
    fn kernel_graph(
        &self,
        kp: &KernelPlan,
        seeds: Option<&[(i64, u64)]>,
    ) -> Result<Option<KernelGraph>, EngineError> {
        let p = self.config().partitions;
        let weight = kp.weight.promoted();
        let layout = IndexLayout::Csr {
            src: kp.src_col,
            dst: kp.dst_col,
            weight,
            partitions: p,
        };
        let Some((Index::Csr(shared), at)) =
            (self.eval()).fetch_versioned(&kp.build, &[kp.src_col], layout, true)?
        else {
            return Ok(None);
        };
        // `least()` over an `Int` weight is not what an `f64` slab computes.
        if weight != kp.weight && shared.widened_int() {
            return Ok(None);
        }
        let graph = |csr, seeds| KernelGraph {
            csr,
            seeds,
            stored: Arc::clone(&shared),
            at: at.clone(),
        };
        let Some(seeds) = seeds else {
            return Ok(Some(graph(Arc::clone(&shared), None)));
        };
        let resolve = |g: &CsrGraph| -> Option<DenseSeeds> {
            seeds
                .iter()
                .map(|&(k, bits)| Some((g.dense_id(k)?, bits)))
                .collect()
        };
        if let Some(dense) = resolve(&shared) {
            return Ok(Some(graph(Arc::clone(&shared), Some(dense))));
        }
        let extras = seeds.iter().map(|s| s.0);
        let Some(seeded) = shared.extended(&[], kp.src_col, kp.dst_col, weight, extras, p) else {
            return Ok(None);
        };
        Ok(resolve(&seeded).map(|dense| graph(Arc::new(seeded), Some(dense))))
    }

    /// The aggregate kernels: [`FixpointExecutor::run_dense`] over
    /// [`DenseAggState`], carrying the plan's per-edge transform.
    fn run_kernel_agg<T, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        graph: KernelGraph,
    ) -> Result<Option<FixpointResult>, EngineError>
    where
        T: KernelValue,
        Op: MergeOp<T>,
    {
        if kp.agg_col.is_none() {
            // A planner bug, not a data mismatch — but falling back to the
            // interpreter is strictly safer than panicking mid-query.
            return Ok(None);
        }
        // One monomorphized walk per edge transform: no `Value` dispatch and
        // no branch on the transform inside the loop. A sum that leaves `i64`
        // abandons the run (`KernelValue::add`).
        type Item<T> = (u32, T);
        match &kp.edge_fn {
            KernelEdgeFn::Identity => self.run_dense::<DenseAggState<T>, Op, T, _>(
                v,
                kp,
                graph,
                |(_, val): Item<T>, _: &[T], _, dst| Ok((dst, val)),
            ),
            KernelEdgeFn::AddWeight => self.run_dense::<DenseAggState<T>, Op, T, _>(
                v,
                kp,
                graph,
                |(_, val): Item<T>, ws: &[T], e, dst| {
                    T::add(val, ws[e]).map(|c| (dst, c)).ok_or(Escaped)
                },
            ),
            KernelEdgeFn::AddConst(lit) => {
                let Some(add) = T::from_const(lit) else {
                    return Ok(None);
                };
                self.run_dense::<DenseAggState<T>, Op, T, _>(
                    v,
                    kp,
                    graph,
                    move |(_, val): Item<T>, _: &[T], _, dst| {
                        T::add(val, add).map(|c| (dst, c)).ok_or(Escaped)
                    },
                )
            }
            KernelEdgeFn::MinWeight => self.run_dense::<DenseAggState<T>, Op, T, _>(
                v,
                kp,
                graph,
                |(_, val): Item<T>, ws: &[T], e, dst| {
                    Ok((dst, if T::lt(ws[e], val) { ws[e] } else { val }))
                },
            ),
        }
    }

    /// A kernel-selected clique, dense from its seeds to its result: bucket
    /// the seeds or read them off the graph, broadcast the graph once, drive
    /// [`Dense`] to the fixpoint and write each slab's `(Int id, value)`
    /// lanes. `along(item, weights, edge index, destination)` — the
    /// contribution an edge of weight `weights[edge index]` carries — is all
    /// that differs between kernels; a push reads the graph's weights, a pull
    /// the in-edges'. `None` when a value left `i64`: the run is abandoned,
    /// as a word run a value escapes from is, and the interpreter answers.
    fn run_dense<S, Op, W, F>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        graph: KernelGraph,
        along: F,
    ) -> Result<Option<FixpointResult>, EngineError>
    where
        S: DenseState<Op>,
        W: KernelValue,
        F: Fn(S::Item, &[W], usize, u32) -> Result<S::Item, Escaped> + Send + Sync + 'static,
    {
        let p = self.config().partitions;
        let KernelGraph {
            csr,
            seeds,
            stored,
            at,
        } = graph;
        let n = csr.vertex_count();
        // Bucket the seeds exactly where the generic partitioner would send
        // them: one item per seeded vertex.
        let mut base: Vec<Vec<S::Item>> = vec![Vec::new(); p];
        if let Some(seeds) = seeds {
            // Pre-combine the folded seeds through a scratch state, in
            // first-touch order.
            let mut scratch = S::new(n);
            for &(d, bits) in &seeds {
                scratch.merge(S::item(d, bits), 0);
            }
            let Ok(seeded) = scratch.take_delta(true) else {
                return Ok(None);
            };
            for item in seeded {
                base[csr.part_of[S::vertex(item) as usize] as usize].push(item);
            }
        } else {
            // Each vertex is one partition's, once: nothing to combine.
            let cluster = self.eval().cluster();
            let tasks = (0..p)
                .map(|part| {
                    let g = Arc::clone(&csr);
                    StageTask::new(cluster.owner_of(part), move |_| {
                        graph_seeds::<S, Op>(&g, part)
                    })
                })
                .collect();
            base = cluster.run_stage_traced(
                self.eval().trace(),
                "kernel seeds",
                StageKind::Map,
                tasks,
            )?;
        }

        // §7.2: the graph is broadcast once and every worker reads that one
        // copy. `broadcast_bytes` and the governor's transient charge model
        // the network (`payload × workers`), not a memcpy.
        let shared = Arc::clone(&csr);
        let bc = Broadcast::distribute_traced(
            self.eval().cluster(),
            self.eval().trace(),
            csr.size_bytes(),
            move |_w| Arc::clone(&shared),
            self.eval().governor(),
        )?;
        // A pull gathers what the push of the same delta derives only when
        // the merge is idempotent and a delta carries its vertices' totals.
        let pulls = S::PULLS && kp.totals_delta && u32::try_from(stored.edge_count()).is_ok();
        let mut dense = Dense {
            exec: self.step_cx(),
            view: v.name.clone(),
            kernel: kp.name,
            totals: kp.totals_delta,
            along: Arc::new(along),
            bc: Arc::new(bc),
            pending: Arc::new(vec![base.clone()]),
            base,
            parts: Arc::new(
                (0..p)
                    .map(|_| {
                        RankedMutex::new(LockRank::FixpointState, (S::new(n), Combiner::new(n)))
                    })
                    .collect(),
            ),
            pull: pulls.then(|| Pull {
                snapshot: Arc::new(DeltaSnapshot::new(n)),
                build: &kp.build,
                key_cols: [kp.src_col],
                // The forward graph's key: one entry serves both promotions.
                layout: IndexLayout::InEdges {
                    src: kp.src_col,
                    dst: kp.dst_col,
                    weight: kp.weight.promoted(),
                },
                graph: stored,
                at,
                in_side: None,
                gather: false,
            }),
            op: PhantomData::<(Op, W)>,
        };
        let iterations = match self.drive(&mut dense, 0) {
            Ok(iterations) => iterations,
            // A value left `i64`: the interpreter evaluates the clique.
            Err(Halt::Escaped) => return Ok(None),
            Err(h) => return Err(h.into()),
        };

        // A vertex is occupied only in its owner partition. A kernel view's
        // key is `Int` and its value the slab's scalar (`select_kernel`).
        let mut lanes = vec![Lane::Int; v.schema.arity()];
        if let (Some(c), KernelScalar::F64) = (kp.agg_col, kp.scalar) {
            lanes[c] = Lane::Double;
        }
        let lanes: Arc<[Lane]> = lanes.into();
        let mut tuple = vec![0u64; lanes.len()];
        let parts = dense.parts.iter().map(|part| {
            let slab = &part.lock().0;
            let mut out = Tuples::with_capacity(Arc::clone(&lanes), slab.len());
            slab.for_each_cell(|d, bits| {
                tuple[kp.key_col] = csr.orig_id(d) as u64;
                if let Some(c) = kp.agg_col {
                    tuple[c] = bits;
                }
                out.push(&tuple);
            });
            out
        });
        let view = <u64 as Repr>::view_data(&v.schema, &lanes, parts);
        Ok(Some(FixpointResult {
            views: vec![view],
            iterations,
        }))
    }
}

/// One input partition's share of a kernel's base case: typed seeds in
/// first-occurrence order, exact duplicates dropped.
#[derive(Default)]
struct SeedFold {
    seen: FxHashSet<(i64, u64)>,
    seeds: Vec<(i64, u64)>,
    /// A tuple's key was not `Int`, or its aggregate not of the slab's type.
    mistyped: bool,
}

impl SeedFold {
    /// The fold's sink: one borrowed base tuple, checked and kept as
    /// `(key, aggregate bits)` — `agg` names the aggregate column and the
    /// slab's scalar type, `None` for a set kernel.
    fn push_seed(&mut self, tuple: &[Value], key_col: usize, agg: Option<(usize, KernelScalar)>) {
        let bits = match agg {
            None => Some(0),
            Some((c, KernelScalar::I64)) => i64::from_value(&tuple[c]).map(KernelValue::to_bits),
            Some((c, KernelScalar::F64)) => f64::from_value(&tuple[c]).map(KernelValue::to_bits),
        };
        match (&tuple[key_col], bits) {
            (Value::Int(k), Some(bits)) => {
                if self.seen.insert((*k, bits)) {
                    self.seeds.push((*k, bits));
                }
            }
            _ => self.mistyped = true,
        }
    }
}

/// Whether the view's base case is the clique's build plan projected onto
/// its source column — as the key and, for an aggregate kernel, as its `Int`
/// value too: CC's `SELECT Src, Src FROM edge`, a set kernel's `SELECT Src
/// FROM edge`. Its seeds are then the graph's vertices with an out-edge,
/// each valued its own id, and they are read off the graph the kernel
/// fetches ([`graph_seeds`]) — from the same table snapshot — instead of
/// folded out of the rows. A plan comparison, not a data check: a filtered,
/// constant or `Dst`-keyed base, or several branches, keep the fold.
fn seeds_off_graph(v: &ViewSpec, kp: &KernelPlan) -> bool {
    let [LogicalPlan::Projection { input, exprs, .. }] = v.base.as_slice() else {
        return false;
    };
    let src = Some(&PExpr::Col(kp.src_col));
    let valued = kp
        .agg_col
        .is_none_or(|c| kp.scalar == KernelScalar::I64 && exprs.get(c) == src);
    valued && exprs.get(kp.key_col) == src && input.cache_text() == kp.build.cache_text()
}

/// Partition `part`'s share of a base case read off the graph: an item for
/// each vertex it owns that an edge row leaves, valued its own id, in dense
/// order. A seed vertex interned after the edges' has no out-edge, and no
/// vertex is any other partition's, so each source is seeded exactly once.
fn graph_seeds<S: DenseState<Op>, Op>(g: &CsrGraph, part: usize) -> Vec<S::Item> {
    (0..g.edge_vertices)
        .filter(|&d| g.part_of[d] as usize == part && g.offsets[d + 1] > g.offsets[d])
        .map(|d| {
            // Vertex ids are `u32`.
            #[allow(clippy::cast_possible_truncation)]
            let d = d as u32;
            S::item(d, g.orig_id(d).to_bits())
        })
        .collect()
}

// --------------------------------------------------------------------
// The kernels' strategy (§7.3): CSR broadcast + dense state
// --------------------------------------------------------------------

/// A kernel's base-case seeds resolved to a graph's dense ids:
/// `(vertex, aggregate bits)`.
type DenseSeeds = Vec<(u32, u64)>;

/// What a kernel runs over: the graph its rounds walk (the store's, or a
/// private extension of it by seed vertices no edge mentions), the seeds in
/// its dense ids (`None`: read off the graph), and the store's graph with
/// the table versions it was lent at (`None`: built privately), which its
/// in-edges are fetched for.
struct KernelGraph {
    csr: Arc<CsrGraph>,
    seeds: Option<DenseSeeds>,
    stored: Arc<CsrGraph>,
    at: Option<Vec<IndexDep>>,
}

/// What a kernel task hands back.
struct TaskOut<I> {
    /// The delta rows it consumed.
    delta: u64,
    /// The edges it read: the in-edges its gather read, and its delta's
    /// out-edges when it pushed.
    edges: u64,
    /// Its combined contributions by destination partition; `None` when it
    /// published its delta for the next round to gather instead.
    pushed: Option<Vec<Vec<I>>>,
}

/// The pull side of a kernel whose rounds may pull: the snapshot its
/// publishers write, and what its gathers read — fetched from the index
/// store for the store's graph at the first round that gathers.
struct Pull<'k> {
    snapshot: Arc<DeltaSnapshot>,
    build: &'k LogicalPlan,
    key_cols: [usize; 1],
    layout: IndexLayout,
    graph: Arc<CsrGraph>,
    at: Option<Vec<IndexDep>>,
    in_side: Option<Arc<InSide>>,
    /// A partition published its delta in the last round: this one gathers.
    gather: bool,
}

/// What a gather reads besides the snapshot: the graph's in-edges, and per
/// partition the vertices it owns that have any.
struct InSide {
    inn: Arc<InEdges>,
    owned: Vec<Vec<u32>>,
}

impl InSide {
    fn new(inn: Arc<InEdges>, part_of: &[u32], parts: usize) -> Self {
        let mut owned = vec![Vec::new(); parts];
        for (v, &part) in part_of.iter().enumerate().take(inn.vertex_count()) {
            // Vertex ids are `u32`.
            #[allow(clippy::cast_possible_truncation)]
            owned[part as usize].push(v as u32);
        }
        InSide { inn, owned }
    }

    fn size_bytes(&self) -> u64 {
        let owned: usize = self.owned.iter().map(Vec::len).sum();
        (self.inn.size_bytes() + owned * 4) as u64
    }
}

/// The kernel rounds, written once over [`DenseState`]: semi-naive's
/// combined mode round for round — same iteration counting, same closing
/// round, same shuffle accounting for worker-crossing contributions — over
/// dense slabs and the broadcast CSR graph. A round pushes each
/// partition's delta or, where [`pulls`] says the gather is cheaper,
/// publishes it; the next round's gather derives from a published delta
/// exactly what its push would have, so the rounds and deltas are push's.
struct Dense<'e, 'a, 'k, S: DenseState<Op>, Op, W, F> {
    exec: StepCx<'e, 'a>,
    view: String,
    kernel: &'static str,
    /// Whether a delta entry carries its vertex's total rather than the
    /// contribution that changed it (`KernelPlan::totals_delta`).
    totals: bool,
    along: Arc<F>,
    bc: Arc<Broadcast<Arc<CsrGraph>>>,
    /// The base items by owner partition — immutable, which is what lets a
    /// rewind restart from them.
    base: Vec<Vec<S::Item>>,
    /// The exchange: last round's task outputs as they are, `[src][dst]`.
    pending: Arc<Vec<Vec<Vec<S::Item>>>>,
    parts: Arc<Vec<RankedMutex<(S, Combiner)>>>,
    /// `None`: every round pushes ([`DenseState::PULLS`]).
    pull: Option<Pull<'k>>,
    op: PhantomData<(Op, W)>,
}

impl<S, Op, W, F> RoundStep for Dense<'_, '_, '_, S, Op, W, F>
where
    S: DenseState<Op>,
    W: KernelValue,
    F: Fn(S::Item, &[W], usize, u32) -> Result<S::Item, Escaped> + Send + Sync + 'static,
{
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        (vec![self.view.clone()], "specialized", self.kernel)
    }

    /// One combined stage: task `part` merges `pending[src][part]` for every
    /// `src` in order — the order concatenating them would produce — into its
    /// slab, gathers its vertices' in-edges when the last round published,
    /// and then pushes its fresh delta against the graph, combining map-side
    /// (Algorithm 5), or publishes it.
    fn step(&mut self, round: u32, _: Turn) -> Result<Option<Round>, Halt> {
        let (exec, totals, p) = (self.exec, self.totals, self.parts.len());
        // The in-edges, from the store, the first time a round gathers.
        let mut gather = None;
        if let Some(pull) = self.pull.as_mut().filter(|pull| pull.gather) {
            if pull.in_side.is_none() {
                let at = pull.at.as_deref();
                let layout = pull.layout.clone();
                let inn = exec.in_edges(pull.build, &pull.key_cols, layout, &pull.graph, at)?;
                pull.in_side = Some(Arc::new(InSide::new(inn, &pull.graph.part_of, p)));
            }
            gather = pull.in_side.clone();
        }
        let snapshot = self.pull.as_ref().map(|pull| Arc::clone(&pull.snapshot));
        let tasks = (0..p)
            .map(|part| {
                let pending = Arc::clone(&self.pending);
                let parts = Arc::clone(&self.parts);
                let bc = Arc::clone(&self.bc);
                let along = Arc::clone(&self.along);
                let (gather, snapshot) = (gather.clone(), snapshot.clone());
                StageTask::new(part % exec.workers(), move |w| {
                    let mut guard = parts[part].lock();
                    let (slab, combiner) = &mut *guard;
                    for src in pending.iter() {
                        for &item in &src[part] {
                            slab.merge(item, round - 1);
                        }
                    }
                    let g = bc.on_worker(w);
                    let mut edges = 0;
                    if let (Some(side), Some(snapshot)) = (&gather, &snapshot) {
                        let (inn, owned) = (&side.inn, &side.owned[part]);
                        let ws = W::in_weights(inn);
                        edges = snapshot.gather::<Op, S>(
                            slab,
                            inn,
                            owned,
                            round - 1,
                            round - 1,
                            |c, ie, v| along(c, ws, ie, v),
                        )?;
                    }
                    let delta = slab.take_delta(totals)?;
                    let walk = out_edges::<Op, S>(g, &delta);
                    let mut out = TaskOut {
                        delta: delta.len() as u64,
                        edges,
                        pushed: None,
                    };
                    let pull = |_: &_| pulls::<Op, S>(g, slab, walk, p);
                    if let Some(snapshot) = snapshot.filter(pull) {
                        snapshot.publish::<Op, S>(&delta, round);
                        return Ok(out);
                    }
                    let ws = W::weights(g);
                    let pushed = combiner
                        .scan::<Op, S>(g, &delta, p, |item, e, dst| along(item, ws, e, dst))?;
                    (out.edges, out.pushed) = (edges + walk, Some(pushed));
                    Ok(out)
                })
            })
            .collect();
        let results = exec.stage("fixpoint kernel", StageKind::Combined, tasks)?;
        let results = results.into_iter().collect::<Result<Vec<_>, Escaped>>()?;

        let delta_rows: u64 = results.iter().map(|out| out.delta).sum();
        let edges: u64 = results.iter().map(|out| out.edges).sum();
        let total_rows = (self.parts.iter())
            .map(|part| part.lock().0.len() as u64)
            .sum();
        // Nothing is moved here: the step only counts what crosses workers — a
        // pushed partition's contributions for other workers' partitions, a
        // published delta once per other worker. (A closing round scanned
        // nothing, so it counts zero.)
        let (mut moved_rows, mut published) = (0u64, false);
        let others = (0..p)
            .map(|part| exec.owner_of(part))
            .collect::<FxHashSet<_>>()
            .len() as u64
            - 1;
        for (src_part, out) in results.iter().enumerate() {
            let Some(pushed) = &out.pushed else {
                published = true;
                moved_rows += out.delta * others;
                continue;
            };
            for (dst_part, items) in pushed.iter().enumerate() {
                if exec.owner_of(src_part) != exec.owner_of(dst_part) {
                    moved_rows += items.len() as u64;
                }
            }
        }
        if let Some(pull) = &mut self.pull {
            pull.gather = published;
        }
        self.pending = Arc::new(
            (results.into_iter())
                .map(|out| out.pushed.unwrap_or_else(|| vec![Vec::new(); p]))
                .collect(),
        );
        Ok(Some(Round {
            delta_rows,
            total_rows,
            stages: 1,
            shuffle_rows: moved_rows,
            shuffle_bytes: moved_rows * std::mem::size_of::<S::Item>() as u64,
            elapsed_us: None,
            pull: published,
            edges,
            // Every partition merged an empty delta.
            closing: delta_rows == 0,
        }))
    }

    /// Dense slabs take no round-boundary snapshots, but a lost stage leaves
    /// them half merged: wipe them, and both snapshot buffers, and start
    /// again from the base items.
    fn rewind(&mut self, _to: u32, _: Turn) -> Result<String, EngineError> {
        for part in self.parts.iter() {
            part.lock().0.clear();
        }
        if let Some(pull) = &mut self.pull {
            pull.snapshot.clear();
            pull.gather = false;
        }
        self.pending = Arc::new(vec![self.base.clone()]);
        Ok("kernel state reset to empty; rerunning".into())
    }

    /// The slabs, combiners, snapshot buffers and in-edges are the resident
    /// state; they are charged, never paged.
    fn settle(&mut self, g: &QueryGovernor, _round: u32, _: Turn) -> Result<u64, EngineError> {
        let slabs: u64 = (self.parts.iter())
            .map(|part| {
                let guard = part.lock();
                guard.0.size_bytes() + guard.1.size_bytes()
            })
            .sum();
        let pull = self.pull.as_ref().map_or(0, |pull| {
            let in_side = pull.in_side.as_ref().map_or(0, |side| side.size_bytes());
            pull.snapshot.size_bytes() + in_side
        });
        g.tracker().charge(slabs + pull);
        Ok(slabs + pull)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "fixtures: graphs made by hand")]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rasql_storage::CsrWeight;

    /// Every source once, in its owner's share, valued its own id; neither a
    /// destination-only vertex (5) nor a seed vertex interned after the
    /// edges' (9).
    #[test]
    fn graph_seeds_are_the_sources_each_once() {
        let rows: Vec<Row> = [(7, 2), (7, 2), (3, 3), (2, 5)]
            .iter()
            .map(|&(s, d)| Row::new(vec![Value::Int(s), Value::Int(d)]))
            .collect();
        let g = CsrGraph::build(&rows, 0, 1, CsrWeight::None, [9], 3).unwrap();
        let mut seeded = Vec::new();
        for part in 0..3 {
            for (d, v) in graph_seeds::<DenseAggState<i64>, MinOp>(&g, part) {
                assert_eq!(g.part_of[d as usize] as usize, part);
                seeded.push((g.orig_id(d), v));
            }
        }
        seeded.sort_unstable();
        assert_eq!(seeded, [(2, 2), (3, 3), (7, 7)]);
    }
}
