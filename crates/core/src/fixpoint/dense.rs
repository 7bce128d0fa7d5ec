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
        let Some(seeds) = self.kernel_seeds(v, kp)? else {
            return Ok(None);
        };
        let Some((csr, seeds)) = self.kernel_graph(kp, &seeds)? else {
            return Ok(None);
        };
        match (kp.op, kp.scalar) {
            (KernelOp::Set, _) => {
                let p = self.config().partitions;
                let scan = move |g: &CsrGraph, delta: &[u32], sink: &mut Combiner| {
                    sink.scan::<(), DenseSetState>(g, delta, p, |_, _, dst| Ok(dst))
                };
                self.run_dense::<DenseSetState, ()>(v, kp, &csr, &seeds, scan)
            }
            (KernelOp::Min, KernelScalar::I64) => {
                self.run_kernel_agg::<i64, MinOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Min, KernelScalar::F64) => {
                self.run_kernel_agg::<f64, MinOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Max, KernelScalar::I64) => {
                self.run_kernel_agg::<i64, MaxOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Max, KernelScalar::F64) => {
                self.run_kernel_agg::<f64, MaxOp>(v, kp, &csr, &seeds)
            }
            (KernelOp::Sum, _) => self.run_kernel_agg::<i64, SumOp>(v, kp, &csr, &seeds),
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
    /// resolved to its dense ids (one `remap` lookup per seed). The store
    /// keeps the graph of the edge rows alone: seed vertices get their dense
    /// ids after every edge endpoint, so that one entry serves every seed
    /// list drawn from the graph's own vertices, and a list that adds a
    /// vertex gets a private extension of it (typed arrays moved, no row
    /// read). `None` when the edge rows are not of the kernel's types.
    fn kernel_graph(
        &self,
        kp: &KernelPlan,
        seeds: &[(i64, u64)],
    ) -> Result<Option<(Arc<CsrGraph>, DenseSeeds)>, EngineError> {
        let p = self.config().partitions;
        let resolve = |g: &CsrGraph| -> Option<DenseSeeds> {
            seeds
                .iter()
                .map(|&(k, bits)| Some((g.dense_id(k)?, bits)))
                .collect()
        };
        let layout = IndexLayout::Csr {
            src: kp.src_col,
            dst: kp.dst_col,
            weight: kp.weight,
            partitions: p,
        };
        let Some(Index::Csr(shared)) =
            self.eval()
                .fetch_index(&kp.build, &[kp.src_col], layout, true)?
        else {
            return Ok(None);
        };
        if let Some(dense) = resolve(&shared) {
            return Ok(Some((shared, dense)));
        }
        let extras = seeds.iter().map(|s| s.0);
        let Some(seeded) = shared.extended(&[], kp.src_col, kp.dst_col, kp.weight, extras, p)
        else {
            return Ok(None);
        };
        Ok(resolve(&seeded).map(|dense| (Arc::new(seeded), dense)))
    }

    /// The aggregate kernels: [`FixpointExecutor::run_dense`] over
    /// [`DenseAggState`], scanning with the plan's per-edge transform.
    fn run_kernel_agg<T, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        csr: &Arc<CsrGraph>,
        seeds: &[(u32, u64)],
    ) -> Result<Option<FixpointResult>, EngineError>
    where
        T: KernelValue,
        Op: MergeOp<T>,
    {
        let p = self.config().partitions;
        if kp.agg_col.is_none() {
            // A planner bug, not a data mismatch — but falling back to the
            // interpreter is strictly safer than panicking mid-query.
            return Ok(None);
        }
        let edge_fn = kp.edge_fn.clone();
        let add = match &edge_fn {
            KernelEdgeFn::AddConst(lit) => match T::from_const(lit) {
                Some(c) => c,
                None => return Ok(None),
            },
            _ => T::zero(),
        };
        // One monomorphized walk per edge transform: no `Value` dispatch and
        // no branch on the transform inside the loop. A sum that leaves `i64`
        // abandons the run (`KernelValue::add`).
        let scan = move |g: &CsrGraph, delta: &[(u32, T)], sink: &mut Combiner| {
            let ws = T::weights(g);
            match edge_fn {
                KernelEdgeFn::Identity => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| {
                        Ok((dst, val))
                    })
                }
                KernelEdgeFn::AddWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        T::add(val, ws[e]).map(|c| (dst, c)).ok_or(Escaped)
                    })
                }
                KernelEdgeFn::AddConst(_) => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), _, dst| {
                        T::add(val, add).map(|c| (dst, c)).ok_or(Escaped)
                    })
                }
                KernelEdgeFn::MinWeight => {
                    sink.scan::<Op, DenseAggState<T>>(g, delta, p, |(_, val), e, dst| {
                        Ok((dst, if T::lt(ws[e], val) { ws[e] } else { val }))
                    })
                }
            }
        };
        self.run_dense::<DenseAggState<T>, Op>(v, kp, csr, seeds, scan)
    }

    /// A kernel-selected clique, dense from its seeds to its result: bucket
    /// the seeds, broadcast the graph once, drive [`Dense`] to the fixpoint
    /// and write each slab's `(Int id, value)` lanes. `scan` is all that
    /// differs between kernels. `None` when a value left `i64`: the run is abandoned,
    /// as a word run a value escapes from is, and the interpreter answers.
    fn run_dense<S, Op>(
        &self,
        v: &ViewSpec,
        kp: &KernelPlan,
        csr: &Arc<CsrGraph>,
        seeds: &[(u32, u64)],
        scan: impl Fn(&CsrGraph, &[S::Item], &mut Combiner) -> KernelOut<S::Item>
            + Send
            + Sync
            + 'static,
    ) -> Result<Option<FixpointResult>, EngineError>
    where
        S: DenseState<Op>,
    {
        let p = self.config().partitions;
        let n = csr.vertex_count();
        // Pre-combine the seeds through a scratch state, in first-touch
        // order, and bucket them exactly where the generic partitioner would
        // send them: one item per seeded vertex.
        let mut base: Vec<Vec<S::Item>> = vec![Vec::new(); p];
        {
            let mut scratch = S::new(n);
            for &(d, bits) in seeds {
                scratch.merge(S::item(d, bits), 0);
            }
            let Ok(seeded) = scratch.take_delta(true) else {
                return Ok(None);
            };
            for item in seeded {
                base[csr.part_of[S::vertex(item) as usize] as usize].push(item);
            }
        }

        // §7.2: the graph is broadcast once and every worker reads that one
        // copy. `broadcast_bytes` and the governor's transient charge model
        // the network (`payload × workers`), not a memcpy.
        let graph = Arc::clone(csr);
        let bc = Broadcast::distribute_traced(
            self.eval().cluster,
            self.eval().trace,
            csr.size_bytes(),
            move |_w| Arc::clone(&graph),
            self.eval().governor,
        )?;
        let mut dense = Dense {
            exec: self.step_cx(),
            view: v.name.clone(),
            kernel: kp.name,
            totals: kp.totals_delta,
            scan: Arc::new(scan),
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
            op: PhantomData::<Op>,
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

// --------------------------------------------------------------------
// The kernels' strategy (§7.3): CSR broadcast + dense state
// --------------------------------------------------------------------

/// A kernel's base-case seeds resolved to a graph's dense ids:
/// `(vertex, aggregate bits)`.
type DenseSeeds = Vec<(u32, u64)>;

/// A kernel scan's contributions by destination partition, or `Escaped` when
/// a value left `i64`.
type KernelOut<I> = Result<Vec<Vec<I>>, Escaped>;

/// The kernel rounds, written once over [`DenseState`]: semi-naive's
/// combined mode round for round — same iteration counting, same closing
/// round, same shuffle accounting for worker-crossing contributions — over
/// dense slabs and the broadcast CSR graph.
struct Dense<'e, 'a, S: DenseState<Op>, Op, F> {
    exec: StepCx<'e, 'a>,
    view: String,
    kernel: &'static str,
    /// Whether a delta entry carries its vertex's total rather than the
    /// contribution that changed it (`KernelPlan::totals_delta`).
    totals: bool,
    scan: Arc<F>,
    bc: Arc<Broadcast<Arc<CsrGraph>>>,
    /// The base items by owner partition — immutable, which is what lets a
    /// rewind restart from them.
    base: Vec<Vec<S::Item>>,
    /// The exchange: last round's task outputs as they are, `[src][dst]`.
    pending: Arc<Vec<Vec<Vec<S::Item>>>>,
    parts: Arc<Vec<RankedMutex<(S, Combiner)>>>,
    op: PhantomData<Op>,
}

impl<S, Op, F> RoundStep for Dense<'_, '_, S, Op, F>
where
    S: DenseState<Op>,
    F: Fn(&CsrGraph, &[S::Item], &mut Combiner) -> KernelOut<S::Item> + Send + Sync + 'static,
{
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        (vec![self.view.clone()], "specialized", self.kernel)
    }

    /// One combined stage: task `part` merges `pending[src][part]` for every
    /// `src` in order — the order concatenating them would produce — into its
    /// slab and scans the fresh delta against the graph, combining map-side
    /// (Algorithm 5).
    fn step(&mut self, round: u32, _: Turn) -> Result<Option<Round>, Halt> {
        let (exec, totals) = (self.exec, self.totals);
        let tasks = (0..self.parts.len())
            .map(|part| {
                let pending = Arc::clone(&self.pending);
                let parts = Arc::clone(&self.parts);
                let bc = Arc::clone(&self.bc);
                let scan = Arc::clone(&self.scan);
                StageTask::new(part % exec.workers(), move |w| {
                    let mut guard = parts[part].lock();
                    let (slab, combiner) = &mut *guard;
                    for src in pending.iter() {
                        for &item in &src[part] {
                            slab.merge(item, round - 1);
                        }
                    }
                    let delta = slab.take_delta(totals)?;
                    Ok((delta.len() as u64, scan(bc.on_worker(w), &delta, combiner)?))
                })
            })
            .collect();
        // Each task returns the delta rows it consumed and its combined
        // contributions, bucketed by destination partition.
        let results = exec.stage("fixpoint kernel", StageKind::Combined, tasks)?;
        let results = results.into_iter().collect::<Result<Vec<_>, Escaped>>()?;

        let delta_rows: u64 = results.iter().map(|(n, _)| *n).sum();
        let total_rows = (self.parts.iter())
            .map(|part| part.lock().0.len() as u64)
            .sum();
        // The driver moves nothing: it only counts what crosses workers. (A
        // closing round scanned nothing, so it counts zero.)
        let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
        let item_bytes = std::mem::size_of::<S::Item>() as u64;
        for (src_part, (_, out)) in results.iter().enumerate() {
            for (dst_part, items) in out.iter().enumerate() {
                if exec.owner_of(src_part) != exec.owner_of(dst_part) {
                    moved_rows += items.len() as u64;
                    moved_bytes += items.len() as u64 * item_bytes;
                }
            }
        }
        self.pending = Arc::new(results.into_iter().map(|(_, out)| out).collect());
        Ok(Some(Round {
            delta_rows,
            total_rows,
            stages: 1,
            shuffle_rows: moved_rows,
            shuffle_bytes: moved_bytes,
            elapsed_us: None,
            // Every partition merged an empty delta.
            closing: delta_rows == 0,
        }))
    }

    /// Dense slabs take no round-boundary snapshots, but a lost stage leaves
    /// them half merged: wipe them and start again from the base items.
    fn rewind(&mut self, _to: u32, _: Turn) -> Result<String, EngineError> {
        for part in self.parts.iter() {
            part.lock().0.clear();
        }
        self.pending = Arc::new(vec![self.base.clone()]);
        Ok("kernel state reset to empty; rerunning".into())
    }

    /// The slabs and combiners are the resident state; they are charged,
    /// never paged.
    fn settle(&mut self, g: &QueryGovernor, _round: u32, _: Turn) -> Result<u64, EngineError> {
        let footprint = (self.parts.iter())
            .map(|part| {
                let guard = part.lock();
                guard.0.size_bytes() + guard.1.size_bytes()
            })
            .sum();
        g.tracker().charge(footprint);
        Ok(footprint)
    }
}
