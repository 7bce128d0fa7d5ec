use super::*;

// --------------------------------------------------------------------
// The interpreter's strategies
// --------------------------------------------------------------------

/// What the three interpreter strategies evaluate: the clique's runtime
/// views (whose partitions hold the state) and its compiled branches, on
/// one tuple representation.
pub(super) struct Clique<'e, 'a, C: Cell> {
    pub(super) exec: StepCx<'e, 'a>,
    pub(super) views: Arc<Vec<ViewRt<C>>>,
    pub(super) branches: Arc<Vec<CompiledBranch<C>>>,
}

impl<C: Cell> Clique<'_, '_, C> {
    fn names(&self) -> Vec<String> {
        self.views.iter().map(|v| v.spec.name.clone()).collect()
    }

    fn label(&self, mode: &'static str) -> (Vec<String>, &'static str, &'static str) {
        (self.names(), mode, "generic")
    }

    /// Comma-joined view names — the `stage` label of clique-scoped
    /// recovery events.
    fn name(&self) -> String {
        self.names().join(",")
    }

    /// Total rows across every partition of every view.
    fn total_rows(&self) -> u64 {
        let parts = self.views.iter().flat_map(|v| v.state.iter());
        parts.map(|cell| cell.lock().len() as u64).sum()
    }
}

/// The outputs of a stage whose tasks may escape.
fn landed<T>(results: Vec<Result<T, Escaped>>) -> Result<Vec<T>, Halt> {
    Ok(results.into_iter().collect::<Result<Vec<T>, Escaped>>()?)
}

/// Semi-naive evaluation (Algorithms 4/5, or 6 when `combine`): the state
/// lives in the views' partitions, and `pending` holds the contributions the
/// next round merges — base-case results first. A delta-seeded resume is this
/// strategy over preloaded partitions, driven from round 1.
pub(super) struct SemiNaive<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    /// Stage combination fuses the reduce of round r with the map of round
    /// r+1 — sound only when no branch reads old/new snapshots of another
    /// recursive relation (those need the merge barrier).
    combine: bool,
    pending: Buckets<C>,
    /// Between rounds every partition's state plus `pending` form a
    /// consistent cut (see `rasql_exec::checkpoint`): that is what is saved.
    store: CheckpointStore,
    /// What `settle` paged out to the governor's spill directory, read back
    /// by `page_in`: `(view, partition, file)`.
    paged_pending: Vec<(usize, usize, String)>,
    paged_state: Vec<(usize, usize, String)>,
}

impl<'e, 'a, C: Cell> SemiNaive<'e, 'a, C> {
    pub(super) fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
        let combine =
            c.exec.config().stage_combination && c.branches.iter().all(|b| !b.uses_recursive_build);
        SemiNaive {
            c,
            combine,
            pending: base,
            store: CheckpointStore::memory(),
            paged_pending: Vec::new(),
            paged_state: Vec::new(),
        }
    }
}

impl<C: Repr> RoundStep for SemiNaive<'_, '_, C> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label(if self.combine {
            "semi_naive_combined"
        } else {
            "semi_naive"
        })
    }

    fn step(&mut self, round: u32, _: Turn) -> Result<Option<Round>, Halt> {
        let exec = self.c.exec;
        let (p, workers) = (exec.config().partitions, exec.workers());
        // The round's two halves, each run on the partition it names. Merge:
        // fold the pending contributions into the state, stamped with the
        // delta's round (Algorithm 4 lines 11-16). Map: join the fresh delta
        // through every branch and partially aggregate (lines 6-9 / Alg. 5).
        let merge = {
            let views = Arc::clone(&self.c.views);
            move |part: usize, mine: Vec<Tuples<C>>| -> Result<Vec<DeltaBatch<C>>, Escaped> {
                (views.iter().zip(mine))
                    .map(|(v, tuples)| {
                        merge_into_state(v, &mut v.state[part].lock(), &tuples, round - 1)
                    })
                    .collect()
            }
        };
        let map = {
            let (views, branches) = (Arc::clone(&self.c.views), Arc::clone(&self.c.branches));
            let fused = exec.fused();
            move |part: usize,
                  deltas: &[DeltaBatch<C>],
                  snapshots: &[Snapshot<C>],
                  w: usize|
                  -> Result<(u64, Buckets<C>), Escaped> {
                let delta_rows: u64 = deltas.iter().map(|d| d.len() as u64).sum();
                let buckets = map_task(&views, &branches, deltas, snapshots, part, w, fused)?;
                Ok((delta_rows, buckets))
            }
        };
        let fresh = empty_buckets(&self.c.views, p);
        let mine = by_partition(std::mem::replace(&mut self.pending, fresh), p);
        let mut stages = 1;
        let map_out: Vec<(u64, Buckets<C>)> = if self.combine {
            // One combined ShuffleMap stage (Algorithm 6).
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, tuples)| {
                    let (merge, map) = (merge.clone(), map.clone());
                    StageTask::new(part % workers, move |w| {
                        map(part, &merge(part, tuples)?, &[], w)
                    })
                })
                .collect();
            let out = exec.stage("fixpoint combined", StageKind::Combined, tasks)?;
            landed(out)?
        } else {
            let tasks = (mine.into_iter().enumerate())
                .map(|(part, tuples)| {
                    let merge = merge.clone();
                    StageTask::new(part % workers, move |_w| merge(part, tuples))
                })
                .collect();
            let merged = exec.stage("fixpoint reduce", StageKind::Reduce, tasks)?;
            let merged: Vec<Vec<DeltaBatch<C>>> = landed(merged)?;
            if merged.iter().flatten().all(DeltaBatch::is_empty) {
                Vec::new()
            } else {
                stages = 2;
                // Old/new snapshots use the delta's stamp as cutoff.
                let views = &self.c.views;
                let snapshots = snapshots(&self.c.branches, |view, mode| {
                    state_tuples(&views[view], mode, round - 1)
                });
                let snapshots = Arc::new(snapshots?);
                let tasks = (merged.into_iter().enumerate())
                    .map(|(part, deltas)| {
                        let (map, snapshots) = (map.clone(), Arc::clone(&snapshots));
                        StageTask::new(part % workers, move |w| map(part, &deltas, &snapshots, w))
                    })
                    .collect();
                let out = exec.stage("fixpoint map", StageKind::Map, tasks)?;
                landed(out)?
            }
        };

        // Shuffle: gather the map outputs per (view, partition), counting
        // what crosses workers.
        let delta_rows: u64 = map_out.iter().map(|(n, _)| *n).sum();
        let (mut moved_rows, mut moved_bytes) = (0u64, 0u64);
        for (src_part, (_, buckets)) in map_out.into_iter().enumerate() {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst_part, mut tuples) in per_view.into_iter().enumerate() {
                    if exec.owner_of(src_part) != exec.owner_of(dst_part) {
                        moved_rows += tuples.len() as u64;
                        moved_bytes += tuples.size_bytes();
                    }
                    self.pending[vi][dst_part].append(&mut tuples);
                }
            }
        }
        Ok(Some(Round {
            delta_rows,
            total_rows: self.c.total_rows(),
            stages,
            shuffle_rows: moved_rows,
            shuffle_bytes: moved_bytes,
            elapsed_us: None,
            pull: false,
            edges: 0,
            // Every partition merged an empty delta.
            closing: delta_rows == 0,
        }))
    }

    /// Serialize every partition's state (as a traced cluster stage — the
    /// encode work runs where the state lives, and is itself subject to fault
    /// injection) plus the pending contributions (driver-side, it already
    /// holds them) into the store under `round`, both as rows in the
    /// canonical codec whatever the representation.
    fn cut(&mut self, round: u32, _: Turn) -> Result<bool, Halt> {
        let exec = self.c.exec;
        let p = exec.config().partitions;
        let tasks: Vec<StageTask<Vec<(String, Bytes)>>> = (0..p)
            .map(|part| {
                let views = Arc::clone(&self.c.views);
                StageTask::new(part % exec.workers(), move |_w| {
                    (views.iter().enumerate())
                        .map(|(vi, v)| {
                            let data = v.state[part].lock().encode();
                            (format!("r{round}/v{vi}/p{part}"), data)
                        })
                        .collect()
                })
            })
            .collect();
        let encoded = exec.stage("fixpoint checkpoint", StageKind::Checkpoint, tasks)?;
        let put = |key: &str, data: Bytes| self.store.put(key, data).map_err(EngineError::from);
        let mut bytes = 0u64;
        for (key, data) in encoded.into_iter().flatten() {
            bytes += put(&key, data)? as u64;
        }
        for (vi, per_view) in self.pending.iter().enumerate() {
            for (part, tuples) in per_view.iter().enumerate() {
                let key = format!("r{round}/contrib/v{vi}/p{part}");
                bytes += put(&key, encode_rows(&tuples.to_rows()))? as u64;
            }
        }
        exec.count_checkpoint(bytes);
        let detail = format!("{bytes} B across {p} partitions");
        exec.note(RecoveryKind::Checkpoint, self.c.name(), round, detail);
        Ok(true)
    }

    /// Every partition's state and the pending contributions back to exactly
    /// what was captured at `to`.
    fn rewind(&mut self, to: u32, _: Turn) -> Result<String, EngineError> {
        let entry = |key: String| {
            self.store.get(&key)?.ok_or_else(|| {
                EngineError::Other(format!("checkpoint entry '{key}' missing from the store"))
            })
        };
        let mut bytes = 0u64;
        for (vi, v) in self.c.views.iter().enumerate() {
            for (part, pending) in self.pending[vi].iter_mut().enumerate() {
                let data = entry(format!("r{to}/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *v.state[part].lock() = ViewState::decode(v, data.as_ref())?;
                v.reordered.store(true, Ordering::Relaxed);
                let data = entry(format!("r{to}/contrib/v{vi}/p{part}"))?;
                bytes += data.len() as u64;
                *pending = v.restored(&decode_rows(data)?)?;
            }
        }
        Ok(format!("replaying from round {to} ({bytes} B)"))
    }

    /// Spilled contributions go back in front of what was gathered since,
    /// in their original order (the spill row codec preserves it); paged-out
    /// partitions are decoded from their checkpoint-codec blobs.
    fn page_in(&mut self, g: &QueryGovernor, _: Turn) -> Result<(), EngineError> {
        if self.paged_pending.is_empty() && self.paged_state.is_empty() {
            return Ok(());
        }
        let dir = g.spill_dir()?;
        for (vi, part, name) in self.paged_pending.drain(..) {
            let mut tuples = self.c.views[vi].restored(&dir.take_rows(&name)?)?;
            tuples.append(&mut self.pending[vi][part]);
            self.pending[vi][part] = tuples;
        }
        for (vi, part, name) in self.paged_state.drain(..) {
            let blob = dir.take_blob(&name)?;
            let v = &self.c.views[vi];
            *v.state[part].lock() = ViewState::decode(v, &blob)?;
            v.reordered.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The resident set is the pending contribution buckets plus the
    /// all-relation state, both priced without walking a tuple: a bucket as
    /// the rows it stands for, a partition as the bytes its arena, index and
    /// stamps hold. Over budget it is paged out to the governor's spill
    /// directory — buckets first (order-preserving row codec, so the next
    /// merge replays contributions byte-for-byte), then per-partition state
    /// (canonical checkpoint codec).
    fn settle(&mut self, g: &QueryGovernor, round: u32, _: Turn) -> Result<u64, EngineError> {
        let exec = self.c.exec;
        let bucket_bytes = |t: &Tuples<C>| t.size_bytes() + 16 * t.len() as u64;
        let pending = self.pending.iter().flatten();
        let cells = self.c.views.iter().flat_map(|v| v.state.iter());
        let mut charge = pending.map(bucket_bytes).sum::<u64>()
            + cells.map(|cell| cell.lock().size_bytes()).sum::<u64>();
        g.tracker().charge(charge);
        if !g.tracker().over_budget() {
            return Ok(charge);
        }
        let dir = g.spill_dir()?;
        let (mut written, mut files) = (0u64, 0u64);
        let mut paged = |freed: u64| {
            files += 1;
            g.tracker().release(freed);
            charge = charge.saturating_sub(freed);
            !g.tracker().over_budget()
        };
        'page: {
            for (vi, per_view) in self.pending.iter_mut().enumerate() {
                for (part, tuples) in per_view.iter_mut().enumerate() {
                    if tuples.is_empty() {
                        continue;
                    }
                    let name = format!("contrib-r{round}-v{vi}-p{part}");
                    written += dir.append_rows(&name, &tuples.to_rows())?;
                    let freed = bucket_bytes(tuples);
                    *tuples = self.c.views[vi].batch();
                    self.paged_pending.push((vi, part, name));
                    if paged(freed) {
                        break 'page;
                    }
                }
            }
            for (vi, v) in self.c.views.iter().enumerate() {
                for (part, cell) in v.state.iter().enumerate() {
                    let mut st = cell.lock();
                    if st.len() == 0 {
                        continue;
                    }
                    let freed = st.size_bytes();
                    let name = format!("state-r{round}-v{vi}-p{part}");
                    written += dir.write_blob(&name, st.encode().as_ref())?;
                    *st = ViewState::empty(v);
                    drop(st);
                    self.paged_state.push((vi, part, name));
                    if paged(freed) {
                        break 'page;
                    }
                }
            }
        }
        g.note_spill(written, files);
        exec.count_spill(written, files);
        let detail = format!("paged out {written} B in {files} files (footprint over budget)");
        exec.note(RecoveryKind::Spill, self.c.name(), round, detail);
        Ok(charge)
    }
}

/// Naive evaluation (Algorithm 2 / the Spark-SQL-Naive baseline of Fig 10):
/// every round re-derives `base ∪ T(prev)` from the whole previous state and
/// rebuilds the partitions from scratch; there is no delta to consume.
pub(super) struct Naive<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    base: Buckets<C>,
    /// The previous round's full state as schema-shaped tuples per
    /// (view, partition).
    prev: Arc<Buckets<C>>,
}

impl<'e, 'a, C: Cell> Naive<'e, 'a, C> {
    pub(super) fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
        let prev = Arc::new(empty_buckets(&c.views, c.exec.config().partitions));
        Naive { c, base, prev }
    }
}

impl<C: Repr> RoundStep for Naive<'_, '_, C> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label("naive")
    }

    fn step(&mut self, _round: u32, _: Turn) -> Result<Option<Round>, Halt> {
        let exec = self.c.exec;
        let p = exec.config().partitions;
        let views = &self.c.views;
        let snapshots = snapshots(&self.c.branches, |view, _| {
            let mut all = views[view].batch();
            for tuple in self.prev[view].iter().flat_map(Tuples::iter) {
                all.push(tuple);
            }
            all
        });
        let snapshots = Arc::new(snapshots?);
        // Drivers read totals: the whole previous state is the "delta".
        let tasks: Vec<StageTask<Result<Buckets<C>, Escaped>>> = (0..p)
            .map(|part| {
                let prev = Arc::clone(&self.prev);
                let (views, branches) = (Arc::clone(views), Arc::clone(&self.c.branches));
                let snapshots = Arc::clone(&snapshots);
                let fused = exec.fused();
                StageTask::new(part % exec.workers(), move |w| {
                    let deltas: Vec<DeltaBatch<C>> = (prev.iter())
                        .map(|tuples| DeltaBatch::Owned {
                            totals: tuples[part].clone(),
                            increments: None,
                        })
                        .collect();
                    map_task(&views, &branches, &deltas, &snapshots, part, w, fused)
                })
            })
            .collect();
        let map_out = exec.stage("fixpoint naive map", StageKind::Map, tasks)?;
        let mut contributions = self.base.clone();
        let mut derived_rows = 0u64;
        for buckets in landed(map_out)? {
            for (vi, per_view) in buckets.into_iter().enumerate() {
                for (dst, mut tuples) in per_view.into_iter().enumerate() {
                    derived_rows += tuples.len() as u64;
                    contributions[vi][dst].append(&mut tuples);
                }
            }
        }

        // Recompute state from scratch; compare with the previous round.
        let mut changed = false;
        let mut next = empty_buckets(views, p);
        for (vi, v) in views.iter().enumerate() {
            for part in 0..p {
                let mut fresh = ViewState::empty(v);
                merge_into_state(v, &mut fresh, &contributions[vi][part], 0)?;
                let now = fresh.tuples(&v.kinds, &v.layout);
                let (mut sorted, mut old_sorted) = (now.to_rows(), self.prev[vi][part].to_rows());
                sorted.sort_unstable();
                old_sorted.sort_unstable();
                changed |= sorted != old_sorted;
                next[vi][part] = now;
                *v.state[part].lock() = fresh;
            }
        }
        self.prev = Arc::new(next);
        Ok(Some(Round {
            // Naive evaluation has no deltas: record the re-derivation
            // volume instead (the waste the SN ablation measures).
            delta_rows: if changed { derived_rows } else { 0 },
            total_rows: self.c.total_rows(),
            stages: 1,
            shuffle_rows: 0,
            shuffle_bytes: 0,
            elapsed_us: None,
            pull: false,
            edges: 0,
            closing: !changed,
        }))
    }

    /// Every round rebuilds the partitions, so forgetting the previous state
    /// is the whole rewind.
    fn rewind(&mut self, _to: u32, _: Turn) -> Result<String, EngineError> {
        self.prev = Arc::new(empty_buckets(
            &self.c.views,
            self.c.exec.config().partitions,
        ));
        Ok("previous state forgotten; rerunning".into())
    }
}

/// Decomposed evaluation (§7.2): one stage runs every partition's local
/// fixpoint to the end — the preserved-column property keeps each derivation
/// in its partition, so there is no exchange and no per-round stage — and
/// the local histories are then reported one global round per step.
pub(super) struct Decomposed<'e, 'a, C: Cell> {
    c: Clique<'e, 'a, C>,
    base: Arc<Buckets<C>>,
    /// Every partition's local rounds; `None` until the stage has run.
    local: Option<Vec<LocalRounds>>,
}

impl<'e, 'a, C: Repr> Decomposed<'e, 'a, C> {
    pub(super) fn new(c: Clique<'e, 'a, C>, base: Buckets<C>) -> Self {
        debug_assert_eq!(c.views.len(), 1);
        Decomposed {
            c,
            base: Arc::new(base),
            local: None,
        }
    }

    /// Run the one stage. The whole local fixpoint runs inside it, so the
    /// cancellation token and the iteration cap travel into the task and are
    /// checked per local round; a task that gives up says why.
    fn local_fixpoints(&self) -> Result<Vec<LocalRounds>, Halt> {
        let exec = self.c.exec;
        let max_iter = exec.config().max_iterations;
        let fused = exec.fused();
        let token = exec.governor().map(|g| g.token().clone());
        let tasks = (0..exec.config().partitions)
            .map(|part| {
                let base = Arc::clone(&self.base);
                let (views, branches) = (Arc::clone(&self.c.views), Arc::clone(&self.c.branches));
                let token = token.clone();
                StageTask::new(part % exec.workers(), move |w| {
                    let v = &views[0];
                    let mut state = v.state[part].lock();
                    let mut delta = merge_into_state(v, &mut state, &base[0][part], 0)?;
                    let mut iters: u32 = 0;
                    let mut history: Vec<(u64, u64, u64)> = Vec::new();
                    let at = BranchAt {
                        snapshots: &[],
                        op_base: 0,
                        // No co-partitioned builds exist in decomposed mode.
                        part: usize::MAX,
                        worker: w,
                        fused,
                    };
                    while !delta.is_empty() {
                        let round_t0 = Instant::now();
                        iters += 1;
                        if iters > max_iter {
                            return Err(LocalAbort::NonTermination);
                        }
                        if token.as_ref().is_some_and(|t| t.check().is_err()) {
                            return Err(LocalAbort::Cancelled);
                        }
                        let consumed = delta.len() as u64;
                        // Every branch's tuples go straight into this
                        // round's merge — into the arena the delta is read
                        // out of, which is why it is read by index.
                        let mut merge = Merge::new(v, &state, iters);
                        for b in branches.iter() {
                            let mut io = LocalIo {
                                delta: &delta,
                                mode: b.driver_value_mode,
                                state: &mut *state,
                                merge: &mut merge,
                            };
                            run_branch(b, &mut io, &at)?;
                        }
                        delta = merge.finish(&state)?;
                        history.push((
                            consumed,
                            state.len() as u64,
                            round_t0.elapsed().as_micros() as u64,
                        ));
                    }
                    Ok((history, state.len() as u64))
                })
            })
            .collect();
        let results = exec.stage("fixpoint decomposed", StageKind::Decomposed, tasks)?;
        let mut local = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(history) => local.push(history),
                Err(LocalAbort::Escaped) => return Err(Halt::Escaped),
                Err(LocalAbort::NonTermination) => return Err(Halt::Capped),
                Err(LocalAbort::Cancelled) => {
                    // The governor's check re-derives the precise typed
                    // error (cancelled vs. deadline); the fallback covers a
                    // token that was somehow un-fired by the time we got here.
                    let governor = exec.governor();
                    if let Some(g) = governor {
                        g.check().map_err(EngineError::from)?;
                    }
                    return Err(Halt::Fatal(EngineError::Exec(ExecError::Cancelled {
                        query_id: governor.map_or(0, QueryGovernor::query_id),
                    })));
                }
            }
        }
        Ok(local)
    }
}

impl<C: Repr> RoundStep for Decomposed<'_, '_, C> {
    fn label(&self) -> (Vec<String>, &'static str, &'static str) {
        self.c.label("decomposed")
    }

    fn step(&mut self, round: u32, _: Turn) -> Result<Option<Round>, Halt> {
        if self.local.is_none() {
            self.local = Some(self.local_fixpoints()?);
        }
        let local = self.local.as_deref().unwrap_or_default();
        let r = round as usize - 1;
        if local.iter().all(|(history, _)| history.len() <= r) {
            return Ok(None);
        }
        let (mut delta_rows, mut total_rows, mut elapsed_us) = (0u64, 0u64, 0u64);
        for (history, final_len) in local {
            match history.get(r) {
                Some(&(d, t, us)) => {
                    delta_rows += d;
                    total_rows += t;
                    // Partitions run their local rounds side by side, so a
                    // global round lasts as long as its slowest partition.
                    elapsed_us = elapsed_us.max(us);
                }
                // A partition past its own fixpoint keeps its final size.
                None => total_rows += final_len,
            }
        }
        Ok(Some(Round {
            delta_rows,
            total_rows,
            // Local rounds run inside the single decomposed stage: no
            // per-round stages and no shuffle (the §7.2 claim).
            stages: 0,
            shuffle_rows: 0,
            shuffle_bytes: 0,
            elapsed_us: Some(elapsed_us),
            pull: false,
            edges: 0,
            closing: false,
        }))
    }

    /// There are no round boundaries to cut at — the entire local fixpoint is
    /// one stage — so the rewind wipes every partition and the stage runs
    /// again (sound because it derives everything from the immutable base).
    fn rewind(&mut self, _to: u32, _: Turn) -> Result<String, EngineError> {
        let v = &self.c.views[0];
        for part in &v.state {
            *part.lock() = ViewState::empty(v);
        }
        self.local = None;
        Ok("state reset to empty; rerunning".into())
    }
}
