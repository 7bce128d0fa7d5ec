use super::*;

impl<'a> FixpointExecutor<'a> {
    /// Resume a converged fixpoint from a view's resident state: `state` is
    /// what the view's last refresh converged to, `changed` the *inserted*
    /// delta rows per mutated base relation. Only sound for idempotent
    /// recursion (set semantics or min/max aggregates with Proven PreM) over
    /// insert-only deltas — the materialized-view layer certifies this
    /// before calling. Returns the result and the state it converged to;
    /// `state` itself is only read.
    ///
    /// The algorithm: copy the resident state flat, every tuple stamped round
    /// 0; re-evaluate base branches against the new catalog (re-merging
    /// converged rows is a no-op under idempotence, so only genuinely new
    /// base facts survive as deltas); additionally seed, for every recursive
    /// branch and every join position reading a changed relation, the join of
    /// the *warm* driver rows against only the *delta* rows at that position.
    /// Completeness: any new derivation tree has a bottommost node whose base
    /// leaf is new and whose recursive inputs are warm-derivable — that node
    /// is exactly warm ⋈ Δbase (covered by the seed), and everything above it
    /// flows through the ordinary semi-naive rounds, which the resumed loop
    /// re-enters at round 1 (warm rows keep stamp 0, so old-snapshot cutoffs
    /// of non-linear branches stay exact).
    pub fn run_resume(
        &self,
        spec: &FixpointSpec,
        state: &CliqueState,
        changed: &[(String, Vec<Row>)],
    ) -> Result<(u32, CliqueState), EngineError> {
        self.on_words_or_rows(true, |words| {
            if words {
                self.resume_on::<u64>(spec, state, changed)
            } else {
                self.resume_on::<Value>(spec, state, changed)
            }
        })
    }

    /// [`FixpointExecutor::run_resume`] on representation `C`.
    fn resume_on<C: Repr>(
        &self,
        spec: &FixpointSpec,
        lent: &CliqueState,
        changed: &[(String, Vec<Row>)],
    ) -> Result<Option<(u32, CliqueState)>, Halt> {
        let p = self.config().partitions;
        let Some((views, evals)) = self.resident_views::<C>(spec)? else {
            return Ok(None);
        };
        // Compile the loop branches against the *new* catalog; the index
        // store advances the build sides it holds by the inserted rows.
        let clique = self.compile_clique(spec, &views, evals)?;

        // The warm state, stamped round 0: a flat copy of the resident
        // partitions, or — held in the other representation — its rows.
        match C::lent(lent) {
            Some(resident) => {
                for (v, r) in views.iter().zip(resident) {
                    for (cell, part) in v.state.iter().zip(&r.parts) {
                        *cell.lock() = part.restamped();
                    }
                }
            }
            None => preload(&views, &lent.rows(Stamped::All))?,
        }

        // Re-evaluate base branches over the new catalog. Converged rows
        // re-merge as no-ops; inserted base facts become round-1 deltas.
        let mut base_buckets = self.base_buckets(spec, &views)?;

        // Delta-build seeding: warm driver ⋈ Δbase at each changed position.
        // One seed run per (join position, changed table); every other table
        // in the position's build plan sees its full new contents, so a
        // derivation touching several changed tables is still covered (the
        // duplicates this superset produces are no-ops under idempotence).
        let started = Instant::now();
        let mut warm_tuples: Vec<Option<Tuples<C>>> = views.iter().map(|_| None).collect();
        let mut read = vec![0u64; views.len()];
        for v in &spec.views {
            for prog in &v.recursive {
                for (si, step) in prog.steps.iter().enumerate() {
                    let BranchStep::HashJoin {
                        build: JoinBuild::Base(plan),
                        ..
                    } = step
                    else {
                        continue;
                    };
                    let mut tabs: Vec<String> = Vec::new();
                    plan.referenced_tables(&mut tabs);
                    for (table, delta_rows) in changed {
                        if !tabs.iter().any(|t| t.eq_ignore_ascii_case(table)) {
                            continue;
                        }
                        let target = &views[prog.target];
                        let (seed, snaps, delta) =
                            self.compile_seed_branch(prog, &views, si, table, delta_rows)?;
                        let mut partial = Partial::new(target);
                        let driver = &views[seed.driver];
                        // The warm tuples the delta can join drive the seed
                        // run, as an owned delta (no partition state lends
                        // it): found under the delta's keys when the delta is
                        // the first join and probes the driver's key, else
                        // the whole warm relation.
                        let keyed = (si == 0).then(|| keyed_warm(prog, driver, delta.rows()));
                        let warm = match keyed.flatten() {
                            Some(found) => found,
                            None => warm_tuples[seed.driver]
                                .get_or_insert_with(|| state_tuples(driver, RecAllMode::New, 0))
                                .clone(),
                        };
                        read[seed.driver] += warm.len() as u64;
                        let delta = DeltaBatch::Owned {
                            totals: warm,
                            increments: None,
                        };
                        let at = BranchAt {
                            snapshots: &snaps,
                            op_base: 0,
                            part: 0,
                            worker: 0,
                            fused: self.eval().fused,
                        };
                        let state = driver.state[0].lock();
                        let mut io = MapIo {
                            delta: &delta,
                            mode: seed.driver_value_mode,
                            state: &state,
                            partial: &mut partial,
                        };
                        run_branch(&seed, &mut io, &at)?;
                        drop(state);
                        for tuple in partial.finish().iter() {
                            let part = target.partition_of(tuple, p);
                            base_buckets[seed.target][part].push(tuple);
                        }
                    }
                }
            }
        }
        if let Some(t) = self.eval().trace {
            for (v, rows) in spec.views.iter().zip(read) {
                let label = format!("refresh seed {}", v.name);
                t.record_step("refresh".into(), label, rows, 0, started.elapsed());
            }
        }

        // Warm rows keep stamp 0 and the seeds merge at stamp 1, so the first
        // resumed round's old-snapshot cutoff selects exactly the warm rows.
        let iterations = self.drive(&mut SemiNaive::new(clique, base_buckets), 1)?;
        self.converged(&views);
        // The converged state is the view's next resident state: the caller
        // reads its result out of it.
        let resident = views.iter().map(ResidentView::take).collect();
        let mut state = C::resident(resident);
        state.kept_order = !views.iter().any(|v| v.reordered.load(Ordering::Relaxed));
        Ok(Some((iterations, state)))
    }

    /// A clique's resident state built from its converged rows, one batch
    /// per clique view: after a full run, and from a view's durable image at
    /// recovery — whose appended deltas merge here, under the views'
    /// monotone ops. Held in words when the clique's branches compile on
    /// them and every row fits its lanes — as a refresh would run it — and in
    /// rows otherwise.
    ///
    /// # Errors
    /// A row of another arity or type than its view's (a corrupt image).
    pub fn load_state<R: AsRef<[Row]>>(
        &self,
        spec: &FixpointSpec,
        rows: &[R],
    ) -> Result<CliqueState, EngineError> {
        self.on_words_or_rows(false, |words| {
            if words {
                self.load_on::<u64, R>(spec, rows)
            } else {
                self.load_on::<Value, R>(spec, rows)
            }
        })
    }

    /// [`FixpointExecutor::load_state`] on representation `C`.
    fn load_on<C: Repr, R: AsRef<[Row]>>(
        &self,
        spec: &FixpointSpec,
        rows: &[R],
    ) -> Result<Option<CliqueState>, Halt> {
        let Some((views, _)) = self.resident_views::<C>(spec)? else {
            return Ok(None);
        };
        preload(&views, rows)?;
        Ok(Some(C::resident(
            views.iter().map(ResidentView::take).collect(),
        )))
    }

    /// Compile one *seed* instance of a recursive branch for delta-seeded
    /// resume: sequential (each base build a single whole hash table, run on
    /// partition 0), with the base build at step `delta_pos` evaluated under
    /// an overlay catalog where `delta_table` holds only the inserted rows
    /// (returned too), and recursive build sides snapshotted from the warm
    /// state `views` hold.
    fn compile_seed_branch<C: Repr>(
        &self,
        prog: &BranchProgram,
        views: &[ViewRt<C>],
        delta_pos: usize,
        delta_table: &str,
        delta_rows: &[Row],
    ) -> Result<SeedRun<C>, Halt> {
        let Some(evals) = BranchEvals::compile(prog, views) else {
            return Err(Halt::Fatal(EngineError::Other(
                "a seed branch declined a clique its loop branches compiled for".into(),
            )));
        };
        let mut snaps: Vec<Snapshot<C>> = vec![None; prog.steps.len()];
        let mut delta = Relation::empty(Schema::empty());
        let seed = CompiledBranch::new(prog, evals, |si, build, join| {
            Ok(match build {
                JoinBuild::RecursiveAll { view, mode, .. } => {
                    let warm = state_tuples(&views[*view], RecAllMode::New, 0);
                    snaps[si] = Some(Arc::new(C::tuples_table(&warm, join)?));
                    BuildSide::Recursive {
                        view: *view,
                        mode: *mode,
                    }
                }
                JoinBuild::Base(plan) => {
                    let rel = if si == delta_pos {
                        self.eval()
                            .eval_with_table_delta(plan, delta_table, delta_rows)?
                    } else {
                        self.eval().evaluate(plan)?
                    };
                    // A seed run probes one whole table of the overlay once.
                    let whole = C::rows_table(rel.rows(), join)?;
                    if si == delta_pos {
                        delta = rel;
                    }
                    BuildSide::Partitioned(vec![Arc::new(whole)])
                }
            })
        })?;
        Ok((seed, snaps, delta))
    }
}
