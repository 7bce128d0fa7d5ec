//! Interleaving model checker for the engine's critical-section protocols.
//!
//! The rank-checked locks in [`crate::sync`] make lock-order deadlocks fail
//! fast, but they say nothing about *logical* races — protocols that take
//! every lock in the right order and still publish torn state. PR 7's
//! review found two of those in the shared-`Arc<RaSqlContext>` server path:
//! two concurrent refreshes of one materialized view could pair one
//! refresh's contents with the other's dependency records, and `DELETE`
//! could clobber rows inserted between its snapshot and its publish. Both
//! were fixed (per-view serialization guards; version-checked
//! `replace_rows_if`), but the fixes were argued by hand.
//!
//! This module replaces the hand argument with enumeration. Each protocol
//! is written as a small state machine: a shared state type plus a handful
//! of [`Thread`]s whose `step` functions advance a program counter through
//! the protocol's atomic sections (one step = one critical section = the
//! span of one lock hold in the real code). The checker then explores
//! thread interleavings — exhaustively up to a bound, or randomly from a
//! seeded splitmix64 stream — checking an invariant after every step and
//! flagging deadlock when every unfinished thread is blocked.
//!
//! [`protocols`] holds the five shipped models (matview publish, DELETE vs
//! INSERT, admission handoff, result-cache invalidation, a view statement's
//! journal record vs a concurrent compaction), each in a *fixed*
//! variant mirroring HEAD and a *reverted* variant that mechanically undoes
//! the fix. The test suite asserts the checker finds the PR-7 races on the
//! reverted variants and nothing on the fixed ones — so the models are
//! demonstrably sharp enough to see the bugs they guard against, and
//! `scripts/tier1.sh` keeps them that way.

use std::fmt;

// --------------------------------------------------------------------
// The modeling vocabulary
// --------------------------------------------------------------------

/// What one atomic step of a thread did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The step ran; advance to the next program counter.
    Next,
    /// The step ran; jump to this program counter (loops, retries).
    Goto(usize),
    /// The step could not run (waiting on a lock or condition). The state
    /// must be unmodified — the checker restores it from a clone and will
    /// retry the same program counter later in the schedule.
    Block,
    /// The thread finished.
    Done,
}

/// One modeled thread: a name for traces and a step function driven by a
/// program counter. Each call must model exactly one atomic section of the
/// real protocol (the span of one lock hold).
pub struct Thread<S> {
    /// Shown in violation traces.
    pub name: &'static str,
    /// Advance the thread by one atomic step from program counter `pc`.
    pub step: fn(&mut S, usize) -> Step,
}

/// A protocol model: shared state, threads, and an invariant checked after
/// every step (receiving which threads have finished, so end-state-only
/// conditions can gate on `done.iter().all(|d| *d)`).
pub struct Model<S> {
    /// Protocol name, shown in reports.
    pub name: &'static str,
    /// The initial shared state of every schedule.
    pub initial: S,
    /// The concurrent threads.
    pub threads: Vec<Thread<S>>,
    /// Checked after every step; an `Err` is a violation.
    pub invariant: fn(&S, &[bool]) -> Result<(), String>,
}

/// How a schedule went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The invariant failed after a step.
    Invariant,
    /// Unfinished threads exist and every one of them is blocked.
    Deadlock,
}

/// A counterexample: the failure, and the exact schedule that reaches it
/// (each entry is `thread-name@pc`).
#[derive(Debug, Clone)]
pub struct Violation {
    /// What kind of failure this is.
    pub kind: ViolationKind,
    /// The invariant's error message, or a deadlock description.
    pub message: String,
    /// The interleaving that produced it, in execution order.
    pub schedule: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [schedule: {}]",
            match self.kind {
                ViolationKind::Invariant => "invariant violated",
                ViolationKind::Deadlock => "deadlock",
            },
            self.message,
            self.schedule.join(" ")
        )
    }
}

/// Exploration counters for reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Complete schedules explored (every thread ran to Done).
    pub schedules: u64,
    /// Individual steps executed across all schedules.
    pub steps: u64,
    /// True when exploration stopped at a bound rather than exhausting the
    /// schedule space.
    pub truncated: bool,
}

/// The result of checking one model: the first violation found (if any)
/// plus exploration counters.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The first counterexample, or `None` if the explored space is clean.
    pub violation: Option<Violation>,
    /// How much was explored.
    pub stats: CheckStats,
}

/// Bounds for exhaustive exploration. The shipped protocols have a few
/// hundred to a few hundred thousand schedules; the defaults exhaust them.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Stop after this many complete schedules.
    pub max_schedules: u64,
    /// Stop after this many total steps.
    pub max_steps: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_schedules: 2_000_000,
            max_steps: 50_000_000,
        }
    }
}

// --------------------------------------------------------------------
// Exhaustive enumeration
// --------------------------------------------------------------------

struct Explorer<'m, S: Clone> {
    model: &'m Model<S>,
    limits: Limits,
    stats: CheckStats,
}

impl<S: Clone> Explorer<'_, S> {
    /// Depth-first over every runnable thread at every point. Returns the
    /// first violation, or `None` when the (bounded) space is clean.
    fn explore(
        &mut self,
        state: &S,
        pcs: &[usize],
        done: &[bool],
        trace: &mut Vec<String>,
    ) -> Option<Violation> {
        if done.iter().all(|d| *d) {
            self.stats.schedules += 1;
            return None;
        }
        if self.stats.schedules >= self.limits.max_schedules
            || self.stats.steps >= self.limits.max_steps
        {
            self.stats.truncated = true;
            return None;
        }
        let mut any_ran = false;
        for (i, thread) in self.model.threads.iter().enumerate() {
            if done[i] {
                continue;
            }
            let mut next_state = state.clone();
            let step = (thread.step)(&mut next_state, pcs[i]);
            self.stats.steps += 1;
            if step == Step::Block {
                continue; // state untouched by contract; clone discarded
            }
            any_ran = true;
            let mut next_pcs = pcs.to_vec();
            let mut next_done = done.to_vec();
            match step {
                Step::Next => next_pcs[i] += 1,
                Step::Goto(pc) => next_pcs[i] = pc,
                Step::Done => next_done[i] = true,
                Step::Block => unreachable!(),
            }
            trace.push(format!("{}@{}", thread.name, pcs[i]));
            if let Err(msg) = (self.model.invariant)(&next_state, &next_done) {
                return Some(Violation {
                    kind: ViolationKind::Invariant,
                    message: msg,
                    schedule: trace.clone(),
                });
            }
            let found = self.explore(&next_state, &next_pcs, &next_done, trace);
            trace.pop();
            if found.is_some() {
                return found;
            }
        }
        if !any_ran {
            // Unfinished threads exist (checked on entry) and none could
            // take a step: every one is blocked on every schedule from here.
            let stuck: Vec<String> = self
                .model
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| !done[*i])
                .map(|(i, t)| format!("{}@{}", t.name, pcs[i]))
                .collect();
            return Some(Violation {
                kind: ViolationKind::Deadlock,
                message: format!("all unfinished threads blocked: {}", stuck.join(", ")),
                schedule: trace.clone(),
            });
        }
        None
    }
}

/// Exhaustively enumerate every interleaving of `model` up to `limits`.
pub fn check_exhaustive<S: Clone>(model: &Model<S>, limits: Limits) -> CheckOutcome {
    let mut ex = Explorer {
        model,
        limits,
        stats: CheckStats::default(),
    };
    let pcs = vec![0usize; model.threads.len()];
    let done = vec![false; model.threads.len()];
    let violation = ex.explore(&model.initial, &pcs, &done, &mut Vec::new());
    CheckOutcome {
        violation,
        stats: ex.stats,
    }
}

// --------------------------------------------------------------------
// Seeded random scheduling
// --------------------------------------------------------------------

/// The splitmix64 generator (same finalizer the fault injector uses): cheap,
/// seeded, and fully deterministic across runs and platforms.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Run `schedules` random schedules of `model` from `seed`, picking a
/// uniformly random runnable thread at each step. Complements
/// [`check_exhaustive`]: it scales past the exhaustive bound (long retry
/// loops) at the price of completeness, and a reproduction seed can be
/// shared — the same seed explores the same schedules everywhere.
pub fn check_random<S: Clone>(model: &Model<S>, seed: u64, schedules: u64) -> CheckOutcome {
    let mut rng = SplitMix64(seed);
    let mut stats = CheckStats::default();
    // A schedule longer than this is wedged in a livelock; treat the bound
    // as "gave up on this schedule", not a violation.
    let max_steps_per_schedule = 10_000;
    for _ in 0..schedules {
        let mut state = model.initial.clone();
        let mut pcs = vec![0usize; model.threads.len()];
        let mut done = vec![false; model.threads.len()];
        let mut trace = Vec::new();
        let mut steps_this_schedule = 0;
        while !done.iter().all(|d| *d) {
            if steps_this_schedule >= max_steps_per_schedule {
                stats.truncated = true;
                break;
            }
            // Try runnable threads in a random rotation; the first that
            // doesn't block runs.
            let n = model.threads.len();
            let start = rng.below(n);
            let mut progressed = false;
            let mut blocked = Vec::new();
            for off in 0..n {
                let i = (start + off) % n;
                if done[i] {
                    continue;
                }
                let mut next_state = state.clone();
                let step = (model.threads[i].step)(&mut next_state, pcs[i]);
                stats.steps += 1;
                steps_this_schedule += 1;
                if step == Step::Block {
                    blocked.push(format!("{}@{}", model.threads[i].name, pcs[i]));
                    continue;
                }
                trace.push(format!("{}@{}", model.threads[i].name, pcs[i]));
                match step {
                    Step::Next => pcs[i] += 1,
                    Step::Goto(pc) => pcs[i] = pc,
                    Step::Done => done[i] = true,
                    Step::Block => unreachable!(),
                }
                state = next_state;
                progressed = true;
                break;
            }
            if !progressed {
                return CheckOutcome {
                    violation: Some(Violation {
                        kind: ViolationKind::Deadlock,
                        message: format!("all unfinished threads blocked: {}", blocked.join(", ")),
                        schedule: trace,
                    }),
                    stats,
                };
            }
            if let Err(msg) = (model.invariant)(&state, &done) {
                return CheckOutcome {
                    violation: Some(Violation {
                        kind: ViolationKind::Invariant,
                        message: msg,
                        schedule: trace,
                    }),
                    stats,
                };
            }
        }
        stats.schedules += 1;
    }
    CheckOutcome {
        violation: None,
        stats,
    }
}

// --------------------------------------------------------------------
// The shipped protocol models
// --------------------------------------------------------------------

pub mod protocols {
    //! The engine's critical-section protocols as checkable models, each in
    //! a `fixed` variant (mirroring HEAD) and a `reverted` variant that
    //! mechanically undoes the fix — the regression harness asserts the
    //! checker sees the bug in every `reverted` and nothing in any `fixed`.
    //!
    //! A step in these models corresponds to one lock-hold span in the real
    //! code: everything the engine does under one `lock()` is one atomic
    //! step here, and every lock release is a step boundary the scheduler
    //! may interleave at.

    use super::{check_exhaustive, CheckOutcome, Limits, Model, Step, Thread};

    // ----------------------------------------------------------------
    // 1. Matview refresh-vs-refresh publish (PR-7 race #1)
    // ----------------------------------------------------------------

    /// The observable publish state of one materialized view: which
    /// refresh's data each of the three publish sites currently holds
    /// (0 = the original, n = refresher n), plus the per-view serialization
    /// guard (`None` = free, `Some(t)` = held by thread t).
    #[derive(Clone)]
    pub struct MatViewPublish {
        guard: Option<usize>,
        contents: usize,
        dep_records: usize,
        warm_state: usize,
    }

    /// Refresh publishes in `core::context` order: table contents, then
    /// warm state, then dependency records. Coherence = all three carry the
    /// same refresh's data once everyone is done.
    fn matview_invariant(s: &MatViewPublish, done: &[bool]) -> Result<(), String> {
        if done.iter().all(|d| *d)
            && !(s.contents == s.dep_records && s.dep_records == s.warm_state)
        {
            return Err(format!(
                "torn publish: contents from refresh {}, warm state from {}, dep records from {}",
                s.contents, s.warm_state, s.dep_records
            ));
        }
        Ok(())
    }

    fn refresh_guarded(me: usize) -> fn(&mut MatViewPublish, usize) -> Step {
        // fn pointers can't capture; dispatch on a small fixed set instead.
        match me {
            1 => |s: &mut MatViewPublish, pc: usize| refresh_guarded_step(s, pc, 1),
            _ => |s: &mut MatViewPublish, pc: usize| refresh_guarded_step(s, pc, 2),
        }
    }

    fn refresh_guarded_step(s: &mut MatViewPublish, pc: usize, me: usize) -> Step {
        match pc {
            // Acquire the per-view serialization guard (context::view_lock).
            0 => {
                if s.guard.is_some() {
                    return Step::Block;
                }
                s.guard = Some(me);
                Step::Next
            }
            1 => {
                s.contents = me;
                Step::Next
            }
            2 => {
                s.warm_state = me;
                Step::Next
            }
            3 => {
                s.dep_records = me;
                Step::Next
            }
            _ => {
                s.guard = None;
                Step::Done
            }
        }
    }

    fn refresh_unguarded(me: usize) -> fn(&mut MatViewPublish, usize) -> Step {
        match me {
            1 => |s: &mut MatViewPublish, pc: usize| refresh_unguarded_step(s, pc, 1),
            _ => |s: &mut MatViewPublish, pc: usize| refresh_unguarded_step(s, pc, 2),
        }
    }

    fn refresh_unguarded_step(s: &mut MatViewPublish, pc: usize, me: usize) -> Step {
        // The PR-7 bug: each publish site is individually locked, but
        // nothing serializes the whole refresh.
        match pc {
            0 => {
                s.contents = me;
                Step::Next
            }
            1 => {
                s.warm_state = me;
                Step::Next
            }
            _ => {
                s.dep_records = me;
                Step::Done
            }
        }
    }

    /// Two concurrent refreshes of one view, serialized by the per-view
    /// guard (HEAD behavior).
    pub fn matview_publish_fixed() -> Model<MatViewPublish> {
        Model {
            name: "matview-publish/fixed",
            initial: MatViewPublish {
                guard: None,
                contents: 0,
                dep_records: 0,
                warm_state: 0,
            },
            threads: vec![
                Thread {
                    name: "refresh-1",
                    step: refresh_guarded(1),
                },
                Thread {
                    name: "refresh-2",
                    step: refresh_guarded(2),
                },
            ],
            invariant: matview_invariant,
        }
    }

    /// The same two refreshes with the per-view guard mechanically removed
    /// (the pre-PR-7 protocol). The checker finds a torn publish.
    pub fn matview_publish_reverted() -> Model<MatViewPublish> {
        Model {
            name: "matview-publish/reverted",
            initial: MatViewPublish {
                guard: None,
                contents: 0,
                dep_records: 0,
                warm_state: 0,
            },
            threads: vec![
                Thread {
                    name: "refresh-1",
                    step: refresh_unguarded(1),
                },
                Thread {
                    name: "refresh-2",
                    step: refresh_unguarded(2),
                },
            ],
            invariant: matview_invariant,
        }
    }

    // ----------------------------------------------------------------
    // 2. DELETE vs INSERT via replace_rows_if (PR-7 race #2)
    // ----------------------------------------------------------------

    /// One catalog table under a concurrent DELETE and INSERT. Rows are a
    /// bitmask (bit n = row n present); the version counter bumps on every
    /// mutation, exactly like `Catalog`.
    #[derive(Clone)]
    pub struct DeleteInsert {
        version: u64,
        rows: u32,
        /// DELETE's private snapshot: (version, kept-rows) captured by
        /// `get_versioned`.
        snapshot: Option<(u64, u32)>,
    }

    /// Rows 0 and 1 preexist; DELETE drops odd rows; INSERT adds row 2.
    /// Row 2 is even, so it must survive no matter how the two interleave.
    const PREEXISTING: u32 = 0b011;
    const INSERTED: u32 = 0b100;
    const ODD_ROWS: u32 = 0b010;

    fn delete_insert_invariant(s: &DeleteInsert, done: &[bool]) -> Result<(), String> {
        if done.iter().all(|d| *d) {
            if s.rows & INSERTED == 0 {
                return Err(
                    "lost insert: DELETE's publish clobbered the concurrently inserted row".into(),
                );
            }
            if s.rows & ODD_ROWS != 0 {
                return Err("DELETE failed to remove its target rows".into());
            }
        }
        Ok(())
    }

    fn insert_step(s: &mut DeleteInsert, _pc: usize) -> Step {
        // Catalog::insert_rows — one step, it holds the tables lock
        // throughout.
        s.rows |= INSERTED;
        s.version += 1;
        Step::Done
    }

    fn delete_checked_step(s: &mut DeleteInsert, pc: usize) -> Step {
        match pc {
            // get_versioned: snapshot rows + version, then evaluate the
            // keep-predicate against the snapshot (outside the lock).
            0 => {
                s.snapshot = Some((s.version, s.rows & !ODD_ROWS));
                Step::Next
            }
            // replace_rows_if: publish only if the version is unchanged;
            // otherwise loop back to re-snapshot (HEAD's retry loop).
            _ => {
                let (v, kept) = s.snapshot.expect("snapshot taken at pc 0");
                if s.version == v {
                    s.rows = kept;
                    s.version += 1;
                    Step::Done
                } else {
                    Step::Goto(0)
                }
            }
        }
    }

    fn delete_unchecked_step(s: &mut DeleteInsert, pc: usize) -> Step {
        // The PR-7 bug: replace_rows publishes the stale snapshot
        // unconditionally.
        match pc {
            0 => {
                s.snapshot = Some((s.version, s.rows & !ODD_ROWS));
                Step::Next
            }
            _ => {
                let (_, kept) = s.snapshot.expect("snapshot taken at pc 0");
                s.rows = kept;
                s.version += 1;
                Step::Done
            }
        }
    }

    fn delete_insert_initial() -> DeleteInsert {
        DeleteInsert {
            version: 1,
            rows: PREEXISTING,
            snapshot: None,
        }
    }

    /// DELETE publishes through version-checked `replace_rows_if` with a
    /// retry loop (HEAD behavior).
    pub fn delete_insert_fixed() -> Model<DeleteInsert> {
        Model {
            name: "delete-insert/fixed",
            initial: delete_insert_initial(),
            threads: vec![
                Thread {
                    name: "delete",
                    step: delete_checked_step,
                },
                Thread {
                    name: "insert",
                    step: insert_step,
                },
            ],
            invariant: delete_insert_invariant,
        }
    }

    /// DELETE publishes through unconditional `replace_rows` (the pre-PR-7
    /// protocol). The checker finds the lost insert.
    pub fn delete_insert_reverted() -> Model<DeleteInsert> {
        Model {
            name: "delete-insert/reverted",
            initial: delete_insert_initial(),
            threads: vec![
                Thread {
                    name: "delete",
                    step: delete_unchecked_step,
                },
                Thread {
                    name: "insert",
                    step: insert_step,
                },
            ],
            invariant: delete_insert_invariant,
        }
    }

    // ----------------------------------------------------------------
    // 3. Admission queue handoff
    // ----------------------------------------------------------------

    /// The admission controller's counters plus an explicit wakeup token,
    /// modeling the condvar (a waiter only re-checks after a notify).
    #[derive(Clone)]
    pub struct Admission {
        running: usize,
        waiting: usize,
        wakeups: usize,
        admitted: usize,
    }

    const MAX_CONCURRENT: usize = 1;

    fn admission_invariant(s: &Admission, done: &[bool]) -> Result<(), String> {
        if s.running > MAX_CONCURRENT {
            return Err(format!(
                "admission over cap: {} running > {} allowed",
                s.running, MAX_CONCURRENT
            ));
        }
        if done.iter().all(|d| *d) && s.admitted != 2 {
            return Err(format!("only {} of 2 queries ever admitted", s.admitted));
        }
        Ok(())
    }

    fn holder_release_notify(s: &mut Admission, _pc: usize) -> Step {
        // AdmissionPermit::drop: decrement under the lock, then notify.
        s.running -= 1;
        if s.waiting > 0 {
            s.wakeups += 1;
        }
        Step::Done
    }

    fn holder_release_silent(s: &mut Admission, _pc: usize) -> Step {
        // Reverted variant: the release forgets to notify the condvar.
        s.running -= 1;
        Step::Done
    }

    fn waiter_step(s: &mut Admission, pc: usize) -> Step {
        match pc {
            // admit(): fast path or enqueue, one lock hold.
            0 => {
                if s.running < MAX_CONCURRENT {
                    s.running += 1;
                    s.admitted += 1;
                    return Step::Goto(2);
                }
                s.waiting += 1;
                Step::Next
            }
            // cond.wait(): block until a wakeup token exists, then consume
            // it and re-check the admission condition.
            1 => {
                if s.wakeups == 0 {
                    return Step::Block;
                }
                s.wakeups -= 1;
                if s.running < MAX_CONCURRENT {
                    s.waiting -= 1;
                    s.running += 1;
                    s.admitted += 1;
                    return Step::Goto(2);
                }
                Step::Block
            }
            // Run the query, then release the slot (permit drop).
            _ => {
                s.running -= 1;
                Step::Done
            }
        }
    }

    fn admission_initial() -> Admission {
        Admission {
            // One query already holds the single slot; one will arrive.
            running: 1,
            waiting: 0,
            wakeups: 0,
            admitted: 1,
        }
    }

    /// A full slot handoff: the holder releases-and-notifies, the waiter
    /// wakes and admits (HEAD behavior).
    pub fn admission_handoff_fixed() -> Model<Admission> {
        Model {
            name: "admission-handoff/fixed",
            initial: admission_initial(),
            threads: vec![
                Thread {
                    name: "holder",
                    step: holder_release_notify,
                },
                Thread {
                    name: "waiter",
                    step: waiter_step,
                },
            ],
            invariant: admission_invariant,
        }
    }

    /// The release with the notify mechanically removed: the waiter sleeps
    /// forever on the condvar. The checker reports a deadlock.
    pub fn admission_handoff_reverted() -> Model<Admission> {
        Model {
            name: "admission-handoff/reverted",
            initial: admission_initial(),
            threads: vec![
                Thread {
                    name: "holder",
                    step: holder_release_silent,
                },
                Thread {
                    name: "waiter",
                    step: waiter_step,
                },
            ],
            invariant: admission_invariant,
        }
    }

    // ----------------------------------------------------------------
    // 4. Result-cache invalidation
    // ----------------------------------------------------------------

    /// A one-entry result cache in front of a versioned table. An entry
    /// records the data version its result was computed at; a cache hit is
    /// a *stale serve* when, at the moment of the serve, that version is no
    /// longer the table's current one. (A write landing *after* a serve is
    /// a legal serialization — the read simply ordered first.)
    #[derive(Clone)]
    pub struct ResultCacheProto {
        table_version: u64,
        /// `(keyed_version, computed_at)`: `keyed_version` is what lookup
        /// compares against (the version fingerprint in the key on HEAD;
        /// ignored in the reverted variant), `computed_at` is the data the
        /// entry actually holds.
        entry: Option<(u64, u64)>,
        /// Most recent executed-read version (keys the entry it populates).
        executed: u64,
        /// Set at the moment a cache hit serves outdated data.
        stale: Option<String>,
    }

    fn result_cache_invariant(s: &ResultCacheProto, _done: &[bool]) -> Result<(), String> {
        match &s.stale {
            Some(msg) => Err(msg.clone()),
            None => Ok(()),
        }
    }

    /// Record a cache-hit serve, flagging it when the served data is no
    /// longer current at serve time.
    fn serve_from_cache(s: &mut ResultCacheProto, computed: u64) {
        if computed != s.table_version {
            s.stale = Some(format!(
                "stale serve: cache hit returned data of version {computed} while the table \
                 is at version {}",
                s.table_version
            ));
        }
    }

    fn writer_step(s: &mut ResultCacheProto, _pc: usize) -> Step {
        // One catalog mutation; version-keyed entries stop matching at the
        // moment this commits (their fingerprint is stale).
        s.table_version += 1;
        Step::Done
    }

    fn reader_versioned_step(s: &mut ResultCacheProto, pc: usize) -> Step {
        match pc {
            // Lookup: an entry hits only if its keyed version matches the
            // current fingerprint (the fingerprint is part of the key).
            0 => match s.entry {
                Some((keyed, computed)) if keyed == s.table_version => {
                    serve_from_cache(s, computed);
                    Step::Done
                }
                _ => Step::Next,
            },
            // Miss: execute against the current version...
            1 => {
                s.executed = s.table_version;
                Step::Next
            }
            // ...and populate the cache, keyed by the version it read.
            _ => {
                s.entry = Some((s.executed, s.executed));
                Step::Done
            }
        }
    }

    fn reader_unversioned_step(s: &mut ResultCacheProto, pc: usize) -> Step {
        // Reverted variant: the key omits the version fingerprint, so any
        // entry hits regardless of the table's current version.
        match pc {
            0 => match s.entry {
                Some((_, computed)) => {
                    serve_from_cache(s, computed);
                    Step::Done
                }
                None => Step::Next,
            },
            1 => {
                s.executed = s.table_version;
                Step::Next
            }
            _ => {
                s.entry = Some((s.executed, s.executed));
                Step::Done
            }
        }
    }

    fn result_cache_initial() -> ResultCacheProto {
        ResultCacheProto {
            table_version: 1,
            entry: None,
            executed: 0,
            stale: None,
        }
    }

    /// Two sequential readers around a concurrent writer, cache keyed by
    /// version fingerprint (HEAD behavior): a stale entry can never hit.
    pub fn result_cache_fixed() -> Model<ResultCacheProto> {
        Model {
            name: "result-cache/fixed",
            initial: result_cache_initial(),
            threads: vec![
                Thread {
                    name: "reader-1",
                    step: reader_versioned_step,
                },
                Thread {
                    name: "writer",
                    step: writer_step,
                },
                Thread {
                    name: "reader-2",
                    step: reader_versioned_step,
                },
            ],
            invariant: result_cache_invariant,
        }
    }

    /// The same threads with the version fingerprint mechanically dropped
    /// from the cache key. The checker finds a stale serve.
    pub fn result_cache_reverted() -> Model<ResultCacheProto> {
        Model {
            name: "result-cache/reverted",
            initial: result_cache_initial(),
            threads: vec![
                Thread {
                    name: "reader-1",
                    step: reader_unversioned_step,
                },
                Thread {
                    name: "writer",
                    step: writer_step,
                },
                Thread {
                    name: "reader-2",
                    step: reader_unversioned_step,
                },
            ],
            invariant: result_cache_invariant,
        }
    }

    // ----------------------------------------------------------------
    // 5. A view statement's journal record vs a concurrent compaction
    // ----------------------------------------------------------------

    /// A materialized-view statement (`materialize`) journaling its record
    /// while another thread's INSERT compacts (`maybe_compact` under
    /// `snapshot_every(1)`). The compactor collects without the log's lock —
    /// the log position, then the registry under its lock — and publishes
    /// only if the position is unchanged; the snapshot then replaces the log.
    #[derive(Clone)]
    pub struct ViewJournal {
        /// Records appended so far (a snapshot does not reset it).
        position: u32,
        /// The statement's record is in the log.
        logged: bool,
        /// The live registry holds the statement's new entry.
        registered: bool,
        /// The registry lock is held by the statement.
        registry_held: bool,
        /// The published snapshot holds the new entry.
        snapshotted: bool,
        /// The statement returned to its caller.
        acknowledged: bool,
        /// The compactor's collection: the position it read...
        expected: u32,
        /// ...and whether the registry it cloned held the new entry.
        collected: bool,
    }

    fn view_journal_invariant(s: &ViewJournal, _done: &[bool]) -> Result<(), String> {
        if s.acknowledged && !(s.logged || s.snapshotted) {
            return Err(
                "lost record: an acknowledged view statement is in neither the log \
                        nor the snapshot"
                    .into(),
            );
        }
        Ok(())
    }

    fn statement_locked_step(s: &mut ViewJournal, pc: usize) -> Step {
        match pc {
            // The registry is locked before the record is appended...
            0 => {
                s.registry_held = true;
                Step::Next
            }
            // ...the append (under the log's own lock)...
            1 => {
                s.position += 1;
                s.logged = true;
                Step::Next
            }
            // ...and the entry inserted before the registry is released.
            2 => {
                s.registered = true;
                s.registry_held = false;
                Step::Next
            }
            _ => {
                s.acknowledged = true;
                Step::Done
            }
        }
    }

    fn statement_unlocked_step(s: &mut ViewJournal, pc: usize) -> Step {
        // Reverted variant: the append and the registry insert are separate
        // lock holds, so a collection can fall between them.
        match pc {
            0 => {
                s.position += 1;
                s.logged = true;
                Step::Next
            }
            1 => {
                s.registered = true;
                Step::Next
            }
            _ => {
                s.acknowledged = true;
                Step::Done
            }
        }
    }

    fn compactor_step(s: &mut ViewJournal, pc: usize) -> Step {
        match pc {
            // The other thread's INSERT appends its own record...
            0 => {
                s.position += 1;
                Step::Next
            }
            // ...then reads the log position...
            1 => {
                s.expected = s.position;
                Step::Next
            }
            // ...clones the registry under its lock...
            2 => {
                if s.registry_held {
                    return Step::Block;
                }
                s.collected = s.registered;
                Step::Next
            }
            // ...and, under the log's lock, publishes and truncates if no
            // record landed meanwhile, or collects again.
            _ => {
                if s.position != s.expected {
                    return Step::Goto(1);
                }
                s.snapshotted = s.collected;
                s.logged = false;
                Step::Done
            }
        }
    }

    fn view_journal(
        name: &'static str,
        statement: fn(&mut ViewJournal, usize) -> Step,
    ) -> Model<ViewJournal> {
        Model {
            name,
            initial: ViewJournal {
                position: 0,
                logged: false,
                registered: false,
                registry_held: false,
                snapshotted: false,
                acknowledged: false,
                expected: 0,
                collected: false,
            },
            threads: vec![
                Thread {
                    name: "view-statement",
                    step: statement,
                },
                Thread {
                    name: "compactor",
                    step: compactor_step,
                },
            ],
            invariant: view_journal_invariant,
        }
    }

    /// The statement holds the registry lock from its journal append to its
    /// registry insert (HEAD behavior): a collection in between waits for
    /// the entry, one before the append fails the count check.
    pub fn view_journal_fixed() -> Model<ViewJournal> {
        view_journal("view-journal/fixed", statement_locked_step)
    }

    /// The append and the registry insert as separate lock holds: a
    /// collection between them publishes a snapshot without the entry and
    /// truncates its record. The checker finds the lost record.
    pub fn view_journal_reverted() -> Model<ViewJournal> {
        view_journal("view-journal/reverted", statement_unlocked_step)
    }

    // ----------------------------------------------------------------
    // The suite
    // ----------------------------------------------------------------

    /// One protocol's fixed/reverted pair, checked exhaustively.
    pub struct ProtocolReport {
        /// The protocol name (without the variant suffix).
        pub protocol: &'static str,
        /// Exhaustive check of the HEAD-mirroring variant.
        pub fixed: CheckOutcome,
        /// Exhaustive check of the fix-reverted variant.
        pub reverted: CheckOutcome,
    }

    impl ProtocolReport {
        /// The pass condition: HEAD clean, revert caught, neither truncated.
        pub fn ok(&self) -> bool {
            self.fixed.violation.is_none()
                && self.reverted.violation.is_some()
                && !self.fixed.stats.truncated
                && !self.reverted.stats.truncated
        }
    }

    /// Exhaustively check every shipped protocol, fixed and reverted.
    pub fn check_all() -> Vec<ProtocolReport> {
        let limits = Limits::default();
        vec![
            ProtocolReport {
                protocol: "matview-publish",
                fixed: check_exhaustive(&matview_publish_fixed(), limits),
                reverted: check_exhaustive(&matview_publish_reverted(), limits),
            },
            ProtocolReport {
                protocol: "delete-insert",
                fixed: check_exhaustive(&delete_insert_fixed(), limits),
                reverted: check_exhaustive(&delete_insert_reverted(), limits),
            },
            ProtocolReport {
                protocol: "admission-handoff",
                fixed: check_exhaustive(&admission_handoff_fixed(), limits),
                reverted: check_exhaustive(&admission_handoff_reverted(), limits),
            },
            ProtocolReport {
                protocol: "result-cache",
                fixed: check_exhaustive(&result_cache_fixed(), limits),
                reverted: check_exhaustive(&result_cache_reverted(), limits),
            },
            ProtocolReport {
                protocol: "view-journal",
                fixed: check_exhaustive(&view_journal_fixed(), limits),
                reverted: check_exhaustive(&view_journal_reverted(), limits),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two incrementers with a read-modify-write torn across two steps —
    /// the canonical lost update, to exercise the checker itself.
    #[derive(Clone)]
    struct Counter {
        value: u64,
        stash: [u64; 2],
    }

    fn torn_inc(me: usize) -> fn(&mut Counter, usize) -> Step {
        match me {
            0 => |s: &mut Counter, pc: usize| torn_inc_step(s, pc, 0),
            _ => |s: &mut Counter, pc: usize| torn_inc_step(s, pc, 1),
        }
    }

    fn torn_inc_step(s: &mut Counter, pc: usize, me: usize) -> Step {
        match pc {
            0 => {
                s.stash[me] = s.value;
                Step::Next
            }
            _ => {
                s.value = s.stash[me] + 1;
                Step::Done
            }
        }
    }

    fn counter_model() -> Model<Counter> {
        Model {
            name: "torn-counter",
            initial: Counter {
                value: 0,
                stash: [0, 0],
            },
            threads: vec![
                Thread {
                    name: "inc-0",
                    step: torn_inc(0),
                },
                Thread {
                    name: "inc-1",
                    step: torn_inc(1),
                },
            ],
            invariant: |s, done| {
                if done.iter().all(|d| *d) && s.value != 2 {
                    Err(format!("lost update: counter is {}, expected 2", s.value))
                } else {
                    Ok(())
                }
            },
        }
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let out = check_exhaustive(&counter_model(), Limits::default());
        let v = out.violation.expect("lost update must be found");
        assert_eq!(v.kind, ViolationKind::Invariant);
        assert!(v.message.contains("lost update"), "{v}");
        // The counterexample schedule interleaves the two reads before
        // either write.
        assert!(v.schedule.len() >= 3, "{v}");
    }

    #[test]
    fn random_finds_lost_update_deterministically() {
        let a = check_random(&counter_model(), 42, 200);
        let b = check_random(&counter_model(), 42, 200);
        assert!(a.violation.is_some());
        // Same seed, same counterexample.
        assert_eq!(a.violation.unwrap().schedule, b.violation.unwrap().schedule);
    }

    #[test]
    fn deadlock_detected() {
        // Two threads each waiting for the other's flag: a pure deadlock.
        #[derive(Clone)]
        struct TwoFlags([bool; 2]);
        let model = Model {
            name: "cross-wait",
            initial: TwoFlags([false, false]),
            threads: vec![
                Thread {
                    name: "a",
                    step: |s: &mut TwoFlags, _| if s.0[1] { Step::Done } else { Step::Block },
                },
                Thread {
                    name: "b",
                    step: |s: &mut TwoFlags, _| if s.0[0] { Step::Done } else { Step::Block },
                },
            ],
            invariant: |_, _| Ok(()),
        };
        let out = check_exhaustive(&model, Limits::default());
        assert_eq!(
            out.violation.expect("deadlock").kind,
            ViolationKind::Deadlock
        );
    }

    #[test]
    fn clean_model_reports_schedule_count() {
        // Two independent two-step threads: C(4,2) = 6 interleavings.
        #[derive(Clone)]
        struct Nothing;
        let step = |_: &mut Nothing, pc: usize| if pc == 0 { Step::Next } else { Step::Done };
        let model = Model {
            name: "independent",
            initial: Nothing,
            threads: vec![Thread { name: "a", step }, Thread { name: "b", step }],
            invariant: |_, _| Ok(()),
        };
        let out = check_exhaustive(&model, Limits::default());
        assert!(out.violation.is_none());
        assert_eq!(out.stats.schedules, 6);
        assert!(!out.stats.truncated);
    }

    #[test]
    fn truncation_is_reported() {
        #[derive(Clone)]
        struct Nothing;
        let step = |_: &mut Nothing, pc: usize| if pc < 8 { Step::Next } else { Step::Done };
        let model = Model {
            name: "wide",
            initial: Nothing,
            threads: (0..4).map(|_| Thread { name: "t", step }).collect(),
            invariant: |_, _| Ok(()),
        };
        let out = check_exhaustive(
            &model,
            Limits {
                max_schedules: 5,
                max_steps: u64::MAX,
            },
        );
        assert!(out.stats.truncated);
        assert!(out.violation.is_none());
    }
}
