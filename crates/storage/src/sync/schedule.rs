//! A deterministic scheduler over the ranked locks (debug builds only).
//!
//! A test hands [`Schedule`] two or three closures. Each runs on a thread of
//! its own, but only one of them runs at a time: every acquire and release
//! of a lock whose rank the test names, and every
//! [`RankedCondvarMutex`](super::RankedCondvarMutex) wait and notify, hands
//! control back to the scheduler, which picks the thread that goes on. A
//! thread that asks for a lock another scheduled thread holds (at any rank)
//! is parked until the holder releases it; a condvar waiter is parked until
//! a scheduled thread notifies it. When every unfinished thread is parked
//! the run is a deadlock.
//!
//! A run is one schedule. [`Strategy::Preemptions`] enumerates every
//! schedule that switches away from a thread able to go on at most `n`
//! times, depth-first; [`Strategy::Seeded`] draws schedules from a
//! [`splitmix64`](crate::splitmix64) stream. Either explores the same
//! schedules in the same order on every run, as long as the code under test
//! takes the same named locks in the same order when it is scheduled the
//! same way (a replay that finds other choices fails the exploration).
//!
//! Only scheduled threads are scheduled. Any other thread (a cluster worker)
//! runs freely, so a test names only ranks at which a parked thread holds
//! nothing such a thread takes; otherwise the running thread may wait on a
//! worker that waits on a parked thread, and the run fails at [`STALL`].
//! Notifications from unscheduled threads do not reach scheduled waiters.

use super::LockRank;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long the running thread may go without reaching a scheduling point
/// before the run fails as stalled; its threads are then left behind.
pub const STALL: Duration = Duration::from_secs(30);

/// Schedules an exploration runs at most before it reports itself truncated.
pub const MAX_SCHEDULES: usize = 2_000;

/// How the scheduler picks among the threads able to go on.
#[derive(Debug, Clone, Copy)]
pub enum Strategy {
    /// Every schedule with at most this many preemptions, depth-first. A
    /// preemption is a switch away from a thread that could go on.
    Preemptions(usize),
    /// `runs` schedules, each choice drawn from a splitmix64 stream seeded
    /// with `seed`.
    Seeded {
        /// The stream's seed.
        seed: u64,
        /// Schedules to run.
        runs: usize,
    },
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Schedules run to completion.
    pub schedules: usize,
    /// Times a thread was parked on a lock another scheduled thread held.
    pub parked: usize,
    /// The exploration stopped at [`MAX_SCHEDULES`] before covering its
    /// bound.
    pub truncated: bool,
}

/// The threads of a scheduled test and how to explore them; see the
/// [module docs](self).
pub struct Schedule<S> {
    ranks: Vec<LockRank>,
    strategy: Strategy,
    threads: Vec<(&'static str, Body<S>)>,
}

type Body<S> = Arc<dyn Fn(&S) + Send + Sync>;

impl<S: Send + Sync + 'static> Schedule<S> {
    /// Switch threads at the locks of `ranks` (and at condvar waits and
    /// notifies of those ranks) under `strategy`.
    pub fn new(ranks: &[LockRank], strategy: Strategy) -> Self {
        Schedule {
            ranks: ranks.to_vec(),
            strategy,
            threads: Vec::new(),
        }
    }

    /// Add a scheduled thread running `body` on the shared state.
    #[must_use]
    pub fn thread(mut self, name: &'static str, body: impl Fn(&S) + Send + Sync + 'static) -> Self {
        self.threads.push((name, Arc::new(body)));
        self
    }

    /// Run every schedule of the strategy: each on a fresh state from
    /// `setup`, checked by `check` once every thread has returned.
    ///
    /// # Errors
    /// The first schedule in which a thread panicked, `check` failed, every
    /// unfinished thread was parked, the running thread stalled, or a
    /// replay diverged: what went wrong, then the schedule up to it, one
    /// `thread: step` a line.
    pub fn explore(
        &self,
        mut setup: impl FnMut() -> S,
        mut check: impl FnMut(&S) -> Result<(), String>,
    ) -> Result<Explored, String> {
        let mut chooser = Chooser::new(self.strategy);
        let mut explored = Explored {
            schedules: 0,
            parked: 0,
            truncated: false,
        };
        loop {
            let state = Arc::new(setup());
            let (outcome, trace) = self.run_one(&state, &mut chooser, &mut explored.parked);
            if let Err(message) = outcome.and_then(|()| check(&state)) {
                return Err(format!("{message}\nschedule:\n  {}", trace.join("\n  ")));
            }
            explored.schedules += 1;
            if !chooser.next_schedule() {
                return Ok(explored);
            }
            if explored.schedules >= MAX_SCHEDULES {
                explored.truncated = true;
                return Ok(explored);
            }
        }
    }

    /// One schedule: how it ended, and the decisions made.
    fn run_one(
        &self,
        state: &Arc<S>,
        chooser: &mut Chooser,
        parked: &mut usize,
    ) -> (Result<(), String>, Vec<String>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                threads: vec![Turn::Running; self.threads.len()],
                held: HashMap::new(),
                waiters: HashMap::new(),
                ranks: self.ranks.clone(),
                abort: false,
                panic: None,
                parked: 0,
            }),
            turn: Condvar::new(),
        });
        let handles: Vec<_> = (self.threads.iter().enumerate())
            .map(|(me, (name, body))| {
                let (shared, state, body) =
                    (Arc::clone(&shared), Arc::clone(state), Arc::clone(body));
                std::thread::Builder::new()
                    .name((*name).to_string())
                    .spawn(move || run_thread(&shared, me, || body(&state)))
                    .expect("spawn a scheduled thread")
            })
            .collect();
        let name = |t: usize| self.threads[t].0;
        let running = |st: &State| st.threads.iter().position(|t| matches!(t, Turn::Running));
        let done = |st: &State| st.threads.iter().all(|t| matches!(t, Turn::Done));
        let (mut trace, mut last, mut stalled) = (Vec::new(), None, false);
        let mut st = shared.lock();
        let outcome = loop {
            st = shared.wait_while(st, |st| running(st).is_some());
            if let Some(t) = running(&st) {
                stalled = true;
                break Err(format!("stalled: {} ran for {STALL:?}", name(t)));
            }
            if let Some(message) = st.panic.take() {
                break Err(message);
            }
            if done(&st) {
                break Ok(());
            }
            let enabled: Vec<usize> = (0..st.threads.len()).filter(|&t| st.enabled(t)).collect();
            if enabled.is_empty() {
                let stuck: Vec<String> = (st.threads.iter().enumerate())
                    .filter_map(|(t, turn)| match turn {
                        Turn::At(op) => Some(format!("{}: {op}", name(t))),
                        _ => None,
                    })
                    .collect();
                let stuck = stuck.join(", ");
                break Err(format!(
                    "deadlock: every unfinished thread is parked ({stuck})"
                ));
            }
            let pick = match chooser.pick(last, &enabled) {
                Ok(pick) => pick,
                Err(message) => break Err(message),
            };
            let Turn::At(op) = st.threads[pick] else {
                unreachable!("an enabled thread is at a scheduling point")
            };
            if let Op::Acquire { lock, shared, .. } = op {
                st.held.entry(lock).or_default().push((pick, shared));
            }
            if let Some(l) = last.filter(|&l| l != pick && enabled.contains(&l)) {
                trace.push(format!("{}: preempted", name(l)));
            }
            trace.push(format!("{}: {op}", name(pick)));
            st.threads[pick] = Turn::Running;
            last = Some(pick);
            shared.turn.notify_all();
        };
        *parked += st.parked;
        if outcome.is_err() {
            // Parked threads unwind from their scheduling point.
            st.abort = true;
            shared.turn.notify_all();
        }
        if !stalled {
            st = shared.wait_while(st, |st| !done(st));
        }
        // A thread still blocked outside the scheduler is left behind.
        if done(&st) {
            drop(st);
            for handle in handles {
                let _ = handle.join();
            }
        }
        (outcome, trace)
    }
}

/// Where a scheduled thread stands: running (or not yet at its first
/// scheduling point), waiting at one to be picked, or returned.
#[derive(Debug, Clone, Copy)]
enum Turn {
    Running,
    At(Op),
    Done,
}

/// What a thread does when it is picked next.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Its first step.
    Start,
    /// Take the lock at address `lock`; `shared` for a read lock.
    Acquire {
        lock: usize,
        rank: LockRank,
        shared: bool,
    },
    /// Go on after releasing a lock.
    Released(LockRank),
    /// Go on after notifying a condvar.
    Notified(LockRank),
    /// Parked on a condvar until notified.
    Wait(LockRank),
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, rank) = match *self {
            Op::Start => return write!(f, "start"),
            Op::Acquire { rank, shared, .. } => (if shared { "read" } else { "lock" }, rank),
            Op::Released(rank) => ("unlock", rank),
            Op::Notified(rank) => ("notify", rank),
            Op::Wait(rank) => ("wait", rank),
        };
        write!(f, "{what} {}", rank.name())
    }
}

struct State {
    threads: Vec<Turn>,
    /// Scheduled holders of each lock, by address: `(thread, shared)`.
    held: HashMap<usize, Vec<(usize, bool)>>,
    /// Threads waiting on each condvar, by its lock's address, oldest first.
    waiters: HashMap<usize, Vec<usize>>,
    ranks: Vec<LockRank>,
    /// The schedule failed: parked threads unwind.
    abort: bool,
    /// The first panic of a scheduled thread.
    panic: Option<String>,
    parked: usize,
}

impl State {
    /// Whether a thread may take the lock at `lock` now: nobody holds it,
    /// or it is read-locked and `shared` asks for a read lock too.
    fn available(&self, lock: usize, shared: bool) -> bool {
        (self.held.get(&lock)).is_none_or(|holders| shared && holders.iter().all(|&(_, s)| s))
    }

    fn enabled(&self, t: usize) -> bool {
        match self.threads[t] {
            Turn::At(Op::Acquire { lock, shared, .. }) => self.available(lock, shared),
            Turn::At(Op::Wait(_)) | Turn::Running | Turn::Done => false,
            Turn::At(_) => true,
        }
    }

    fn release(&mut self, lock: usize, me: usize) {
        if let Some(holders) = self.held.get_mut(&lock) {
            if let Some(at) = holders.iter().position(|&(t, _)| t == me) {
                holders.swap_remove(at);
            }
            if holders.is_empty() {
                self.held.remove(&lock);
            }
        }
    }
}

struct Shared {
    state: Mutex<State>,
    turn: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait while `busy` holds, giving up after [`STALL`] without a change.
    fn wait_while<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        busy: impl Fn(&State) -> bool,
    ) -> MutexGuard<'a, State> {
        while busy(&st) {
            let (next, waited) =
                (self.turn.wait_timeout(st, STALL)).unwrap_or_else(PoisonError::into_inner);
            st = next;
            if waited.timed_out() {
                break;
            }
        }
        st
    }

    /// Stop at `op` until the scheduler hands this thread the turn again;
    /// unwinds when the schedule is aborted.
    fn park(&self, mut st: MutexGuard<'_, State>, me: usize, op: Op) {
        st.threads[me] = Turn::At(op);
        self.turn.notify_all();
        while !st.abort && !matches!(st.threads[me], Turn::Running) {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.abort {
            drop(st);
            panic::resume_unwind(Box::new(Aborted));
        }
    }
}

/// The payload a parked thread unwinds with when its schedule fails.
struct Aborted;

thread_local! {
    /// The scheduler of the calling thread and its index, when scheduled.
    static CURRENT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Shared>, usize)> {
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

fn run_thread(shared: &Arc<Shared>, me: usize, body: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(shared), me)));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        shared.park(shared.lock(), me, Op::Start);
        body();
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut st = shared.lock();
    if let Err(payload) = result {
        if !payload.is::<Aborted>() && st.panic.is_none() {
            let text = (payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            let name = std::thread::current().name().unwrap_or("?").to_string();
            st.panic = Some(format!("{name} panicked: {text}"));
        }
    }
    st.threads[me] = Turn::Done;
    shared.turn.notify_all();
}

/// Run `f` with the calling thread's scheduler, if it is a scheduled thread
/// that is not unwinding. Once the schedule is aborted, any further lock
/// operation of the thread unwinds.
fn scheduled(f: impl FnOnce(&Shared, MutexGuard<'_, State>, usize)) {
    let Some((shared, me)) = current().filter(|_| !std::thread::panicking()) else {
        return;
    };
    let st = shared.lock();
    if st.abort {
        drop(st);
        panic::resume_unwind(Box::new(Aborted));
    }
    f(&shared, st, me);
}

/// Before taking the lock at `lock`: yield if its rank is named, park while
/// another scheduled thread holds it.
pub(super) fn acquire(rank: LockRank, lock: usize, shared: bool) {
    scheduled(|sched, mut st, me| {
        let free = st.available(lock, shared);
        if free && !st.ranks.contains(&rank) {
            st.held.entry(lock).or_default().push((me, shared));
            return;
        }
        st.parked += usize::from(!free);
        sched.park(st, me, Op::Acquire { lock, rank, shared });
    });
}

/// After releasing the lock at `lock`: yield if its rank is named. A thread
/// unwinding gives the lock up without yielding.
pub(super) fn release(rank: LockRank, lock: usize) {
    if std::thread::panicking() {
        if let Some((shared, me)) = current() {
            shared.lock().release(lock, me);
        }
        return;
    }
    scheduled(|sched, mut st, me| {
        st.release(lock, me);
        if st.ranks.contains(&rank) {
            sched.park(st, me, Op::Released(rank));
        }
    });
}

/// Whether the calling thread's condvar waits go through [`wait`].
pub(super) fn is_scheduled() -> bool {
    !std::thread::panicking() && current().is_some()
}

/// A condvar wait of a scheduled thread, its OS lock already released: park
/// until notified and handed the lock again.
pub(super) fn wait(rank: LockRank, lock: usize) {
    scheduled(|sched, mut st, me| {
        st.release(lock, me);
        st.waiters.entry(lock).or_default().push(me);
        sched.park(st, me, Op::Wait(rank));
    });
}

/// A notify of the condvar of the lock at `lock`: wakes its oldest (or
/// every) scheduled waiter, then yields if the rank is named.
pub(super) fn notify(rank: LockRank, lock: usize, all: bool) {
    scheduled(|sched, mut st, me| {
        let queue = st.waiters.entry(lock).or_default();
        let woken: Vec<usize> = if all || queue.len() < 2 {
            std::mem::take(queue)
        } else {
            vec![queue.remove(0)]
        };
        for t in woken {
            let shared = false;
            st.threads[t] = Turn::At(Op::Acquire { lock, rank, shared });
        }
        if st.ranks.contains(&rank) {
            sched.park(st, me, Op::Notified(rank));
        }
    });
}

/// Picks the next thread: depth-first over the bounded schedules, or from
/// a seeded stream.
enum Chooser {
    Dfs {
        bound: usize,
        /// The choices of the current schedule: the options at each point
        /// and which one is taken.
        path: Vec<(Vec<usize>, usize)>,
        depth: usize,
        preemptions: usize,
    },
    Seeded {
        stream: u64,
        left: usize,
    },
}

impl Chooser {
    fn new(strategy: Strategy) -> Self {
        match strategy {
            Strategy::Preemptions(bound) => Chooser::Dfs {
                bound,
                path: Vec::new(),
                depth: 0,
                preemptions: 0,
            },
            Strategy::Seeded { seed, runs } => Chooser::Seeded {
                stream: seed,
                left: runs,
            },
        }
    }

    /// The thread to run among `enabled`, given the one that ran last.
    fn pick(&mut self, last: Option<usize>, enabled: &[usize]) -> Result<usize, String> {
        let (bound, path, depth, preemptions) = match self {
            Chooser::Seeded { stream, .. } => {
                *stream = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
                return Ok(enabled[(crate::splitmix64(*stream) % enabled.len() as u64) as usize]);
            }
            Chooser::Dfs {
                bound,
                path,
                depth,
                preemptions,
            } => (*bound, path, depth, preemptions),
        };
        // Going on with the last thread comes first; switching away from it
        // is a preemption, and only `bound` are allowed.
        let options: Vec<usize> = match last.filter(|l| enabled.contains(l)) {
            Some(l) if *preemptions < bound => std::iter::once(l)
                .chain(enabled.iter().copied().filter(|&t| t != l))
                .collect(),
            Some(l) => vec![l],
            None => enabled.to_vec(),
        };
        if *depth == path.len() {
            path.push((options, 0));
        } else if path[*depth].0 != options {
            return Err(format!(
                "replay diverged at step {depth}: threads {options:?} could go on, the recorded schedule had {:?}",
                path[*depth].0
            ));
        }
        let (options, at) = &path[*depth];
        let pick = options[*at];
        if last.is_some_and(|l| l != pick && enabled.contains(&l)) {
            *preemptions += 1;
        }
        *depth += 1;
        Ok(pick)
    }

    /// Move to the next schedule; false when there is none.
    fn next_schedule(&mut self) -> bool {
        match self {
            Chooser::Dfs {
                path,
                depth,
                preemptions,
                ..
            } => {
                (*depth, *preemptions) = (0, 0);
                while let Some((options, at)) = path.last_mut() {
                    if *at + 1 < options.len() {
                        *at += 1;
                        return true;
                    }
                    path.pop();
                }
                false
            }
            Chooser::Seeded { left, .. } => {
                *left = left.saturating_sub(1);
                *left > 0
            }
        }
    }
}
