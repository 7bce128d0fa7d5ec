//! Rank-checked synchronization: the engine's one lock-ordering discipline.
//!
//! Every long-lived lock in the engine is a [`RankedMutex`] /
//! [`RankedRwLock`] carrying a [`LockRank`] from the single global table
//! below. In debug and test builds each thread keeps a stack of the locks it
//! currently holds; acquiring a lock whose rank is *not strictly greater*
//! than every held lock's rank panics immediately with both acquisition
//! sites (and, with `RUST_BACKTRACE=1`, both capture backtraces). Release
//! builds compile the wrappers down to the underlying `parking_lot`
//! primitives — no thread-local, no branch, no capture.
//!
//! The point is the same as the query verifier's (`RA####`) static checks:
//! turn a whole bug class — lock-order deadlocks between the shared-context
//! server paths — into something that fails deterministically in any test
//! that merely *executes* both acquisition sites, instead of requiring the
//! unlucky interleaving. Clippy closes the loop: the workspace `clippy.toml`
//! disallows the raw `Mutex`/`RwLock`/`Condvar` constructors (`std::sync`
//! and `parking_lot`), and this module is the one exemption, so new locks
//! cannot silently opt out.
//!
//! # The global lock-rank table
//!
//! Ranks are acquired in ascending numeric order: a thread holding a lock of
//! rank *r* may only acquire locks of rank strictly greater than *r* (equal
//! rank is allowed only for ranks marked *sharded*, which are per-partition
//! cells never nested in practice). The ordering is the **audited** actual
//! acquisition order of the engine (see DESIGN.md "Concurrency discipline"):
//!
//! | rank | lock | where |
//! |---|---|---|
//! | [`LockRank::ViewSerialization`] | per-matview CREATE/REFRESH/DROP guard | `core::context` |
//! | [`LockRank::ServerConnections`] | live-connection registry | `server` |
//! | [`LockRank::SessionViews`] | session private-view overlay | `core::session` |
//! | [`LockRank::SessionPrepared`] | session prepared statements | `core::session` |
//! | [`LockRank::PlannerCatalog`] | shared planner view catalog | `core::context` |
//! | [`LockRank::MatViewRegistry`] | materialized-view registry | `core::context` |
//! | [`LockRank::ViewLockMap`] | map of per-view guards | `core::context` |
//! | [`LockRank::AdmissionState`] | admission running/waiting counters | `exec::governor` |
//! | [`LockRank::ActiveQueries`] | kill-registry of cancel tokens | `core::context` |
//! | [`LockRank::CatalogTables`] | base-table map + versions | `storage::catalog` |
//! | [`LockRank::DurabilityLog`] | WAL appender + snapshot publisher | `storage::wal` |
//! | [`LockRank::ResultCache`] | version-keyed result cache | `core::cache` |
//! | [`LockRank::IndexStore`] | join indexes of base data (hash, CSR) | `storage::index` |
//! | [`LockRank::CheckpointStore`] | in-memory checkpoint blobs | `exec::checkpoint` |
//! | [`LockRank::ClusterHealth`] | worker failure/blacklist table | `exec::cluster` |
//! | [`LockRank::FixpointState`] | per-partition view state / kernel slabs (sharded) | `core::fixpoint` |
//! | [`LockRank::GovernorSpill`] | lazily-created spill directory slot | `exec::governor` |
//! | [`LockRank::TraceSink`] | per-query trace recorder | `exec::trace` |
//!
//! Two orderings in the table are load-bearing and worth calling out:
//! `MatViewRegistry` ranks *before* `CatalogTables` because staleness checks
//! read catalog versions while holding the registry (`view_infos`,
//! `refresh_if_stale`), and `ViewSerialization` is the global outermost rank
//! because a view guard is held across an entire refresh — admission,
//! execution, resident-state publish and all.
//!
//! # Adding a new lock
//!
//! 1. Pick the point in the acquisition order where the lock is taken and
//!    add a variant to [`LockRank`] (renumbering neighbors is fine; ranks
//!    are an ordering, not a wire format).
//! 2. Construct it with [`RankedMutex::new`] / [`RankedRwLock::new`] — raw
//!    construction outside this module fails `cargo clippy`
//!    (`disallowed_methods`).
//! 3. Run the test suite: any path that acquires against the declared order
//!    panics with both acquisition sites.
//!
//! # Scheduled tests
//!
//! Debug builds also carry [`schedule`]: a deterministic scheduler that
//! runs two or three closures one at a time, switching between them at the
//! locks of the ranks a test names, so a concurrency protocol is checked on
//! the code that runs under every interleaving up to a preemption bound.
#![expect(
    clippy::disallowed_methods,
    reason = "the ranked wrappers are built on the raw primitives"
)]

use parking_lot as pl;
use std::fmt;

#[cfg(debug_assertions)]
pub mod schedule;

/// The global lock-rank table. Variants are declared in ascending
/// acquisition order; the discriminant *is* the rank.
///
/// See the [module docs](self) for what each rank protects and for the two
/// load-bearing ordering decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockRank {
    /// Per-materialized-view serialization guard (outermost: held across an
    /// entire CREATE/REFRESH/DROP, including admission and execution).
    ViewSerialization = 0,
    /// The server's live-connection registry (held while firing session
    /// interrupts at shutdown, which must not re-enter engine locks).
    ServerConnections = 10,
    /// A session's private view overlay.
    SessionViews = 20,
    /// A session's prepared-statement map.
    SessionPrepared = 30,
    /// The shared planner view catalog (held during statement analysis).
    PlannerCatalog = 40,
    /// The materialized-view registry. Ranks before [`LockRank::CatalogTables`]:
    /// staleness checks read catalog versions under this lock.
    MatViewRegistry = 50,
    /// The map handing out per-view serialization guards.
    ViewLockMap = 60,
    /// Admission-controller counters (paired with its condvar; the rank entry
    /// stays on the held stack across a wait, which is sound because a
    /// blocked thread acquires nothing).
    AdmissionState = 70,
    /// The kill registry of active-query cancellation tokens.
    ActiveQueries = 80,
    /// The base-table catalog (tables map + version counters).
    CatalogTables = 100,
    /// The write-ahead-log appender and snapshot publisher. Ranks after
    /// [`LockRank::CatalogTables`]: catalog mutations journal from inside
    /// the tables write lock so WAL order equals apply order, and snapshot
    /// collection reads the view registry before taking this lock.
    DurabilityLog = 115,
    /// The version-keyed ad-hoc result cache.
    ResultCache = 120,
    /// The index store. Never held across a catalog access or a plan
    /// evaluation: readers snapshot table versions first, build outside the
    /// lock and re-check under it.
    IndexStore = 130,
    /// The in-memory checkpoint blob store.
    CheckpointStore = 140,
    /// Worker failure counts and blacklist flags.
    ClusterHealth = 150,
    /// Per-partition fixpoint state cells and dense kernel slabs. *Sharded*:
    /// same-rank acquisition is permitted (cells are locked one partition at
    /// a time, concurrently by different workers, never nested by one
    /// thread in conflicting orders).
    FixpointState = 160,
    /// The governor's lazily-created spill-directory slot.
    GovernorSpill = 170,
    /// The per-query trace recorder (innermost: recorded from everywhere).
    TraceSink = 180,
}

impl LockRank {
    /// The canonical name used in rank-violation panics.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::ViewSerialization => "ViewSerialization",
            LockRank::ServerConnections => "ServerConnections",
            LockRank::SessionViews => "SessionViews",
            LockRank::SessionPrepared => "SessionPrepared",
            LockRank::PlannerCatalog => "PlannerCatalog",
            LockRank::MatViewRegistry => "MatViewRegistry",
            LockRank::ViewLockMap => "ViewLockMap",
            LockRank::AdmissionState => "AdmissionState",
            LockRank::ActiveQueries => "ActiveQueries",
            LockRank::CatalogTables => "CatalogTables",
            LockRank::DurabilityLog => "DurabilityLog",
            LockRank::ResultCache => "ResultCache",
            LockRank::IndexStore => "IndexStore",
            LockRank::CheckpointStore => "CheckpointStore",
            LockRank::ClusterHealth => "ClusterHealth",
            LockRank::FixpointState => "FixpointState",
            LockRank::GovernorSpill => "GovernorSpill",
            LockRank::TraceSink => "TraceSink",
        }
    }

    /// Whether same-rank acquisition is permitted (per-partition sharded
    /// cells that are never nested by one thread).
    pub fn is_sharded(self) -> bool {
        matches!(self, LockRank::FixpointState)
    }

    fn rank(self) -> u16 {
        self as u16
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(rank {})", self.name(), self.rank())
    }
}

// --------------------------------------------------------------------
// Debug-build held-lock bookkeeping
// --------------------------------------------------------------------

#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::panic::Location;

    struct Held {
        rank: LockRank,
        acquired_at: &'static Location<'static>,
        backtrace: Backtrace,
        id: u64,
    }

    thread_local! {
        static STACK: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Validate and record an acquisition; returns the token to release.
    /// Panics with both acquisition sites on a rank inversion.
    pub(super) fn acquire(rank: LockRank, at: &'static Location<'static>) -> u64 {
        STACK.with(|stack| {
            let stack = stack.borrow();
            for h in stack.iter() {
                let inverted = h.rank > rank || (h.rank == rank && !rank.is_sharded());
                if inverted {
                    // `Backtrace::capture` honors RUST_BACKTRACE: the panic
                    // always names both acquisition sites, and carries full
                    // backtraces when the environment asks for them.
                    let here = Backtrace::capture();
                    panic!(
                        "lock-rank inversion: acquiring {} at {}:{}:{} while holding {} \
                         (acquired at {}:{}:{})\n\
                         --- backtrace of the held {} acquisition ---\n{}\n\
                         --- backtrace of the offending {} acquisition ---\n{}",
                        rank,
                        at.file(),
                        at.line(),
                        at.column(),
                        h.rank,
                        h.acquired_at.file(),
                        h.acquired_at.line(),
                        h.acquired_at.column(),
                        h.rank,
                        h.backtrace,
                        rank,
                        here,
                    );
                }
            }
            drop(stack);
            let id = NEXT_ID.with(|n| {
                let mut n = n.borrow_mut();
                *n += 1;
                *n
            });
            STACK.with(|stack| {
                stack.borrow_mut().push(Held {
                    rank,
                    acquired_at: at,
                    backtrace: Backtrace::capture(),
                    id,
                });
            });
            id
        })
    }

    /// Remove the acquisition recorded under `id` (guards may be dropped out
    /// of acquisition order, so this is a search, not a pop).
    pub(super) fn release(id: u64) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|h| h.id == id) {
                stack.remove(pos);
            }
        });
    }

    /// Ranked locks currently held by this thread (test introspection).
    pub fn held_ranks() -> Vec<LockRank> {
        STACK.with(|stack| stack.borrow().iter().map(|h| h.rank).collect())
    }
}

/// Ranked locks currently held by the calling thread, in acquisition order.
/// Always empty in release builds (the bookkeeping does not exist there).
pub fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        held::held_ranks()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// The debug-build bookkeeping token carried by every guard (zero-sized in
/// release builds). A guard drops it after the lock itself, so a scheduled
/// thread yields at a release only once the lock is free.
#[derive(Debug)]
struct HeldToken {
    #[cfg(debug_assertions)]
    id: u64,
    #[cfg(debug_assertions)]
    rank: LockRank,
    /// The lock's address: its identity to the scheduler.
    #[cfg(debug_assertions)]
    lock: usize,
}

impl HeldToken {
    /// Record an acquisition of the lock at `lock` (`shared` for a read
    /// lock) before the lock is taken: check its rank and, on a scheduled
    /// thread, yield to the scheduler.
    #[track_caller]
    fn acquire(rank: LockRank, lock: *const (), shared: bool) -> Self {
        #[cfg(debug_assertions)]
        {
            let at = std::panic::Location::caller();
            let id = held::acquire(rank, at);
            schedule::acquire(rank, lock as usize, shared);
            HeldToken {
                id,
                rank,
                lock: lock as usize,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, lock, shared);
            HeldToken {}
        }
    }
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        {
            held::release(self.id);
            schedule::release(self.rank, self.lock);
        }
    }
}

// --------------------------------------------------------------------
// RankedMutex
// --------------------------------------------------------------------

/// A mutex carrying a [`LockRank`]; see the [module docs](self) for the
/// discipline it enforces in debug builds.
#[derive(Debug)]
pub struct RankedMutex<T: ?Sized> {
    rank: LockRank,
    inner: pl::Mutex<T>,
}

/// RAII guard returned by [`RankedMutex::lock`].
#[derive(Debug)]
pub struct RankedMutexGuard<'a, T: ?Sized> {
    // Fields drop in declaration order: the lock, then its bookkeeping.
    inner: pl::MutexGuard<'a, T>,
    _token: HeldToken,
}

impl<T> RankedMutex<T> {
    /// A mutex at `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedMutex {
            rank,
            inner: pl::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RankedMutex<T> {
    /// The rank this lock was constructed at.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire the lock, panicking on a rank inversion in debug builds.
    #[track_caller]
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let _token = HeldToken::acquire(self.rank, std::ptr::from_ref(self).cast(), false);
        RankedMutexGuard {
            inner: self.inner.lock(),
            _token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// --------------------------------------------------------------------
// RankedRwLock
// --------------------------------------------------------------------

/// A reader-writer lock carrying a [`LockRank`]; both `read` and `write`
/// participate in the rank discipline.
#[derive(Debug)]
pub struct RankedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: pl::RwLock<T>,
}

/// RAII shared guard returned by [`RankedRwLock::read`].
#[derive(Debug)]
pub struct RankedReadGuard<'a, T: ?Sized> {
    inner: pl::RwLockReadGuard<'a, T>,
    _token: HeldToken,
}

/// RAII exclusive guard returned by [`RankedRwLock::write`].
#[derive(Debug)]
pub struct RankedWriteGuard<'a, T: ?Sized> {
    inner: pl::RwLockWriteGuard<'a, T>,
    _token: HeldToken,
}

impl<T> RankedRwLock<T> {
    /// A lock at `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock {
            rank,
            inner: pl::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RankedRwLock<T> {
    /// The rank this lock was constructed at.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire a shared read guard.
    #[track_caller]
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let _token = HeldToken::acquire(self.rank, std::ptr::from_ref(self).cast(), true);
        RankedReadGuard {
            inner: self.inner.read(),
            _token,
        }
    }

    /// Acquire an exclusive write guard.
    #[track_caller]
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let _token = HeldToken::acquire(self.rank, std::ptr::from_ref(self).cast(), false);
        RankedWriteGuard {
            inner: self.inner.write(),
            _token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// --------------------------------------------------------------------
// RankedCondvarMutex
// --------------------------------------------------------------------

/// A ranked mutex paired with a condition variable (the `parking_lot` shim
/// has none, so this wraps `std::sync`). The admission controller's
/// wait-queue state lives behind one of these.
///
/// The rank entry stays on the held stack for the duration of a
/// [`RankedCondvarMutex::wait`]: a waiting thread holds no *other* locks and
/// acquires nothing while blocked, so keeping the entry is sound and keeps
/// the bookkeeping simple. Poisoning is deliberately swallowed — a panicking
/// holder must not wedge every later waiter.
#[derive(Debug)]
pub struct RankedCondvarMutex<T> {
    rank: LockRank,
    inner: std::sync::Mutex<T>,
    cond: std::sync::Condvar,
}

/// RAII guard returned by [`RankedCondvarMutex::lock`]; pass it back to
/// [`RankedCondvarMutex::wait`] to block on the paired condvar.
#[derive(Debug)]
pub struct RankedCondvarGuard<'a, T> {
    token: HeldToken,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> RankedCondvarMutex<T> {
    /// A condvar-paired mutex at `rank` holding `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedCondvarMutex {
            rank,
            inner: std::sync::Mutex::new(value),
            cond: std::sync::Condvar::new(),
        }
    }

    /// Acquire the lock (poison-free, rank-checked).
    #[track_caller]
    pub fn lock(&self) -> RankedCondvarGuard<'_, T> {
        let token = HeldToken::acquire(self.rank, std::ptr::from_ref(self).cast(), false);
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        RankedCondvarGuard {
            token,
            inner: Some(guard),
        }
    }

    /// Atomically release the lock, block on the condvar, and re-acquire.
    /// A scheduled thread parks in its scheduler instead of on the condvar.
    pub fn wait<'a>(&'a self, mut guard: RankedCondvarGuard<'a, T>) -> RankedCondvarGuard<'a, T> {
        let inner = guard.inner.take().expect("guard not mid-wait");
        #[cfg(debug_assertions)]
        if schedule::is_scheduled() {
            drop(inner);
            schedule::wait(self.rank, std::ptr::from_ref(self) as usize);
            let inner = self.inner.lock();
            guard.inner = Some(inner.unwrap_or_else(std::sync::PoisonError::into_inner));
            return guard;
        }
        let inner = self
            .cond
            .wait(inner)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.inner = Some(inner);
        guard
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        #[cfg(debug_assertions)]
        schedule::notify(self.rank, std::ptr::from_ref(self) as usize, false);
        self.cond.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        #[cfg(debug_assertions)]
        schedule::notify(self.rank, std::ptr::from_ref(self) as usize, true);
        self.cond.notify_all();
    }
}

impl<T> std::ops::Deref for RankedCondvarGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not mid-wait")
    }
}

impl<T> std::ops::DerefMut for RankedCondvarGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not mid-wait")
    }
}

impl<T> Drop for RankedCondvarGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std guard before the HeldToken field drop runs is not
        // expressible directly; dropping `inner` here makes the order
        // explicit: lock first, bookkeeping entry second.
        self.inner = None;
        let _ = &self.token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    fn in_order_acquisition_is_silent() {
        let a = RankedMutex::new(LockRank::MatViewRegistry, 1);
        let b = RankedRwLock::new(LockRank::CatalogTables, 2);
        let ga = a.lock();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
        assert_eq!(
            held_ranks(),
            vec![LockRank::MatViewRegistry, LockRank::CatalogTables]
        );
        drop(gb);
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_release_unwinds_correctly() {
        let a = RankedMutex::new(LockRank::PlannerCatalog, ());
        let b = RankedMutex::new(LockRank::ActiveQueries, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before the later acquisition
        assert_eq!(held_ranks(), vec![LockRank::ActiveQueries]);
        drop(gb);
        assert!(held_ranks().is_empty());
        // The earlier rank is acquirable again.
        let _ = a.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_inversion_panics_with_both_sites() {
        let outer = RankedMutex::new(LockRank::CatalogTables, ());
        let inner = RankedMutex::new(LockRank::MatViewRegistry, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = outer.lock();
            let _h = inner.lock(); // MatViewRegistry after CatalogTables: inversion
        }))
        .expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("lock-rank inversion"), "{msg}");
        assert!(msg.contains("MatViewRegistry"), "{msg}");
        assert!(msg.contains("CatalogTables"), "{msg}");
        // Both acquisition sites are in this file.
        assert!(msg.matches("sync.rs").count() >= 2, "{msg}");
        assert!(held_ranks().is_empty(), "stack must unwind cleanly");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_panics_unless_sharded() {
        let a = RankedMutex::new(LockRank::ResultCache, ());
        let b = RankedMutex::new(LockRank::ResultCache, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = a.lock();
            let _h = b.lock();
        }))
        .expect_err("same-rank non-sharded must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(String::new);
        assert!(msg.contains("ResultCache"), "{msg}");

        // Sharded ranks allow same-rank (per-partition cells).
        let s1 = RankedMutex::new(LockRank::FixpointState, ());
        let s2 = RankedMutex::new(LockRank::FixpointState, ());
        let _g1 = s1.lock();
        let _g2 = s2.lock();
    }

    #[test]
    fn rwlock_write_then_higher_rank_ok() {
        let cat = RankedRwLock::new(LockRank::CatalogTables, 0u64);
        let log = RankedRwLock::new(LockRank::DurabilityLog, 0u64);
        let mut w = cat.write();
        *w += 1;
        let r = log.read();
        assert_eq!(*w, 1);
        assert_eq!(*r, 0);
    }

    /// Every schedule of a waiter and a notifier hands the flag over.
    #[cfg(debug_assertions)]
    #[test]
    fn condvar_mutex_handoff() {
        scheduled::covered(scheduled::handoff(true));
        assert!(held_ranks().is_empty());
    }

    /// The scheduler's own checks: it finds a lost update and a lost
    /// wake-up, replays a seed, resumes a thread parked on a lock and stops
    /// at its schedule limit.
    #[cfg(debug_assertions)]
    mod scheduled {
        use super::*;
        use crate::sync::schedule::{Explored, Schedule, Strategy, MAX_SCHEDULES};

        /// The exploration's counts, which cover more than one schedule and
        /// the whole bound.
        pub(super) fn covered(explored: Result<Explored, String>) -> Explored {
            let explored = explored.unwrap_or_else(|failure| panic!("{failure}"));
            assert!(
                explored.schedules > 1 && !explored.truncated,
                "{explored:?}"
            );
            explored
        }

        /// Two increments of one counter, read and written under one hold,
        /// or (`torn`) read under one hold and written under a second.
        fn counter(torn: bool, strategy: Strategy) -> Result<Explored, String> {
            let inc = move |m: &RankedMutex<u64>| {
                if torn {
                    let v = *m.lock();
                    *m.lock() = v + 1;
                } else {
                    *m.lock() += 1;
                }
            };
            Schedule::new(&[LockRank::ResultCache], strategy)
                .thread("a", inc)
                .thread("b", inc)
                .explore(
                    || RankedMutex::new(LockRank::ResultCache, 0),
                    |m| match *m.lock() {
                        2 => Ok(()),
                        n => Err(format!("lost update: counter is {n}")),
                    },
                )
        }

        #[test]
        fn a_counter_torn_across_two_holds_loses_an_update() {
            let failure = counter(true, Strategy::Preemptions(1)).expect_err("lost update");
            assert!(failure.starts_with("lost update"), "{failure}");
        }

        #[test]
        fn a_counter_under_one_hold_never_loses_an_update() {
            let explored = covered(counter(false, Strategy::Preemptions(2)));
            assert_eq!(explored.schedules, 14, "{explored:?}");
        }

        #[test]
        fn a_seed_replays_the_same_schedules() {
            let seeded = Strategy::Seeded { seed: 42, runs: 64 };
            let first = counter(true, seeded).expect_err("lost update");
            assert_eq!(first, counter(true, seeded).expect_err("lost update"));
            let clean = Strategy::Seeded { seed: 7, runs: 16 };
            assert_eq!(covered(counter(false, clean)).schedules, 16);
        }

        /// A waiter on a flag and a thread that sets it, notifying or not.
        pub(super) fn handoff(notify: bool) -> Result<Explored, String> {
            Schedule::new(&[LockRank::AdmissionState], Strategy::Preemptions(2))
                .thread("waiter", |m: &RankedCondvarMutex<bool>| {
                    let mut g = m.lock();
                    while !*g {
                        g = m.wait(g);
                    }
                })
                .thread("notifier", move |m| {
                    *m.lock() = true;
                    if notify {
                        m.notify_one();
                    }
                })
                .explore(
                    || RankedCondvarMutex::new(LockRank::AdmissionState, false),
                    |_| Ok(()),
                )
        }

        #[test]
        fn a_waiter_nobody_notifies_is_a_deadlock() {
            let failure = handoff(false).expect_err("lost wake-up");
            let want = "deadlock: every unfinished thread is parked (waiter: wait AdmissionState)";
            assert!(failure.starts_with(want), "{failure}");
        }

        /// `outer` is never named, `inner` is: the holder yields at `inner`
        /// while it holds `outer`.
        struct Nested {
            outer: RankedMutex<u32>,
            inner: RankedMutex<()>,
        }

        #[test]
        fn a_thread_parked_on_a_held_lock_runs_once_it_is_released() {
            let explored = Schedule::new(&[LockRank::ResultCache], Strategy::Preemptions(1))
                .thread("holder", |s: &Nested| {
                    let mut g = s.outer.lock();
                    drop(s.inner.lock());
                    *g += 1;
                })
                .thread("taker", |s| *s.outer.lock() += 10)
                .explore(
                    || Nested {
                        outer: RankedMutex::new(LockRank::CatalogTables, 0),
                        inner: RankedMutex::new(LockRank::ResultCache, ()),
                    },
                    |s| match *s.outer.lock() {
                        11 => Ok(()),
                        n => Err(format!("outer is {n}")),
                    },
                );
            assert!(covered(explored).parked > 0);
        }

        #[test]
        fn an_exploration_stops_at_its_schedule_limit() {
            let steps = |m: &RankedMutex<u64>| {
                for _ in 0..4 {
                    *m.lock() += 1;
                }
            };
            let explored = Schedule::new(&[LockRank::ResultCache], Strategy::Preemptions(8))
                .thread("a", steps)
                .thread("b", steps)
                .explore(|| RankedMutex::new(LockRank::ResultCache, 0), |_| Ok(()));
            let explored = explored.unwrap_or_else(|failure| panic!("{failure}"));
            assert!(explored.truncated && explored.schedules == MAX_SCHEDULES);
        }
    }

    #[test]
    fn rank_table_is_strictly_ascending() {
        let ranks = [
            LockRank::ViewSerialization,
            LockRank::ServerConnections,
            LockRank::SessionViews,
            LockRank::SessionPrepared,
            LockRank::PlannerCatalog,
            LockRank::MatViewRegistry,
            LockRank::ViewLockMap,
            LockRank::AdmissionState,
            LockRank::ActiveQueries,
            LockRank::CatalogTables,
            LockRank::DurabilityLog,
            LockRank::ResultCache,
            LockRank::IndexStore,
            LockRank::CheckpointStore,
            LockRank::ClusterHealth,
            LockRank::FixpointState,
            LockRank::GovernorSpill,
            LockRank::TraceSink,
        ];
        for pair in ranks.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
        assert_eq!(LockRank::ViewSerialization.rank(), 0);
        assert!(LockRank::FixpointState.is_sharded());
        assert!(!LockRank::CatalogTables.is_sharded());
    }
}
