//! Per-query resource governance: memory accounting, deadlines, cooperative
//! cancellation, and concurrent-query admission control.
//!
//! The paper's engine inherited memory management, task cancellation, and fair
//! scheduling from Spark; the cluster simulator reproduces the same guarantees
//! here. A [`QueryGovernor`] is created per query and threaded through the
//! evaluator the same way a [`crate::TraceSink`] is — as an `Option<&_>`
//! parameter — so ungoverned callers pay nothing.
//!
//! Three cooperating pieces:
//!
//! - [`MemoryTracker`]: per-query byte accounting against a configurable
//!   budget. Charges come from shuffle exchange buckets, recursive
//!   aggregate/set state, dense kernel slabs, and broadcast builds. Going
//!   over budget is not itself an error — it is the signal for the two
//!   unbounded structures (shuffle buckets, the all-relation aggregate map)
//!   to spill to disk via [`crate::spill`]. Only an allocation that cannot
//!   fit even after spilling raises [`ExecError::MemoryExceeded`].
//! - [`CancellationToken`]: a cancel flag plus an optional deadline, checked
//!   cooperatively at stage and fixpoint-round boundaries (interpreter and
//!   CSR kernels both). A failed check unwinds as a typed
//!   [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`] through the
//!   normal error path, so workers drain and RAII guards remove temp files.
//! - [`AdmissionController`]: bounds concurrent queries with a bounded wait
//!   queue. At the concurrency cap callers block; when the wait queue is
//!   also full they are rejected immediately with
//!   [`ExecError::AdmissionRejected`] (backpressure, not unbounded queueing).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rasql_storage::sync::{LockRank, RankedCondvarMutex, RankedMutex};

use crate::error::ExecError;
use crate::spill::SpillDir;

// --------------------------------------------------------------------
// Memory accounting
// --------------------------------------------------------------------

/// Per-query byte accounting against a configurable budget.
///
/// A budget of `0` means unlimited: charges are still tracked (so
/// `peak_memory` is reported) but nothing ever spills. The tracker is shared
/// across worker threads, hence the atomics; accounting is an estimate
/// (deep-size of rows and state), not an allocator hook.
#[derive(Debug)]
pub struct MemoryTracker {
    budget: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl MemoryTracker {
    /// A tracker with the given budget in bytes (`0` = unlimited).
    #[must_use]
    pub fn new(budget: u64) -> Self {
        MemoryTracker {
            budget,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Record `bytes` as allocated. Never fails: over-budget is a spill
    /// signal, not an error (see [`MemoryTracker::over_budget`]).
    pub fn charge(&self, bytes: u64) {
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record `bytes` as freed.
    pub fn release(&self, bytes: u64) {
        // Saturating: release must not underflow if an estimate was revised.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Bytes currently charged.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The configured budget (`0` = unlimited).
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// True when a budget is set and current usage exceeds it — the signal
    /// for spillable structures to page out.
    #[must_use]
    pub fn over_budget(&self) -> bool {
        self.budget > 0 && self.used() > self.budget
    }

    /// True when charging `bytes` on top of current usage would go over a
    /// configured budget.
    #[must_use]
    pub fn would_exceed(&self, bytes: u64) -> bool {
        self.budget > 0 && self.used().saturating_add(bytes) > self.budget
    }
}

// --------------------------------------------------------------------
// Cancellation
// --------------------------------------------------------------------

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    timeout_ms: u64,
    query_id: u64,
    /// Cancelling a parent cancels every child (used by server sessions:
    /// one session-scoped token parents each query's token, so a client
    /// disconnect fires every in-flight query of that session at once).
    parent: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn flag_raised(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.flag_raised())
    }
}

/// Shared cancel flag plus optional deadline for one query.
///
/// Clones share state: the handle registered with the context (for `\kill`)
/// and the one threaded through the evaluator observe the same flag.
/// Cancellation is cooperative — [`CancellationToken::check`] is called at
/// stage and fixpoint-round boundaries and returns a typed error that
/// unwinds through the normal [`Result`] path.
///
/// Tokens can be linked: [`CancellationToken::child`] makes a token that
/// also observes its parent's flag, so one session-level cancel reaches
/// every query started under it.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<CancelInner>,
}

impl CancellationToken {
    /// A token for `query_id`, with an optional deadline measured from now.
    #[must_use]
    pub fn new(query_id: u64, timeout: Option<Duration>) -> Self {
        CancellationToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.map(|t| Instant::now() + t),
                timeout_ms: timeout.map_or(0, |t| t.as_millis() as u64),
                query_id,
                parent: None,
            }),
        }
    }

    /// A token for `query_id` that is also cancelled whenever `self` is.
    /// The deadline is the child's own; the parent contributes only its
    /// cancel flag.
    #[must_use]
    pub fn child(&self, query_id: u64, timeout: Option<Duration>) -> Self {
        CancellationToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.map(|t| Instant::now() + t),
                timeout_ms: timeout.map_or(0, |t| t.as_millis() as u64),
                query_id,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Request cancellation. Takes effect at the next cooperative check
    /// (of this token and of every token derived from it via
    /// [`CancellationToken::child`]).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`CancellationToken::cancel`] has been called on this token
    /// or any ancestor.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag_raised()
    }

    /// The query this token governs.
    #[must_use]
    pub fn query_id(&self) -> u64 {
        self.inner.query_id
    }

    /// Cooperative checkpoint: errors if the query was cancelled or its
    /// deadline has passed.
    ///
    /// # Errors
    /// [`ExecError::Cancelled`] or [`ExecError::DeadlineExceeded`].
    pub fn check(&self) -> Result<(), ExecError> {
        if self.is_cancelled() {
            return Err(ExecError::Cancelled {
                query_id: self.inner.query_id,
            });
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() > deadline {
                return Err(ExecError::DeadlineExceeded {
                    query_id: self.inner.query_id,
                    timeout_ms: self.inner.timeout_ms,
                });
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------------
// The per-query governor
// --------------------------------------------------------------------

/// Per-query resource governor: one memory tracker, one cancellation token,
/// and a lazily-created spill directory, bundled so the evaluator threads a
/// single `Option<&QueryGovernor>` everywhere (mirroring `TraceSink`).
#[derive(Debug)]
pub struct QueryGovernor {
    query_id: u64,
    tracker: MemoryTracker,
    token: CancellationToken,
    spill_root: PathBuf,
    spill: RankedMutex<Option<Arc<SpillDir>>>,
    spilled_bytes: AtomicU64,
    spill_files: AtomicU64,
}

impl QueryGovernor {
    /// A governor for `query_id` with the given budget (bytes, `0` =
    /// unlimited) and optional deadline. Spill files, if any, are created
    /// under `spill_root` (the directory itself is only created on first
    /// spill and removed when the governor drops).
    #[must_use]
    pub fn new(
        query_id: u64,
        memory_budget: u64,
        timeout: Option<Duration>,
        spill_root: &Path,
    ) -> Self {
        Self::with_token(
            query_id,
            memory_budget,
            CancellationToken::new(query_id, timeout),
            spill_root,
        )
    }

    /// A governor that enforces an externally-created [`CancellationToken`]
    /// (e.g. a child of a server session's token, so a client disconnect
    /// cancels the query mid-fixpoint).
    #[must_use]
    pub fn with_token(
        query_id: u64,
        memory_budget: u64,
        token: CancellationToken,
        spill_root: &Path,
    ) -> Self {
        QueryGovernor {
            query_id,
            tracker: MemoryTracker::new(memory_budget),
            token,
            spill_root: spill_root.to_path_buf(),
            spill: RankedMutex::new(LockRank::GovernorSpill, None),
            spilled_bytes: AtomicU64::new(0),
            spill_files: AtomicU64::new(0),
        }
    }

    /// The query this governor governs.
    #[must_use]
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// The byte accountant.
    #[must_use]
    pub fn tracker(&self) -> &MemoryTracker {
        &self.tracker
    }

    /// The shared cancel handle (clone it to register with a kill registry).
    #[must_use]
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Cooperative cancellation/deadline checkpoint.
    ///
    /// # Errors
    /// [`ExecError::Cancelled`] or [`ExecError::DeadlineExceeded`].
    pub fn check(&self) -> Result<(), ExecError> {
        self.token.check()
    }

    /// The spill directory for this query, created on first use. The
    /// returned handle is RAII: the directory and everything in it are
    /// removed when the last `Arc` drops (normally when the governor does).
    ///
    /// # Errors
    /// [`ExecError::SpillIo`] if the directory cannot be created.
    pub fn spill_dir(&self) -> Result<Arc<SpillDir>, ExecError> {
        let mut slot = self.spill.lock();
        if let Some(dir) = slot.as_ref() {
            return Ok(Arc::clone(dir));
        }
        let dir = Arc::new(SpillDir::create(&self.spill_root, self.query_id)?);
        *slot = Some(Arc::clone(&dir));
        Ok(dir)
    }

    /// Record a completed spill write for governance reporting.
    pub fn note_spill(&self, bytes: u64, files: u64) {
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_files.fetch_add(files, Ordering::Relaxed);
    }

    /// Total bytes written to spill files by this query.
    #[must_use]
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Number of spill files written by this query.
    #[must_use]
    pub fn spill_files(&self) -> u64 {
        self.spill_files.load(Ordering::Relaxed)
    }
}

// --------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    waiting: usize,
}

/// Bounds concurrent queries with a bounded wait queue.
///
/// `max_concurrent == 0` disables the controller entirely (every admit
/// succeeds immediately). Otherwise up to `max_concurrent` queries run; the
/// next `max_queue` block in [`AdmissionController::admit`] until a slot
/// frees; any beyond that are rejected with
/// [`ExecError::AdmissionRejected`].
///
/// The counters live behind a [`RankedCondvarMutex`] (the `parking_lot`
/// shim has no condvar); poisoning is deliberately ignored — a panicking
/// query must not wedge admission for every query after it.
#[derive(Debug)]
pub struct AdmissionController {
    max_concurrent: usize,
    max_queue: usize,
    state: RankedCondvarMutex<AdmissionState>,
}

impl AdmissionController {
    /// A controller admitting `max_concurrent` queries (`0` = unlimited)
    /// with room for `max_queue` waiters.
    #[must_use]
    pub fn new(max_concurrent: usize, max_queue: usize) -> Self {
        AdmissionController {
            max_concurrent,
            max_queue,
            state: RankedCondvarMutex::new(LockRank::AdmissionState, AdmissionState::default()),
        }
    }

    /// Admit one query, blocking while the engine is at its concurrency cap.
    /// The returned permit releases the slot on drop (any exit path).
    ///
    /// # Errors
    /// [`ExecError::AdmissionRejected`] when the wait queue is full.
    pub fn admit(self: &Arc<Self>) -> Result<AdmissionPermit, ExecError> {
        if self.max_concurrent == 0 {
            return Ok(AdmissionPermit {
                ctl: None,
                admitted: true,
            });
        }
        let mut state = self.state.lock();
        if state.running < self.max_concurrent {
            state.running += 1;
            return Ok(AdmissionPermit {
                ctl: Some(Arc::clone(self)),
                admitted: true,
            });
        }
        if state.waiting >= self.max_queue {
            return Err(ExecError::AdmissionRejected {
                running: state.running,
                waiting: state.waiting,
            });
        }
        state.waiting += 1;
        while state.running >= self.max_concurrent {
            state = self.state.wait(state);
        }
        state.waiting -= 1;
        state.running += 1;
        Ok(AdmissionPermit {
            ctl: Some(Arc::clone(self)),
            admitted: true,
        })
    }

    /// Queries currently holding a slot.
    #[must_use]
    pub fn running(&self) -> usize {
        self.state.lock().running
    }

    /// Queries currently blocked waiting for a slot.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    fn release(&self) {
        let mut state = self.state.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.state.notify_one();
    }
}

/// RAII admission slot: dropping it (success, error, or panic) frees the
/// slot and wakes one waiter.
#[derive(Debug)]
pub struct AdmissionPermit {
    ctl: Option<Arc<AdmissionController>>,
    admitted: bool,
}

impl AdmissionPermit {
    /// Whether this permit represents a real slot (false only for the
    /// unlimited-controller fast path, where nothing is counted).
    #[must_use]
    pub fn is_counted(&self) -> bool {
        self.ctl.is_some() && self.admitted
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(ctl) = self.ctl.take() {
            ctl.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_charge_release_peak() {
        let t = MemoryTracker::new(100);
        t.charge(60);
        t.charge(60);
        assert_eq!(t.used(), 120);
        assert_eq!(t.peak(), 120);
        assert!(t.over_budget());
        t.release(80);
        assert_eq!(t.used(), 40);
        assert_eq!(t.peak(), 120);
        assert!(!t.over_budget());
        assert!(t.would_exceed(61));
        assert!(!t.would_exceed(60));
        // Release never underflows.
        t.release(1000);
        assert_eq!(t.used(), 0);
    }

    #[test]
    fn unlimited_tracker_never_over() {
        let t = MemoryTracker::new(0);
        t.charge(u64::MAX / 2);
        assert!(!t.over_budget());
        assert!(!t.would_exceed(u64::MAX / 2));
        assert_eq!(t.peak(), u64::MAX / 2);
    }

    #[test]
    fn token_cancel_and_deadline() {
        let t = CancellationToken::new(7, None);
        assert!(t.check().is_ok());
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.check(), Err(ExecError::Cancelled { query_id: 7 }));

        let d = CancellationToken::new(8, Some(Duration::from_millis(0)));
        #[expect(
            clippy::disallowed_methods,
            reason = "a deadline token must see its deadline pass"
        )]
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            d.check(),
            Err(ExecError::DeadlineExceeded {
                query_id: 8,
                timeout_ms: 0
            })
        );
    }

    #[test]
    fn child_token_observes_parent_cancel() {
        let session = CancellationToken::new(0, None);
        let q1 = session.child(1, None);
        let q2 = session.child(2, None);
        assert!(q1.check().is_ok());
        session.cancel();
        assert_eq!(q1.check(), Err(ExecError::Cancelled { query_id: 1 }));
        assert_eq!(q2.check(), Err(ExecError::Cancelled { query_id: 2 }));
        // Child cancel does not propagate upward or sideways.
        let fresh = CancellationToken::new(0, None);
        let child = fresh.child(3, None);
        child.cancel();
        assert!(fresh.check().is_ok());
        assert!(fresh.child(4, None).check().is_ok());
    }

    #[test]
    fn admission_caps_and_rejects() {
        let ctl = Arc::new(AdmissionController::new(1, 0));
        let p1 = ctl.admit().expect("first query admitted");
        assert_eq!(ctl.running(), 1);
        let rejected = ctl.admit();
        assert!(matches!(
            rejected,
            Err(ExecError::AdmissionRejected {
                running: 1,
                waiting: 0
            })
        ));
        drop(p1);
        assert_eq!(ctl.running(), 0);
        let p2 = ctl.admit().expect("slot freed");
        drop(p2);
    }

    #[test]
    fn admission_queue_blocks_until_slot_frees() {
        let ctl = Arc::new(AdmissionController::new(1, 4));
        let p1 = ctl.admit().expect("admitted");
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            let p = ctl2.admit().expect("waited then admitted");
            drop(p);
        });
        // Give the waiter time to enqueue, then free the slot.
        while ctl.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(p1);
        waiter.join().expect("waiter thread");
        assert_eq!(ctl.running(), 0);
    }

    #[test]
    fn unlimited_admission_is_free() {
        let ctl = Arc::new(AdmissionController::new(0, 0));
        let permits: Vec<_> = (0..64).map(|_| ctl.admit().expect("free")).collect();
        assert_eq!(ctl.running(), 0);
        drop(permits);
    }
}
