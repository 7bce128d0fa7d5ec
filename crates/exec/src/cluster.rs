//! The cluster: a pool of worker threads executing *stages* of tasks with a
//! pluggable locality policy.
//!
//! A stage is a set of tasks separated from the next stage by a barrier —
//! exactly Spark's ShuffleMap/Result stage model. With `partition_aware`
//! scheduling (paper §6.1) each task runs on its preferred worker (the home of
//! its input partition); otherwise a drifting round-robin models Spark's
//! default hybrid policy, which ignores inter-iteration locality and thereby
//! forces remote fetches.
//!
//! # Fault tolerance
//!
//! When a [`FaultSpec`] is configured, each task attempt is assigned a
//! deterministic fate by the [`FaultInjector`] *before its body runs* (a
//! worker crashing at task receipt). Injected failures are retried with
//! bounded exponential backoff, up to `max_task_retries` times; a worker that
//! keeps failing is blacklisted and subsequent retries are placed elsewhere
//! (paying the remote-fetch cost, which the metrics record). Genuine task
//! panics are caught with `catch_unwind` and surfaced as a typed
//! [`ExecError`] — they are *not* retried, because a panicking body may have
//! partially mutated per-partition state (the price of the paper's mutable
//! SetRDD design; see DESIGN.md "Fault tolerance").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ExecError;
use crate::fault::{FaultInjector, FaultSpec, TaskFault};
use crate::metrics::Metrics;
use crate::trace::{RecoveryEvent, RecoveryKind, StageKind, StageSpan, TraceSink};
use crossbeam::channel::{unbounded, Sender};
use rasql_storage::sync::{LockRank, RankedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated workers (threads). The paper's cluster had 15
    /// worker nodes; the laptop default is the physical core count.
    pub workers: usize,
    /// Partition-aware scheduling (§6.1). When off, tasks drift across
    /// workers between stages and pay deep-copy "remote fetches".
    pub partition_aware: bool,
    /// Fixed per-stage scheduling latency. A real Spark driver pays
    /// milliseconds per stage for task serialization, dispatch and barrier
    /// bookkeeping — the cost the paper's stage-combination optimization
    /// (§7.1) halves. A local simulator's dispatch is near-free, so the
    /// latency is modeled explicitly (and can be zeroed for pure-compute
    /// microbenchmarks).
    pub stage_latency: Duration,
    /// Deterministic fault injection; `None` disables all failure paths.
    pub fault_spec: Option<FaultSpec>,
    /// Retries per task for injected failures (attempts = 1 + retries).
    pub max_task_retries: u32,
    /// Base backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Injected failures on one worker before it is blacklisted.
    pub blacklist_after: u32,
}

/// Default per-stage scheduler latency (a conservative Spark-like figure).
pub const DEFAULT_STAGE_LATENCY: Duration = Duration::from_millis(2);

/// Default retry budget for injected task failures.
pub const DEFAULT_MAX_TASK_RETRIES: u32 = 3;

/// Default base backoff before a task retry.
pub const DEFAULT_RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// Default injected-failure count that blacklists a worker.
pub const DEFAULT_BLACKLIST_AFTER: u32 = 3;

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            partition_aware: true,
            stage_latency: DEFAULT_STAGE_LATENCY,
            fault_spec: None,
            max_task_retries: DEFAULT_MAX_TASK_RETRIES,
            retry_backoff: DEFAULT_RETRY_BACKOFF,
            blacklist_after: DEFAULT_BLACKLIST_AFTER,
        }
    }
}

impl ClusterConfig {
    /// Config with a fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        ClusterConfig {
            workers: workers.max(1),
            ..Default::default()
        }
    }
}

type Job = Box<dyn FnOnce(usize) + Send + 'static>;
type TaskBody<R> = Box<dyn FnOnce(usize) -> R + Send + 'static>;

/// One task of a stage: a closure plus the worker that owns its input.
pub struct StageTask<R> {
    /// The worker that holds this task's input partition.
    pub preferred_worker: usize,
    /// The task body; receives the worker id it actually runs on.
    pub run: TaskBody<R>,
}

impl<R> StageTask<R> {
    /// Build a task.
    pub fn new(preferred_worker: usize, run: impl FnOnce(usize) -> R + Send + 'static) -> Self {
        StageTask {
            preferred_worker,
            run: Box::new(run),
        }
    }
}

/// What a worker sends back for one task attempt.
enum TaskOutcome<R> {
    /// The body ran to completion.
    Done(R),
    /// An injected fault fired *before* the body ran; the un-consumed body
    /// travels back so the driver can re-dispatch it.
    Faulted {
        body: TaskBody<R>,
        fault: TaskFault,
        worker: usize,
    },
    /// The body panicked (body consumed — not retryable).
    Panicked { worker: usize, message: String },
}

/// Per-worker health bookkeeping for blacklisting.
#[derive(Debug, Default)]
struct WorkerHealth {
    failures: Vec<u32>,
    blacklisted: Vec<bool>,
}

/// The simulated cluster.
pub struct Cluster {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Shared metrics.
    pub metrics: Arc<Metrics>,
    config: ClusterConfig,
    stage_seq: AtomicU64,
    injector: Option<FaultInjector>,
    health: RankedMutex<WorkerHealth>,
}

impl Cluster {
    /// Start a cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let (tx, rx) = unbounded::<Job>();
            senders.push(tx);
            #[expect(
                clippy::expect_used,
                reason = "OS thread spawn at pool construction; resource exhaustion here has no recovery path"
            )]
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rasql-worker-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job(w);
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        let injector = config
            .fault_spec
            .filter(FaultSpec::is_active)
            .map(FaultInjector::new);
        let health = RankedMutex::new(
            LockRank::ClusterHealth,
            WorkerHealth {
                failures: vec![0; config.workers],
                blacklisted: vec![false; config.workers],
            },
        );
        Cluster {
            senders,
            handles,
            metrics: Arc::new(Metrics::new()),
            config,
            stage_seq: AtomicU64::new(0),
            injector,
            health,
        }
    }

    /// Start a cluster with default config.
    pub fn default_local() -> Self {
        Cluster::new(ClusterConfig::default())
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Whether partition-aware scheduling is active.
    pub fn partition_aware(&self) -> bool {
        self.config.partition_aware
    }

    /// The fault spec driving the injector, if fault injection is active.
    pub fn fault_spec(&self) -> Option<&FaultSpec> {
        self.injector.as_ref().map(FaultInjector::spec)
    }

    /// Workers currently blacklisted for retry placement.
    pub fn blacklisted_workers(&self) -> Vec<usize> {
        self.health
            .lock()
            .blacklisted
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(w, _)| w)
            .collect()
    }

    /// The home worker of a partition id.
    #[inline]
    pub fn owner_of(&self, partition: usize) -> usize {
        partition % self.config.workers
    }

    /// Run one stage: execute all tasks (respecting the locality policy),
    /// barrier, and return results in task order.
    ///
    /// Task panics and exhausted retry budgets come back as [`ExecError`] —
    /// nothing in the driver panics on a worker failure.
    pub fn run_stage<R: Send + 'static>(
        &self,
        tasks: Vec<StageTask<R>>,
    ) -> Result<Vec<R>, ExecError> {
        self.run_stage_traced(None, "stage", StageKind::Generic, tasks)
    }

    /// [`Cluster::run_stage`] that additionally records a [`StageSpan`] into
    /// `sink` (when given): dispatch time (scheduler latency + task enqueue),
    /// run time (dispatch end to first task result), and barrier time (first
    /// result to last — the straggler wait).
    ///
    /// Task panics and exhausted retry budgets come back as [`ExecError`]
    /// instead of unwinding across the result channel. Guaranteed quiescent
    /// on return — every dispatched task attempt has completed (successfully
    /// or not), so callers may safely restore shared state afterwards.
    pub fn run_stage_traced<R: Send + 'static>(
        &self,
        sink: Option<&TraceSink>,
        label: &str,
        kind: StageKind,
        tasks: Vec<StageTask<R>>,
    ) -> Result<Vec<R>, ExecError> {
        let n = tasks.len();
        let t_start = Instant::now();
        if !self.config.stage_latency.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "simulated per-stage scheduling latency is the point of the knob"
            )]
            std::thread::sleep(self.config.stage_latency);
        }
        Metrics::add(&self.metrics.stages, 1);
        Metrics::add(&self.metrics.tasks, n as u64);
        let seq = self.stage_seq.fetch_add(1, Ordering::Relaxed);

        let (done_tx, done_rx) = unbounded::<(usize, TaskOutcome<R>)>();
        let mut prefs = Vec::with_capacity(n);
        for (i, task) in tasks.into_iter().enumerate() {
            let worker = if self.config.partition_aware {
                task.preferred_worker % self.config.workers
            } else {
                // Spark's default hybrid policy is oblivious to iteration
                // locality: model it as a per-stage drift so a partition's
                // task lands on a different worker each stage.
                (task.preferred_worker + 1 + seq as usize) % self.config.workers
            };
            prefs.push(task.preferred_worker);
            self.dispatch(worker, i, seq, 1, task.run, &done_tx)?;
        }

        let t_dispatched = Instant::now();
        let mut t_first: Option<Instant> = None;
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut attempts: Vec<u32> = vec![1; n];
        let mut total_attempts = n as u64;
        let mut pending = n;
        let mut fatal: Option<ExecError> = None;
        while pending > 0 {
            let Ok((i, outcome)) = done_rx.recv() else {
                // Every worker hung up mid-stage: the pool is gone. Surface
                // a typed error instead of panicking the driver thread.
                return Err(ExecError::TaskPanicked {
                    stage: label.to_string(),
                    task: 0,
                    worker: 0,
                    message: "worker pool disconnected mid-stage".into(),
                });
            };
            match outcome {
                TaskOutcome::Done(r) => {
                    t_first.get_or_insert_with(Instant::now);
                    results[i] = Some(r);
                    pending -= 1;
                }
                TaskOutcome::Panicked { worker, message } => {
                    pending -= 1;
                    if fatal.is_none() {
                        fatal = Some(ExecError::TaskPanicked {
                            stage: label.to_string(),
                            task: i,
                            worker,
                            message,
                        });
                    }
                }
                TaskOutcome::Faulted {
                    body,
                    fault,
                    worker,
                } => {
                    Metrics::add(&self.metrics.task_failures, 1);
                    if self.note_failure(worker) {
                        Metrics::add(&self.metrics.worker_blacklists, 1);
                        if let Some(sink) = sink {
                            sink.record_recovery(RecoveryEvent {
                                kind: RecoveryKind::Blacklist,
                                stage: label.to_string(),
                                round: 0,
                                detail: format!(
                                    "worker {worker} blacklisted after {} injected failures",
                                    self.config.blacklist_after
                                ),
                            });
                        }
                    }
                    // Once the stage is doomed, drain instead of retrying.
                    if fatal.is_some() || attempts[i] > self.config.max_task_retries {
                        pending -= 1;
                        if fatal.is_none() {
                            fatal = Some(ExecError::RetriesExhausted {
                                stage: label.to_string(),
                                task: i,
                                attempts: attempts[i],
                                fault: fault.name().to_string(),
                            });
                        }
                        continue;
                    }
                    let prior = attempts[i];
                    attempts[i] += 1;
                    total_attempts += 1;
                    Metrics::add(&self.metrics.task_retries, 1);
                    if let Some(sink) = sink {
                        sink.record_recovery(RecoveryEvent {
                            kind: RecoveryKind::TaskRetry,
                            stage: label.to_string(),
                            round: 0,
                            detail: format!(
                                "task {i} attempt {} after injected {} on worker {worker}",
                                attempts[i],
                                fault.name()
                            ),
                        });
                    }
                    // Bounded exponential backoff: base × 2^(retries so far).
                    let backoff = self
                        .config
                        .retry_backoff
                        .saturating_mul(1u32 << (prior - 1).min(10));
                    if !backoff.is_zero() {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "bounded retry backoff between task attempts"
                        )]
                        std::thread::sleep(backoff.min(Duration::from_millis(100)));
                    }
                    let target = self.retry_worker(prefs[i], attempts[i]);
                    self.dispatch(target, i, seq, attempts[i], body, &done_tx)?;
                }
            }
        }
        if let Some(err) = fatal {
            return Err(err);
        }
        if let Some(sink) = sink {
            let t_end = Instant::now();
            let first = t_first.unwrap_or(t_dispatched);
            sink.record_stage(StageSpan {
                label: label.to_string(),
                kind,
                tasks: n as u64,
                attempts: total_attempts,
                dispatch_us: (t_dispatched - t_start).as_micros() as u64,
                run_us: (first - t_dispatched).as_micros() as u64,
                barrier_us: (t_end - first).as_micros() as u64,
                total_us: (t_end - t_start).as_micros() as u64,
            });
        }
        let mut out = Vec::with_capacity(n);
        for (i, slot) in results.into_iter().enumerate() {
            // A missing result with no fatal error means the accounting above
            // is broken; keep the invariant typed rather than panicking.
            out.push(slot.ok_or_else(|| ExecError::TaskPanicked {
                stage: label.to_string(),
                task: i,
                worker: 0,
                message: "task completed without producing a result".into(),
            })?);
        }
        Ok(out)
    }

    /// Enqueue one attempt of a task on `worker`. The fault fate is decided
    /// *here* from `(stage, task, attempt)` — never from placement — so the
    /// injected schedule is identical across runs regardless of blacklisting.
    fn dispatch<R: Send + 'static>(
        &self,
        worker: usize,
        i: usize,
        seq: u64,
        attempt: u32,
        body: TaskBody<R>,
        done_tx: &Sender<(usize, TaskOutcome<R>)>,
    ) -> Result<(), ExecError> {
        let fault = self
            .injector
            .as_ref()
            .map(|inj| inj.decide(seq, i as u64, attempt))
            .unwrap_or(TaskFault::None);
        let tx = done_tx.clone();
        self.senders[worker]
            .send(Box::new(move |w| {
                let outcome = match fault {
                    TaskFault::Kill | TaskFault::LoseOutput => TaskOutcome::Faulted {
                        body,
                        fault,
                        worker: w,
                    },
                    TaskFault::None | TaskFault::Delay(_) => {
                        if let TaskFault::Delay(d) = fault {
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "injected Delay fault IS a sleep by definition"
                            )]
                            std::thread::sleep(d);
                        }
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            body(w)
                        })) {
                            Ok(r) => TaskOutcome::Done(r),
                            Err(payload) => TaskOutcome::Panicked {
                                worker: w,
                                message: panic_message(payload.as_ref()),
                            },
                        }
                    }
                };
                let _ = tx.send((i, outcome));
            }))
            .map_err(|_| ExecError::WorkerUnavailable { task: i, worker })
    }

    /// Record an injected failure on `worker`; true if this crossed the
    /// blacklist threshold (a worker is never blacklisted if it would leave
    /// no eligible workers).
    fn note_failure(&self, worker: usize) -> bool {
        let mut h = self.health.lock();
        h.failures[worker] += 1;
        let eligible = h.blacklisted.iter().filter(|&&b| !b).count();
        if !h.blacklisted[worker]
            && h.failures[worker] >= self.config.blacklist_after
            && eligible > 1
        {
            h.blacklisted[worker] = true;
            return true;
        }
        false
    }

    /// Placement for a retry: scan from `preferred + attempt` for the first
    /// non-blacklisted worker, falling back to the preferred worker.
    fn retry_worker(&self, preferred: usize, attempt: u32) -> usize {
        let w = self.config.workers;
        let h = self.health.lock();
        let start = (preferred + attempt as usize) % w;
        let preferred = preferred % w;
        // Prefer home if healthy; otherwise the first healthy worker from a
        // drifted start so consecutive retries spread out.
        if !h.blacklisted[preferred] {
            return preferred;
        }
        for off in 0..w {
            let c = (start + off) % w;
            if !h.blacklisted[c] {
                return c;
            }
        }
        preferred
    }

    /// Run one closure per worker (e.g. installing a broadcast value).
    pub fn run_on_all_workers<R: Send + 'static>(
        &self,
        f: impl Fn(usize) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, ExecError> {
        self.run_on_all_workers_traced(None, "all-workers", StageKind::Generic, f)
    }

    /// [`Cluster::run_on_all_workers`] with stage-span recording.
    pub fn run_on_all_workers_traced<R: Send + 'static>(
        &self,
        sink: Option<&TraceSink>,
        label: &str,
        kind: StageKind,
        f: impl Fn(usize) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, ExecError> {
        let f = Arc::new(f);
        let tasks = (0..self.config.workers)
            .map(|w| {
                let f = Arc::clone(&f);
                StageTask::new(w, move |wid| f(wid))
            })
            .collect();
        self.run_stage_traced(sink, label, kind, tasks)
    }
}

/// Stringify a panic payload (the common `&str` / `String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Close channels so workers exit, then join.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_runs_all_tasks_in_order() {
        let c = Cluster::new(ClusterConfig::with_workers(4));
        let results = c
            .run_stage(
                (0..16)
                    .map(|i| StageTask::new(i, move |_w| i * 2))
                    .collect(),
            )
            .unwrap();
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(c.metrics.snapshot().stages, 1);
        assert_eq!(c.metrics.snapshot().tasks, 16);
    }

    #[test]
    fn partition_aware_runs_on_preferred_worker() {
        let c = Cluster::new(ClusterConfig::with_workers(4));
        let placements = c
            .run_stage(
                (0..8)
                    .map(|p| StageTask::new(p % 4, move |w| w))
                    .collect::<Vec<StageTask<usize>>>(),
            )
            .unwrap();
        for (p, w) in placements.iter().enumerate() {
            assert_eq!(*w, p % 4);
        }
    }

    #[test]
    fn non_aware_drifts_across_stages() {
        let c = Cluster::new(ClusterConfig {
            workers: 4,
            partition_aware: false,
            ..Default::default()
        });
        let a = c.run_stage(vec![StageTask::new(0, |w| w)]).unwrap();
        let b = c.run_stage(vec![StageTask::new(0, |w| w)]).unwrap();
        assert_ne!(a[0], b[0], "drift expected between stages");
    }

    #[test]
    fn run_on_all_workers_covers_each() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let mut ws = c.run_on_all_workers(|w| w).unwrap();
        ws.sort_unstable();
        assert_eq!(ws, vec![0, 1, 2]);
    }

    #[test]
    fn traced_stage_records_span() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let sink = TraceSink::new();
        let out = c
            .run_stage_traced(
                Some(&sink),
                "unit",
                StageKind::Map,
                (0..4)
                    .map(|i| StageTask::new(i, move |_w| i + 1))
                    .collect::<Vec<StageTask<usize>>>(),
            )
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
        let t = sink.finish(Duration::from_millis(1), c.metrics.snapshot());
        assert_eq!(t.stages.len(), 1);
        let s = &t.stages[0];
        assert_eq!(s.label, "unit");
        assert_eq!(s.kind, StageKind::Map);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.attempts, 4);
        // Dispatch includes the configured 2ms stage latency.
        assert!(s.dispatch_us >= 1000, "dispatch {}us", s.dispatch_us);
        assert!(s.total_us >= s.dispatch_us);
    }

    #[test]
    fn task_panic_is_a_typed_error() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let tasks: Vec<StageTask<usize>> = (0..4)
            .map(|i| {
                StageTask::new(i, move |_w| {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .collect();
        match c.run_stage(tasks) {
            Err(ExecError::TaskPanicked { task, message, .. }) => {
                assert_eq!(task, 2);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // The cluster survives: a later stage still works.
        let ok = c.run_stage(vec![StageTask::new(0, |_w| 7usize)]).unwrap();
        assert_eq!(ok, vec![7]);
    }

    #[test]
    fn injected_kills_are_retried_to_success() {
        let c = Cluster::new(ClusterConfig {
            workers: 4,
            stage_latency: Duration::ZERO,
            fault_spec: Some(FaultSpec {
                kill: 0.4,
                seed: 11,
                ..Default::default()
            }),
            max_task_retries: 8,
            ..ClusterConfig::default()
        });
        for _ in 0..10 {
            let out = c
                .run_stage((0..8).map(|i| StageTask::new(i, move |_w| i)).collect())
                .expect("retries absorb injected kills");
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
        let m = c.metrics.snapshot();
        assert!(m.task_failures > 0, "faults should have fired: {m}");
        assert_eq!(m.task_failures, m.task_retries);
    }

    #[test]
    fn zero_retries_surface_exhaustion() {
        let c = Cluster::new(ClusterConfig {
            workers: 2,
            stage_latency: Duration::ZERO,
            fault_spec: Some(FaultSpec {
                kill: 1.0,
                seed: 1,
                ..Default::default()
            }),
            max_task_retries: 0,
            ..ClusterConfig::default()
        });
        match c.run_stage((0..2).map(|i| StageTask::new(i, move |_w| i)).collect()) {
            Err(ExecError::RetriesExhausted {
                attempts, fault, ..
            }) => {
                assert_eq!(attempts, 1);
                assert_eq!(fault, "kill");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let c = Cluster::new(ClusterConfig {
                workers: 4,
                stage_latency: Duration::ZERO,
                fault_spec: Some(FaultSpec {
                    kill: 0.3,
                    loss: 0.1,
                    seed: 77,
                    ..Default::default()
                }),
                max_task_retries: 10,
                ..ClusterConfig::default()
            });
            for _ in 0..5 {
                c.run_stage((0..8).map(|i| StageTask::new(i, move |_w| i)).collect())
                    .unwrap();
            }
            let m = c.metrics.snapshot();
            (m.task_failures, m.task_retries)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repeated_failures_blacklist_a_worker() {
        let c = Cluster::new(ClusterConfig {
            workers: 4,
            stage_latency: Duration::ZERO,
            fault_spec: Some(FaultSpec {
                kill: 0.5,
                seed: 3,
                ..Default::default()
            }),
            max_task_retries: 12,
            blacklist_after: 2,
            ..ClusterConfig::default()
        });
        for _ in 0..10 {
            c.run_stage(
                (0..8)
                    .map(|i| StageTask::new(i, move |_w| i))
                    .collect::<Vec<StageTask<usize>>>(),
            )
            .unwrap();
        }
        assert!(
            !c.blacklisted_workers().is_empty(),
            "kill=0.5 over 80 tasks should blacklist someone"
        );
        assert!(c.metrics.snapshot().worker_blacklists > 0);
        // Blacklisting never removes the last eligible worker.
        assert!(c.blacklisted_workers().len() < 4);
    }

    #[test]
    fn parallel_speedup_is_real() {
        // The tasks of one stage run at once, one per worker: each of four
        // tasks arrives at a shared counter, then waits (yielding, up to a
        // 10 s deadline) until all four have arrived. Tasks run one after
        // another would each wait alone until the deadline, so every task
        // seeing four proves the overlap on any number of cores.
        let c = Cluster::new(ClusterConfig {
            stage_latency: Duration::ZERO,
            ..ClusterConfig::with_workers(4)
        });
        let arrived = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tasks = (0..4)
            .map(|i| {
                let arrived = Arc::clone(&arrived);
                StageTask::new(i, move |_w| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while arrived.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    arrived.load(Ordering::SeqCst)
                })
            })
            .collect::<Vec<StageTask<usize>>>();
        let seen = c.run_stage(tasks).unwrap();
        assert_eq!(seen, vec![4; 4], "the stage's tasks did not run at once");
    }
}
