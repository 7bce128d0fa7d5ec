//! Broadcast variables (paper §7.2).
//!
//! The decomposed-plan optimization ships the base relation to every worker.
//! Spark's default builds the hash table on the master and broadcasts the
//! hashed relation (2-3x larger); RaSQL broadcasts a compressed payload and
//! has each worker build its own hash table. The simulator models the network
//! cost as `payload_bytes × workers` charged to `broadcast_bytes`, and the
//! per-worker rebuild runs as a real stage on each worker.

use crate::cluster::{Cluster, StageTask};
use crate::error::ExecError;
use crate::governor::QueryGovernor;
use crate::metrics::Metrics;
use crate::trace::{StageKind, TraceSink};
use std::convert::Infallible;
use std::sync::Arc;

/// A value replicated to every worker.
///
/// Per-worker copies are materialized via [`Broadcast::distribute`], which
/// runs the provided decode/build closure *on each worker* (one task per
/// worker) — exactly the paper's "ask each worker to build the hash table on
/// its own".
pub struct Broadcast<T> {
    copies: Vec<Arc<T>>,
}

impl<T: Send + Sync + 'static> Broadcast<T> {
    /// Distribute `payload_bytes` worth of data to all workers, building the
    /// per-worker value with `build` (e.g. decompress + hash). The build cost
    /// is paid once per worker, in parallel, on the workers.
    pub fn distribute(
        cluster: &Cluster,
        payload_bytes: usize,
        build: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Result<Self, ExecError> {
        Broadcast::distribute_traced(cluster, None, payload_bytes, build, None)
    }

    /// [`Broadcast::distribute`] that records the per-worker build stage as a
    /// `broadcast build` span into `sink` (when given).
    ///
    /// When a `governor` is given, the replicated payload
    /// (`payload_bytes × workers`) is charged to its memory tracker for the
    /// broadcast's build; a payload that alone cannot fit in the budget is a
    /// hard [`ExecError::MemoryExceeded`] — replicas are pinned on every
    /// worker for the fixpoint's lifetime, so there is nothing to spill.
    pub fn distribute_traced(
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        payload_bytes: usize,
        build: impl Fn(usize) -> T + Send + Sync + 'static,
        governor: Option<&QueryGovernor>,
    ) -> Result<Self, ExecError> {
        let built = Broadcast::try_distribute_traced(
            cluster,
            sink,
            payload_bytes,
            move |w| Ok::<T, Infallible>(build(w)),
            governor,
        )?;
        Ok(built.unwrap_or_else(|never| match never {}))
    }

    /// [`Broadcast::distribute_traced`] of a build that may refuse the
    /// payload (a worker decoding it finds it cannot hold it): the refusal
    /// of the first worker in order that refused, if one did.
    pub fn try_distribute_traced<E: Send + 'static>(
        cluster: &Cluster,
        sink: Option<&TraceSink>,
        payload_bytes: usize,
        build: impl Fn(usize) -> Result<T, E> + Send + Sync + 'static,
        governor: Option<&QueryGovernor>,
    ) -> Result<Result<Self, E>, ExecError> {
        let replicated = (payload_bytes * cluster.workers()) as u64;
        if let Some(g) = governor {
            g.check()?;
            let budget = g.tracker().budget();
            if budget > 0 && replicated > budget {
                return Err(ExecError::MemoryExceeded {
                    query_id: g.query_id(),
                    requested: replicated,
                    budget,
                });
            }
            g.tracker().charge(replicated);
        }
        Metrics::add(&cluster.metrics.broadcast_bytes, replicated);
        // One task per replica, indexed by the worker the copy is FOR. The
        // stage returns results in task order, so a task retried on a
        // different worker (fault injection, blacklisting) still lands its
        // copy in the right slot — the executing worker only pays the build
        // cost.
        let build = Arc::new(build);
        let tasks = (0..cluster.workers())
            .map(|w| {
                let build = Arc::clone(&build);
                StageTask::new(w, move |_wid| build(w).map(Arc::new))
            })
            .collect();
        let stage = cluster.run_stage_traced(sink, "broadcast build", StageKind::Broadcast, tasks);
        if let Some(g) = governor {
            // The build stage is done (or failed): the transient charge ends
            // here; the live replicas are the consumer's to account.
            g.tracker().release(replicated);
        }
        let copies: Result<Vec<Arc<T>>, E> = stage?.into_iter().collect();
        Ok(copies.map(|copies| Broadcast { copies }))
    }

    /// The copy local to `worker`.
    #[inline]
    pub fn on_worker(&self, worker: usize) -> &Arc<T> {
        &self.copies[worker]
    }

    /// Number of replicas.
    pub fn copies(&self) -> usize {
        self.copies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn distribute_builds_one_copy_per_worker() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let b = Broadcast::distribute(&c, 1000, |w| w * 10).unwrap();
        assert_eq!(b.copies(), 3);
        for w in 0..3 {
            assert_eq!(*b.on_worker(w).as_ref(), w * 10);
        }
        assert_eq!(c.metrics.snapshot().broadcast_bytes, 3000);
    }
}
