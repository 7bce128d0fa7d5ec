//! Runtime metrics: the counters the paper's ablations reason about
//! (stages scheduled, bytes shuffled, remote fetches, broadcast volume).

use std::sync::atomic::{AtomicU64, Ordering};

/// The one declaration of every metric: `doc`, field name, Prometheus sample
/// name and kind (`counter`: only ever added to, so two snapshots subtract;
/// `gauge`: a level, read as of the later snapshot). Everything that lists
/// metrics — [`Metrics`], [`MetricsSnapshot`], `reset`, `snapshot`, the
/// Prometheus text, the trace JSON (through `fields`/`from_fields`) and
/// `since` — is generated from this table, so a new metric is one line here.
macro_rules! metrics_table {
    ($( $(#[doc = $doc:literal])+ $field:ident, $prom:literal, $kind:ident; )+) => {
        /// Shared atomic counters updated by workers during execution.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( $(#[doc = $doc])+ pub $field: AtomicU64, )+
        }

        /// A point-in-time copy of [`Metrics`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])+ pub $field: u64, )+
        }

        impl Metrics {
            /// Reset all counters to zero.
            pub fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )+
            }

            /// Take a plain-value snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }
        }

        impl MetricsSnapshot {
            /// Every metric as `(field name, value)`, in table order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($field), self.$field), )+]
            }

            /// Rebuild a snapshot by asking `get` for each field by name.
            pub fn from_fields<E>(
                mut get: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok(MetricsSnapshot {
                    $( $field: get(stringify!($field))?, )+
                })
            }

            /// What accumulated between `before` and this snapshot: counters
            /// subtract (saturating — a concurrent `reset` may have zeroed
            /// them in between), gauges read as of this snapshot.
            pub fn since(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: metrics_table!(@since $kind, self.$field, before.$field), )+
                }
            }

            /// Render in Prometheus text exposition format (`# TYPE` line plus
            /// a sample per metric, `rasql_`-prefixed) — what `rasql-server`
            /// returns for its `Metrics` command so any scraper can ingest
            /// engine state.
            pub fn prometheus_text(&self) -> String {
                let mut out = String::new();
                $(
                    out.push_str(&format!(
                        "# TYPE rasql_{name} {kind}\nrasql_{name} {value}\n",
                        name = $prom,
                        kind = stringify!($kind),
                        value = self.$field,
                    ));
                )+
                out
            }
        }
    };
    (@since counter, $after:expr, $before:expr) => { $after.saturating_sub($before) };
    (@since gauge, $after:expr, $before:expr) => { $after };
}

metrics_table! {
    /// Stages executed (each stage = one barrier).
    stages, "stages_total", counter;
    /// Tasks executed.
    tasks, "tasks_total", counter;
    /// Rows moved through shuffle exchanges.
    shuffle_rows, "shuffle_rows_total", counter;
    /// Bytes moved through shuffle exchanges (worker-crossing only).
    shuffle_bytes, "shuffle_bytes_total", counter;
    /// Bytes deep-copied because a task ran away from its partition's home
    /// worker (the cost partition-aware scheduling avoids).
    remote_fetch_bytes, "remote_fetch_bytes_total", counter;
    /// Bytes sent by broadcast (payload × receiving workers).
    broadcast_bytes, "broadcast_bytes_total", counter;
    /// Rows produced by join probes.
    join_output_rows, "join_output_rows_total", counter;
    /// Fixpoint iterations executed.
    iterations, "iterations_total", counter;
    /// Tasks that ran on a non-preferred worker (locality violations).
    remote_fetches, "remote_fetches_total", counter;
    /// Task attempts lost to injected faults.
    task_failures, "task_failures_total", counter;
    /// Task re-executions after injected faults.
    task_retries, "task_retries_total", counter;
    /// Workers blacklisted for repeated injected failures.
    worker_blacklists, "worker_blacklists_total", counter;
    /// Fixpoint checkpoints captured.
    checkpoints, "checkpoints_total", counter;
    /// Bytes written into the checkpoint store.
    checkpoint_bytes, "checkpoint_bytes_total", counter;
    /// Fixpoint restores performed after unrecoverable stage failures.
    restores, "restores_total", counter;
    /// Rows eliminated by map-side combine before a shuffle exchange
    /// (input rows − combined output rows, paper §7.1 Map side).
    combined_rows, "combined_rows_total", counter;
    /// Bytes written to spill files by memory-governed queries.
    spilled_bytes, "spilled_bytes_total", counter;
    /// Spill files written by memory-governed queries.
    spill_files, "spill_files_total", counter;
    /// High-water mark of governed memory across queries (per-query peaks
    /// come from the governor, see `QueryGovernor`).
    peak_memory, "peak_memory_bytes", gauge;
    /// Queries that ended with `Cancelled` or `DeadlineExceeded`.
    cancellations, "cancellations_total", counter;
    /// Queries admitted by the admission controller.
    admitted, "admitted_total", counter;
    /// Queries rejected because the admission wait queue was full.
    rejected, "rejected_total", counter;
    /// Result/CSR cache hits (ad-hoc query results and retained CSR graphs
    /// served without recomputation).
    cache_hits, "cache_hits_total", counter;
    /// Cache entries invalidated by base-relation version bumps.
    cache_invalidations, "cache_invalidations_total", counter;
    /// Materialized-view refreshes that fell back to full recompute.
    view_refreshes, "view_refreshes_total", counter;
    /// Materialized-view refreshes served by delta-seeded incremental
    /// maintenance.
    view_refreshes_incremental, "view_refreshes_incremental_total", counter;
    /// Bytes of converged fixpoint state kept resident for materialized
    /// views (updated after every create/refresh/drop).
    retained_bytes, "retained_bytes", gauge;
    /// Resident view states rebuilt from their durable image (once per
    /// certified view per open; a refresh lends the resident state).
    view_state_loads, "view_state_loads_total", counter;
    /// Server connections reaped for exceeding the idle keepalive timeout
    /// (half-open clients that vanished without a FIN).
    connections_reaped, "connections_reaped_total", counter;
    /// Recursive cliques the generic fixpoint evaluated on packed word-lane
    /// tuples (every recursive column `Int`/`Double`) from base case to
    /// converged state.
    word_cliques, "word_cliques_total", counter;
    /// Word-lane runs abandoned because a value left its lane (an `Int`
    /// overflow, a NULL, a mistyped column); the clique was re-evaluated on
    /// rows.
    lane_escapes, "lane_escapes_total", counter;
    /// Key indexes addressed by position — the key is its own slot: a
    /// generic clique's state partitions' (a set's tuples, an aggregate's
    /// group keys) as it converged, and the co-partitioned packed build
    /// sides (`WordTable`s) its joins fetched.
    keys_by_position, "keys_by_position_total", counter;
    /// Times one of those key indexes was laid out again because a key fell
    /// outside its directory's bounds (wider bounds, or hashed slots).
    key_relayouts, "key_relayouts_total", counter;
}

impl Metrics {
    /// New zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Raise the peak-memory gauge to at least `v`.
    #[inline]
    pub fn raise_peak(&self, v: u64) {
        self.peak_memory.fetch_max(v, Ordering::Relaxed);
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stages={} tasks={} iters={} shuffle={} rows/{} B remote_fetch={}x/{} B broadcast={} B join_out={}",
            self.stages,
            self.tasks,
            self.iterations,
            self.shuffle_rows,
            self.shuffle_bytes,
            self.remote_fetches,
            self.remote_fetch_bytes,
            self.broadcast_bytes,
            self.join_output_rows
        )?;
        if self.task_failures + self.task_retries + self.worker_blacklists > 0 {
            write!(
                f,
                " failures={} retries={} blacklists={}",
                self.task_failures, self.task_retries, self.worker_blacklists
            )?;
        }
        if self.combined_rows > 0 {
            write!(f, " combined_rows={}", self.combined_rows)?;
        }
        if self.checkpoints + self.restores > 0 {
            write!(
                f,
                " checkpoints={}/{} B restores={}",
                self.checkpoints, self.checkpoint_bytes, self.restores
            )?;
        }
        if self.spilled_bytes + self.spill_files > 0 {
            write!(
                f,
                " spilled={} B/{} files",
                self.spilled_bytes, self.spill_files
            )?;
        }
        if self.peak_memory > 0 {
            write!(f, " peak_mem={} B", self.peak_memory)?;
        }
        if self.cancellations + self.rejected > 0 {
            write!(
                f,
                " cancelled={} rejected={}",
                self.cancellations, self.rejected
            )?;
        }
        if self.admitted > 0 {
            write!(f, " admitted={}", self.admitted)?;
        }
        if self.cache_hits + self.cache_invalidations > 0 {
            write!(
                f,
                " cache_hits={} cache_invalidations={}",
                self.cache_hits, self.cache_invalidations
            )?;
        }
        if self.view_refreshes + self.view_refreshes_incremental > 0 {
            write!(
                f,
                " view_refreshes={}+{}incr",
                self.view_refreshes, self.view_refreshes_incremental
            )?;
        }
        if self.retained_bytes > 0 {
            write!(f, " retained={} B", self.retained_bytes)?;
        }
        if self.connections_reaped > 0 {
            write!(f, " conns_reaped={}", self.connections_reaped)?;
        }
        if self.word_cliques + self.lane_escapes > 0 {
            write!(
                f,
                " word_cliques={} lane_escapes={}",
                self.word_cliques, self.lane_escapes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_exposition() {
        let m = Metrics::new();
        Metrics::add(&m.stages, 3);
        Metrics::add(&m.cancellations, 1);
        let text = m.snapshot().prometheus_text();
        assert!(text.contains("# TYPE rasql_stages_total counter\nrasql_stages_total 3\n"));
        assert!(text.contains("rasql_cancellations_total 1\n"));
        assert!(text.contains("# TYPE rasql_peak_memory_bytes gauge\n"));
        assert!(text.contains("rasql_cache_hits_total 0\n"));
        assert!(text.contains("# TYPE rasql_retained_bytes gauge\n"));
        assert!(text.contains("rasql_view_refreshes_incremental_total 0\n"));
        assert!(text.contains("rasql_connections_reaped_total 0\n"));
    }

    #[test]
    fn snapshot_and_reset() {
        let m = Metrics::new();
        Metrics::add(&m.stages, 3);
        Metrics::add(&m.shuffle_bytes, 100);
        let s = m.snapshot();
        assert_eq!(s.stages, 3);
        assert_eq!(s.shuffle_bytes, 100);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
