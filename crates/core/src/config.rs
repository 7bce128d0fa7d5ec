//! Engine configuration: every optimization axis of the paper, toggleable for
//! the ablation benchmarks.

use rasql_exec::{default_workers, FaultSpec};

/// Naive vs. semi-naive fixpoint evaluation (§6, Algorithms 2 vs 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Delta-driven semi-naive evaluation (the default).
    SemiNaive,
    /// Naive evaluation: every iteration re-derives from the full relations
    /// (the Spark-SQL-Naive baseline of Fig 10).
    Naive,
}

/// Distributed join strategy for the recursive join (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Build a cached hash table on the base side, probe with the delta.
    ShuffleHash,
    /// Keep the base side as a cached sorted run; sort the delta and merge.
    SortMerge,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated worker (thread) count.
    pub workers: usize,
    /// Partition count (defaults to `workers`).
    pub partitions: usize,
    /// Fixpoint evaluation mode.
    pub eval_mode: EvalMode,
    /// Fuse Reduce(i) with Map(i+1) into one ShuffleMap stage (§7.1).
    pub stage_combination: bool,
    /// Partition-aware task scheduling (§6.1).
    pub partition_aware: bool,
    /// Fused operator pipelines — the whole-stage-codegen analog (§7.3).
    pub fused_codegen: bool,
    /// Join strategy for the recursive join (Appendix D).
    pub join: JoinStrategy,
    /// Evaluate decomposable plans with broadcast bases and per-partition
    /// local fixpoints (§7.2).
    pub decomposed_plans: bool,
    /// Broadcast the compressed relation and rebuild hash tables on workers,
    /// instead of shipping the (2-3x larger) prebuilt hash table (§7.2).
    pub broadcast_compression: bool,
    /// Select monomorphized fixpoint kernels (CSR broadcast graph + dense
    /// vertex state) when the plan shape and the verifier's Proven-PreM
    /// verdict allow it — the whole-stage-codegen fast path for the inner
    /// loop (§7.3). Any unprovable shape falls back to the interpreter.
    pub specialized_kernels: bool,
    /// Iteration cap; exceeded ⇒ [`crate::EngineError::NonTermination`].
    pub max_iterations: u32,
    /// Simulated per-stage scheduler latency in microseconds (see
    /// `rasql_exec::cluster::ClusterConfig::stage_latency`). A property of
    /// the simulated cluster, identical across engine presets.
    pub stage_latency_us: u64,
    /// Collect a [`rasql_exec::QueryTrace`] for every query: per-iteration
    /// fixpoint counters, stage spans, and operator rows/bytes. Off by
    /// default; `EXPLAIN ANALYZE` forces it on for that statement.
    pub tracing: bool,
    /// Deterministic fault injection for the simulated cluster; `None` (the
    /// default) disables all failure paths.
    pub fault_spec: Option<FaultSpec>,
    /// Retry budget for injected task failures (attempts = 1 + retries).
    pub max_task_retries: u32,
    /// Checkpoint the fixpoint's per-partition state every K rounds (plus an
    /// initial round-0 capture); 0 disables checkpointing, so an
    /// unrecoverable stage failure fails the query.
    pub checkpoint_interval: u32,
    /// Per-query memory budget in bytes; 0 (the default) is unlimited. Over
    /// budget, shuffle gather buffers and fixpoint state spill to disk; an
    /// allocation that cannot fit even after spilling fails the query with
    /// `MemoryExceeded`.
    pub memory_budget: u64,
    /// Per-query deadline in milliseconds; 0 (the default) is no deadline.
    /// Checked cooperatively at stage and fixpoint-round boundaries; a
    /// missed deadline fails the query with `DeadlineExceeded`.
    pub query_timeout_ms: u64,
    /// Maximum queries executing concurrently on one context; 0 (the
    /// default) is unlimited. Excess queries wait in a bounded queue.
    pub max_concurrent_queries: usize,
    /// Wait-queue capacity of the admission controller (only meaningful with
    /// `max_concurrent_queries > 0`); queries beyond it are rejected
    /// immediately with `AdmissionRejected`.
    pub admission_queue: usize,
    /// Capacity (entries) of the version-keyed result cache for ad-hoc
    /// queries; 0 (the default) disables caching. A repeated identical query
    /// against unchanged base relations is served from cache (FIFO eviction);
    /// any base-table mutation invalidates the affected entries.
    pub result_cache_entries: usize,
    /// Durability directory: when set, the context recovers catalog and
    /// materialized-view state from `snapshot.bin` + `wal.log` on startup
    /// and journals every mutation. `None` (the default) keeps everything
    /// in memory, exactly as before.
    pub data_dir: Option<std::path::PathBuf>,
    /// Publish a compacting snapshot (and truncate the log) every N journal
    /// records; 0 disables automatic compaction (snapshots still happen at
    /// startup and via explicit flush).
    pub snapshot_every: u64,
    /// Deterministic crashpoint injection for the durability layer
    /// (`storage::crashpoint`); `None` disables it. Test-only knob driven by
    /// the `reproduce crash-soak` gate.
    pub crash_spec: Option<rasql_storage::CrashSpec>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::rasql()
    }
}

impl EngineConfig {
    /// The fully-optimized RaSQL configuration used in the paper's
    /// experiments (§8: shuffle-hash join, optimized DSN with stage
    /// combination and code generation).
    pub fn rasql() -> Self {
        EngineConfig {
            workers: default_workers(),
            partitions: default_workers(),
            eval_mode: EvalMode::SemiNaive,
            stage_combination: true,
            partition_aware: true,
            fused_codegen: true,
            join: JoinStrategy::ShuffleHash,
            decomposed_plans: true,
            broadcast_compression: true,
            specialized_kernels: true,
            max_iterations: 100_000,
            stage_latency_us: 2_000,
            tracing: false,
            fault_spec: None,
            max_task_retries: 3,
            checkpoint_interval: 0,
            memory_budget: 0,
            query_timeout_ms: 0,
            max_concurrent_queries: 0,
            admission_queue: 16,
            result_cache_entries: 0,
            data_dir: None,
            snapshot_every: 256,
            crash_spec: None,
        }
    }

    /// The BigDatalog stand-in: SetRDD-style cached state (always on here)
    /// but none of RaSQL's new optimizations — no stage combination, no fused
    /// code generation, no broadcast compression. See DESIGN.md.
    pub fn bigdatalog_like() -> Self {
        EngineConfig {
            stage_combination: false,
            fused_codegen: false,
            broadcast_compression: false,
            specialized_kernels: false,
            ..EngineConfig::rasql()
        }
    }

    /// The Spark-SQL-SN baseline of Fig 10: semi-naive behavior *simulated*
    /// as a loop of SQL statements — no partition-aware scheduling, no stage
    /// combination, no mutable state reuse benefits modeled by locality.
    pub fn spark_sql_sn() -> Self {
        EngineConfig {
            stage_combination: false,
            partition_aware: false,
            fused_codegen: false,
            decomposed_plans: false,
            broadcast_compression: false,
            specialized_kernels: false,
            ..EngineConfig::rasql()
        }
    }

    /// The Spark-SQL-Naive baseline of Fig 10.
    pub fn spark_sql_naive() -> Self {
        EngineConfig {
            eval_mode: EvalMode::Naive,
            ..EngineConfig::spark_sql_sn()
        }
    }

    /// Simulated worker count (floored at 1). Also resets `partitions` to the
    /// same count, so a `.partitions(n)` meant to differ must come after it.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self.partitions = self.workers;
        self
    }

    /// Partition count, decoupled from the worker count (floored at 1).
    pub fn partitions(mut self, n: usize) -> Self {
        self.partitions = n.max(1);
        self
    }

    /// Join strategy for the recursive join.
    pub fn join(mut self, join: JoinStrategy) -> Self {
        self.join = join;
        self
    }

    /// Fixpoint evaluation mode (semi-naive vs. naive).
    pub fn eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// Toggle stage combination (§7.1).
    pub fn stage_combination(mut self, on: bool) -> Self {
        self.stage_combination = on;
        self
    }

    /// Toggle decomposed-plan evaluation (§7.2).
    pub fn decomposed_plans(mut self, on: bool) -> Self {
        self.decomposed_plans = on;
        self
    }

    /// Toggle fused code generation (§7.3).
    pub fn fused_codegen(mut self, on: bool) -> Self {
        self.fused_codegen = on;
        self
    }

    /// Toggle partition-aware scheduling (§6.1).
    pub fn partition_aware(mut self, on: bool) -> Self {
        self.partition_aware = on;
        self
    }

    /// Toggle broadcast compression (§7.2).
    pub fn broadcast_compression(mut self, on: bool) -> Self {
        self.broadcast_compression = on;
        self
    }

    /// Toggle specialized fixpoint kernels (CSR + dense vertex state).
    pub fn specialized_kernels(mut self, on: bool) -> Self {
        self.specialized_kernels = on;
        self
    }

    /// Set the iteration cap.
    pub fn max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }

    /// Set the simulated per-stage scheduler latency (µs); 0 disables it.
    pub fn stage_latency_us(mut self, us: u64) -> Self {
        self.stage_latency_us = us;
        self
    }

    /// Collect a [`rasql_exec::QueryTrace`] for every query.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable deterministic fault injection (`None` disables it).
    pub fn faults(mut self, spec: Option<FaultSpec>) -> Self {
        self.fault_spec = spec;
        self
    }

    /// Set the retry budget for injected task failures.
    pub fn max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Checkpoint fixpoint state every `k` rounds (0 disables).
    pub fn checkpoint_interval(mut self, k: u32) -> Self {
        self.checkpoint_interval = k;
        self
    }

    /// Set the per-query memory budget in bytes (0 = unlimited). Over
    /// budget, shuffle buffers and fixpoint state spill to disk.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Set the per-query deadline in milliseconds (0 = none), enforced
    /// cooperatively at stage and fixpoint-round boundaries.
    pub fn query_timeout_ms(mut self, ms: u64) -> Self {
        self.query_timeout_ms = ms;
        self
    }

    /// Cap concurrent queries on the context (0 = unlimited).
    pub fn max_concurrent_queries(mut self, n: usize) -> Self {
        self.max_concurrent_queries = n;
        self
    }

    /// Set the admission wait-queue capacity; queries beyond it are rejected.
    pub fn admission_queue(mut self, n: usize) -> Self {
        self.admission_queue = n;
        self
    }

    /// Set the result-cache capacity in entries (0 disables caching).
    pub fn result_cache(mut self, entries: usize) -> Self {
        self.result_cache_entries = entries;
        self
    }

    /// Attach a data directory: catalog and materialized-view mutations are
    /// journaled to a checksummed write-ahead log in `dir`, and building the
    /// context first recovers whatever state the directory holds.
    pub fn data_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Publish a compacting snapshot every `n` journaled records (0 leaves
    /// the log to grow until the next startup compaction).
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Arm deterministic crashpoint injection on the durability write path
    /// (testing only: write/fsync/rename boundaries simulate process death
    /// as `StorageError::InjectedCrash`).
    pub fn crash_spec(mut self, spec: Option<rasql_storage::CrashSpec>) -> Self {
        self.crash_spec = spec;
        self
    }
}

/// One engine setting a user can type: `--NAME VALUE` on the command line
/// of `rasql-shell` and `rasql-server` (`reproduce` takes three of them),
/// and `\set NAME VALUE` at the shell's prompt. [`SETTINGS`] is the whole
/// table; the binaries' usage text is generated from it
/// ([`settings_usage`]).
pub struct Setting {
    /// The setting's name, without the `--`.
    pub name: &'static str,
    /// Placeholder for the value in usage text.
    pub value: &'static str,
    /// One line of help.
    pub help: &'static str,
    /// Parse a value and apply it through the field's setter.
    pub apply: fn(EngineConfig, &str) -> Result<EngineConfig, String>,
    /// The current value, spelled so that `apply` reads it back.
    pub show: fn(&EngineConfig) -> String,
}

fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())
}

/// The engine settings the shell, the server and `reproduce` accept.
pub const SETTINGS: [Setting; 10] = [
    Setting {
        name: "workers",
        value: "N",
        help: "simulated cluster workers, also the partition count",
        apply: |c, v| Ok(c.workers(num(v)?)),
        show: |c| c.workers.to_string(),
    },
    Setting {
        name: "faults",
        value: "SPEC",
        help: "fault injection: kill=P,loss=P,delay=P,delay_us=N,seed=N, or off",
        apply: |c, v| {
            Ok(c.faults(match v {
                "off" => None,
                spec => Some(FaultSpec::parse(spec)?),
            }))
        },
        show: |c| c.fault_spec.map_or_else(|| "off".into(), |s| s.to_string()),
    },
    Setting {
        name: "retries",
        value: "N",
        help: "retry budget for injected task failures",
        apply: |c, v| Ok(c.max_task_retries(num(v)?)),
        show: |c| c.max_task_retries.to_string(),
    },
    Setting {
        name: "checkpoint-every",
        value: "K",
        help: "checkpoint fixpoint state every K rounds, 0 = never",
        apply: |c, v| Ok(c.checkpoint_interval(num(v)?)),
        show: |c| c.checkpoint_interval.to_string(),
    },
    Setting {
        name: "memory-budget",
        value: "BYTES",
        help: "per-query memory budget, spilling to disk over it, 0 = unlimited",
        apply: |c, v| Ok(c.memory_budget(num(v)?)),
        show: |c| c.memory_budget.to_string(),
    },
    Setting {
        name: "timeout-ms",
        value: "MS",
        help: "per-query deadline, 0 = none",
        apply: |c, v| Ok(c.query_timeout_ms(num(v)?)),
        show: |c| c.query_timeout_ms.to_string(),
    },
    Setting {
        name: "max-concurrent",
        value: "N",
        help: "concurrent query cap, 0 = unlimited",
        apply: |c, v| Ok(c.max_concurrent_queries(num(v)?)),
        show: |c| c.max_concurrent_queries.to_string(),
    },
    Setting {
        name: "admission-queue",
        value: "N",
        help: "queries that may wait for a slot under the concurrent cap",
        apply: |c, v| Ok(c.admission_queue(num(v)?)),
        show: |c| c.admission_queue.to_string(),
    },
    Setting {
        name: "data-dir",
        value: "PATH",
        help: "recover from PATH on start and log every commit there, or off",
        apply: |c, v| {
            Ok(match v {
                "off" => EngineConfig {
                    data_dir: None,
                    ..c
                },
                dir => c.data_dir(dir),
            })
        },
        show: |c| {
            c.data_dir
                .as_ref()
                .map_or_else(|| "off".into(), |d| d.display().to_string())
        },
    },
    Setting {
        name: "snapshot-every",
        value: "N",
        help: "compact the log into a snapshot every N records, 0 = never",
        apply: |c, v| Ok(c.snapshot_every(num(v)?)),
        show: |c| c.snapshot_every.to_string(),
    },
];

impl Setting {
    /// This setting's `--NAME VALUE` line in a binary's usage text, with its
    /// help and its value in `defaults`.
    pub fn usage(&self, defaults: &EngineConfig) -> String {
        let flag = format!("--{} {}", self.name, self.value);
        format!(
            "    {flag:<24} {} (default {})\n",
            self.help,
            (self.show)(defaults)
        )
    }
}

/// Every setting's usage line, with [`EngineConfig::rasql`]'s defaults.
pub fn settings_usage() -> String {
    let defaults = EngineConfig::rasql();
    SETTINGS.iter().map(|s| s.usage(&defaults)).collect()
}

impl EngineConfig {
    /// Apply one setting of [`SETTINGS`] by name. On an error `self` is
    /// left as it was.
    ///
    /// # Errors
    /// An unknown name, or a value the setting cannot parse; the message
    /// names the setting.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let setting = SETTINGS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown setting '{name}'"))?;
        *self = (setting.apply)(self.clone(), value)
            .map_err(|e| format!("bad {name} '{value}': {e}"))?;
        Ok(())
    }

    /// Apply a command line of `--NAME VALUE` pairs: a setting's name goes
    /// through [`EngineConfig::set`], any other flag to `own`, which takes
    /// it and returns `Ok(true)`, or returns `Ok(false)` for a flag it does
    /// not know either.
    ///
    /// # Errors
    /// An unknown flag, a flag without a value, or a malformed value.
    pub fn parse_flags(
        &mut self,
        args: impl IntoIterator<Item = String>,
        mut own: impl FnMut(&str, String) -> Result<bool, String>,
    ) -> Result<(), String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.strip_prefix("--") {
                Some(name) if SETTINGS.iter().any(|s| s.name == name) => self.set(name, &value)?,
                _ if own(&flag, value)? => {}
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RaSqlContext;

    #[test]
    fn presets_differ_on_the_right_axes() {
        let rasql = EngineConfig::rasql();
        let bd = EngineConfig::bigdatalog_like();
        assert!(rasql.stage_combination && !bd.stage_combination);
        assert!(rasql.fused_codegen && !bd.fused_codegen);
        assert!(rasql.specialized_kernels && !bd.specialized_kernels);
        assert_eq!(rasql.eval_mode, bd.eval_mode);
        let naive = EngineConfig::spark_sql_naive();
        assert_eq!(naive.eval_mode, EvalMode::Naive);
        assert!(!naive.partition_aware);
    }

    /// Each row calls one setter on `RaSqlContext::builder()`, builds the
    /// context, and reads the field the setter names back from its config;
    /// the value must differ from the default's, or the row proves nothing.
    macro_rules! setter_table {
        ($($setter:ident($value:expr) => $field:ident == $expect:expr;)*) => {{
            let mut rows = 0;
            $(
                let ctx = RaSqlContext::builder().$setter($value).build();
                assert_eq!(ctx.config().$field, $expect, stringify!($setter));
                assert_ne!(EngineConfig::default().$field, $expect, stringify!($setter));
                rows += 1;
            )*
            rows
        }};
    }

    #[test]
    fn builder_methods() {
        let dir = std::env::temp_dir().join(format!("rasql-config-setters-{}", std::process::id()));
        let faults = FaultSpec {
            kill: 0.25,
            ..FaultSpec::default()
        };
        let crash = rasql_storage::CrashSpec::at(u64::MAX);
        let rows = setter_table! {
            workers(3) => workers == 3;
            partitions(5) => partitions == 5;
            join(JoinStrategy::SortMerge) => join == JoinStrategy::SortMerge;
            eval_mode(EvalMode::Naive) => eval_mode == EvalMode::Naive;
            stage_combination(false) => stage_combination == false;
            decomposed_plans(false) => decomposed_plans == false;
            fused_codegen(false) => fused_codegen == false;
            partition_aware(false) => partition_aware == false;
            broadcast_compression(false) => broadcast_compression == false;
            specialized_kernels(false) => specialized_kernels == false;
            max_iterations(7) => max_iterations == 7;
            stage_latency_us(11) => stage_latency_us == 11;
            tracing(true) => tracing == true;
            faults(Some(faults)) => fault_spec == Some(faults);
            max_task_retries(9) => max_task_retries == 9;
            checkpoint_interval(4) => checkpoint_interval == 4;
            memory_budget(1 << 20) => memory_budget == 1 << 20;
            query_timeout_ms(500) => query_timeout_ms == 500;
            max_concurrent_queries(2) => max_concurrent_queries == 2;
            admission_queue(3) => admission_queue == 3;
            result_cache(8) => result_cache_entries == 8;
            data_dir(&dir) => data_dir == Some(dir.clone());
            snapshot_every(17) => snapshot_every == 17;
            crash_spec(Some(crash)) => crash_spec == Some(crash);
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rows, 24, "one row per EngineConfig setter");

        // `workers` also sets `partitions`, so of the two the later call wins.
        let c = RaSqlContext::builder().partitions(4).workers(2).build();
        assert_eq!(c.config().partitions, 2);
        let c = RaSqlContext::builder().workers(2).partitions(4).build();
        assert_eq!(c.config().partitions, 4);
        // Both counts floor at 1.
        let c = RaSqlContext::builder().workers(0).partitions(0).build();
        assert_eq!((c.config().workers, c.config().partitions), (1, 1));
    }

    fn apply_flags(line: &str) -> Result<EngineConfig, String> {
        let mut cfg = EngineConfig::rasql();
        cfg.parse_flags(line.split_whitespace().map(String::from), |flag, _| {
            Ok(flag == "--listen")
        })?;
        Ok(cfg)
    }

    #[test]
    fn settings_table_round_trips_every_row() {
        let names: std::collections::HashSet<_> = SETTINGS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SETTINGS.len(), "setting names are unique");
        let custom = apply_flags(
            "--workers 3 --faults kill=0.25,delay=0.5,seed=7 --retries 9 --checkpoint-every 4 \
             --memory-budget 1048576 --timeout-ms 500 --max-concurrent 2 --admission-queue 3 \
             --data-dir rasql-unbuilt-dir --snapshot-every 17",
        )
        .unwrap();
        // Each pair differs on every setting's field and nowhere else, so
        // showing one and setting the other to it must give the first back.
        for (from, to) in [
            (EngineConfig::rasql(), custom.clone()),
            (custom, EngineConfig::rasql()),
        ] {
            let mut cfg = from;
            for s in &SETTINGS {
                let before = format!("{cfg:?}");
                cfg.set(s.name, &(s.show)(&to)).unwrap();
                assert_ne!(format!("{cfg:?}"), before, "{} changed nothing", s.name);
                assert_eq!((s.show)(&cfg), (s.show)(&to), "{}", s.name);
            }
            assert_eq!(format!("{cfg:?}"), format!("{to:?}"));
        }
    }

    #[test]
    fn settings_errors_name_the_setting() {
        let mut cfg = EngineConfig::rasql();
        let err = cfg.set("wrokers", "2").unwrap_err();
        assert!(err.contains("wrokers"), "{err}");
        let before = format!("{cfg:?}");
        for (name, bad) in [
            ("workers", "two"),
            ("faults", "kill=lots"),
            ("timeout-ms", "-1"),
        ] {
            let err = cfg.set(name, bad).unwrap_err();
            assert!(err.contains(name) && err.contains(bad), "{err}");
        }
        assert_eq!(
            format!("{cfg:?}"),
            before,
            "a failed set leaves the config alone"
        );
        let err = apply_flags("--bogus 1").unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = apply_flags("--workers").unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn faults_off_clears_the_spec() {
        let mut cfg = apply_flags("--faults kill=0.5").unwrap();
        assert!(cfg.fault_spec.is_some());
        cfg.set("faults", "off").unwrap();
        assert_eq!(cfg.fault_spec, None);
    }

    /// The README's invocations and the shell's retired commands, spelled
    /// through the table, set the fields the old spellings set.
    #[test]
    fn old_invocations_spelled_the_new_way() {
        let c = apply_flags("--faults kill=0.1,seed=7 --retries 3 --checkpoint-every 2").unwrap();
        let spec = c.fault_spec.unwrap();
        assert_eq!((spec.kill, spec.seed), (0.1, 7));
        assert_eq!((c.max_task_retries, c.checkpoint_interval), (3, 2));

        // Shell `--timeout 30000`, server `--timeout-ms 30000`.
        let c = apply_flags("--memory-budget 67108864 --timeout-ms 30000").unwrap();
        assert_eq!((c.memory_budget, c.query_timeout_ms), (67_108_864, 30_000));

        let c = apply_flags(
            "--listen 127.0.0.1:7432 --memory-budget 67108864 --timeout-ms 30000 \
             --max-concurrent 4",
        )
        .unwrap();
        assert_eq!(c.max_concurrent_queries, 4);

        // Server `--fault 0.2` (kill only).
        let spec = apply_flags("--faults kill=0.2")
            .unwrap()
            .fault_spec
            .unwrap();
        assert_eq!(
            spec,
            FaultSpec {
                kill: 0.2,
                ..FaultSpec::default()
            }
        );

        // The shell's old fault command with `retries=5 checkpoint=2`.
        let c = apply_flags("--faults kill=0.25,seed=7 --retries 5 --checkpoint-every 2").unwrap();
        let spec = c.fault_spec.unwrap();
        assert_eq!((spec.kill, spec.seed), (0.25, 7));
        assert_eq!((c.max_task_retries, c.checkpoint_interval), (5, 2));

        // The shell's old worker-count command.
        let c = apply_flags("--workers 4").unwrap();
        assert_eq!((c.workers, c.partitions), (4, 4));

        let c = apply_flags("--data-dir rasql-data --snapshot-every 8").unwrap();
        assert_eq!(c.data_dir, Some(std::path::PathBuf::from("rasql-data")));
        assert_eq!(c.snapshot_every, 8);
    }
}
