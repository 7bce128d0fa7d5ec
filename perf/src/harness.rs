//! What every workload shares: the sample recorder, the span recorder of the
//! traced run, the set-up/measure/tear-down skeleton, and the end-to-end
//! metric definitions.

use crate::layers::{EngineLayers, Metrics};
use crate::oracle::Expect;
use crate::stats::{geomean, median, percentile, ratio};
use rasql_core::{QueryResult, RaSqlContext};
use rasql_exec::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The fixed engine settings of every workload (recorded in the run header).
pub const WORKERS: usize = 2;

/// How often set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs, for the unit-test pass over all four workloads.
    pub smoke: bool,
}

/// The context builder every workload starts from: `EngineConfig::rasql()`
/// with two workers and partitions and no simulated stage latency (a `sleep`
/// per stage; stage counts are a per-layer metric instead).
pub fn engine() -> rasql_core::ContextBuilder {
    RaSqlContext::builder()
        .workers(WORKERS)
        .partitions(WORKERS)
        .stage_latency_us(0)
}

/// Where the benchmark writes: traces and temporary data directories.
pub fn output_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("perf")
}

/// A fresh, empty `perf-*` directory under [`output_dir`]; its creator removes it.
pub fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = output_dir().join(format!(
        "perf-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir under the output dir");
    dir
}

/// `perf-*` directories of this process still present: a leak if non-empty.
pub fn leaked_temp_dirs() -> Vec<PathBuf> {
    let prefix = "perf-";
    let mine = format!("-{}-", std::process::id());
    std::fs::read_dir(output_dir())
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.contains(&mine))
        })
        .collect()
}

/// One statement: its kind (the unit latencies are grouped by), its SQL and
/// what the answer must be.
pub struct Stmt {
    pub kind: &'static str,
    pub sql: String,
    pub expect: Expect,
}

impl Stmt {
    pub fn new(kind: &'static str, sql: String, expect: Expect) -> Self {
        Stmt { kind, sql, expect }
    }
}

/// Latency samples by statement kind, cycle times, and the tallies behind
/// `attempted`/`failed`.
#[derive(Default)]
pub struct Recorder {
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    pub cycles_ms: Vec<f64>,
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run's notes.
    pub failures: Vec<String>,
}

impl Recorder {
    /// Record one statement: `outcome` is the rows delivered, or why the
    /// statement counts as failed (an error, a refusal, or a wrong answer).
    pub fn statement(
        &mut self,
        kind: &'static str,
        elapsed: Duration,
        outcome: Result<u64, String>,
    ) {
        self.by_kind
            .entry(kind)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
        self.attempted += 1;
        match outcome {
            Ok(rows) => self.rows += rows,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("{kind}: {why}"));
                }
            }
        }
    }

    pub fn cycle(&mut self, elapsed: Duration) {
        self.cycles_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn absorb(&mut self, other: Recorder) {
        for (kind, samples) in other.by_kind {
            self.by_kind.entry(kind).or_default().extend(samples);
        }
        self.cycles_ms.extend(other.cycles_ms);
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    pub fn kind_median(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).map_or(0.0, |s| median(s))
    }

    /// Geometric mean over kinds of the per-kind median: every kind weighs
    /// the same however often it ran.
    pub fn geomean_ms(&self) -> f64 {
        geomean(&self.by_kind.values().map(|s| median(s)).collect::<Vec<_>>())
    }

    pub fn pooled(&self) -> Vec<f64> {
        self.by_kind.values().flatten().copied().collect()
    }
}

/// Run `stmt` on `ctx`, check the answer, record it. Returns the latency in
/// milliseconds and, for callers that read its statistics or trace, the result.
pub fn run_statement(
    ctx: &RaSqlContext,
    stmt: &Stmt,
    rec: &mut Recorder,
    spans: &mut Spans,
) -> (f64, Option<QueryResult>) {
    // The statement span's self time is the harness's own: checking the answer.
    let statement = spans.open("statement", stmt.kind);
    let (result, elapsed) = spans.time("core.context.query", stmt.kind, || ctx.query(&stmt.sql));
    let outcome = match &result {
        Ok(r) => stmt
            .expect
            .check(r.relation.rows())
            .map(|()| r.relation.len() as u64),
        Err(e) => Err(e.to_string()),
    };
    spans.close(statement);
    rec.statement(stmt.kind, elapsed, outcome);
    (elapsed.as_secs_f64() * 1e3, result.ok())
}

/// One recorded call into a layer.
struct Span {
    name: &'static str,
    /// What the call worked on (a statement kind, or `-` for probes).
    detail: &'static str,
    statement: u64,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

/// In-memory spans around the harness's calls into each layer; off for
/// end-to-end runs, written to `trace-<workload>.json` after a traced one.
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The statement the next spans belong to.
    pub statement: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
            statement: 0,
        }
    }

    /// Spans for another thread of the same run, on the same clock.
    pub fn fork(&self) -> Spans {
        Spans {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            statement: 0,
        }
    }

    /// Open a span under the innermost open one; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, detail: &'static str) -> Option<usize> {
        let origin = self.origin?;
        self.spans.push(Span {
            name,
            detail,
            statement: self.statement,
            parent: self.open.last().copied(),
            start_us: origin.elapsed().as_micros() as u64,
            end_us: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let (Some(id), Some(origin)) = (span, self.origin) {
            self.spans[id].end_us = origin.elapsed().as_micros() as u64;
            self.open.retain(|&open| open != id);
        }
    }

    /// Time `f` inside a span; the duration is returned traced or not.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let span = self.open(name, detail);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.close(span);
        (out, elapsed)
    }

    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write `trace-<workload>.json`: every span, and per span name the self
    /// time (a span minus its children).
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut self_us: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_us) {
            let entry = self_us.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_us - s.start_us).saturating_sub(*children);
        }
        let num = |v: u64| JsonValue::Num(v as f64);
        let doc = JsonValue::Obj(vec![
            ("workload".into(), JsonValue::Str(workload.into())),
            (
                "self_time".into(),
                JsonValue::Arr(
                    self_us
                        .into_iter()
                        .map(|(name, (calls, us))| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(name.into())),
                                ("calls".into(), num(calls)),
                                ("self_us".into(), num(us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            JsonValue::Obj(vec![
                                ("id".into(), num(id as u64)),
                                ("name".into(), JsonValue::Str(s.name.into())),
                                ("detail".into(), JsonValue::Str(s.detail.into())),
                                ("statement".into(), num(s.statement)),
                                (
                                    "parent".into(),
                                    s.parent.map_or(JsonValue::Null, |p| num(p as u64)),
                                ),
                                ("start_us".into(), num(s.start_us)),
                                ("end_us".into(), num(s.end_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let dir = output_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, doc.render())?;
        Ok(path)
    }
}

/// What one workload run produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// No statement failed and every after-run check (recovery digest,
    /// drained shutdown, no leaked directory) held.
    pub correct: bool,
    /// Metric name → value; units come from `BENCHMARK.json`.
    pub metrics: Metrics,
    /// Free-form lines for the run's header: sizes, counts, sample sizes.
    pub notes: Vec<String>,
}

impl Report {
    /// Close a run: total the statements of both recorders, write the spans
    /// of a traced run, and judge correctness.
    pub fn new(
        args: &RunArgs,
        workload: &str,
        sizes: String,
        measured: Measured,
        side: TracedSide,
        mut metrics: Metrics,
    ) -> Report {
        let mut notes = vec![sizes];
        notes.extend(measured.sample_notes());
        let mut correct = measured.hygiene.is_empty();
        if args.traced {
            match side.spans.write(workload) {
                Ok(path) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => {
                    notes.push(format!("HYGIENE could not write the spans: {e}"));
                    correct = false;
                }
            }
        }
        let attempted = measured.rec.attempted + side.plain.attempted;
        let failed = measured.rec.failed + side.plain.failed;
        notes.extend(side.plain.failures.iter().map(|f| format!("FAILED {f}")));
        if args.traced {
            metrics.insert("failed_ratio", ratio(failed as f64, attempted as f64));
        }
        Report {
            attempted,
            failed,
            correct: correct && failed == 0 && attempted > 0,
            metrics,
            notes,
        }
    }
}

/// The measured phase and what surrounds it.
pub struct Measured {
    pub rec: Recorder,
    pub wall: Duration,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Tear-down complaints (a leak, an undrained server): each fails the run.
    pub hygiene: Vec<String>,
}

/// Set up, run the measured phase, tear down — then, for an end-to-end run,
/// set up and tear down again so `setup_s` is a median, not one sample.
pub fn measure<L>(
    args: &RunArgs,
    setup: impl Fn() -> L,
    run: impl FnOnce(&mut L, &mut Recorder),
    teardown: impl Fn(L) -> Result<(), String>,
) -> Measured {
    let mut setup_s = Vec::new();
    let mut hygiene = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let live = setup();
        setup_s.push(start.elapsed().as_secs_f64());
        live
    };
    let mut live = timed_setup(&mut setup_s);
    let mut rec = Recorder::default();
    let start = Instant::now();
    run(&mut live, &mut rec);
    let wall = start.elapsed();
    let peak_rss_mb = peak_rss_mb();
    hygiene.extend(teardown(live).err());
    let repeats = if args.traced || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    for _ in 1..repeats {
        let live = timed_setup(&mut setup_s);
        hygiene.extend(teardown(live).err());
    }
    hygiene.extend(
        leaked_temp_dirs()
            .iter()
            .map(|p| format!("leaked {}", p.display())),
    );
    Measured {
        rec,
        wall,
        setup_s,
        peak_rss_mb,
        hygiene,
    }
}

impl Measured {
    /// The end-to-end metrics, as `BENCHMARK.json` names them.
    pub fn end_to_end(&self) -> Metrics {
        let rec = &self.rec;
        let wall = self.wall.as_secs_f64();
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("stmt_ms_geomean", rec.geomean_ms()),
            ("stmt_ms_p95", percentile(&rec.pooled(), 0.95)),
            ("cycle_ms_p50", median(&rec.cycles_ms)),
            (
                "stmts_per_s",
                ratio((rec.attempted - rec.failed) as f64, wall),
            ),
            ("rows_per_s", ratio(rec.rows as f64, wall)),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// Sample sizes behind the medians and the percentile.
    fn sample_notes(&self) -> Vec<String> {
        let rec = &self.rec;
        let per_kind: Vec<String> = rec
            .by_kind
            .iter()
            .map(|(k, s)| format!("{k}={} (p50 {:.3} ms)", s.len(), median(s)))
            .collect();
        let pooled = rec.pooled();
        let mut notes = vec![
            format!("samples per kind: {}", per_kind.join(", ")),
            format!(
                "pooled samples: {} ({} beyond p95; p99 {:.3} ms, for information)",
                pooled.len(),
                pooled.len() / 20,
                percentile(&pooled, 0.99)
            ),
            format!(
                "cycles: {}; measured wall {:.2} s",
                rec.cycles_ms.len(),
                self.wall.as_secs_f64()
            ),
        ];
        notes.extend(rec.failures.iter().map(|f| format!("FAILED {f}")));
        notes.extend(self.hygiene.iter().map(|h| format!("HYGIENE {h}")));
        notes
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The traced run's side of a measured phase: spans around the harness's
/// calls, the engine's own counters, and the cycles run with tracing off
/// (the base of `exec.trace.overhead_ratio`).
pub struct TracedSide {
    pub spans: Spans,
    pub layers: EngineLayers,
    pub plain: Recorder,
}

impl TracedSide {
    pub fn new(args: &RunArgs) -> Self {
        TracedSide {
            spans: Spans::new(args.traced),
            layers: EngineLayers::default(),
            plain: Recorder::default(),
        }
    }

    /// The per-layer metrics every workload reports: the engine's own
    /// counters, and traced `stmt_ms_geomean` over untraced from the two
    /// kinds of cycle of this one run.
    pub fn metrics(&self, traced: &Recorder) -> Metrics {
        let mut metrics = Metrics::new();
        self.layers.metrics(&mut metrics);
        metrics.insert(
            "exec.trace.overhead_ratio",
            ratio(traced.geomean_ms(), self.plain.geomean_ms()),
        );
        metrics
    }
}

/// A statement and the index of the context it runs on.
pub type Placed = (usize, Stmt);

/// The closed loop of the in-process workloads: whole cycles until
/// `args.seconds` have passed or `cycle_of` runs out of inputs. `before(i)`
/// runs untimed ahead of cycle `i`; `after(i, j, ms)` sees the latency of
/// statement `j` of cycle `i`. A traced run switches engine tracing off for
/// every other cycle and records those into `side.plain`.
pub fn run_cycles<'a>(
    args: &RunArgs,
    ctxs: &[RaSqlContext],
    cycle_of: impl Fn(usize) -> Option<&'a [Placed]>,
    mut before: impl FnMut(usize),
    mut after: impl FnMut(usize, usize, f64),
    rec: &mut Recorder,
    side: &mut TracedSide,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for i in 0.. {
        let Some(cycle) = cycle_of(i) else { break };
        before(i);
        // Shifted by one every eighth cycle, so cold cycles that come at a
        // fixed period land on both sides.
        let tracing = args.traced && (i + i / 8) % 2 == 1;
        ctxs.iter().for_each(|c| c.set_tracing(tracing));
        let rec = if args.traced && !tracing {
            &mut side.plain
        } else {
            &mut *rec
        };
        let start = Instant::now();
        for (j, (ctx, stmt)) in cycle.iter().enumerate() {
            side.spans.statement += 1;
            let (ms, result) = run_statement(&ctxs[*ctx], stmt, rec, &mut side.spans);
            if let Some(r) = &result {
                side.layers.observe(r);
            }
            after(i, j, ms);
        }
        rec.cycle(start.elapsed());
        side.layers.end_cycle();
        if Instant::now() >= deadline {
            break;
        }
    }
}
