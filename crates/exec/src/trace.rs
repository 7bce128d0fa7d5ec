//! Query-level observability: fixpoint iteration traces, stage spans, and
//! operator counters.
//!
//! A [`TraceSink`] is created per query (when tracing is enabled) and threaded
//! through the executor. The cluster records a [`StageSpan`] per stage
//! (dispatch / run / barrier timing), the fixpoint operator records one
//! [`IterationTrace`] per round per clique, and the plan evaluator records an
//! [`OperatorTrace`] per plan node. [`TraceSink::finish`] freezes everything
//! into an immutable [`QueryTrace`], which renders as text tables or exports
//! to JSON via the dependency-free [`JsonValue`] mini-codec (round-trippable
//! with [`QueryTrace::from_json`]).

use crate::metrics::MetricsSnapshot;
use rasql_storage::sync::{LockRank, RankedMutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// --------------------------------------------------------------------
// JSON mini-codec (no external dependencies)
// --------------------------------------------------------------------

/// A JSON document. Objects preserve key order so exports are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric payload as u64 (floors; negative → None).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            JsonValue::Str(s) => write_json_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let bytes: Vec<char> = s.chars().collect();
        let mut p = JsonParser {
            chars: bytes,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
}

impl JsonParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected '{c}' at offset {}", self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        for c in word.chars() {
            if self.bump() != Some(c) {
                return Err(format!("bad literal near offset {}", self.pos));
            }
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some('n') => self.literal("null", JsonValue::Null),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some(']') => return Ok(JsonValue::Arr(items)),
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some('{') => {
                self.bump();
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok(JsonValue::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some('}') => return Ok(JsonValue::Obj(pairs)),
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".into()),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

// --------------------------------------------------------------------
// Trace records
// --------------------------------------------------------------------

/// What kind of work a stage performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Unlabelled stage (legacy `run_stage` callers).
    Generic,
    /// A fixpoint map stage (delta × build joins).
    Map,
    /// A fixpoint reduce stage (merge into partitioned state).
    Reduce,
    /// A combined ShuffleMap stage (reduce + map fused, §7.1).
    Combined,
    /// The single stage of decomposed evaluation (§7.2).
    Decomposed,
    /// Per-worker broadcast build (§7.2).
    Broadcast,
    /// The map side of a shuffle exchange (bucketing).
    ShuffleWrite,
    /// The exchange side of a shuffle (gathering buckets).
    ShuffleRead,
    /// A fixpoint checkpoint capture (round-boundary state snapshot).
    Checkpoint,
}

impl StageKind {
    /// Stable string form (used in JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            StageKind::Generic => "generic",
            StageKind::Map => "map",
            StageKind::Reduce => "reduce",
            StageKind::Combined => "combined",
            StageKind::Decomposed => "decomposed",
            StageKind::Broadcast => "broadcast",
            StageKind::ShuffleWrite => "shuffle_write",
            StageKind::ShuffleRead => "shuffle_read",
            StageKind::Checkpoint => "checkpoint",
        }
    }

    /// Inverse of [`StageKind::as_str`].
    pub fn from_name(s: &str) -> Option<StageKind> {
        Some(match s {
            "generic" => StageKind::Generic,
            "map" => StageKind::Map,
            "reduce" => StageKind::Reduce,
            "combined" => StageKind::Combined,
            "decomposed" => StageKind::Decomposed,
            "broadcast" => StageKind::Broadcast,
            "shuffle_write" => StageKind::ShuffleWrite,
            "shuffle_read" => StageKind::ShuffleRead,
            "checkpoint" => StageKind::Checkpoint,
            _ => return None,
        })
    }
}

/// Timing of one scheduled stage: dispatch (scheduler latency + task
/// enqueue), run (until the first task result arrives), and barrier (first
/// result until the last — the straggler wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Human-readable stage label (e.g. `"fixpoint combined"`).
    pub label: String,
    /// Stage kind.
    pub kind: StageKind,
    /// Number of tasks in the stage.
    pub tasks: u64,
    /// Task attempts dispatched, including fault-injection retries (equals
    /// `tasks` on a fault-free stage).
    pub attempts: u64,
    /// Scheduler latency + task dispatch, µs.
    pub dispatch_us: u64,
    /// Dispatch end until first task result, µs.
    pub run_us: u64,
    /// First task result until barrier completion, µs.
    pub barrier_us: u64,
    /// Whole-stage wall clock, µs.
    pub total_us: u64,
}

/// One fixpoint round of one recursive clique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationTrace {
    /// 1-based round number.
    pub round: u32,
    /// Rows in the delta consumed by this round (0 for the closing round that
    /// detects the fixpoint).
    pub delta_rows: u64,
    /// Total rows across all recursive relations of the clique after the
    /// round's merge.
    pub total_rows: u64,
    /// Cluster stages scheduled by the round.
    pub stages: u64,
    /// Contribution rows that crossed worker boundaries in the round's
    /// shuffle.
    pub shuffle_rows: u64,
    /// Bytes that crossed worker boundaries in the round's shuffle.
    pub shuffle_bytes: u64,
    /// Round wall clock, µs.
    pub elapsed_us: u64,
    /// The round's direction: `true` (`pull`) when a kernel partition
    /// published its delta for the next round to gather instead of scanning
    /// it, `false` (`push`) otherwise.
    pub pull: bool,
    /// Edges a kernel round read: its pushed deltas' out-edges and the
    /// in-edges its gather read (0 on the interpreter, which does not count).
    pub edges: u64,
}

impl IterationTrace {
    /// `push` or `pull`, as the trace's JSON and `EXPLAIN ANALYZE` spell it.
    pub fn direction(&self) -> &'static str {
        if self.pull {
            "pull"
        } else {
            "push"
        }
    }
}

/// Trace of one recursive clique's fixpoint evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueTrace {
    /// View names of the clique, in declaration order.
    pub views: Vec<String>,
    /// Evaluation mode: `semi_naive_combined`, `semi_naive`, `naive`,
    /// `decomposed`, or `specialized`.
    pub mode: String,
    /// Inner-loop kernel the clique ran on: `generic` for the interpreter,
    /// or a monomorphized kernel label such as `csr_min_i64` / `csr_set`.
    pub kernel: String,
    /// Tuple representation the clique's state and deltas lived in: `words`
    /// (packed `Int`/`Double` lanes) or `rows` on the interpreter, `dense`
    /// (vertex-indexed slabs) on a kernel.
    pub tuples: String,
    /// Rounds until the fixpoint (max over partitions when decomposed).
    pub fixpoint_rounds: u32,
    /// Per-round records.
    pub iterations: Vec<IterationTrace>,
}

/// What kind of fault-tolerance action a [`RecoveryEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A task was re-dispatched after an injected fault.
    TaskRetry,
    /// A worker was blacklisted for repeated injected failures.
    Blacklist,
    /// A fixpoint checkpoint was captured at a round boundary.
    Checkpoint,
    /// Fixpoint state was restored from the last checkpoint and replayed.
    Restore,
    /// Memory-governed state paged out to a spill file.
    Spill,
}

impl RecoveryKind {
    /// Stable string form (used in JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::TaskRetry => "task_retry",
            RecoveryKind::Blacklist => "blacklist",
            RecoveryKind::Checkpoint => "checkpoint",
            RecoveryKind::Restore => "restore",
            RecoveryKind::Spill => "spill",
        }
    }

    /// Inverse of [`RecoveryKind::as_str`].
    pub fn from_name(s: &str) -> Option<RecoveryKind> {
        Some(match s {
            "task_retry" => RecoveryKind::TaskRetry,
            "blacklist" => RecoveryKind::Blacklist,
            "checkpoint" => RecoveryKind::Checkpoint,
            "restore" => RecoveryKind::Restore,
            "spill" => RecoveryKind::Spill,
            _ => return None,
        })
    }
}

/// One fault-tolerance action taken during the query: a task retry, a worker
/// blacklist, a checkpoint capture, or a checkpoint restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// What happened.
    pub kind: RecoveryKind,
    /// Label of the stage it happened in (or the fixpoint's view list for
    /// checkpoint/restore events).
    pub stage: String,
    /// Fixpoint round the event belongs to (0 when not round-scoped).
    pub round: u32,
    /// Human-readable detail.
    pub detail: String,
}

/// Live counters of one (final-plan) operator. Times and counts are
/// *inclusive* of the operator's children, like `EXPLAIN ANALYZE` totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorTrace {
    /// Pre-order path of the node in the plan tree (`"0"`, `"0.1"`, ...).
    pub path: String,
    /// Operator label (e.g. `"HashJoin on [1]=[0]"`).
    pub label: String,
    /// Output rows.
    pub rows: u64,
    /// Output bytes.
    pub bytes: u64,
    /// Wall clock to produce the output, µs (inclusive of children).
    pub elapsed_us: u64,
}

/// The frozen trace of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// True when the statement was answered from the result cache: nothing
    /// executed, so there are no cliques, stages or operators to show.
    pub cached: bool,
    /// Query wall clock, µs.
    pub elapsed_us: u64,
    /// Metric deltas accumulated by the query.
    pub metrics: MetricsSnapshot,
    /// Per-clique fixpoint traces, in evaluation order.
    pub cliques: Vec<CliqueTrace>,
    /// Every stage the query scheduled, in order.
    pub stages: Vec<StageSpan>,
    /// Final-plan operator counters (pre-order).
    pub operators: Vec<OperatorTrace>,
    /// Fault-tolerance actions (retries, blacklists, checkpoints, restores),
    /// in occurrence order. Empty on a fault-free run.
    pub recovery: Vec<RecoveryEvent>,
}

// --------------------------------------------------------------------
// Recorder
// --------------------------------------------------------------------

#[derive(Default)]
struct TraceData {
    stages: Vec<StageSpan>,
    cliques: Vec<CliqueTrace>,
    current: Option<CliqueTrace>,
    operators: Vec<OperatorTrace>,
    recovery: Vec<RecoveryEvent>,
}

/// Per-query trace recorder, threaded through the executor by reference.
///
/// All recording methods take `&self`; the sink is internally synchronized so
/// stages recorded from helper code paths need no coordination.
pub struct TraceSink {
    ops_enabled: AtomicBool,
    inner: RankedMutex<TraceData>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A fresh sink.
    pub fn new() -> Self {
        TraceSink {
            ops_enabled: AtomicBool::new(false),
            inner: RankedMutex::new(LockRank::TraceSink, TraceData::default()),
        }
    }

    /// Gate operator recording (enabled only around the final plan, so base
    /// case and build-side evaluations don't pollute the operator table).
    pub fn enable_operators(&self, on: bool) {
        self.ops_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether operator recording is currently enabled.
    pub fn operators_enabled(&self) -> bool {
        self.ops_enabled.load(Ordering::Relaxed)
    }

    /// Record a stage span.
    pub fn record_stage(&self, span: StageSpan) {
        self.inner.lock().stages.push(span);
    }

    /// Record a fault-tolerance action.
    pub fn record_recovery(&self, event: RecoveryEvent) {
        self.inner.lock().recovery.push(event);
    }

    /// Open a clique trace; subsequent iterations are recorded into it.
    /// `kernel` is `generic` for the interpreter, else the monomorphized
    /// fixpoint kernel that was selected (e.g. `csr_min_i64`).
    pub fn begin_clique(&self, views: Vec<String>, mode: &str, kernel: &str) {
        let mut d = self.inner.lock();
        if let Some(open) = d.current.take() {
            d.cliques.push(open); // defensive: unterminated clique
        }
        d.current = Some(CliqueTrace {
            views,
            mode: mode.to_string(),
            kernel: kernel.to_string(),
            tuples: default_tuples(kernel).to_string(),
            fixpoint_rounds: 0,
            iterations: Vec::new(),
        });
    }

    /// Name the tuple representation of the clique that just ran (the open
    /// one, or else the last closed).
    pub fn set_tuples(&self, tuples: &str) {
        let mut d = self.inner.lock();
        let d = &mut *d;
        if let Some(c) = d.current.as_mut().or(d.cliques.last_mut()) {
            c.tuples = tuples.to_string();
        }
    }

    /// Forget the open clique and the rounds recorded for it: its run was
    /// abandoned and the clique is evaluated again from its base case.
    pub fn abandon_clique(&self) {
        self.inner.lock().current = None;
    }

    /// Record one fixpoint round of the open clique.
    pub fn record_iteration(&self, it: IterationTrace) {
        let mut d = self.inner.lock();
        match &mut d.current {
            Some(c) => c.iterations.push(it),
            None => {
                // Iteration without begin_clique: open an anonymous one.
                d.current = Some(CliqueTrace {
                    views: Vec::new(),
                    mode: "unknown".into(),
                    kernel: "generic".into(),
                    tuples: default_tuples("generic").into(),
                    fixpoint_rounds: 0,
                    iterations: vec![it],
                });
            }
        }
    }

    /// Close the open clique with its final round count.
    pub fn end_clique(&self, fixpoint_rounds: u32) {
        let mut d = self.inner.lock();
        if let Some(mut c) = d.current.take() {
            c.fixpoint_rounds = fixpoint_rounds;
            d.cliques.push(c);
        }
    }

    /// Record one operator's output counters (no-op unless enabled).
    pub fn record_operator(
        &self,
        path: String,
        label: String,
        rows: u64,
        bytes: u64,
        elapsed: Duration,
    ) {
        if self.operators_enabled() {
            self.record_step(path, label, rows, bytes, elapsed);
        }
    }

    /// Record an operator line outside the final plan: a step of the
    /// statement around it (a refresh's seed, its table write).
    pub fn record_step(
        &self,
        path: String,
        label: String,
        rows: u64,
        bytes: u64,
        elapsed: Duration,
    ) {
        self.inner.lock().operators.push(OperatorTrace {
            path,
            label,
            rows,
            bytes,
            elapsed_us: elapsed.as_micros() as u64,
        });
    }

    /// Freeze into an immutable [`QueryTrace`].
    pub fn finish(self, elapsed: Duration, metrics: MetricsSnapshot) -> QueryTrace {
        let mut d = self.inner.into_inner();
        if let Some(open) = d.current.take() {
            d.cliques.push(open);
        }
        QueryTrace {
            cached: false,
            elapsed_us: elapsed.as_micros() as u64,
            metrics,
            cliques: d.cliques,
            stages: d.stages,
            operators: d.operators,
            recovery: d.recovery,
        }
    }
}

// --------------------------------------------------------------------
// JSON (de)serialization
// --------------------------------------------------------------------

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn get_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

/// Like [`get_u64`] but tolerates a missing field (older trace exports predate
/// the fault-tolerance counters).
fn get_u64_or(obj: &JsonValue, key: &str, default: u64) -> u64 {
    obj.get(key).and_then(JsonValue::as_u64).unwrap_or(default)
}

/// The counters the first trace export wrote; a trace without one of them is
/// malformed. Every later metric reads as 0 when absent.
const REQUIRED_METRICS: [&str; 8] = [
    "stages",
    "tasks",
    "shuffle_rows",
    "shuffle_bytes",
    "remote_fetch_bytes",
    "broadcast_bytes",
    "join_output_rows",
    "iterations",
];

/// The tuple representation of a clique nothing said otherwise about: the
/// interpreter's rows, a kernel's dense slabs.
fn default_tuples(kernel: &str) -> &'static str {
    if kernel == "generic" {
        "rows"
    } else {
        "dense"
    }
}

fn get_str(obj: &JsonValue, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

impl QueryTrace {
    /// The trace of a statement answered from the result cache.
    pub fn cached(elapsed: Duration) -> QueryTrace {
        QueryTrace {
            cached: true,
            elapsed_us: elapsed.as_micros() as u64,
            metrics: MetricsSnapshot::default(),
            cliques: Vec::new(),
            stages: Vec::new(),
            operators: Vec::new(),
            recovery: Vec::new(),
        }
    }

    /// Export as a compact JSON string. See DESIGN.md "Observability" for the
    /// schema; [`QueryTrace::from_json`] round-trips it.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Export as a [`JsonValue`] tree.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("cached".into(), JsonValue::Bool(self.cached)),
            ("elapsed_us".into(), num(self.elapsed_us)),
            (
                "metrics".into(),
                JsonValue::Obj(
                    (self.metrics.fields().into_iter())
                        .map(|(name, v)| (name.to_string(), num(v)))
                        .collect(),
                ),
            ),
            (
                "cliques".into(),
                JsonValue::Arr(
                    self.cliques
                        .iter()
                        .map(|c| {
                            JsonValue::Obj(vec![
                                (
                                    "views".into(),
                                    JsonValue::Arr(
                                        c.views.iter().map(|v| JsonValue::Str(v.clone())).collect(),
                                    ),
                                ),
                                ("mode".into(), JsonValue::Str(c.mode.clone())),
                                ("kernel".into(), JsonValue::Str(c.kernel.clone())),
                                ("tuples".into(), JsonValue::Str(c.tuples.clone())),
                                ("fixpoint_rounds".into(), num(c.fixpoint_rounds as u64)),
                                (
                                    "iterations".into(),
                                    JsonValue::Arr(
                                        c.iterations
                                            .iter()
                                            .map(|it| {
                                                JsonValue::Obj(vec![
                                                    ("round".into(), num(it.round as u64)),
                                                    ("delta_rows".into(), num(it.delta_rows)),
                                                    ("total_rows".into(), num(it.total_rows)),
                                                    ("stages".into(), num(it.stages)),
                                                    ("shuffle_rows".into(), num(it.shuffle_rows)),
                                                    ("shuffle_bytes".into(), num(it.shuffle_bytes)),
                                                    ("elapsed_us".into(), num(it.elapsed_us)),
                                                    (
                                                        "direction".into(),
                                                        JsonValue::Str(it.direction().into()),
                                                    ),
                                                    ("edges".into(), num(it.edges)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stages".into(),
                JsonValue::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            JsonValue::Obj(vec![
                                ("label".into(), JsonValue::Str(s.label.clone())),
                                ("kind".into(), JsonValue::Str(s.kind.as_str().into())),
                                ("tasks".into(), num(s.tasks)),
                                ("attempts".into(), num(s.attempts)),
                                ("dispatch_us".into(), num(s.dispatch_us)),
                                ("run_us".into(), num(s.run_us)),
                                ("barrier_us".into(), num(s.barrier_us)),
                                ("total_us".into(), num(s.total_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "operators".into(),
                JsonValue::Arr(
                    self.operators
                        .iter()
                        .map(|o| {
                            JsonValue::Obj(vec![
                                ("path".into(), JsonValue::Str(o.path.clone())),
                                ("label".into(), JsonValue::Str(o.label.clone())),
                                ("rows".into(), num(o.rows)),
                                ("bytes".into(), num(o.bytes)),
                                ("elapsed_us".into(), num(o.elapsed_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "recovery".into(),
                JsonValue::Arr(
                    self.recovery
                        .iter()
                        .map(|e| {
                            JsonValue::Obj(vec![
                                ("kind".into(), JsonValue::Str(e.kind.as_str().into())),
                                ("stage".into(), JsonValue::Str(e.stage.clone())),
                                ("round".into(), num(e.round as u64)),
                                ("detail".into(), JsonValue::Str(e.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a trace from its JSON export.
    pub fn from_json(s: &str) -> Result<QueryTrace, String> {
        let root = JsonValue::parse(s)?;
        let m = root.get("metrics").ok_or("missing 'metrics'")?;
        let metrics = MetricsSnapshot::from_fields(|name| {
            if REQUIRED_METRICS.contains(&name) {
                get_u64(m, name)
            } else {
                Ok(get_u64_or(m, name, 0))
            }
        })?;
        let mut cliques = Vec::new();
        for c in root
            .get("cliques")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'cliques'")?
        {
            let views = c
                .get("views")
                .and_then(JsonValue::as_arr)
                .ok_or("missing 'views'")?
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or("non-string view name"))
                .collect::<Result<Vec<_>, _>>()?;
            let mut iterations = Vec::new();
            for it in c
                .get("iterations")
                .and_then(JsonValue::as_arr)
                .ok_or("missing 'iterations'")?
            {
                iterations.push(IterationTrace {
                    round: get_u64(it, "round")? as u32,
                    delta_rows: get_u64(it, "delta_rows")?,
                    total_rows: get_u64(it, "total_rows")?,
                    stages: get_u64(it, "stages")?,
                    shuffle_rows: get_u64(it, "shuffle_rows")?,
                    shuffle_bytes: get_u64(it, "shuffle_bytes")?,
                    elapsed_us: get_u64(it, "elapsed_us")?,
                    // Older exports predate pull rounds.
                    pull: match get_str(it, "direction").as_deref() {
                        Ok("pull") => true,
                        Ok("push") | Err(_) => false,
                        Ok(other) => return Err(format!("unknown direction '{other}'")),
                    },
                    edges: get_u64_or(it, "edges", 0),
                });
            }
            // Older exports predate kernel selection — they all ran the
            // interpreter — and word lanes.
            let kernel = get_str(c, "kernel").unwrap_or_else(|_| "generic".into());
            cliques.push(CliqueTrace {
                views,
                mode: get_str(c, "mode")?,
                tuples: get_str(c, "tuples").unwrap_or_else(|_| default_tuples(&kernel).into()),
                kernel,
                fixpoint_rounds: get_u64(c, "fixpoint_rounds")? as u32,
                iterations,
            });
        }
        let mut stages = Vec::new();
        for s in root
            .get("stages")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'stages'")?
        {
            let kind_s = get_str(s, "kind")?;
            let tasks = get_u64(s, "tasks")?;
            stages.push(StageSpan {
                label: get_str(s, "label")?,
                kind: StageKind::from_name(&kind_s)
                    .ok_or_else(|| format!("unknown stage kind '{kind_s}'"))?,
                tasks,
                attempts: get_u64_or(s, "attempts", tasks),
                dispatch_us: get_u64(s, "dispatch_us")?,
                run_us: get_u64(s, "run_us")?,
                barrier_us: get_u64(s, "barrier_us")?,
                total_us: get_u64(s, "total_us")?,
            });
        }
        let mut operators = Vec::new();
        for o in root
            .get("operators")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'operators'")?
        {
            operators.push(OperatorTrace {
                path: get_str(o, "path")?,
                label: get_str(o, "label")?,
                rows: get_u64(o, "rows")?,
                bytes: get_u64(o, "bytes")?,
                elapsed_us: get_u64(o, "elapsed_us")?,
            });
        }
        let mut recovery = Vec::new();
        if let Some(events) = root.get("recovery").and_then(JsonValue::as_arr) {
            for e in events {
                let kind_s = get_str(e, "kind")?;
                recovery.push(RecoveryEvent {
                    kind: RecoveryKind::from_name(&kind_s)
                        .ok_or_else(|| format!("unknown recovery kind '{kind_s}'"))?,
                    stage: get_str(e, "stage")?,
                    round: get_u64_or(e, "round", 0) as u32,
                    detail: get_str(e, "detail")?,
                });
            }
        }
        Ok(QueryTrace {
            // Absent from exports that predate the marker.
            cached: matches!(root.get("cached"), Some(JsonValue::Bool(true))),
            elapsed_us: get_u64(&root, "elapsed_us")?,
            metrics,
            cliques,
            stages,
            operators,
            recovery,
        })
    }

    /// Render just the per-clique fixpoint iteration tables — the piece
    /// `EXPLAIN ANALYZE` splices under its annotated plan.
    pub fn render_iterations(&self) -> String {
        let mut out = String::new();
        for c in &self.cliques {
            out.push_str(&format!(
                "\nFixpoint [{}] mode={} kernel={} rounds={} tuples={}\n",
                c.views.join(", "),
                c.mode,
                c.kernel,
                c.fixpoint_rounds,
                c.tuples
            ));
            // Only a kernel chooses a direction per round.
            let directed = c.kernel != "generic";
            out.push_str(
                "  iter | delta_rows | total_rows | stages | shuffle_rows | shuffle_bytes | time_ms",
            );
            out.push_str(if directed { " | dir | edges\n" } else { "\n" });
            for it in &c.iterations {
                out.push_str(&format!(
                    "  {:>4} | {:>10} | {:>10} | {:>6} | {:>12} | {:>13} | {:>7.3}",
                    it.round,
                    it.delta_rows,
                    it.total_rows,
                    it.stages,
                    it.shuffle_rows,
                    it.shuffle_bytes,
                    it.elapsed_us as f64 / 1000.0
                ));
                if directed {
                    out.push_str(&format!(" | {} | {:>8}", it.direction(), it.edges));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Render the resource-governance section: spill volume, peak governed
    /// memory, and admission/cancellation counts. Empty string when the
    /// query ran ungoverned (no budget, no limits) and nothing spilled.
    pub fn render_governance(&self) -> String {
        let m = &self.metrics;
        if m.spilled_bytes + m.spill_files + m.cancellations + m.rejected == 0 {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "\nGovernance: spilled {} B in {} files, peak memory {} B",
            m.spilled_bytes, m.spill_files, m.peak_memory
        ));
        if m.cancellations + m.rejected > 0 {
            out.push_str(&format!(
                ", {} cancellations, {} rejected",
                m.cancellations, m.rejected
            ));
        }
        out.push('\n');
        out
    }

    /// Render the fault-tolerance section: a recovery summary line plus one
    /// line per event. Empty string when the run was fault-free.
    pub fn render_recovery(&self) -> String {
        let m = &self.metrics;
        if self.recovery.is_empty()
            && m.task_failures + m.task_retries + m.checkpoints + m.restores == 0
        {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "\nRecovery: {} failures, {} retries, {} blacklists, {} checkpoints ({} B), {} restores\n",
            m.task_failures,
            m.task_retries,
            m.worker_blacklists,
            m.checkpoints,
            m.checkpoint_bytes,
            m.restores
        ));
        for e in &self.recovery {
            if e.round > 0 {
                out.push_str(&format!(
                    "  [{}] round {} {}: {}\n",
                    e.kind.as_str(),
                    e.round,
                    e.stage,
                    e.detail
                ));
            } else {
                out.push_str(&format!(
                    "  [{}] {}: {}\n",
                    e.kind.as_str(),
                    e.stage,
                    e.detail
                ));
            }
        }
        out
    }

    /// The stage-span summary, one line per label in first-run order; empty
    /// when no span was recorded.
    pub fn render_stages(&self) -> String {
        let mut out = String::new();
        if self.stages.is_empty() {
            return out;
        }
        out.push_str("\nStage spans (aggregated by label):\n");
        // Aggregate consecutive-label-equal spans into per-label totals:
        // (stages, dispatch_us, run_us, barrier_us, total_us, tasks, attempts).
        type SpanTotals = (u64, u64, u64, u64, u64, u64, u64);
        let mut order: Vec<String> = Vec::new();
        let mut agg: std::collections::HashMap<String, SpanTotals> =
            std::collections::HashMap::new();
        for s in &self.stages {
            let e = agg.entry(s.label.clone()).or_insert_with(|| {
                order.push(s.label.clone());
                (0, 0, 0, 0, 0, 0, 0)
            });
            e.0 += 1;
            e.1 += s.dispatch_us;
            e.2 += s.run_us;
            e.3 += s.barrier_us;
            e.4 += s.total_us;
            e.5 += s.tasks;
            e.6 += s.attempts;
        }
        out.push_str(
            "  label                    | stages | retries | dispatch_ms | run_ms | barrier_ms | total_ms\n",
        );
        for label in order {
            let (n, d, r, b, t, tasks, attempts) = agg[&label];
            out.push_str(&format!(
                "  {:<24} | {:>6} | {:>7} | {:>11.3} | {:>6.3} | {:>10.3} | {:>8.3}\n",
                label,
                n,
                attempts - tasks,
                d as f64 / 1000.0,
                r as f64 / 1000.0,
                b as f64 / 1000.0,
                t as f64 / 1000.0
            ));
        }
        out
    }

    /// Render as human-readable text: one table per clique (the per-iteration
    /// record), a stage-span summary grouped by label, recovery events, and
    /// the operator list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.cached {
            return format!(
                "query: {:.3} ms, cached (served from the result cache, nothing executed)\n",
                self.elapsed_us as f64 / 1000.0
            );
        }
        out.push_str(&format!(
            "query: {:.3} ms, {} stages, {} tasks, {} iterations\n",
            self.elapsed_us as f64 / 1000.0,
            self.metrics.stages,
            self.metrics.tasks,
            self.metrics.iterations,
        ));
        if self.metrics.remote_fetches > 0 {
            out.push_str(&format!(
                "remote fetches: {} tasks off their home worker, {} B deep-copied\n",
                self.metrics.remote_fetches, self.metrics.remote_fetch_bytes
            ));
        }
        out.push_str(&self.render_iterations());
        out.push_str(&self.render_stages());
        out.push_str(&self.render_recovery());
        out.push_str(&self.render_governance());
        if !self.operators.is_empty() {
            out.push_str("\nOperators (final plan, inclusive):\n");
            for o in &self.operators {
                let depth = o.path.chars().filter(|&c| c == '.').count();
                out.push_str(&format!(
                    "  {}{} rows={} bytes={} time={:.3}ms\n",
                    "  ".repeat(depth),
                    o.label,
                    o.rows,
                    o.bytes,
                    o.elapsed_us as f64 / 1000.0
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        QueryTrace {
            cached: false,
            elapsed_us: 1234,
            metrics: MetricsSnapshot {
                stages: 5,
                tasks: 20,
                shuffle_rows: 100,
                shuffle_bytes: 4096,
                remote_fetch_bytes: 0,
                broadcast_bytes: 512,
                join_output_rows: 77,
                iterations: 3,
                task_failures: 2,
                task_retries: 2,
                checkpoints: 1,
                checkpoint_bytes: 640,
                restores: 1,
                ..Default::default()
            },
            cliques: vec![
                CliqueTrace {
                    views: vec!["tc".into()],
                    mode: "semi_naive_combined".into(),
                    kernel: "generic".into(),
                    tuples: "words".into(),
                    fixpoint_rounds: 3,
                    iterations: vec![
                        IterationTrace {
                            round: 1,
                            delta_rows: 10,
                            total_rows: 10,
                            stages: 1,
                            shuffle_rows: 4,
                            shuffle_bytes: 160,
                            elapsed_us: 300,
                            pull: false,
                            edges: 0,
                        },
                        IterationTrace {
                            round: 2,
                            delta_rows: 0,
                            total_rows: 14,
                            stages: 1,
                            shuffle_rows: 0,
                            shuffle_bytes: 0,
                            elapsed_us: 200,
                            pull: false,
                            edges: 0,
                        },
                    ],
                },
                CliqueTrace {
                    views: vec!["path".into()],
                    mode: "specialized".into(),
                    kernel: "csr_min_f64".into(),
                    tuples: "dense".into(),
                    fixpoint_rounds: 2,
                    iterations: (1..=3)
                        .map(|round| IterationTrace {
                            round,
                            delta_rows: 3 - u64::from(round),
                            total_rows: 9,
                            stages: 1,
                            shuffle_rows: 1,
                            shuffle_bytes: 12,
                            elapsed_us: 100,
                            pull: round == 1,
                            edges: 40 * u64::from(round),
                        })
                        .collect(),
                },
            ],
            stages: vec![StageSpan {
                label: "fixpoint combined".into(),
                kind: StageKind::Combined,
                tasks: 4,
                attempts: 6,
                dispatch_us: 2000,
                run_us: 40,
                barrier_us: 12,
                total_us: 2052,
            }],
            operators: vec![OperatorTrace {
                path: "0.1".into(),
                label: "TableScan edge".into(),
                rows: 42,
                bytes: 1344,
                elapsed_us: 15,
            }],
            recovery: vec![
                RecoveryEvent {
                    kind: RecoveryKind::TaskRetry,
                    stage: "fixpoint combined".into(),
                    round: 0,
                    detail: "task 1 attempt 2 after injected kill on worker 0".into(),
                },
                RecoveryEvent {
                    kind: RecoveryKind::Restore,
                    stage: "tc".into(),
                    round: 2,
                    detail: "restored 4 partitions at round 2".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = t.to_json();
        let back = QueryTrace::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v =
            JsonValue::parse(r#"{"a":[1,2.5,-3],"b":"x\n\"y\"","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(|a| a.len()),
            Some(3)
        );
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn cached_trace_says_so_and_round_trips() {
        let t = QueryTrace::cached(Duration::from_micros(250));
        assert!(t.render().contains("cached"), "{}", t.render());
        assert!(t.to_json().contains("\"cached\":true"), "{}", t.to_json());
        assert_eq!(QueryTrace::from_json(&t.to_json()).unwrap(), t);
        assert!(!QueryTrace::from_json(&sample().to_json()).unwrap().cached);
    }

    #[test]
    fn a_kernel_clique_names_each_round_direction() {
        let t = sample();
        assert!(t.to_json().contains("\"direction\":\"pull\""));
        let text = t.render_iterations();
        let lines: Vec<&str> = text.lines().collect();
        // The interpreter's table keeps its columns; a kernel's adds `dir`.
        assert!(lines[2].ends_with("| time_ms"), "{text}");
        assert!(!lines[3].contains("push"), "{text}");
        let kernel = lines
            .iter()
            .position(|l| l.contains("csr_min_f64"))
            .unwrap();
        assert!(
            lines[kernel + 1].ends_with("| time_ms | dir | edges"),
            "{text}"
        );
        assert!(lines[kernel + 2].ends_with("| pull |       40"), "{text}");
        assert!(lines[kernel + 3].ends_with("| push |       80"), "{text}");
    }

    #[test]
    fn render_mentions_key_counters() {
        let text = sample().render();
        assert!(text.contains("delta_rows"), "{text}");
        assert!(text.contains("semi_naive_combined"), "{text}");
        assert!(text.contains("rows=42"), "{text}");
    }

    #[test]
    fn sink_collects_in_order() {
        let sink = TraceSink::new();
        sink.begin_clique(vec!["v".into()], "semi_naive", "generic");
        sink.record_iteration(IterationTrace {
            round: 1,
            delta_rows: 5,
            total_rows: 5,
            stages: 2,
            shuffle_rows: 0,
            shuffle_bytes: 0,
            elapsed_us: 10,
            pull: false,
            edges: 0,
        });
        sink.end_clique(1);
        sink.record_operator("0".into(), "x".into(), 1, 8, Duration::from_micros(3));
        // Disabled by default: the operator above must NOT be recorded.
        sink.enable_operators(true);
        sink.record_operator("0".into(), "y".into(), 2, 16, Duration::from_micros(4));
        let t = sink.finish(Duration::from_millis(1), MetricsSnapshot::default());
        assert_eq!(t.cliques.len(), 1);
        assert_eq!(t.cliques[0].fixpoint_rounds, 1);
        assert_eq!(t.operators.len(), 1);
        assert_eq!(t.operators[0].label, "y");
    }

    #[test]
    fn stage_kind_string_round_trip() {
        for k in [
            StageKind::Generic,
            StageKind::Map,
            StageKind::Reduce,
            StageKind::Combined,
            StageKind::Decomposed,
            StageKind::Broadcast,
            StageKind::ShuffleWrite,
            StageKind::ShuffleRead,
            StageKind::Checkpoint,
        ] {
            assert_eq!(StageKind::from_name(k.as_str()), Some(k));
        }
        for k in [
            RecoveryKind::TaskRetry,
            RecoveryKind::Blacklist,
            RecoveryKind::Checkpoint,
            RecoveryKind::Restore,
            RecoveryKind::Spill,
        ] {
            assert_eq!(RecoveryKind::from_name(k.as_str()), Some(k));
        }
    }

    #[test]
    fn old_trace_json_without_recovery_fields_still_parses() {
        // Simulate a pre-fault-tolerance export: strip the new fields.
        let mut t = sample();
        t.recovery.clear();
        t.metrics = MetricsSnapshot {
            stages: 5,
            tasks: 20,
            shuffle_rows: 100,
            shuffle_bytes: 4096,
            broadcast_bytes: 512,
            join_output_rows: 77,
            iterations: 3,
            ..Default::default()
        };
        let json = t.to_json();
        // Drop the recovery array and new metric keys textually.
        let json = json
            .replace(",\"recovery\":[]", "")
            .replace(",\"remote_fetches\":0", "")
            .replace(",\"task_failures\":0", "")
            .replace(",\"task_retries\":0", "")
            .replace(",\"worker_blacklists\":0", "")
            .replace(",\"checkpoints\":0", "")
            .replace(",\"checkpoint_bytes\":0", "")
            .replace(",\"restores\":0", "")
            .replace(",\"combined_rows\":0", "")
            .replace(",\"spilled_bytes\":0", "")
            .replace(",\"spill_files\":0", "")
            .replace(",\"peak_memory\":0", "")
            .replace(",\"cancellations\":0", "")
            .replace(",\"admitted\":0", "")
            .replace(",\"rejected\":0", "")
            .replace(",\"kernel\":\"generic\"", "")
            .replace(",\"direction\":\"push\"", "")
            .replace(",\"edges\":0", "")
            .replace(",\"attempts\":6", "");
        let back = QueryTrace::from_json(&json).unwrap();
        assert_eq!(back.metrics.stages, 5);
        assert!(back.recovery.is_empty());
        // attempts defaults to tasks when absent.
        assert_eq!(back.stages[0].attempts, back.stages[0].tasks);
        // Pre-kernel exports all ran the interpreter, and pushed.
        assert_eq!(back.cliques[0].kernel, "generic");
        assert!(back.cliques[0].iterations.iter().all(|it| !it.pull));
        assert_eq!(back.metrics.combined_rows, 0);
    }

    #[test]
    fn render_recovery_lists_events() {
        let text = sample().render();
        assert!(text.contains("Recovery:"), "{text}");
        assert!(text.contains("[task_retry]"), "{text}");
        assert!(text.contains("[restore] round 2"), "{text}");
        // Fault-free traces render no recovery section.
        let mut clean = sample();
        clean.recovery.clear();
        clean.metrics = MetricsSnapshot::default();
        assert!(!clean.render().contains("Recovery:"));
    }
}
