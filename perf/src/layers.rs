//! Per-layer measurements, all taken from outside the program: what the
//! engine already returns with a result (`QueryStats`, `QueryTrace`), and
//! timed calls into each layer's public functions on the workload's own rows.

use crate::harness::{temp_dir, Spans, WORKERS};
use crate::stats::{geomean, median, ratio};
use rasql_api::wire::Response;
use rasql_core::{result_to_wire, QueryResult, QueryTrace, RaSqlContext};
use rasql_exec::{
    scan_delta, AggState, Cluster, ClusterConfig, Dataset, DenseAggState, HashTable, MinOp,
    MonotoneOp, SetState,
};
use rasql_storage::snapshot::{decode_state, encode_state};
use rasql_storage::wal::{replay, WAL_FILE};
use rasql_storage::{
    Catalog, CrashInjector, CsrGraph, CsrWeight, DurableState, Relation, Row, TableImage, Wal,
    WalRecord,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Rows per `RowBatch` frame, as `rasql-server` streams them.
const BATCH_ROWS: usize = 512;

/// Rows per `INSERT`, as the write workloads issue them.
pub const INSERT_ROWS: usize = 32;

fn ns_per(elapsed: Duration, items: usize) -> f64 {
    ratio(elapsed.as_secs_f64() * 1e9, items as f64)
}

/// Counters and spans the engine returns with each result, summed over a
/// run and reported per cycle or as shares.
#[derive(Default)]
pub struct EngineLayers {
    cycles: u64,
    cliques: u64,
    kernel_cliques: u64,
    rounds: u64,
    stages: u64,
    tasks: u64,
    shuffle_rows: u64,
    shuffle_bytes: u64,
    peak_memory: u64,
    /// From traced statements only: round times, their sum, and the
    /// statements' own time, so the share has one base.
    round_ms: Vec<f64>,
    round_us: u64,
    statement_us: u64,
    dispatch_us: u64,
    barrier_us: u64,
    stage_us: u64,
}

impl EngineLayers {
    pub fn observe(&mut self, result: &QueryResult) {
        self.observe_wire(&rasql_core::stats_to_wire(&result.stats));
        if let Some(trace) = &result.trace {
            self.observe_trace(trace);
        }
    }

    /// Rounds and stage spans of one traced statement.
    pub fn observe_trace(&mut self, trace: &QueryTrace) {
        self.statement_us += trace.elapsed_us;
        for clique in &trace.cliques {
            self.cliques += 1;
            self.kernel_cliques += u64::from(clique.kernel != "generic");
            for it in &clique.iterations {
                self.round_ms.push(it.elapsed_us as f64 / 1e3);
                self.round_us += it.elapsed_us;
            }
        }
        for stage in &trace.stages {
            self.dispatch_us += stage.dispatch_us;
            self.barrier_us += stage.barrier_us;
            self.stage_us += stage.total_us;
        }
    }

    /// The counters every result carries, in their wire form.
    pub fn observe_wire(&mut self, stats: &rasql_api::QueryStats) {
        self.rounds += stats.iterations;
        self.stages += stats.stages;
        self.tasks += stats.tasks;
        self.shuffle_rows += stats.shuffle_rows;
        self.shuffle_bytes += stats.shuffle_bytes;
        self.peak_memory = self.peak_memory.max(stats.peak_memory);
    }

    pub fn end_cycle(&mut self) {
        self.cycles += 1;
    }

    pub fn absorb(&mut self, other: EngineLayers) {
        self.cycles += other.cycles;
        self.cliques += other.cliques;
        self.kernel_cliques += other.kernel_cliques;
        self.rounds += other.rounds;
        self.stages += other.stages;
        self.tasks += other.tasks;
        self.shuffle_rows += other.shuffle_rows;
        self.shuffle_bytes += other.shuffle_bytes;
        self.peak_memory = self.peak_memory.max(other.peak_memory);
        self.round_ms.extend(other.round_ms);
        self.round_us += other.round_us;
        self.statement_us += other.statement_us;
        self.dispatch_us += other.dispatch_us;
        self.barrier_us += other.barrier_us;
        self.stage_us += other.stage_us;
    }

    pub fn metrics(&self, out: &mut Metrics) {
        let per_cycle = |count: u64| ratio(count as f64, self.cycles as f64);
        out.insert(
            "core.kernel.selected_ratio",
            ratio(self.kernel_cliques as f64, self.cliques as f64),
        );
        out.insert("core.fixpoint.rounds", per_cycle(self.rounds));
        out.insert("core.fixpoint.round_ms_p50", median(&self.round_ms));
        out.insert(
            "core.fixpoint.share",
            ratio(self.round_us as f64, self.statement_us as f64),
        );
        out.insert("exec.cluster.stages", per_cycle(self.stages));
        out.insert("exec.cluster.tasks", per_cycle(self.tasks));
        out.insert(
            "exec.cluster.dispatch_share",
            ratio(self.dispatch_us as f64, self.stage_us as f64),
        );
        out.insert(
            "exec.cluster.barrier_share",
            ratio(self.barrier_us as f64, self.stage_us as f64),
        );
        out.insert("exec.dataset.shuffle_rows", per_cycle(self.shuffle_rows));
        out.insert("exec.dataset.shuffle_bytes", per_cycle(self.shuffle_bytes));
        out.insert(
            "exec.governor.peak_memory_mb",
            self.peak_memory as f64 / (1024.0 * 1024.0),
        );
    }
}

/// `frontend.explain_us_p50`: parse + analyze + verify of each statement
/// kind's SQL, geometric mean over kinds of the median.
pub fn frontend(
    kinds: &[(&RaSqlContext, &'static str, &str)],
    spans: &mut Spans,
    out: &mut Metrics,
) {
    let medians: Vec<f64> = kinds
        .iter()
        .map(|(ctx, kind, sql)| {
            let samples: Vec<f64> = (0..20)
                .map(|_| {
                    let (plan, elapsed) = spans.time("frontend.explain", kind, || ctx.explain(sql));
                    black_box(plan.expect("a workload statement explains"));
                    elapsed.as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        })
        .collect();
    out.insert("frontend.explain_us_p50", geomean(&medians));
}

/// `api.wire.*` and `core.wire.*`: a full-scan result through
/// `result_to_wire`, then `RowBatch` frames of 512 rows encoded and decoded.
pub fn wire(result: &QueryResult, spans: &mut Spans, out: &mut Metrics) {
    let rows = result.relation.len();
    let (wire_result, to_wire) = spans.time("core.wire.to_wire", "-", || result_to_wire(result));
    out.insert("core.wire.to_wire_ns_per_row", ns_per(to_wire, rows));
    let batches: Vec<Response> = wire_result
        .rows
        .chunks(BATCH_ROWS)
        .map(|c| Response::RowBatch { rows: c.to_vec() })
        .collect();
    let (frames, encode) = spans.time("api.wire.encode", "-", || {
        batches.iter().map(Response::encode).collect::<Vec<_>>()
    });
    let (decoded, decode) = spans.time("api.wire.decode", "-", || {
        frames
            .iter()
            .map(|f| Response::decode(f).is_ok())
            .filter(|ok| *ok)
            .count()
    });
    assert_eq!(decoded, frames.len(), "every encoded frame decodes");
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.insert("api.wire.encode_ns_per_row", ns_per(encode, rows));
    out.insert("api.wire.decode_ns_per_row", ns_per(decode, rows));
    out.insert("api.wire.bytes_per_row", ratio(bytes as f64, rows as f64));
}

/// `storage.csr.*` and `exec.kernel.*`: build the weighted CSR of the edge
/// rows, then run SSSP from `source` over the public kernel pieces, counting
/// edges scanned and contributions merged.
pub fn kernel(edges: &[Row], source: i64, spans: &mut Spans, out: &mut Metrics) {
    let weight = CsrWeight::Float {
        col: 2,
        promote_int: true,
    };
    let (csr, build) = spans.time("storage.csr.build", "-", || {
        CsrGraph::build(edges, 0, 1, weight, [source], WORKERS).expect("numeric edge rows")
    });
    out.insert("storage.csr.build_ns_per_edge", ns_per(build, edges.len()));

    let ((scan, merge, scanned), _) = spans.time("exec.kernel.sssp", "-", || {
        let mut state: DenseAggState<f64> = DenseAggState::new(csr.vertex_count());
        let mut buckets: Vec<Vec<(u32, f64)>> = vec![Vec::new(); WORKERS];
        let (mut scan, mut merge) = (Duration::ZERO, Duration::ZERO);
        let (mut scanned, mut round) = (0usize, 1u32);
        state.merge::<MinOp>(csr.dense_id(source).expect("source interned"), 0.0, round);
        loop {
            let delta = state.take_delta(true);
            if delta.is_empty() {
                break (scan, merge, scanned);
            }
            round += 1;
            let start = Instant::now();
            scan_delta(
                &csr,
                &delta,
                |cost, e| cost + csr.weights_f[e],
                &mut buckets,
            );
            scan += start.elapsed();
            let start = Instant::now();
            for bucket in &mut buckets {
                scanned += bucket.len();
                for (v, cost) in bucket.drain(..) {
                    black_box(state.merge::<MinOp>(v, cost, round));
                }
            }
            merge += start.elapsed();
        }
    });
    out.insert("exec.kernel.scan_ns_per_edge", ns_per(scan, scanned));
    out.insert("exec.kernel.merge_ns_per_contrib", ns_per(merge, scanned));
}

/// `exec.dataset`, `exec.join`, `exec.state`: the generic executor's pieces
/// over the edge rows keyed on `Src`.
pub fn generic_executor(edges: &[Row], spans: &mut Spans, out: &mut Metrics) {
    let cluster = Cluster::new(ClusterConfig {
        stage_latency: Duration::ZERO,
        ..ClusterConfig::with_workers(WORKERS)
    });
    let dataset = Dataset::round_robin(edges.to_vec(), WORKERS);
    let (shuffled, shuffle) = spans.time("exec.dataset.shuffle", "-", || {
        dataset.shuffle(&cluster, &[0], WORKERS)
    });
    assert_eq!(shuffled.expect("fault-free shuffle").len(), edges.len());
    out.insert(
        "exec.dataset.shuffle_ns_per_row",
        ns_per(shuffle, edges.len()),
    );

    let (table, build) = spans.time("exec.join.build", "-", || HashTable::build(edges, &[0]));
    let (matches, probe) = spans.time("exec.join.probe", "-", || {
        edges
            .iter()
            .map(|r| table.probe(&r.values()[..1]).len())
            .sum::<usize>()
    });
    black_box(matches);
    out.insert("exec.join.build_ns_per_row", ns_per(build, edges.len()));
    out.insert("exec.join.probe_ns_per_row", ns_per(probe, edges.len()));

    // One round of contributions: `min(Cost)` per `Dst`, and the rows as a set.
    let ((), agg) = spans.time("exec.state.agg_merge", "-", || {
        let mut state = AggState::new();
        for r in edges {
            black_box(state.merge(
                &r.values()[1..2],
                &r.values()[2..3],
                &[MonotoneOp::Min],
                1,
                None,
            ));
        }
    });
    let (distinct, set) = spans.time("exec.state.set_insert", "-", || {
        let mut state = SetState::new();
        edges
            .iter()
            .filter(|r| state.insert((*r).clone(), 1))
            .count()
    });
    black_box(distinct);
    out.insert("exec.state.agg_merge_ns_per_row", ns_per(agg, edges.len()));
    out.insert("exec.state.set_insert_ns_per_row", ns_per(set, edges.len()));
}

/// `storage.catalog`: copy-on-write appends of one batch to the edge table,
/// with no journal attached.
pub fn catalog(edges: &Relation, batches: &[Vec<Row>], spans: &mut Spans, out: &mut Metrics) {
    let catalog = Catalog::new();
    catalog
        .register("edge", edges.clone())
        .expect("fresh catalog");
    let samples: Vec<f64> = batches
        .iter()
        .map(|b| {
            let (res, t) = spans.time("storage.catalog.insert_rows", "-", || {
                catalog.insert_rows("edge", b.clone())
            });
            res.expect("table exists");
            t.as_secs_f64() * 1e6
        })
        .collect();
    out.insert("storage.catalog.insert_us_per_call", median(&samples));
}

/// `storage.wal` and `storage.snapshot`: journal appends of one batch each,
/// log replay, and a snapshot of the edge table encoded and decoded.
pub fn durability(edges: &Relation, batches: &[Vec<Row>], spans: &mut Spans, out: &mut Metrics) {
    let dir = temp_dir("wal");
    let wal = Wal::open(&dir, CrashInjector::none()).expect("open wal in a fresh dir");
    let mut user_bytes = 0usize;
    let samples: Vec<f64> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let record = WalRecord::Insert {
                name: "edge".into(),
                rows: b.clone(),
                version: i as u64 + 1,
            };
            user_bytes += record.encode().len();
            let (res, t) = spans.time("storage.wal.append", "-", || {
                wal.append(&record).and_then(|()| wal.flush())
            });
            res.expect("append to a healthy log");
            t.as_secs_f64() * 1e6
        })
        .collect();
    out.insert("storage.wal.append_us_p50", median(&samples));
    out.insert(
        "storage.wal.bytes_per_user_byte",
        ratio(wal.stats().bytes as f64, user_bytes as f64),
    );
    let (replayed, t) = spans.time("storage.wal.replay", "-", || replay(&dir.join(WAL_FILE)));
    assert_eq!(
        replayed.expect("replay a healthy log").records.len(),
        batches.len()
    );
    out.insert("storage.wal.replay_ms", t.as_secs_f64() * 1e3);
    drop(wal);
    std::fs::remove_dir_all(&dir).expect("remove the wal probe dir");

    let state = DurableState {
        version_floor: 2,
        tables: vec![TableImage {
            name: "edge".into(),
            schema: edges.schema().clone(),
            rows: edges.rows().to_vec(),
            version: 1,
            rewrite_version: 1,
        }],
        views: Vec::new(),
    };
    let (bytes, encode) = spans.time("storage.snapshot.encode", "-", || encode_state(&state));
    let (decoded, decode) = spans.time("storage.snapshot.decode", "-", || decode_state(&bytes));
    assert_eq!(
        decoded.expect("decode what was encoded").tables[0]
            .rows
            .len(),
        edges.len()
    );
    out.insert(
        "storage.snapshot.encode_ns_per_row",
        ns_per(encode, edges.len()),
    );
    out.insert(
        "storage.snapshot.decode_ns_per_row",
        ns_per(decode, edges.len()),
    );
}
