//! `ingest_durable`: the write path. Batched `INSERT`s into a journaled
//! table, a materialized view refreshed between them, compacting snapshots,
//! then a restart that must recover the exact state.

use crate::harness::{
    engine, measure, run_cycles, temp_dir, Placed, Recorder, Report, RunArgs, Stmt, TracedSide,
};
use crate::inputs::{rmat_graph, shape_vertices};
use crate::layers::{self, INSERT_ROWS};
use crate::oracle::{Expect, IncrementalSssp};
use crate::stats::ratio;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasql_api::{int_row, DurabilityStatus};
use rasql_core::{library, RaSqlContext};
use rasql_storage::{Relation, Row, WalRecord};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

/// RMAT vertices (10 edges each); the last cycles' worth of rows is withheld
/// from the registered table and inserted by the workload.
const VERTICES: usize = 16_384;
/// `INSERT`s per cycle; a `REFRESH` and one point read of the view follow.
const INSERTS_PER_CYCLE: usize = 4;
/// Cycles prepared; the first is the warm-up. A run that gets through all of
/// them ends early.
const MAX_CYCLES: usize = 320;
/// The engine's compaction threshold for this workload, in journal records.
const SNAPSHOT_EVERY: u64 = 64;

struct Inputs {
    vertices: usize,
    /// The source of view `sp`: a vertex that reaches most of the base graph.
    source: usize,
    base: Relation,
    /// Every batch in insertion order, `INSERTS_PER_CYCLE` per cycle.
    batches: Vec<Vec<Row>>,
    cycles: Vec<Vec<Placed>>,
    /// Encoded size of each cycle's inserted rows.
    user_bytes: Vec<u64>,
}

fn insert_sql(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "({}, {}, {:?})",
                r[0],
                r[1],
                r[2].as_f64().expect("numeric cost")
            )
        })
        .collect();
    format!("INSERT INTO edge VALUES {}", tuples.join(", "))
}

fn inputs(args: &RunArgs) -> Inputs {
    let (vertices, max_cycles) = if args.smoke {
        (256, 6)
    } else {
        (VERTICES, MAX_CYCLES)
    };
    // Row order is part of the shape: every seed withholds the same edges.
    let (edges, relabel) = rmat_graph(vertices, true, args.seed);
    let withheld = max_cycles * INSERTS_PER_CYCLE * INSERT_ROWS;
    let (base_rows, suffix) = edges.rows().split_at(edges.len() - withheld);
    let base = Relation::new_unchecked(edges.schema().clone(), base_rows.to_vec());
    let batches: Vec<Vec<Row>> = suffix.chunks(INSERT_ROWS).map(<[Row]>::to_vec).collect();

    let base_csr = rasql_gap::Csr::from_relation(&base);
    let big = |v: usize| rasql_gap::bfs_reach(&base_csr, relabel.id(v)).len() >= vertices / 2;
    let source = relabel.id(shape_vertices(vertices, 1, big)[0]);
    let mut oracle = IncrementalSssp::new(vertices, source);
    oracle.insert(base.rows());
    let reached: Vec<usize> = (0..vertices)
        .filter(|&v| !oracle.point(v).is_empty())
        .collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut cycles = Vec::new();
    let mut user_bytes = Vec::new();
    for cycle in batches.chunks(INSERTS_PER_CYCLE) {
        let mut stmts: Vec<Placed> = Vec::new();
        let mut bytes = 0;
        for batch in cycle {
            oracle.insert(batch);
            bytes += WalRecord::Insert {
                name: "edge".into(),
                rows: batch.clone(),
                version: 0,
            }
            .encode()
            .len() as u64;
            let inserted = Expect::exact(&[int_row(&[batch.len() as i64])]);
            stmts.push((0, Stmt::new("insert", insert_sql(batch), inserted)));
        }
        stmts.push((
            0,
            Stmt::new(
                "refresh",
                "REFRESH MATERIALIZED VIEW sp".into(),
                Expect::Any,
            ),
        ));
        let v = reached[rng.gen_range(0..reached.len())];
        let read = format!("SELECT Dst, Cost FROM sp WHERE Dst = {v}");
        stmts.push((
            0,
            Stmt::new("sp_read", read, Expect::exact(&oracle.point(v))),
        ));
        cycles.push(stmts);
        user_bytes.push(bytes);
    }
    Inputs {
        vertices,
        source,
        base,
        batches,
        cycles,
        user_bytes,
    }
}

/// A context over `dir` (or in memory) holding the base table and the view,
/// with the warm-up cycle run.
fn setup(inputs: &Inputs, dir: Option<&PathBuf>) -> RaSqlContext {
    let builder = match dir {
        Some(dir) => engine().data_dir(dir).snapshot_every(SNAPSHOT_EVERY),
        None => engine(),
    };
    let ctx = builder.build();
    ctx.register("edge", inputs.base.clone())
        .expect("register edge");
    let view = format!(
        "CREATE MATERIALIZED VIEW sp AS {}",
        library::sssp(inputs.source as i64)
    );
    ctx.query(&view).expect("create view sp");
    for (_, stmt) in &inputs.cycles[0] {
        ctx.query(&stmt.sql).expect("warm-up statement");
    }
    ctx
}

/// A durable context, its directory, and how many cycles it has applied.
struct Live {
    ctx: [RaSqlContext; 1],
    dir: PathBuf,
    cycles_done: usize,
}

/// Disk bytes the engine wrote, from the durability counters before and
/// after each statement (exact with one writer).
#[derive(Default)]
struct DiskLedger {
    last: DurabilityStatus,
    wal_bytes: u64,
    snapshot_bytes: u64,
    publishes: u64,
    /// Latency of each statement that published a snapshot, with its kind.
    stalls: Vec<(&'static str, f64)>,
    /// The last frame size seen per statement index within the cycle: a
    /// publish truncates the log, hiding the frame appended just before it.
    frame: [u64; INSERTS_PER_CYCLE + 2],
}

impl DiskLedger {
    fn observe(&mut self, j: usize, kind: &'static str, ms: f64, now: DurabilityStatus) {
        if now.snapshots > self.last.snapshots {
            self.publishes += now.snapshots - self.last.snapshots;
            self.snapshot_bytes += now.last_snapshot_bytes;
            self.wal_bytes += self.frame[j] + now.wal_bytes;
            self.stalls.push((kind, ms));
        } else {
            self.frame[j] = now.wal_bytes - self.last.wal_bytes;
            self.wal_bytes += self.frame[j];
        }
        self.last = now;
    }
}

/// Restart on `live`'s directory: the reopened context must hold the exact
/// state, and the view must be the shortest paths of everything inserted.
/// The time until the view answers goes to `recovery_s`; the directory is
/// removed either way.
fn restart(inputs: &Inputs, live: Live, recovery_s: &RefCell<Vec<f64>>) -> Result<(), String> {
    let Live {
        ctx: [ctx],
        dir,
        cycles_done,
    } = live;
    let before = ctx.state_digest();
    drop(ctx);
    let start = Instant::now();
    let reopened = engine()
        .data_dir(&dir)
        .snapshot_every(SNAPSHOT_EVERY)
        .try_build();
    let outcome = reopened
        .map_err(|e| format!("reopen: {e}"))
        .and_then(|ctx| {
            let view = ctx
                .query("SELECT Dst, Cost FROM sp")
                .map_err(|e| format!("read sp: {e}"))?;
            recovery_s.borrow_mut().push(start.elapsed().as_secs_f64());
            if ctx.state_digest() != before {
                return Err(format!(
                    "recovered digest {} != {before}",
                    ctx.state_digest()
                ));
            }
            let mut oracle = IncrementalSssp::new(inputs.vertices, inputs.source);
            oracle.insert(inputs.base.rows());
            inputs.batches[..cycles_done * INSERTS_PER_CYCLE]
                .iter()
                .for_each(|b| oracle.insert(b));
            Expect::exact(&oracle.rows())
                .check(view.relation.rows())
                .map_err(|e| format!("recovered sp: {e}"))
        });
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    outcome
}

pub fn run(args: &RunArgs) -> Report {
    let inputs = inputs(args);
    let mut side = TracedSide::new(args);
    let mut ledger = DiskLedger::default();
    let recovery_s = RefCell::new(Vec::new());
    // A traced run keeps a quarter of its time for the in-memory comparison.
    let phase = RunArgs {
        seconds: if args.traced {
            args.seconds * 0.75
        } else {
            args.seconds
        },
        ..*args
    };

    let measured = measure(
        args,
        || {
            let dir = temp_dir("ingest");
            Live {
                ctx: [setup(&inputs, Some(&dir))],
                dir,
                cycles_done: 1,
            }
        },
        |live, rec| {
            let ctx = &live.ctx;
            ledger.last = ctx[0].durability_status().expect("durable context");
            let mut done = live.cycles_done;
            run_cycles(
                &phase,
                ctx,
                |i| inputs.cycles.get(i + 1).map(Vec::as_slice),
                |_| (),
                |i, j, ms| {
                    let now = ctx[0].durability_status().expect("durable context");
                    ledger.observe(j, inputs.cycles[i + 1][j].1.kind, ms, now);
                    done = i + 2;
                },
                rec,
                &mut side,
            );
            live.cycles_done = done;
        },
        |live| restart(&inputs, live, &recovery_s),
    );

    let metrics = if args.traced {
        let mut metrics = side.metrics(&measured.rec);
        let untraced = &side.plain;
        metrics.insert("refresh_ms_p50", untraced.kind_median("refresh"));
        metrics.insert(
            "recovery_s",
            recovery_s.borrow().first().copied().unwrap_or(0.0),
        );
        let cycles_measured = measured.rec.cycles_ms.len() + untraced.cycles_ms.len();
        let user_bytes: u64 = inputs.user_bytes[1..=cycles_measured].iter().sum();
        metrics.insert(
            "disk_bytes_per_user_byte",
            ratio(
                (ledger.wal_bytes + ledger.snapshot_bytes) as f64,
                user_bytes as f64,
            ),
        );
        metrics.insert("storage.snapshot.publishes", ledger.publishes as f64);
        let stall = |&(kind, ms): &(&str, f64)| ms - untraced.kind_median(kind);
        metrics.insert(
            "storage.snapshot.stall_ms_max",
            ledger.stalls.iter().map(stall).fold(0.0, f64::max),
        );

        // The same statements on a context without a data directory.
        let in_memory = [setup(&inputs, None)];
        let plain_args = RunArgs {
            traced: false,
            seconds: args.seconds / 4.0,
            ..*args
        };
        let mut volatile = Recorder::default();
        run_cycles(
            &plain_args,
            &in_memory,
            |i| inputs.cycles.get(i + 1).map(Vec::as_slice),
            |_| (),
            |_, _, _| (),
            &mut volatile,
            &mut TracedSide::new(&plain_args),
        );
        metrics.insert(
            "storage.wal.overhead_ratio",
            ratio(
                untraced.kind_median("insert"),
                volatile.kind_median("insert"),
            ),
        );
        let counters = in_memory[0].metrics();
        metrics.insert(
            "core.matview.incremental_ratio",
            ratio(
                counters.view_refreshes_incremental as f64,
                counters.view_refreshes as f64,
            ),
        );
        metrics.insert(
            "core.matview.retained_bytes",
            counters.retained_bytes as f64,
        );

        let kinds: Vec<_> = [0, INSERTS_PER_CYCLE + 1]
            .map(|j| &inputs.cycles[1][j].1)
            .map(|s| (&in_memory[0], s.kind, s.sql.as_str()))
            .to_vec();
        layers::frontend(&kinds, &mut side.spans, &mut metrics);
        let batches = &inputs.batches[..32.min(inputs.batches.len())];
        layers::catalog(&inputs.base, batches, &mut side.spans, &mut metrics);
        layers::durability(&inputs.base, batches, &mut side.spans, &mut metrics);
        metrics
    } else {
        measured.end_to_end()
    };
    let sizes = format!(
        "RMAT-{} weighted: {} rows registered, {} withheld; {INSERTS_PER_CYCLE} INSERTs of {INSERT_ROWS} rows + REFRESH + point read per cycle; snapshot_every({SNAPSHOT_EVERY}); flush policy: the engine's default (fsync per record)",
        inputs.vertices,
        inputs.base.len(),
        inputs.batches.len() * INSERT_ROWS,
    );
    Report::new(args, "ingest_durable", sizes, measured, side, metrics)
}
