//! `serve_mixed`: two clients of `rasql-server` issuing a mix of point
//! lookups, view reads, cached and uncached recursive queries, full scans
//! over the wire and single-row inserts that invalidate the caches.

use crate::harness::{engine, measure, Recorder, Report, RunArgs, Spans, Stmt, TracedSide};
use crate::inputs::{rmat_graph, shape_vertices, shuffle};
use crate::layers::{self, EngineLayers};
use crate::oracle::{self, Expect};
use crate::stats::{median, ratio};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasql_api::int_row;
use rasql_client::Client;
use rasql_core::{library, RaSqlContext};
use rasql_exec::MetricsSnapshot;
use rasql_gap::Csr;
use rasql_server::{serve_with, ServerHandle};
use rasql_storage::{Relation, Row};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RMAT vertices (10 edges each).
const VERTICES: usize = 16_384;
/// Client connections, each a closed loop on its own thread.
const CLIENTS: usize = 2;
/// Entries of the engine's result cache.
const RESULT_CACHE: usize = 64;
/// Sources of the recursive queries that repeat (result-cache hits).
const HOT_SOURCES: usize = 2;
/// Client 0 inserts in every this-many-th of its blocks. An `INSERT` empties
/// the result cache of everything read from `edge`, so inserts must be rarer
/// than the hot queries repeat or the "hit" kinds would mostly miss.
const INSERT_EVERY: usize = 4;
/// Blocks prepared per client; a run that gets through all of them ends early.
const MAX_BLOCKS: usize = 32;
/// Uncached recursive queries per block (the two `*_miss` kinds).
const MISSES: usize = 5;

/// One block of 40 statements — the workload's cycle. Per block: 20 point
/// lookups on `edge` (50 %), 7 point reads of view `sp` (17.5 %), 3 + 2
/// recursive queries from sources never used before (12.5 %, cache misses),
/// 2 + 2 from the hot sources (10 %, cache hits), 3 full scans of `edge`
/// over the wire (7.5 %) and 1 single-row `INSERT` where [`INSERT_EVERY`]
/// says so (one more point lookup elsewhere).
const BLOCK: [(&str, usize); 8] = [
    ("edge_point", 20),
    ("sp_point", 7),
    ("reach_miss", 3),
    ("hops_miss", 2),
    ("reach_hit", 2),
    ("hops_hit", 2),
    ("edge_scan", 3),
    ("insert", 1),
];

/// Reachability from `source`, with the source read from `edge` instead of
/// written as a constant row like `library::reach` does: the engine's
/// result-cache key renders a constant base case as `Values (1 rows)`, so
/// with the cache on every `library::reach(s)` is answered with the first
/// one's rows (this benchmark's oracle found that). A filter's literal is
/// part of the key.
fn reach_from(source: usize) -> String {
    format!(
        "WITH recursive reach (Dst) AS \
           (SELECT Src FROM edge WHERE Src = {source}) UNION \
           (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src) \
         SELECT Dst FROM reach"
    )
}

/// Hop counts from `source` (`library::sssp_hops`), written like [`reach_from`].
fn hops_from(source: usize) -> String {
    format!(
        "WITH recursive path (Dst, min() AS Cost) AS \
           (SELECT Src, 0 FROM edge WHERE Src = {source}) UNION \
           (SELECT edge.Dst, path.Cost + 1 FROM path, edge WHERE path.Dst = edge.Src) \
         SELECT Dst, Cost FROM path"
    )
}

struct Inputs {
    vertices: usize,
    edges: Relation,
    /// The source of view `sp`.
    view_source: usize,
    /// Statements that fill the caches the hit kinds rely on.
    warm_up: Vec<Stmt>,
    /// Per client, the blocks in order.
    blocks: Vec<Vec<Vec<Stmt>>>,
}

fn inputs(args: &RunArgs) -> Inputs {
    let (vertices, max_blocks) = if args.smoke {
        (128, 2)
    } else {
        (VERTICES, MAX_BLOCKS)
    };
    let (edges, relabel) = rmat_graph(vertices, true, args.seed);
    let csr = Csr::from_relation(&edges);
    let mut rng = StdRng::seed_from_u64(args.seed);

    let mut out_edges: Vec<Vec<Row>> = vec![Vec::new(); vertices];
    for r in edges.rows() {
        out_edges[r[0].as_int().expect("int src") as usize].push(r.project(&[1, 2]));
    }
    // Recursive sources inside the giant component, each used once: the
    // view's, the hot ones, then one per uncached statement.
    let big = |v: usize| oracle::reach(&csr, relabel.id(v)).len() >= vertices / 2;
    let mut sources = shape_vertices(
        vertices,
        1 + HOT_SOURCES + CLIENTS * max_blocks * MISSES,
        big,
    )
    .into_iter()
    .map(|v| relabel.id(v));
    let mut next_source = || sources.next().expect("a source per uncached statement");
    let view_source = next_source();
    let sp = oracle::sssp(&csr, view_source);
    let mut sp_rows: Vec<Vec<Row>> = vec![Vec::new(); vertices];
    for r in sp {
        let v = r[0].as_int().expect("int dst") as usize;
        sp_rows[v].push(r);
    }
    let scan = Expect::exact(edges.rows());

    let reach =
        |kind, s: usize| Stmt::new(kind, reach_from(s), Expect::exact(&oracle::reach(&csr, s)));
    let hops =
        |kind, s: usize| Stmt::new(kind, hops_from(s), Expect::exact(&oracle::hops(&csr, s)));
    let hot: Vec<usize> = (0..HOT_SOURCES).map(|_| next_source()).collect();

    let mut next_insert = vertices as i64;
    let mut blocks = Vec::new();
    for client in 0..CLIENTS {
        let mut client_blocks = Vec::new();
        for b in 0..max_blocks {
            let mut block: Vec<Stmt> = Vec::new();
            for (kind, count) in BLOCK {
                for _ in 0..count {
                    let v = rng.gen_range(0..vertices);
                    block.push(match kind {
                        "insert" if client == 0 && b % INSERT_EVERY == 0 => {
                            // A component of its own: no checked answer changes.
                            next_insert += 2;
                            let sql = format!(
                                "INSERT INTO edge VALUES ({}, {}, 1.0)",
                                next_insert,
                                next_insert + 1
                            );
                            Stmt::new(kind, sql, Expect::exact(&[int_row(&[1])]))
                        }
                        "edge_point" | "insert" => Stmt::new(
                            "edge_point",
                            format!("SELECT Dst, Cost FROM edge WHERE Src = {v}"),
                            Expect::exact(&out_edges[v]),
                        ),
                        "sp_point" => Stmt::new(
                            kind,
                            format!("SELECT Dst, Cost FROM sp WHERE Dst = {v}"),
                            Expect::exact(&sp_rows[v]),
                        ),
                        "reach_miss" => reach(kind, next_source()),
                        "hops_miss" => hops(kind, next_source()),
                        "reach_hit" => reach(kind, hot[v % HOT_SOURCES]),
                        "hops_hit" => hops(kind, hot[v % HOT_SOURCES]),
                        _ => Stmt::new(
                            kind,
                            format!("SELECT Src, Dst, Cost FROM edge WHERE Src < {vertices}"),
                            scan.clone(),
                        ),
                    });
                }
            }
            // The mix is exact; the order is the seed's.
            shuffle(&mut block, &mut rng);
            client_blocks.push(block);
        }
        blocks.push(client_blocks);
    }
    let warm_up = hot
        .iter()
        .flat_map(|&s| [reach("reach_hit", s), hops("hops_hit", s)])
        .collect();
    Inputs {
        vertices,
        edges,
        view_source,
        warm_up,
        blocks,
    }
}

struct Live {
    ctx: Arc<RaSqlContext>,
    server: ServerHandle,
    clients: Vec<Client>,
}

fn setup(inputs: &Inputs) -> Live {
    let ctx = Arc::new(engine().result_cache(RESULT_CACHE).build());
    ctx.register("edge", inputs.edges.clone())
        .expect("register edge");
    let view = format!(
        "CREATE MATERIALIZED VIEW sp AS {}",
        library::sssp(inputs.view_source as i64)
    );
    ctx.query(&view).expect("create view sp");
    let server = serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(10))
        .expect("bind a loopback port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the server just started"))
        .collect();
    for stmt in &inputs.warm_up {
        clients[0].query(&stmt.sql).expect("warm-up statement");
    }
    Live {
        ctx,
        server,
        clients,
    }
}

fn teardown(live: Live) -> Result<(), String> {
    let Live {
        ctx,
        server,
        clients,
    } = live;
    for client in clients {
        client.close().map_err(|e| format!("close client: {e}"))?;
    }
    let drained = server.shutdown();
    if !drained {
        return Err("server shutdown had to interrupt sessions".into());
    }
    match Arc::try_unwrap(ctx) {
        Ok(_) => Ok(()),
        Err(_) => Err("server kept a reference to the context after shutdown".into()),
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOutcome {
    rec: Recorder,
    plain: Recorder,
    layers: EngineLayers,
    /// Latency of the first uncached recursive statement after this
    /// client's own `INSERT` (the CSR is rebuilt), with its kind.
    cold: Vec<(&'static str, f64)>,
}

/// One client's closed loop: whole blocks until the deadline.
fn client_loop(
    args: &RunArgs,
    client: &mut Client,
    ctx: &RaSqlContext,
    blocks: &[Vec<Stmt>],
    deadline: Instant,
    spans: &mut Spans,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut after_insert = false;
    for block in blocks {
        // A traced run records the statements sent while engine tracing was
        // still off apart: they are the base of the tracing overhead.
        let start = Instant::now();
        let mut traced_block = false;
        for stmt in block {
            let tracing = ctx.tracing_enabled();
            traced_block |= tracing;
            let rec = if args.traced && !tracing {
                &mut out.plain
            } else {
                &mut out.rec
            };
            spans.statement += 1;
            let statement = spans.open("statement", stmt.kind);
            let (reply, elapsed) =
                spans.time("client.query", stmt.kind, || client.query(&stmt.sql));
            let ms = elapsed.as_secs_f64() * 1e3;
            let outcome = match &reply {
                Ok(results) if results.len() == 1 => {
                    out.layers.observe_wire(&results[0].stats);
                    stmt.expect
                        .check(&results[0].rows)
                        .map(|()| results[0].rows.len() as u64)
                }
                Ok(results) => Err(format!("{} results for one statement", results.len())),
                Err(e) => Err(e.to_string()),
            };
            spans.close(statement);
            rec.statement(stmt.kind, elapsed, outcome);
            match stmt.kind {
                "insert" => after_insert = true,
                "reach_miss" | "hops_miss" if after_insert => {
                    out.cold.push((stmt.kind, ms));
                    after_insert = false;
                }
                _ => {}
            }
        }
        let rec = if args.traced && !traced_block {
            &mut out.plain
        } else {
            &mut out.rec
        };
        rec.cycle(start.elapsed());
        out.layers.end_cycle();
        if Instant::now() >= deadline {
            break;
        }
    }
    out
}

/// The measured phase: every client's loop on its own thread. Returns the
/// clients' cold-CSR samples.
fn run_clients(
    args: &RunArgs,
    seconds: f64,
    live: &mut Live,
    inputs: &Inputs,
    rec: &mut Recorder,
    side: &mut TracedSide,
) -> Vec<(&'static str, f64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let ctx = &live.ctx;
    let outcomes: Vec<(ClientOutcome, Spans)> = std::thread::scope(|scope| {
        let threads: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&inputs.blocks)
            .map(|(client, blocks)| {
                let mut spans = side.spans.fork();
                scope.spawn(move || {
                    (
                        client_loop(args, client, ctx, blocks, deadline, &mut spans),
                        spans,
                    )
                })
            })
            .collect();
        if args.traced {
            // Engine tracing goes on halfway through the phase.
            std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
            ctx.set_tracing(true);
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let mut cold = Vec::new();
    for (outcome, spans) in outcomes {
        rec.absorb(outcome.rec);
        side.plain.absorb(outcome.plain);
        side.layers.absorb(outcome.layers);
        side.spans.absorb(spans);
        cold.extend(outcome.cold);
    }
    cold
}

/// The traced run's probes that need the live server: cache counters over
/// the phase, the same statements in process, connects, round trips, the
/// wire codec and the front end.
fn probe_layers(
    live: &mut Live,
    inputs: &Inputs,
    before: &MetricsSnapshot,
    cold: &[(&'static str, f64)],
    rec: &mut Recorder,
    side: &mut TracedSide,
    metrics: &mut layers::Metrics,
) {
    let after = live.ctx.metrics();
    let recursive: usize = ["reach_miss", "hops_miss", "reach_hit", "hops_hit"]
        .iter()
        .map(|k| {
            rec.by_kind.get(k).map_or(0, Vec::len) + side.plain.by_kind.get(k).map_or(0, Vec::len)
        })
        .sum();
    metrics.insert(
        "core.cache.result_hit_ratio",
        ratio(
            (after.cache_hits - before.cache_hits) as f64,
            recursive as f64,
        ),
    );
    metrics.insert(
        "core.cache.invalidations",
        (after.cache_invalidations - before.cache_invalidations) as f64,
    );
    metrics.insert(
        "core.matview.incremental_ratio",
        ratio(
            after.view_refreshes_incremental as f64,
            after.view_refreshes as f64,
        ),
    );
    metrics.insert("core.matview.retained_bytes", after.retained_bytes as f64);
    let cold_ms: Vec<f64> = cold
        .iter()
        .map(|&(kind, ms)| ms - side.plain.kind_median(kind))
        .collect();
    metrics.insert("core.cache.csr_cold_ms", median(&cold_ms));

    // The wire's price: each read kind again through a session of the same
    // context, without client, frames or connection thread.
    let reads = || inputs.blocks[1][0].iter().filter(|s| s.kind != "insert");
    let session = live.ctx.session();
    let mut in_process = Recorder::default();
    for stmt in reads() {
        let (result, elapsed) = side
            .spans
            .time("core.session.query", stmt.kind, || session.query(&stmt.sql));
        let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
            if let Some(trace) = &r.trace {
                side.layers.observe_trace(trace);
            }
            stmt.expect
                .check(r.relation.rows())
                .map(|()| r.relation.len() as u64)
        });
        in_process.statement(stmt.kind, elapsed, outcome);
    }
    // Engine tracing is on by now on both sides of the difference.
    let overhead: Vec<f64> = in_process
        .by_kind
        .keys()
        .map(|k| rec.kind_median(k) - in_process.kind_median(k))
        .collect();
    metrics.insert("server.conn.overhead_ms_p50", median(&overhead));
    rec.attempted += in_process.attempted;
    rec.failed += in_process.failed;
    rec.failures.extend(in_process.failures);

    let addr = live.server.addr();
    let connects: Vec<f64> = (0..20)
        .map(|_| {
            let (client, elapsed) = side
                .spans
                .time("client.connect", "-", || Client::connect(addr));
            client.and_then(Client::close).expect("connect and close");
            elapsed.as_secs_f64() * 1e6
        })
        .collect();
    metrics.insert("client.connect_us_p50", median(&connects));
    let round_trips: Vec<f64> = (0..200)
        .map(|_| {
            let (status, elapsed) = side
                .spans
                .time("client.status", "-", || live.clients[0].status());
            status.expect("status round trip");
            elapsed.as_secs_f64() * 1e6
        })
        .collect();
    metrics.insert("server.conn.rtt_us_p50", median(&round_trips));

    let scan = reads()
        .find(|s| s.kind == "edge_scan")
        .expect("a scan per block");
    let result = live.ctx.query(&scan.sql).expect("scan in process");
    layers::wire(&result, &mut side.spans, metrics);
    let mut kinds: Vec<(&RaSqlContext, &'static str, &str)> = Vec::new();
    for stmt in reads() {
        if !kinds.iter().any(|k| k.1 == stmt.kind) {
            kinds.push((&live.ctx, stmt.kind, &stmt.sql));
        }
    }
    layers::frontend(&kinds, &mut side.spans, metrics);
}

pub fn run(args: &RunArgs) -> Report {
    let inputs = inputs(args);
    let mut side = TracedSide::new(args);
    let mut metrics = layers::Metrics::new();
    // A traced run keeps a quarter of its time for the probes.
    let seconds = if args.traced {
        args.seconds * 0.75
    } else {
        args.seconds
    };

    let measured = measure(
        args,
        || setup(&inputs),
        |live, rec| {
            let before = live.ctx.metrics();
            let cold = run_clients(args, seconds, live, &inputs, rec, &mut side);
            if args.traced {
                probe_layers(live, &inputs, &before, &cold, rec, &mut side, &mut metrics);
            }
        },
        teardown,
    );

    if args.traced {
        metrics.extend(side.metrics(&measured.rec));
        let batches: Vec<Vec<Row>> = inputs
            .edges
            .rows()
            .chunks(layers::INSERT_ROWS)
            .take(32)
            .map(<[Row]>::to_vec)
            .collect();
        layers::catalog(&inputs.edges, &batches, &mut side.spans, &mut metrics);
    } else {
        metrics = measured.end_to_end();
    }
    let sizes = format!(
        "RMAT-{} weighted, {} edges; {CLIENTS} clients, closed loop; result_cache({RESULT_CACHE}); view sp = sssp(a giant-component vertex); block of 40: {}",
        inputs.vertices,
        inputs.edges.len(),
        BLOCK.map(|(k, n)| format!("{n} {k}")).join(", "),
    );
    Report::new(args, "serve_mixed", sizes, measured, side, metrics)
}
