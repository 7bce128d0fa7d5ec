//! Integration tests: real TCP connections against an in-process server.

use rasql_api::wire::{
    read_frame, read_response, send_request, Request, Response, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use rasql_api::{DataType, ErrorCode, Row, Schema};
use rasql_client::Client;
use rasql_core::RaSqlContext;
use rasql_storage::{Relation, Value};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chain_edges(n: i64) -> Vec<(i64, i64)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

fn start_server(workers: usize) -> (rasql_server::ServerHandle, Arc<RaSqlContext>) {
    let ctx = Arc::new(RaSqlContext::builder().workers(workers).build());
    ctx.register("edge", Relation::edges(&chain_edges(64)))
        .unwrap();
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    (handle, ctx)
}

fn spill_dirs() -> usize {
    std::fs::read_dir(std::env::temp_dir())
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("rasql-spill-"))
                .count()
        })
        .unwrap_or(0)
}

/// Current thread count of this process (Linux); `None` elsewhere, which
/// disables the leak check rather than failing it.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// A raw socket past the handshake.
fn raw_connection(handle: &rasql_server::ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    send_request(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    let hello = read_response(&mut stream).unwrap();
    assert!(matches!(hello, Response::Hello { .. }));
    stream
}

/// A context whose `edge` table makes the transitive closure slow: still
/// running when a test acts on it. The tight budget keeps it spilling.
fn slow_tc_context() -> (Arc<RaSqlContext>, i64) {
    let ctx = Arc::new(
        RaSqlContext::builder()
            .workers(2)
            .memory_budget(256 * 1024)
            .build(),
    );
    let n: i64 = 400;
    let mut edges: Vec<(i64, i64)> = chain_edges(n);
    edges.extend((0..n).map(|i| (i, (i * 7 + 3) % n)));
    edges.extend((0..n).map(|i| (i, (i * 13 + 1) % n)));
    ctx.register("edge", Relation::edges(&edges)).unwrap();
    (ctx, n)
}

const SLOW_TC: &str = "WITH recursive tc (Src, Dst) AS \
                        (SELECT Src, Dst FROM edge) UNION \
                        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
                      SELECT count(*) FROM tc";

/// Wait up to `secs` for `done`, polling.
fn wait_until(secs: u64, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "polls server state another thread changes; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn query_round_trip_matches_local() {
    let (handle, ctx) = start_server(2);
    let tc = "WITH recursive tc (Src, Dst) AS \
                (SELECT Src, Dst FROM edge) UNION \
                (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
              SELECT Src, Dst FROM tc";

    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.server().starts_with("rasql-server/"));
    let remote = client.query(tc).unwrap();
    let local = ctx.query(tc).unwrap();
    assert_eq!(remote.len(), 1);
    assert_eq!(
        remote[0].sorted_rows(),
        rasql_core::result_to_wire(&local).sorted_rows(),
        "remote rows must be bit-identical to local execution"
    );
    assert!(remote[0].stats.iterations > 0);
    client.close().unwrap();
    assert!(handle.shutdown(), "drain should be clean");
}

#[test]
fn streaming_batches_reassemble_large_results() {
    let (handle, _ctx) = start_server(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    // 65 nodes -> 65*64/2 + 65 = 2145 closure rows: several 512-row batches.
    let tc = "WITH recursive tc (Src, Dst) AS \
                (SELECT Src, Dst FROM edge) UNION \
                (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
              SELECT Src, Dst FROM tc";
    let results = client.query(tc).unwrap();
    assert_eq!(results[0].rows.len(), 64 * 65 / 2);
    client.close().unwrap();
}

#[test]
fn session_views_and_prepared_statements_are_per_connection() {
    let (handle, _ctx) = start_server(2);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    a.query("CREATE VIEW firsthop AS SELECT Src, Dst FROM edge WHERE Src = 0")
        .unwrap();
    let rows = a.query("SELECT count(*) FROM firsthop").unwrap();
    assert_eq!(rows[0].rows[0][0], Value::Int(1));
    // The other connection never sees the view...
    let err = b.query("SELECT count(*) FROM firsthop").unwrap_err();
    assert_eq!(err.code, ErrorCode::Plan);

    // ...nor the prepared statement.
    assert_eq!(
        a.prepare("hop", "SELECT count(*) FROM firsthop").unwrap(),
        1
    );
    let again = a.execute("hop").unwrap();
    assert_eq!(again[0].rows[0][0], Value::Int(1));
    let err = b.execute("hop").unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownPrepared);

    // Base tables are shared: registering through one session is visible
    // to the other.
    let rel = Relation::edges(&[(100, 200)]);
    let n = a
        .register("extra", rel.schema().clone(), rel.rows().to_vec())
        .unwrap();
    assert_eq!(n, 1);
    let rows = b.query("SELECT count(*) FROM extra").unwrap();
    assert_eq!(rows[0].rows[0][0], Value::Int(1));

    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn errors_carry_stable_codes() {
    let (handle, _ctx) = start_server(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.query("SELEKT 1").unwrap_err().code, ErrorCode::Parse);
    assert_eq!(
        client.query("SELECT * FROM missing").unwrap_err().code,
        ErrorCode::Plan
    );
    // The connection survives errors: the next query works.
    assert!(client.query("SELECT count(*) FROM edge").is_ok());
    client.close().unwrap();
}

#[test]
fn version_mismatch_is_refused() {
    let (handle, _ctx) = start_server(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    send_request(&mut stream, &Request::Hello { version: 999 }).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Error { error } => assert_eq!(error.code, ErrorCode::VersionMismatch),
        other => panic!("expected Error, got {other:?}"),
    }
}

#[test]
fn garbage_bytes_are_rejected_not_hung() {
    let (handle, _ctx) = start_server(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "writes garbage to a raw socket, not durable bytes"
    )]
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    stream.flush().unwrap();
    // The server answers with a protocol error frame and closes.
    match read_response(&mut stream) {
        Ok(Response::Error { error }) => assert_eq!(error.code, ErrorCode::Protocol),
        // Or it already closed on us — also acceptable.
        Err(e) => assert!(
            matches!(
                e.code,
                ErrorCode::ConnectionClosed | ErrorCode::Protocol | ErrorCode::Io
            ),
            "unexpected: {e}"
        ),
        Ok(other) => panic!("expected Error, got {other:?}"),
    }
}

/// The headline enforcement test: a client that disconnects mid-query has
/// its in-flight fixpoint cancelled — observed via the engine's
/// cancellation metric — and leaks neither spill directories nor worker
/// threads.
#[test]
fn disconnect_mid_query_cancels_and_leaks_nothing() {
    let ctx = Arc::new(
        RaSqlContext::builder()
            .workers(2)
            // Tight budget so the long query is actively spilling when the
            // client vanishes — the governor's spill dir must still go away.
            .memory_budget(256 * 1024)
            .build(),
    );
    // A dense-ish graph whose closure is expensive enough to still be
    // running when we sever the connection.
    let n: i64 = 400;
    let mut edges: Vec<(i64, i64)> = chain_edges(n);
    edges.extend((0..n).map(|i| (i, (i * 7 + 3) % n)));
    edges.extend((0..n).map(|i| (i, (i * 13 + 1) % n)));
    ctx.register("edge", Relation::edges(&edges)).unwrap();
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();

    let dirs_before = spill_dirs();
    let cancellations_before = ctx.metrics().cancellations;

    // Raw socket: handshake, fire the query, read the first frame (so we
    // know execution started), then drop the socket without reading more.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        send_request(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let hello = read_response(&mut stream).unwrap();
        assert!(matches!(hello, Response::Hello { .. }));
        send_request(
            &mut stream,
            &Request::Query {
                sql: "WITH recursive tc (Src, Dst) AS \
                        (SELECT Src, Dst FROM edge) UNION \
                        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
                      SELECT count(*) FROM tc"
                    .to_string(),
            },
        )
        .unwrap();
        // Give the query time to admit and start iterating, then vanish.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ctx.active_queries().is_empty() && Instant::now() < deadline {
            #[expect(
                clippy::disallowed_methods,
                reason = "polls for the query to start on the server; nothing to block on"
            )]
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            !ctx.active_queries().is_empty(),
            "query never started executing"
        );
        // stream drops here: EOF at the server.
    }

    // The server must notice the EOF and cancel the in-flight query.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ctx.metrics().cancellations == cancellations_before && Instant::now() < deadline {
        #[expect(
            clippy::disallowed_methods,
            reason = "polls for the server to notice the EOF; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        ctx.metrics().cancellations > cancellations_before,
        "disconnect did not surface as a cancellation"
    );
    // And the active-query table must drain.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ctx.active_queries().is_empty() && Instant::now() < deadline {
        #[expect(
            clippy::disallowed_methods,
            reason = "polls for the active-query table to drain; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ctx.active_queries().is_empty(), "query still active");

    // The engine is immediately usable for the next client.
    let mut client = Client::connect(handle.addr()).unwrap();
    let rows = client.query("SELECT count(*) FROM edge").unwrap();
    assert_eq!(rows[0].rows[0][0], Value::Int(3 * n));
    client.close().unwrap();

    assert!(
        handle.shutdown(),
        "drain should be clean after cancellation"
    );

    // No leaked governor spill directories; no leaked connection threads.
    assert_eq!(
        spill_dirs(),
        dirs_before,
        "spill directory leaked past disconnect"
    );
    if let Some(threads) = thread_count() {
        // All server threads joined by shutdown(); allow generous slack for
        // the test harness itself.
        assert!(
            threads < 64,
            "thread count suspiciously high after shutdown: {threads}"
        );
    }
}

/// A statement that needs more than one disconnect-probe interval in the
/// engine must cost the client its engine time plus a round trip — the
/// connection thread wakes on the worker's result, it does not finish a
/// socket poll first (which used to add a flat 25 ms to every such query).
/// Counted, not timed: a reply that the connection thread finds already
/// queued right after a timed wake is one that waited for the timer.
#[test]
fn slow_statement_costs_the_client_its_engine_time_not_a_poll_quantum() {
    let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
    // `Src + 0`, not `Src`: a bare `Src = 77` is answered from the index
    // store in microseconds from its second use on, and this test needs the
    // scan.
    let sql = "SELECT Dst FROM edge WHERE Src + 0 = 77";
    const STATEMENTS: usize = 9;
    let median_ms = |run: &mut dyn FnMut()| {
        let mut ms: Vec<f64> = (0..STATEMENTS)
            .map(|_| {
                let t = Instant::now();
                run();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    // A filter over a table sized so the engine needs 12-20 ms for it,
    // whatever the build profile: past the first 10 ms probe, and where the
    // old 25 ms poll always landed on top of it.
    let mut n: i64 = 150_000;
    for _ in 0..6 {
        ctx.register_or_replace("edge", Relation::edges(&chain_edges(n)))
            .unwrap();
        let in_process = median_ms(&mut || assert_eq!(ctx.query(sql).unwrap().relation.len(), 1));
        if (12.0..=20.0).contains(&in_process) {
            break;
        }
        n = ((n as f64 * 16.0 / in_process) as i64).max(1_000);
    }
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    let late = handle.late_replies();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..STATEMENTS {
        assert_eq!(client.query(sql).unwrap()[0].rows.len(), 1);
    }
    // A reply sent in the instant between a timed wake and the next look at
    // the queue counts too, so one is allowed; a poll counts one per
    // statement.
    let late = late.load(Ordering::SeqCst);
    assert!(
        late <= 1,
        "{late} of {STATEMENTS} replies waited for a timed wake ({n} rows)"
    );
    client.close().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn kill_metrics_and_status_are_reachable() {
    let (handle, _ctx) = start_server(2);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Nothing running: kill misses.
    assert!(!client.kill(123_456).unwrap());

    let status = client.status().unwrap();
    assert!(status.tables.contains(&"edge".to_string()));
    assert_eq!(status.sessions, 1);
    assert!(status.active_queries.is_empty());
    assert!(status
        .index_store
        .starts_with("0 entries, 0 bytes, 0 builds"));

    // The second lookup on one key column builds its index; the line says so.
    for _ in 0..3 {
        client.query("SELECT Dst FROM edge WHERE Src = 7").unwrap();
    }
    let line = client.status().unwrap().index_store;
    assert!(line.starts_with("1 entries, "), "{line}");
    assert!(
        line.ends_with("1 builds, 0 advances, 0 rebuilds, 1 probes"),
        "{line}"
    );

    client.query("SELECT count(*) FROM edge").unwrap();
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("# TYPE rasql_stages_total counter"));
    assert!(metrics.contains("rasql_admitted_total"));
    client.close().unwrap();
}

/// One client appends to `edge` while another looks keys up through the
/// index store. The index is advanced by whichever lookup first sees the
/// longer table, in place or on a copy while a reader holds it — and every
/// answer must be exactly the key's rows of *some* prefix of the insert
/// sequence, no shorter than the previous answer's: never a torn advance, a
/// duplicated delta or a lost row.
#[test]
fn lookups_racing_inserts_see_a_prefix_of_the_insert_sequence() {
    const KEY: i64 = 7;
    const INSERTS: i64 = 120;
    let (handle, ctx) = start_server(2);
    let addr = handle.addr();
    // Insert `i` adds (KEY, 1000 + i) and a row of another key.
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for i in 0..INSERTS {
            let sql = format!(
                "INSERT INTO edge VALUES ({KEY}, {}), ({}, 0)",
                1000 + i,
                500 + i
            );
            client.query(&sql).unwrap();
        }
        client.close().unwrap();
    });
    let mut reader = Client::connect(addr).unwrap();
    let lookup = format!("SELECT Dst FROM edge WHERE Src = {KEY}");
    let prefix = |n: i64| -> Vec<Value> {
        std::iter::once(KEY + 1)
            .chain((0..n).map(|i| 1000 + i))
            .map(Value::Int)
            .collect()
    };
    let mut seen = 0i64;
    let mut answers = 0;
    while seen < INSERTS {
        let result = reader.query(&lookup).unwrap().remove(0);
        let got: Vec<Value> = result.rows.iter().map(|r| r[0].clone()).collect();
        let n = got.len() as i64 - 1;
        assert!(n >= seen, "answer went back from {seen} to {n} inserts");
        assert_eq!(got, prefix(n), "not the key's rows of a prefix");
        seen = n;
        answers += 1;
    }
    writer.join().unwrap();
    assert!(answers >= 2);
    let stats = ctx.index_stats();
    assert_eq!((stats.builds, stats.rebuilds), (1, 0), "{stats:?}");
    assert!(stats.advances >= 1, "{stats:?}");
    reader.close().unwrap();
    assert!(handle.shutdown(), "drain should be clean");
}

#[test]
fn client_shutdown_request_drains_server() {
    let (handle, _ctx) = start_server(2);
    let client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.wait_for_shutdown();
    assert!(handle.is_shutting_down());
    assert!(handle.shutdown());
}

#[test]
fn matview_lifecycle_over_the_wire() {
    let (handle, _ctx) = start_server(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.views().unwrap().is_empty());

    let tc = "WITH recursive tc (Src, Dst) AS \
                (SELECT Src, Dst FROM edge) UNION \
                (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) \
              SELECT Src, Dst FROM tc";
    client
        .query(&format!("CREATE MATERIALIZED VIEW t AS {tc}"))
        .unwrap();
    let views = client.views().unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].name, "t");
    assert_eq!(views[0].version, 1);
    assert!(!views[0].stale);
    assert!(views[0].retained_bytes > 0);

    client.query("INSERT INTO edge VALUES (64, 65)").unwrap();
    assert!(client.views().unwrap()[0].stale);
    client.query("REFRESH MATERIALIZED VIEW t").unwrap();
    let views = client.views().unwrap();
    assert_eq!(views[0].version, 2);
    assert!(!views[0].stale);
    assert_eq!(views[0].last_refresh, "incremental");

    // Unknown-view errors cross the wire with their stable code.
    let err = client.query("REFRESH MATERIALIZED VIEW nope").unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownView);
    assert_eq!(err.code.code(), "RA0501");
    let err = client.query("DROP MATERIALIZED VIEW nope").unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownView);

    client.query("DROP MATERIALIZED VIEW t").unwrap();
    assert!(client.views().unwrap().is_empty());
    client.close().unwrap();
}

/// A connection quiet past the idle keepalive timeout is reaped (counted in
/// `connections_reaped`), and the client's next request transparently
/// redials with backoff instead of surfacing the dead socket.
#[test]
fn idle_connection_is_reaped_and_client_reconnects() {
    let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
    ctx.register("edge", Relation::edges(&chain_edges(8)))
        .unwrap();
    let handle = rasql_server::serve_full(
        Arc::clone(&ctx),
        "127.0.0.1:0",
        Duration::from_secs(5),
        Duration::from_millis(100),
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.status().unwrap();
    let before = ctx.metrics().connections_reaped;
    // Sit idle; the server must reap the connection within the timeout
    // (plus poll slack).
    let deadline = Instant::now() + Duration::from_secs(5);
    while ctx.metrics().connections_reaped == before {
        assert!(Instant::now() < deadline, "connection was never reaped");
        #[expect(
            clippy::disallowed_methods,
            reason = "polls for the idle reaper; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(10));
    }
    // The reaped socket is dead; these must reconnect, not fail.
    let status = client.status().unwrap();
    assert_eq!(status.tables, vec!["edge".to_string()]);
    let results = client.query("SELECT count(*) FROM edge").unwrap();
    assert_eq!(results.len(), 1);
    let text = client.metrics().unwrap();
    assert!(text.contains("rasql_connections_reaped_total"), "{text}");
    drop(client);
    handle.shutdown();
}

/// An in-memory server answers the `Durability` request with `None`.
#[test]
fn in_memory_server_reports_no_durability() {
    let (handle, _ctx) = start_server(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.durability().unwrap().is_none());
    client.close().unwrap();
    handle.shutdown();
}

/// The acceptance scenario: a server started over a data directory, killed,
/// and restarted over the same directory serves the pre-crash tables
/// without any DDL being re-run — and reports its WAL counters remotely.
#[test]
fn durable_server_restart_serves_pre_crash_state() {
    let dir = std::env::temp_dir().join(format!(
        "rasql-server-durable-restart-p{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let ctx = Arc::new(
            RaSqlContext::builder()
                .workers(2)
                .data_dir(dir.clone())
                .try_build()
                .unwrap(),
        );
        ctx.register("edge", Relation::edges(&chain_edges(4)))
            .unwrap();
        let handle =
            rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5))
                .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let status = client.durability().unwrap().expect("durable server");
        assert!(status.wal_records >= 1, "{status:?}");
        assert_eq!(status.data_dir, dir.display().to_string());
        client.query("INSERT INTO edge VALUES (100, 101)").unwrap();
        client.close().unwrap();
        assert!(handle.shutdown());
    }
    // "Restart": a fresh engine recovers from the directory; no register,
    // no DDL. The wire-level INSERT must have survived.
    let ctx = Arc::new(
        RaSqlContext::builder()
            .workers(2)
            .data_dir(dir.clone())
            .try_build()
            .unwrap(),
    );
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let results = client.query("SELECT count(*) FROM edge").unwrap();
    assert_eq!(
        results[0].rows[0].values()[0],
        rasql_api::Value::Int(5),
        "4 chain edges + 1 wire insert"
    );
    client.close().unwrap();
    assert!(handle.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A new connection is served the moment it arrives: the acceptor blocks in
/// `accept` instead of polling it, which used to add about 5 ms to every
/// connect. Counted, not clocked: the acceptor wakes exactly once per
/// connection, and once more for shutdown's own.
#[test]
fn connect_is_served_without_an_accept_poll() {
    let (handle, _ctx) = start_server(2);
    let wakeups = handle.accept_wakeups();
    for _ in 0..20 {
        // The handshake is answered by the connection's thread, which the
        // acceptor spawned after it woke.
        Client::connect(handle.addr()).unwrap().close().unwrap();
    }
    assert_eq!(wakeups.load(Ordering::SeqCst), 20);
    assert!(handle.shutdown());
    assert_eq!(wakeups.load(Ordering::SeqCst), 21);
}

/// Rows whose 512-row batch would pass the frame cap travel in smaller
/// batches, and the connection stays in step: the next query on the same
/// client succeeds. A `Register` past the cap is refused with a typed error
/// before a byte is sent, and a row that alone passes the cap fails its
/// script with one; either way the connection stays usable.
#[test]
fn an_answer_past_the_frame_cap_travels_in_smaller_batches() {
    let (handle, ctx) = start_server(2);
    let text: Arc<str> = "x".repeat(160 * 1024).into();
    let schema = Schema::new(vec![("Id", DataType::Int), ("Body", DataType::Str)]);
    let rows: Vec<Row> = (0..600)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(Arc::clone(&text))]))
        .collect();
    assert!(rows.len() * text.len() > MAX_FRAME_LEN);
    ctx.register(
        "big",
        Relation::try_new(schema.clone(), rows.clone()).unwrap(),
    )
    .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let results = client.query("SELECT Id, Body FROM big").unwrap();
    assert_eq!(results[0].sorted_rows(), rows);
    let next = client.query("SELECT count(*) FROM edge").unwrap();
    assert_eq!(next[0].rows[0][0], Value::Int(64));

    let err = client
        .register("big_copy", schema.clone(), rows)
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol, "{err}");
    let next = client.query("SELECT count(*) FROM big").unwrap();
    assert_eq!(next[0].rows[0][0], Value::Int(600));

    let huge: Arc<str> = "x".repeat(MAX_FRAME_LEN).into();
    let row = Row::new(vec![Value::Int(0), Value::Str(huge)]);
    ctx.register("huge", Relation::try_new(schema, vec![row]).unwrap())
        .unwrap();
    let err = client
        .query("SELECT Id, Body FROM huge; SELECT count(*) FROM edge")
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::Protocol, "{err}");
    let next = client.query("SELECT count(*) FROM huge").unwrap();
    assert_eq!(next[0].rows[0][0], Value::Int(1));
    client.close().unwrap();
    assert!(handle.shutdown());
}

/// Buffered replies still stream: a script's first statement reaches the
/// client while its second is still running in the engine.
#[test]
fn a_script_streams_each_statement_when_it_completes() {
    let (ctx, _n) = slow_tc_context();
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    let mut stream = raw_connection(&handle);
    send_request(
        &mut stream,
        &Request::Query {
            sql: format!("SELECT count(*) FROM edge; {SLOW_TC}"),
        },
    )
    .unwrap();
    loop {
        match read_response(&mut stream).unwrap() {
            Response::StatementDone { .. } => break,
            Response::ResultHeader { .. } | Response::RowBatch { .. } => {}
            other => panic!("expected the first statement's frames, got {other:?}"),
        }
    }
    // The closure is admitted right after the first statement completes; it
    // must still be running once the first statement's reply is in.
    assert!(
        wait_until(5, || !ctx.active_queries().is_empty()),
        "the first statement arrived only after the script had finished"
    );
    drop(stream);
    assert!(wait_until(10, || ctx.active_queries().is_empty()));
    assert!(handle.shutdown());
}

/// The frames of a reply are byte for byte the encoded responses: an empty
/// answer, a one-row answer and a 1 500-row answer in three 512-row (or
/// fewer) batches, then `QueryDone`.
#[test]
fn reply_frames_are_the_encoded_responses() {
    let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
    ctx.register("edge", Relation::edges(&chain_edges(1_500)))
        .unwrap();
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    let statements = [
        "SELECT Src, Dst FROM edge WHERE Dst = 0",
        "SELECT count(*) FROM edge",
        "SELECT Src, Dst FROM edge",
    ];
    let mut stream = raw_connection(&handle);
    send_request(
        &mut stream,
        &Request::Query {
            sql: statements.join("; "),
        },
    )
    .unwrap();
    let mut frames = Vec::new();
    loop {
        let payload = read_frame(&mut stream).unwrap();
        let done = Response::decode(&payload).unwrap() == Response::QueryDone;
        frames.push(payload);
        if done {
            break;
        }
    }

    let mut expected = Vec::new();
    for sql in statements {
        let local = rasql_core::result_to_wire(&ctx.query(sql).unwrap());
        expected.push(Response::ResultHeader {
            schema: local.schema.clone(),
        });
        expected.extend(
            local
                .rows
                .chunks(512)
                .map(|c| Response::RowBatch { rows: c.to_vec() }),
        );
        // Stats carry ids and timings: take the server's own.
        let stats = match Response::decode(&frames[expected.len()]).unwrap() {
            Response::StatementDone { stats } => stats,
            other => panic!("expected StatementDone, got {other:?}"),
        };
        expected.push(Response::StatementDone { stats });
    }
    expected.push(Response::QueryDone);
    let batches = |n: usize| {
        expected
            .iter()
            .filter(|r| matches!(r, Response::RowBatch { .. }))
            .count()
            == n
    };
    assert!(
        batches(1 + 3),
        "one batch for the count, three for the scan"
    );
    assert_eq!(frames.len(), expected.len());
    for (i, (got, want)) in frames.iter().zip(&expected).enumerate() {
        assert!(*got == want.encode(), "frame {i} differs from {want:?}");
    }
    drop(stream);
    assert!(handle.shutdown());
}
