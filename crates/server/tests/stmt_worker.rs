//! One statement worker per connection, read from the process's own thread
//! table. It is a test binary of its own: `cargo test` runs a binary's tests
//! on parallel threads, and another test's server would add its own workers
//! to the count.

use rasql_client::Client;
use rasql_core::RaSqlContext;
use rasql_storage::Relation;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thread ids of this process's `rasql-stmt` threads; `None` where `/proc`
/// is absent, which disables the check rather than failing it.
fn stmt_workers() -> Option<BTreeSet<u64>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(Result::ok)
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == "rasql-stmt")
            })
            .filter_map(|task| task.file_name().to_str()?.parse().ok())
            .collect(),
    )
}

/// Each connection runs all its statements on one worker thread that lives
/// as long as the connection, and no worker outlives its connection.
#[test]
fn one_statement_worker_per_connection() {
    let ctx = Arc::new(RaSqlContext::builder().workers(2).build());
    let edges: Vec<(i64, i64)> = (0..64).map(|i| (i, i + 1)).collect();
    ctx.register("edge", Relation::edges(&edges)).unwrap();
    let handle =
        rasql_server::serve_with(Arc::clone(&ctx), "127.0.0.1:0", Duration::from_secs(5)).unwrap();
    let Some(before) = stmt_workers() else {
        return;
    };
    assert!(before.is_empty(), "{before:?}");

    let mut clients = [
        Client::connect(handle.addr()).unwrap(),
        Client::connect(handle.addr()).unwrap(),
    ];
    // A new thread takes its name when it first runs, which on a busy host
    // may be after its connection answered the handshake.
    let deadline = Instant::now() + Duration::from_secs(5);
    let workers = loop {
        let workers = stmt_workers().unwrap();
        if workers.len() >= clients.len() || Instant::now() >= deadline {
            break workers;
        }
        std::thread::yield_now();
    };
    assert_eq!(workers.len(), clients.len(), "{workers:?}");
    for i in 0..200 {
        let client = &mut clients[i % 2];
        let sql = match i % 4 {
            0 | 1 => "SELECT count(*) FROM edge".to_string(),
            _ => format!("SELECT Dst FROM edge WHERE Src = {}", i % 64),
        };
        assert_eq!(client.query(&sql).unwrap()[0].rows.len(), 1);
        if i % 10 == 0 {
            assert_eq!(stmt_workers().unwrap(), workers, "after {i} statements");
        }
    }
    assert_eq!(stmt_workers().unwrap(), workers);

    let [first, second] = clients;
    first.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stmt_workers().unwrap().len() != 1 {
        assert!(
            Instant::now() < deadline,
            "a closed connection kept its worker"
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "polls for the closed connection's worker to exit; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(stmt_workers().unwrap().is_subset(&workers));
    second.close().unwrap();
    assert!(handle.shutdown());
    assert_eq!(
        stmt_workers().unwrap(),
        BTreeSet::new(),
        "a worker outlived shutdown"
    );
}
