//! The engine's critical-section protocols, checked on the code that runs.
//!
//! Each test runs two threads of statements on one shared context under the
//! debug-build scheduler of `rasql_storage::sync::schedule`: only one thread
//! runs at a time, and the scheduler switches between them at the locks of
//! the ranks the test names, under every schedule with at most the stated
//! number of preemptions. After each schedule the test asserts the protocol's
//! invariant on the real context, catalog, admission controller, result
//! cache, write-ahead log or index store.
//!
//! The cluster's workers run unscheduled, so a test names only ranks at
//! which a parked statement holds nothing the workers take. A statement
//! parked at a rank holds only lower ranks, and every rank named here is at
//! or below `IndexStore` in the `LockRank` table; the workers take the ranks
//! above it (fixpoint state, checkpoints, spill, trace).
#![cfg(debug_assertions)]

use rasql_core::{library, EngineConfig, RaSqlContext};
use rasql_storage::sync::schedule::{Explored, Schedule, Strategy};
use rasql_storage::sync::LockRank;
use rasql_storage::{Relation, Row, Value};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One worker and no simulated stage latency: a schedule costs what its
/// statements compute.
fn engine() -> EngineConfig {
    EngineConfig::rasql().workers(1).stage_latency_us(0)
}

/// The exploration's counts; panics with the failing schedule. Every test
/// explores more than one schedule and covers its whole bound.
fn covered(name: &str, result: Result<Explored, String>) -> Explored {
    let explored = result.unwrap_or_else(|failure| panic!("{name}: {failure}"));
    eprintln!("{name}: {explored:?}");
    assert!(explored.schedules > 1, "{name}: {explored:?}");
    assert!(!explored.truncated, "{name}: {explored:?}");
    explored
}

fn rows(ctx: &RaSqlContext, sql: &str) -> Vec<Row> {
    let result = ctx.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    result.relation.sorted().rows().to_vec()
}

/// What `sql` answers over `edge` on a fresh context.
fn recompute(edges: &[(i64, i64)], sql: &str) -> Vec<Row> {
    let ctx = engine().build();
    ctx.register("edge", Relation::edges(edges)).unwrap();
    rows(&ctx, sql)
}

fn chain(n: i64) -> Vec<(i64, i64)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

/// Matview publish: a `REFRESH` and an `INSERT` followed by a second
/// `REFRESH` of the same view. The per-view guard serializes the refreshes,
/// so the view's table — read without refreshing it — is what a recompute
/// over the final edges gives.
#[test]
fn two_refreshes_around_an_insert_leave_the_view_recomputed() {
    let want = recompute(&[chain(6), vec![(6, 7)]].concat(), &library::reach(1));
    let schedule = Schedule::new(
        &[
            LockRank::ViewSerialization,
            LockRank::MatViewRegistry,
            LockRank::CatalogTables,
        ],
        Strategy::Preemptions(2),
    )
    .thread("refresh", |ctx: &RaSqlContext| {
        ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    })
    .thread("insert+refresh", |ctx| {
        ctx.query("INSERT INTO edge VALUES (6, 7)").unwrap();
        ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    });
    covered(
        "matview publish",
        schedule.explore(
            || {
                let ctx = engine().build();
                ctx.register("edge", Relation::edges(&chain(6))).unwrap();
                ctx.query(&format!(
                    "CREATE MATERIALIZED VIEW v AS {}",
                    library::reach(1)
                ))
                .unwrap();
                ctx
            },
            |ctx| {
                let table = ctx.table("v").map_err(|e| e.to_string())?;
                let got = (*table).clone().sorted();
                (got.rows() == want).then_some(()).ok_or_else(|| {
                    format!("view holds {:?}, a recompute gives {want:?}", got.rows())
                })
            },
        ),
    );
}

/// `DELETE` vs `INSERT`: the delete publishes through the version-checked
/// `replace_rows_if`, so a row the insert adds (and the keep predicate
/// keeps) survives, and the deleted count is exactly the matching rows.
#[test]
fn a_delete_keeps_the_rows_a_concurrent_insert_adds() {
    let schedule = Schedule::new(&[LockRank::CatalogTables], Strategy::Preemptions(2))
        .thread("delete", |ctx: &RaSqlContext| {
            let deleted = rows(ctx, "DELETE FROM edge WHERE Src < 2");
            assert_eq!(
                deleted,
                vec![Row::new(vec![Value::Int(2)])],
                "deleted count"
            );
        })
        .thread("insert", |ctx| {
            ctx.query("INSERT INTO edge VALUES (10, 0)").unwrap();
        });
    let want = recompute(&[(2, 3), (3, 4), (10, 0)], "SELECT * FROM edge");
    covered(
        "delete vs insert",
        schedule.explore(
            || {
                let ctx = engine().build();
                ctx.register("edge", Relation::edges(&chain(4))).unwrap();
                ctx
            },
            |ctx| {
                let got = rows(ctx, "SELECT * FROM edge");
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("edge holds {got:?}, want {want:?}"))
            },
        ),
    );
}

/// Admission hand-off: with one slot, the second query waits on the
/// controller's condvar until the first one's permit is dropped, which
/// notifies it. Every schedule of the two queries finishes.
#[test]
fn admission_hands_its_one_slot_on_in_every_schedule() {
    let want = recompute(&chain(4), "SELECT * FROM edge");
    let query = move |ctx: &RaSqlContext| assert_eq!(rows(ctx, "SELECT * FROM edge"), want);
    let schedule = Schedule::new(
        &[LockRank::AdmissionState, LockRank::CatalogTables],
        Strategy::Preemptions(2),
    )
    .thread("first", query.clone())
    .thread("second", query);
    covered(
        "admission hand-off",
        schedule.explore(
            || {
                let ctx = engine().max_concurrent_queries(1).build();
                ctx.register("edge", Relation::edges(&chain(4))).unwrap();
                ctx
            },
            |_| Ok(()),
        ),
    );
}

/// Result-cache invalidation: the cache key carries the version of every
/// table the query reads, so a query that starts after an `INSERT` finished
/// is never served rows from before it — even when a concurrent query
/// caches what it read before the insert.
#[test]
fn no_cache_hit_serves_rows_older_than_a_finished_insert() {
    let before = recompute(&chain(4), "SELECT * FROM edge");
    let after = recompute(&[chain(4), vec![(9, 9)]].concat(), "SELECT * FROM edge");
    let either = [before, after.clone()];
    let schedule = Schedule::new(
        &[LockRank::CatalogTables, LockRank::ResultCache],
        Strategy::Preemptions(2),
    )
    .thread("reader", move |ctx: &RaSqlContext| {
        let got = rows(ctx, "SELECT * FROM edge");
        assert!(either.contains(&got), "a read of neither state: {got:?}");
    })
    .thread("insert+reader", move |ctx| {
        ctx.query("INSERT INTO edge VALUES (9, 9)").unwrap();
        assert_eq!(rows(ctx, "SELECT * FROM edge"), after, "stale cache hit");
    });
    covered(
        "result cache",
        schedule.explore(
            || {
                let ctx = engine().result_cache(8).build();
                ctx.register("edge", Relation::edges(&chain(4))).unwrap();
                ctx
            },
            |_| Ok(()),
        ),
    );
}

/// A durable context in a directory of its own, removed with it.
struct Durable {
    ctx: Option<RaSqlContext>,
    dir: PathBuf,
}

impl Durable {
    fn dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rasql-scheduled-{tag}-p{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: PathBuf) -> Self {
        let ctx = engine()
            .data_dir(dir.clone())
            .snapshot_every(1)
            .try_build()
            .expect("open the data directory");
        Durable {
            ctx: Some(ctx),
            dir,
        }
    }

    fn ctx(&self) -> &RaSqlContext {
        self.ctx.as_ref().expect("open")
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        drop(self.ctx.take());
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A view statement's journal record vs a compacting `INSERT`: with a
/// snapshot after every record, the view statement keeps the registry locked
/// from its journal append to its registry insert, so a snapshot collected
/// meanwhile either holds the new entry or fails its log-position check.
/// What the directory holds then reopens to the live state and view version.
#[test]
fn a_view_statement_racing_a_compacting_insert_keeps_its_record() {
    let schedule = Schedule::new(
        &[LockRank::MatViewRegistry, LockRank::DurabilityLog],
        Strategy::Preemptions(2),
    )
    .thread("refresh", |d: &Durable| {
        d.ctx().query("REFRESH MATERIALIZED VIEW v").unwrap();
    })
    .thread("insert", |d| {
        d.ctx().query("INSERT INTO noise VALUES (0, 0)").unwrap();
    });
    covered(
        "view journal vs compaction",
        schedule.explore(
            || {
                let d = Durable::open(Durable::dir("journal"));
                d.ctx()
                    .register("edge", Relation::edges(&chain(4)))
                    .unwrap();
                d.ctx()
                    .register("noise", Relation::edges(&[(0, 0)]))
                    .unwrap();
                d.ctx()
                    .query(&format!(
                        "CREATE MATERIALIZED VIEW v AS {}",
                        library::reach(1)
                    ))
                    .unwrap();
                d
            },
            |d| {
                // What a crash right now would leave.
                let copy = Durable::dir("journal-copy");
                fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
                for entry in fs::read_dir(&d.dir).map_err(|e| e.to_string())? {
                    let entry = entry.map_err(|e| e.to_string())?;
                    fs::copy(entry.path(), copy.join(entry.file_name()))
                        .map_err(|e| e.to_string())?;
                }
                let reopened = Durable::open(copy);
                let version = |ctx: &RaSqlContext| ctx.mat_view("v").map(|mv| mv.version);
                let (live, back) = (d.ctx(), reopened.ctx());
                if back.state_digest() != live.state_digest() || version(back) != version(live) {
                    return Err(format!(
                        "reopened at {} (view version {:?}), live at {} (view version {:?})",
                        back.state_digest(),
                        version(back),
                        live.state_digest(),
                        version(live)
                    ));
                }
                Ok(())
            },
        ),
    );
}

/// `IndexStore` fetch → advance → publish: two lookups of one key after an
/// `INSERT` both find the index one table version behind (`Fetch::Grown`)
/// when both fetch before either advances. The store re-checks the entry's
/// versions under its lock, so only the first advances it and the second
/// takes the advanced entry: both answers equal a recompute, and the one
/// entry left answers a later lookup as a fresh build would.
#[test]
fn two_lookups_advancing_one_index_answer_like_a_recompute() {
    const LOOKUP: &str = "SELECT * FROM edge WHERE Src = 1";
    let edges = [chain(6), vec![(1, 9)]].concat();
    let want = recompute(&edges, LOOKUP);
    let lookup = {
        let want = want.clone();
        move |ctx: &RaSqlContext| assert_eq!(rows(ctx, LOOKUP), want)
    };
    let schedule = Schedule::new(
        &[LockRank::CatalogTables, LockRank::IndexStore],
        Strategy::Preemptions(2),
    )
    .thread("lookup-1", lookup.clone())
    .thread("lookup-2", lookup);
    covered(
        "index advance",
        schedule.explore(
            || {
                let ctx = engine().build();
                ctx.register("edge", Relation::edges(&chain(6))).unwrap();
                // The first lookup scans, the second builds the index.
                rows(&ctx, LOOKUP);
                rows(&ctx, LOOKUP);
                assert_eq!(ctx.index_stats().builds, 1);
                ctx.query("INSERT INTO edge VALUES (1, 9)").unwrap();
                ctx
            },
            |ctx| {
                let before = ctx.index_stats();
                let got = rows(ctx, LOOKUP);
                let after = ctx.index_stats();
                if after.entries != 1 || after.probes != before.probes + 1 {
                    return Err(format!(
                        "a later lookup did not probe the one entry: {after}"
                    ));
                }
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("the entry answers {got:?}, a fresh build {want:?}"))
            },
        ),
    );
}
