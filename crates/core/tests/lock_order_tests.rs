//! Regression tests for the audited lock-acquisition orders.
//!
//! The normative rank table lives in `rasql_storage::sync`; these tests run
//! the engine paths whose *actual* acquisition orders the table was audited
//! from. In debug/test builds every `RankedMutex`/`RankedRwLock` acquisition
//! is checked against the thread's held-lock stack, so simply executing
//! these paths is the regression: if a future change nests two locks
//! against the declared order, the test panics naming both acquisition
//! sites — no unlucky concurrent interleaving required.

use rasql_core::{library, EngineConfig, RaSqlContext};
#[cfg(debug_assertions)]
use rasql_storage::sync::RankedMutex;
use rasql_storage::sync::{held_ranks, LockRank};
use std::sync::Arc;

fn ctx_with_edges(n: usize) -> RaSqlContext {
    let ctx = RaSqlContext::with_config(EngineConfig::rasql().with_workers(2));
    let edges = rasql_datagen::rmat(
        n,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        7,
    );
    ctx.register("edge", edges).unwrap();
    ctx
}

/// `ViewSerialization` is the outermost rank because the per-view guard is
/// held across a whole CREATE/REFRESH — admission, execution, catalog
/// publication, warm-state capture and all. This drives that entire chain.
#[test]
fn refresh_holds_the_outermost_view_guard_across_the_full_chain() {
    let ctx = ctx_with_edges(64);
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::sssp(1)
    ))
    .unwrap();
    ctx.query("INSERT INTO edge VALUES (1, 63, 0.5)").unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    // Reading the view back takes the result-cache and catalog paths.
    ctx.query("SELECT * FROM v").unwrap();
    assert!(held_ranks().is_empty(), "no lock may leak out of a query");
}

/// The load-bearing edge in the table: `MatViewRegistry` ranks *before*
/// `CatalogTables` because staleness checks read base-table versions while
/// holding the registry lock. `view_infos` is exactly that nesting.
#[test]
fn registry_before_catalog_is_the_audited_order() {
    let ctx = ctx_with_edges(32);
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::transitive_closure()
    ))
    .unwrap();
    ctx.query("INSERT INTO edge VALUES (2, 31, 1.0)").unwrap();
    let infos = ctx.view_infos();
    assert_eq!(infos.len(), 1);
    assert!(infos[0].stale, "version read under the registry lock");
}

/// DELETE's optimistic `replace_rows_if` loop and a concurrent INSERT each
/// nest session/context locks over `CatalogTables`; run them from many
/// threads so every pairing is exercised under the debug rank checker.
#[test]
fn concurrent_statements_keep_the_discipline() {
    let ctx = Arc::new(ctx_with_edges(48));
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {}", library::cc()))
        .unwrap();
    let mut handles = Vec::new();
    for t in 0..4u8 {
        let ctx = Arc::clone(&ctx);
        handles.push(std::thread::spawn(move || {
            for i in 0..8 {
                match t % 4 {
                    0 => {
                        let _ = ctx.query(&format!(
                            "INSERT INTO edge VALUES ({}, {}, 1.0)",
                            100 + i,
                            i
                        ));
                    }
                    1 => {
                        let _ = ctx.query(&format!("DELETE FROM edge WHERE Src = {}", 100 + i));
                    }
                    2 => {
                        let _ = ctx.query("SELECT * FROM v");
                    }
                    _ => {
                        let _ = ctx.view_infos();
                    }
                }
            }
            assert!(held_ranks().is_empty());
        }));
    }
    for h in handles {
        h.join().expect("no rank inversion panic on any thread");
    }
}

/// The checker itself must still be armed in this build: acquiring against
/// the declared order panics, naming both sites. The checker is compiled
/// only with debug assertions, so a release build has nothing to arm.
#[cfg(debug_assertions)]
#[test]
fn inversion_still_panics_in_this_build() {
    let outer = RankedMutex::new(LockRank::DurabilityLog, ());
    let inner = RankedMutex::new(LockRank::CatalogTables, ());
    let err = std::panic::catch_unwind(|| {
        let _g1 = outer.lock();
        let _g2 = inner.lock(); // CatalogTables(100) < DurabilityLog(115): inversion
    })
    .expect_err("out-of-order acquisition must panic in debug/test builds");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("lock-rank inversion"), "{msg}");
    assert!(msg.contains("CatalogTables"), "{msg}");
    assert!(msg.contains("DurabilityLog"), "{msg}");
}

/// `DurabilityLog` ranks after `CatalogTables` because catalog mutations —
/// a certified view's refresh record among them — journal to the WAL from
/// inside the catalog write lock, and after `MatViewRegistry` because
/// snapshot publication reads the registry's resident view state before
/// appending. Driving a fresh durable context through the full
/// DDL/DML/matview lifecycle (with compaction forced every few records)
/// executes every append-under-catalog-write nesting with the debug rank
/// checker armed.
#[test]
fn durability_log_nests_under_catalog_and_warm_state() {
    assert!((LockRank::MatViewRegistry as u32) < (LockRank::CatalogTables as u32));
    assert!((LockRank::CatalogTables as u32) < (LockRank::DurabilityLog as u32));
    assert!((LockRank::DurabilityLog as u32) < (LockRank::ResultCache as u32));

    let dir = std::env::temp_dir().join(format!("rasql-lock-order-dur-p{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = RaSqlContext::builder()
        .workers(2)
        .data_dir(dir.clone())
        .snapshot_every(4) // compact mid-test so publish_snapshot runs under load
        .try_build()
        .expect("fresh durable context");
    let edges = rasql_datagen::rmat(
        48,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        7,
    );
    ctx.register("edge", edges).unwrap();
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {}", library::cc()))
        .unwrap();
    for i in 0..6 {
        ctx.query(&format!(
            "INSERT INTO edge VALUES ({}, {}, 1.0)",
            100 + i,
            i
        ))
        .unwrap();
    }
    ctx.query("DELETE FROM edge WHERE Src = 100").unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    ctx.query("DROP MATERIALIZED VIEW v").unwrap();
    assert!(
        held_ranks().is_empty(),
        "no lock may leak out of a durable statement"
    );
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `IndexStore` ranks after `CatalogTables`: the store's lock is never held
/// across a catalog access (a fetch snapshots table versions first, builds
/// outside the lock, re-checks under it), so taking the catalog inside it is
/// an inversion the checker names. Drive every consumer — a view's build
/// side, a kernel CSR, point lookups on their second use, advances after
/// inserts, the sweep of a delete — from several threads with the checker
/// armed (debug builds: the checker is compiled only with debug
/// assertions).
#[cfg(debug_assertions)]
#[test]
fn index_store_is_never_held_across_a_catalog_access() {
    assert!((LockRank::ResultCache as u32) < (LockRank::IndexStore as u32));
    let store = RankedMutex::new(LockRank::IndexStore, ());
    let catalog = RankedMutex::new(LockRank::CatalogTables, ());
    let err = std::panic::catch_unwind(|| {
        let _held = store.lock();
        let _g = catalog.lock();
    })
    .expect_err("a catalog access under the index store's lock must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("IndexStore"), "{msg}");

    let ctx = Arc::new(RaSqlContext::builder().workers(2).result_cache(0).build());
    ctx.register(
        "edge",
        rasql_datagen::rmat(64, rasql_datagen::RmatConfig::default(), 3),
    )
    .unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::reach(1)
    ))
    .unwrap();
    let handles: Vec<_> = (0..4i64)
        .map(|t| {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                for i in 0..12 {
                    ctx.query(&format!("SELECT Dst FROM edge WHERE Src = {}", i % 5))
                        .unwrap();
                    ctx.query(&library::reach(1 + i % 3)).unwrap();
                    ctx.query(&format!("INSERT INTO edge VALUES ({}, {i})", 200 + t))
                        .unwrap();
                    ctx.query("SELECT count(*) FROM v").unwrap();
                    if t == 0 && i % 5 == 4 {
                        ctx.query("DELETE FROM edge WHERE Src = 200").unwrap();
                    }
                    assert!(held_ranks().is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no rank inversion panic on any thread");
    }
    let stats = ctx.index_stats();
    assert!(stats.advances > 0 && stats.probes > 0, "{stats:?}");
}

/// Sessions overlay private views on the shared context; their locks rank
/// before the planner catalog and the registry. Exercise the session path.
#[test]
fn session_statements_nest_cleanly_over_the_shared_context() {
    let ctx = Arc::new(ctx_with_edges(32));
    let session = ctx.session();
    session
        .query("CREATE VIEW sv AS SELECT Src, Dst FROM edge")
        .unwrap();
    // Resolving `sv` nests SessionViews → PlannerCatalog → … → CatalogTables.
    session.query("SELECT * FROM sv").unwrap();
    session
        .query("INSERT INTO edge VALUES (9, 3, 1.0)")
        .unwrap();
    assert!(held_ranks().is_empty());
}
