//! Incremental materialized-view maintenance: differential correctness
//! against full recompute, fault injection, atomicity under mid-refresh
//! kill, the RA0301 fallback contract, the version-keyed result cache, and
//! the INSERT/DELETE statement surface the subsystem rides on.
//!
//! The load-bearing property throughout: a delta-seeded (`incremental`)
//! refresh must be **bit-identical** to recomputing the defining query from
//! scratch on the post-delta base tables — same sorted rows, on both the
//! specialized-kernel and generic-interpreter paths.

use proptest::prelude::*;
use rasql_core::{library, EngineConfig, EngineError, RaSqlContext};
use rasql_exec::FaultSpec;
use rasql_storage::{Relation, Row, Value};
use std::sync::Arc;

fn weighted_rmat(n: usize, seed: u64) -> Relation {
    rasql_datagen::rmat(
        n,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        seed,
    )
}

fn plain_rmat(n: usize, seed: u64) -> Relation {
    rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed)
}

fn literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Double(d) => {
            if d.fract() == 0.0 {
                format!("{d:.1}")
            } else {
                format!("{d}")
            }
        }
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
        Value::Null => "NULL".to_string(),
    }
}

/// Render `rows` as an `INSERT INTO table VALUES ...` statement.
fn insert_sql(table: &str, rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.values().iter().map(literal).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Recompute `sql` from scratch on `edges` in a fresh context.
fn recompute(cfg: &EngineConfig, edges: &Relation, sql: &str) -> Vec<Row> {
    let ctx = cfg.clone().workers(2).build();
    ctx.register("edge", edges.clone()).unwrap();
    ctx.query(sql).unwrap().relation.sorted().rows().to_vec()
}

/// Create a materialized view over `sql` seeded with the first `split` rows
/// of `edges`, INSERT the remainder in `batches` batches, read the view
/// back (auto-refresh), and demand the result is bit-identical to a fresh
/// full recompute — with every refresh having taken the incremental path.
/// Returns the context's accumulated metrics.
fn assert_incremental_matches(
    cfg: &EngineConfig,
    edges: &Relation,
    sql: &str,
    split: usize,
    batches: usize,
) -> rasql_exec::MetricsSnapshot {
    let rows = edges.rows();
    let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
    let ctx = cfg.clone().workers(2).build();
    ctx.register("edge", initial).unwrap();
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {sql}"))
        .unwrap();
    let mv = ctx.mat_view("v").unwrap();
    assert!(
        mv.eligible,
        "expected eligibility: {:?}",
        mv.ineligible_reason
    );

    let delta = &rows[split..];
    let per = delta.len().div_ceil(batches).max(1);
    let mut refreshes = 0u64;
    for chunk in delta.chunks(per) {
        ctx.query(&insert_sql("edge", chunk)).unwrap();
        assert!(ctx.view_infos()[0].stale, "insert must mark the view stale");
        let got = ctx.query("SELECT * FROM v").unwrap();
        refreshes += 1;
        let mv = ctx.mat_view("v").unwrap();
        assert_eq!(
            mv.last_refresh, "incremental",
            "insert-only delta must take the delta-seeded path"
        );
        assert_eq!(mv.version, 1 + refreshes);
        assert!(
            !ctx.view_infos()[0].stale,
            "read-through refresh clears staleness"
        );
        let upto = (split + refreshes as usize * per).min(rows.len());
        let base = Relation::try_new(edges.schema().clone(), rows[..upto].to_vec()).unwrap();
        let want = recompute(cfg, &base, sql);
        assert_eq!(
            got.relation.sorted().rows(),
            &want[..],
            "incremental refresh diverged from full recompute ({sql})"
        );
    }
    ctx.metrics()
}

/// A delta-seeded resume is the semi-naive step driven from round 1, so what
/// the round loop does around a round must hold for it too: with a cut taken
/// at every boundary, and with a budget that pages the warm state out between
/// rounds, every refresh still lands exactly on the recompute.
#[test]
fn resume_under_checkpointing_and_a_tight_budget_matches_recompute() {
    let (plain, weighted) = (plain_rmat(48, 9), weighted_rmat(48, 5));
    let cases = [
        (library::transitive_closure(), &plain),
        (library::reach(1), &plain),
        (library::sssp(1), &weighted),
        (library::cc(), &plain),
        (library::apsp(), &weighted),
    ];
    let configs = [
        EngineConfig::rasql().checkpoint_interval(1),
        EngineConfig::rasql().memory_budget(32 * 1024),
    ];
    for cfg in configs {
        let (mut checkpoints, mut spilled) = (0, 0);
        for (sql, edges) in &cases {
            let m = assert_incremental_matches(&cfg, edges, sql, edges.len() - 12, 2);
            checkpoints += m.checkpoints;
            spilled += m.spilled_bytes;
        }
        if cfg.checkpoint_interval > 0 {
            assert!(checkpoints > 0, "no resumed round boundary was cut");
        } else {
            assert!(spilled > 0, "the budget never paged the warm state out");
        }
    }
}

/// A view whose recursive columns are all `Int` refreshes on word-lane
/// tuples — warm rows preloaded as words, seeds and rounds on words — until
/// an insert puts a value outside its lane: that refresh abandons its word
/// run before anything is merged and resumes on rows, from the same warm
/// state, and still lands on the recompute.
#[test]
fn a_word_view_refreshes_after_an_escape_inducing_insert() {
    let cfg = EngineConfig::rasql().specialized_kernels(false);
    let sql = library::transitive_closure();
    let edges = plain_rmat(40, 21);
    let ctx = cfg.clone().workers(2).build();
    let split = edges.len() - 10;
    let initial = Relation::try_new(edges.schema().clone(), edges.rows()[..split].to_vec());
    ctx.register("edge", initial.unwrap()).unwrap();
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {sql}"))
        .unwrap();
    let created = ctx.metrics();
    assert_eq!((created.word_cliques, created.lane_escapes), (1, 0));

    let refreshed = |insert: &[Row], upto: &[Row]| {
        ctx.query(&insert_sql("edge", insert)).unwrap();
        let got = ctx.query("SELECT * FROM v").unwrap();
        assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
        let base = Relation::try_new(edges.schema().clone(), upto.to_vec()).unwrap();
        assert_eq!(
            got.relation.sorted().rows(),
            &recompute(&cfg, &base, &sql)[..],
            "refresh diverged from full recompute"
        );
        ctx.metrics()
    };
    // Numbers only: the refresh runs on words.
    let m = refreshed(&edges.rows()[split..], edges.rows());
    assert_eq!((m.word_cliques, m.lane_escapes), (2, 0));

    // A NULL endpoint under a source the closure reaches.
    let src = edges.rows()[0][0].clone();
    let stray = Row::new(vec![src, Value::Null]);
    let mut all = edges.rows().to_vec();
    all.push(stray.clone());
    let m = refreshed(&[stray], &all);
    assert_eq!((m.word_cliques, m.lane_escapes), (2, 1));

    // The view now holds a NULL, so its warm rows no longer fit lanes: later
    // refreshes escape at the preload, and stay right.
    let more = Row::new(vec![Value::Int(1), Value::Int(2)]);
    all.push(more.clone());
    let m = refreshed(&[more], &all);
    assert_eq!((m.word_cliques, m.lane_escapes), (2, 2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// SSSP (min over Double, kernel path): random insert batches refresh
    /// incrementally and land exactly on the full-recompute answer.
    #[test]
    fn sssp_incremental_matches_recompute(n in 16usize..120, seed in 0u64..1000, batches in 1usize..4) {
        let edges = weighted_rmat(n, seed);
        let split = edges.len() - (edges.len() / 4).clamp(1, 24);
        assert_incremental_matches(&EngineConfig::rasql(), &edges, &library::sssp(1), split, batches);
    }

    /// Same property on the generic interpreter (kernels off).
    #[test]
    fn sssp_incremental_matches_recompute_interpreter(n in 16usize..100, seed in 0u64..1000) {
        let edges = weighted_rmat(n, seed);
        let split = edges.len() - (edges.len() / 5).clamp(1, 16);
        let cfg = EngineConfig::rasql().specialized_kernels(false);
        assert_incremental_matches(&cfg, &edges, &library::sssp(1), split, 2);
    }

    /// Connected components (min over Int).
    #[test]
    fn cc_incremental_matches_recompute(n in 16usize..120, seed in 0u64..1000) {
        let edges = plain_rmat(n, seed);
        let split = edges.len() - (edges.len() / 4).clamp(1, 24);
        assert_incremental_matches(&EngineConfig::rasql(), &edges, &library::cc(), split, 2);
    }

    /// Reachability (set semantics, no aggregate head).
    #[test]
    fn reach_incremental_matches_recompute(n in 16usize..120, seed in 0u64..1000) {
        let edges = plain_rmat(n, seed);
        let split = edges.len() - (edges.len() / 4).clamp(1, 24);
        assert_incremental_matches(&EngineConfig::rasql(), &edges, &library::reach(1), split, 1);
    }

    /// Fault injection during the incremental refresh: retries and
    /// checkpoint/restore must still land on the exact clean answer.
    #[test]
    fn faulted_incremental_refresh_matches_clean(seed in 0u64..300) {
        let edges = weighted_rmat(100, 11);
        let split = edges.len() - 12;
        let cfg = EngineConfig::rasql()
            .faults(Some(FaultSpec { kill: 0.12, delay: 0.08, loss: 0.04, delay_us: 40, seed }))
            .max_task_retries(3)
            .checkpoint_interval(3);
        let clean = EngineConfig::rasql();
        let rows = edges.rows();
        let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
        let ctx = cfg.workers(2).build();
        ctx.register("edge", initial).unwrap();
        ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {}", library::sssp(1))).unwrap();
        ctx.query(&insert_sql("edge", &rows[split..])).unwrap();
        let got = ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
        assert!(!got.relation.is_empty());
        assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
        let read = ctx.query("SELECT * FROM v").unwrap();
        let want = recompute(&clean, &edges, &library::sssp(1));
        assert_eq!(read.relation.sorted().rows(), &want[..], "faulted refresh diverged");
    }
}

/// A killed refresh must be atomic: the registry keeps the old version, the
/// view stays stale, and the next read refreshes cleanly.
#[test]
fn mid_refresh_kill_leaves_view_consistent() {
    let edges = weighted_rmat(240, 5);
    let split = edges.len() - 20;
    let rows = edges.rows();
    let mut witnessed = false;
    for _attempt in 0..10 {
        let ctx = Arc::new(EngineConfig::rasql().workers(2).build());
        let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
        ctx.register("edge", initial).unwrap();
        ctx.query(&format!(
            "CREATE MATERIALIZED VIEW v AS {}",
            library::sssp(1)
        ))
        .unwrap();
        ctx.query(&insert_sql("edge", &rows[split..])).unwrap();

        // Slow every stage down only for the refresh we are about to kill.
        // A configuration is per-context, so build a second context sharing
        // nothing — instead, rebuild: slow context from scratch.
        let slow = Arc::new(
            EngineConfig::rasql()
                .workers(2)
                .stage_latency_us(1500)
                .build(),
        );
        let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
        slow.register("edge", initial).unwrap();
        slow.query(&format!(
            "CREATE MATERIALIZED VIEW v AS {}",
            library::sssp(1)
        ))
        .unwrap();
        slow.query(&insert_sql("edge", &rows[split..])).unwrap();
        let before = slow.mat_view("v").unwrap().version;
        let built = slow.index_stats();
        let table: Vec<Row> = slow.table("v").unwrap().rows().to_vec();
        let state = slow.mat_view("v").unwrap().resident.unwrap();

        let worker = {
            let slow = Arc::clone(&slow);
            std::thread::spawn(move || slow.query("REFRESH MATERIALIZED VIEW v"))
        };
        let mut killed = false;
        for _ in 0..4000 {
            if let Some(&id) = slow.active_queries().first() {
                if slow.kill(id) {
                    killed = true;
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let outcome = worker.join().unwrap();
        if !(killed && outcome.is_err()) {
            continue; // refresh won the race; try again
        }
        let err = outcome.unwrap_err().to_string();
        assert!(
            err.contains("cancelled"),
            "kill must surface as a typed cancellation, got: {err}"
        );
        let mv = slow.mat_view("v").unwrap();
        assert_eq!(
            mv.version, before,
            "aborted refresh must not bump the version"
        );
        assert!(
            slow.view_infos()[0].stale,
            "aborted refresh must leave the view stale"
        );
        assert_eq!(
            slow.table("v").unwrap().rows(),
            &table[..],
            "a killed refresh patched"
        );
        assert!(Arc::ptr_eq(&mv.resident.unwrap(), &state));
        // The context keeps serving: the next read refreshes to the right
        // answer — incrementally, over the index entries the killed refresh
        // left (advanced or not, never torn): nothing is built again.
        let read = slow.query("SELECT * FROM v").unwrap();
        let want = recompute(&EngineConfig::rasql(), &edges, &library::sssp(1));
        assert_eq!(read.relation.sorted().rows(), &want[..]);
        assert_eq!(slow.mat_view("v").unwrap().last_refresh, "incremental");
        let stats = slow.index_stats();
        assert_eq!(
            (stats.builds, stats.rebuilds),
            (built.builds, 0),
            "{stats:?}"
        );
        witnessed = true;
        break;
    }
    assert!(witnessed, "never managed to kill a refresh mid-flight");
}

/// DELETE on a base table is outside the insert-only contract: the refresh
/// must fall back to full recompute and still be exact.
#[test]
fn delete_falls_back_to_full_refresh() {
    let edges = weighted_rmat(80, 3);
    let ctx = EngineConfig::rasql().workers(2).build();
    ctx.register("edge", edges.clone()).unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::sssp(1)
    ))
    .unwrap();
    assert!(ctx.mat_view("v").unwrap().eligible);
    ctx.query("DELETE FROM edge WHERE Src = 3").unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "full");
    let kept: Vec<Row> = edges
        .rows()
        .iter()
        .filter(|r| r[0] != Value::Int(3))
        .cloned()
        .collect();
    let base = Relation::try_new(edges.schema().clone(), kept).unwrap();
    let want = recompute(&EngineConfig::rasql(), &base, &library::sssp(1));
    let read = ctx.query("SELECT * FROM v").unwrap();
    assert_eq!(read.relation.sorted().rows(), &want[..]);
}

/// Concurrent REFRESHes racing concurrent INSERTs must publish atomically:
/// without per-view serialization, one refresh's contents can be paired
/// with another refresh's dependency records — the view then reads as
/// fresh while silently missing derivations, forever.
#[test]
fn racing_refreshes_never_publish_torn_state() {
    let edges = weighted_rmat(200, 11);
    let split = edges.len() - 16;
    let rows = edges.rows();
    let ctx = Arc::new(
        EngineConfig::rasql()
            .workers(2)
            .stage_latency_us(50)
            .build(),
    );
    let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
    ctx.register("edge", initial).unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::sssp(1)
    ))
    .unwrap();
    // Two writers interleave single-row inserts with refreshes of the same
    // view, so refreshes overlap arbitrarily with each other and with
    // version bumps.
    let delta = rows[split..].to_vec();
    let mid = delta.len() / 2;
    let halves = [delta[..mid].to_vec(), delta[mid..].to_vec()];
    let writers: Vec<_> = halves
        .into_iter()
        .map(|half| {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                for row in half {
                    ctx.query(&insert_sql("edge", std::slice::from_ref(&row)))
                        .unwrap();
                    ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    // All delta rows are in. A torn publish would record fresh dependency
    // versions over stale contents, so this read would skip the refresh and
    // serve the wrong rows; a consistent registry serves (or refreshes to)
    // exactly the recomputed fixpoint.
    let want = recompute(&EngineConfig::rasql(), &edges, &library::sssp(1));
    let read = ctx.query("SELECT * FROM v").unwrap();
    assert_eq!(read.relation.sorted().rows(), &want[..]);
}

/// A DELETE racing concurrent INSERTs must not clobber them: the
/// keep-predicate result is only published if the table version is
/// unchanged since it was evaluated, re-evaluating otherwise.
#[test]
fn delete_does_not_lose_concurrent_inserts() {
    let ctx = Arc::new(
        EngineConfig::rasql()
            .workers(2)
            .stage_latency_us(100)
            .build(),
    );
    let base: Vec<(i64, i64)> = (0..200).map(|i| (i, i + 1)).collect();
    ctx.register("edge", Relation::edges(&base)).unwrap();
    let deleter = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || ctx.query("DELETE FROM edge WHERE Src < 10000").unwrap())
    };
    // Rows the predicate keeps, inserted while the delete is in flight.
    // Whatever the interleaving, none of them may be lost: a row landing
    // after the keep-scan but before its publish forces a re-evaluation.
    for i in 0..40i64 {
        ctx.query(&format!("INSERT INTO edge VALUES ({}, {i})", 10_000 + i))
            .unwrap();
    }
    deleter.join().unwrap();
    let rows = ctx.query("SELECT * FROM edge").unwrap();
    let survivors: Vec<Row> = rows
        .relation
        .rows()
        .iter()
        .filter(|r| r[0] < Value::Int(10_000))
        .cloned()
        .collect();
    assert!(
        survivors.is_empty(),
        "delete must remove every matching row"
    );
    assert_eq!(
        rows.relation.len(),
        40,
        "concurrently inserted rows must survive the delete"
    );
}

/// INSERT and DELETE report affected-row counts; bare DELETE truncates.
#[test]
fn insert_delete_statement_surface() {
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    let r = ctx
        .query("INSERT INTO edge VALUES (3, 4), (4, 5), (5, 6)")
        .unwrap();
    assert_eq!(r.relation.schema().fields()[0].name, "inserted");
    assert_eq!(r.relation.rows()[0][0], Value::Int(3));
    let r = ctx.query("DELETE FROM edge WHERE Src > 3").unwrap();
    assert_eq!(r.relation.schema().fields()[0].name, "deleted");
    assert_eq!(r.relation.rows()[0][0], Value::Int(2));
    let r = ctx.query("DELETE FROM edge").unwrap();
    assert_eq!(r.relation.rows()[0][0], Value::Int(3));
    let empty = ctx.query("SELECT * FROM edge").unwrap();
    assert_eq!(empty.relation.len(), 0);
}

/// The version-keyed result cache: hit on a repeat, invalidated by INSERT.
#[test]
fn result_cache_hits_and_invalidates() {
    let ctx = EngineConfig::rasql().workers(2).result_cache(8).build();
    ctx.register("edge", weighted_rmat(60, 9)).unwrap();
    let sql = library::sssp(1);
    let first = ctx.query(&sql).unwrap();
    assert!(!first.stats.cached);
    let second = ctx.query(&sql).unwrap();
    assert!(
        second.stats.cached,
        "identical query on identical versions must hit"
    );
    assert_eq!(
        first.relation.sorted().rows(),
        second.relation.sorted().rows()
    );
    assert_eq!(first.stats.iterations, second.stats.iterations);
    let m = ctx.metrics();
    assert!(m.cache_hits >= 1);
    ctx.query("INSERT INTO edge VALUES (1, 2, 0.5)").unwrap();
    let third = ctx.query(&sql).unwrap();
    assert!(!third.stats.cached, "version bump must miss the cache");
    assert!(ctx.metrics().cache_invalidations >= 1);
}

/// Non-idempotent aggregate heads (count/sum) are ineligible: creation
/// records the reason, REFRESH takes the full path, and CHECK surfaces
/// RA0301.
#[test]
fn count_paths_view_is_ineligible_and_falls_back() {
    // count_paths only terminates on DAGs; keep forward edges.
    let full = weighted_rmat(60, 2);
    let rows: Vec<Row> = full
        .rows()
        .iter()
        .filter(|r| r[0].as_int().unwrap() < r[1].as_int().unwrap())
        .cloned()
        .collect();
    let split = rows.len() - 4;
    let edges = Relation::try_new(full.schema().clone(), rows[..split].to_vec()).unwrap();
    let ctx = EngineConfig::rasql().workers(2).build();
    ctx.register("edge", edges).unwrap();
    let sql = library::count_paths(1);
    ctx.query(&format!("CREATE MATERIALIZED VIEW cnt AS {sql}"))
        .unwrap();
    let mv = ctx.mat_view("cnt").unwrap();
    assert!(!mv.eligible);
    assert!(mv.ineligible_reason.is_some());
    assert_eq!(
        mv.retained_bytes(),
        0,
        "no warm state is retained for ineligible views"
    );
    ctx.query(&insert_sql("edge", &rows[split..])).unwrap();
    let read = ctx.query("SELECT * FROM cnt").unwrap();
    assert_eq!(ctx.mat_view("cnt").unwrap().last_refresh, "full");
    let want = recompute(
        &EngineConfig::rasql(),
        &Relation::try_new(full.schema().clone(), rows).unwrap(),
        &sql,
    );
    assert_eq!(read.relation.sorted().rows(), &want[..]);
    let report = ctx.check(&sql).unwrap();
    assert!(report.rendered.contains("RA0301"));
}

/// Golden RA0301 diagnostic: code, message, and byte span are pinned.
#[test]
fn golden_ra0301_code_and_span() {
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", Relation::edges(&[(1, 2)])).unwrap();
    let sql = "WITH RECURSIVE cnt(Dst, count() AS Paths) AS \
               (SELECT 1, 1) UNION (SELECT e.Dst, cnt.Paths FROM cnt, edge e \
               WHERE cnt.Dst = e.Src) SELECT Dst, Paths FROM cnt";
    let report = ctx.check(sql).unwrap();
    assert!(report.rendered.contains(
        "warning[RA0301]: non-idempotent aggregate count() AS Paths in view cnt: \
         re-deriving a retained contribution would double-count it"
    ));
    assert!(report.rendered.contains("bytes 24..40"));
    assert!(report
        .rendered
        .contains("a REFRESH of a materialized view over this query falls back to full recompute"));
    // RA0301 lives in the maintenance channel: it must not flip CHECK to
    // failing or count as a verification warning.
    assert!(report.rendered.contains("CHECK: pass"));
}

/// Statement guards: no INSERT/DELETE into a view, no duplicate CREATE,
/// unknown names surface as typed errors, DROP unregisters the table.
#[test]
fn matview_statement_guards() {
    let ctx = RaSqlContext::in_memory();
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::reach(1)
    ))
    .unwrap();
    let err = ctx.query("INSERT INTO v VALUES (9)").unwrap_err();
    assert!(err.to_string().contains("materialized view"), "{err}");
    let err = ctx.query("DELETE FROM v").unwrap_err();
    assert!(err.to_string().contains("materialized view"), "{err}");
    let err = ctx
        .query(&format!(
            "CREATE MATERIALIZED VIEW v AS {}",
            library::reach(1)
        ))
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    assert!(matches!(
        ctx.query("REFRESH MATERIALIZED VIEW nope").unwrap_err(),
        EngineError::UnknownView(_)
    ));
    assert!(matches!(
        ctx.query("DROP MATERIALIZED VIEW nope").unwrap_err(),
        EngineError::UnknownView(_)
    ));
    ctx.query("DROP MATERIALIZED VIEW v").unwrap();
    assert!(ctx.mat_view("v").is_none());
    assert!(ctx.view_infos().is_empty());
    assert!(
        ctx.query("SELECT * FROM v").is_err(),
        "dropped view must unregister"
    );
}

/// The whole lifecycle through a session script (the server/CLI path): the
/// view created by an earlier statement is visible to later ones.
#[test]
fn session_script_sees_new_view() {
    let ctx = Arc::new(RaSqlContext::in_memory());
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3), (3, 4)]))
        .unwrap();
    let session = ctx.session();
    let results = session
        .query_script(&format!(
            "CREATE MATERIALIZED VIEW r AS {}; SELECT count(*) FROM r",
            library::reach(1)
        ))
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[1].relation.rows()[0][0], Value::Int(4));
    let infos = ctx.view_infos();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "r");
    assert_eq!(infos[0].version, 1);
    assert!(!infos[0].stale);
    assert_eq!(infos[0].last_refresh, "none");
}

/// `r` reaches `seed` and everything `build` (columns `S`, `D`) leads to.
fn reach_through(build: &str, seed: i64) -> String {
    format!(
        "WITH recursive r (Dst) AS (SELECT {seed}) UNION \
           (SELECT two.D FROM r, ({build}) two WHERE r.Dst = two.S) \
         SELECT Dst FROM r"
    )
}

const SELF_JOIN: &str = "SELECT a.Src AS S, b.Dst AS D FROM edge a, edge b WHERE a.Dst = b.Src";
const TWO_TABLES: &str = "SELECT a.Src AS S, b.Dst AS D FROM edge a, hop b WHERE a.Dst = b.Src";

fn ints(r: &Relation) -> Vec<i64> {
    let mut v: Vec<i64> = r
        .rows()
        .iter()
        .map(|row| row[0].as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

/// A recursive join whose build side reads the changed table twice is not
/// delta-seedable: overlaying every occurrence with Δ evaluates Δ⋈Δ and drops
/// old⋈Δ and Δ⋈old. The view answered `{2}` forever while reporting
/// `incremental`; it now refreshes `full`, says why, and is right.
#[test]
fn self_joining_build_side_refreshes_full_and_keeps_its_derivations() {
    let ctx = EngineConfig::rasql().workers(2).build();
    ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
        .unwrap();
    ctx.query(&format!("CREATE VIEW two AS {SELF_JOIN}"))
        .unwrap();
    ctx.query(
        "CREATE MATERIALIZED VIEW mv AS WITH recursive r (Dst) AS (SELECT 2) UNION \
           (SELECT two.D FROM r, two WHERE r.Dst = two.S) SELECT Dst FROM r",
    )
    .unwrap();
    let mv = ctx.mat_view("mv").unwrap();
    assert!(!mv.eligible);
    let reason = mv.ineligible_reason.unwrap();
    assert!(
        reason.contains("RA0301") && reason.contains("more than once"),
        "{reason}"
    );
    assert_eq!(ints(&ctx.query("SELECT * FROM mv").unwrap().relation), [2]);

    ctx.query("INSERT INTO edge VALUES (3, 4)").unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW mv").unwrap();
    assert_eq!(ctx.mat_view("mv").unwrap().last_refresh, "full");
    assert_eq!(
        ints(&ctx.query("SELECT * FROM mv").unwrap().relation),
        [2, 4]
    );

    ctx.query("INSERT INTO edge VALUES (4, 5), (5, 6)").unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW mv").unwrap();
    assert_eq!(ctx.mat_view("mv").unwrap().last_refresh, "full");
    assert_eq!(
        ints(&ctx.query("SELECT * FROM mv").unwrap().relation),
        [2, 4, 6]
    );
}

/// A session analyzes, verifies and materializes a statement in one catalog.
/// The same script on the context and on a session certifies the view over
/// the self-joining `two` alike (RA0301, `full`), refreshes it to the same
/// rows, and answers `CHECK` and `EXPLAIN` with the same text. A session used
/// to verify against the shared catalog instead: the view came out
/// `incremental` and stuck at `{2}`, `CHECK` reported `two` unknown, and
/// `EXPLAIN` called a view with a failed verdict refresh-eligible.
#[test]
fn a_session_view_under_a_materialized_view_is_certified_like_a_shared_one() {
    let create = "CREATE MATERIALIZED VIEW mv AS WITH recursive r (Dst) AS (SELECT 2) UNION \
                  (SELECT two.D FROM r, two WHERE r.Dst = two.S) SELECT Dst FROM r";
    let script = format!(
        "CREATE VIEW two AS {SELF_JOIN}; CHECK SELECT S, D FROM two WHERE S < D; \
         EXPLAIN {create}; {create}"
    );
    let text = |r: &rasql_core::QueryResult| -> String {
        let lines: Vec<String> = r
            .relation
            .rows()
            .iter()
            .map(|row| row[0].to_string())
            .collect();
        lines.join("\n")
    };
    let mut answers = Vec::new();
    for on_session in [false, true] {
        let ctx = Arc::new(EngineConfig::rasql().workers(2).build());
        ctx.register("edge", Relation::edges(&[(1, 2), (2, 3)]))
            .unwrap();
        let session = ctx.session();
        let run = |sql: &str| {
            if on_session {
                session.query_script(sql)
            } else {
                ctx.query_script(sql)
            }
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
        };
        let results = run(&script);
        let (check, explain) = (text(&results[1]), text(&results[2]));
        assert!(check.contains("CHECK: pass"), "{check}");
        assert!(
            !explain.contains("incremental refresh eligible"),
            "{explain}"
        );
        let mv = ctx.mat_view("mv").unwrap();
        assert!(!mv.eligible, "session={on_session}");
        assert!(mv.ineligible_reason.unwrap().contains("RA0301"));

        let mut rows = Vec::new();
        for insert in ["(3, 4)", "(4, 5), (5, 6)"] {
            run(&format!("INSERT INTO edge VALUES {insert}"));
            run("REFRESH MATERIALIZED VIEW mv");
            assert_eq!(ctx.mat_view("mv").unwrap().last_refresh, "full");
            rows.push(ints(&run("SELECT * FROM mv")[0].relation));
        }
        assert_eq!(rows, [vec![2, 4], vec![2, 4, 6]], "session={on_session}");
        answers.push((check, explain));
    }
    assert_eq!(
        answers[0], answers[1],
        "the session and the context disagree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random build plans over one table joined with itself or with a second
    /// table, random inserts into either or both between refreshes: the view
    /// is what a fresh context computes, the two-table plan refreshes
    /// `incremental` (its index advanced when one table grew, rebuilt when
    /// both did) and the self-join `full`.
    #[test]
    fn join_build_sides_refresh_to_the_recompute(
        self_join in any::<bool>(),
        edge in prop::collection::vec((0i64..10, 0i64..10), 1..14),
        hop in prop::collection::vec((0i64..10, 0i64..10), 1..14),
        rounds in prop::collection::vec(
            (prop::collection::vec((0i64..10, 0i64..10), 0..4),
             prop::collection::vec((0i64..10, 0i64..10), 0..4)),
            1..4,
        ),
        seed in 0i64..10,
        kernels in any::<bool>(),
    ) {
        let sql = reach_through(if self_join { SELF_JOIN } else { TWO_TABLES }, seed);
        let cfg = EngineConfig::rasql().workers(2).specialized_kernels(kernels);
        let ctx = cfg.clone().build();
        let (mut edge, mut hop) = (edge, hop);
        ctx.register("edge", Relation::edges(&edge)).unwrap();
        ctx.register("hop", Relation::edges(&hop)).unwrap();
        ctx.query(&format!("CREATE MATERIALIZED VIEW mv AS {sql}")).unwrap();
        prop_assert_eq!(ctx.mat_view("mv").unwrap().eligible, !self_join);
        for (more_edge, more_hop) in rounds {
            for (table, have, more) in [("edge", &mut edge, more_edge), ("hop", &mut hop, more_hop)] {
                if !more.is_empty() {
                    ctx.query(&insert_sql(table, Relation::edges(&more).rows())).unwrap();
                    have.extend(more);
                }
            }
            let stale = ctx.view_infos()[0].stale;
            let got = ctx.query("SELECT * FROM mv").unwrap().relation;
            if stale {
                let mode = if self_join { "full" } else { "incremental" };
                prop_assert_eq!(ctx.mat_view("mv").unwrap().last_refresh, mode);
            }
            let fresh = cfg.clone().build();
            fresh.register("edge", Relation::edges(&edge)).unwrap();
            fresh.register("hop", Relation::edges(&hop)).unwrap();
            prop_assert_eq!(ints(&got), ints(&fresh.query(&sql).unwrap().relation));
        }
    }
}

/// A train of insert-only refreshes advances the one index the view's build
/// side is: built once, at creation, and each refresh appends its batch to
/// it — no layer cap, so no periodic rebuild (which used to triple every 7th
/// refresh). That the first append costs what a later one costs is counted
/// in bytes by `alloc_budget`.
#[test]
fn sixteen_refreshes_advance_one_index_at_an_even_price() {
    const TRAIN: usize = 16;
    const BATCH: usize = 32;
    let edges = weighted_rmat(16_384, 7);
    let rows = edges.rows();
    let split = rows.len() - TRAIN * BATCH;
    let cfg = EngineConfig::rasql()
        .workers(2)
        .stage_latency_us(0)
        .specialized_kernels(false);
    let sql = library::sssp(1);
    let ctx = cfg.clone().build();
    let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
    ctx.register("edge", initial).unwrap();
    ctx.query(&format!("CREATE MATERIALIZED VIEW v AS {sql}"))
        .unwrap();
    let created = ctx.index_stats();
    assert_eq!(
        (created.builds, created.advances, created.rebuilds),
        (1, 0, 0)
    );
    for batch in rows[split..].chunks(BATCH) {
        ctx.query(&insert_sql("edge", batch)).unwrap();
        ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
        assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
    }
    let stats = ctx.index_stats();
    assert_eq!(
        (stats.builds, stats.advances, stats.rebuilds),
        (1, TRAIN as u64, 0),
        "{stats:?}"
    );
    let got = ctx.query("SELECT * FROM v").unwrap().relation.sorted();
    assert_eq!(got.rows(), &recompute(&cfg, &edges, &sql)[..]);
}

/// The eight library views whose final plan projects their clique view, the
/// base table each reads, whether its base is weighted, and the column a key
/// read filters on (the view's key where it is one column).
fn projection_views() -> Vec<(&'static str, String, bool, &'static str)> {
    vec![
        ("sssp", library::sssp(0), true, "Dst"),
        ("widest_path", library::widest_path(0), true, "Dst"),
        ("sssp_hops", library::sssp_hops(0), false, "Dst"),
        ("reach", library::reach(0), false, "Dst"),
        ("cc", library::cc(), false, "Src"),
        (
            "transitive_closure",
            library::transitive_closure(),
            false,
            "Src",
        ),
        ("apsp", library::apsp(), true, "Src"),
        ("same_generation", library::same_generation(), false, "X"),
    ]
}

/// `edges` as the table a view reads: `edge`, or same-generation's `rel`.
fn base_table(view: &str, edges: &Relation) -> (&'static str, Relation) {
    if view != "same_generation" {
        return ("edge", edges.clone());
    }
    let schema = rasql_storage::Schema::new(vec![
        ("Parent", rasql_storage::DataType::Int),
        ("Child", rasql_storage::DataType::Int),
    ]);
    let rows = edges.rows().iter().map(|r| r.project(&[0, 1])).collect();
    ("rel", Relation::try_new(schema, rows).unwrap())
}

/// What a reader of a just-refreshed view sees: (a) a certified view's table
/// is, row for row and in order, the table rebuilt from its new state; (b)
/// a `col = literal` read returns the scan's rows for a present key, an
/// absent one, an integral `Double` and a literal off the key's lane — and,
/// on the view's key, builds no index; (c) the table is the recompute.
fn assert_reads_like_a_recompute(
    query: &dyn Fn(&str) -> rasql_core::QueryResult,
    ctx: &RaSqlContext,
    col: &str,
    want: &[Row],
) {
    let table = ctx.table("v").unwrap();
    if let Some(rebuilt) = ctx.mat_view("v").unwrap().state_table() {
        assert_eq!(table.rows(), rebuilt.rows(), "patched table != rebuilt");
    }
    let c = table.schema().index_of(col).unwrap();
    let present = table.rows().first().map_or(Value::Int(0), |r| r[c].clone());
    let as_double = match &present {
        Value::Int(i) => Value::Double(*i as f64),
        other => other.clone(),
    };
    let keyed = ctx.mat_view("v").unwrap().query.cliques[0].views[0]
        .key_cols
        .len()
        == 1;
    for (round, literal) in [present, Value::Int(-7), as_double, Value::Double(2.5)]
        .iter()
        .enumerate()
    {
        let before = ctx.index_stats();
        // Twice at one version: the second ask of a key is what builds an
        // index for a table that has no lookup of its own.
        for _ in 0..2 {
            let got = query(&format!(
                "SELECT * FROM v WHERE {col} = {}",
                literal_sql(literal)
            ));
            let scan: Vec<Row> = (table.rows().iter())
                .filter(|r| r[c] == *literal)
                .cloned()
                .collect();
            assert_eq!(got.relation.rows(), &scan[..], "lookup {round} of {col}");
        }
        if keyed {
            let after = ctx.index_stats();
            assert_eq!(
                (after.builds, after.entries),
                (before.builds, before.entries)
            );
        }
    }
    let got = query("SELECT * FROM v").relation.sorted();
    assert_eq!(got.rows(), want, "refresh diverged from the recompute");
}

fn literal_sql(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("{d:?}"),
        other => literal(other),
    }
}

/// Create view `v` over the first rows of `edges`, then insert the rest in
/// `batches` and `REFRESH` after each, checking every read after every
/// refresh, on a context or on a session of one.
fn refresh_reads_like_a_recompute(
    (view, sql, _, col): &(&'static str, String, bool, &'static str),
    edges: &Relation,
    batches: usize,
    session: bool,
) {
    let cfg = EngineConfig::rasql().workers(2);
    let rows = edges.rows();
    let split = rows.len() - (rows.len() / 4).clamp(1, 24);
    let ctx = Arc::new(cfg.clone().build());
    let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
    let (table, initial) = base_table(view, &initial);
    ctx.register(table, initial).unwrap();
    let s = ctx.session();
    let query = |q: &str| {
        match session {
            true => s.query(q),
            false => ctx.query(q),
        }
        .unwrap()
    };
    query(&format!("CREATE MATERIALIZED VIEW v AS {sql}"));
    let per = (rows.len() - split).div_ceil(batches).max(1);
    let mut upto = split;
    for chunk in rows[split..].chunks(per) {
        upto += chunk.len();
        let (_, chunk) = base_table(
            view,
            &Relation::try_new(edges.schema().clone(), chunk.to_vec()).unwrap(),
        );
        query(&insert_sql(table, chunk.rows()));
        query("REFRESH MATERIALIZED VIEW v");
        let fresh = cfg.clone().build();
        let base = Relation::try_new(edges.schema().clone(), rows[..upto].to_vec()).unwrap();
        let (_, base) = base_table(view, &base);
        fresh.register(table, base).unwrap();
        let want = fresh.query(sql).unwrap().relation.sorted();
        assert_reads_like_a_recompute(&query, &ctx, col, want.rows());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every projection view, on a context and on a session: after every
    /// refresh of random insert batches, the table, its key reads and the
    /// recompute agree.
    #[test]
    fn a_refreshed_view_reads_like_a_recomputed_one(
        n in 16usize..64,
        seed in 0u64..1000,
        batches in 1usize..4,
    ) {
        for case in projection_views() {
            let edges = if case.2 { weighted_rmat(n, seed) } else { plain_rmat(n, seed) };
            for session in [false, true] {
                refresh_reads_like_a_recompute(&case, &edges, batches, session);
            }
        }
    }
}

/// A reader that holds the view's table across a refresh keeps the rows it
/// read; the refresh patches a copy, which is the table rebuilt from state.
#[test]
fn a_reader_keeps_the_table_it_holds_across_a_patching_refresh() {
    let edges = weighted_rmat(200, 3);
    let rows = edges.rows();
    let split = rows.len() - 16;
    let ctx = EngineConfig::rasql().workers(2).build();
    let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
    ctx.register("edge", initial).unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW v AS {}",
        library::sssp(1)
    ))
    .unwrap();
    let held = ctx.query("SELECT * FROM v").unwrap().relation;
    let copy: Vec<Row> = held.rows().to_vec();
    ctx.query(&insert_sql("edge", &rows[split..])).unwrap();
    ctx.query("INSERT INTO edge VALUES (1, 1000, 0.5), (1, 1001, 0.5)")
        .unwrap();
    ctx.query("REFRESH MATERIALIZED VIEW v").unwrap();
    assert_eq!(ctx.mat_view("v").unwrap().last_refresh, "incremental");
    assert_eq!(held.rows(), &copy[..], "the reader's rows moved");
    let table = ctx.table("v").unwrap();
    assert_ne!(table.rows(), &copy[..], "the delta reached the view");
    let rebuilt = ctx.mat_view("v").unwrap().state_table().unwrap();
    assert_eq!(table.rows(), rebuilt.rows());
}

/// A refresh that fails under injected task faults (no retries) publishes
/// nothing: the table and the resident state are the ones it started from.
#[test]
fn a_faulted_refresh_patches_nothing() {
    let edges = weighted_rmat(100, 11);
    let rows = edges.rows();
    let split = rows.len() - 12;
    let mut failed = 0;
    for seed in 0..60 {
        let cfg = EngineConfig::rasql()
            .workers(2)
            .faults(Some(FaultSpec {
                kill: 0.15,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            }))
            .max_task_retries(0);
        let ctx = cfg.build();
        let initial = Relation::try_new(edges.schema().clone(), rows[..split].to_vec()).unwrap();
        ctx.register("edge", initial).unwrap();
        if ctx
            .query(&format!(
                "CREATE MATERIALIZED VIEW v AS {}",
                library::sssp(1)
            ))
            .is_err()
        {
            continue;
        }
        ctx.query(&insert_sql("edge", &rows[split..])).unwrap();
        let (table, state) = (ctx.table("v").unwrap(), ctx.mat_view("v").unwrap().resident);
        let copy: Vec<Row> = table.rows().to_vec();
        drop(table);
        if ctx.query("REFRESH MATERIALIZED VIEW v").is_ok() {
            continue;
        }
        failed += 1;
        let after = ctx.mat_view("v").unwrap();
        assert!(Arc::ptr_eq(
            after.resident.as_ref().unwrap(),
            state.as_ref().unwrap()
        ));
        assert_eq!(
            ctx.table("v").unwrap().rows(),
            &copy[..],
            "a failed refresh patched"
        );
        assert_eq!(after.state_table().unwrap().rows(), &copy[..]);
    }
    assert!(failed > 0, "no refresh failed under faults");
}
