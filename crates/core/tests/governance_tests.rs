//! Resource-governance integration tests.
//!
//! Four properties the subsystem must hold end to end:
//!
//! 1. **Spill identity** — a query forced over its memory budget pages
//!    fixpoint state to disk and back, and the answer (rows *and* round
//!    count) is bit-identical to an unlimited-budget run.
//! 2. **Typed failure** — deadlines, kills, and over-budget broadcasts
//!    surface as `ExecError::{DeadlineExceeded, Cancelled, MemoryExceeded}`
//!    through `EngineError`, never as a panic.
//! 3. **Clean unwinding** — after any governed failure the context
//!    immediately serves the next query, and no spill directory outlives its
//!    query's governor.
//! 4. **Admission** — a saturated controller queues up to its bound and
//!    rejects beyond it with a typed error.

use proptest::prelude::*;
use rasql_core::{library, EngineConfig, EngineError, RaSqlContext};
use rasql_exec::{ExecError, FaultSpec};
use rasql_storage::Relation;
use std::time::Duration;

/// Interpreter-path config: kernels and decomposed plans keep their state in
/// slabs (charged but never paged), so the spill tests pin the semi-naive
/// interpreter.
fn interp(budget: u64) -> EngineConfig {
    EngineConfig::rasql()
        .workers(2)
        .specialized_kernels(false)
        .decomposed_plans(false)
        .memory_budget(budget)
}

fn rmat(n: usize, seed: u64) -> Relation {
    rasql_datagen::rmat(n, rasql_datagen::RmatConfig::default(), seed)
}

/// Count `rasql-spill-*` entries under the OS temp dir.
fn spill_dirs() -> usize {
    std::fs::read_dir(std::env::temp_dir())
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("rasql-spill-"))
                .count()
        })
        .unwrap_or(0)
}

/// Assert the spill-dir count settles back to `before`. Polled, because
/// sibling tests in this binary run concurrently and their *transient* spill
/// dirs are legitimate; only a directory that never goes away is a leak.
fn assert_spill_dirs_settle(before: usize) {
    for _ in 0..200 {
        if spill_dirs() <= before {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "polls the spill directory while a dropped context removes it; nothing to block on"
        )]
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!(
        "leaked spill directories: {} before, {} after 10s",
        before,
        spill_dirs()
    );
}

/// Run `sql` on a context from another thread, kill it as soon as it shows
/// up in the active set (after `delay`), and return (kill landed, outcome).
fn run_and_kill(
    ctx: &RaSqlContext,
    sql: &str,
    delay: Duration,
) -> (bool, Result<rasql_core::QueryResult, EngineError>) {
    std::thread::scope(|s| {
        let h = s.spawn(|| ctx.query(sql));
        let mut victim = None;
        for _ in 0..1_000_000 {
            if let Some(&q) = ctx.active_queries().first() {
                victim = Some(q);
                break;
            }
            std::thread::yield_now();
        }
        if !delay.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "waits out the given delay before the kill"
            )]
            std::thread::sleep(delay);
        }
        (
            victim.is_some_and(|q| ctx.kill(q)),
            h.join().expect("query thread panicked"),
        )
    })
}

#[test]
fn spilling_run_is_bit_identical_to_in_memory() {
    let before = spill_dirs();
    let edges = rmat(200, 9);
    // TC, and a final aggregate whose shuffle gathers the lane tuples of
    // TC's word clique uncombined (`count` does not combine).
    let tc = library::transitive_closure();
    let counted = tc.replace(
        "SELECT Src, Dst FROM tc",
        "SELECT Dst, count(*) FROM tc GROUP BY Dst",
    );
    for (sql, stage) in [(tc, None), (counted, Some("aggregate shuffle read"))] {
        let run = |budget: u64| {
            let ctx = interp(budget).tracing(true).build();
            ctx.register("edge", edges.clone()).unwrap();
            ctx.query(&sql).unwrap()
        };
        let unlimited = run(0);
        let governed = run(64 * 1024);
        let m = &governed.stats.metrics;
        assert!(m.spilled_bytes > 0, "64 KiB budget never forced a spill");
        assert!(m.spill_files > 0);
        assert!(m.peak_memory > 0);
        assert!(governed.stats.query_id > 0, "governed query got no id");
        if let Some(stage) = stage {
            let spills = &governed.trace.as_ref().unwrap().recovery;
            assert!(spills.iter().any(|r| r.stage == stage), "{spills:?}");
        }
        assert_eq!(
            governed.stats.iterations, unlimited.stats.iterations,
            "spilling changed the fixpoint round count"
        );
        assert_eq!(
            governed.relation.sorted().rows(),
            unlimited.relation.sorted().rows(),
            "spilled {sql} diverged from the in-memory run"
        );
    }
    assert_spill_dirs_settle(before);
}

#[test]
fn explain_analyze_reports_governance() {
    let ctx = interp(64 * 1024).build();
    ctx.register("edge", rmat(200, 9)).unwrap();
    let sql = format!("EXPLAIN ANALYZE {}", library::transitive_closure());
    let results = ctx.query_script(&sql).unwrap();
    let text: String = results
        .last()
        .unwrap()
        .relation
        .rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    assert!(text.contains("Governance:"), "{text}");
    assert!(text.contains("spilled"), "{text}");
}

#[test]
fn deadline_is_typed_and_context_serves_next_query() {
    let before = spill_dirs();
    // 3 ms of injected latency per stage makes the 100-round reachability
    // blow far past a 150 ms deadline, while a scan-and-count stays far
    // under it.
    let cfg = interp(0).query_timeout_ms(150).stage_latency_us(3000);
    let ctx = cfg.build();
    ctx.register("edge", rasql_datagen::grid(50, false, 42))
        .unwrap();
    let err = ctx.query(&library::reach(0)).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::DeadlineExceeded {
                timeout_ms: 150,
                ..
            })
        ),
        "expected a typed deadline error, got: {err}"
    );
    let next = ctx.query("SELECT count(*) FROM edge;").unwrap();
    assert_eq!(next.relation.len(), 1);
    assert_spill_dirs_settle(before);
}

#[test]
fn broadcast_over_budget_is_a_hard_typed_error() {
    // Kernels broadcast the whole CSR graph to every worker; replicas are
    // pinned, so a budget below the replicated payload cannot spill its way
    // out — it must fail with a typed MemoryExceeded.
    let cfg = EngineConfig::rasql().workers(2).memory_budget(1024);
    let ctx = cfg.build();
    ctx.register("edge", rmat(200, 9)).unwrap();
    let err = ctx.query(&library::transitive_closure()).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Exec(ExecError::MemoryExceeded { budget: 1024, .. })
        ),
        "expected a typed memory error, got: {err}"
    );
    // Shuffle-only statements under the same budget spill instead of failing.
    let next = ctx.query("SELECT count(*) FROM edge;").unwrap();
    assert_eq!(next.relation.len(), 1);
}

#[test]
fn kill_is_typed_and_rerun_is_bit_identical() {
    let before = spill_dirs();
    let cfg = interp(0).stage_latency_us(1000);
    let ctx = cfg.build();
    let edges = rasql_datagen::grid(40, false, 42);
    ctx.register("edge", edges.clone()).unwrap();
    let sql = library::reach(0);

    let (killed, outcome) = run_and_kill(&ctx, &sql, Duration::ZERO);
    assert!(killed, "victim query never appeared in the active set");
    match outcome {
        Err(EngineError::Exec(ExecError::Cancelled { query_id })) => {
            assert!(query_id > 0);
        }
        Err(other) => panic!("kill surfaced as the wrong error: {other}"),
        Ok(_) => panic!("query outran the kill — grow the grid"),
    }

    // The same context re-runs the killed query to completion, matching a
    // fresh ungoverned context bit for bit.
    let rerun = ctx.query(&sql).unwrap().relation.sorted();
    let clean_ctx = interp(0).build();
    clean_ctx.register("edge", edges).unwrap();
    let clean = clean_ctx.query(&sql).unwrap().relation.sorted();
    assert_eq!(rerun.rows(), clean.rows(), "post-kill rerun diverged");
    assert_spill_dirs_settle(before);
}

#[test]
fn admission_rejects_beyond_queue_and_queues_within_it() {
    // Cap 1, queue 0: while one query runs, the next bounces immediately.
    let cfg = interp(0)
        .stage_latency_us(2000)
        .max_concurrent_queries(1)
        .admission_queue(0);
    let ctx = cfg.build();
    ctx.register("edge", rasql_datagen::grid(40, false, 42))
        .unwrap();
    std::thread::scope(|s| {
        let h = s.spawn(|| ctx.query(&library::reach(0)));
        for _ in 0..1_000_000 {
            if ctx.running_queries() == 1 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(ctx.running_queries(), 1, "long query never started");
        let err = ctx.query("SELECT count(*) FROM edge;").unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Exec(ExecError::AdmissionRejected { running: 1, .. })
            ),
            "expected a typed admission error, got: {err}"
        );
        for id in ctx.active_queries() {
            ctx.kill(id);
        }
        let _ = h.join().expect("query thread panicked");
    });

    // Cap 1, queue 4: contending queries wait their turn and all succeed.
    let cfg = interp(0).max_concurrent_queries(1).admission_queue(4);
    let ctx = cfg.build();
    ctx.register("edge", rmat(100, 5)).unwrap();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let ctx = &ctx;
                s.spawn(move || ctx.query("SELECT count(*) FROM edge;"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    for r in results {
        assert_eq!(r.unwrap().relation.len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cancellation can land at *any* fixpoint round — on the interpreter or
    /// the CSR kernels, with or without fault injection — and must leave the
    /// context reusable, with a re-run that matches a clean context bit for
    /// bit. A kill that loses the race (query finished first) must have
    /// produced the clean answer.
    #[test]
    fn random_round_cancellation_leaves_context_reusable(
        delay_us in 0u64..30_000,
        seed in 0u64..1_000,
        kernels in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let before = spill_dirs();
        let mut cfg = EngineConfig::rasql()
            .workers(2)
            .specialized_kernels(kernels)
            .decomposed_plans(false);
        if faults {
            cfg = cfg
                .faults(Some(FaultSpec {
                    kill: 0.05,
                    delay: 0.0,
                    loss: 0.0,
                    delay_us: 0,
                    seed,
                }))
                .max_task_retries(3)
                .checkpoint_interval(2);
        }
        let ctx = cfg.build();
        let edges = rmat(150, seed);
        ctx.register("edge", edges.clone()).unwrap();
        let sql = library::cc();

        let clean_ctx = EngineConfig::rasql().workers(2).build();
        clean_ctx.register("edge", edges).unwrap();
        let clean = clean_ctx.query(&sql).unwrap().relation.sorted();

        let (_, outcome) = run_and_kill(&ctx, &sql, Duration::from_micros(delay_us));
        match outcome {
            Ok(r) => {
                let survived = r.relation.sorted();
                prop_assert_eq!(
                    survived.rows(),
                    clean.rows(),
                    "query outran the kill but returned wrong rows"
                );
            }
            Err(EngineError::Exec(ExecError::Cancelled { .. })) => {}
            Err(other) => prop_assert!(false, "wrong error after kill: {other}"),
        }

        let rerun = ctx.query(&sql).unwrap().relation.sorted();
        prop_assert_eq!(rerun.rows(), clean.rows(), "post-kill rerun diverged");
        assert_spill_dirs_settle(before);
    }
}
