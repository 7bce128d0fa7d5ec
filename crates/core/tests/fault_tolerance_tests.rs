//! Fault-tolerance integration tests.
//!
//! Two properties the subsystem must hold end to end:
//!
//! 1. **Fault identity** — with deterministic fault injection enabled (fixed
//!    seed, non-zero kill probability) the recursive-aggregate example
//!    queries return results identical to a fault-free run: retries and
//!    checkpoint restores are invisible in the answer.
//! 2. **Forward recovery** — when the retry budget is zero and checkpointing
//!    is on, a lost stage makes the fixpoint resume from the *last
//!    checkpointed round* (trace-verified: a `Restore` recovery event with
//!    `round >= 1`), not from round 0.

use rasql_core::{library, EngineConfig};
use rasql_exec::{FaultSpec, RecoveryKind};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn run_query(cfg: EngineConfig, tables: &[(&str, Relation)], sql: &str) -> rasql_core::QueryResult {
    let ctx = cfg.workers(2).build();
    for (name, rel) in tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(sql).unwrap()
}

/// The Mumick company-control example (a owns 60% of b; a's direct 25% of c
/// plus controlled-b's 30% give a control of c).
fn shares_fixture() -> Relation {
    Relation::try_new(
        Schema::new(vec![
            ("By", DataType::Str),
            ("Of", DataType::Str),
            ("Percent", DataType::Int),
        ]),
        vec![
            Row::new(vec![Value::from("a"), Value::from("b"), Value::Int(60)]),
            Row::new(vec![Value::from("b"), Value::from("c"), Value::Int(30)]),
            Row::new(vec![Value::from("a"), Value::from("c"), Value::Int(25)]),
        ],
    )
    .unwrap()
}

#[test]
fn faulted_runs_match_fault_free_results() {
    let tc_edges = rasql_datagen::rmat(200, rasql_datagen::RmatConfig::default(), 9);
    let weighted = rasql_datagen::rmat(
        300,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        5,
    );
    let tree = rasql_datagen::tree_hierarchy(
        rasql_datagen::TreeConfig {
            target_nodes: 300,
            ..Default::default()
        },
        17,
    );
    type Case = (&'static str, Vec<(&'static str, Relation)>, String);
    let cases: Vec<Case> = vec![
        (
            "tc",
            vec![("edge", tc_edges.clone())],
            library::transitive_closure(),
        ),
        ("sssp", vec![("edge", weighted)], library::sssp(1)),
        ("cc", vec![("edge", tc_edges)], library::cc()),
        (
            "company-control",
            vec![("shares", shares_fixture())],
            library::company_control(),
        ),
        (
            "bom",
            vec![("assbl", tree.assbl), ("basic", tree.basic)],
            library::bom_delivery(),
        ),
    ];

    let mut injected = 0u64;
    for (i, (name, tables, sql)) in cases.into_iter().enumerate() {
        let clean = run_query(EngineConfig::rasql(), &tables, &sql)
            .relation
            .sorted();
        // High enough to fire on the handful of tasks these small inputs
        // run, low enough that the 3-retry budget absorbs every failure
        // (verified by the assertions below — the schedule is a pure
        // function of the seed). Each case gets its own seed: every fresh
        // cluster counts stages from zero, so a shared seed would replay
        // the same handful of draws five times over.
        let spec = FaultSpec {
            kill: 0.15,
            delay: 0.1,
            loss: 0.05,
            delay_us: 50,
            seed: 1000 + 37 * i as u64,
        };
        let faulted_cfg = EngineConfig::rasql()
            .faults(Some(spec))
            .max_task_retries(3)
            .checkpoint_interval(3);
        let result = run_query(faulted_cfg, &tables, &sql);
        assert_eq!(
            result.relation.sorted().rows(),
            clean.rows(),
            "faulted run diverged from the fault-free result for {name}"
        );
        injected += result.stats.metrics.task_failures;
    }
    // The identity check is vacuous if the spec never fired.
    assert!(injected > 0, "no faults were injected across any case");
}

#[test]
fn restore_resumes_from_last_checkpointed_round() {
    // A chain graph gives the TC fixpoint many rounds, so checkpoints exist
    // at several boundaries before any failure.
    let chain: Vec<(i64, i64)> = (0..9).map(|i| (i, i + 1)).collect();
    let edges = Relation::edges(&chain);
    let clean = {
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("edge", edges.clone()).unwrap();
        ctx.query(&library::transitive_closure())
            .unwrap()
            .relation
            .sorted()
    };

    // With a zero retry budget every injected kill is an unrecoverable stage
    // loss, forcing the checkpoint/restore path. The fault schedule is a pure
    // function of the seed; scan a fixed seed range for one whose failures
    // land inside the fixpoint loop (seeds whose kills land in non-fixpoint
    // stages abort the query instead — those runs are skipped). The scan is
    // deterministic: the same seed always yields the same schedule.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut witnessed = None;
    for seed in 0..50u64 {
        let cfg = EngineConfig::rasql()
            .decomposed_plans(false) // exercise the global round loop
            .faults(Some(FaultSpec {
                kill: 0.12,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            }))
            .max_task_retries(0)
            .checkpoint_interval(1)
            .tracing(true)
            .workers(2);
        let ctx = cfg.build();
        ctx.register("edge", edges.clone()).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.query(&library::transitive_closure())
        }));
        let Ok(Ok(result)) = outcome else { continue };
        let trace = result.trace.as_ref().expect("tracing was enabled");
        let restored_rounds: Vec<u32> = trace
            .recovery
            .iter()
            .filter(|e| e.kind == RecoveryKind::Restore)
            .map(|e| e.round)
            .collect();
        if restored_rounds.iter().any(|&r| r >= 1) {
            assert_eq!(
                result.relation.sorted().rows(),
                clean.rows(),
                "restored run diverged from the fault-free result (seed {seed})"
            );
            assert!(
                result.stats.metrics.restores >= 1,
                "restore metric not counted (seed {seed})"
            );
            assert!(
                result.stats.metrics.checkpoints >= 1,
                "checkpoint metric not counted (seed {seed})"
            );
            witnessed = Some((seed, restored_rounds));
            break;
        }
    }
    std::panic::set_hook(prev_hook);
    let (_, rounds) = witnessed.expect(
        "no seed in 0..50 produced a mid-fixpoint restore; \
         the checkpoint/restore path never ran",
    );
    assert!(
        rounds.iter().any(|&r| r >= 1),
        "restore resumed from round 0, not the last checkpointed round"
    );
}

#[test]
fn checkpointing_off_is_byte_for_byte_identical() {
    // checkpoint_interval > 0 must not perturb results even without faults.
    let edges = rasql_datagen::rmat(150, rasql_datagen::RmatConfig::default(), 3);
    let base = run_query(
        EngineConfig::rasql().decomposed_plans(false),
        &[("edge", edges.clone())],
        &library::transitive_closure(),
    )
    .relation
    .sorted();
    let checked = run_query(
        EngineConfig::rasql()
            .decomposed_plans(false)
            .checkpoint_interval(2),
        &[("edge", edges)],
        &library::transitive_closure(),
    );
    assert_eq!(checked.relation.sorted().rows(), base.rows());
    assert!(checked.stats.metrics.checkpoints >= 1);
}

/// The kernels recover by reset-and-rerun: with a zero retry budget a killed
/// task loses its `fixpoint kernel` stage — some partitions merged their
/// share of the `[src][dst]` exchange, the rest did not, and the round's
/// outputs are gone — so the dense state is wiped and the loop restarts from
/// the immutable base items. The rerun must land on the fault-free answer.
#[test]
fn lost_kernel_stage_resets_and_reruns_to_the_fault_free_answer() {
    let edges = rasql_datagen::rmat(200, rasql_datagen::RmatConfig::default(), 9);
    let clean = run_query(
        EngineConfig::rasql(),
        &[("edge", edges.clone())],
        &library::cc(),
    );
    let clean_rows = clean.relation.clone().sorted();

    // The schedule is a pure function of the seed: scan a fixed range for
    // seeds whose kills land inside the kernel's round loop, after round 1
    // (a kill in the seed or broadcast stage aborts the query instead).
    let mut mid_fixpoint_reruns = 0;
    for seed in 0..60u64 {
        let cfg = EngineConfig::rasql()
            .faults(Some(FaultSpec {
                kill: 0.1,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            }))
            .max_task_retries(0)
            .checkpoint_interval(1)
            .tracing(true)
            .workers(2);
        let ctx = cfg.build();
        ctx.register("edge", edges.clone()).unwrap();
        let Ok(result) = ctx.query(&library::cc()) else {
            continue;
        };
        let trace = result.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.cliques[0].kernel, "csr_min_i64");
        let resets = trace
            .recovery
            .iter()
            .filter(|e| e.kind == RecoveryKind::Restore && e.detail.contains("kernel state reset"))
            .count();
        if resets == 0 {
            continue;
        }
        assert_eq!(
            result.relation.sorted().rows(),
            clean_rows.rows(),
            "rerun diverged from the fault-free result (seed {seed})"
        );
        assert_eq!(result.stats.iterations, clean.stats.iterations);
        assert_eq!(result.stats.metrics.restores as usize, resets);
        // A lost round records no iteration and the rerun counts from 1
        // again, so a stage lost after round 1 shows as a second round 1.
        let rounds = trace.cliques[0].iterations.iter().map(|i| i.round);
        if rounds.skip(1).any(|r| r == 1) {
            mid_fixpoint_reruns += 1;
        }
    }
    assert!(
        mid_fixpoint_reruns > 0,
        "no seed in 0..60 lost a kernel stage after round 1; the rerun path never ran mid-fixpoint"
    );
}

/// Naive evaluation recovers the way every cut-less strategy does under the
/// one round loop: its only cut is the base, so a lost stage forgets the
/// previous round's state and reruns from round 1 to the fault-free answer.
#[test]
fn lost_naive_stage_reruns_to_the_fault_free_answer() {
    let edges = rasql_datagen::rmat(60, rasql_datagen::RmatConfig::default(), 9);
    let clean = run_query(
        EngineConfig::spark_sql_naive(),
        &[("edge", edges.clone())],
        &library::transitive_closure(),
    );
    let clean_rows = clean.relation.clone().sorted();

    let mut reruns = 0;
    for seed in 0..60u64 {
        let cfg = EngineConfig::spark_sql_naive()
            .faults(Some(FaultSpec {
                kill: 0.1,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            }))
            .max_task_retries(0)
            .checkpoint_interval(1)
            .tracing(true)
            .workers(2);
        let ctx = cfg.build();
        ctx.register("edge", edges.clone()).unwrap();
        // A kill outside the round loop (the base case, the final plan)
        // still fails the query.
        let Ok(result) = ctx.query(&library::transitive_closure()) else {
            continue;
        };
        let trace = result.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.cliques[0].mode, "naive");
        let restores = trace
            .recovery
            .iter()
            .filter(|e| e.kind == RecoveryKind::Restore)
            .count();
        if restores == 0 {
            continue;
        }
        assert_eq!(
            result.relation.sorted().rows(),
            clean_rows.rows(),
            "rerun diverged from the fault-free result (seed {seed})"
        );
        assert_eq!(result.stats.iterations, clean.stats.iterations);
        assert_eq!(result.stats.metrics.restores as usize, restores);
        reruns += 1;
    }
    assert!(reruns > 0, "no seed in 0..60 lost a naive map stage");
}

/// A task killed in a pull round — one that publishes its delta, or gathers
/// the last round's — is recovered like any other: with `checkpoint_interval(1)`
/// and no retries the stage is lost, the dense state and both snapshot
/// buffers are reset and the loop reruns from the base; with retries and no
/// checkpoints the task is re-dispatched. Either way the answer, the round
/// count and the last run's per-round deltas are the fault-free run's.
#[test]
fn a_task_killed_in_a_pull_round_recovers_to_the_fault_free_answer() {
    let edges = rasql_datagen::rmat(
        400,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        3,
    );
    let tables = [("edge", edges)];
    let sql = library::sssp(0);
    let traced = |cfg: EngineConfig| {
        let ctx = cfg.tracing(true).workers(2).build();
        ctx.register("edge", tables[0].1.clone()).unwrap();
        ctx.query(&sql)
    };
    let clean = traced(EngineConfig::rasql()).unwrap();
    let clean_rows = clean.relation.clone().sorted();
    let pulled: Vec<bool> = (clean.trace.as_ref().unwrap().cliques[0].iterations.iter())
        .map(|it| it.pull)
        .collect();
    assert!(pulled.iter().any(|&p| p), "{pulled:?}");
    let deltas = |iterations: &[rasql_exec::IterationTrace]| -> Vec<(u32, u64, u64)> {
        (iterations.iter())
            .map(|it| (it.round, it.delta_rows, it.total_rows))
            .collect()
    };
    let clean_deltas = deltas(&clean.trace.as_ref().unwrap().cliques[0].iterations);
    // Round `r` (1-based) pulls when it publishes or gathers.
    let in_pull_round = |r: usize| pulled[r - 1] || (r > 1 && pulled[r - 2]);

    for checkpointed in [true, false] {
        let mut killed_in_pull_rounds = 0;
        for seed in 0..80u64 {
            let faults = Some(FaultSpec {
                kill: 0.1,
                delay: 0.0,
                loss: 0.0,
                delay_us: 0,
                seed,
            });
            let cfg = if checkpointed {
                (EngineConfig::rasql().faults(faults))
                    .max_task_retries(0)
                    .checkpoint_interval(1)
            } else {
                EngineConfig::rasql().faults(faults)
            };
            // A kill outside the round loop fails the query without retries.
            let Ok(result) = traced(cfg) else {
                continue;
            };
            let trace = result.trace.as_ref().unwrap();
            assert_eq!(trace.cliques[0].kernel, "csr_min_f64");
            assert_eq!(
                result.relation.clone().sorted().rows(),
                clean_rows.rows(),
                "seed {seed}"
            );
            assert_eq!(
                result.stats.iterations, clean.stats.iterations,
                "seed {seed}"
            );
            // The rounds a kill landed in: a lost round records no iteration
            // (the rerun counts from 1 again); a retried task's stage took
            // more attempts than it has tasks.
            let rounds: Vec<usize> = trace.cliques[0]
                .iterations
                .iter()
                .map(|i| i.round as usize)
                .collect();
            let mut hit: Vec<usize> = (rounds.windows(2))
                .filter(|w| w[1] <= w[0])
                .map(|w| w[0] + 1)
                .collect();
            let kernel_stages = trace.stages.iter().filter(|s| s.label == "fixpoint kernel");
            hit.extend(
                (kernel_stages.enumerate())
                    .filter(|(_, s)| s.attempts > s.tasks)
                    .map(|(i, _)| i + 1)
                    .filter(|_| !checkpointed),
            );
            // The last run from the base — every round after the last restart
            // — has the fault-free run's deltas: a stale snapshot value would
            // reach a vertex a round early.
            let iterations = &trace.cliques[0].iterations;
            let last = iterations.iter().rposition(|it| it.round == 1).unwrap();
            assert_eq!(deltas(&iterations[last..]), clean_deltas, "seed {seed}");
            if hit.iter().any(|&r| r <= pulled.len() && in_pull_round(r)) {
                killed_in_pull_rounds += 1;
            }
        }
        assert!(
            killed_in_pull_rounds > 0,
            "no seed in 0..80 killed a task in a pull round (checkpointed: {checkpointed})"
        );
    }
}
