//! The fixpoint round loop, pinned from outside: every strategy (semi-naive
//! combined and separate, naive, decomposed, dense kernels) must reach the
//! same rows in the same number of iterations, report its rounds the same
//! way, and honour the iteration cap by one rule.
//!
//! `golden/round_tables.txt` holds the per-round trace of every (query,
//! configuration) pair below as the commit *before* the loops were unified
//! reported it; it is not regenerated when the loop changes. The `no-fused`
//! rows were added with the word-lane tuple representation, generated at
//! *its* parent commit: that configuration always evaluates on rows, so the
//! sweep also pins words ≡ rows — same result rows, same round tables.

use rasql_core::{library, EngineConfig, EngineError, QueryResult, RaSqlContext};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

type Tables = Vec<(&'static str, Relation)>;

fn int_rel<const N: usize>(cols: [&str; N], rows: &[[i64; N]]) -> Relation {
    let schema = Schema::new(
        cols.iter()
            .map(|c| (c.to_string(), DataType::Int))
            .collect(),
    );
    let rows = rows
        .iter()
        .map(|r| Row::new(r.iter().map(|&v| Value::Int(v)).collect()))
        .collect();
    Relation::try_new(schema, rows).unwrap()
}

/// The seven queries, each over a small fixed input.
fn queries() -> Vec<(&'static str, Tables, String)> {
    let edges = rasql_datagen::rmat(64, rasql_datagen::RmatConfig::default(), 9);
    let weighted = rasql_datagen::rmat(
        64,
        rasql_datagen::RmatConfig {
            weighted: true,
            ..Default::default()
        },
        5,
    );
    // A binary tree: same-generation pairs level by level.
    let rel: Vec<[i64; 2]> = (1..48).map(|i| [i / 2, i]).collect();
    // A chain of majority holdings with minority stakes two hops ahead, so
    // control — and with it `cshares` — grows for several rounds.
    let shares: Vec<[i64; 3]> = (0..8)
        .flat_map(|i| [[i, i + 1, 60], [i, i + 2, 30]])
        .collect();
    vec![
        (
            "tc",
            vec![("edge", edges.clone())],
            library::transitive_closure(),
        ),
        ("reach", vec![("edge", edges.clone())], library::reach(1)),
        ("sssp", vec![("edge", weighted.clone())], library::sssp(1)),
        ("cc", vec![("edge", edges)], library::cc()),
        ("apsp", vec![("edge", weighted)], library::apsp()),
        (
            "same_generation",
            vec![("rel", int_rel(["Parent", "Child"], &rel))],
            library::same_generation(),
        ),
        (
            "company_control",
            vec![("shares", int_rel(["By", "Of", "Percent"], &shares))],
            library::company_control(),
        ),
    ]
}

/// The eight configurations: between them every strategy runs, with and
/// without checkpoint capture and inter-round paging, on both tuple
/// representations.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let rasql = || EngineConfig::rasql().with_workers(2);
    vec![
        ("rasql", rasql()),
        ("no-kernel", rasql().with_specialized_kernels(false)),
        ("no-combine", rasql().with_stage_combination(false)),
        ("no-decomposed", rasql().with_decomposed(false)),
        ("naive", EngineConfig::spark_sql_naive().with_workers(2)),
        ("checkpoint-1", rasql().with_checkpoint_interval(1)),
        (
            // The interpreter is what pages: kernels and decomposed plans
            // charge their state but never spill it.
            "tight-budget",
            rasql()
                .with_specialized_kernels(false)
                .with_decomposed(false)
                .with_memory_budget(32 * 1024),
        ),
        // Without fused code generation the interpreter keeps its rows (and
        // the kernels stand aside), whatever the column types.
        ("no-fused", rasql().with_fused_codegen(false)),
    ]
}

fn run(cfg: &EngineConfig, tables: &Tables, sql: &str) -> Result<QueryResult, EngineError> {
    let ctx = RaSqlContext::with_config(cfg.clone().with_tracing(true));
    for (name, rel) in tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(sql)
}

/// One run's round table: a header line per clique, then `round delta_rows
/// total_rows stages shuffle_rows shuffle_bytes` per recorded round.
fn round_table(query: &str, config: &str, result: &QueryResult) -> String {
    let mut out = String::new();
    for c in &result.trace.as_ref().expect("tracing was on").cliques {
        out.push_str(&format!(
            "# {query} / {config}: views={} mode={} kernel={} fixpoint_rounds={}\n",
            c.views.join(","),
            c.mode,
            c.kernel,
            c.fixpoint_rounds
        ));
        for it in &c.iterations {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                it.round,
                it.delta_rows,
                it.total_rows,
                it.stages,
                it.shuffle_rows,
                it.shuffle_bytes
            ));
        }
    }
    out
}

/// (a) + (b): one sweep, so every run is checked both against its siblings
/// and against the golden table.
#[test]
fn every_strategy_agrees_and_matches_the_golden_round_tables() {
    let mut actual = String::new();
    let mut spilled = 0u64;
    let mut checkpoints = 0u64;
    let (mut on_words, mut on_rows) = (0u64, 0u64);
    for (query, tables, sql) in queries() {
        let mut reference: Option<(Vec<Row>, Vec<u32>)> = None;
        for (config, cfg) in configs() {
            let result =
                run(&cfg, &tables, &sql).unwrap_or_else(|e| panic!("{query}/{config}: {e}"));
            let rows = result.relation.clone().sorted().rows().to_vec();
            let iterations = result.stats.iterations.clone();
            match &reference {
                None => reference = Some((rows, iterations)),
                Some((want_rows, want_iters)) => {
                    assert_eq!(&rows, want_rows, "{query}/{config}: rows differ");
                    assert_eq!(
                        &iterations, want_iters,
                        "{query}/{config}: iterations differ"
                    );
                }
            }
            let trace = result.trace.as_ref().expect("tracing was on");
            let mut recorded = 0u64;
            for (c, &iters) in trace.cliques.iter().zip(&result.stats.iterations) {
                assert_eq!(c.fixpoint_rounds, iters, "{query}/{config}");
                // Every recursive column of the seven queries is a number:
                // the interpreter runs them on words wherever the
                // configuration lets it, and nowhere else.
                let want = match (c.kernel.as_str(), config) {
                    ("generic", "naive" | "no-fused") => "rows",
                    ("generic", _) => "words",
                    _ => "dense",
                };
                assert_eq!(c.tuples, want, "{query}/{config}");
                for (i, it) in c.iterations.iter().enumerate() {
                    assert_eq!(it.round as usize, i + 1, "{query}/{config}: rounds skip");
                }
                recorded += c.iterations.len() as u64;
            }
            assert_eq!(
                result.stats.metrics.iterations, recorded,
                "{query}/{config}: metrics.iterations is not the recorded rounds"
            );
            assert_eq!(result.stats.metrics.lane_escapes, 0, "{query}/{config}");
            let generic = trace.cliques.iter().filter(|c| c.kernel == "generic");
            on_words += result.stats.metrics.word_cliques;
            on_rows += generic.count() as u64 - result.stats.metrics.word_cliques;
            spilled += result.stats.metrics.spilled_bytes;
            checkpoints += result.stats.metrics.checkpoints;
            actual.push_str(&round_table(query, config, &result));
        }
    }
    assert!(
        on_words > 0 && on_rows > 0,
        "{on_words} word runs, {on_rows} row runs"
    );
    assert!(spilled > 0, "the tight budget never paged anything out");
    assert!(checkpoints > 0, "checkpoint_interval = 1 never captured");

    let golden = include_str!("golden/round_tables.txt");
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "round tables differ at line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

/// (c) One cap rule: a fixpoint of `k` iterations runs under `max_iterations
/// = k` and is a typed `NonTermination` under `k - 1`, whichever strategy
/// evaluates it — the closing round that only finds nothing new is not
/// counted against the cap.
#[test]
fn the_iteration_cap_means_the_same_for_every_strategy() {
    let chain: Vec<(i64, i64)> = (0..6).map(|i| (i, i + 1)).collect();
    let edges: Tables = vec![("edge", Relation::edges(&chain))];
    let rasql = || EngineConfig::rasql().with_workers(2);
    let interp = || {
        rasql()
            .with_specialized_kernels(false)
            .with_decomposed(false)
    };
    let cases = [
        (
            "decomposed",
            "decomposed",
            rasql(),
            library::transitive_closure(),
        ),
        (
            "combined",
            "semi_naive_combined",
            interp(),
            library::transitive_closure(),
        ),
        (
            "separate",
            "semi_naive",
            interp().with_stage_combination(false),
            library::transitive_closure(),
        ),
        (
            "naive",
            "naive",
            EngineConfig::spark_sql_naive().with_workers(2),
            library::transitive_closure(),
        ),
        ("kernel", "specialized", rasql(), library::reach(0)),
    ];
    for (name, mode, cfg, sql) in cases {
        let free = run(&cfg, &edges, &sql).unwrap();
        assert_eq!(free.trace.as_ref().unwrap().cliques[0].mode, mode, "{name}");
        let k = free.stats.iterations[0];
        assert!(
            k >= 6,
            "{name}: a 7-vertex chain needs a round per hop, got {k}"
        );

        let at_cap = run(&cfg.clone().with_max_iterations(k), &edges, &sql)
            .unwrap_or_else(|e| panic!("{name}: cap = iterations must succeed, got: {e}"));
        assert_eq!(at_cap.stats.iterations, free.stats.iterations, "{name}");
        assert_eq!(
            at_cap.relation.sorted(),
            free.relation.clone().sorted(),
            "{name}"
        );

        match run(&cfg.with_max_iterations(k - 1), &edges, &sql) {
            Err(EngineError::NonTermination { iterations, .. }) => {
                assert_eq!(iterations, k - 1, "{name}: the error reports the cap");
            }
            other => panic!(
                "{name}: cap = iterations - 1 must be NonTermination, got {:?}",
                other.map(|r| r.stats.iterations)
            ),
        }
    }
}
