//! Observability tests: fixpoint iteration traces, stage spans, EXPLAIN
//! ANALYZE and the JSON export — the measurable side of the paper's §7
//! optimizations (stage combination, Fig 5; decomposed plans, Fig 6).

use rasql_core::{library, EngineConfig, QueryTrace, RaSqlContext};
use rasql_storage::Relation;

fn chain_edges(n: i64) -> Vec<(i64, i64)> {
    (0..n).map(|i| (i, i + 1)).collect()
}

fn traced_ctx(config: EngineConfig) -> RaSqlContext {
    RaSqlContext::with_config(config.with_tracing(true))
}

fn sssp_trace(config: EngineConfig) -> QueryTrace {
    let ctx = traced_ctx(config);
    let weighted: Vec<(i64, i64, f64)> =
        chain_edges(12).iter().map(|&(a, b)| (a, b, 1.0)).collect();
    ctx.register("edge", Relation::weighted_edges(&weighted))
        .unwrap();
    ctx.query(&library::sssp(0)).unwrap().trace.unwrap()
}

/// Fig 5: stage combination folds the map and reduce of each semi-naive
/// round into one stage, so the combined run needs about half the stages
/// of the ablated run over the same number of fixpoint rounds.
#[test]
fn stage_combination_halves_traced_stages() {
    let base = EngineConfig::rasql().with_workers(2).with_decomposed(false);
    let combined = sssp_trace(base.clone().with_stage_combination(true));
    let ablated = sssp_trace(base.with_stage_combination(false));

    let stages = |t: &QueryTrace| -> u64 { t.cliques[0].iterations.iter().map(|i| i.stages).sum() };
    let (c, a) = (stages(&combined), stages(&ablated));
    assert!(c > 0 && a > 0, "both runs must record stages ({c}, {a})");
    assert!(
        2 * c <= a + combined.cliques[0].iterations.len() as u64,
        "combined {c} stages should be ~half of ablated {a}"
    );
    // Same convergence either way.
    assert_eq!(
        combined.cliques[0].fixpoint_rounds,
        ablated.cliques[0].fixpoint_rounds
    );
}

/// Fig 6: a decomposable query (TC partitioned by source vertex) runs the
/// whole fixpoint inside each partition — the trace must show zero
/// per-iteration stages and shuffle, while still timing the local rounds
/// (the slowest partition's, per round).
#[test]
fn decomposed_tc_reports_zero_shuffle() {
    let ctx = traced_ctx(EngineConfig::rasql().with_workers(2).with_decomposed(true));
    // Long enough that the early rounds take well over a microsecond.
    ctx.register("edge", Relation::edges(&chain_edges(120)))
        .unwrap();
    let trace = ctx
        .query(&library::transitive_closure())
        .unwrap()
        .trace
        .unwrap();

    let clique = &trace.cliques[0];
    assert_eq!(clique.mode, "decomposed");
    assert!(!clique.iterations.is_empty());
    for iter in &clique.iterations {
        assert_eq!(iter.stages, 0, "round {}", iter.round);
        assert_eq!(iter.shuffle_rows, 0, "round {}", iter.round);
        assert_eq!(iter.shuffle_bytes, 0, "round {}", iter.round);
    }
    assert!(
        clique.iterations[0].elapsed_us > 0,
        "local rounds are timed: {:?}",
        clique.iterations[0]
    );
}

/// §7.1, map side: the aggregate shuffle pre-merges rows that share a group
/// key before the exchange. The eliminated rows are charged to the
/// `combined_rows` metric and the answer is unchanged.
#[test]
fn aggregate_shuffle_combines_map_side() {
    let ctx = traced_ctx(EngineConfig::rasql().with_workers(2));
    ctx.register("edge", Relation::edges(&chain_edges(10)))
        .unwrap();
    let result = ctx.query(&library::cc_stratified()).unwrap();
    assert!(
        result.stats.metrics.combined_rows > 0,
        "stratified min should pre-merge on the shuffle write side"
    );
    // Every node on the chain collapses to component 0.
    let rows = result.relation.sorted();
    assert_eq!(rows.len(), 11);
    for (i, r) in rows.rows().iter().enumerate() {
        assert_eq!(r[0].as_int().unwrap(), i as i64);
        assert_eq!(r[1].as_int().unwrap(), 0);
    }
}

/// Semi-naive evaluation converges: the recorded deltas end at zero and the
/// all-relation size never shrinks (rows are only ever added or improved).
#[test]
fn iteration_deltas_converge_and_totals_are_monotone() {
    let ctx = traced_ctx(EngineConfig::rasql().with_workers(2).with_decomposed(false));
    ctx.register("edge", Relation::edges(&chain_edges(8)))
        .unwrap();
    let trace = ctx.query(&library::cc()).unwrap().trace.unwrap();

    let iters = &trace.cliques[0].iterations;
    assert!(iters.len() >= 2, "chain CC needs several rounds");
    assert_eq!(
        iters.last().unwrap().delta_rows,
        0,
        "final round must be the empty-delta closing round"
    );
    assert!(iters[0].delta_rows > 0, "first round seeds the delta");
    for pair in iters.windows(2) {
        assert!(
            pair[1].total_rows >= pair[0].total_rows,
            "all-relation size shrank between rounds {} and {}",
            pair[0].round,
            pair[1].round
        );
    }
}

/// The trace JSON export round-trips losslessly through the hand-rolled
/// parser.
#[test]
fn trace_json_round_trips() {
    let trace = sssp_trace(EngineConfig::rasql().with_workers(2));
    let json = trace.to_json();
    let back = QueryTrace::from_json(&json).unwrap();
    assert_eq!(back, trace);
    // And the rendered forms agree too.
    assert_eq!(back.render(), trace.render());
}

/// `EXPLAIN ANALYZE` executes the statement and annotates the plan with
/// live row counts plus the per-iteration fixpoint table.
#[test]
fn explain_analyze_annotates_plan_and_iterations() {
    let ctx = RaSqlContext::with_config(EngineConfig::rasql().with_workers(2));
    ctx.register("edge", Relation::edges(&chain_edges(6)))
        .unwrap();
    let result = ctx
        .query(&format!(
            "EXPLAIN ANALYZE {}",
            library::transitive_closure()
        ))
        .unwrap();

    let text: Vec<String> = result
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    let text = text.join("\n");
    assert!(
        text.contains("rows="),
        "plan lines carry live counters:\n{text}"
    );
    assert!(
        text.contains("iter"),
        "per-iteration table present:\n{text}"
    );
    assert!(text.contains("Totals:"), "footer present:\n{text}");
    // EXPLAIN ANALYZE always traces, even though the context default is off.
    let trace = result.trace.unwrap();
    assert!(!trace.operators.is_empty(), "operator counters recorded");
    assert!(!trace.cliques.is_empty(), "fixpoint clique recorded");
}

/// Session tracing does not switch the result cache off: the second identical
/// statement is a hit whose trace says so, while `EXPLAIN ANALYZE` — which
/// exists to execute — still runs the fixpoint.
#[test]
fn traced_statements_are_served_from_the_result_cache() {
    let ctx = RaSqlContext::builder()
        .workers(2)
        .tracing(true)
        .result_cache(8)
        .build();
    ctx.register("edge", Relation::edges(&chain_edges(6)))
        .unwrap();
    let sql = library::transitive_closure();
    let miss = ctx.query(&sql).unwrap();
    let hit = ctx.query(&sql).unwrap();
    assert!(!miss.stats.cached && hit.stats.cached);
    assert_eq!(hit.relation.sorted(), miss.relation.sorted());
    assert_eq!(hit.stats.iterations, miss.stats.iterations);
    let (ran, served) = (miss.trace.unwrap(), hit.trace.unwrap());
    assert!(!ran.cached && !ran.cliques.is_empty());
    assert!(served.cached && served.cliques.is_empty() && served.stages.is_empty());
    assert!(served.render().contains("cached"), "{}", served.render());
    assert_eq!(QueryTrace::from_json(&served.to_json()).unwrap(), served);

    let analyzed = ctx.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let trace = analyzed.trace.unwrap();
    assert!(!analyzed.stats.cached && !trace.cached);
    assert_eq!(
        trace.cliques[0].iterations.len(),
        ran.cliques[0].iterations.len()
    );
}

/// Plain `EXPLAIN` renders the plan without executing anything.
#[test]
fn plain_explain_does_not_execute() {
    let ctx = RaSqlContext::with_config(EngineConfig::rasql().with_workers(2));
    ctx.register("edge", Relation::edges(&chain_edges(6)))
        .unwrap();
    let result = ctx
        .query(&format!("EXPLAIN {}", library::transitive_closure()))
        .unwrap();
    assert!(result.trace.is_none(), "no execution, no trace");
    assert!(!result.relation.is_empty(), "plan text rendered");
    assert_eq!(result.stats.iterations, Vec::<u32>::new());
}

/// The builder wires every knob through to the running context.
#[test]
fn builder_configures_tracing_and_workers() {
    let ctx = RaSqlContext::builder()
        .workers(3)
        .stage_combination(true)
        .tracing(true)
        .build();
    ctx.register("edge", Relation::edges(&chain_edges(5)))
        .unwrap();
    let result = ctx.query(&library::reach(0)).unwrap();
    assert!(result.trace.is_some(), "builder enabled tracing");
    assert_eq!(result.relation.len(), 6, "source plus 5 reachable nodes");

    // Tracing can be flipped at runtime without rebuilding the context.
    ctx.set_tracing(false);
    assert!(ctx.query(&library::reach(0)).unwrap().trace.is_none());
}

/// `query()` is the single result path: rows and stats travel in one value
/// (the old `sql()`/`last_stats()` side channel is gone).
#[test]
fn query_carries_rows_and_stats_together() {
    let ctx = RaSqlContext::with_config(EngineConfig::rasql().with_workers(2));
    ctx.register("edge", Relation::edges(&chain_edges(6)))
        .unwrap();
    let result = ctx.query(&library::transitive_closure()).unwrap();
    assert_eq!(result.relation.len(), 21, "6-chain closure");
    assert!(!result.stats.iterations.is_empty());
    assert!(result.stats.query_id > 0);
}

/// `(round, delta_rows, total_rows, shuffle_rows)` of one kernel fixpoint.
type Rounds = [(u32, u64, u64, u64)];

/// A kernel query stays dense from seed to result, and the trace shows it:
/// the base case is at most one `kernel seeds` stage (none for a constant
/// source), the graph is broadcast exactly once, and every round is one
/// `fixpoint kernel` stage. The rounds themselves — numbers, delta and state
/// sizes — are those of the engine before the seeds were typed and the scan
/// combined map-side (Algorithm 5), recorded here with its shuffle volume,
/// which no round may exceed.
#[test]
fn kernel_queries_pin_their_stages_and_rounds() {
    let plain = rasql_datagen::rmat(200, rasql_datagen::RmatConfig::default(), 9);
    let weighted_config = rasql_datagen::RmatConfig {
        weighted: true,
        ..Default::default()
    };
    let weighted = rasql_datagen::rmat(200, weighted_config, 5);
    let forward = weighted
        .rows()
        .iter()
        .filter(|r| r[0].as_int().unwrap() < r[1].as_int().unwrap())
        .cloned()
        .collect();
    let dag = Relation::try_new(weighted.schema().clone(), forward).unwrap();

    let cases: [(&str, Relation, String, usize, &Rounds); 4] = [
        (
            "csr_min_i64",
            plain.clone(),
            library::cc(),
            1,
            &[
                (1, 182, 182, 1002),
                (2, 195, 200, 938),
                (3, 114, 200, 346),
                (4, 6, 200, 7),
                (5, 0, 200, 0),
            ],
        ),
        (
            "csr_min_f64",
            weighted,
            library::sssp(1),
            0,
            &[
                (1, 1, 1, 21),
                (2, 44, 45, 272),
                (3, 151, 173, 767),
                (4, 133, 199, 555),
                (5, 85, 199, 376),
                (6, 44, 199, 206),
                (7, 21, 199, 60),
                (8, 5, 199, 18),
                (9, 0, 199, 0),
            ],
        ),
        (
            "csr_set",
            plain,
            library::reach(1),
            0,
            &[
                (1, 1, 1, 27),
                (2, 46, 47, 370),
                (3, 136, 183, 583),
                (4, 16, 199, 21),
                (5, 0, 199, 0),
            ],
        ),
        (
            "csr_sum_i64",
            dag,
            library::count_paths(1),
            0,
            &[
                (1, 1, 1, 21),
                (2, 44, 45, 144),
                (3, 140, 158, 313),
                (4, 173, 189, 310),
                (5, 176, 190, 314),
                (6, 172, 190, 274),
                (7, 161, 190, 222),
                (8, 150, 190, 188),
                (9, 137, 190, 164),
                (10, 125, 190, 137),
                (11, 109, 190, 98),
                (12, 89, 190, 86),
                (13, 85, 190, 72),
                (14, 77, 190, 46),
                (15, 54, 190, 23),
                (16, 34, 190, 13),
                (17, 25, 190, 8),
                (18, 19, 190, 3),
                (19, 9, 190, 0),
                (20, 2, 190, 0),
                (21, 1, 190, 0),
                (22, 0, 190, 0),
            ],
        ),
    ];
    for (kernel, edges, sql, seed_stages, parent) in cases {
        let ctx = traced_ctx(EngineConfig::rasql().with_workers(2));
        ctx.register("edge", edges).unwrap();
        let trace = ctx.query(&sql).unwrap().trace.unwrap();
        let clique = &trace.cliques[0];
        assert_eq!(clique.kernel, kernel);

        let mut want = vec!["kernel seeds"; seed_stages];
        want.push("broadcast build");
        want.extend(std::iter::repeat_n(
            "fixpoint kernel",
            clique.iterations.len(),
        ));
        let got: Vec<&str> = trace.stages.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(got, want, "{kernel}");

        assert_eq!(clique.iterations.len(), parent.len(), "{kernel}");
        for (it, &(round, delta_rows, total_rows, shuffle_rows)) in
            clique.iterations.iter().zip(parent)
        {
            assert_eq!(
                (it.round, it.delta_rows, it.total_rows),
                (round, delta_rows, total_rows),
                "{kernel}"
            );
            assert!(
                it.shuffle_rows <= shuffle_rows,
                "{kernel} round {round}: {} rows shuffled, {shuffle_rows} before",
                it.shuffle_rows
            );
        }
    }

    // The seed stage is part of what EXPLAIN ANALYZE prints.
    let ctx = RaSqlContext::with_config(EngineConfig::rasql().with_workers(2));
    ctx.register("edge", Relation::edges(&chain_edges(6)))
        .unwrap();
    let analyzed = ctx
        .query(&format!("EXPLAIN ANALYZE {}", library::cc()))
        .unwrap();
    let text: Vec<&str> = analyzed
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_str().unwrap())
        .collect();
    assert!(
        text.iter().any(|line| line.contains("kernel seeds")),
        "{text:#?}"
    );
}

/// A traced incremental `REFRESH` carries its trace: the resumed clique's
/// rounds as `QueryStats` counts them, and a `refresh seed` line that read
/// no more driver tuples than the delta has join keys — the warm tuples it
/// joins, found by key, not the whole view.
#[test]
fn a_traced_refresh_shows_its_seed_and_its_rounds() {
    let ctx = traced_ctx(EngineConfig::rasql().with_workers(2));
    let weighted: Vec<(i64, i64, f64)> = (0..40).map(|i| (i, i + 1, 1.0)).collect();
    ctx.register("edge", Relation::weighted_edges(&weighted))
        .unwrap();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW sp AS {}",
        library::sssp(0)
    ))
    .unwrap();
    let delta = [(3, 50, 0.5), (3, 51, 0.5), (7, 52, 0.5), (99, 53, 0.5)];
    let values: Vec<String> = delta
        .iter()
        .map(|(a, b, c)| format!("({a}, {b}, {c})"))
        .collect();
    ctx.query(&format!("INSERT INTO edge VALUES {}", values.join(", ")))
        .unwrap();
    let result = ctx.query("REFRESH MATERIALIZED VIEW sp").unwrap();
    assert_eq!(ctx.mat_view("sp").unwrap().last_refresh, "incremental");
    let trace = result.trace.expect("a traced refresh carries its trace");
    let line = |label: &str| {
        let found = trace.operators.iter().find(|o| o.label == label);
        found.unwrap_or_else(|| panic!("no `{label}` line in {:?}", trace.operators))
    };
    let keys = 3; // sources 3, 7 and 99; 99 reaches no warm tuple
    let seed = line("refresh seed path");
    assert!(
        seed.rows <= keys,
        "the seed read {} driver tuples",
        seed.rows
    );
    assert_eq!(seed.rows, 2, "the warm tuples under keys 3 and 7");
    // Three new groups (53 hangs off an unreached vertex), no other row.
    assert_eq!(line("refresh table sp").rows, 3);
    let [clique] = &trace.cliques[..] else {
        panic!("one resumed clique: {:?}", trace.cliques);
    };
    assert_eq!(vec![clique.fixpoint_rounds], result.stats.iterations);
    assert_eq!(clique.iterations.len() as u32, clique.fixpoint_rounds);
    assert!(!trace.stages.is_empty(), "the resumed rounds' stage spans");
}
