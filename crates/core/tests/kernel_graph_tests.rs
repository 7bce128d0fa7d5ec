//! The kernels' CSR graph. A kernel whose base case is its edge relation
//! projected onto the source column — CC's `SELECT Src, Src FROM edge` —
//! reads its seeds off the graph it fetched instead of folding the edge
//! rows. These tests hold that path to an outside oracle, `rasql_gap`'s
//! single-threaded CC label propagation, which shares nothing with the
//! engine; and they hold base cases of other shapes, which keep the row
//! fold, to a propagation written in this file. The kernels that promote an
//! `Int` weight and those that do not share one forward graph.

use proptest::prelude::*;
use rasql_core::{library, EngineConfig, QueryResult, RaSqlContext};
use rasql_exec::FaultSpec;
use rasql_gap::algorithms::cc_rasql_oracle;
use rasql_storage::{FxHashMap, Relation, Row, Value};

/// Far ids: past `u32` and not dense, so hash partitions and the graph's
/// dense ids differ from the original ids.
const FAR: i64 = 1 << 40;

/// Edge lists with a self-loop and a duplicate edge, whose sources come from
/// 6..16 and destinations from 0..16, so vertices 0..6 are destinations only
/// — with smaller ids than any label a source carries — and, half the time,
/// every id moved by 2^40.
fn graph() -> impl Strategy<Value = Vec<(i64, i64)>> {
    let pairs = prop::collection::vec((6i64..16, 0i64..16), 1..40);
    (pairs, any::<bool>()).prop_map(|(mut pairs, far)| {
        let (s, d) = pairs[0];
        pairs.extend([(s, d), (s, s)]);
        let shift = if far { FAR } else { 0 };
        pairs.iter().map(|&(s, d)| (s + shift, d + shift)).collect()
    })
}

/// Two workers, traced; `kill` of the tasks killed, checkpointing every
/// round or never.
fn config(kill: f64, checkpoint: bool, seed: u64) -> EngineConfig {
    let faults = (kill > 0.0).then(|| FaultSpec {
        kill,
        seed,
        ..FaultSpec::default()
    });
    EngineConfig::rasql()
        .workers(2)
        .tracing(true)
        .faults(faults)
        .checkpoint_interval(u32::from(checkpoint))
}

fn pairs(r: &QueryResult) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = (r.relation.rows().iter())
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    out.sort_unstable();
    out
}

fn sorted(labels: FxHashMap<i64, i64>) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = labels.into_iter().collect();
    out.sort_unstable();
    out
}

fn distinct_labels(labels: &[(i64, i64)]) -> i64 {
    let mut ids: Vec<i64> = labels.iter().map(|&(_, l)| l).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as i64
}

/// The statement ran on the `min` kernel, with one `kernel seeds` stage.
fn assert_kernel(r: &QueryResult) {
    let trace = r.trace.as_ref().unwrap();
    assert_eq!(trace.cliques[0].kernel, "csr_min_i64");
    let seeds = (trace.stages.iter())
        .filter(|s| s.label == "kernel seeds")
        .count();
    assert_eq!(seeds, 1);
}

/// `library::cc()` and `library::cc_count()` on a context over `edges`
/// answer what the oracle computes from `edges`.
fn assert_cc(ctx: &RaSqlContext, edges: &[(i64, i64)]) -> Result<(), TestCaseError> {
    let want = sorted(cc_rasql_oracle(&Relation::edges(edges)));
    let cc = ctx.query(&library::cc()).unwrap();
    assert_kernel(&cc);
    prop_assert_eq!(pairs(&cc), want);
    let count = ctx.query(&library::cc_count()).unwrap();
    assert_kernel(&count);
    prop_assert_eq!(
        &count.relation.rows()[0][0],
        &Value::Int(distinct_labels(&want))
    );
    Ok(())
}

/// Label propagation from arbitrary seeds: each vertex takes the least label
/// any seed or in-neighbour gives it.
fn propagate(seeds: &[(i64, i64)], edges: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut labels: FxHashMap<i64, i64> = FxHashMap::default();
    for &(v, l) in seeds {
        let at = labels.entry(v).or_insert(l);
        *at = (*at).min(l);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, d) in edges {
            let Some(&l) = labels.get(&s) else { continue };
            if labels.get(&d).is_none_or(|&c| l < c) {
                labels.insert(d, l);
                changed = true;
            }
        }
    }
    sorted(labels)
}

/// CC with the base case `base`.
fn cc_with_base(base: &str) -> String {
    format!(
        "WITH recursive cc (Src, min() AS CmpId) AS {base} UNION \
           (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src) \
         SELECT Src, CmpId FROM cc"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cc_read_off_the_graph_is_the_oracle(edges in graph()) {
        let ctx = config(0.0, false, 0).build();
        ctx.register("edge", Relation::edges(&edges)).unwrap();
        assert_cc(&ctx, &edges)?;
    }

    /// After an `INSERT`, the kernel reads its seeds off the store's graph
    /// advanced by the new edges — new sources, new destination-only
    /// vertices — and the answer is the oracle's over every edge.
    #[test]
    fn cc_after_an_insert_reads_the_advanced_graph(
        edges in graph(),
        more in prop::collection::vec((0i64..24, 0i64..24), 1..10),
    ) {
        let ctx = config(0.0, false, 0).build();
        ctx.register("edge", Relation::edges(&edges)).unwrap();
        assert_cc(&ctx, &edges)?;
        let values: Vec<String> = more.iter().map(|(s, d)| format!("({s}, {d})")).collect();
        ctx.query(&format!("INSERT INTO edge VALUES {}", values.join(", "))).unwrap();
        let before = ctx.index_stats();
        let all: Vec<(i64, i64)> = edges.iter().chain(&more).copied().collect();
        assert_cc(&ctx, &all)?;
        prop_assert!(ctx.index_stats().advances > before.advances);
    }

    /// Killed seed and round tasks rerun, with or without a checkpoint
    /// every round; the answer does not move.
    #[test]
    fn cc_read_off_the_graph_survives_task_kills(
        edges in graph(),
        checkpoint in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = config(0.05, checkpoint, seed).build();
        ctx.register("edge", Relation::edges(&edges)).unwrap();
        assert_cc(&ctx, &edges)?;
    }

    /// Base cases that are not the graph's sources labelled by themselves
    /// keep the row fold: a filtered base, a destination-keyed one, one
    /// valued by another column, two base branches, and a computed value.
    /// Each answers what propagating its own seeds computes, as the
    /// interpreter does.
    #[test]
    fn other_base_shapes_keep_the_row_fold(edges in graph(), k in 6i64..16) {
        let k = k + if edges[0].0 >= FAR { FAR } else { 0 };
        let by = |f: fn(i64, i64) -> (i64, i64)| -> Vec<(i64, i64)> {
            edges.iter().map(|&(s, d)| f(s, d)).collect()
        };
        let cases: Vec<(String, Vec<(i64, i64)>)> = vec![
            (
                format!("(SELECT Src, Src FROM edge WHERE Src > {k})"),
                edges.iter().filter(|e| e.0 > k).map(|&(s, _)| (s, s)).collect(),
            ),
            ("(SELECT Dst, Dst FROM edge)".into(), by(|_, d| (d, d))),
            ("(SELECT Src, Dst FROM edge)".into(), by(|s, d| (s, d))),
            (
                "(SELECT Src, Src FROM edge) UNION (SELECT Dst, Dst FROM edge)".into(),
                by(|s, _| (s, s)).into_iter().chain(by(|_, d| (d, d))).collect(),
            ),
            ("(SELECT Src, Src + 0 FROM edge)".into(), by(|s, _| (s, s))),
        ];
        let interpreter = EngineConfig::rasql().workers(2).specialized_kernels(false).build();
        interpreter.register("edge", Relation::edges(&edges)).unwrap();
        let ctx = config(0.0, false, 0).build();
        ctx.register("edge", Relation::edges(&edges)).unwrap();
        for (base, seeds) in cases {
            let sql = cc_with_base(&base);
            let got = ctx.query(&sql).unwrap();
            prop_assert_eq!(&got.trace.as_ref().unwrap().cliques[0].kernel, "csr_min_i64");
            let want = propagate(&seeds, &edges);
            prop_assert_eq!(&pairs(&got), &want, "{}", base);
            prop_assert_eq!(pairs(&interpreter.query(&sql).unwrap()), want, "{}", base);
        }
    }
}

/// The weighted RMAT-200 graph, and the same with one weight an `Int`.
fn weighted() -> (Relation, Relation) {
    let config = rasql_datagen::RmatConfig {
        weighted: true,
        ..Default::default()
    };
    let doubles = rasql_datagen::rmat(200, config, 5);
    let mut rows = doubles.rows().to_vec();
    let w = rows[0][2].as_f64().unwrap().round() as i64;
    rows[0] = Row::new(vec![rows[0][0].clone(), rows[0][1].clone(), Value::Int(w)]);
    let one_int = Relation::try_new(doubles.schema().clone(), rows).unwrap();
    (doubles, one_int)
}

fn answer(config: EngineConfig, edges: &Relation, sql: &str) -> QueryResult {
    let ctx = config.workers(2).tracing(true).build();
    ctx.register("edge", edges.clone()).unwrap();
    ctx.query(sql).unwrap()
}

/// `sssp` promotes an `Int` weight, `widest_path` does not: over `Double`
/// weights the one forward graph `sssp` built serves `widest_path`, which
/// adds no entry and builds nothing but the in-edges its pull rounds may
/// gather over.
#[test]
fn sssp_and_widest_path_share_one_forward_graph() {
    let (doubles, _) = weighted();
    let ctx = EngineConfig::rasql().workers(2).tracing(true).build();
    ctx.register("edge", doubles.clone()).unwrap();
    let pulled = |r: &QueryResult| {
        let trace = r.trace.as_ref().unwrap();
        trace.cliques[0].iterations.iter().any(|it| it.pull)
    };
    let sssp = ctx.query(&library::sssp(1)).unwrap();
    let between = ctx.index_stats();
    let widest = ctx.query(&library::widest_path(1)).unwrap();
    let after = ctx.index_stats();
    assert_eq!(
        widest.trace.as_ref().unwrap().cliques[0].kernel,
        "csr_max_f64"
    );
    let in_edges = u64::from(pulled(&widest) && !pulled(&sssp));
    assert_eq!(after.entries - between.entries, in_edges);
    assert_eq!(after.builds - between.builds, in_edges);

    let interpreter = EngineConfig::rasql().specialized_kernels(false);
    let slow = answer(interpreter, &doubles, &library::widest_path(1));
    assert_eq!(
        widest.relation.sorted().rows(),
        slow.relation.sorted().rows()
    );
}

/// A graph that widened an `Int` weight is refused by `widest_path`, whose
/// `least()` compares the raw values: the interpreter answers, whether the
/// graph was built for `sssp` first or for `widest_path` itself.
#[test]
fn widest_path_over_an_int_weight_stays_generic() {
    let (_, one_int) = weighted();
    let interpreter = EngineConfig::rasql().specialized_kernels(false);
    let slow = answer(interpreter, &one_int, &library::widest_path(1))
        .relation
        .sorted();
    let alone = answer(EngineConfig::rasql(), &one_int, &library::widest_path(1));

    let ctx = EngineConfig::rasql().workers(2).tracing(true).build();
    ctx.register("edge", one_int).unwrap();
    let sssp = ctx.query(&library::sssp(1)).unwrap();
    assert_eq!(
        sssp.trace.as_ref().unwrap().cliques[0].kernel,
        "csr_min_f64"
    );
    let after_sssp = ctx.query(&library::widest_path(1)).unwrap();
    for widest in [alone, after_sssp] {
        assert_eq!(widest.trace.as_ref().unwrap().cliques[0].kernel, "generic");
        assert_eq!(widest.relation.sorted().rows(), slow.rows());
    }
}
