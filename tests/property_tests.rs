//! Property-based tests (proptest) on the engine's core invariants:
//!
//! - fixpoint results are independent of worker count, partitioning, stage
//!   combination, codegen and join strategy;
//! - PreM equivalence: the endo-aggregate query equals the stratified query
//!   wherever the latter terminates (acyclic inputs);
//! - the codec round-trips arbitrary relations;
//! - semi-naive equals naive evaluation.

use proptest::prelude::*;
use rasql::core::{library, EngineConfig, JoinStrategy};
use rasql::prelude::*;
use rasql::storage::codec::CompressedRelation;
use rasql::storage::Row;

/// A small random edge list over `n` vertices.
fn edges_strategy(max_v: i64, max_e: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..max_v, 0..max_v), 1..max_e)
}

/// A random DAG: edges always go from smaller to larger vertex id.
fn dag_strategy(max_v: i64, max_e: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..max_v - 1, 1..max_v), 1..max_e).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, b)| {
                let lo = a.min(b - 1);
                let hi = b.max(lo + 1);
                (lo, hi)
            })
            .collect()
    })
}

fn run_tc(edges: &[(i64, i64)], cfg: EngineConfig) -> Relation {
    let ctx = cfg.build();
    ctx.register("edge", Relation::edges(edges)).unwrap();
    ctx.query(&library::transitive_closure())
        .unwrap()
        .relation
        .sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tc_invariant_under_engine_configuration(edges in edges_strategy(24, 40)) {
        let reference = run_tc(&edges, EngineConfig::rasql().workers(2));
        // Worker counts.
        for w in [1usize, 3] {
            prop_assert_eq!(&run_tc(&edges, EngineConfig::rasql().workers(w)), &reference);
        }
        // Optimization axes.
        prop_assert_eq!(
            &run_tc(&edges, EngineConfig::rasql().workers(2).decomposed_plans(false)),
            &reference
        );
        prop_assert_eq!(
            &run_tc(&edges, EngineConfig::rasql().workers(2).stage_combination(false)),
            &reference
        );
        prop_assert_eq!(
            &run_tc(&edges, EngineConfig::rasql().workers(2).fused_codegen(false)),
            &reference
        );
        prop_assert_eq!(
            &run_tc(&edges, EngineConfig::spark_sql_naive().workers(2)),
            &reference
        );
    }

    #[test]
    fn sssp_prem_equivalence_on_dags(edges in dag_strategy(16, 30)) {
        // On DAGs the stratified query terminates; PreM says both agree.
        let weighted: Vec<(i64, i64, f64)> = edges
            .iter()
            .map(|&(a, b)| (a, b, ((a * 7 + b * 13) % 10 + 1) as f64))
            .collect();
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("edge", Relation::weighted_edges(&weighted)).unwrap();
        let endo = ctx.query(&library::sssp(0)).unwrap().relation.sorted();
        let strat = ctx.query(&library::sssp_stratified(0)).unwrap().relation.sorted();
        // Output column names differ (declared head vs. aggregate call);
        // PreM is about the *rows*.
        prop_assert_eq!(endo.rows(), strat.rows());
    }

    #[test]
    fn cc_agrees_with_oracle(edges in edges_strategy(20, 30)) {
        let rel = Relation::edges(&edges);
        let expected = rasql::gap::algorithms::cc_rasql_oracle(&rel);
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("edge", rel).unwrap();
        let got = ctx.query(&library::cc()).unwrap().relation;
        prop_assert_eq!(got.len(), expected.len());
        for r in got.rows() {
            let node = r[0].as_int().unwrap();
            prop_assert_eq!(r[1].as_int().unwrap(), expected[&node]);
        }
    }

    #[test]
    fn sort_merge_equals_shuffle_hash(edges in edges_strategy(24, 40)) {
        // Join strategy must not change SSSP-hop results.
        let ctx1 = EngineConfig::rasql().workers(2).decomposed_plans(false).build();
        let ctx2 = EngineConfig::rasql()
                .workers(2)
                .decomposed_plans(false)
                .join(JoinStrategy::SortMerge).build();
        ctx1.register("edge", Relation::edges(&edges)).unwrap();
        ctx2.register("edge", Relation::edges(&edges)).unwrap();
        let a = ctx1.query(&library::sssp_hops(0)).unwrap().relation.sorted();
        let b = ctx2.query(&library::sssp_hops(0)).unwrap().relation.sorted();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn codec_round_trips_int_relations(edges in edges_strategy(1000, 200)) {
        let rel = Relation::edges(&edges);
        let compressed = CompressedRelation::compress(rel.schema(), rel.rows());
        let mut back = compressed.decompress().unwrap();
        back.sort_unstable();
        let mut orig: Vec<Row> = rel.rows().to_vec();
        orig.sort_unstable();
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn reach_subset_of_tc(edges in edges_strategy(20, 30)) {
        // Everything REACH finds from source 0 must appear as (0, x) in TC,
        // plus the source itself.
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("edge", Relation::edges(&edges)).unwrap();
        let reach = ctx.query(&library::reach(0)).unwrap().relation;
        let tc = ctx.query(&library::transitive_closure()).unwrap().relation;
        let tc_from_0: std::collections::HashSet<i64> = tc
            .rows()
            .iter()
            .filter(|r| r[0].as_int() == Some(0))
            .map(|r| r[1].as_int().unwrap())
            .collect();
        for r in reach.rows() {
            let v = r[0].as_int().unwrap();
            prop_assert!(v == 0 || tc_from_0.contains(&v), "{v} unreachable in TC");
        }
    }
}

/// Direct interval-coalescing oracle: sort by start, sweep and merge.
fn coalesce_oracle(mut ivs: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    ivs.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::new();
    for (s, e) in ivs {
        match out.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interval_coalesce_matches_sweep_oracle(
        raw in prop::collection::vec((0i64..40, 1i64..10), 1..15),
    ) {
        let ivs: Vec<(i64, i64)> = raw.iter().map(|&(s, len)| (s, s + len)).collect();
        let expected = coalesce_oracle(ivs.clone());

        let inter = Relation::try_new(
            Schema::new(vec![("S", DataType::Int), ("E", DataType::Int)]),
            ivs.iter()
                .map(|&(s, e)| rasql::storage::row::int_row(&[s, e]))
                .collect(),
        )
        .unwrap();
        let ctx = EngineConfig::rasql().workers(2).build();
        ctx.register("inter", inter).unwrap();
        let results = ctx
            .query_script(&library::interval_coalesce())
            .unwrap();
        let got = results.last().unwrap().relation.clone().sorted();
        let got_pairs: Vec<(i64, i64)> = got
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, expected);
    }
}
