//! The final plan over lane tuples, pinned from outside: a clique that ran
//! on word lanes hands its result to the final plan as packed batches, and
//! scans, filter/projection chains and hash aggregates run on them typed.
//! Whatever the plan, the answer is the row interpreter's
//! (`fused_codegen(false)` never leaves rows) as a multiset, value type for
//! value type — and an `Int` sum is exact, so no partitioning changes it.

use proptest::prelude::*;
use rasql_core::{EngineConfig, QueryResult, RaSqlContext};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

type Tables = Vec<(&'static str, Relation)>;

fn config(partitions: usize, fused: bool) -> EngineConfig {
    let mut cfg = EngineConfig::rasql()
        .with_workers(2)
        .with_specialized_kernels(false)
        .with_fused_codegen(fused);
    cfg.partitions = partitions;
    cfg
}

fn run(cfg: EngineConfig, tables: &Tables, sql: &str) -> QueryResult {
    let ctx = RaSqlContext::with_config(cfg);
    for (name, rel) in tables {
        ctx.register(name, rel.clone()).unwrap();
    }
    ctx.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The rows, sorted, each spelled with its values' types.
fn typed(result: &QueryResult) -> Vec<String> {
    let rows = result.relation.clone().sorted();
    rows.rows().iter().map(|r| format!("{r:?}")).collect()
}

fn table(cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Relation {
    let rows = rows.into_iter().map(Row::new).collect();
    Relation::try_new(Schema::new(cols.to_vec()), rows).unwrap()
}

/// `t(g Int, x Int)` holding `xs` in one group.
fn one_group(xs: &[i64]) -> Tables {
    let rows = xs.iter().map(|&x| vec![Value::Int(1), Value::Int(x)]);
    let cols = [("g", DataType::Int), ("x", DataType::Int)];
    vec![("t", table(&cols, rows.collect()))]
}

/// A grouped sum over the table, a global one, and a grouped one over a
/// recursive view of the same rows — a word clique, so its final plan
/// aggregates lane tuples.
const SUMS: [&str; 3] = [
    "SELECT g, sum(x) FROM t GROUP BY g",
    "SELECT sum(x) FROM t",
    "WITH recursive v (g, x) AS (SELECT g, x FROM t) UNION \
       (SELECT v.g, v.x FROM v, t WHERE v.g = t.g AND v.x = t.x) \
     SELECT g, sum(x) FROM v GROUP BY g",
];

#[test]
fn an_int_sum_is_exact_whatever_the_partitioning() {
    let cases = [
        // `i64::MAX + 1 - 1`: a partial that pre-sums `1 + -1` apart from
        // `i64::MAX`, or one that meets `i64::MAX + 1` first, must not
        // change the total.
        (vec![i64::MAX, 1, -1], Value::Int(i64::MAX)),
        (vec![-1, i64::MAX, 1], Value::Int(i64::MAX)),
        // A total that really leaves `i64` (2^64): its nearest double,
        // everywhere. Distinct values, as the view is a set.
        (
            vec![i64::MAX, i64::MAX - 1, 3],
            Value::Double(2f64.powi(64)),
        ),
    ];
    for (xs, want) in cases {
        let tables = one_group(&xs);
        for sql in SUMS {
            for partitions in 1..=3 {
                for fused in [true, false] {
                    let got = run(config(partitions, fused), &tables, sql);
                    let row = &got.relation.rows()[0];
                    let sum = &row.values()[row.arity() - 1];
                    assert_eq!(
                        format!("{sum:?}"),
                        format!("{want:?}"),
                        "{xs:?} {sql} at {partitions} partitions, fused {fused}"
                    );
                }
            }
        }
    }
}

/// The recursive views the final plans read: `tc(a, b)` (a set view of
/// `Int` lanes), `sp(a, b, c)` (shortest paths: a `min` over a `Double`
/// lane) and `hv(a, b)` (huge `Int`s carried along the edges, whose sums
/// leave `i64`).
fn view(which: usize) -> (&'static str, &'static str) {
    match which {
        0 => (
            "tc",
            "WITH recursive tc (a, b) AS (SELECT Src, Dst FROM edge) UNION \
               (SELECT tc.a, edge.Dst FROM tc, edge WHERE tc.b = edge.Src) ",
        ),
        1 => (
            "sp",
            "WITH recursive sp (a, b, min() AS c) AS (SELECT Src, Dst, Cost FROM edge) UNION \
               (SELECT sp.a, edge.Dst, sp.c + edge.Cost FROM sp, edge WHERE sp.b = edge.Src) ",
        ),
        _ => (
            "hv",
            "WITH recursive hv (a, b) AS (SELECT Src, Big FROM edge) UNION \
               (SELECT edge.Dst, hv.b FROM hv, edge WHERE hv.a = edge.Src) ",
        ),
    }
}

/// Final plans over a view `{v}` with columns `a` (`Int`) and `b` (`Int`,
/// or `Double` for `sp`'s `c`); `{k}` is a filter constant.
const PLANS: &[&str] = &[
    "SELECT a, min(b), max(b), sum(b), count(b), count(distinct b), avg(b) FROM {v} GROUP BY a",
    "SELECT b, count(*) FROM {v} GROUP BY b",
    "SELECT a, min(b), max(a) FROM {v} GROUP BY a",
    "SELECT a, sum(b) FROM {v} WHERE a < {k} GROUP BY a",
    "SELECT min(b), max(b), sum(b), count(*), count(distinct a), avg(b) FROM {v}",
    "SELECT sum(b), count(*), avg(b) FROM {v} WHERE a < -1",
    "SELECT a, max(b) FROM {v} WHERE a < -1 GROUP BY a",
    "SELECT a, sum(b), avg(b) FROM {v} WHERE a = {k} GROUP BY a",
    "SELECT DISTINCT b FROM {v}",
    "SELECT a FROM {v} GROUP BY a",
    "SELECT a, count(*) FROM {v} GROUP BY a HAVING count(*) > 1",
    "SELECT b, a FROM {v} WHERE a < {k}",
    "SELECT a, 7, b FROM {v}",
    "SELECT a + 1, b FROM {v} WHERE b > {k}",
    "SELECT count(*) FROM {v}",
    "SELECT b, a FROM {v} ORDER BY b, a LIMIT 5",
    "SELECT x.a, y.b FROM {v} x, {v} y WHERE x.b = y.a AND x.a < {k}",
];

/// What `sp` reads its third column as: `c`, a `Double`.
fn plan_sql(view: &str, plan: &str, k: i64) -> String {
    let plan = plan.replace("{v}", view).replace("{k}", &k.to_string());
    if view == "sp" {
        plan.replace("(b)", "(c)")
            .replace("distinct b", "distinct c")
            .replace("SELECT b, count(*)", "SELECT c, count(*)")
            .replace("GROUP BY b", "GROUP BY c")
            .replace("DISTINCT b", "DISTINCT c")
            .replace("b > ", "c > ")
    } else {
        plan
    }
}

fn edges(pairs: &[(i64, i64, i64)]) -> Relation {
    let rows = pairs.iter().map(|&(s, d, w)| {
        vec![
            Value::Int(s),
            Value::Int(d),
            Value::Double(w as f64 / 4.0),
            Value::Int(i64::MAX / 3 - w),
        ]
    });
    let cols = [
        ("Src", DataType::Int),
        ("Dst", DataType::Int),
        ("Cost", DataType::Double),
        ("Big", DataType::Int),
    ];
    table(&cols, rows.collect())
}

fn assert_lanes_match_rows(tables: &Tables, sql: &str, partitions: usize) {
    let lanes = run(config(partitions, true), tables, sql);
    let rows = run(config(partitions, false), tables, sql);
    assert_eq!(
        typed(&lanes),
        typed(&rows),
        "{sql} at {partitions} partitions"
    );
    assert_eq!(lanes.stats.metrics.word_cliques, 1, "{sql}");
    assert_eq!(rows.stats.metrics.word_cliques, 0, "{sql}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lane_final_plans_equal_row_final_plans(
        pairs in prop::collection::vec((0i64..10, 0i64..10, 0i64..12), 0..24),
        k in 0i64..10,
        partitions in 1usize..4,
    ) {
        let tables: Tables = vec![("edge", edges(&pairs))];
        for which in 0..3 {
            let (name, clique) = view(which);
            for plan in PLANS {
                let sql = format!("{clique}{}", plan_sql(name, plan, k));
                assert_lanes_match_rows(&tables, &sql, partitions);
            }
        }
    }
}

#[test]
fn a_later_clique_reads_a_lane_view() {
    let pairs: Vec<(i64, i64, i64)> = (0..12).map(|i| (i % 7, (i * 3 + 1) % 7, 1)).collect();
    let tables: Tables = vec![("edge", edges(&pairs))];
    let sql = "WITH recursive tc (a, b) AS (SELECT Src, Dst FROM edge) UNION \
                 (SELECT tc.a, edge.Dst FROM tc, edge WHERE tc.b = edge.Src), \
               recursive lo (a, min() AS m) AS (SELECT a, b FROM tc) UNION \
                 (SELECT edge.Dst, lo.m FROM lo, edge WHERE lo.a = edge.Src) \
               SELECT m, count(*), sum(a) FROM lo GROUP BY m";
    for partitions in 1..=3 {
        let lanes = run(config(partitions, true), &tables, sql);
        let rows = run(config(partitions, false), &tables, sql);
        assert_eq!(typed(&lanes), typed(&rows), "at {partitions} partitions");
        assert_eq!(lanes.stats.metrics.word_cliques, 2);
        assert!(!lanes.relation.is_empty());
    }
}

#[test]
fn a_projection_that_overflows_its_lane_costs_the_row_paths_stages() {
    // `b + 1` leaves `i64` at `i64::MAX` (`Value::add` promotes it to a
    // `Double`): the partition holding it runs its chain on rows in the
    // same task, so the statement counts the row path's stages and tasks.
    let rows = [(1, i64::MAX), (2, 5), (3, 7), (4, -2)];
    let rows = rows
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]);
    let cols = [("a", DataType::Int), ("b", DataType::Int)];
    let tables: Tables = vec![("t", table(&cols, rows.collect()))];
    let view = "WITH recursive v (a, b) AS (SELECT a, b FROM t) UNION \
                  (SELECT v.a, v.b FROM v, t WHERE v.a = t.a AND v.b = t.b) ";
    for plan in ["SELECT a, b + 1 FROM v", "SELECT a, b - 1 FROM v"] {
        let sql = format!("{view}{plan}");
        for partitions in 1..=3 {
            let lanes = run(config(partitions, true), &tables, &sql);
            let rows = run(config(partitions, false), &tables, &sql);
            assert_eq!(typed(&lanes), typed(&rows), "{sql} at {partitions}");
            let (l, r) = (&lanes.stats.metrics, &rows.stats.metrics);
            let counters = |m: &rasql_exec::MetricsSnapshot| {
                (m.stages, m.tasks, m.shuffle_rows, m.shuffle_bytes)
            };
            assert_eq!(counters(l), counters(r), "{sql} at {partitions}");
            assert_eq!(l.word_cliques, 1, "{sql}");
        }
    }
}

/// A global aggregate over a word clique folds every lane tuple into one
/// set of accumulators — no group key is looked up per tuple — and equals
/// the row interpreter's on no tuples, one, many, with `count(distinct …)`,
/// and with `sum`/`avg` totals that leave `i64`.
#[test]
fn a_global_aggregate_over_lanes_equals_the_rows() {
    let view = "WITH recursive v (g, x) AS (SELECT g, x FROM t) UNION \
                  (SELECT v.g, v.x FROM v, t WHERE v.g = t.g AND v.x = t.x) ";
    let plans = [
        "SELECT count(*), count(x), count(distinct x), min(x), max(x) FROM v",
        "SELECT sum(x), avg(x), count(distinct g) FROM v",
        "SELECT sum(x), avg(x) FROM v WHERE g < 0",
    ];
    let cases: [&[i64]; 4] = [
        &[],
        &[7],
        &[3, -1, 3, 9, 12, 40, -6],
        &[i64::MAX, i64::MAX - 1, i64::MAX - 2, 5],
    ];
    for xs in cases {
        let rows = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| vec![Value::Int(i as i64 % 3), Value::Int(x)]);
        let cols = [("g", DataType::Int), ("x", DataType::Int)];
        let tables: Tables = vec![("t", table(&cols, rows.collect()))];
        for plan in plans {
            let sql = format!("{view}{plan}");
            for partitions in 1..=3 {
                let lanes = run(config(partitions, true), &tables, &sql);
                let rows = run(config(partitions, false), &tables, &sql);
                assert_eq!(typed(&lanes), typed(&rows), "{xs:?} {sql} at {partitions}");
                assert_eq!(lanes.relation.len(), 1, "{sql}");
            }
        }
    }
}
