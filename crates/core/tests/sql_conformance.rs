//! Non-recursive SQL conformance: the SQL:99 subset underneath the RaSQL
//! extension (expressions, NULL handling, grouped aggregates, set operations,
//! ordering/limits) behaves like a regular engine.

use rasql_core::{EngineConfig, RaSqlContext};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn ctx() -> RaSqlContext {
    let ctx = EngineConfig::rasql().workers(2).build();
    // t(a int, b int, s str) with a NULL in b.
    let t = Relation::try_new(
        Schema::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("s", DataType::Str),
        ]),
        vec![
            Row::new(vec![Value::Int(1), Value::Int(10), Value::from("x")]),
            Row::new(vec![Value::Int(2), Value::Int(20), Value::from("y")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::from("y")]),
            Row::new(vec![Value::Int(3), Value::Int(30), Value::from("z")]),
        ],
    )
    .unwrap();
    ctx.register("t", t).unwrap();
    ctx
}

fn ints(r: &Relation, col: usize) -> Vec<i64> {
    r.rows().iter().map(|x| x[col].as_int().unwrap()).collect()
}

#[test]
fn arithmetic_and_precedence() {
    let c = ctx();
    let r = c
        .query("SELECT a + b * 2 FROM t WHERE a = 1")
        .unwrap()
        .relation;
    assert_eq!(r.rows()[0][0], Value::Int(21));
    let r = c
        .query("SELECT (a + 2) * 3 % 4 FROM t WHERE a = 1")
        .unwrap()
        .relation;
    assert_eq!(r.rows()[0][0], Value::Int(1));
    let r = c.query("SELECT -a FROM t WHERE a = 3").unwrap().relation;
    assert_eq!(r.rows()[0][0], Value::Int(-3));
}

#[test]
fn null_propagation_and_filtering() {
    let c = ctx();
    // NULL comparisons are false → the NULL-b row never matches b-predicates.
    let r = c.query("SELECT a FROM t WHERE b > 0").unwrap().relation;
    assert_eq!(r.len(), 3);
    let r = c.query("SELECT a FROM t WHERE b IS NULL").unwrap().relation;
    assert_eq!(ints(&r, 0), vec![2]);
    let r = c
        .query("SELECT a FROM t WHERE b IS NOT NULL")
        .unwrap()
        .relation;
    assert_eq!(r.len(), 3);
    // NULL arithmetic yields NULL (and is skipped by aggregates).
    let r = c.query("SELECT sum(b + 1) FROM t").unwrap().relation;
    assert_eq!(r.rows()[0][0], Value::Int(63));
}

#[test]
fn aggregates_skip_nulls() {
    let c = ctx();
    let r = c
        .query("SELECT count(*), count(b), sum(b), min(b), max(b), avg(b) FROM t")
        .unwrap()
        .relation;
    let row = &r.rows()[0];
    assert_eq!(row[0], Value::Int(4));
    assert_eq!(row[1], Value::Int(3));
    assert_eq!(row[2], Value::Int(60));
    assert_eq!(row[3], Value::Int(10));
    assert_eq!(row[4], Value::Int(30));
    assert_eq!(row[5], Value::Double(20.0));
}

#[test]
fn group_by_with_having_and_expression_groups() {
    let c = ctx();
    let r = c
        .query("SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 1")
        .unwrap()
        .relation;
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows()[0][0], Value::Int(2));
    // Group by an expression; project the same expression.
    let r = c
        .query("SELECT a % 2, count(*) FROM t GROUP BY a % 2")
        .unwrap()
        .relation
        .sorted();
    assert_eq!(r.len(), 2);
}

#[test]
fn group_by_expression_counts() {
    let c = ctx();
    let r = c
        .query("SELECT a % 2, count(*) FROM t GROUP BY a % 2")
        .unwrap()
        .relation
        .sorted();
    // a values: 1,2,2,3 → parity 1:{1,3}=2 rows, parity 0:{2,2}=2 rows.
    assert_eq!(ints(&r, 0), vec![0, 1]);
    assert_eq!(ints(&r, 1), vec![2, 2]);
}

#[test]
fn distinct_and_union() {
    let c = ctx();
    let r = c.query("SELECT DISTINCT s FROM t").unwrap().relation;
    assert_eq!(r.len(), 3);
    let r = c
        .query("(SELECT a FROM t) UNION (SELECT b FROM t WHERE b IS NOT NULL)")
        .unwrap()
        .relation;
    // {1,2,3} ∪ {10,20,30} = 6 values
    assert_eq!(r.len(), 6);
}

#[test]
fn order_by_directions_and_limit() {
    let c = ctx();
    let r = c
        .query("SELECT a, b FROM t WHERE b IS NOT NULL ORDER BY b DESC LIMIT 2")
        .unwrap()
        .relation;
    assert_eq!(ints(&r, 1), vec![30, 20]);
    let r = c
        .query("SELECT a FROM t ORDER BY a ASC LIMIT 0")
        .unwrap()
        .relation;
    assert!(r.is_empty());
    // ORDER BY positional reference.
    let r = c
        .query("SELECT b, a FROM t WHERE b IS NOT NULL ORDER BY 2 DESC LIMIT 1")
        .unwrap()
        .relation;
    assert_eq!(ints(&r, 1), vec![3]);
}

#[test]
fn string_comparisons() {
    let c = ctx();
    let r = c.query("SELECT a FROM t WHERE s = 'y'").unwrap().relation;
    assert_eq!(r.len(), 2);
    let r = c.query("SELECT a FROM t WHERE s > 'x'").unwrap().relation;
    assert_eq!(r.len(), 3);
    let r = c.query("SELECT count(distinct s) FROM t").unwrap().relation;
    assert_eq!(r.rows()[0][0], Value::Int(3));
}

#[test]
fn boolean_logic() {
    let c = ctx();
    let r = c
        .query("SELECT a FROM t WHERE a = 1 OR (a = 3 AND NOT a = 2)")
        .unwrap()
        .relation
        .sorted();
    assert_eq!(ints(&r, 0), vec![1, 3]);
    let r = c
        .query("SELECT a FROM t WHERE NOT (a < 3)")
        .unwrap()
        .relation;
    assert_eq!(ints(&r, 0), vec![3]);
}

#[test]
fn derived_tables_and_views() {
    let c = ctx();
    let r = c
        .query("SELECT big.a FROM (SELECT a, b FROM t WHERE b > 15) big WHERE big.a < 3")
        .unwrap()
        .relation;
    assert_eq!(ints(&r, 0), vec![2]);
    c.query("CREATE VIEW v(x) AS (SELECT a + 100 FROM t)")
        .unwrap();
    let r = c.query("SELECT min(x) FROM v").unwrap().relation;
    assert_eq!(r.rows()[0][0], Value::Int(101));
}

#[test]
fn cross_join_cardinality() {
    let c = ctx();
    let r = c.query("SELECT x.a, y.a FROM t x, t y").unwrap().relation;
    assert_eq!(r.len(), 16);
    let r = c
        .query("SELECT x.a FROM t x, t y WHERE x.a = y.a")
        .unwrap()
        .relation;
    // matches: a=1:1, a=2: 2x2=4, a=3:1 → 6
    assert_eq!(r.len(), 6);
}

#[test]
fn join_on_syntax() {
    let c = ctx();
    let r = c
        .query("SELECT x.a FROM t x JOIN t y ON x.b = y.b WHERE x.a = 1")
        .unwrap()
        .relation;
    assert_eq!(r.len(), 1);
}

#[test]
fn scalar_selects() {
    let c = ctx();
    let r = c
        .query("SELECT 1 + 1, 'hi', 2.5, true, NULL")
        .unwrap()
        .relation;
    let row = &r.rows()[0];
    assert_eq!(row[0], Value::Int(2));
    assert_eq!(row[1], Value::from("hi"));
    assert_eq!(row[2], Value::Double(2.5));
    assert_eq!(row[3], Value::Bool(true));
    assert_eq!(row[4], Value::Null);
}

#[test]
fn division_semantics() {
    let c = ctx();
    let r = c.query("SELECT 7 / 2, 7.0 / 2, 7 / 0").unwrap().relation;
    let row = &r.rows()[0];
    assert_eq!(row[0], Value::Int(3));
    assert_eq!(row[1], Value::Double(3.5));
    assert_eq!(row[2], Value::Null);
}

#[test]
fn count_star_on_empty_group_filter() {
    let c = ctx();
    let r = c
        .query("SELECT a, count(*) FROM t WHERE a > 99 GROUP BY a")
        .unwrap()
        .relation;
    assert!(r.is_empty(), "no groups from no rows");
}
