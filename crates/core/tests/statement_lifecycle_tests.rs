//! The statement layer, pinned from outside: a fixed script that covers every
//! statement kind runs on a context and on a session, and each statement's
//! sorted result rows, execution counters and materialized-view refresh
//! deltas must match `golden/statement_tables.txt`. The file was generated at
//! the commit before the statement paths were unified into one lifecycle; it
//! is not regenerated when the lifecycle changes.
//!
//! Left out of the golden file: wall time and query ids (every statement now
//! reports both — the tests below read them through the wire), and any
//! session-private view that a materialized view, `CHECK` or `EXPLAIN` reads
//! (those now resolve in the scope they are defined in).

use rasql_core::{library, result_to_wire, EngineConfig, QueryResult, RaSqlContext, Session};
use rasql_storage::Relation;
use std::sync::Arc;

fn config() -> EngineConfig {
    EngineConfig::rasql().workers(2).result_cache(8)
}

fn edges() -> Relation {
    Relation::weighted_edges(&[
        (1, 2, 1.0),
        (2, 3, 2.0),
        (3, 1, 1.5),
        (3, 4, 4.0),
        (4, 5, 1.0),
        (5, 6, 3.0),
        (2, 6, 9.0),
        (6, 7, 1.0),
    ])
}

/// The script, one statement per entry; `EXPLAIN ANALYZE` text is compared
/// with its numbers masked.
fn script() -> Vec<String> {
    let sssp = library::sssp(1);
    vec![
        sssp.clone(),
        sssp.clone(),
        format!("EXPLAIN {sssp}"),
        format!("EXPLAIN ANALYZE {}", library::transitive_closure()),
        format!("CHECK {}", library::cc()),
        "CREATE VIEW hop2 AS SELECT a.Src AS S, b.Dst AS D FROM edge a, edge b \
         WHERE a.Dst = b.Src"
            .to_string(),
        "SELECT count(*) FROM hop2".to_string(),
        format!("CREATE MATERIALIZED VIEW mv AS {sssp}"),
        "INSERT INTO edge VALUES (7, 8, 0.5), (8, 9, 0.5)".to_string(),
        "REFRESH MATERIALIZED VIEW mv".to_string(),
        "DELETE FROM edge WHERE Src = 5".to_string(),
        "REFRESH MATERIALIZED VIEW mv".to_string(),
        "INSERT INTO edge VALUES (9, 10, 2.0)".to_string(),
        "SELECT * FROM mv".to_string(),
        format!("EXPLAIN CREATE MATERIALIZED VIEW mv2 AS {}", library::cc()),
        "EXPLAIN DELETE FROM edge WHERE Src = 1".to_string(),
        "EXPLAIN INSERT INTO edge VALUES (1, 2, 0.5)".to_string(),
        "DROP MATERIALIZED VIEW mv".to_string(),
        "SELECT count(*) FROM edge".to_string(),
    ]
}

/// Every run of digits (and the decimal point inside one) as `#`, and every
/// run of spaces as one: what is left of an `EXPLAIN ANALYZE` text is its
/// shape.
fn mask_numbers(line: &str) -> String {
    let mut out = String::new();
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || *c == '.')
            {
                chars.next();
            }
            out.push('#');
        } else if c == ' ' {
            while chars.peek() == Some(&' ') {
                chars.next();
            }
            out.push(' ');
        } else {
            out.push(c);
        }
    }
    out
}

/// Run the script through `run`, one statement at a time, and tabulate it.
fn table(surface: &str, ctx: &RaSqlContext, run: impl Fn(&str) -> QueryResult) -> String {
    let mut out = String::new();
    for sql in script() {
        let before = ctx.metrics();
        let result = run(&sql);
        let after = ctx.metrics();
        let s = &result.stats;
        out.push_str(&format!("## {surface}: {sql}\n"));
        out.push_str(&format!(
            "iterations={:?} cached={} stages={} tasks={} shuffle_rows={} shuffle_bytes={} \
             view_refreshes=+{} incremental=+{}\n",
            s.iterations,
            s.cached,
            s.metrics.stages,
            s.metrics.tasks,
            s.metrics.shuffle_rows,
            s.metrics.shuffle_bytes,
            after.view_refreshes - before.view_refreshes,
            after.view_refreshes_incremental - before.view_refreshes_incremental,
        ));
        let columns: Vec<&str> = result
            .relation
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        out.push_str(&format!("columns={}\n", columns.join(",")));
        // `EXPLAIN` and `CHECK` answer with text, one line per row, in order.
        if sql.starts_with("EXPLAIN") || sql.starts_with("CHECK") {
            let masked = sql.starts_with("EXPLAIN ANALYZE");
            for row in result.relation.rows() {
                let line = row[0].to_string();
                let line = if masked { mask_numbers(&line) } else { line };
                out.push_str(&format!("| {line}\n"));
            }
        } else {
            for row in result.relation.sorted().rows() {
                out.push_str(&format!("| {row}\n"));
            }
        }
    }
    out
}

fn fresh() -> Arc<RaSqlContext> {
    let ctx = Arc::new(config().build());
    ctx.register("edge", edges()).unwrap();
    ctx
}

fn statement_tables() -> String {
    let ctx = fresh();
    let mut out = table("context", &ctx, |sql| {
        ctx.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    });
    let ctx = fresh();
    let session: Session = ctx.session();
    out.push_str(&table("session", &ctx, |sql| {
        session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }));
    out
}

#[test]
fn every_statement_kind_matches_the_golden_statement_tables() {
    let actual = statement_tables();
    let golden = include_str!("golden/statement_tables.txt");
    for (n, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "statement tables differ at line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

/// `(elapsed_us, query_id)` of the last statement of `sql`, as the wire
/// reports it.
fn wire_stats(ctx: &RaSqlContext, sql: &str) -> (u64, u64) {
    let result = ctx.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let wire = result_to_wire(&result);
    (wire.stats.elapsed_us, wire.stats.query_id)
}

#[test]
fn a_cache_hit_reports_its_wall_time_and_no_query_id() {
    let ctx = fresh();
    let sql = library::sssp(1);
    let (_, missed) = wire_stats(&ctx, &sql);
    assert!(missed > 0, "an executed query has an id");
    let result = ctx.query(&sql).unwrap();
    assert!(result.stats.cached);
    let wire = result_to_wire(&result);
    assert!(wire.stats.elapsed_us > 0, "{:?}", wire.stats);
    assert_eq!(wire.stats.query_id, 0, "a cache hit never executed");
}

#[test]
fn insert_reports_its_wall_time() {
    let ctx = fresh();
    let values: Vec<String> = (0..64).map(|i| format!("({i}, {}, 1.0)", i + 1)).collect();
    let (elapsed, _) = wire_stats(
        &ctx,
        &format!("INSERT INTO edge VALUES {}", values.join(", ")),
    );
    assert!(elapsed > 0);
}

#[test]
fn delete_reports_its_wall_time_and_query_id() {
    let ctx = fresh();
    let (elapsed, query_id) = wire_stats(&ctx, "DELETE FROM edge WHERE Src = 3");
    assert!(elapsed > 0);
    assert!(query_id > 0, "a governed DELETE runs under a query id");
}

#[test]
fn create_view_reports_its_wall_time() {
    let ctx = fresh();
    let (elapsed, query_id) = wire_stats(
        &ctx,
        "CREATE VIEW hop3 AS SELECT a.Src AS S, c.Dst AS D FROM edge a, edge b, edge c \
         WHERE a.Dst = b.Src AND b.Dst = c.Src",
    );
    assert!(elapsed > 0);
    assert_eq!(query_id, 0, "nothing executed");
}

#[test]
fn check_reports_its_wall_time() {
    let ctx = fresh();
    let (elapsed, _) = wire_stats(&ctx, &format!("CHECK {}", library::cc()));
    assert!(elapsed > 0);
}

#[test]
fn explain_reports_its_wall_time() {
    let ctx = fresh();
    let (elapsed, _) = wire_stats(&ctx, &format!("EXPLAIN {}", library::apsp()));
    assert!(elapsed > 0);
}

#[test]
fn drop_materialized_view_reports_its_wall_time() {
    let ctx = fresh();
    ctx.query(&format!(
        "CREATE MATERIALIZED VIEW mv AS {}",
        library::sssp(1)
    ))
    .unwrap();
    let (elapsed, _) = wire_stats(&ctx, "DROP MATERIALIZED VIEW mv");
    assert!(elapsed > 0);
}
