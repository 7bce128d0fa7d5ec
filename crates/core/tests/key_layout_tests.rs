//! The key index's layout is invisible. Over dense small ids, sets and
//! build sides are addressed by position; the same statements then run over
//! inputs whose ids no directory covers, and must give the same answers and
//! the same counters:
//!
//! - every id moved up by 2^40: same answers once the offset is taken off,
//!   same rounds, stages, tasks and word cliques. (Shuffles and combines
//!   are not compared: the offset moves ids to other hash partitions.)
//! - every id column retyped `DOUBLE`, same values: a `Double` cell is the
//!   value's bits, far past any directory, while an integral `Double` hashes
//!   — and so partitions — as the `Int` it equals. Same answers, and the
//!   same rounds, stages, tasks, shuffled rows and bytes, combined rows and
//!   word cliques.

use rasql_core::{library, EngineConfig, QueryResult};
use rasql_datagen::{rmat, tree_hierarchy, RmatConfig, TreeConfig};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

/// Past every directory: a key index never addresses such an id by position.
const OFFSET: i64 = 1 << 40;

/// How the ids of a run are written.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ids {
    Given,
    Offset,
    Doubles,
}

/// A table and the columns of it that hold ids.
struct Table {
    name: &'static str,
    rel: Relation,
    ids: &'static [usize],
}

/// `rel` with its `ids` columns written as `ids` says; `back` undoes it.
fn written(rel: &Relation, cols: &[usize], ids: Ids, back: bool) -> Relation {
    let fields = rel.schema().fields().iter().enumerate();
    let retype = |c: usize, t: DataType| match ids {
        Ids::Doubles if cols.contains(&c) => [DataType::Double, DataType::Int][back as usize],
        _ => t,
    };
    let fields: Vec<(&str, DataType)> = fields
        .map(|(c, f)| (f.name.as_str(), retype(c, f.data_type)))
        .collect();
    let rows = rel.rows().iter().map(|r| {
        let mut values = r.values().to_vec();
        for &c in cols {
            values[c] = match (ids, &values[c], back) {
                (Ids::Offset, Value::Int(v), false) => Value::Int(v + OFFSET),
                (Ids::Offset, Value::Int(v), true) => Value::Int(v - OFFSET),
                (Ids::Doubles, Value::Int(v), false) => Value::Double(*v as f64),
                (Ids::Doubles, Value::Double(v), true) => Value::Int(*v as i64),
                (_, v, _) => v.clone(),
            };
        }
        Row::new(values)
    });
    Relation::new_unchecked(Schema::new(fields), rows.collect())
}

/// A statement: its SQL for a source id, and the output columns that are
/// ids.
struct Stmt {
    name: &'static str,
    sql: fn(i64) -> String,
    ids: &'static [usize],
}

/// The source vertex of the single-source statements.
const SOURCE: i64 = 3;

fn run(cfg: &EngineConfig, tables: &[Table], stmt: &Stmt, ids: Ids) -> QueryResult {
    let ctx = cfg.clone().build();
    for t in tables {
        ctx.register(t.name, written(&t.rel, t.ids, ids, false))
            .unwrap();
    }
    let mut sql = (stmt.sql)(if ids == Ids::Offset {
        SOURCE + OFFSET
    } else {
        SOURCE
    });
    if ids == Ids::Doubles {
        // The source joins a `DOUBLE` column: write it as one.
        sql = sql.replace(&format!("(SELECT {SOURCE}"), &format!("(SELECT {SOURCE}.0"));
    }
    let mut result = ctx.query(&sql).unwrap();
    result.relation = written(&result.relation, stmt.ids, ids, true);
    // The statement's counts are the context's, and the context exports them.
    let sample = format!(
        "rasql_keys_by_position_total {}\n",
        result.stats.metrics.keys_by_position
    );
    assert!(
        ctx.metrics().prometheus_text().contains(&sample),
        "{sample}"
    );
    result
}

/// Run every statement every way and compare; returns the key indexes laid
/// out by position over the ids as given.
fn compare(cfg: &EngineConfig, tables: &[Table], stmts: &[Stmt]) -> u64 {
    let mut by_position = 0;
    for stmt in stmts {
        let given = run(cfg, tables, stmt, Ids::Given);
        by_position += given.stats.metrics.keys_by_position;
        for ids in [Ids::Offset, Ids::Doubles] {
            let other = run(cfg, tables, stmt, ids);
            let what = format!("{} under {ids:?} ids", stmt.name);
            // Offset ids sit in other partitions, so a `sum` may add its
            // doubles in another order.
            let (got, want) = (
                other.relation.clone().sorted(),
                given.relation.clone().sorted(),
            );
            assert_eq!(got.len(), want.len(), "{what}");
            for (g, w) in got.rows().iter().zip(want.rows()) {
                let near = |(a, b): (&Value, &Value)| match (a, b) {
                    (Value::Double(a), Value::Double(b)) if ids == Ids::Offset => {
                        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
                    }
                    _ => a == b,
                };
                assert!(
                    g.values().iter().zip(w.values()).all(near),
                    "{what}: {g:?} / {w:?}"
                );
            }
            assert_eq!(other.stats.iterations, given.stats.iterations, "{what}");
            let counters = |r: &QueryResult| {
                let m = r.stats.metrics;
                let partitioned = [m.shuffle_rows, m.shuffle_bytes, m.combined_rows];
                let [a, b, c] = partitioned.map(|n| if ids == Ids::Doubles { n } else { 0 });
                [m.stages, m.tasks, m.word_cliques, a, b, c]
            };
            assert_eq!(counters(&other), counters(&given), "{what}");
            assert_eq!(other.stats.metrics.keys_by_position, 0, "{what}");
        }
    }
    by_position
}

fn config() -> EngineConfig {
    EngineConfig::rasql().workers(2).stage_latency_us(0)
}

#[test]
fn the_generic_library_answers_alike_at_any_id_offset() {
    let weighted = RmatConfig {
        weighted: true,
        ..Default::default()
    };
    let tree = tree_hierarchy(
        TreeConfig {
            target_nodes: 600,
            ..Default::default()
        },
        7,
    );
    let tables = [
        Table {
            name: "edge",
            rel: rmat(128, RmatConfig::default(), 7),
            ids: &[0, 1],
        },
        Table {
            name: "rel",
            rel: Relation::try_new(
                Schema::new(vec![("Parent", DataType::Int), ("Child", DataType::Int)]),
                tree.assbl.rows().to_vec(),
            )
            .unwrap(),
            ids: &[0, 1],
        },
        Table {
            name: "sales",
            rel: tree.sales.clone(),
            ids: &[0],
        },
        Table {
            name: "sponsor",
            rel: tree.sponsor.clone(),
            ids: &[0, 1],
        },
        Table {
            name: "assbl",
            rel: tree.assbl.clone(),
            ids: &[0, 1],
        },
        Table {
            name: "basic",
            rel: tree.basic.clone(),
            ids: &[0],
        },
    ];
    let stmts = [
        Stmt {
            name: "transitive_closure",
            sql: |_| library::transitive_closure(),
            ids: &[0, 1],
        },
        Stmt {
            name: "cc_stratified",
            sql: |_| library::cc_stratified(),
            ids: &[0, 1],
        },
        Stmt {
            name: "same_generation",
            sql: |_| library::same_generation(),
            ids: &[0, 1],
        },
        Stmt {
            name: "mlm_bonus",
            sql: |_| library::mlm_bonus(),
            ids: &[0],
        },
        Stmt {
            name: "bom_delivery_stratified",
            sql: |_| library::bom_delivery_stratified(),
            ids: &[0],
        },
    ];
    let given = compare(&config(), &tables, &stmts);
    // APSP reads a weighted graph under the same table name.
    let apsp = [Table {
        name: "edge",
        rel: rmat(64, weighted, 7),
        ids: &[0, 1],
    }];
    let apsp_stmt = [Stmt {
        name: "apsp",
        sql: |_| library::apsp(),
        ids: &[0, 1],
    }];
    let apsp_given = compare(&config(), &apsp, &apsp_stmt);
    assert!(given > 0 && apsp_given > 0, "{given} / {apsp_given}");
}

#[test]
fn the_kernel_queries_on_words_answer_alike_at_any_id_offset() {
    let weighted = RmatConfig {
        weighted: true,
        ..Default::default()
    };
    let tables = [Table {
        name: "edge",
        rel: rmat(256, weighted, 11),
        ids: &[0, 1],
    }];
    let stmts = [
        Stmt {
            name: "sssp",
            sql: |o| library::sssp(o),
            ids: &[0],
        },
        Stmt {
            name: "cc",
            sql: |_| library::cc(),
            ids: &[0, 1],
        },
        Stmt {
            name: "reach",
            sql: |o| library::reach(o),
            ids: &[0],
        },
        Stmt {
            name: "sssp_hops",
            sql: |o| library::sssp_hops(o),
            ids: &[0],
        },
        Stmt {
            name: "widest_path",
            sql: |o| library::widest_path(o),
            ids: &[0],
        },
    ];
    let cfg = config().specialized_kernels(false);
    assert!(compare(&cfg, &tables, &stmts) > 0);
}
