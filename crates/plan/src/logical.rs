//! Bound logical plans and the recursive clique / fixpoint specification.

use crate::branch::BranchProgram;
use crate::certificate::PartitionCertificate;
use crate::expr::PExpr;
use rasql_parser::ast::AggFunc;
use rasql_parser::Span;
use rasql_storage::{Row, Schema};
use std::fmt;

/// A bound logical plan node. Column references inside expressions are
/// positions into the input row; every node carries its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base table.
    TableScan {
        /// Table name.
        table: String,
        /// Table schema.
        schema: Schema,
    },
    /// Scan of a materialized recursive view (fixpoint result).
    ViewScan {
        /// View name.
        view: String,
        /// View schema.
        schema: Schema,
    },
    /// Inline literal rows (`SELECT 1, 0`).
    Values {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Row>,
    },
    /// Projection.
    Projection {
        /// Input.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<PExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate (kept in conjunct-split form by the optimizer).
        predicate: PExpr,
    },
    /// Join. Empty key vectors = cross join. Output row = left ++ right.
    Join {
        /// Left input (stream side at execution).
        left: Box<LogicalPlan>,
        /// Right input (build side at execution).
        right: Box<LogicalPlan>,
        /// Equi-key columns on the left.
        left_keys: Vec<usize>,
        /// Equi-key columns on the right.
        right_keys: Vec<usize>,
        /// Non-equi residual predicate over the combined row.
        residual: Option<PExpr>,
        /// Output schema (left ++ right).
        schema: Schema,
    },
    /// Hash aggregation. Input row layout: `[g_1..g_k, arg_1..arg_m]`
    /// (the analyzer inserts the projection); output `[g_1..g_k, agg_1..agg_m]`.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Number of leading group columns.
        group_cols: usize,
        /// Aggregate specs (in output order).
        aggs: Vec<AggExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Bag union of same-arity inputs.
    Union {
        /// Inputs.
        inputs: Vec<LogicalPlan>,
        /// Output schema.
        schema: Schema,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input.
        input: Box<LogicalPlan>,
    },
    /// Sort by `(column, ascending)` keys.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: u64,
    },
}

/// One aggregate computation in an [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column (position in the aggregate's input row); `None` = `count(*)`.
    pub arg: Option<usize>,
    /// `DISTINCT` aggregation.
    pub distinct: bool,
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::ViewScan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Projection { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Names of base tables scanned anywhere in the plan.
    pub fn referenced_tables(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::TableScan { table, .. } => out.push(table.clone()),
            LogicalPlan::ViewScan { .. } | LogicalPlan::Values { .. } => {}
            LogicalPlan::Projection { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.referenced_tables(out),
            LogicalPlan::Join { left, right, .. } => {
                left.referenced_tables(out);
                right.referenced_tables(out);
            }
            LogicalPlan::Union { inputs, .. } => {
                for i in inputs {
                    i.referenced_tables(out);
                }
            }
        }
    }

    /// How many times the plan scans base table `table` (case-insensitive).
    /// Overlaying a table with a delta overlays every scan of it, so only a
    /// table scanned once can be advanced or seeded by its appended rows: two
    /// scans would pair Δ with Δ and lose old⋈Δ.
    pub fn scans_of(&self, table: &str) -> usize {
        let mut tables = Vec::new();
        self.referenced_tables(&mut tables);
        tables
            .iter()
            .filter(|t| t.eq_ignore_ascii_case(table))
            .count()
    }

    /// Whether evaluating the plan over a table grown by appended rows yields
    /// exactly the old output plus the plan evaluated with that table
    /// overlaid by only the new rows — provided the table is scanned once
    /// ([`LogicalPlan::scans_of`]): scans, filters, projections and joins
    /// distribute over row insertion (a scan/filter/projection chain row for
    /// row, a join as a multiset — its output order follows its shuffle).
    /// `Distinct`, aggregates, sorts and limits do not (an
    /// inserted row can change, reorder or suppress earlier output), a
    /// union interleaves, and a view scan reads no base table at all. This
    /// is the rule under which a retained join index or a converged fixpoint
    /// may be advanced by a delta instead of rebuilt.
    pub fn distributes_over_appends(&self) -> bool {
        match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::Values { .. } => true,
            LogicalPlan::Projection { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Join { .. } => self
                .children()
                .into_iter()
                .all(LogicalPlan::distributes_over_appends),
            _ => false,
        }
    }

    /// Whether the plan scans a materialized recursive view anywhere: its
    /// output then depends on the query's own fixpoint results, not on base
    /// tables alone.
    pub fn reads_views(&self) -> bool {
        matches!(self, LogicalPlan::ViewScan { .. })
            || self.children().into_iter().any(LogicalPlan::reads_views)
    }

    /// One-line label of this node (no children, no indentation) — the same
    /// text [`LogicalPlan::display_indent`] prints for the node. Execution
    /// traces key operator counters by (pre-order path, label).
    pub fn node_label(&self) -> String {
        match self {
            LogicalPlan::TableScan { table, schema } => format!("TableScan {table} {schema}"),
            LogicalPlan::ViewScan { view, schema } => format!("ViewScan {view} {schema}"),
            LogicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            LogicalPlan::Projection { exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project [{}]", es.join(", "))
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Join {
                left_keys,
                right_keys,
                residual,
                ..
            } => {
                let mut s = if left_keys.is_empty() {
                    "CrossJoin".to_string()
                } else {
                    format!("HashJoin on {left_keys:?}={right_keys:?}")
                };
                if let Some(r) = residual {
                    s.push_str(&format!(" residual {r}"));
                }
                s
            }
            LogicalPlan::Aggregate {
                group_cols, aggs, ..
            } => {
                let asp: Vec<String> = aggs
                    .iter()
                    .map(|a| {
                        format!(
                            "{}({}{})",
                            a.func,
                            if a.distinct { "distinct " } else { "" },
                            a.arg.map(|c| format!("#{c}")).unwrap_or_else(|| "*".into())
                        )
                    })
                    .collect();
                format!(
                    "HashAggregate groups=#0..#{group_cols} [{}]",
                    asp.join(", ")
                )
            }
            LogicalPlan::Union { .. } => "Union".to_string(),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Sort { keys, .. } => format!("Sort {keys:?}"),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    /// Child nodes in evaluation order (the order pre-order paths use).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::ViewScan { .. }
            | LogicalPlan::Values { .. } => Vec::new(),
            LogicalPlan::Projection { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Indented plan rendering (the Fig 2 artifact).
    pub fn display_indent(&self) -> String {
        self.render(false)
    }

    /// Indented rendering with a per-node annotation: `annotate` receives each
    /// node's pre-order path (root `"0"`, children `"0.0"`, `"0.1"`, …) and
    /// returns text appended to that node's line. Paths match the ones
    /// execution traces record, so `EXPLAIN ANALYZE` can join the two.
    pub fn display_annotated(&self, annotate: &mut dyn FnMut(&str) -> String) -> String {
        let mut s = String::new();
        self.fmt_annotated(&mut s, 0, "0", annotate);
        s
    }

    fn fmt_annotated(
        &self,
        out: &mut String,
        depth: usize,
        path: &str,
        annotate: &mut dyn FnMut(&str) -> String,
    ) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!("{pad}{}{}\n", self.node_label(), annotate(path)));
        for (i, child) in self.children().into_iter().enumerate() {
            child.fmt_annotated(out, depth + 1, &format!("{path}.{i}"), annotate);
        }
    }

    /// [`LogicalPlan::display_indent`] with every `Values` node's literal
    /// rows spelled out. Caches key on this text: two plans that differ only
    /// in a constant (`reach(1)` / `reach(3)`) must not share a key, while
    /// `EXPLAIN` keeps the compact `Values (n rows)`.
    pub fn cache_text(&self) -> String {
        self.render(true)
    }

    pub(crate) fn render(&self, literals: bool) -> String {
        let mut s = String::new();
        self.fmt_indent(&mut s, 0, literals);
        s
    }

    fn fmt_indent(&self, out: &mut String, depth: usize, literals: bool) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!("{pad}{}", self.node_label()));
        if let (true, LogicalPlan::Values { rows, .. }) = (literals, self) {
            out.push_str(&format!(" {rows:?}"));
        }
        out.push('\n');
        for child in self.children() {
            child.fmt_indent(out, depth + 1, literals);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_indent())
    }
}

/// A recursive clique (paper Fig 2a): the set of mutually recursive views and,
/// per view, its base and recursive branches — the unit the fixpoint operator
/// evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct FixpointSpec {
    /// The clique's views, in declaration order.
    pub views: Vec<ViewSpec>,
}

impl FixpointSpec {
    /// Index of a view by name (case-insensitive).
    pub fn view_index(&self, name: &str) -> Option<usize> {
        self.views
            .iter()
            .position(|v| v.name.eq_ignore_ascii_case(name))
    }

    /// Render the clique plan (the Fig 2a artifact).
    pub fn display(&self) -> String {
        self.render(false)
    }

    /// [`FixpointSpec::display`] with literal `Values` rows spelled out (see
    /// [`LogicalPlan::cache_text`]).
    pub fn cache_text(&self) -> String {
        self.render(true)
    }

    fn render(&self, literals: bool) -> String {
        let mut s = String::new();
        for v in &self.views {
            s.push_str(&format!(
                "RecursiveClique {} {} key={:?} aggs={:?} certificate={}\n",
                v.name,
                v.schema,
                v.key_cols,
                v.aggs
                    .iter()
                    .map(|(c, f)| format!("{f}@#{c}"))
                    .collect::<Vec<_>>(),
                v.certificate
            ));
            for (i, b) in v.base.iter().enumerate() {
                s.push_str(&format!("  Base[{i}]\n"));
                for line in b.render(literals).lines() {
                    s.push_str(&format!("    {line}\n"));
                }
            }
            for (i, r) in v.recursive.iter().enumerate() {
                s.push_str(&format!("  Recursive[{i}]\n"));
                for line in r.render(literals).lines() {
                    s.push_str(&format!("    {line}\n"));
                }
            }
        }
        s
    }
}

/// One recursive view inside a clique.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSpec {
    /// View name.
    pub name: String,
    /// Source span of the view name in the `WITH` clause (synthetic for
    /// programmatically built specs).
    pub name_span: Span,
    /// Output schema (head columns, declared order).
    pub schema: Schema,
    /// Positions of the non-aggregate (group) columns.
    pub key_cols: Vec<usize>,
    /// `(position, function)` for each aggregate head column.
    pub aggs: Vec<(usize, AggFunc)>,
    /// Static PreM verdict for each entry of `aggs` (same order): the
    /// verifier's syntactic proof outcome, consulted by kernel selection —
    /// only `Proven` columns may take a specialized fixpoint kernel.
    pub prem: Vec<crate::verify::StaticVerdict>,
    /// Base-case branches (no clique references), as ordinary plans.
    pub base: Vec<LogicalPlan>,
    /// Recursive branches, lowered to per-iteration pipelines.
    pub recursive: Vec<BranchProgram>,
    /// Partition-preservation proof (paper §7.2): plan selection consults
    /// this — and only this — to decide decomposed vs. shuffle evaluation.
    pub certificate: PartitionCertificate,
}

impl ViewSpec {
    /// True if the view aggregates (vs. pure set semantics).
    pub fn has_aggs(&self) -> bool {
        !self.aggs.is_empty()
    }
}
