//! The analyzer: AST → bound logical plans + recursive clique specs.
//!
//! Implements the paper's two-step compilation (§5): recursive table references
//! are recognized first and become *mark points* (so reference resolution does
//! not loop), yielding the Recursive Clique Plan; the remaining rules (alias
//! resolution, operator conversion) then apply. Mutual recursion is detected
//! via strongly-connected components of the CTE dependency graph, and the
//! implicit group-by rule of §2 derives each recursive view's grouping from its
//! head declaration.

use crate::branch::{BranchProgram, BranchStep, CountMode, DeltaValueMode, JoinBuild, RecAllMode};
use crate::certificate::{CertificateFailure, PartitionCertificate};
use crate::error::PlanError;
use crate::expr::PExpr;
use crate::logical::{AggExpr, FixpointSpec, LogicalPlan, ViewSpec};
use rasql_parser::ast::{
    AggFunc, BinaryOp, CteDef, Expr, Literal, Query, Select, SelectItem, Statement, TableRef,
    UnaryOp,
};
use rasql_parser::Span;
use rasql_storage::{DataType, Field, Row, Schema, Value};
use std::collections::HashMap;

/// Recursive-clique scope passed through resolution: view-name → index map
/// plus the per-view schemas known so far.
type CliqueScope<'a> = Option<(&'a HashMap<String, usize>, &'a [Option<Schema>])>;

/// The tables and named views visible to the analyzer.
#[derive(Default, Clone)]
pub struct ViewCatalog {
    tables: HashMap<String, Schema>,
    views: HashMap<String, LogicalPlan>,
}

impl ViewCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a base table schema.
    pub fn add_table(&mut self, name: &str, schema: Schema) {
        self.tables.insert(name.to_ascii_lowercase(), schema);
    }

    /// Register a named (non-recursive) view plan (`CREATE VIEW`).
    pub fn add_view(&mut self, name: &str, plan: LogicalPlan) {
        self.views.insert(name.to_ascii_lowercase(), plan);
    }

    /// Remove a base-table schema (`DROP MATERIALIZED VIEW` unregisters the
    /// view's result table). Returns whether it was present.
    pub fn remove_table(&mut self, name: &str) -> bool {
        self.tables.remove(&name.to_ascii_lowercase()).is_some()
    }

    fn lookup(&self, name: &str) -> Option<TableSource> {
        let key = name.to_ascii_lowercase();
        if let Some(plan) = self.views.get(&key) {
            return Some(TableSource::Inline(plan.clone()));
        }
        self.tables.get(&key).map(|schema| TableSource::BaseTable {
            name: key,
            schema: schema.clone(),
        })
    }
}

/// The result of analyzing one statement.
#[derive(Debug, Clone)]
pub enum AnalyzedStatement {
    /// A query: cliques to evaluate (topological order), then the final plan.
    Query(AnalyzedQuery),
    /// A `CREATE VIEW` to register.
    CreateView {
        /// View name.
        name: String,
        /// The bound defining plan.
        plan: LogicalPlan,
    },
    /// An `EXPLAIN [ANALYZE]` wrapping an analyzed statement.
    Explain {
        /// `EXPLAIN ANALYZE` (execute + annotate) vs. plain `EXPLAIN`.
        analyze: bool,
        /// The explained statement.
        inner: Box<AnalyzedStatement>,
    },
    /// A `CHECK query`: the *unanalyzed* query AST, kept so the verifier can
    /// report spanned diagnostics even when analysis itself fails.
    Check(Query),
    /// An `INSERT INTO t VALUES ...`: literal rows, folded and type-checked
    /// against the target table's schema.
    Insert {
        /// Target base-table name (as written).
        table: String,
        /// Source span of the table name.
        table_span: Span,
        /// The typed rows to append.
        rows: Vec<Row>,
    },
    /// A `DELETE FROM t [WHERE p]`, compiled to a plan computing the rows to
    /// *keep* (`NOT p OR p IS NULL` — predicate-unknown rows survive, per SQL
    /// three-valued DELETE semantics; a bare DELETE keeps nothing).
    Delete {
        /// Target base-table name (as written).
        table: String,
        /// Source span of the table name.
        table_span: Span,
        /// Plan producing the surviving rows.
        keep_plan: LogicalPlan,
    },
    /// A `CREATE MATERIALIZED VIEW`: the analyzed (possibly recursive)
    /// defining query.
    CreateMaterializedView {
        /// View name.
        name: String,
        /// Source span of the view name.
        name_span: Span,
        /// The analyzed defining query.
        query: AnalyzedQuery,
    },
    /// A `REFRESH MATERIALIZED VIEW`.
    RefreshMaterializedView {
        /// View name.
        name: String,
        /// Source span of the view name.
        name_span: Span,
    },
    /// A `DROP MATERIALIZED VIEW`.
    DropMaterializedView {
        /// View name.
        name: String,
        /// Source span of the view name.
        name_span: Span,
    },
}

/// An analyzed query.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// Recursive cliques, in evaluation (topological) order.
    pub cliques: Vec<FixpointSpec>,
    /// Final plan; recursive views appear as [`LogicalPlan::ViewScan`] nodes.
    pub final_plan: LogicalPlan,
}

/// Analyze a statement against a catalog.
pub fn analyze_statement(
    stmt: &Statement,
    catalog: &ViewCatalog,
) -> Result<AnalyzedStatement, PlanError> {
    match stmt {
        Statement::Query(q) => Ok(AnalyzedStatement::Query(analyze_query(q, catalog)?)),
        Statement::CreateView {
            name,
            columns,
            query,
        } => {
            let analyzed = analyze_query(query, catalog)?;
            if !analyzed.cliques.is_empty() {
                return Err(PlanError::Unsupported(
                    "recursive CTEs inside CREATE VIEW".into(),
                ));
            }
            let mut plan = analyzed.final_plan;
            if !columns.is_empty() {
                let schema = plan.schema().clone();
                if schema.arity() != columns.len() {
                    return Err(PlanError::ArityMismatch {
                        view: name.clone(),
                        expected: columns.len(),
                        actual: schema.arity(),
                    });
                }
                let fields = columns
                    .iter()
                    .zip(schema.fields())
                    .map(|(n, f)| Field::new(n.clone(), f.data_type))
                    .collect();
                plan = rename_schema(plan, Schema::from_fields(fields));
            }
            Ok(AnalyzedStatement::CreateView {
                name: name.clone(),
                plan,
            })
        }
        Statement::Explain { analyze, inner } => Ok(AnalyzedStatement::Explain {
            analyze: *analyze,
            inner: Box::new(analyze_statement(inner, catalog)?),
        }),
        Statement::Check(q) => Ok(AnalyzedStatement::Check(q.clone())),
        Statement::Insert {
            table,
            table_span,
            rows,
        } => {
            let key = table.to_ascii_lowercase();
            if catalog.views.contains_key(&key) {
                return Err(PlanError::Invalid(format!(
                    "INSERT target '{table}' is a view, not a base table"
                )));
            }
            let schema = catalog
                .tables
                .get(&key)
                .ok_or_else(|| PlanError::UnknownTable(table.clone()))?;
            let mut typed = Vec::with_capacity(rows.len());
            for (ri, row) in rows.iter().enumerate() {
                if row.len() != schema.arity() {
                    return Err(PlanError::ArityMismatch {
                        view: table.clone(),
                        expected: schema.arity(),
                        actual: row.len(),
                    });
                }
                let mut values = Vec::with_capacity(row.len());
                for (expr, field) in row.iter().zip(schema.fields()) {
                    let Some(v) = fold_literal_expr(expr) else {
                        return Err(PlanError::Invalid(format!(
                            "INSERT values must be literals, got `{expr}` in row {}",
                            ri + 1
                        )));
                    };
                    values.push(coerce_literal(v, field.data_type).ok_or_else(|| {
                        PlanError::Invalid(format!(
                            "INSERT value `{expr}` in row {} does not fit column \
                             `{}` of type {:?}",
                            ri + 1,
                            field.name,
                            field.data_type
                        ))
                    })?);
                }
                typed.push(Row::new(values));
            }
            Ok(AnalyzedStatement::Insert {
                table: table.clone(),
                table_span: *table_span,
                rows: typed,
            })
        }
        Statement::Delete {
            table,
            table_span,
            predicate,
        } => {
            let key = table.to_ascii_lowercase();
            if catalog.views.contains_key(&key) {
                return Err(PlanError::Invalid(format!(
                    "DELETE target '{table}' is a view, not a base table"
                )));
            }
            if !catalog.tables.contains_key(&key) {
                return Err(PlanError::UnknownTable(table.clone()));
            }
            // Compile "the rows to keep": NOT p OR p IS NULL (three-valued
            // logic — DELETE removes only rows where p is *true*), or keep
            // nothing for a bare DELETE.
            let keep_pred = match predicate {
                Some(p) => Expr::Binary {
                    left: Box::new(Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(p.clone()),
                        span: p.span(),
                    }),
                    op: BinaryOp::Or,
                    right: Box::new(Expr::IsNull {
                        expr: Box::new(p.clone()),
                        negated: false,
                    }),
                },
                None => Expr::Literal(Literal::Bool(false)),
            };
            let keep_query = Query {
                ctes: vec![],
                body: vec![Select {
                    projection: vec![SelectItem::Wildcard],
                    from: vec![TableRef::Table {
                        name: table.clone(),
                        alias: None,
                        span: *table_span,
                    }],
                    where_clause: Some(keep_pred),
                    ..Select::default()
                }],
            };
            let analyzed = analyze_query(&keep_query, catalog)?;
            Ok(AnalyzedStatement::Delete {
                table: table.clone(),
                table_span: *table_span,
                keep_plan: analyzed.final_plan,
            })
        }
        Statement::CreateMaterializedView {
            name,
            name_span,
            query,
        } => Ok(AnalyzedStatement::CreateMaterializedView {
            name: name.clone(),
            name_span: *name_span,
            query: analyze_query(query, catalog)?,
        }),
        Statement::RefreshMaterializedView { name, name_span } => {
            Ok(AnalyzedStatement::RefreshMaterializedView {
                name: name.clone(),
                name_span: *name_span,
            })
        }
        Statement::DropMaterializedView { name, name_span } => {
            Ok(AnalyzedStatement::DropMaterializedView {
                name: name.clone(),
                name_span: *name_span,
            })
        }
    }
}

/// Fold a literal expression (including a leading minus) to a [`Value`].
fn fold_literal_expr(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(l) => Some(literal_value(l)),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
            ..
        } => match fold_literal_expr(expr)? {
            Value::Int(v) => Some(Value::Int(-v)),
            Value::Double(v) => Some(Value::Double(-v)),
            _ => None,
        },
        _ => None,
    }
}

/// Check/coerce a literal into a column type (Int promotes to Double; NULL
/// fits everywhere; `Any` accepts everything).
fn coerce_literal(v: Value, ty: DataType) -> Option<Value> {
    match (ty, v) {
        (_, Value::Null) => Some(Value::Null),
        (DataType::Any, v) => Some(v),
        (DataType::Int, v @ Value::Int(_)) => Some(v),
        (DataType::Double, Value::Int(i)) => Some(Value::Double(i as f64)),
        (DataType::Double, v @ Value::Double(_)) => Some(v),
        (DataType::Str, v @ Value::Str(_)) => Some(v),
        (DataType::Bool, v @ Value::Bool(_)) => Some(v),
        _ => None,
    }
}

/// Analyze a query against a catalog.
pub fn analyze_query(query: &Query, catalog: &ViewCatalog) -> Result<AnalyzedQuery, PlanError> {
    Analyzer::new(catalog).analyze(query)
}

/// Wrap a plan in a projection that renames its output columns.
fn rename_schema(plan: LogicalPlan, schema: Schema) -> LogicalPlan {
    let exprs = (0..schema.arity()).map(PExpr::Col).collect();
    LogicalPlan::Projection {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

/// What a FROM-clause name resolves to.
#[derive(Debug, Clone)]
enum TableSource {
    /// A base table (scan).
    BaseTable { name: String, schema: Schema },
    /// A named view / derived table, inlined.
    Inline(LogicalPlan),
    /// A previously-evaluated recursive view (read as materialized result).
    CliqueView { view: String, schema: Schema },
    /// A member of the clique currently being analyzed (a *recursive
    /// reference*, the paper's mark point).
    RecursiveLocal { view_idx: usize, schema: Schema },
}

/// Internal analysis error: `Defer` signals that a clique member's schema is
/// not yet known during the iterative schema-resolution pass.
enum AErr {
    Plan(PlanError),
    Defer,
}

impl From<PlanError> for AErr {
    fn from(e: PlanError) -> Self {
        AErr::Plan(e)
    }
}

type ARes<T> = Result<T, AErr>;

fn to_plan_err(e: AErr, view: &str) -> PlanError {
    match e {
        AErr::Plan(p) => p,
        AErr::Defer => PlanError::Invalid(format!(
            "could not resolve the schema of recursive view '{view}' — \
             no branch is typable from base relations"
        )),
    }
}

/// The analyzer.
pub struct Analyzer<'a> {
    catalog: &'a ViewCatalog,
    /// Non-recursive CTEs of the current query, analyzed and inlinable.
    local_views: HashMap<String, LogicalPlan>,
    /// Recursive views from already-processed cliques: name → schema.
    done_clique_views: HashMap<String, Schema>,
    /// Completed cliques, in evaluation order.
    cliques: Vec<FixpointSpec>,
}

impl<'a> Analyzer<'a> {
    /// Create an analyzer.
    pub fn new(catalog: &'a ViewCatalog) -> Self {
        Analyzer {
            catalog,
            local_views: HashMap::new(),
            done_clique_views: HashMap::new(),
            cliques: Vec::new(),
        }
    }

    /// Analyze a full query.
    pub fn analyze(mut self, query: &Query) -> Result<AnalyzedQuery, PlanError> {
        // --- Steps 1–2: the CTE reference graph's SCCs, in topological order. ---
        let components = cte_components(&query.ctes);
        for scc in &components {
            if scc.recursive {
                let ctes: Vec<&CteDef> = scc.members.iter().map(|&i| &query.ctes[i]).collect();
                self.analyze_clique(&ctes)?;
            } else {
                let cte = &query.ctes[scc.members[0]];
                let plan = self
                    .analyze_union(&cte.branches, None)
                    .map_err(|e| to_plan_err(e, &cte.name))?;
                let plan = self.apply_cte_head(cte, plan)?;
                self.local_views.insert(cte.name.to_ascii_lowercase(), plan);
            }
        }

        // Stamp each aggregate head column with the verifier's static PreM
        // verdict (Proven / Refuted / Unknown). Kernel selection reads this
        // off the spec; `Unknown` stays for columns the syntactic proof
        // cannot decide.
        let verdicts = crate::verify::static_prem_verdicts(query, &components);
        for clique in &mut self.cliques {
            for view in &mut clique.views {
                let name = view.name.to_ascii_lowercase();
                for (i, &(col, _)) in view.aggs.iter().enumerate() {
                    if let Some(&v) = verdicts.get(&(name.clone(), col)) {
                        view.prem[i] = v;
                    }
                }
            }
        }

        // --- Step 3: final body. ---
        let final_plan = self
            .analyze_union(&query.body, None)
            .map_err(|e| to_plan_err(e, "<final select>"))?;
        Ok(AnalyzedQuery {
            cliques: self.cliques,
            final_plan,
        })
    }

    /// Apply a non-recursive CTE's declared head column names/aggregates.
    fn apply_cte_head(&self, cte: &CteDef, plan: LogicalPlan) -> Result<LogicalPlan, PlanError> {
        if cte.columns.iter().any(|c| c.agg.is_some()) {
            return Err(PlanError::Invalid(format!(
                "view '{}' declares head aggregates but is not recursive",
                cte.name
            )));
        }
        let schema = plan.schema().clone();
        if schema.arity() != cte.columns.len() {
            return Err(PlanError::ArityMismatch {
                view: cte.name.clone(),
                expected: cte.columns.len(),
                actual: schema.arity(),
            });
        }
        let fields = cte
            .columns
            .iter()
            .zip(schema.fields())
            .map(|(c, f)| Field::new(c.name.clone(), f.data_type))
            .collect();
        Ok(rename_schema(plan, Schema::from_fields(fields)))
    }

    // ----------------------------------------------------------------
    // Recursive cliques
    // ----------------------------------------------------------------

    fn analyze_clique(&mut self, ctes: &[&CteDef]) -> Result<(), PlanError> {
        // Validate head aggregates.
        for cte in ctes {
            for col in &cte.columns {
                if let Some(agg) = col.agg {
                    if !agg.allowed_in_recursion() {
                        return Err(PlanError::Invalid(format!(
                            "aggregate '{agg}' is not PreM and cannot be used in \
                             recursion (view '{}')",
                            cte.name
                        )));
                    }
                }
            }
        }

        let member_idx: HashMap<String, usize> = ctes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.to_ascii_lowercase(), i))
            .collect();

        // Iterative schema resolution: a view's schema comes from its first
        // typable branch; repeat until all views are typed.
        let mut schemas: Vec<Option<Schema>> = vec![None; ctes.len()];
        loop {
            let mut progress = false;
            for (vi, cte) in ctes.iter().enumerate() {
                if schemas[vi].is_some() {
                    continue;
                }
                for branch in &cte.branches {
                    match self.branch_output_types(branch, &member_idx, &schemas) {
                        Ok(types) => {
                            if types.len() != cte.columns.len() {
                                return Err(PlanError::ArityMismatch {
                                    view: cte.name.clone(),
                                    expected: cte.columns.len(),
                                    actual: types.len(),
                                });
                            }
                            let fields = cte
                                .columns
                                .iter()
                                .zip(&types)
                                .map(|(c, t)| Field::new(c.name.clone(), *t))
                                .collect();
                            schemas[vi] = Some(Schema::from_fields(fields));
                            progress = true;
                            break;
                        }
                        Err(AErr::Defer) => continue,
                        Err(AErr::Plan(e)) => return Err(e),
                    }
                }
            }
            if schemas.iter().all(Option::is_some) {
                break;
            }
            if !progress {
                let missing = ctes
                    .iter()
                    .zip(&schemas)
                    .filter(|(_, s)| s.is_none())
                    .map(|(c, _)| c.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(PlanError::Invalid(format!(
                    "cannot resolve schemas of recursive views: {missing}"
                )));
            }
        }
        // Widen each view's column types across all of its branches (e.g. an
        // Int base case unioned with a Double recursive case).
        let mut schemas: Vec<Schema> = schemas.into_iter().map(Option::unwrap).collect();
        for (vi, cte) in ctes.iter().enumerate() {
            let mut types: Vec<DataType> =
                schemas[vi].fields().iter().map(|f| f.data_type).collect();
            let opt_schemas: Vec<Option<Schema>> = schemas.iter().cloned().map(Some).collect();
            for branch in &cte.branches {
                if let Ok(bt) = self.branch_output_types(branch, &member_idx, &opt_schemas) {
                    for (t, b) in types.iter_mut().zip(&bt) {
                        *t = unify_types(*t, *b);
                    }
                }
            }
            let fields = cte
                .columns
                .iter()
                .zip(&types)
                .map(|(c, t)| {
                    // A count() head column is always integer — the branch's
                    // value expression names *what is counted*, not the type
                    // of the result (Party Attendance counts strings).
                    let ty = if c.agg == Some(AggFunc::Count) {
                        DataType::Int
                    } else {
                        *t
                    };
                    Field::new(c.name.clone(), ty)
                })
                .collect();
            schemas[vi] = Schema::from_fields(fields);
        }

        // Aggregate column positions per clique view (needed when a branch of
        // one view reads another view's aggregate column).
        let all_agg_cols: Vec<Vec<usize>> = ctes
            .iter()
            .map(|c| {
                c.columns
                    .iter()
                    .enumerate()
                    .filter(|(_, col)| col.agg.is_some())
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        // Build the view specs.
        let mut views = Vec::with_capacity(ctes.len());
        for (vi, cte) in ctes.iter().enumerate() {
            let schema = schemas[vi].clone();
            let key_cols: Vec<usize> = cte
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.agg.is_none())
                .map(|(i, _)| i)
                .collect();
            let aggs: Vec<(usize, AggFunc)> = cte
                .columns
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.agg.map(|a| (i, a)))
                .collect();

            let mut base = Vec::new();
            let mut recursive = Vec::new();
            for branch in &cte.branches {
                let mut refs = Vec::new();
                collect_table_refs(branch, &mut refs);
                let is_recursive = refs
                    .iter()
                    .any(|r| member_idx.contains_key(&r.to_ascii_lowercase()));
                if is_recursive {
                    let mut programs = self
                        .analyze_recursive_branch(
                            branch,
                            vi,
                            &member_idx,
                            &schemas,
                            &aggs,
                            &all_agg_cols,
                        )
                        .map_err(|e| to_plan_err(e, &cte.name))?;
                    for p in &mut programs {
                        p.span = branch.span;
                    }
                    recursive.extend(programs);
                } else {
                    let plan = self
                        .analyze_select(branch, None)
                        .map_err(|e| to_plan_err(e, &cte.name))?;
                    if plan.schema().arity() != schema.arity() {
                        return Err(PlanError::ArityMismatch {
                            view: cte.name.clone(),
                            expected: schema.arity(),
                            actual: plan.schema().arity(),
                        });
                    }
                    base.push(plan);
                }
            }

            views.push(ViewSpec {
                name: cte.name.clone(),
                name_span: cte.name_span,
                schema,
                key_cols,
                prem: vec![crate::verify::StaticVerdict::Unknown; aggs.len()],
                aggs,
                base,
                recursive,
                certificate: PartitionCertificate::not_preserved(CertificateFailure::NoRecursion),
            });
        }

        // Partition preservation (paper §7.2): prove — or record why not —
        // that each view's recursive plan keeps tuples in their partition.
        // The fixpoint executor consumes this certificate as-is.
        for vi in 0..views.len() {
            views[vi].certificate = certify_partition_preservation(vi, &views);
        }

        for v in &views {
            self.done_clique_views
                .insert(v.name.to_ascii_lowercase(), v.schema.clone());
        }
        self.cliques.push(FixpointSpec { views });
        Ok(())
    }

    /// Output column types of a branch, deferring if a clique member's schema
    /// is not yet known.
    fn branch_output_types(
        &self,
        branch: &Select,
        member_idx: &HashMap<String, usize>,
        schemas: &[Option<Schema>],
    ) -> ARes<Vec<DataType>> {
        let scope = self.build_scope(branch, Some((member_idx, schemas)))?;
        let mut types = Vec::new();
        for item in &branch.projection {
            match item {
                SelectItem::Wildcard => {
                    for b in &scope.bindings {
                        types.extend(b.schema.fields().iter().map(|f| f.data_type));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let b = scope.binding_by_name(q)?;
                    types.extend(b.schema.fields().iter().map(|f| f.data_type));
                }
                SelectItem::Expr { expr, .. } => {
                    let bound = scope.bind(expr)?;
                    types.push(infer_type(&bound, &scope.combined));
                }
            }
        }
        Ok(types)
    }

    // ----------------------------------------------------------------
    // Scopes and FROM resolution
    // ----------------------------------------------------------------

    fn resolve_table(&self, name: &str, clique: CliqueScope<'_>) -> ARes<TableSource> {
        let key = name.to_ascii_lowercase();
        if let Some((members, schemas)) = clique {
            if let Some(&vi) = members.get(&key) {
                return match &schemas[vi] {
                    Some(s) => Ok(TableSource::RecursiveLocal {
                        view_idx: vi,
                        schema: s.clone(),
                    }),
                    None => Err(AErr::Defer),
                };
            }
        }
        if let Some(plan) = self.local_views.get(&key) {
            return Ok(TableSource::Inline(plan.clone()));
        }
        if let Some(schema) = self.done_clique_views.get(&key) {
            return Ok(TableSource::CliqueView {
                view: key,
                schema: schema.clone(),
            });
        }
        self.catalog
            .lookup(name)
            .ok_or_else(|| AErr::Plan(PlanError::UnknownTable(name.to_string())))
    }

    fn build_scope(&self, select: &Select, clique: CliqueScope<'_>) -> ARes<Scope> {
        let mut bindings = Vec::new();
        for item in &select.from {
            let (name, source) = match item {
                TableRef::Table { name, alias, .. } => {
                    let src = self.resolve_table(name, clique)?;
                    (alias.clone().unwrap_or_else(|| name.clone()), src)
                }
                TableRef::Subquery { query, alias } => {
                    if !query.ctes.is_empty() {
                        return Err(AErr::Plan(PlanError::Unsupported(
                            "WITH inside a derived table".into(),
                        )));
                    }
                    let plan = self
                        .analyze_union(&query.body, clique)
                        .map_err(|e| match e {
                            AErr::Defer => AErr::Defer,
                            p => p,
                        })?;
                    (alias.clone(), TableSource::Inline(plan))
                }
            };
            let schema = match &source {
                TableSource::BaseTable { schema, .. } => schema.clone(),
                TableSource::Inline(p) => p.schema().clone(),
                TableSource::CliqueView { schema, .. } => schema.clone(),
                TableSource::RecursiveLocal { schema, .. } => schema.clone(),
            };
            bindings.push(ScopeBinding {
                name,
                schema,
                source,
            });
        }
        let mut offsets = Vec::with_capacity(bindings.len());
        let mut fields = Vec::new();
        for b in &bindings {
            offsets.push(Some(fields.len()));
            fields.extend(b.schema.fields().iter().cloned());
        }
        Ok(Scope {
            bindings,
            offsets,
            combined: Schema::from_fields(fields),
        })
    }

    // ----------------------------------------------------------------
    // Plain SELECT analysis (base branches, views, final select)
    // ----------------------------------------------------------------

    fn analyze_union(&self, selects: &[Select], clique: CliqueScope<'_>) -> ARes<LogicalPlan> {
        let mut plans: Vec<LogicalPlan> = Vec::with_capacity(selects.len());
        for s in selects {
            plans.push(self.analyze_select(s, clique)?);
        }
        if plans.len() == 1 {
            return Ok(plans.pop().unwrap());
        }
        let arity = plans[0].schema().arity();
        for p in &plans {
            if p.schema().arity() != arity {
                return Err(AErr::Plan(PlanError::Invalid(
                    "UNION branches have different arities".into(),
                )));
            }
        }
        // Unified schema: names from the first branch, types widened.
        let mut fields: Vec<Field> = plans[0].schema().fields().to_vec();
        for p in &plans[1..] {
            for (f, g) in fields.iter_mut().zip(p.schema().fields()) {
                f.data_type = unify_types(f.data_type, g.data_type);
            }
        }
        let schema = Schema::from_fields(fields);
        Ok(LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Union {
                inputs: plans,
                schema,
            }),
        })
    }

    fn analyze_select(&self, select: &Select, clique: CliqueScope<'_>) -> ARes<LogicalPlan> {
        let scope = self.build_scope(select, clique)?;

        // Reject recursive references outside recursive-branch analysis.
        for b in &scope.bindings {
            if matches!(b.source, TableSource::RecursiveLocal { .. }) {
                return Err(AErr::Plan(PlanError::Invalid(format!(
                    "recursive reference '{}' in a non-recursive context \
                     (base cases must not reference the recursive view)",
                    b.name
                ))));
            }
        }

        // FROM-less: constant Values.
        if scope.bindings.is_empty() {
            return self.analyze_values(select);
        }

        // Left-deep cross joins in FROM order (the optimizer extracts
        // equi-join keys from the WHERE clause afterwards).
        let mut plan: Option<LogicalPlan> = None;
        for b in &scope.bindings {
            let node = match &b.source {
                TableSource::BaseTable { name, schema } => LogicalPlan::TableScan {
                    table: name.clone(),
                    schema: schema.clone(),
                },
                TableSource::Inline(p) => p.clone(),
                TableSource::CliqueView { view, schema } => LogicalPlan::ViewScan {
                    view: view.clone(),
                    schema: schema.clone(),
                },
                TableSource::RecursiveLocal { .. } => unreachable!(),
            };
            plan = Some(match plan {
                None => node,
                Some(left) => {
                    let schema = left.schema().join(node.schema());
                    LogicalPlan::Join {
                        left: Box::new(left),
                        right: Box::new(node),
                        left_keys: vec![],
                        right_keys: vec![],
                        residual: None,
                        schema,
                    }
                }
            });
        }
        let mut plan = plan.unwrap();

        if let Some(w) = &select.where_clause {
            let pred = scope.bind(w)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }

        // Expand projection items.
        let mut proj_exprs: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for b in &scope.bindings {
                        for f in b.schema.fields() {
                            proj_exprs.push((
                                Expr::qcol(b.name.clone(), f.name.clone()),
                                Some(f.name.clone()),
                            ));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let b = scope.binding_by_name(q)?;
                    for f in b.schema.fields() {
                        proj_exprs.push((
                            Expr::qcol(b.name.clone(), f.name.clone()),
                            Some(f.name.clone()),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    proj_exprs.push((expr.clone(), alias.clone()));
                }
            }
        }

        let has_aggs = !select.group_by.is_empty()
            || proj_exprs.iter().any(|(e, _)| e.contains_aggregate())
            || select
                .having
                .as_ref()
                .is_some_and(|h| h.contains_aggregate());

        if has_aggs {
            plan = self.plan_aggregate(select, &scope, plan, &proj_exprs)?;
        } else {
            if select.having.is_some() {
                return Err(AErr::Plan(PlanError::Invalid(
                    "HAVING without aggregation".into(),
                )));
            }
            let mut exprs = Vec::with_capacity(proj_exprs.len());
            let mut fields = Vec::with_capacity(proj_exprs.len());
            for (i, (e, alias)) in proj_exprs.iter().enumerate() {
                let bound = scope.bind(e)?;
                let ty = infer_type(&bound, &scope.combined);
                fields.push(Field::new(output_name(e, alias.as_deref(), i), ty));
                exprs.push(bound);
            }
            plan = LogicalPlan::Projection {
                input: Box::new(plan),
                exprs,
                schema: Schema::from_fields(fields),
            };
        }

        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        if !select.order_by.is_empty() {
            let out_schema = plan.schema().clone();
            let mut keys = Vec::new();
            for (e, asc) in &select.order_by {
                let col = match e {
                    Expr::Column { name, .. } => out_schema
                        .index_of(name)
                        .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?,
                    Expr::Literal(Literal::Int(i)) if *i >= 1 => (*i as usize) - 1,
                    _ => {
                        return Err(AErr::Plan(PlanError::Unsupported(
                            "ORDER BY supports output columns or positions only".into(),
                        )))
                    }
                };
                keys.push((col, *asc));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        if let Some(n) = select.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }

        Ok(plan)
    }

    fn analyze_values(&self, select: &Select) -> ARes<LogicalPlan> {
        if select.where_clause.is_some() || !select.group_by.is_empty() {
            return Err(AErr::Plan(PlanError::Unsupported(
                "WHERE/GROUP BY without FROM".into(),
            )));
        }
        let empty = Scope {
            bindings: vec![],
            offsets: vec![],
            combined: Schema::empty(),
        };
        let mut values = Vec::new();
        let mut fields = Vec::new();
        for (i, item) in select.projection.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = empty.bind(expr)?;
                    let folded = bound.fold();
                    match &folded {
                        PExpr::Lit(v) => {
                            fields.push(Field::new(
                                output_name(expr, alias.as_deref(), i),
                                value_type(v),
                            ));
                            values.push(v.clone());
                        }
                        _ => {
                            return Err(AErr::Plan(PlanError::Invalid(
                                "FROM-less SELECT items must be constants".into(),
                            )))
                        }
                    }
                }
                _ => {
                    return Err(AErr::Plan(PlanError::Invalid(
                        "'*' requires a FROM clause".into(),
                    )))
                }
            }
        }
        Ok(LogicalPlan::Values {
            schema: Schema::from_fields(fields),
            rows: vec![Row::new(values)],
        })
    }

    fn plan_aggregate(
        &self,
        select: &Select,
        scope: &Scope,
        input: LogicalPlan,
        proj_exprs: &[(Expr, Option<String>)],
    ) -> ARes<LogicalPlan> {
        // Bind group expressions.
        let mut group_bound: Vec<PExpr> = Vec::new();
        for g in &select.group_by {
            group_bound.push(scope.bind(g)?);
        }

        // Collect aggregate calls from projection + having.
        let mut agg_calls: Vec<(AggFunc, Option<PExpr>, bool)> = Vec::new();
        let mut rewritten_proj: Vec<(PExpr, String)> = Vec::new();
        for (i, (e, alias)) in proj_exprs.iter().enumerate() {
            let r = rewrite_agg_expr(e, scope, &group_bound, &mut agg_calls)?;
            rewritten_proj.push((r, output_name(e, alias.as_deref(), i)));
        }
        let rewritten_having = match &select.having {
            Some(h) => Some(rewrite_agg_expr(h, scope, &group_bound, &mut agg_calls)?),
            None => None,
        };

        // Pre-projection: groups then aggregate args.
        let k = group_bound.len();
        let mut pre_exprs = group_bound.clone();
        let mut aggs = Vec::new();
        for (func, arg, distinct) in &agg_calls {
            let arg_col = match arg {
                Some(a) => {
                    pre_exprs.push(a.clone());
                    Some(pre_exprs.len() - 1)
                }
                None => None,
            };
            aggs.push(AggExpr {
                func: *func,
                arg: arg_col,
                distinct: *distinct,
            });
        }
        let pre_fields: Vec<Field> = pre_exprs
            .iter()
            .enumerate()
            .map(|(i, e)| Field::new(format!("_pre{i}"), infer_type(e, &scope.combined)))
            .collect();
        let pre_schema = Schema::from_fields(pre_fields);
        let pre = LogicalPlan::Projection {
            input: Box::new(input),
            exprs: pre_exprs,
            schema: pre_schema.clone(),
        };

        // Aggregate output schema: groups then agg results.
        let mut agg_fields: Vec<Field> = pre_schema.fields()[..k].to_vec();
        for (j, a) in aggs.iter().enumerate() {
            let ty = match (a.func, a.arg) {
                (AggFunc::Count, _) => DataType::Int,
                (AggFunc::Avg, _) => DataType::Double,
                (_, Some(c)) => pre_schema.field(c).data_type,
                (_, None) => DataType::Int,
            };
            agg_fields.push(Field::new(format!("_agg{j}"), ty));
        }
        let agg_schema = Schema::from_fields(agg_fields);
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(pre),
            group_cols: k,
            aggs,
            schema: agg_schema.clone(),
        };

        if let Some(h) = rewritten_having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }

        let mut fields = Vec::new();
        let mut exprs = Vec::new();
        for (e, name) in rewritten_proj {
            fields.push(Field::new(name, infer_type(&e, &agg_schema)));
            exprs.push(e);
        }
        Ok(LogicalPlan::Projection {
            input: Box::new(plan),
            exprs,
            schema: Schema::from_fields(fields),
        })
    }

    // ----------------------------------------------------------------
    // Recursive branch analysis → BranchProgram
    // ----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn analyze_recursive_branch(
        &self,
        select: &Select,
        target: usize,
        member_idx: &HashMap<String, usize>,
        schemas: &[Schema],
        target_aggs: &[(usize, AggFunc)],
        all_agg_cols: &[Vec<usize>],
    ) -> ARes<Vec<BranchProgram>> {
        if select.distinct
            || !select.group_by.is_empty()
            || select.having.is_some()
            || !select.order_by.is_empty()
            || select.limit.is_some()
        {
            return Err(AErr::Plan(PlanError::Unsupported(
                "DISTINCT/GROUP BY/HAVING/ORDER BY/LIMIT in a recursive branch \
                 (the implicit group-by rule applies instead)"
                    .into(),
            )));
        }
        let opt_schemas: Vec<Option<Schema>> = schemas.iter().cloned().map(Some).collect();
        let scope = self.build_scope(select, Some((member_idx, &opt_schemas)))?;

        // Classify bindings.
        let rec_positions: Vec<usize> = scope
            .bindings
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b.source, TableSource::RecursiveLocal { .. }))
            .map(|(i, _)| i)
            .collect();
        if rec_positions.is_empty() {
            return Err(AErr::Plan(PlanError::Invalid(
                "recursive branch without a recursive reference".into(),
            )));
        }

        // Projection must be positional to the head.
        let mut proj: Vec<Expr> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Expr { expr, .. } => {
                    if expr.contains_aggregate() {
                        return Err(AErr::Plan(PlanError::Invalid(
                            "explicit aggregate calls in a recursive branch — declare \
                             the aggregate in the view head instead"
                                .into(),
                        )));
                    }
                    proj.push(expr.clone());
                }
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(AErr::Plan(PlanError::Unsupported(
                        "'*' in a recursive branch".into(),
                    )))
                }
            }
        }

        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_clause {
            split_conjuncts(w, &mut conjuncts);
        }

        let mut programs = Vec::new();
        for (rank, &driver_pos) in rec_positions.iter().enumerate() {
            programs.push(self.build_branch_program(
                &scope,
                target,
                target_aggs,
                all_agg_cols,
                &proj,
                &conjuncts,
                driver_pos,
                rank,
                &rec_positions,
            )?);
        }
        Ok(programs)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_branch_program(
        &self,
        scope: &Scope,
        target: usize,
        target_aggs: &[(usize, AggFunc)],
        all_agg_cols: &[Vec<usize>],
        proj: &[Expr],
        conjuncts: &[&Expr],
        driver_pos: usize,
        driver_rank: usize,
        rec_positions: &[usize],
    ) -> ARes<BranchProgram> {
        let n = scope.bindings.len();

        // Layout: binding → offset in the combined stream row, assigned in join
        // order; the driver starts at offset 0.
        let mut offsets: Vec<Option<usize>> = vec![None; n];
        offsets[driver_pos] = Some(0);
        let mut cur_arity = scope.bindings[driver_pos].schema.arity();
        let mut joined: Vec<usize> = vec![driver_pos];
        let mut steps: Vec<BranchStep> = Vec::new();
        let mut pending: Vec<&Expr> = conjuncts.to_vec();

        // Local scope that binds names using the join-order offsets.
        let bind_local = |e: &Expr, offsets: &[Option<usize>]| -> ARes<PExpr> {
            bind_expr_with_offsets(e, scope, offsets, "in a recursive branch")
        };

        // Apply any pending conjuncts fully contained in the joined set.
        macro_rules! flush_filters {
            () => {{
                let mut remaining = Vec::new();
                for c in pending.drain(..) {
                    let refs = expr_bindings(c, scope)?;
                    if refs.iter().all(|b| joined.contains(b)) {
                        steps.push(BranchStep::Filter(bind_local(c, &offsets)?));
                    } else {
                        remaining.push(c);
                    }
                }
                pending = remaining;
            }};
        }
        flush_filters!();

        while joined.len() < n {
            // Find an unjoined binding connected by equi-conjuncts: every
            // equi-conjunct `stream_expr = build_col` where build_col is a
            // plain column of the candidate and stream_expr references only
            // joined bindings.
            let mut chosen: Option<(usize, Vec<(PExpr, usize)>)> = None;
            for cand in 0..n {
                if joined.contains(&cand) {
                    continue;
                }
                let mut keys = Vec::new();
                for &c in &pending {
                    if let Some((stream_e, build_col)) = equi_edge(c, scope, &joined, cand)? {
                        let bound = bind_local(&stream_e, &offsets)?;
                        keys.push((bound, build_col));
                    }
                }
                if !keys.is_empty() {
                    chosen = Some((cand, keys));
                    break;
                }
            }
            let (cand, keys) = match chosen {
                Some(c) => c,
                None => {
                    // No equi edge: cross-join the next unjoined binding in
                    // FROM order.
                    let cand = (0..n).find(|i| !joined.contains(i)).unwrap();
                    (cand, Vec::new())
                }
            };

            // Remove consumed equi conjuncts from pending.
            let consumed: Vec<&Expr> = pending
                .iter()
                .copied()
                .filter(|c| {
                    equi_edge(c, scope, &joined, cand)
                        .map(|o| o.is_some())
                        .unwrap_or(false)
                })
                .collect();
            pending.retain(|c| !consumed.contains(c));

            let build_arity = scope.bindings[cand].schema.arity();
            let build = match &scope.bindings[cand].source {
                TableSource::RecursiveLocal { view_idx, .. } => {
                    // Semi-naive term expansion: recursive refs before the
                    // driver (in FROM order) read the post-merge state, refs
                    // after it read the pre-merge state.
                    let cand_rank = rec_positions.iter().position(|&p| p == cand).unwrap();
                    let mode = if cand_rank < driver_rank {
                        RecAllMode::New
                    } else {
                        RecAllMode::Old
                    };
                    JoinBuild::RecursiveAll {
                        view: *view_idx,
                        mode,
                        value_mode: DeltaValueMode::Total,
                    }
                }
                TableSource::BaseTable { name, schema } => {
                    JoinBuild::Base(LogicalPlan::TableScan {
                        table: name.clone(),
                        schema: schema.clone(),
                    })
                }
                TableSource::Inline(p) => JoinBuild::Base(p.clone()),
                TableSource::CliqueView { view, schema } => {
                    JoinBuild::Base(LogicalPlan::ViewScan {
                        view: view.clone(),
                        schema: schema.clone(),
                    })
                }
            };

            let (stream_keys, build_keys): (Vec<PExpr>, Vec<usize>) = keys.into_iter().unzip();
            offsets[cand] = Some(cur_arity);
            cur_arity += build_arity;
            joined.push(cand);
            steps.push(BranchStep::HashJoin {
                build,
                stream_keys,
                build_keys,
                build_arity,
            });
            flush_filters!();
        }
        debug_assert!(pending.is_empty());

        // Bind projection to head positions.
        let target_agg_positions: Vec<usize> = target_aggs.iter().map(|(p, _)| *p).collect();
        let mut key_exprs = Vec::new();
        let mut agg_exprs = Vec::new();
        for (pos, e) in proj.iter().enumerate() {
            let bound = bind_local(e, &offsets)?;
            if target_agg_positions.contains(&pos) {
                agg_exprs.push(bound);
            } else {
                key_exprs.push(bound);
            }
        }

        // Does an aggregate expression read a recursive relation's aggregate
        // column? (Decides increment-vs-total delta semantics and the
        // sum/count accumulation mode.)
        let rec_agg_cols: Vec<(usize, Vec<usize>)> = rec_positions
            .iter()
            .map(|&p| {
                let view_idx = match &scope.bindings[p].source {
                    TableSource::RecursiveLocal { view_idx, .. } => *view_idx,
                    _ => unreachable!(),
                };
                let offset = offsets[p].unwrap();
                let cols = all_agg_cols[view_idx].iter().map(|c| offset + c).collect();
                (p, cols)
            })
            .collect();

        let reads_rec_agg = |e: &PExpr, binding: usize| -> bool {
            let mut cols = Vec::new();
            e.columns(&mut cols);
            rec_agg_cols
                .iter()
                .filter(|(p, _)| *p == binding)
                .any(|(_, acs)| cols.iter().any(|c| acs.contains(c)))
        };

        let mut count_modes = Vec::new();
        let mut driver_value_mode = DeltaValueMode::Total;
        for (i, (_, func)) in target_aggs.iter().enumerate() {
            let mode = match func {
                AggFunc::Sum | AggFunc::Count => {
                    let any_rec = rec_positions
                        .iter()
                        .any(|&p| reads_rec_agg(&agg_exprs[i], p));
                    if any_rec {
                        CountMode::SumValues
                    } else {
                        CountMode::DistinctTuple
                    }
                }
                _ => CountMode::SumValues,
            };
            count_modes.push(mode);
            if matches!(func, AggFunc::Sum | AggFunc::Count)
                && reads_rec_agg(&agg_exprs[i], driver_pos)
            {
                driver_value_mode = DeltaValueMode::Increment;
            }
        }

        // Propagate increment reads into RecursiveAll join inputs too.
        let mut final_steps = Vec::with_capacity(steps.len());
        for step in steps {
            match step {
                BranchStep::HashJoin {
                    build: JoinBuild::RecursiveAll { view, mode, .. },
                    stream_keys,
                    build_keys,
                    build_arity,
                } => {
                    // Find the binding this build came from to test value use.
                    let p = rec_positions
                        .iter()
                        .copied()
                        .find(|&p| {
                            matches!(&scope.bindings[p].source,
                                TableSource::RecursiveLocal { view_idx, .. } if *view_idx == view)
                                && offsets[p].is_some_and(|o| o != 0)
                        })
                        .unwrap_or(driver_pos);
                    let uses_increment = target_aggs.iter().enumerate().any(|(i, (_, f))| {
                        matches!(f, AggFunc::Sum | AggFunc::Count)
                            && reads_rec_agg(&agg_exprs[i], p)
                    });
                    let value_mode = if uses_increment {
                        DeltaValueMode::Increment
                    } else {
                        DeltaValueMode::Total
                    };
                    final_steps.push(BranchStep::HashJoin {
                        build: JoinBuild::RecursiveAll {
                            view,
                            mode,
                            value_mode,
                        },
                        stream_keys,
                        build_keys,
                        build_arity,
                    });
                }
                s => final_steps.push(s),
            }
        }

        let driver_view = match &scope.bindings[driver_pos].source {
            TableSource::RecursiveLocal { view_idx, .. } => *view_idx,
            _ => unreachable!(),
        };

        Ok(BranchProgram {
            driver: driver_view,
            driver_value_mode,
            steps: final_steps,
            target,
            key_exprs,
            agg_exprs,
            count_modes,
            combined_arity: cur_arity,
            span: Span::synthetic(),
        })
    }
}

// --------------------------------------------------------------------
// Scope machinery
// --------------------------------------------------------------------

struct ScopeBinding {
    name: String,
    schema: Schema,
    source: TableSource,
}

struct Scope {
    bindings: Vec<ScopeBinding>,
    /// Each binding's offset in the combined layout (FROM order).
    offsets: Vec<Option<usize>>,
    combined: Schema,
}

impl Scope {
    fn binding_by_name(&self, name: &str) -> ARes<&ScopeBinding> {
        self.bindings
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| AErr::Plan(PlanError::UnknownTable(name.to_string())))
    }

    /// Bind an AST expression to the combined layout.
    fn bind(&self, e: &Expr) -> ARes<PExpr> {
        bind_expr_with_offsets(e, self, &self.offsets, "in this position")
    }
}

/// Bind an expression with each binding at `offsets` (the combined layout,
/// or a recursive branch's join order); `position` names where a function
/// that is not a scalar one was found.
fn bind_expr_with_offsets(
    e: &Expr,
    scope: &Scope,
    offsets: &[Option<usize>],
    position: &str,
) -> ARes<PExpr> {
    let bind = |e: &Expr| bind_expr_with_offsets(e, scope, offsets, position);
    match e {
        Expr::Column {
            qualifier, name, ..
        } => {
            let (b_idx, col) = resolve_binding_col(scope, qualifier.as_deref(), name)?;
            let off = offsets[b_idx].ok_or_else(|| {
                AErr::Plan(PlanError::Invalid(format!(
                    "column '{name}' referenced before its table is joined"
                )))
            })?;
            Ok(PExpr::Col(off + col))
        }
        Expr::Literal(l) => Ok(PExpr::Lit(literal_value(l))),
        Expr::Binary { left, op, right } => Ok(PExpr::Binary {
            left: Box::new(bind(left)?),
            op: *op,
            right: Box::new(bind(right)?),
        }),
        Expr::Unary { op, expr, .. } => {
            let inner = Box::new(bind(expr)?);
            Ok(match op {
                UnaryOp::Neg => PExpr::Neg(inner),
                UnaryOp::Not => PExpr::Not(inner),
            })
        }
        Expr::IsNull { expr, negated } => Ok(PExpr::IsNull {
            expr: Box::new(bind(expr)?),
            negated: *negated,
        }),
        Expr::Func {
            name,
            args,
            distinct,
            star,
            ..
        } => {
            if let Some(func) = crate::expr::ScalarFunc::from_name(name) {
                if *distinct || *star {
                    return Err(AErr::Plan(PlanError::Invalid(format!(
                        "scalar function '{name}' takes plain arguments"
                    ))));
                }
                let bound: ARes<Vec<PExpr>> = args.iter().map(bind).collect();
                return Ok(PExpr::Func { func, args: bound? });
            }
            Err(AErr::Plan(PlanError::Unsupported(format!(
                "function '{name}' {position}"
            ))))
        }
    }
}

/// Resolve a column to `(binding index, column index)`.
fn resolve_binding_col(scope: &Scope, qualifier: Option<&str>, name: &str) -> ARes<(usize, usize)> {
    match qualifier {
        Some(q) => {
            let (i, b) = scope
                .bindings
                .iter()
                .enumerate()
                .find(|(_, b)| b.name.eq_ignore_ascii_case(q))
                .ok_or_else(|| AErr::Plan(PlanError::UnknownTable(q.to_string())))?;
            let col = b
                .schema
                .index_of(name)
                .ok_or_else(|| PlanError::UnknownColumn(format!("{q}.{name}")))?;
            Ok((i, col))
        }
        None => {
            let mut found = None;
            for (i, b) in scope.bindings.iter().enumerate() {
                if let Some(col) = b.schema.index_of(name) {
                    if found.is_some() {
                        return Err(AErr::Plan(PlanError::AmbiguousColumn(name.to_string())));
                    }
                    found = Some((i, col));
                }
            }
            found.ok_or_else(|| AErr::Plan(PlanError::UnknownColumn(name.to_string())))
        }
    }
}

/// The bindings an AST expression references, ascending and without repeats.
fn expr_bindings(e: &Expr, scope: &Scope) -> ARes<Vec<usize>> {
    let (mut out, mut failed) = (Vec::new(), None);
    e.visit(&mut |node| {
        if let Expr::Column {
            qualifier, name, ..
        } = node
        {
            match resolve_binding_col(scope, qualifier.as_deref(), name) {
                Ok((b, _)) => out.push(b),
                Err(e) => failed = failed.take().or(Some(e)),
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// If `c` is an equality usable as a hash-join edge between the joined set and
/// candidate binding `cand`, return `(stream_expr, build_column)`.
fn equi_edge(
    c: &Expr,
    scope: &Scope,
    joined: &[usize],
    cand: usize,
) -> ARes<Option<(Expr, usize)>> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = c
    else {
        return Ok(None);
    };
    let (l_refs, r_refs) = (expr_bindings(left, scope)?, expr_bindings(right, scope)?);
    let try_side = |stream: &Expr,
                    stream_refs: &[usize],
                    build: &Expr,
                    build_refs: &[usize]|
     -> ARes<Option<(Expr, usize)>> {
        if !stream_refs.iter().all(|b| joined.contains(b)) || stream_refs.is_empty() {
            return Ok(None);
        }
        if build_refs != [cand] {
            return Ok(None);
        }
        // Build side must be a plain column for hash indexing.
        if let Expr::Column {
            qualifier, name, ..
        } = build
        {
            let (b, col) = resolve_binding_col(scope, qualifier.as_deref(), name)?;
            if b == cand {
                return Ok(Some((stream.clone(), col)));
            }
        }
        Ok(None)
    };
    if let Some(hit) = try_side(left, &l_refs, right, &r_refs)? {
        return Ok(Some(hit));
    }
    try_side(right, &r_refs, left, &l_refs)
}

/// Split an AST predicate into its AND-conjuncts.
pub(crate) fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Rewrite a projection/having expression over the aggregate output layout:
/// group-expression matches become `Col(i)`, aggregate calls become
/// `Col(k + j)`.
fn rewrite_agg_expr(
    e: &Expr,
    scope: &Scope,
    group_bound: &[PExpr],
    agg_calls: &mut Vec<(AggFunc, Option<PExpr>, bool)>,
) -> ARes<PExpr> {
    // Aggregate call?
    if let Expr::Func {
        name,
        distinct,
        args,
        star,
        ..
    } = e
    {
        if AggFunc::from_name(name).is_none() {
            if let Some(func) = crate::expr::ScalarFunc::from_name(name) {
                if *distinct || *star {
                    return Err(AErr::Plan(PlanError::Invalid(format!(
                        "scalar function '{}' takes plain arguments",
                        func.name()
                    ))));
                }
                let bound: ARes<Vec<PExpr>> = args
                    .iter()
                    .map(|a| rewrite_agg_expr(a, scope, group_bound, agg_calls))
                    .collect();
                return Ok(PExpr::Func { func, args: bound? });
            }
        }
        if let Some(func) = AggFunc::from_name(name) {
            let arg = if *star {
                None
            } else if args.len() == 1 {
                Some(scope.bind(&args[0])?)
            } else {
                return Err(AErr::Plan(PlanError::Invalid(format!(
                    "aggregate '{func}' takes exactly one argument"
                ))));
            };
            let entry = (func, arg, *distinct);
            let j = match agg_calls.iter().position(|c| *c == entry) {
                Some(j) => j,
                None => {
                    agg_calls.push(entry);
                    agg_calls.len() - 1
                }
            };
            return Ok(PExpr::Col(group_bound.len() + j));
        }
        return Err(AErr::Plan(PlanError::Unsupported(format!(
            "function '{name}'"
        ))));
    }
    // A group expression?
    if let Ok(bound) = scope.bind(e) {
        if let Some(i) = group_bound.iter().position(|g| *g == bound) {
            return Ok(PExpr::Col(i));
        }
        if bound.is_constant() {
            return Ok(bound);
        }
    }
    // Recurse into operators.
    match e {
        Expr::Binary { left, op, right } => Ok(PExpr::Binary {
            left: Box::new(rewrite_agg_expr(left, scope, group_bound, agg_calls)?),
            op: *op,
            right: Box::new(rewrite_agg_expr(right, scope, group_bound, agg_calls)?),
        }),
        Expr::Unary { op, expr, .. } => {
            let inner = Box::new(rewrite_agg_expr(expr, scope, group_bound, agg_calls)?);
            Ok(match op {
                UnaryOp::Neg => PExpr::Neg(inner),
                UnaryOp::Not => PExpr::Not(inner),
            })
        }
        Expr::IsNull { expr, negated } => Ok(PExpr::IsNull {
            expr: Box::new(rewrite_agg_expr(expr, scope, group_bound, agg_calls)?),
            negated: *negated,
        }),
        Expr::Column { name, .. } => Err(AErr::Plan(PlanError::Invalid(format!(
            "column '{name}' must appear in GROUP BY or inside an aggregate"
        )))),
        Expr::Literal(l) => Ok(PExpr::Lit(literal_value(l))),
        Expr::Func { .. } => unreachable!("handled above"),
    }
}

/// FROM-referenced table names, recursing through derived tables.
pub(crate) fn collect_table_refs(select: &Select, out: &mut Vec<String>) {
    for item in &select.from {
        match item {
            TableRef::Table { name, .. } => out.push(name.clone()),
            TableRef::Subquery { query, .. } => {
                for s in &query.body {
                    collect_table_refs(s, out);
                }
            }
        }
    }
}

/// Prove partition preservation for view `vi` (paper §7.2): every recursive
/// program must be linear, driven by the view itself, and pass through some
/// non-empty subset of key columns unchanged — then the join keys stay inside
/// the partition key along every recursive branch and decomposed evaluation
/// is sound. The returned [`PartitionCertificate`] either names the preserved
/// key columns or records the first (spanned) obstruction.
fn certify_partition_preservation(vi: usize, views: &[ViewSpec]) -> PartitionCertificate {
    if views.len() > 1 {
        return PartitionCertificate::not_preserved(CertificateFailure::MultiViewClique {
            views: views.len(),
        });
    }
    let v = &views[vi];
    if v.recursive.is_empty() {
        return PartitionCertificate::not_preserved(CertificateFailure::NoRecursion);
    }
    let mut preserved: Option<Vec<usize>> = None;
    for (bi, p) in v.recursive.iter().enumerate() {
        if p.driver != vi || p.target != vi {
            return PartitionCertificate::not_preserved(CertificateFailure::NonSelfRecursive {
                branch: bi,
                span: p.span,
            });
        }
        if !p.is_linear() {
            return PartitionCertificate::not_preserved(CertificateFailure::NonLinear {
                branch: bi,
                span: p.span,
            });
        }
        // key position i (i-th key col) preserved if key_exprs[i] == Col(key_cols[i])
        // — the driver occupies offsets [0, arity) of the combined layout.
        let this: Vec<usize> = v
            .key_cols
            .iter()
            .enumerate()
            .filter(|(i, &kc)| p.key_exprs.get(*i) == Some(&PExpr::Col(kc)))
            .map(|(i, _)| i)
            .collect();
        preserved = Some(match preserved {
            None => this,
            Some(prev) => prev.into_iter().filter(|x| this.contains(x)).collect(),
        });
    }
    match preserved {
        Some(p) if !p.is_empty() => PartitionCertificate::Preserved {
            key_cols: p.into_iter().map(|i| views[vi].key_cols[i]).collect(),
        },
        _ => PartitionCertificate::not_preserved(CertificateFailure::NoPreservedKey),
    }
}

// --------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Double(v) => Value::Double(*v),
        Literal::Str(s) => Value::from(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

fn value_type(v: &Value) -> DataType {
    match v {
        Value::Null => DataType::Any,
        Value::Bool(_) => DataType::Bool,
        Value::Int(_) => DataType::Int,
        Value::Double(_) => DataType::Double,
        Value::Str(_) => DataType::Str,
    }
}

/// Widen two types for UNION compatibility.
pub(crate) fn unify_types(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Any, x) | (x, Any) => x,
        (Int, Double) | (Double, Int) => Double,
        _ => Any,
    }
}

/// Infer the type of a bound expression.
pub(crate) fn infer_type(e: &PExpr, input: &Schema) -> DataType {
    match e {
        PExpr::Col(i) => {
            if *i < input.arity() {
                input.field(*i).data_type
            } else {
                DataType::Any
            }
        }
        PExpr::Lit(v) => value_type(v),
        PExpr::Binary { left, op, right } => {
            if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                DataType::Bool
            } else {
                let l = infer_type(left, input);
                let r = infer_type(right, input);
                match (l, r) {
                    (DataType::Int, DataType::Int) => DataType::Int,
                    (DataType::Double, _) | (_, DataType::Double) => DataType::Double,
                    (DataType::Int, DataType::Any) | (DataType::Any, DataType::Int) => {
                        DataType::Int
                    }
                    _ => DataType::Any,
                }
            }
        }
        PExpr::Neg(e) => infer_type(e, input),
        PExpr::Not(_) | PExpr::IsNull { .. } => DataType::Bool,
        PExpr::Func { func, args } => match func {
            crate::expr::ScalarFunc::Least | crate::expr::ScalarFunc::Greatest => {
                let mut t = DataType::Any;
                for a in args {
                    t = unify_types(t, infer_type(a, input));
                }
                t
            }
            crate::expr::ScalarFunc::Abs => args
                .first()
                .map(|a| infer_type(a, input))
                .unwrap_or(DataType::Any),
        },
    }
}

/// Output column name for a projection item.
fn output_name(e: &Expr, alias: Option<&str>, i: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => format!("col{i}"),
    }
}

/// A strongly connected component of a query's CTE reference graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CteComponent {
    /// CTE indices in the component, ascending.
    pub members: Vec<usize>,
    /// The component holds a cycle (several members, or one that reads
    /// itself): a recursive clique.
    pub recursive: bool,
}

/// The strongly connected components of the CTE reference graph — an edge
/// from each CTE to every CTE a branch of it reads in FROM, derived tables
/// included — in topological order, dependencies first. The analyzer
/// evaluates the cliques in this order; the verifier reads the same ones.
pub fn cte_components(ctes: &[CteDef]) -> Vec<CteComponent> {
    let name_to_idx: HashMap<String, usize> = ctes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.to_ascii_lowercase(), i))
        .collect();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); ctes.len()];
    for (i, cte) in ctes.iter().enumerate() {
        let mut refs = Vec::new();
        for b in &cte.branches {
            collect_table_refs(b, &mut refs);
        }
        for r in refs {
            if let Some(&j) = name_to_idx.get(&r.to_ascii_lowercase()) {
                if !deps[i].contains(&j) {
                    deps[i].push(j);
                }
            }
        }
    }
    tarjan_sccs(ctes.len(), &deps)
        .into_iter()
        .map(|members| {
            let recursive = members.len() > 1 || deps[members[0]].contains(&members[0]);
            CteComponent { members, recursive }
        })
        .collect()
}

/// Tarjan's strongly-connected components; returned in topological order
/// (dependencies before dependents).
fn tarjan_sccs(n: usize, deps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'a> {
        deps: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        sccs: Vec<Vec<usize>>,
    }
    fn strongconnect(s: &mut State, v: usize) {
        s.index[v] = Some(s.counter);
        s.lowlink[v] = s.counter;
        s.counter += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        for &w in &s.deps[v].to_vec() {
            if s.index[w].is_none() {
                strongconnect(s, w);
                s.lowlink[v] = s.lowlink[v].min(s.lowlink[w]);
            } else if s.on_stack[w] {
                s.lowlink[v] = s.lowlink[v].min(s.index[w].unwrap());
            }
        }
        if s.lowlink[v] == s.index[v].unwrap() {
            let mut scc = Vec::new();
            loop {
                let w = s.stack.pop().unwrap();
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            scc.sort_unstable();
            s.sccs.push(scc);
        }
    }
    let mut state = State {
        deps,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if state.index[v].is_none() {
            strongconnect(&mut state, v);
        }
    }
    // Tarjan emits SCCs in reverse topological order of the condensation when
    // edges point dependency-ward; since `deps[i]` lists what `i` *needs*, the
    // emission order already has dependencies first.
    state.sccs
}
