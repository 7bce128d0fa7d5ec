//! The static query verifier: stratification/safety checking, syntactic PreM
//! sufficient conditions, and partition-preservation certificates — all
//! reported as spanned [`Diagnostic`]s against the original SQL.
//!
//! The verifier runs over the *AST* (where source spans live), independently
//! of whether analysis succeeds, so even rejected queries get precise
//! positions. Three families of facts are established:
//!
//! 1. **Stratification** (`RA0001`–`RA0003`): inside a recursive clique, no
//!    branch may negate, aggregate over, or group a recursive relation — the
//!    fixpoint operator requires monotone branches.
//! 2. **PreM proofs** (`RA0101`–`RA0103`): for each aggregate head column the
//!    verifier attempts a syntactic proof that the aggregate is pre-mappable
//!    (paper §3): `min`/`max` need every recursive value expression *monotone
//!    non-decreasing* in the aggregate column and every filter on it
//!    downward-closed (`min`) / upward-closed (`max`); `sum`/`count` need
//!    positive-linear value expressions and upward-closed threshold filters
//!    (the §3 continuous-count semantics). The outcome is three-valued:
//!    [`StaticVerdict::Proven`], [`StaticVerdict::Refuted`] (e.g. an antitone
//!    value like `100 - Cost` under `min`), or [`StaticVerdict::Unknown`] —
//!    the cue for the dynamic lock-step checker.
//! 3. **Certificates** (`RA0201`–`RA0202`): when analysis succeeds, each
//!    recursive view's [`PartitionCertificate`] is surfaced, so `EXPLAIN` and
//!    `CHECK` show *why* a plan is (in)eligible for decomposed evaluation.

use crate::analyzer::{
    collect_table_refs, cte_components, split_conjuncts, AnalyzedQuery, CteComponent,
};
use crate::branch::{BranchProgram, BranchStep, JoinBuild};
use crate::certificate::{CertificateFailure, PartitionCertificate};
use crate::diag::{DiagCode, Diagnostic, Severity};
use crate::error::PlanError;
use rasql_parser::ast::{
    AggFunc, BinaryOp, CteDef, Expr, Query, Select, SelectItem, TableRef, UnaryOp,
};
use rasql_parser::Span;
use std::collections::HashMap;

/// Outcome of a static PreM proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticVerdict {
    /// The syntactic sufficient conditions hold: PreM is guaranteed.
    Proven,
    /// The conditions are provably violated (e.g. an antitone value
    /// expression): pushing the aggregate into recursion is wrong.
    Refuted,
    /// Neither provable nor refutable syntactically; dynamic validation
    /// applies.
    Unknown,
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StaticVerdict::Proven => "Proven",
            StaticVerdict::Refuted => "Refuted",
            StaticVerdict::Unknown => "Unknown",
        })
    }
}

/// One PreM obligation: an aggregate head column of a recursive view.
#[derive(Debug, Clone)]
pub struct PremObligation {
    /// View the column belongs to.
    pub view: String,
    /// Head column name.
    pub column: String,
    /// The aggregate applied in recursion.
    pub func: AggFunc,
    /// Outcome of the static proof.
    pub verdict: StaticVerdict,
    /// Why the verdict was reached.
    pub reason: String,
    /// Span of the head column declaration (`min() AS Cost`).
    pub span: Span,
}

/// Verification facts for one recursive view.
#[derive(Debug, Clone)]
pub struct ViewVerification {
    /// View name.
    pub name: String,
    /// Span of the view name in the `WITH` clause.
    pub name_span: Span,
    /// PreM obligations, one per aggregate head column.
    pub prem: Vec<PremObligation>,
    /// The analyzer's partition-preservation certificate (absent when
    /// analysis failed).
    pub certificate: Option<PartitionCertificate>,
}

/// The full verifier output for one query.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, in emission order (stratification, PreM, certificates).
    pub diagnostics: Vec<Diagnostic>,
    /// Per recursive view facts.
    pub views: Vec<ViewVerification>,
    /// Incremental view-maintenance findings (`RA03xx`). Kept separate from
    /// `diagnostics` so they never affect [`VerifyReport::is_clean`] — they
    /// gate *how* a materialized view over this query refreshes (incremental
    /// vs. full recompute), not whether the query runs.
    pub maintenance: Vec<Diagnostic>,
}

impl VerifyReport {
    /// True when no error-severity diagnostic was emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Render every diagnostic against the source (snippets + carets),
    /// followed by the summary.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(source));
        }
        for d in &self.maintenance {
            out.push_str(&d.render(source));
        }
        out.push_str(&self.summary());
        out
    }

    /// Compact per-view summary (the `EXPLAIN` "Verification" section body).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for v in &self.views {
            for o in &v.prem {
                out.push_str(&format!(
                    "  {}: PreM {}({}) {} — {}\n",
                    v.name, o.func, o.column, o.verdict, o.reason
                ));
            }
            if let Some(c) = &v.certificate {
                out.push_str(&format!("  {}: partition certificate {}\n", v.name, c));
            }
        }
        if !self.views.is_empty() {
            if self.maintenance.is_empty() {
                out.push_str(
                    "  maintenance: incremental refresh eligible (idempotent Proven-PreM heads)\n",
                );
            } else {
                for d in &self.maintenance {
                    out.push_str(&format!("  maintenance: {d}\n"));
                }
            }
        }
        let (e, w) = (
            self.error_count(),
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count(),
        );
        out.push_str(&format!("  verdict: {e} error(s), {w} warning(s)\n"));
        out
    }
}

/// Run the static verifier over a parsed query and `analysis`, the caller's
/// one analysis of it: the analyzed query, or the error analysis failed with
/// (reported as `RA0004`).
pub fn verify_query(q: &Query, analysis: Result<&AnalyzedQuery, &PlanError>) -> VerifyReport {
    let mut report = VerifyReport::default();
    let sccs = recursive_cliques(q, &cte_components(&q.ctes));
    let acc = prem_pass(q, &sccs, &mut report.diagnostics);

    // Per-view PreM verdicts → diagnostics + report entries.
    for scc in &sccs {
        for &vi in &scc.members {
            let cte = &q.ctes[vi];
            let mut prem = Vec::new();
            for (ci, col) in cte.columns.iter().enumerate() {
                let Some(func) = col.agg else { continue };
                let (verdict, reasons) = match acc.get(&(vi, ci)) {
                    Some((v, r)) => (*v, r.clone()),
                    None => (StaticVerdict::Unknown, vec!["not analyzed".into()]),
                };
                let reason = if reasons.is_empty() {
                    proven_reason(func, &col.name)
                } else {
                    reasons.join("; ")
                };
                let code = match verdict {
                    StaticVerdict::Proven => DiagCode::PremProven,
                    StaticVerdict::Refuted => DiagCode::PremRefuted,
                    StaticVerdict::Unknown => DiagCode::PremUnknown,
                };
                let mut d = Diagnostic::new(
                    code,
                    col.span,
                    format!(
                        "PreM {verdict} for {func}() AS {} in view {}: {reason}",
                        col.name, cte.name
                    ),
                );
                d = match verdict {
                    StaticVerdict::Refuted => d.with_help(
                        "use the stratified form: compute the recursion without the \
                         aggregate, apply it in the final SELECT",
                    ),
                    StaticVerdict::Unknown => d.with_help(
                        "CHECK falls back to the dynamic lock-step PreM checker on \
                         the registered data",
                    ),
                    StaticVerdict::Proven => d,
                };
                report.diagnostics.push(d);
                prem.push(PremObligation {
                    view: cte.name.clone(),
                    column: col.name.clone(),
                    func,
                    verdict,
                    reason,
                    span: col.span,
                });
            }
            report.views.push(ViewVerification {
                name: cte.name.clone(),
                name_span: cte.name_span,
                prem,
                certificate: None,
            });
        }
    }

    // Incremental view-maintenance certificate (RA0301): a materialized
    // view over this query may refresh incrementally only when the query
    // has a single recursive clique of one view whose head aggregates are
    // idempotent (min/max) with Proven PreM — then re-merging retained
    // state is a no-op and semi-naive can resume from it over an
    // insert-only delta. Every violation gets its own spanned finding.
    let maintenance_help =
        "a REFRESH of a materialized view over this query falls back to full recompute";
    if sccs.len() > 1 {
        let &vi = sccs[1].members.first().expect("scc members are non-empty");
        report.maintenance.push(
            Diagnostic::new(
                DiagCode::MaintenanceUnsound,
                q.ctes[vi].name_span,
                "stratified recursion: later cliques consume earlier fixpoints, so a \
                 delta cannot be seeded into retained state",
            )
            .with_help(maintenance_help),
        );
    }
    for scc in &sccs {
        if scc.members.len() > 1 {
            let &vi = scc.members.first().expect("scc members are non-empty");
            report.maintenance.push(
                Diagnostic::new(
                    DiagCode::MaintenanceUnsound,
                    q.ctes[vi].name_span,
                    format!(
                        "mutual recursion ({} views in one clique): retained per-view \
                         state cannot be resumed independently",
                        scc.members.len()
                    ),
                )
                .with_help(maintenance_help),
            );
        }
        for &(vi, ci) in &scc.agg_cols {
            let col = &q.ctes[vi].columns[ci];
            let func = col.agg.expect("agg column");
            match func {
                AggFunc::Sum | AggFunc::Count | AggFunc::Avg => {
                    report.maintenance.push(
                        Diagnostic::new(
                            DiagCode::MaintenanceUnsound,
                            col.span,
                            format!(
                                "non-idempotent aggregate {func}() AS {} in view {}: \
                                 re-deriving a retained contribution would double-count it",
                                col.name, q.ctes[vi].name
                            ),
                        )
                        .with_help(maintenance_help),
                    );
                }
                AggFunc::Min | AggFunc::Max => {
                    let verdict = acc
                        .get(&(vi, ci))
                        .map_or(StaticVerdict::Unknown, |(v, _)| *v);
                    if verdict != StaticVerdict::Proven {
                        report.maintenance.push(
                            Diagnostic::new(
                                DiagCode::MaintenanceUnsound,
                                col.span,
                                format!(
                                    "PreM verdict {verdict} for {func}() AS {} in view {}: \
                                     only Proven monotone heads may resume from retained state",
                                    col.name, q.ctes[vi].name
                                ),
                            )
                            .with_help(maintenance_help),
                        );
                    }
                }
            }
        }
    }

    // Certificates come from the analyzed plan, when analysis succeeds.
    match analysis {
        Ok(analyzed) => {
            for clique in &analyzed.cliques {
                for spec in &clique.views {
                    // A refresh seeds `state ⋈ Δbuild` by overlaying the
                    // changed table with its delta; a build side scanning
                    // that table twice would evaluate Δ⋈Δ and lose old⋈Δ.
                    if let Some(table) = spec.recursive.iter().find_map(twice_scanned_table) {
                        report.maintenance.push(
                            Diagnostic::new(
                                DiagCode::MaintenanceUnsound,
                                spec.name_span,
                                format!(
                                    "a recursive join's build side scans table '{table}' more \
                                     than once (a self-join) in view {}: overlaying every \
                                     occurrence with an inserted delta would drop the \
                                     derivations that pair old rows with new ones",
                                    spec.name
                                ),
                            )
                            .with_help(maintenance_help),
                        );
                    }
                    let Some(view) = report
                        .views
                        .iter_mut()
                        .find(|v| v.name.eq_ignore_ascii_case(&spec.name))
                    else {
                        continue;
                    };
                    view.certificate = Some(spec.certificate.clone());
                    let (code, span, msg) = match &spec.certificate {
                        PartitionCertificate::Preserved { key_cols } => (
                            DiagCode::CertificatePreserved,
                            view.name_span,
                            format!(
                                "view {} preserves partitioning on key columns \
                                 {key_cols:?}: eligible for decomposed evaluation",
                                spec.name
                            ),
                        ),
                        PartitionCertificate::NotPreserved { failure } => {
                            let span = match failure {
                                CertificateFailure::NonLinear { span, .. }
                                | CertificateFailure::NonSelfRecursive { span, .. } => *span,
                                _ => view.name_span,
                            };
                            (
                                DiagCode::CertificateNotPreserved,
                                span,
                                format!(
                                    "view {} runs with shuffle-based evaluation: {failure}",
                                    spec.name
                                ),
                            )
                        }
                    };
                    report.diagnostics.push(Diagnostic::new(code, span, msg));
                }
            }
        }
        Err(e) => {
            report.diagnostics.push(
                Diagnostic::new(
                    DiagCode::AnalysisError,
                    Span::synthetic(),
                    format!("analysis failed: {e}"),
                )
                .with_help("fix the analysis error; spanned findings above still apply"),
            );
        }
    }
    report
}

/// Static PreM verdicts keyed by `(lowercased view name, head column index)`
/// — the compile-time evidence kernel selection consults, without the
/// diagnostic rendering of the full [`verify_query`] pass — over the
/// analyzer's `components` of `q`. Columns of non-recursive views are absent
/// from the map.
pub fn static_prem_verdicts(
    q: &Query,
    components: &[CteComponent],
) -> HashMap<(String, usize), StaticVerdict> {
    let sccs = recursive_cliques(q, components);
    prem_pass(q, &sccs, &mut Vec::new())
        .into_iter()
        .map(|((vi, ci), (verdict, _))| ((q.ctes[vi].name.to_ascii_lowercase(), ci), verdict))
        .collect()
}

/// The first base table a build side of `prog` scans more than once.
fn twice_scanned_table(prog: &BranchProgram) -> Option<String> {
    prog.steps.iter().find_map(|step| {
        let BranchStep::HashJoin {
            build: JoinBuild::Base(plan),
            ..
        } = step
        else {
            return None;
        };
        let mut tables = Vec::new();
        plan.referenced_tables(&mut tables);
        tables.into_iter().find(|t| plan.scans_of(t) > 1)
    })
}

fn proven_reason(func: AggFunc, col: &str) -> String {
    match func {
        AggFunc::Min => format!(
            "every recursive value expression is monotone in `{col}` and every \
             filter on it is downward-closed"
        ),
        AggFunc::Max => format!(
            "every recursive value expression is monotone in `{col}` and every \
             filter on it is upward-closed"
        ),
        AggFunc::Sum | AggFunc::Count => format!(
            "every recursive contribution to `{col}` is positive-linear and \
             every threshold on it is upward-closed"
        ),
        AggFunc::Avg => "avg is never pre-mappable".into(),
    }
}

// --------------------------------------------------------------------
// Recursive components (SCCs of the CTE dependency graph)
// --------------------------------------------------------------------

struct RecursiveScc {
    /// CTE indices in the component, ascending.
    members: Vec<usize>,
    /// `(cte index, column index)` of every aggregate head column.
    agg_cols: Vec<(usize, usize)>,
}

/// The recursive cliques among the CTE reference graph's `components`, in
/// order of their first member (the verifier's finding order; a later clique
/// is a stratified one).
fn recursive_cliques(q: &Query, components: &[CteComponent]) -> Vec<RecursiveScc> {
    let mut out: Vec<RecursiveScc> = (components.iter())
        .filter(|c| c.recursive)
        .map(|c| RecursiveScc {
            members: c.members.clone(),
            agg_cols: (c.members.iter())
                .flat_map(|&m| {
                    (q.ctes[m].columns.iter().enumerate())
                        .filter(|(_, col)| col.agg.is_some())
                        .map(move |(ci, _)| (m, ci))
                })
                .collect(),
        })
        .collect();
    out.sort_unstable_by_key(|scc| scc.members[0]);
    out
}

// --------------------------------------------------------------------
// Per-clique checking
// --------------------------------------------------------------------

/// Obligation accumulator: (cte index, column index) → running verdict.
type Acc = HashMap<(usize, usize), (StaticVerdict, Vec<String>)>;

/// The static PreM pass: check every clique of `sccs`, pushing its
/// stratification findings to `diags`; returns each aggregate head column's
/// verdict and reasons.
fn prem_pass(q: &Query, sccs: &[RecursiveScc], diags: &mut Vec<Diagnostic>) -> Acc {
    let mut acc: Acc = (sccs.iter().flat_map(|s| &s.agg_cols))
        .map(|&col| (col, (StaticVerdict::Proven, Vec::new())))
        .collect();
    for scc in sccs {
        check_clique(q, scc, diags, &mut acc);
    }
    acc
}

fn downgrade(acc: &mut Acc, key: (usize, usize), verdict: StaticVerdict, reason: String) {
    if let Some((v, reasons)) = acc.get_mut(&key) {
        let worse = match verdict {
            StaticVerdict::Refuted => true,
            StaticVerdict::Unknown => *v == StaticVerdict::Proven,
            StaticVerdict::Proven => false,
        };
        if worse {
            *v = verdict;
        }
        if verdict != StaticVerdict::Proven {
            reasons.push(reason);
        }
    }
}

fn check_clique(q: &Query, scc: &RecursiveScc, diags: &mut Vec<Diagnostic>, acc: &mut Acc) {
    let member_names: HashMap<String, usize> = scc
        .members
        .iter()
        .map(|&m| (q.ctes[m].name.to_ascii_lowercase(), m))
        .collect();

    for &vi in &scc.members {
        let cte = &q.ctes[vi];

        // RA0003: disallowed aggregates in the recursive head.
        for col in &cte.columns {
            if matches!(col.agg, Some(f) if !f.allowed_in_recursion()) {
                diags.push(
                    Diagnostic::new(
                        DiagCode::DisallowedHeadAggregate,
                        col.span,
                        format!(
                            "{}() is not admitted in a recursive head (view {}): the \
                             ratio of monotone sum and count is not monotone",
                            col.agg.unwrap(),
                            cte.name
                        ),
                    )
                    .with_help(
                        "compute sum() and count() in recursion, divide in the final SELECT",
                    ),
                );
            }
        }

        for branch in &cte.branches {
            let mut refs = Vec::new();
            collect_table_refs(branch, &mut refs);
            let is_recursive = refs
                .iter()
                .any(|r| member_names.contains_key(&r.to_ascii_lowercase()));
            if !is_recursive {
                continue;
            }
            let scope = Scope::build(branch, q, &member_names);
            check_stratification(cte, branch, &scope, diags);
            check_branch_filters(branch, &scope, q, acc);
            if !scc.agg_cols.is_empty() {
                check_branch_values(vi, cte, branch, &scope, acc);
            }
        }
    }
}

/// RA0001 / RA0002: negation and non-monotone constructs through a recursive
/// edge.
fn check_stratification(
    cte: &CteDef,
    branch: &Select,
    scope: &Scope<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut exprs: Vec<&Expr> = Vec::new();
    for item in &branch.projection {
        if let SelectItem::Expr { expr, .. } = item {
            exprs.push(expr);
        }
    }
    exprs.extend(branch.where_clause.iter());
    exprs.extend(branch.having.iter());
    exprs.extend(branch.group_by.iter());
    exprs.extend(branch.order_by.iter().map(|(e, _)| e));

    for e in &exprs {
        find_negated_recursion(e, scope, diags);
        find_recursive_aggregates(e, scope, diags);
    }
    if !branch.group_by.is_empty() {
        let span = branch
            .group_by
            .iter()
            .fold(Span::synthetic(), |s, e| s.merge(e.span()));
        let span = if span.is_synthetic() {
            branch.span
        } else {
            span
        };
        diags.push(
            Diagnostic::new(
                DiagCode::NonMonotoneConstruct,
                span,
                format!(
                    "GROUP BY in a recursive branch of view {}: grouping is not \
                     monotone under fixpoint iteration",
                    cte.name
                ),
            )
            .with_help("declare the aggregate in the view head (implicit group-by, §2)"),
        );
    }
}

fn find_negated_recursion(e: &Expr, scope: &Scope<'_>, diags: &mut Vec<Diagnostic>) {
    match e {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
            span,
        } => {
            if let Some((vi, _)) = first_recursive_ref(expr, scope) {
                diags.push(
                    Diagnostic::new(
                        DiagCode::NegationInRecursion,
                        *span,
                        format!(
                            "negation over recursive relation `{}` inside recursion",
                            scope.q.ctes[vi].name
                        ),
                    )
                    .with_help(
                        "stratify: materialize the recursive view first, negate in a \
                         later non-recursive statement",
                    ),
                );
            } else {
                find_negated_recursion(expr, scope, diags);
            }
        }
        Expr::Binary { left, right, .. } => {
            find_negated_recursion(left, scope, diags);
            find_negated_recursion(right, scope, diags);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            find_negated_recursion(expr, scope, diags);
        }
        Expr::Func { args, .. } => {
            for a in args {
                find_negated_recursion(a, scope, diags);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
    }
}

fn find_recursive_aggregates(e: &Expr, scope: &Scope<'_>, diags: &mut Vec<Diagnostic>) {
    e.visit(&mut |node| {
        if let Expr::Func {
            name, args, span, ..
        } = node
        {
            if AggFunc::from_name(name).is_some()
                && args.iter().any(|a| first_recursive_ref(a, scope).is_some())
            {
                diags.push(
                    Diagnostic::new(
                        DiagCode::NonMonotoneConstruct,
                        *span,
                        format!(
                            "aggregate {name}() over a recursive relation inside \
                             recursion is not monotone"
                        ),
                    )
                    .with_help(format!(
                        "declare the aggregate in the view head (`{name}() AS col`)"
                    )),
                );
            }
        }
    });
}

fn first_recursive_ref(e: &Expr, scope: &Scope<'_>) -> Option<(usize, usize)> {
    let mut found = None;
    e.visit(&mut |node| {
        if found.is_none() {
            if let Expr::Column {
                qualifier, name, ..
            } = node
            {
                found = scope.resolve(qualifier.as_deref(), name);
            }
        }
    });
    found
}

/// PreM value / key expression obligations for the branch's own target view.
fn check_branch_values(vi: usize, cte: &CteDef, branch: &Select, scope: &Scope<'_>, acc: &mut Acc) {
    let agg_positions: Vec<usize> = cte
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.agg.is_some())
        .map(|(i, _)| i)
        .collect();
    if agg_positions.is_empty() {
        return;
    }
    let unknown_all = |acc: &mut Acc, reason: &str| {
        for &ci in &agg_positions {
            downgrade(acc, (vi, ci), StaticVerdict::Unknown, reason.into());
        }
    };
    if scope.opaque_recursion {
        unknown_all(acc, "recursive reference inside a derived table");
        return;
    }
    let exprs: Option<Vec<&Expr>> = branch
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
        })
        .collect();
    let Some(exprs) = exprs else {
        unknown_all(
            acc,
            "wildcard projection cannot be aligned with the head columns",
        );
        return;
    };
    if exprs.len() != cte.columns.len() {
        unknown_all(acc, "projection arity differs from the head");
        return;
    }
    for (ci, col) in cte.columns.iter().enumerate() {
        match col.agg {
            Some(AggFunc::Min | AggFunc::Max) => match tone(exprs[ci], scope) {
                Tone::Mono | Tone::Indep => {}
                Tone::Anti => downgrade(
                    acc,
                    (vi, ci),
                    StaticVerdict::Refuted,
                    format!(
                        "value expression `{}` is antitone in the aggregate",
                        exprs[ci]
                    ),
                ),
                Tone::Unknown => downgrade(
                    acc,
                    (vi, ci),
                    StaticVerdict::Unknown,
                    format!("value expression `{}` has unknown monotonicity", exprs[ci]),
                ),
            },
            Some(AggFunc::Sum | AggFunc::Count) => match lin_tone(exprs[ci], scope) {
                Lin::Pos | Lin::Indep => {}
                Lin::Neg => downgrade(
                    acc,
                    (vi, ci),
                    StaticVerdict::Refuted,
                    format!(
                        "contribution `{}` is negative-linear in the aggregate",
                        exprs[ci]
                    ),
                ),
                Lin::Unknown => downgrade(
                    acc,
                    (vi, ci),
                    StaticVerdict::Unknown,
                    format!("contribution `{}` is not positive-linear", exprs[ci]),
                ),
            },
            Some(AggFunc::Avg) => downgrade(
                acc,
                (vi, ci),
                StaticVerdict::Refuted,
                "avg is not monotone".into(),
            ),
            None => {
                // Key columns must not depend on any aggregate column.
                if tone(exprs[ci], scope) != Tone::Indep {
                    let reason =
                        format!("key column `{}` depends on an aggregate column", col.name);
                    unknown_all(acc, &reason);
                }
            }
        }
    }
}

/// Filter obligations: every WHERE conjunct touching an aggregate column of
/// any clique member must be closed in the aggregate's direction.
fn check_branch_filters(branch: &Select, scope: &Scope<'_>, q: &Query, acc: &mut Acc) {
    let Some(w) = &branch.where_clause else {
        return;
    };
    let mut conjuncts = Vec::new();
    split_conjuncts(w, &mut conjuncts);
    for c in conjuncts {
        let refs = agg_refs(c, scope);
        if refs.is_empty() {
            continue;
        }
        let unknown_all = |acc: &mut Acc, reason: &str| {
            for &(m, ci) in &refs {
                downgrade(acc, (m, ci), StaticVerdict::Unknown, reason.to_string());
            }
        };
        let Expr::Binary { left, op, right } = c else {
            unknown_all(
                acc,
                &format!("predicate `{c}` on an aggregate column is not a comparison"),
            );
            continue;
        };
        if !op.is_comparison() {
            unknown_all(
                acc,
                &format!("predicate `{c}` on an aggregate column is not a comparison"),
            );
            continue;
        }
        let lrefs = agg_refs(left, scope);
        let rrefs = agg_refs(right, scope);
        if !lrefs.is_empty() && !rrefs.is_empty() {
            unknown_all(acc, &format!("both sides of `{c}` read aggregate columns"));
            continue;
        }
        let (dep, dep_refs, dep_on_left) = if lrefs.is_empty() {
            (right.as_ref(), rrefs, false)
        } else {
            (left.as_ref(), lrefs, true)
        };
        let dep_tone = tone(dep, scope);
        let flip_tone = match dep_tone {
            Tone::Mono => false,
            Tone::Anti => true,
            _ => {
                unknown_all(
                    acc,
                    &format!("aggregate side of `{c}` has unknown monotonicity"),
                );
                continue;
            }
        };
        // Normalize to "aggregate side OP other side".
        let norm_op = if dep_on_left {
            *op
        } else {
            flip_comparison(*op)
        };
        let norm_op = if flip_tone {
            flip_comparison(norm_op)
        } else {
            norm_op
        };
        let direction = match norm_op {
            BinaryOp::Lt | BinaryOp::LtEq => Some(Closure::Downward),
            BinaryOp::Gt | BinaryOp::GtEq => Some(Closure::Upward),
            _ => None,
        };
        for (m, ci) in dep_refs {
            let func = q.ctes[m].columns[ci].agg.expect("agg ref");
            let required = match func {
                AggFunc::Min => Closure::Downward,
                AggFunc::Max | AggFunc::Sum | AggFunc::Count => Closure::Upward,
                AggFunc::Avg => {
                    downgrade(
                        acc,
                        (m, ci),
                        StaticVerdict::Refuted,
                        "avg is not monotone".into(),
                    );
                    continue;
                }
            };
            if direction != Some(required) {
                downgrade(
                    acc,
                    (m, ci),
                    StaticVerdict::Unknown,
                    format!(
                        "filter `{c}` on {func}-column `{}` is not {}-closed",
                        q.ctes[m].columns[ci].name,
                        match required {
                            Closure::Downward => "downward",
                            Closure::Upward => "upward",
                        }
                    ),
                );
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closure {
    Downward,
    Upward,
}

fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

fn agg_refs(e: &Expr, scope: &Scope<'_>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    e.visit(&mut |node| {
        if let Expr::Column {
            qualifier, name, ..
        } = node
        {
            if let Some((m, ci)) = scope.resolve(qualifier.as_deref(), name) {
                if scope.q.ctes[m].columns[ci].agg.is_some() && !out.contains(&(m, ci)) {
                    out.push((m, ci));
                }
            }
        }
    });
    out
}

// --------------------------------------------------------------------
// Branch scope: binding names → clique members
// --------------------------------------------------------------------

struct Scope<'a> {
    q: &'a Query,
    /// Binding name (lowercased) → member CTE index.
    bindings: HashMap<String, usize>,
    /// Members visible for unqualified resolution, in FROM order.
    from_members: Vec<usize>,
    /// A derived table in FROM references a clique member — column-level
    /// tracking is impossible.
    opaque_recursion: bool,
}

impl<'a> Scope<'a> {
    fn build(branch: &Select, q: &'a Query, member_names: &HashMap<String, usize>) -> Scope<'a> {
        let mut bindings = HashMap::new();
        let mut from_members = Vec::new();
        let mut opaque_recursion = false;
        for item in &branch.from {
            match item {
                TableRef::Table { name, alias, .. } => {
                    if let Some(&m) = member_names.get(&name.to_ascii_lowercase()) {
                        let binding = alias.as_deref().unwrap_or(name);
                        bindings.insert(binding.to_ascii_lowercase(), m);
                        from_members.push(m);
                    }
                }
                TableRef::Subquery { query, .. } => {
                    let mut refs = Vec::new();
                    for s in &query.body {
                        collect_table_refs(s, &mut refs);
                    }
                    if refs
                        .iter()
                        .any(|r| member_names.contains_key(&r.to_ascii_lowercase()))
                    {
                        opaque_recursion = true;
                    }
                }
            }
        }
        Scope {
            q,
            bindings,
            from_members,
            opaque_recursion,
        }
    }

    /// Resolve a column reference to `(member cte index, column index)` when
    /// it names a clique member's head column.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<(usize, usize)> {
        let find_col = |m: usize| {
            self.q.ctes[m]
                .columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
                .map(|ci| (m, ci))
        };
        match qualifier {
            Some(qual) => {
                let m = *self.bindings.get(&qual.to_ascii_lowercase())?;
                find_col(m)
            }
            None => self.from_members.iter().find_map(|&m| find_col(m)),
        }
    }
}

// --------------------------------------------------------------------
// Monotonicity lattices
// --------------------------------------------------------------------

/// Monotonicity of an expression in the clique's aggregate columns
/// (for `min`/`max` heads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tone {
    /// No aggregate column is read.
    Indep,
    /// Non-decreasing in every aggregate column read.
    Mono,
    /// Non-increasing in every aggregate column read.
    Anti,
    /// Cannot be classified.
    Unknown,
}

fn negate_tone(t: Tone) -> Tone {
    match t {
        Tone::Indep => Tone::Indep,
        Tone::Mono => Tone::Anti,
        Tone::Anti => Tone::Mono,
        Tone::Unknown => Tone::Unknown,
    }
}

fn combine_add(a: Tone, b: Tone) -> Tone {
    match (a, b) {
        (Tone::Unknown, _) | (_, Tone::Unknown) => Tone::Unknown,
        (Tone::Indep, x) | (x, Tone::Indep) => x,
        (x, y) if x == y => x,
        _ => Tone::Unknown,
    }
}

/// Sign of a literal (possibly negated) expression: `Some(true)` non-negative,
/// `Some(false)` negative, `None` not a literal.
fn literal_sign(e: &Expr) -> Option<bool> {
    use rasql_parser::ast::Literal;
    match e {
        Expr::Literal(Literal::Int(v)) => Some(*v >= 0),
        Expr::Literal(Literal::Double(v)) => Some(*v >= 0.0),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
            ..
        } => literal_sign(expr).map(|s| !s),
        _ => None,
    }
}

fn tone(e: &Expr, scope: &Scope<'_>) -> Tone {
    match e {
        Expr::Column {
            qualifier, name, ..
        } => match scope.resolve(qualifier.as_deref(), name) {
            Some((m, ci)) if scope.q.ctes[m].columns[ci].agg.is_some() => Tone::Mono,
            _ => Tone::Indep,
        },
        Expr::Literal(_) => Tone::Indep,
        Expr::Binary { left, op, right } => {
            let (l, r) = (tone(left, scope), tone(right, scope));
            match op {
                BinaryOp::Add => combine_add(l, r),
                BinaryOp::Sub => combine_add(l, negate_tone(r)),
                BinaryOp::Mul => match (literal_sign(left), literal_sign(right)) {
                    (_, Some(true)) => l,
                    (_, Some(false)) => negate_tone(l),
                    (Some(true), _) => r,
                    (Some(false), _) => negate_tone(r),
                    _ if l == Tone::Indep && r == Tone::Indep => Tone::Indep,
                    _ => Tone::Unknown,
                },
                BinaryOp::Div => match literal_sign(right) {
                    Some(true) => l,
                    Some(false) => negate_tone(l),
                    None if l == Tone::Indep && r == Tone::Indep => Tone::Indep,
                    None => Tone::Unknown,
                },
                _ if l == Tone::Indep && r == Tone::Indep => Tone::Indep,
                _ => Tone::Unknown,
            }
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
            ..
        } => negate_tone(tone(expr, scope)),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            if tone(expr, scope) == Tone::Indep {
                Tone::Indep
            } else {
                Tone::Unknown
            }
        }
        Expr::Func { name, args, .. } => match name.as_str() {
            // least/greatest are monotone non-decreasing in every argument.
            "least" | "greatest" => args
                .iter()
                .map(|a| tone(a, scope))
                .fold(Tone::Indep, combine_add),
            _ => {
                if args.iter().all(|a| tone(a, scope) == Tone::Indep) {
                    Tone::Indep
                } else {
                    Tone::Unknown
                }
            }
        },
    }
}

/// Linearity of a `sum`/`count` contribution in the aggregate columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lin {
    /// No aggregate column read.
    Indep,
    /// Non-negative linear combination of aggregate columns.
    Pos,
    /// Non-positive linear combination.
    Neg,
    /// Not provably linear.
    Unknown,
}

fn negate_lin(l: Lin) -> Lin {
    match l {
        Lin::Indep => Lin::Indep,
        Lin::Pos => Lin::Neg,
        Lin::Neg => Lin::Pos,
        Lin::Unknown => Lin::Unknown,
    }
}

fn lin_tone(e: &Expr, scope: &Scope<'_>) -> Lin {
    match e {
        Expr::Column {
            qualifier, name, ..
        } => match scope.resolve(qualifier.as_deref(), name) {
            Some((m, ci)) if scope.q.ctes[m].columns[ci].agg.is_some() => Lin::Pos,
            _ => Lin::Indep,
        },
        Expr::Literal(_) => Lin::Indep,
        Expr::Binary { left, op, right } => {
            let (l, r) = (lin_tone(left, scope), lin_tone(right, scope));
            match op {
                // A constant offset added to a linear term breaks additivity.
                BinaryOp::Add => match (l, r) {
                    (Lin::Indep, Lin::Indep) => Lin::Indep,
                    (Lin::Pos, Lin::Pos) => Lin::Pos,
                    (Lin::Neg, Lin::Neg) => Lin::Neg,
                    _ => Lin::Unknown,
                },
                BinaryOp::Sub => match (l, negate_lin(r)) {
                    (Lin::Indep, Lin::Indep) => Lin::Indep,
                    (Lin::Pos, Lin::Pos) => Lin::Pos,
                    (Lin::Neg, Lin::Neg) => Lin::Neg,
                    _ => Lin::Unknown,
                },
                BinaryOp::Mul => match (literal_sign(left), literal_sign(right)) {
                    (_, Some(true)) => l,
                    (_, Some(false)) => negate_lin(l),
                    (Some(true), _) => r,
                    (Some(false), _) => negate_lin(r),
                    _ if l == Lin::Indep && r == Lin::Indep => Lin::Indep,
                    _ => Lin::Unknown,
                },
                BinaryOp::Div => match literal_sign(right) {
                    Some(true) => l,
                    Some(false) => negate_lin(l),
                    None if l == Lin::Indep && r == Lin::Indep => Lin::Indep,
                    None => Lin::Unknown,
                },
                _ if l == Lin::Indep && r == Lin::Indep => Lin::Indep,
                _ => Lin::Unknown,
            }
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
            ..
        } => negate_lin(lin_tone(expr, scope)),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => {
            if lin_tone(expr, scope) == Lin::Indep {
                Lin::Indep
            } else {
                Lin::Unknown
            }
        }
        Expr::Func { args, .. } => {
            if args.iter().all(|a| lin_tone(a, scope) == Lin::Indep) {
                Lin::Indep
            } else {
                Lin::Unknown
            }
        }
    }
}
