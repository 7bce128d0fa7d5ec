//! `CHECK query` — the unified static + dynamic verification entry point.
//!
//! [`RaSqlContext::check`] runs the static verifier
//! ([`rasql_plan::verify_query`]) over a query and, for every PreM obligation
//! the syntactic conditions leave [`StaticVerdict::Unknown`], falls back to
//! the dynamic lock-step [`PremChecker`](crate::PremChecker) on the session's
//! registered data. Both kinds of evidence travel in one [`CheckReport`], so
//! callers (the `CHECK` statement, the shell's `\lint`, `reproduce lint`)
//! never have to stitch the two systems together.

use crate::context::{optimize_statement, read_script, RaSqlContext, Scope};
use crate::error::EngineError;
use crate::prem::{PremCheckOutcome, PremChecker};
use rasql_parser::ast::{AggFunc, Query, Statement};
use rasql_parser::parse;
use rasql_plan::{
    AnalyzedQuery, AnalyzedStatement, PlanError, Severity, StaticVerdict, VerifyReport,
};

/// How a PreM obligation was discharged.
#[derive(Debug, Clone)]
pub enum PremEvidence {
    /// The syntactic sufficient conditions settled it.
    Static {
        /// The static outcome (`Proven` or `Refuted`).
        verdict: StaticVerdict,
        /// Why.
        reason: String,
    },
    /// Statically unknown; the lock-step checker ran on the registered data.
    Dynamic {
        /// The dynamic outcome.
        outcome: PremCheckOutcome,
    },
}

impl PremEvidence {
    /// True when the evidence does not contradict PreM: a static proof, or a
    /// dynamic run that found no violation.
    pub fn supports_prem(&self) -> bool {
        match self {
            PremEvidence::Static { verdict, .. } => *verdict == StaticVerdict::Proven,
            PremEvidence::Dynamic { outcome } => {
                !matches!(outcome, PremCheckOutcome::Violated { .. })
            }
        }
    }
}

/// Evidence for one aggregate head column.
#[derive(Debug, Clone)]
pub struct PremColumnEvidence {
    /// View the column belongs to.
    pub view: String,
    /// Head column name.
    pub column: String,
    /// The aggregate applied in recursion.
    pub func: AggFunc,
    /// The unified evidence.
    pub evidence: PremEvidence,
}

/// The result of `CHECK query`: static diagnostics, per-column PreM evidence
/// (with dynamic fallback), and the rendered report.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The static verifier's findings (diagnostics, PreM verdicts,
    /// certificates).
    pub verification: VerifyReport,
    /// Unified PreM evidence, one entry per aggregate head column.
    pub prem: Vec<PremColumnEvidence>,
    /// The full report rendered against the original SQL.
    pub rendered: String,
}

impl CheckReport {
    /// True when no error-severity diagnostic was emitted and no dynamic
    /// check observed a PreM violation.
    pub fn passed(&self) -> bool {
        self.verification.is_clean() && self.prem.iter().all(|p| p.evidence.supports_prem())
    }
}

impl RaSqlContext {
    /// Verify a query without executing it: stratification and safety
    /// diagnostics, static PreM proofs with dynamic fallback, and the
    /// decomposed-plan partition certificate. Accepts either a plain query
    /// or one already prefixed with `CHECK`.
    pub fn check(&self, sql: &str) -> Result<CheckReport, EngineError> {
        let stmt = parse(sql)?;
        let q = match stmt {
            Statement::Check(q) | Statement::Query(q) => q,
            // A materialized view's maintenance certificate lives on its
            // defining query — CHECK reaches through to it.
            Statement::CreateMaterializedView { query, .. } => query,
            Statement::CreateView { .. }
            | Statement::Explain { .. }
            | Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::RefreshMaterializedView { .. }
            | Statement::DropMaterializedView { .. } => {
                return Err(EngineError::Other(
                    "CHECK applies to queries (not DDL or DML statements)".into(),
                ))
            }
        };
        let (report, _) = self.check_report(&q, sql, &mut Scope::default())?;
        Ok(report)
    }

    /// Verify every query statement of a `;`-separated script, *executing*
    /// `CREATE VIEW` statements so later queries see their schemas (queries
    /// themselves are never executed). Returns one report per query
    /// statement — the engine behind the shell's `\lint` and
    /// `reproduce lint`.
    pub fn lint_script(&self, sql: &str) -> Result<Vec<CheckReport>, EngineError> {
        let mut reports = Vec::new();
        read_script(sql, &mut Scope::default(), |stmt, scope| {
            match stmt {
                Statement::Query(q) | Statement::Check(q) => {
                    reports.push(self.check_report(q, sql, scope)?.0);
                }
                // Planning a view lands it in the shared catalog.
                Statement::CreateView { .. } => {
                    self.plan(stmt, scope)?;
                }
                // Lint never executes queries, so a materialized view is
                // checked (its defining query) and its *schema* registered so
                // later statements resolve — from the check's analysis,
                // without materializing or analyzing anything again.
                Statement::CreateMaterializedView { name, query, .. } => {
                    let (report, analyzed) = self.check_report(query, sql, scope)?;
                    reports.push(report);
                    if let Some(aq) = analyzed {
                        self.add_planner_table(name, aq.final_plan.schema());
                    }
                }
                Statement::Explain { .. }
                | Statement::Insert { .. }
                | Statement::Delete { .. }
                | Statement::RefreshMaterializedView { .. }
                | Statement::DropMaterializedView { .. } => {}
            }
            Ok(())
        })?;
        Ok(reports)
    }

    /// `CHECK q` in `scope`, without running it as a statement; with the
    /// check's analysis of `q`, when it analyzed.
    fn check_report(
        &self,
        q: &Query,
        source: &str,
        scope: &mut Scope<'_>,
    ) -> Result<(CheckReport, Option<AnalyzedQuery>), EngineError> {
        let planned = self.plan(&Statement::Check(q.clone()), scope)?;
        let report = self.run_check(planned.verification, planned.checked.as_ref(), source);
        Ok((report, planned.checked.and_then(Result::ok)))
    }

    /// The shared `CHECK` implementation over the static `verification` of a
    /// query and `checked`, the analysis `verification` was made from:
    /// `source` is the text the query's spans index into.
    pub(crate) fn run_check(
        &self,
        verification: VerifyReport,
        checked: Option<&Result<AnalyzedQuery, PlanError>>,
        source: &str,
    ) -> CheckReport {
        // Dynamic fallback: run the lock-step checker once if any obligation
        // is statically unknown, and share the outcome across those columns.
        let any_unknown = verification
            .views
            .iter()
            .flat_map(|v| &v.prem)
            .any(|o| o.verdict == StaticVerdict::Unknown);
        let dynamic_outcome = checked.filter(|_| any_unknown).map(|analysis| {
            let checker = PremChecker::new(self);
            (analysis.clone().map_err(EngineError::from))
                .and_then(|q| {
                    checker.check_analyzed(optimize_statement(AnalyzedStatement::Query(q)))
                })
                .unwrap_or_else(|e| PremCheckOutcome::Inconclusive(e.to_string()))
        });

        let mut prem = Vec::new();
        for view in &verification.views {
            for o in &view.prem {
                let evidence = match o.verdict {
                    StaticVerdict::Unknown => PremEvidence::Dynamic {
                        outcome: dynamic_outcome
                            .clone()
                            .unwrap_or_else(|| PremCheckOutcome::Inconclusive("not run".into())),
                    },
                    verdict => PremEvidence::Static {
                        verdict,
                        reason: o.reason.clone(),
                    },
                };
                prem.push(PremColumnEvidence {
                    view: o.view.clone(),
                    column: o.column.clone(),
                    func: o.func,
                    evidence,
                });
            }
        }

        let rendered = render_report(&verification, &prem, source);
        CheckReport {
            verification,
            prem,
            rendered,
        }
    }
}

fn render_report(verification: &VerifyReport, prem: &[PremColumnEvidence], source: &str) -> String {
    let mut out = String::new();
    for d in &verification.diagnostics {
        out.push_str(&d.render(source));
    }
    if !prem.is_empty() {
        out.push_str("PreM evidence:\n");
        for p in prem {
            out.push_str(&format!(
                "  {}.{} ({}): {}\n",
                p.view,
                p.column,
                p.func,
                describe_evidence(&p.evidence)
            ));
        }
    }
    for v in &verification.views {
        if let Some(c) = &v.certificate {
            out.push_str(&format!("Certificate {}: {}\n", v.name, c));
        }
    }
    if !verification.maintenance.is_empty() {
        out.push_str("Maintenance:\n");
        for d in &verification.maintenance {
            out.push_str(&d.render(source));
        }
    }
    let errors = verification.error_count();
    let warnings = verification
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let violated = prem.iter().any(|p| !p.evidence.supports_prem());
    let pass = errors == 0 && !violated;
    out.push_str(&format!(
        "CHECK: {} ({errors} error(s), {warnings} warning(s)) \
         [RA#### = query diagnostics; engine-source lint is RL####, see `reproduce lint-src`]\n",
        if pass { "pass" } else { "FAIL" }
    ));
    out
}

fn describe_evidence(e: &PremEvidence) -> String {
    match e {
        PremEvidence::Static { verdict, reason } => {
            format!("statically {verdict} — {reason}")
        }
        PremEvidence::Dynamic { outcome } => format!(
            "statically Unknown → dynamic: {}",
            describe_outcome(outcome)
        ),
    }
}

fn describe_outcome(o: &PremCheckOutcome) -> String {
    match o {
        PremCheckOutcome::Holds { iterations } => {
            format!("holds on the registered data ({iterations} iterations)")
        }
        PremCheckOutcome::HeldWithinBound { iterations } => {
            format!("held within bound ({iterations} iterations compared)")
        }
        PremCheckOutcome::Violated { iteration, detail } => {
            format!("VIOLATED at iteration {iteration}: {detail}")
        }
        PremCheckOutcome::Inconclusive(msg) => format!("inconclusive — {msg}"),
    }
}
