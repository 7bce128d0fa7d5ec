//! Golden tests for the static query verifier: stable `RA####` codes,
//! byte-offset spans, certificate verdicts, and the `CHECK` / `EXPLAIN`
//! surfaces. The span assertions are pinned against the fixture text itself
//! (`Span::text`), so a lexer regression that shifts offsets fails loudly.

use rasql_core::{
    library, DiagCode, PremCheckOutcome, PremEvidence, RaSqlContext, Severity, StaticVerdict,
};
use rasql_storage::{DataType, Relation, Row, Schema, Value};

fn ctx_with_graph() -> RaSqlContext {
    let ctx = RaSqlContext::in_memory();
    let schema = Schema::new(vec![
        ("Src", DataType::Int),
        ("Dst", DataType::Int),
        ("Cost", DataType::Double),
    ]);
    let rows = vec![
        Row::new(vec![Value::Int(1), Value::Int(2), Value::Double(1.0)]),
        Row::new(vec![Value::Int(2), Value::Int(3), Value::Double(2.0)]),
        Row::new(vec![Value::Int(3), Value::Int(1), Value::Double(4.0)]),
    ];
    ctx.register("edge", Relation::try_new(schema, rows).unwrap())
        .unwrap();
    ctx
}

// --------------------------------------------------------------------
// Positive goldens: the paper's example queries verify statically.
// --------------------------------------------------------------------

#[test]
fn library_graph_queries_verify_statically_proven() {
    let ctx = ctx_with_graph();
    for sql in [
        library::sssp(1),
        library::cc(),
        library::reach(1),
        library::apsp(),
        library::transitive_closure(),
    ] {
        let report = ctx.check(&sql).unwrap();
        assert!(report.passed(), "{sql}\n{}", report.rendered);
        assert!(report.verification.is_clean(), "{sql}\n{}", report.rendered);
        // No obligation needed the dynamic fallback.
        for p in &report.prem {
            match &p.evidence {
                PremEvidence::Static { verdict, .. } => {
                    assert_eq!(*verdict, StaticVerdict::Proven, "{}.{}", p.view, p.column);
                }
                PremEvidence::Dynamic { .. } => {
                    panic!("{}.{} fell back to the dynamic checker", p.view, p.column)
                }
            }
        }
        assert!(
            report.rendered.contains("CHECK: pass"),
            "{}",
            report.rendered
        );
    }
}

#[test]
fn sssp_report_is_golden() {
    let ctx = ctx_with_graph();
    let sql = library::sssp(1);
    let report = ctx.check(&sql).unwrap();

    // Exactly one obligation: path.Cost under min().
    assert_eq!(report.prem.len(), 1);
    let p = &report.prem[0];
    assert_eq!(p.view, "path");
    assert_eq!(p.column, "Cost");

    // The RA0101 diagnostic is anchored on the head-column declaration.
    let d = diag(&report.verification.diagnostics, DiagCode::PremProven);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.span.text(&sql), "min() AS Cost");
    assert_eq!(d.span.start as usize, sql.find("min() AS Cost").unwrap());

    // SSSP's head key (`edge.Dst`) is produced by the join, not passed
    // through from `path`, so the certificate is informationally unprovable.
    let c = diag(
        &report.verification.diagnostics,
        DiagCode::CertificateNotPreserved,
    );
    assert_eq!(c.severity, Severity::Info);
    assert!(
        report
            .rendered
            .contains("Certificate path: not-preserved(no key column passes"),
        "{}",
        report.rendered
    );
    assert!(report
        .rendered
        .contains("CHECK: pass (0 error(s), 0 warning(s))"));
}

#[test]
fn apsp_certificate_is_preserved_ra0201() {
    let ctx = ctx_with_graph();
    let sql = library::apsp();
    let report = ctx.check(&sql).unwrap();

    // APSP passes `path.Src` through every recursive branch unchanged: the
    // certificate proves partition preservation on key column 0.
    let c = diag(
        &report.verification.diagnostics,
        DiagCode::CertificatePreserved,
    );
    assert_eq!(c.severity, Severity::Info);
    assert_eq!(c.span.text(&sql), "path");
    assert!(
        report.rendered.contains("Certificate path: preserved[0]"),
        "{}",
        report.rendered
    );

    // Plan selection consults the same certificate: the dump agrees.
    let plan = ctx.explain(&sql).unwrap();
    assert!(plan.contains("certificate=preserved[0]"), "{plan}");
}

// --------------------------------------------------------------------
// Negative goldens: exact codes, severities, and spans.
// --------------------------------------------------------------------

#[test]
fn negation_in_recursion_is_ra0001_with_span() {
    let ctx = ctx_with_graph();
    let sql = "WITH recursive tc (Src, Dst) AS \
                 (SELECT Src, Dst FROM edge) UNION \
                 (SELECT tc.Src, edge.Dst FROM tc, edge \
                  WHERE tc.Dst = edge.Src AND NOT tc.Src) \
               SELECT Src, Dst FROM tc";
    let report = ctx.check(sql).unwrap();
    assert!(!report.passed(), "{}", report.rendered);

    let d = diag(
        &report.verification.diagnostics,
        DiagCode::NegationInRecursion,
    );
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span.text(sql), "NOT tc.Src");
    assert_eq!(d.span.start as usize, sql.find("NOT tc.Src").unwrap());
    assert!(d.message.contains("`tc`"), "{}", d.message);
    assert!(d.help.as_deref().unwrap_or("").contains("stratify"));

    // The rendered report carries the code, the byte offsets, and a caret.
    assert!(
        report.rendered.contains("error[RA0001]"),
        "{}",
        report.rendered
    );
    let (a, b) = (d.span.start, d.span.end);
    assert!(
        report.rendered.contains(&format!("bytes {a}..{b}")),
        "{}",
        report.rendered
    );
    assert!(
        report.rendered.contains("^^^^^^^^^^"),
        "{}",
        report.rendered
    );
    assert!(
        report.rendered.contains("CHECK: FAIL"),
        "{}",
        report.rendered
    );
}

#[test]
fn antitone_value_under_min_is_ra0102_refuted() {
    let ctx = ctx_with_graph();
    let sql = "WITH recursive path (Dst, min() AS Cost) AS \
                 (SELECT 1, 0.0) UNION \
                 (SELECT edge.Dst, 100 - path.Cost FROM path, edge \
                  WHERE path.Dst = edge.Src) \
               SELECT Dst, Cost FROM path";
    let report = ctx.check(sql).unwrap();
    assert!(!report.passed(), "{}", report.rendered);

    let d = diag(&report.verification.diagnostics, DiagCode::PremRefuted);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.span.text(sql), "min() AS Cost");
    assert_eq!(d.span.start as usize, sql.find("min() AS Cost").unwrap());

    // Refutation is static evidence — the dynamic checker must NOT run.
    assert_eq!(report.prem.len(), 1);
    match &report.prem[0].evidence {
        PremEvidence::Static { verdict, .. } => assert_eq!(*verdict, StaticVerdict::Refuted),
        PremEvidence::Dynamic { .. } => panic!("refuted obligation fell back to dynamic"),
    }
    assert!(
        report.rendered.contains("error[RA0102]"),
        "{}",
        report.rendered
    );
    assert!(
        report.rendered.contains("statically Refuted"),
        "{}",
        report.rendered
    );
    assert!(
        report.rendered.contains("CHECK: FAIL"),
        "{}",
        report.rendered
    );
}

#[test]
fn partition_breaking_key_is_ra0202_not_preserved() {
    let ctx = ctx_with_graph();
    // The head key column is recomputed (`r.Dst + 1`), so no key passes
    // through the recursive branch unchanged: shuffle-based evaluation.
    let sql = "WITH recursive r (Dst, min() AS Cost) AS \
                 (SELECT 1, 0.0) UNION \
                 (SELECT r.Dst + 1, r.Cost + edge.Cost FROM r, edge \
                  WHERE r.Dst = edge.Src) \
               SELECT Dst, Cost FROM r";
    let report = ctx.check(sql).unwrap();

    let d = diag(
        &report.verification.diagnostics,
        DiagCode::CertificateNotPreserved,
    );
    // An unprovable certificate is informational, not an error: the plan
    // simply runs with shuffles.
    assert_eq!(d.severity, Severity::Info);
    assert!(report.passed(), "{}", report.rendered);
    assert!(
        report.rendered.contains("Certificate r: not-preserved"),
        "{}",
        report.rendered
    );

    // Plan selection consults the same certificate: the dump says shuffle.
    let plan = ctx.explain(sql).unwrap();
    assert!(plan.contains("certificate=not-preserved"), "{plan}");
}

// --------------------------------------------------------------------
// Statement surfaces: CHECK, EXPLAIN, lint_script.
// --------------------------------------------------------------------

#[test]
fn check_statement_returns_report_relation() {
    let ctx = ctx_with_graph();
    let result = ctx.query(&format!("CHECK {}", library::sssp(1))).unwrap();
    assert_eq!(result.relation.schema().names(), vec!["check"]);
    let lines: Vec<String> = result
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert!(
        lines.iter().any(|l| l.contains("info[RA0101]")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("info[RA0202]")),
        "{lines:?}"
    );
    assert!(lines.last().unwrap().contains("CHECK: pass"), "{lines:?}");
}

#[test]
fn explain_includes_verification_section() {
    let ctx = ctx_with_graph();
    let text = ctx.explain(&library::apsp()).unwrap();
    assert!(text.contains("Verification:"), "{text}");
    assert!(text.contains("path: PreM min(Cost) Proven"), "{text}");
    assert!(
        text.contains("partition certificate preserved[0]"),
        "{text}"
    );
    assert!(text.contains("verdict: 0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn lint_script_checks_queries_and_executes_views() {
    let ctx = ctx_with_graph();
    // interval_coalesce-style script: a CREATE VIEW a later query depends on.
    let script = "CREATE VIEW hop AS SELECT Src, Dst FROM edge; \
                  SELECT Src FROM hop";
    let reports = ctx.lint_script(script).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].passed(), "{}", reports[0].rendered);
}

fn diag(diags: &[rasql_core::Diagnostic], code: DiagCode) -> &rasql_core::Diagnostic {
    diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} diagnostic in {diags:?}"))
}

// --------------------------------------------------------------------
// Analysis errors (RA0004) and the order of findings.
// --------------------------------------------------------------------

/// A recursive TC whose loop joins an unknown table `hop` and negates the
/// recursive relation: analysis fails, the AST finding still stands.
const UNANALYZABLE_TC: &str = "WITH recursive tc (Src, Dst) AS \
       (SELECT Src, Dst FROM edge) UNION \
       (SELECT tc.Src, hop.Dst FROM tc, hop \
        WHERE tc.Dst = hop.Src AND NOT tc.Src) \
     SELECT Src, Dst FROM tc";

#[test]
fn check_of_an_unanalyzable_query_is_ra0004_after_its_spanned_findings() {
    let ctx = ctx_with_graph();
    for sql in [
        UNANALYZABLE_TC.to_string(),
        format!("CHECK {UNANALYZABLE_TC}"),
    ] {
        let report = ctx.check(&sql).unwrap();
        assert!(!report.passed(), "{}", report.rendered);
        let codes: Vec<DiagCode> = (report.verification.diagnostics.iter())
            .map(|d| d.code)
            .collect();
        assert_eq!(
            codes,
            vec![DiagCode::NegationInRecursion, DiagCode::AnalysisError],
            "{}",
            report.rendered
        );
        let negation = diag(
            &report.verification.diagnostics,
            DiagCode::NegationInRecursion,
        );
        assert_eq!(negation.span.text(&sql), "NOT tc.Src");
        let analysis = diag(&report.verification.diagnostics, DiagCode::AnalysisError);
        assert_eq!(analysis.severity, Severity::Error);
        assert!(analysis.span.is_synthetic());
        assert_eq!(
            analysis.message,
            "analysis failed: unknown table or view 'hop'"
        );
        assert_eq!(
            analysis.help.as_deref(),
            Some("fix the analysis error; spanned findings above still apply")
        );
        // No analysis, no certificate.
        assert!(report
            .verification
            .views
            .iter()
            .all(|v| v.certificate.is_none()));
        assert!(
            report.rendered.contains("error[RA0004]: analysis failed"),
            "{}",
            report.rendered
        );
        assert!(
            report
                .rendered
                .contains("CHECK: FAIL (2 error(s), 0 warning(s))"),
            "{}",
            report.rendered
        );
    }
    // The statement surface renders the same report.
    let result = ctx.query(&format!("CHECK {UNANALYZABLE_TC}")).unwrap();
    let lines: Vec<&str> = (result.relation.rows().iter())
        .map(|r| r[0].as_str().unwrap())
        .collect();
    assert!(
        lines.iter().any(|l| l.contains("error[RA0001]")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("error[RA0004]")),
        "{lines:?}"
    );
}

#[test]
fn dynamic_fallback_of_an_unanalyzable_query_reports_the_analysis_error() {
    let ctx = ctx_with_graph();
    // `abs(path.Cost)` has no syntactic monotonicity proof: Unknown, so the
    // dynamic checker is asked, and it cannot run without an analysis.
    let sql = "WITH recursive path (Dst, min() AS Cost) AS \
                 (SELECT 1, 0.0) UNION \
                 (SELECT hop.Dst, abs(path.Cost) FROM path, hop \
                  WHERE path.Dst = hop.Src) \
               SELECT Dst, Cost FROM path";
    let report = ctx.check(sql).unwrap();
    let codes: Vec<DiagCode> = (report.verification.diagnostics.iter())
        .map(|d| d.code)
        .collect();
    assert_eq!(
        codes,
        vec![DiagCode::PremUnknown, DiagCode::AnalysisError],
        "{}",
        report.rendered
    );
    assert_eq!(report.prem.len(), 1);
    match &report.prem[0].evidence {
        PremEvidence::Dynamic {
            outcome: PremCheckOutcome::Inconclusive(msg),
        } => assert_eq!(msg, "unknown table or view 'hop'"),
        other => panic!("expected an inconclusive dynamic check, got {other:?}"),
    }
    assert!(
        report.rendered.contains(
            "path.Cost (min): statically Unknown → dynamic: inconclusive — \
             unknown table or view 'hop'"
        ),
        "{}",
        report.rendered
    );
}

/// `(code, span)` of every finding of `CHECK sql`, diagnostics then
/// maintenance findings, in report order.
fn findings(ctx: &RaSqlContext, sql: &str) -> Vec<String> {
    let report = ctx.check(sql).unwrap();
    let line = |d: &rasql_core::Diagnostic| {
        if d.span.is_synthetic() {
            format!("{} -", d.code)
        } else {
            format!("{} {:?}", d.code, d.span.text(sql))
        }
    };
    let v = &report.verification;
    let mut out: Vec<String> = v.diagnostics.iter().map(line).collect();
    out.push("--".into());
    out.extend(v.maintenance.iter().map(line));
    out
}

#[test]
fn check_findings_keep_their_order() {
    let ctx = ctx_with_graph();
    let table = |name: &str, cols: Vec<(&str, DataType)>, rows: Vec<Row>| {
        ctx.register(name, Relation::try_new(Schema::new(cols), rows).unwrap())
            .unwrap();
    };
    let s = |v: &str| Value::from(v);
    table(
        "organizer",
        vec![("OrgName", DataType::Str)],
        vec![Row::new(vec![s("a")])],
    );
    table(
        "friend",
        vec![("Pname", DataType::Str), ("FName", DataType::Str)],
        vec![Row::new(vec![s("a"), s("b")])],
    );
    table(
        "shares",
        vec![
            ("By", DataType::Str),
            ("Of", DataType::Str),
            ("Percent", DataType::Double),
        ],
        vec![Row::new(vec![s("a"), s("b"), Value::Double(60.0)])],
    );

    // Mutual recursion with count() and a threshold on it.
    assert_eq!(
        findings(&ctx, &library::party_attendance()),
        [
            "RA0101 \"count() AS Ncount\"",
            "RA0202 \"attend\"",
            "RA0202 \"cntfriends\"",
            "--",
            "RA0301 \"attend\"",
            "RA0301 \"count() AS Ncount\"",
        ],
    );
    // Mutual recursion with sum().
    assert_eq!(
        findings(&ctx, &library::company_control()),
        [
            "RA0101 \"sum() AS Tot\"",
            "RA0202 \"cshares\"",
            "RA0202 \"control\"",
            "--",
            "RA0301 \"cshares\"",
            "RA0301 \"sum() AS Tot\"",
        ],
    );
    // Two cliques, the first declared reading the second: the verifier
    // reports them in declaration order, the certificates come in
    // evaluation order, and the later clique is the stratified one.
    let two_cliques = "WITH recursive path (Dst, min() AS Cost) AS \
                         (SELECT Dst, 0.0 FROM reach) UNION \
                         (SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge \
                          WHERE path.Dst = edge.Src), \
                       recursive reach (Dst) AS \
                         (SELECT 1) UNION \
                         (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src) \
                       SELECT Dst, Cost FROM path";
    assert_eq!(
        findings(&ctx, two_cliques),
        [
            "RA0101 \"min() AS Cost\"",
            "RA0202 \"reach\"",
            "RA0202 \"path\"",
            "--",
            "RA0301 \"reach\"",
        ],
    );
}
