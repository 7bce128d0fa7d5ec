//! Golden tests for the `RL####` lint rules.
//!
//! Each fixture under `tests/fixtures/` is linted under a *virtual* path —
//! the workspace path the rule covers — and the findings are pinned down to
//! their codes and byte-offset spans. If a rule's detection pattern drifts
//! (different span, missed construct, new false positive), these fail
//! loudly with the exact offsets.
//!
//! The last test is the self-check the tier-1 gate relies on: the live
//! workspace must lint clean while these same fixtures trip every rule.

use rasql_lint::{lint_file, lint_file_counting, lint_workspace, LintCode};
use std::path::Path;

#[test]
fn rl0006_flags_whole_buffer_row_copies_in_read_path_modules() {
    let src = include_str!("fixtures/rl0006_row_copies.rs");
    let (diags, suppressed) = lint_file_counting("crates/core/src/wire.rs", src);
    let got: Vec<_> = diags
        .iter()
        .map(|d| (d.code, d.span.start, d.span.end))
        .collect();
    assert_eq!(
        got,
        vec![
            (LintCode::ReadPathRowCopy, 211, 225), // .rows().to_vec(
            (LintCode::ReadPathRowCopy, 307, 319), // rows.to_vec(
            (LintCode::ReadPathRowCopy, 445, 458), // chunk.to_vec(
        ],
        "{diags:#?}"
    );
    // The sliced `rows()[n..].to_vec()` is not a whole-buffer copy; the
    // annotated copy is suppressed; the #[cfg(test)] one is skipped outright.
    assert_eq!(suppressed, 1);
    assert_eq!(&src[211..225], "rows().to_vec(");
    assert_eq!(&src[307..319], "rows.to_vec(");
    assert_eq!(&src[445..458], "chunk.to_vec(");
}

#[test]
fn rl0006_only_covers_read_path_modules() {
    let src = include_str!("fixtures/rl0006_row_copies.rs");
    for path in [
        "crates/core/src/eval.rs",
        "crates/core/src/fixpoint/mod.rs",
        "crates/core/src/fixpoint/strategy.rs",
        "crates/core/src/wire.rs",
        "crates/core/src/context.rs",
        "crates/server/src/conn.rs",
    ] {
        assert_eq!(lint_file(path, src).len(), 3, "{path} is covered");
    }
    for path in [
        "crates/exec/src/dataset.rs", // owns the charged remote-read copy
        "crates/storage/src/catalog.rs",
        "crates/core/src/matview.rs",
        "crates/bench/src/lib.rs",
    ] {
        assert!(lint_file(path, src).is_empty(), "{path} is not covered");
    }
}

#[test]
fn rl0008_flags_index_builds_in_core_outside_the_store_feeder() {
    let src = include_str!("fixtures/rl0008_index_builds.rs");
    let (diags, suppressed) = lint_file_counting("crates/core/src/kernel.rs", src);
    let spans: Vec<_> = diags
        .iter()
        .map(|d| (d.code, d.span.start, d.span.end))
        .collect();
    assert_eq!(
        spans,
        vec![
            (LintCode::IndexBuiltOutsideStore, 296, 311),
            (LintCode::IndexBuiltOutsideStore, 408, 425),
            (LintCode::IndexBuiltOutsideStore, 538, 554),
            (LintCode::IndexBuiltOutsideStore, 1111, 1134),
            (LintCode::IndexBuiltOutsideStore, 1366, 1383),
        ],
        "{diags:#?}"
    );
    assert_eq!(&src[296..311], "partition_rows(");
    assert_eq!(&src[408..425], "HashTable::build(");
    assert_eq!(&src[538..554], "CsrGraph::build(");
    assert_eq!(&src[1111..1134], "WordTable::from_tuples(");
    assert_eq!(&src[1366..1383], "WordIndex::build(");
    // The annotated broadcast build is suppressed, the test module exempt.
    assert_eq!(suppressed, 1);
    assert!(diags[0].help.as_deref().unwrap().contains("fetch_index"));
    // The store's feeder itself, and every other crate, may build.
    for path in ["crates/core/src/index.rs", "crates/exec/src/join.rs"] {
        assert!(lint_file(path, src).is_empty(), "{path} is not covered");
    }
}

#[test]
fn rl0011_flags_statement_bookkeeping_outside_its_lifecycle_function() {
    let src = include_str!("fixtures/rl0011_statement_lifecycle.rs");
    let (diags, suppressed) = lint_file_counting("crates/core/src/context.rs", src);
    let spans: Vec<_> = diags
        .iter()
        .map(|d| (d.code, d.span.start, d.span.end))
        .collect();
    assert_eq!(
        spans,
        vec![
            (LintCode::StatementOutsideLifecycle, 912, 925),
            (LintCode::StatementOutsideLifecycle, 995, 1008),
            (LintCode::StatementOutsideLifecycle, 1078, 1096),
            (LintCode::StatementOutsideLifecycle, 1114, 1126),
        ],
        "{diags:#?}"
    );
    assert_eq!(&src[912..925], "Instant::now(");
    assert_eq!(&src[995..1008], "EvalContext {");
    assert_eq!(&src[1078..1096], ".snapshot().since(");
    assert_eq!(&src[1114..1126], "QueryStats {");
    // Each owner does its own piece and is exempt — `execute` from inside a
    // closure too; the struct, its impl and the return types are no
    // literals; the annotated deadline is suppressed, the test module exempt.
    assert_eq!(suppressed, 1);
    assert!(diags[0].help.as_deref().unwrap().contains("run_statement"));
    assert!(
        diags[2].message.contains("`execute`"),
        "{}",
        diags[2].message
    );
    // Only `core::context` is covered.
    for path in ["crates/core/src/eval.rs", "crates/core/src/session.rs"] {
        let other: Vec<_> = lint_file(path, src)
            .into_iter()
            .filter(|d| d.code == LintCode::StatementOutsideLifecycle)
            .collect();
        assert!(other.is_empty(), "{path} is not covered");
    }
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    let src = include_str!("fixtures/clean.rs");
    for path in [
        "crates/exec/src/pipeline.rs",
        "crates/core/src/context.rs",
        "crates/core/src/wire.rs",
        "crates/core/src/fixpoint/merge.rs",
        "crates/server/src/conn.rs",
    ] {
        let (diags, suppressed) = lint_file_counting(path, src);
        assert!(diags.is_empty(), "{path}: {diags:#?}");
        assert_eq!(suppressed, 0, "nothing to suppress in the clean fixture");
    }
}

#[test]
fn diagnostics_render_rustc_style_with_path_and_caret() {
    let src = include_str!("fixtures/rl0006_row_copies.rs");
    let d = &lint_file("crates/core/src/wire.rs", src)[0];
    let r = d.render(src);
    assert!(r.contains("error[RL0006]"), "{r}");
    assert!(r.contains("crates/core/src/wire.rs:4:21"), "{r}");
    assert!(r.contains("^^^^^^^^^^^^^^"), "{r}");
    assert!(r.contains("= help:"), "{r}");
    // Compact form, plan-diag shaped.
    let compact = d.to_string();
    assert!(
        compact.starts_with("error[RL0006] crates/core/src/wire.rs at bytes 211..225"),
        "{compact}"
    );
}

#[test]
fn live_workspace_lints_clean() {
    // tests/ → crates/lint → crates → repo root
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let report = lint_workspace(root).expect("workspace walk");
    assert!(
        report.is_clean(),
        "the workspace must satisfy its own disciplines:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree and honored real
    // annotations (the seven per-query index builds in core), rather than
    // scanning nothing.
    assert!(
        report.files_scanned >= 60,
        "only {} files",
        report.files_scanned
    );
    assert!(
        report.suppressed >= 7,
        "only {} suppressions",
        report.suppressed
    );
}
