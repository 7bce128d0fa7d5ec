//! Structured, spanned diagnostics for the static query verifier.
//!
//! Every finding the verifier produces is a [`Diagnostic`]: a stable
//! [`DiagCode`] (`RA####`), a [`Severity`], a byte-offset [`Span`] into the
//! original SQL, a message, and optional help text. Diagnostics render either
//! compactly (`error[RA0001] at bytes 12..34: ...`) or — when the source text
//! is available — as an annotated snippet with a caret underline, the way
//! `rustc` points at code.
//!
//! The code space is partitioned by concern:
//!
//! | range | concern |
//! |---|---|
//! | `RA00xx` | stratification / safety / analysis errors |
//! | `RA01xx` | PreM (pre-mappability) verdicts |
//! | `RA02xx` | decomposed-plan partition certificates |
//! | `RA03xx` | incremental view-maintenance certificates |

use rasql_parser::Span;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a proof went through.
    Info,
    /// The verifier could not decide; execution may still be correct.
    Warning,
    /// The query is unsafe or provably wrong under recursive evaluation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes emitted by the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `RA0001`: negation applied to a recursive relation inside recursion.
    NegationInRecursion,
    /// `RA0002`: non-monotone construct (aggregate call, `GROUP BY`,
    /// `DISTINCT`) over a recursive relation inside recursion.
    NonMonotoneConstruct,
    /// `RA0003`: an aggregate not admitted in recursive heads (`avg`).
    DisallowedHeadAggregate,
    /// `RA0004`: the query failed analysis; the verifier reports the error
    /// with whatever position information it has.
    AnalysisError,
    /// `RA0101`: a PreM obligation was proven statically.
    PremProven,
    /// `RA0102`: a PreM obligation was refuted statically — the aggregate
    /// cannot be pushed into recursion.
    PremRefuted,
    /// `RA0103`: the static conditions are inconclusive; dynamic validation
    /// (the lock-step checker) is the fallback.
    PremUnknown,
    /// `RA0201`: the partition-preservation certificate holds — the plan is
    /// eligible for decomposed evaluation.
    CertificatePreserved,
    /// `RA0202`: the certificate does not hold; the plan runs with
    /// shuffle-based evaluation.
    CertificateNotPreserved,
    /// `RA0301`: incremental maintenance of a materialized view over this
    /// query is unsound — a refresh must fully recompute. Emitted for
    /// non-idempotent head aggregates (`sum`/`count`), non-Proven PreM
    /// verdicts, and mutual/stratified recursion.
    MaintenanceUnsound,
}

impl DiagCode {
    /// The stable `RA####` code string.
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::NegationInRecursion => "RA0001",
            DiagCode::NonMonotoneConstruct => "RA0002",
            DiagCode::DisallowedHeadAggregate => "RA0003",
            DiagCode::AnalysisError => "RA0004",
            DiagCode::PremProven => "RA0101",
            DiagCode::PremRefuted => "RA0102",
            DiagCode::PremUnknown => "RA0103",
            DiagCode::CertificatePreserved => "RA0201",
            DiagCode::CertificateNotPreserved => "RA0202",
            DiagCode::MaintenanceUnsound => "RA0301",
        }
    }

    /// The severity this code carries.
    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::NegationInRecursion
            | DiagCode::NonMonotoneConstruct
            | DiagCode::DisallowedHeadAggregate
            | DiagCode::AnalysisError
            | DiagCode::PremRefuted => Severity::Error,
            DiagCode::PremUnknown | DiagCode::MaintenanceUnsound => Severity::Warning,
            DiagCode::PremProven
            | DiagCode::CertificatePreserved
            | DiagCode::CertificateNotPreserved => Severity::Info,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One verifier finding, anchored to the original SQL text.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (defaults to the code's severity).
    pub severity: Severity,
    /// Byte-offset span into the source the statement was parsed from;
    /// synthetic when no position is known.
    pub span: Span,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional guidance on how to address it.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no help text.
    pub fn new(code: DiagCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach help text.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Render against the original source: a `rustc`-style snippet with the
    /// span underlined. Falls back to the compact form for synthetic spans.
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if !self.span.is_synthetic() && (self.span.end as usize) <= source.len() {
            let (line, col) = self.span.line_col(source);
            out.push_str(&format!("  --> {} (line {line}, col {col})\n", self.span));
            out.push_str(&render_snippet(source, self.span, line, col));
        } else if !self.span.is_synthetic() {
            out.push_str(&format!("  --> {}\n", self.span));
        }
        if let Some(h) = &self.help {
            out.push_str(&format!("  = help: {h}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    /// Compact, source-free rendering: `error[RA0001] at bytes 12..34: msg`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if !self.span.is_synthetic() {
            write!(f, " at {}", self.span)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The `  N | source line` / caret-underline block for a span at (1-based)
/// `line`, `col` of `source`. Multi-line spans underline to the end of the
/// first line.
fn render_snippet(source: &str, span: Span, line: u32, col: u32) -> String {
    let start = span.start as usize;
    let line_start = source[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let line_end = source[start..]
        .find('\n')
        .map(|p| start + p)
        .unwrap_or(source.len());
    let text = &source[line_start..line_end];
    let underline_len = ((span.end as usize).min(line_end) - start).max(1);
    let gutter = format!("{line}");
    let pad = " ".repeat(gutter.len());
    format!(
        "{pad} |\n{gutter} | {text}\n{pad} | {}{}\n",
        " ".repeat(col.saturating_sub(1) as usize),
        "^".repeat(underline_len),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(DiagCode::NegationInRecursion.code(), "RA0001");
        assert_eq!(DiagCode::PremRefuted.code(), "RA0102");
        assert_eq!(DiagCode::CertificatePreserved.code(), "RA0201");
        assert_eq!(DiagCode::MaintenanceUnsound.code(), "RA0301");
        assert_eq!(DiagCode::PremUnknown.severity(), Severity::Warning);
        assert_eq!(DiagCode::MaintenanceUnsound.severity(), Severity::Warning);
    }

    #[test]
    fn render_underlines_the_span() {
        let src = "SELECT a FROM t WHERE NOT b";
        let d = Diagnostic::new(
            DiagCode::NegationInRecursion,
            Span::new(22, 27),
            "negation in recursion",
        )
        .with_help("stratify the query");
        let r = d.render(src);
        assert!(r.contains("error[RA0001]"), "{r}");
        assert!(r.contains("bytes 22..27"), "{r}");
        assert!(r.contains("^^^^^"), "{r}");
        assert!(r.contains("= help: stratify the query"), "{r}");
    }

    #[test]
    fn compact_display() {
        let d = Diagnostic::new(DiagCode::PremProven, Span::synthetic(), "ok");
        assert_eq!(d.to_string(), "info[RA0101]: ok");
    }
}
