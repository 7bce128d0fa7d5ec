//! Engine-level source linter for the RaSQL workspace.
//!
//! `rasql-lint` scans the workspace's own Rust sources (`crates/*/src`) for
//! violations of the engine's hot-path and single-owner disciplines, and
//! reports them as spanned, `rustc`-style diagnostics with stable `RL####`
//! codes — the source-level sibling of the `RA####` query-diagnostic
//! namespace in `rasql-plan::diag`. It is driven by a hand-rolled
//! token-level lexer ([`lexer`]); there is no `syn` in the build
//! environment, and none of the rules need a full parse.
//!
//! The code space:
//!
//! | code | rule |
//! |---|---|
//! | `RL0006` | whole-buffer row copy (`.rows().to_vec()`, `rows.to_vec()`, `chunk.to_vec()`) in a read-path module (`core::{eval,fixpoint,wire,context}`, `server::conn`) without an allow annotation |
//! | `RL0008` | a join index of base data built outside the store's feeder: `HashTable::build(`, `WordIndex::build(`, `WordTable::from_rows(`/`from_tuples(`/`from_batch(`, `partition_rows(` or `CsrGraph::build(` in `crates/core/src` anywhere but `core::index` — per-query sort-merge, broadcast, seed and recursive-snapshot builds carry an allow annotation saying why they are not kept |
//! | `RL0011` | statement bookkeeping in `core::context` outside the lifecycle function that owns it: a clock (`Instant::now(`) or a `QueryStats {` literal outside `run_statement`, a metrics delta (`.snapshot().since(`) outside `execute`, an `EvalContext {` literal outside `eval_context` — every statement is timed by one clock, measured by one delta, evaluated through one context and reported by one assembly |
//!
//! The codes missing from the table are retired: the checks they made by
//! spelling are made by the toolchain. `clippy.toml`'s `disallowed-methods`
//! rejects raw lock constructors outside `storage::sync`,
//! `std::thread::sleep` and direct durable writes outside `storage::wal`;
//! the hot-path modules deny `clippy::unwrap_used`, `expect_used` and
//! `panic` at their top; a catalog version can only be minted through the
//! `tables` write guard, which owns the counter; and only the module of
//! `core::fixpoint` that holds the round loop (`drive`) can run a round —
//! a `RoundStep`'s round methods take a `Turn` that no other module can
//! make — or reach the trace's round records and the iteration count. The
//! per-tuple disciplines of the hot paths (no row, value or clone built per
//! derived tuple, edge or seed) are not spelled as lists of hot functions:
//! `rasql-core`'s `alloc_budget` test counts what the real code allocates
//! per answer row on the generic, word, row and kernel paths.
//!
//! A finding is suppressed — and counted as suppressed, not silently
//! dropped — by a justification comment on the same line or the line
//! above:
//!
//! ```text
//! // lint: allow(RL0006, the copy is the simulated network transfer)
//! rows.to_vec()
//! ```
//!
//! The reason is mandatory: an `allow` without one does not suppress.
//! Code inside `#[cfg(test)]` modules is out of scope for every rule, as
//! are string literals and comments (the lexer sees through both).
//!
//! Entry points: [`lint_file`] for one source text under a virtual path
//! (what the golden-fixture tests use), [`lint_workspace`] to walk
//! `crates/*/src` from a repo root (what `reproduce lint-src` and the
//! tier-1 gate use).

pub mod lexer;

use lexer::{lex, Token, TokenKind};
use rasql_parser::Span;
use rasql_plan::{render_snippet, Severity};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Stable lint codes. The `RL` prefix keeps the namespace disjoint from the
/// query verifier's `RA####` codes: `RA` diagnostics are about the user's
/// SQL, `RL` diagnostics are about the engine's own source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `RL0006`: a relation's, partition's or frame chunk's rows copied
    /// wholesale (`.rows().to_vec()`, `rows.to_vec()`, `chunk.to_vec()`) in
    /// a read-path module. Row buffers are shared from the catalog scan to
    /// the socket; a copy on that path costs one allocation per row per
    /// query, so each one needs a stated reason.
    ReadPathRowCopy,
    /// `RL0008`: `HashTable::build(`, `WordIndex::build(`, `WordTable::from_…(`,
    /// `partition_rows(` or `CsrGraph::build(`
    /// in `crates/core/src` outside `index.rs`, the one module that feeds
    /// the index store. An index of base data built anywhere else is built
    /// again by the next statement and invalidated by nobody's protocol; a
    /// build that is per query by design (a sort-merge run, the broadcast
    /// that models the network, a snapshot of a recursive relation) says so.
    IndexBuiltOutsideStore,
    /// `RL0011`: statement bookkeeping in `core::context` outside the
    /// lifecycle function that owns it — a clock (`Instant::now(`) or a
    /// `QueryStats {` literal outside `run_statement`, a metrics delta
    /// (`.snapshot().since(`) outside `execute`, an `EvalContext {` literal
    /// outside `eval_context`. Every statement kind runs through the one
    /// lifecycle; a kind that times, measures, evaluates or reports by itself
    /// is a second statement path, and the copies drift (a cache hit and an
    /// `INSERT` once reported no time at all).
    StatementOutsideLifecycle,
}

impl LintCode {
    /// The stable `RL####` code string.
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::ReadPathRowCopy => "RL0006",
            LintCode::IndexBuiltOutsideStore => "RL0008",
            LintCode::StatementOutsideLifecycle => "RL0011",
        }
    }

    /// The severity this code carries. Every discipline rule is an error:
    /// the workspace gates on a clean run, so there is no warning tier.
    pub fn severity(&self) -> Severity {
        Severity::Error
    }

    /// All codes, for `--explain`-style listings.
    pub fn all() -> [LintCode; 3] {
        [
            LintCode::ReadPathRowCopy,
            LintCode::IndexBuiltOutsideStore,
            LintCode::StatementOutsideLifecycle,
        ]
    }

    /// One-line rule description.
    pub fn summary(&self) -> &'static str {
        match self {
            LintCode::ReadPathRowCopy => {
                "whole-buffer row copy in a read-path module without an allow annotation"
            }
            LintCode::IndexBuiltOutsideStore => {
                "join index of base data built in core outside the index store's feeder module"
            }
            LintCode::StatementOutsideLifecycle => {
                "statement clock, metrics delta, EvalContext or QueryStats in core::context \
                 outside its lifecycle function"
            }
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint finding, anchored to a workspace source file. Mirrors
/// `rasql_plan::Diagnostic`, plus the path (the verifier's diagnostics are
/// all about one SQL string; the linter's are spread across a tree).
#[derive(Debug, Clone, PartialEq)]
pub struct LintDiagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (always the code's severity).
    pub severity: Severity,
    /// Workspace-relative path, forward slashes (`crates/exec/src/...`).
    pub path: String,
    /// Byte-offset span into the file's source.
    pub span: Span,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional guidance on how to address it.
    pub help: Option<String>,
}

impl LintDiagnostic {
    /// A diagnostic with the code's severity and no help text.
    pub fn new(
        code: LintCode,
        path: impl Into<String>,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        LintDiagnostic {
            code,
            severity: code.severity(),
            path: path.into(),
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

    /// Render against the file's source: a `rustc`-style snippet with the
    /// span underlined by the verifier's own renderer (`rasql_plan::render_snippet`).
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        if !self.span.is_synthetic() && (self.span.end as usize) <= source.len() {
            let (line, col) = self.span.line_col(source);
            out.push_str(&format!(
                "  --> {}:{line}:{col} ({})\n",
                self.path, self.span
            ));
            out.push_str(&render_snippet(source, self.span, line, col));
        } else {
            out.push_str(&format!("  --> {}\n", self.path));
        }
        if let Some(h) = &self.help {
            out.push_str(&format!("  = help: {h}\n"));
        }
        out
    }
}

impl fmt::Display for LintDiagnostic {
    /// Compact rendering: `error[RL0006] crates/x/src/y.rs at bytes 12..34: msg`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.path)?;
        if !self.span.is_synthetic() {
            write!(f, " at {}", self.span)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Result of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in (path, byte-offset) order.
    pub diagnostics: Vec<LintDiagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by `// lint: allow(...)` annotations.
    pub suppressed: usize,
}

impl LintReport {
    /// True when no diagnostics survived suppression.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// ----------------------------------------------------------------
// Shared scanning machinery
// ----------------------------------------------------------------

/// Byte offsets of every line start, for offset → line mapping.
fn line_starts(src: &str) -> Vec<u32> {
    let mut starts = vec![0u32];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i as u32 + 1);
        }
    }
    starts
}

/// 1-based line number of a byte offset.
fn line_of(starts: &[u32], offset: u32) -> u32 {
    match starts.binary_search(&offset) {
        Ok(i) => i as u32 + 1,
        Err(i) => i as u32,
    }
}

/// `// lint: allow(RL####, reason)` annotations, keyed by the 1-based line
/// the comment sits on. An annotation covers its own line and the next one.
/// The reason is mandatory — `allow(RL0006)` bare, or with an empty reason,
/// suppresses nothing.
fn collect_allows(tokens: &[Token<'_>], starts: &[u32]) -> HashMap<u32, Vec<String>> {
    let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.rfind(')') else {
            continue;
        };
        let args = &args[..close];
        let Some((code, reason)) = args.split_once(',') else {
            continue; // no reason → not a valid suppression
        };
        let code = code.trim();
        if reason.trim().is_empty() || !code.starts_with("RL") {
            continue;
        }
        let line = line_of(starts, t.start);
        allows.entry(line).or_default().push(code.to_string());
    }
    allows
}

/// Is a finding on `line` covered by an allow for `code`? Annotations apply
/// to their own line (trailing comment) and the line directly below.
fn is_allowed(allows: &HashMap<u32, Vec<String>>, line: u32, code: &str) -> bool {
    let hit = |l: u32| allows.get(&l).is_some_and(|v| v.iter().any(|c| c == code));
    hit(line) || (line > 1 && hit(line - 1))
}

/// Byte regions of `#[cfg(test)] mod ... { ... }` blocks; every rule skips
/// them. Attribute chains between the cfg and the `mod` keyword (e.g. an
/// added `#[allow(...)]`) are tolerated.
fn test_mod_regions(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // #[cfg(test)]
        let is_cfg_test = i + 6 < code.len()
            && code[i].is_punct('#')
            && code[i + 1].is_punct('[')
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct('(')
            && code[i + 4].is_ident("test")
            && code[i + 5].is_punct(')')
            && code[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan forward over any further attributes to the item keyword.
        let mut j = i + 7;
        while j < code.len() && code[j].is_punct('#') {
            // Skip a balanced #[...] group.
            let mut depth = 0;
            j += 1;
            while j < code.len() {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j < code.len() && code[j].is_ident("mod") {
            // Find the opening brace, then its match.
            let mut k = j;
            while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
                k += 1;
            }
            if k < code.len() && code[k].is_punct('{') {
                let start = code[i].start;
                let mut depth = 0;
                while k < code.len() {
                    if code[k].is_punct('{') {
                        depth += 1;
                    } else if code[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            regions.push((start, code[k].end));
                            break;
                        }
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i = j.max(i + 1);
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], offset: u32) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset < e)
}

// ----------------------------------------------------------------
// The rules
// ----------------------------------------------------------------

struct FileCtx<'a> {
    path: &'a str,
    /// Code tokens only — comments stripped, indices contiguous.
    code: Vec<Token<'a>>,
    starts: Vec<u32>,
    allows: HashMap<u32, Vec<String>>,
    skip: Vec<(u32, u32)>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let starts = line_starts(src);
        let allows = collect_allows(&tokens, &starts);
        let skip = test_mod_regions(&tokens);
        let code = tokens
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        FileCtx {
            path,
            code,
            starts,
            allows,
            skip,
        }
    }

    /// Emit a finding unless it is inside a test module or suppressed by an
    /// allow annotation; returns whether it was suppressed.
    fn emit(&self, out: &mut Vec<LintDiagnostic>, suppressed: &mut usize, diag: LintDiagnostic) {
        if in_regions(&self.skip, diag.span.start) {
            return;
        }
        let line = line_of(&self.starts, diag.span.start);
        if is_allowed(&self.allows, line, diag.code.code()) {
            *suppressed += 1;
            return;
        }
        out.push(diag);
    }
}

/// For every code token, the innermost named `fn` whose body encloses it, as
/// `(name, index of the body's opening brace)` — fn bodies tracked by brace
/// depth.
fn enclosing_fns<'a>(code: &[Token<'a>]) -> Vec<Option<(&'a str, usize)>> {
    let mut depth = 0u32;
    // (name, opening brace, depth of the body)
    let mut frames: Vec<(&'a str, usize, u32)> = Vec::new();
    let mut pending: Option<&'a str> = None;
    let mut out = Vec::with_capacity(code.len());
    for (i, t) in code.iter().enumerate() {
        if t.is_ident("fn") {
            // `fn name(...)` — a following ident is the name; `fn(` is a
            // function-pointer type and carries no body of interest.
            pending = code
                .get(i + 1)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text);
        } else if t.is_punct(';') && depth == frames.last().map_or(0, |f| f.2) {
            pending = None; // trait method declaration without a body
        } else if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending.take() {
                frames.push((name, i, depth));
            }
        } else if t.is_punct('}') {
            if frames.last().is_some_and(|f| f.2 == depth) {
                frames.pop();
            }
            depth = depth.saturating_sub(1);
        }
        out.push(frames.last().map(|f| (f.0, f.1)));
    }
    out
}

/// Read-path modules covered by RL0006: everything a row passes through
/// between the catalog scan and the socket (`fixpoint/`: every module of the
/// directory).
const READ_PATHS: &[&str] = &[
    "crates/core/src/eval.rs",
    "crates/core/src/fixpoint/",
    "crates/core/src/wire.rs",
    "crates/core/src/context.rs",
    "crates/server/src/conn.rs",
];

/// RL0006: `rows.to_vec()` / `.rows().to_vec()` / `chunk.to_vec()` in a
/// read-path module — the receiver is a whole relation, partition or frame
/// chunk, so the call clones every row in it. A sliced receiver
/// (`rows()[n..].to_vec()`) copies a chosen part and is not matched.
fn rule_read_path_copy(ctx: &FileCtx<'_>, out: &mut Vec<LintDiagnostic>, suppressed: &mut usize) {
    if !READ_PATHS.iter().any(|p| ctx.path.contains(p)) {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if !(t.is_ident("rows") || t.is_ident("chunk")) {
            continue;
        }
        // An optional `()` (the `rows()` accessor), then `.to_vec(`.
        let call = code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && code.get(i + 2).is_some_and(|t| t.is_punct(')'));
        let dot = if call { i + 3 } else { i + 1 };
        if !(code.get(dot).is_some_and(|t| t.is_punct('.'))
            && code.get(dot + 1).is_some_and(|t| t.is_ident("to_vec"))
            && code.get(dot + 2).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let span = Span::new(t.start, code[dot + 2].end);
        ctx.emit(
            out,
            suppressed,
            LintDiagnostic::new(
                LintCode::ReadPathRowCopy,
                ctx.path,
                span,
                format!("`{}` copied wholesale in a read-path module", t.text),
            )
            .with_help(
                "share the buffer instead (`Relation` clones in O(1), `Dataset::scan` views it, \
                 frames encode from borrowed chunks); a justified copy needs \
                 `// lint: allow(RL0006, <reason>)`",
            ),
        );
    }
}

/// RL0008: `HashTable::build(` / `WordIndex::build(` / `WordTable::from_…(`
/// / `partition_rows(` / `CsrGraph::build(` in
/// `crates/core/src` outside `index.rs`. The index store builds, keeps,
/// advances and invalidates join indexes of base data; `core::index` is the
/// one module that feeds it.
fn rule_index_outside_store(
    ctx: &FileCtx<'_>,
    out: &mut Vec<LintDiagnostic>,
    suppressed: &mut usize,
) {
    if !ctx.path.contains("crates/core/src/") || ctx.path.ends_with("crates/core/src/index.rs") {
        return;
    }
    let code = &ctx.code;
    let is = |i: usize, f: &dyn Fn(&Token<'_>) -> bool| code.get(i).is_some_and(f);
    for i in 0..code.len() {
        let t = &code[i];
        // `HashTable::build(` / `WordIndex::build(` / `CsrGraph::build(`,
        // `WordTable::from_rows(` / `from_tuples(` / `from_batch(`, or a
        // `partition_rows(` call.
        let ctor = |f: &Token<'_>| match t.text {
            "HashTable" | "WordIndex" | "CsrGraph" => f.is_ident("build"),
            "WordTable" => ["from_rows", "from_tuples", "from_batch"]
                .iter()
                .any(|name| f.is_ident(name)),
            _ => false,
        };
        let end = if t.kind == TokenKind::Ident
            && is(i + 1, &|t| t.is_punct(':'))
            && is(i + 2, &|t| t.is_punct(':'))
            && is(i + 3, &ctor)
            && is(i + 4, &|t| t.is_punct('('))
        {
            i + 4
        } else if t.is_ident("partition_rows") && is(i + 1, &|t| t.is_punct('(')) {
            i + 1
        } else {
            continue;
        };
        let span = Span::new(t.start, code[end].end);
        ctx.emit(
            out,
            suppressed,
            LintDiagnostic::new(
                LintCode::IndexBuiltOutsideStore,
                ctx.path,
                span,
                "join index built in core outside the index store's feeder module",
            )
            .with_help(
                "ask `EvalContext::fetch_index` (core::index) so the index is built once, \
                 advanced by appends and shared; a build that is per query by design needs \
                 `// lint: allow(RL0008, <reason>)`",
            ),
        );
    }
}

/// The file RL0011 applies to.
const LIFECYCLE_MODULE: &str = "crates/core/src/context.rs";

/// RL0011: an `Instant::now(` call or a `QueryStats {` literal outside fn
/// `run_statement`, a `.snapshot().since(` delta outside fn `execute`, or an
/// `EvalContext {` literal outside fn `eval_context`, in `core::context`.
/// A type name followed by `{` after `struct`, `impl`, `for` or a return
/// arrow opens a definition or a body, not a literal.
fn rule_statement_lifecycle(
    ctx: &FileCtx<'_>,
    out: &mut Vec<LintDiagnostic>,
    suppressed: &mut usize,
) {
    if !ctx.path.ends_with(LIFECYCLE_MODULE) {
        return;
    }
    let code = &ctx.code;
    let fns = enclosing_fns(code);
    let is = |i: usize, f: &dyn Fn(&Token<'_>) -> bool| code.get(i).is_some_and(f);
    for i in 0..code.len() {
        let t = &code[i];
        let (what, owner, end) = if t.is_ident("Instant")
            && is(i + 1, &|t| t.is_punct(':'))
            && is(i + 2, &|t| t.is_punct(':'))
            && is(i + 3, &|t| t.is_ident("now"))
            && is(i + 4, &|t| t.is_punct('('))
        {
            ("a clock", "run_statement", i + 4)
        } else if (t.is_ident("QueryStats") || t.is_ident("EvalContext"))
            && is(i + 1, &|t| t.is_punct('{'))
            && !i.checked_sub(1).is_some_and(|p| {
                let prev = &code[p];
                ["struct", "impl", "for"].iter().any(|k| prev.is_ident(k)) || prev.is_punct('>')
            })
        {
            let owner = if t.text == "QueryStats" {
                "run_statement"
            } else {
                "eval_context"
            };
            ("a literal", owner, i + 1)
        } else if t.is_punct('.')
            && is(i + 1, &|t| t.is_ident("snapshot"))
            && is(i + 2, &|t| t.is_punct('('))
            && is(i + 3, &|t| t.is_punct(')'))
            && is(i + 4, &|t| t.is_punct('.'))
            && is(i + 5, &|t| t.is_ident("since"))
            && is(i + 6, &|t| t.is_punct('('))
        {
            ("a metrics delta", "execute", i + 6)
        } else {
            continue;
        };
        if fns[i].is_some_and(|(name, _)| name == owner) {
            continue;
        }
        let span = Span::new(t.start, code[end].end);
        ctx.emit(
            out,
            suppressed,
            LintDiagnostic::new(
                LintCode::StatementOutsideLifecycle,
                ctx.path,
                span,
                format!("{what} of statement bookkeeping outside `{owner}`"),
            )
            .with_help(
                "a statement kind supplies only what differs and lets the lifecycle \
                 (`RaSqlContext::run_statement`) time it, `execute` measure it and \
                 `eval_context` evaluate it; a use that is not a statement's needs \
                 `// lint: allow(RL0011, <reason>)`",
            ),
        );
    }
}

// ----------------------------------------------------------------
// Entry points
// ----------------------------------------------------------------

/// Lint one source text under a (possibly virtual) workspace-relative path.
/// Which rules fire depends on the path — fixtures exercise a rule by
/// claiming the path it covers.
pub fn lint_file(path: &str, src: &str) -> Vec<LintDiagnostic> {
    lint_file_counting(path, src).0
}

/// Like [`lint_file`], also reporting how many findings an
/// `// lint: allow(...)` annotation suppressed.
pub fn lint_file_counting(path: &str, src: &str) -> (Vec<LintDiagnostic>, usize) {
    let ctx = FileCtx::new(path, src);
    let mut out = Vec::new();
    let mut suppressed = 0;
    rule_read_path_copy(&ctx, &mut out, &mut suppressed);
    rule_index_outside_store(&ctx, &mut out, &mut suppressed);
    rule_statement_lifecycle(&ctx, &mut out, &mut suppressed);
    out.sort_by_key(|d| d.span.start);
    (out, suppressed)
}

/// Walk `crates/*/src` under `root` and lint every `.rs` file, in sorted
/// path order. IO errors on individual files abort the run.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut report = LintReport::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let (diags, suppressed) = lint_file_counting(&rel, &source);
        report.files_scanned += 1;
        report.suppressed += suppressed;
        report.diagnostics.extend(diags);
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_error_severity() {
        assert_eq!(LintCode::ReadPathRowCopy.code(), "RL0006");
        assert_eq!(LintCode::IndexBuiltOutsideStore.code(), "RL0008");
        assert_eq!(LintCode::StatementOutsideLifecycle.code(), "RL0011");
        for c in LintCode::all() {
            assert_eq!(c.severity(), Severity::Error);
        }
    }

    #[test]
    fn allow_requires_a_reason() {
        let src = "// lint: allow(RL0006)\nrows.to_vec();\n";
        let diags = lint_file("crates/server/src/conn.rs", src);
        assert_eq!(diags.len(), 1, "bare allow must not suppress");

        let src = "// lint: allow(RL0006, frame copy; bounded at 512 rows)\nrows.to_vec();\n";
        let (diags, suppressed) = lint_file_counting("crates/server/src/conn.rs", src);
        assert!(diags.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_on_same_line_works() {
        let src = "rows.to_vec(); // lint: allow(RL0006, simulated transfer)\n";
        let (diags, suppressed) = lint_file_counting("crates/server/src/conn.rs", src);
        assert!(diags.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_for_wrong_code_does_not_suppress() {
        let src = "// lint: allow(RL0011, wrong rule)\nrows.to_vec();\n";
        let diags = lint_file("crates/server/src/conn.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::ReadPathRowCopy);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { rows.to_vec(); chunk.to_vec(); }\n}\n";
        assert!(lint_file("crates/core/src/fixpoint/mod.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = r#"
// rows.to_vec() in a comment
fn f() { let s = "rows.to_vec() and chunk.to_vec()"; }
"#;
        assert!(lint_file("crates/core/src/wire.rs", src).is_empty());
    }

    #[test]
    fn render_mirrors_plan_diag_shape() {
        let src = "let r = rows.to_vec();";
        let diags = lint_file("crates/core/src/wire.rs", src);
        assert_eq!(diags.len(), 1);
        let r = diags[0].render(src);
        assert!(r.contains("error[RL0006]"), "{r}");
        assert!(r.contains("crates/core/src/wire.rs:1:9"), "{r}");
        assert!(r.contains("^^^^^^^^^^^^"), "{r}");
        assert!(r.contains("= help:"), "{r}");
    }
}
