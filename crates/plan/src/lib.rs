#![deny(missing_docs)]

//! # rasql-plan
//!
//! The compilation layer of the RaSQL reproduction (paper §5): the analyzer
//! turns the parsed AST into a bound [`LogicalPlan`] using the paper's two-step
//! process — recursive table references are first recognized as *recursive
//! relations* (mark points that stop reference resolution), producing a
//! *Recursive Clique Plan*; ordinary rules (alias resolution, operator
//! conversion) then run over the rest. A rule-based optimizer (predicate
//! pushdown, filter combination, constant folding, equi-join extraction)
//! rewrites the plan, and recursive branches are lowered into
//! [`BranchProgram`]s — the per-iteration pipelines the fixpoint operator
//! executes.

pub mod analyzer;
pub mod branch;
pub mod certificate;
pub mod diag;
pub mod error;
pub mod expr;
pub mod logical;
pub mod optimizer;
pub mod verify;

pub use analyzer::{
    analyze_query, analyze_statement, AnalyzedQuery, AnalyzedStatement, Analyzer, ViewCatalog,
};
pub use branch::{BranchProgram, BranchStep, CountMode, DeltaValueMode, JoinBuild, RecAllMode};
pub use certificate::{CertificateFailure, PartitionCertificate};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use error::PlanError;
pub use expr::{PExpr, ScalarFunc, WordExpr, WordType};
pub use logical::{AggExpr, FixpointSpec, LogicalPlan, ViewSpec};
pub use optimizer::{optimize, optimize_spec};
pub use verify::{verify_query, PremObligation, StaticVerdict, VerifyReport, ViewVerification};
