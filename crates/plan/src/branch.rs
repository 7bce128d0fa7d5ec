//! Recursive branch programs — the per-iteration pipelines of the fixpoint
//! operator.
//!
//! A recursive branch like
//!
//! ```sql
//! SELECT edge.Dst, path.Cost + edge.Cost FROM path, edge WHERE path.Dst = edge.Src
//! ```
//!
//! compiles to: *drive from `path`'s delta; hash-join `edge` on
//! `δ.Dst = edge.Src`; project `(edge.Dst, δ.Cost + edge.Cost)`*. The fixpoint
//! executor runs this pipeline once per iteration (Algorithm 5's Map stage).
//!
//! For rules with several recursive references (non-linear / mutual recursion,
//! e.g. Company Control), the analyzer emits one program per reference
//! position: position *j* drives from δ(rⱼ) and reads the other recursive
//! relations as *all-new* (positions < j) or *all-old* (positions > j)
//! snapshots — the classical semi-naive term expansion.

use crate::expr::PExpr;
use crate::logical::LogicalPlan;
use rasql_parser::Span;
use std::fmt;

/// How a delta row exposes the driving view's aggregate column(s) to the
/// consuming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaValueMode {
    /// The current aggregate total (used by min/max consumers, filters and
    /// set-semantics heads — e.g. Company Control's `control` view reading
    /// `cshares.Tot > 50`).
    Total,
    /// The per-iteration increment (used when the value feeds a `sum`/`count`
    /// head linearly — e.g. Count Paths, Management, MLM Bonus).
    Increment,
}

/// Which snapshot of a recursive relation a non-driver join input reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecAllMode {
    /// State *before* this round's deltas were merged.
    Old,
    /// State *including* this round's deltas.
    New,
}

/// How contributions to a `sum`/`count` head are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMode {
    /// Add each arriving value (increment flow: Management, Count Paths, MLM).
    SumValues,
    /// Deduplicate the full projected tuple and add 1 (or the value) per new
    /// distinct tuple — the "continuous count" of §3 counting distinct
    /// contributors (Party Attendance).
    DistinctTuple,
}

/// The build side of a join step inside a branch program.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinBuild {
    /// A non-recursive input: evaluated once before the fixpoint and cached as
    /// a hash table (paper Appendix D: base side is always the build side).
    Base(LogicalPlan),
    /// Another recursive relation of the clique, read as a snapshot.
    RecursiveAll {
        /// Index of the view in the clique.
        view: usize,
        /// Old/new snapshot per the semi-naive term expansion.
        mode: RecAllMode,
        /// How the snapshot exposes its aggregate columns.
        value_mode: DeltaValueMode,
    },
}

impl JoinBuild {
    /// Arity of the build-side rows.
    pub fn arity(&self, clique_schemas: &[usize]) -> usize {
        match self {
            JoinBuild::Base(p) => p.schema().arity(),
            JoinBuild::RecursiveAll { view, .. } => clique_schemas[*view],
        }
    }
}

/// One step of a branch pipeline, applied to the stream of combined rows.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchStep {
    /// Hash-join the stream with a build input; output row = stream ++ build.
    HashJoin {
        /// The build side.
        build: JoinBuild,
        /// Key expressions over the current combined stream row.
        stream_keys: Vec<PExpr>,
        /// Key columns of the build-side row.
        build_keys: Vec<usize>,
        /// Arity of build-side rows (combined layout grows by this).
        build_arity: usize,
    },
    /// Filter the combined stream row.
    Filter(PExpr),
}

/// A compiled recursive branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProgram {
    /// Index of the clique view whose delta drives this program.
    pub driver: usize,
    /// How the driver's delta exposes its aggregate columns.
    pub driver_value_mode: DeltaValueMode,
    /// Pipeline steps in execution order.
    pub steps: Vec<BranchStep>,
    /// Index of the clique view this program produces tuples for.
    pub target: usize,
    /// Expressions (over the final combined row) for the target's key columns.
    pub key_exprs: Vec<PExpr>,
    /// Expressions for the target's aggregate columns (empty for set views).
    pub agg_exprs: Vec<PExpr>,
    /// Per-aggregate accumulation mode (parallel to `agg_exprs`).
    pub count_modes: Vec<CountMode>,
    /// Arity of the final combined row.
    pub combined_arity: usize,
    /// Source span of the SQL branch this program was lowered from
    /// (synthetic for programmatically built programs). Certificate failures
    /// and diagnostics point here.
    pub span: Span,
}

impl BranchProgram {
    /// The key expressions this program's first join (if any) probes with —
    /// used by the fixpoint scheduler to decide whether the delta is already
    /// co-partitioned (Algorithm 4's requirement) or needs a shuffle.
    pub fn first_join_stream_keys(&self) -> Option<&[PExpr]> {
        for s in &self.steps {
            if let BranchStep::HashJoin { stream_keys, .. } = s {
                return Some(stream_keys);
            }
        }
        None
    }

    /// True if no step reads another recursive relation (linear recursion).
    pub fn is_linear(&self) -> bool {
        self.steps.iter().all(|s| {
            !matches!(
                s,
                BranchStep::HashJoin {
                    build: JoinBuild::RecursiveAll { .. },
                    ..
                }
            )
        })
    }

    /// Human-readable rendering (used in the clique plan dump).
    pub fn display(&self) -> String {
        self.render(false)
    }

    /// The rendering, with the literal rows of `Values` nodes in base build
    /// plans spelled out when `literals` (the text caches key on).
    pub(crate) fn render(&self, literals: bool) -> String {
        let mut s = format!(
            "Drive δ(view#{}) [{:?}]\n",
            self.driver, self.driver_value_mode
        );
        for step in &self.steps {
            match step {
                BranchStep::HashJoin {
                    build,
                    stream_keys,
                    build_keys,
                    ..
                } => {
                    let keys: Vec<String> = stream_keys.iter().map(|e| e.to_string()).collect();
                    match build {
                        JoinBuild::Base(p) => {
                            s.push_str(&format!(
                                "HashJoin stream[{}] = build{:?}\n",
                                keys.join(", "),
                                build_keys
                            ));
                            for line in p.render(literals).lines() {
                                s.push_str(&format!("  {line}\n"));
                            }
                        }
                        JoinBuild::RecursiveAll { view, mode, .. } => {
                            s.push_str(&format!(
                                "HashJoin stream[{}] = all{:?}(view#{view}){:?}\n",
                                keys.join(", "),
                                build_keys,
                                mode
                            ));
                        }
                    }
                }
                BranchStep::Filter(p) => s.push_str(&format!("Filter {p}\n")),
            }
        }
        let ks: Vec<String> = self.key_exprs.iter().map(|e| e.to_string()).collect();
        let vs: Vec<String> = self.agg_exprs.iter().map(|e| e.to_string()).collect();
        s.push_str(&format!(
            "Emit → view#{} key=[{}] agg=[{}]\n",
            self.target,
            ks.join(", "),
            vs.join(", ")
        ));
        s
    }
}

impl fmt::Display for BranchProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}
