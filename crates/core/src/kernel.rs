//! Specialized fixpoint-kernel selection (paper §7.3).
//!
//! The dominant recursive-query shape — a single view keyed by one `Int`
//! vertex column, driven by one linear join against a static edge relation
//! (SSSP, CC, reachability, path counting) — admits a far faster execution
//! strategy than the generic interpreter: broadcast the edges once as a
//! [`rasql_storage::CsrGraph`], keep the aggregate state in dense
//! vertex-indexed slabs, and run a monomorphized merge-scan loop per round
//! (see [`rasql_exec::kernel`]). This module is the *selection pass* that
//! decides, purely from the compiled [`FixpointSpec`] and the engine
//! configuration, whether that strategy is sound for a query — and if so,
//! which monomorphized variant to instantiate.
//!
//! Selection is deliberately conservative. A kernel is chosen only when
//! every condition below holds; anything else falls back to the generic
//! interpreter, so an unprovable or unusual shape costs nothing but speed:
//!
//! - `specialized_kernels` is on and evaluation is semi-naive;
//! - stage combination (§7.1) and fused code generation (§7.3) are both on —
//!   the kernel runs one fused ShuffleMap stage per round, so ablating
//!   either axis must bypass it or the ablation would measure nothing;
//! - the clique would *not* run decomposed (the §7.2 local-fixpoint path is
//!   already the fast plan when the partition certificate holds);
//! - one view, one `Int` key column, at most one aggregate column;
//! - one linear recursive branch driving from the view's delta through a
//!   single hash join against a non-recursive build side, keyed
//!   `δ.key = build.src`, emitting `build.dst` as the new key;
//! - the per-edge contribution expression is one of the four recognized
//!   forms (identity, `+ weight`, `+ constant`, `least(value, weight)`);
//! - for aggregate views, the verifier *statically proved* the PreM
//!   property for the column ([`StaticVerdict::Proven`] — see
//!   [`rasql_plan::ViewSpec::prem`]); `Unknown` shapes run the interpreter
//!   even when the runtime PreM checker would accept them.
//!
//! The selected [`KernelPlan`] is still only a *candidate*: the runtime
//! re-checks every value it touches (vertex ids must be `Int`, aggregate
//! inputs must match the slab type) and bails out to the interpreter on the
//! first violation, preserving bit-identical semantics.

use crate::config::{EngineConfig, EvalMode};
use rasql_parser::ast::{AggFunc, BinaryOp};
use rasql_plan::{
    BranchStep, CountMode, DeltaValueMode, FixpointSpec, JoinBuild, LogicalPlan, PExpr, ScalarFunc,
    StaticVerdict,
};
use rasql_storage::{CsrWeight, DataType, Value};

/// The monotone operator a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// `min` aggregate (SSSP, CC).
    Min,
    /// `max` aggregate.
    Max,
    /// `sum`/`count` aggregate (path counting).
    Sum,
    /// Set semantics — membership only (reachability).
    Set,
}

/// The scalar slab type a kernel is monomorphized over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelScalar {
    /// `i64` slabs (`Int` aggregate column).
    I64,
    /// `f64` slabs (`Double` aggregate column).
    F64,
}

/// The per-edge contribution transform, matched from the branch program's
/// aggregate expression over the combined `stream ++ build` row.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelEdgeFn {
    /// Propagate the delta value unchanged (CC, reachability).
    Identity,
    /// Add the edge weight ([`KernelPlan::weight`] names the column) — SSSP.
    AddWeight,
    /// Add a constant literal (hop counting).
    AddConst(Value),
    /// `least(value, weight)` — bottleneck/widest-path style combiners.
    MinWeight,
}

/// A fully-resolved specialized kernel: everything the runtime needs to
/// build the CSR graph, size the dense state, and run the monomorphized
/// loop.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Kernel label recorded in the query trace (e.g. `csr_min_i64`).
    pub name: &'static str,
    /// Monotone operator.
    pub op: KernelOp,
    /// Slab scalar type.
    pub scalar: KernelScalar,
    /// Per-edge contribution transform.
    pub edge_fn: KernelEdgeFn,
    /// Vertex-key column in the view schema.
    pub key_col: usize,
    /// Aggregate column in the view schema (`None` for set kernels).
    pub agg_col: Option<usize>,
    /// Source-vertex column of the edge relation.
    pub src_col: usize,
    /// Destination-vertex column of the edge relation.
    pub dst_col: usize,
    /// How edge weights are extracted while building the CSR graph.
    pub weight: CsrWeight,
    /// True when the delta carries current totals (min/max driver mode);
    /// false for per-round increments (`sum` increment flow).
    pub totals_delta: bool,
    /// The edge relation's plan, evaluated once before the fixpoint.
    pub build: LogicalPlan,
}

/// Decide whether `spec` can run on a specialized fixpoint kernel under
/// `config`. Returns the resolved plan, or `None` to use the interpreter.
pub fn select_kernel(spec: &FixpointSpec, config: &EngineConfig) -> Option<KernelPlan> {
    if !config.specialized_kernels || config.eval_mode != EvalMode::SemiNaive {
        return None;
    }
    // The kernel executes one fused combined stage per round — it *is* the
    // §7.1 + §7.3 fast path — so it only stands in when both axes are on.
    if !config.stage_combination || !config.fused_codegen {
        return None;
    }
    if spec.views.len() != 1 {
        return None;
    }
    let v = &spec.views[0];
    // A decomposable view already has a faster plan (§7.2); selecting the
    // kernel there would also change the round accounting the trace reports.
    if config.decomposed_plans && v.certificate.preserved_key().is_some() {
        return None;
    }
    if v.key_cols.len() != 1 || v.aggs.len() > 1 || v.schema.arity() != 1 + v.aggs.len() {
        return None;
    }
    let key_col = v.key_cols[0];
    if v.schema.field(key_col).data_type != DataType::Int {
        return None;
    }
    if v.recursive.len() != 1 {
        return None;
    }
    let prog = &v.recursive[0];
    if prog.driver != 0 || prog.target != 0 {
        return None;
    }
    if prog.count_modes.iter().any(|m| *m != CountMode::SumValues) {
        return None;
    }
    // Exactly one step: a hash join against a non-recursive build side,
    // probing with the delta's vertex key.
    let [BranchStep::HashJoin {
        build: JoinBuild::Base(build),
        stream_keys,
        build_keys,
        build_arity,
    }] = prog.steps.as_slice()
    else {
        return None;
    };
    if stream_keys.len() != 1 || stream_keys[0] != PExpr::Col(key_col) {
        return None;
    }
    let &[src_col] = build_keys.as_slice() else {
        return None;
    };
    let arity = v.schema.arity();
    if prog.combined_arity != arity + build_arity {
        return None;
    }
    // The emitted key must be a build-side column (the edge destination).
    let [PExpr::Col(dst_abs)] = prog.key_exprs.as_slice() else {
        return None;
    };
    let dst_col = dst_abs.checked_sub(arity)?;
    if dst_col >= *build_arity {
        return None;
    }
    let totals_delta = prog.driver_value_mode == DeltaValueMode::Total;

    if v.aggs.is_empty() {
        if !prog.agg_exprs.is_empty() {
            return None;
        }
        return Some(KernelPlan {
            name: "csr_set",
            op: KernelOp::Set,
            scalar: KernelScalar::I64,
            edge_fn: KernelEdgeFn::Identity,
            key_col,
            agg_col: None,
            src_col,
            dst_col,
            weight: CsrWeight::None,
            totals_delta,
            build: build.clone(),
        });
    }

    // Aggregate kernels additionally require a static PreM proof: only the
    // verifier's `Proven` verdict certifies that merging aggregates *inside*
    // the recursion (which the dense slabs do unconditionally) is equivalent
    // to aggregating after the fixpoint.
    let (agg_col, func) = v.aggs[0];
    if v.prem.first() != Some(&StaticVerdict::Proven) {
        return None;
    }
    let (op, scalar) = match (func, v.schema.field(agg_col).data_type) {
        (AggFunc::Min, DataType::Int) => (KernelOp::Min, KernelScalar::I64),
        (AggFunc::Min, DataType::Double) => (KernelOp::Min, KernelScalar::F64),
        (AggFunc::Max, DataType::Int) => (KernelOp::Max, KernelScalar::I64),
        (AggFunc::Max, DataType::Double) => (KernelOp::Max, KernelScalar::F64),
        // Sums stay on i64 slabs: the generic path promotes an overflowing
        // Int sum to Double, which a fixed-width slab cannot mirror, and a
        // Double sum's result depends on addition order.
        (AggFunc::Sum | AggFunc::Count, DataType::Int) => (KernelOp::Sum, KernelScalar::I64),
        _ => return None,
    };
    let [agg_expr] = prog.agg_exprs.as_slice() else {
        return None;
    };
    let matched = match_edge_fn(agg_expr, agg_col, arity, *build_arity)?;
    let (edge_fn, weight) = match (matched, scalar) {
        (Matched::Identity, _) => (KernelEdgeFn::Identity, CsrWeight::None),
        (Matched::AddConst(lit @ Value::Int(_)), KernelScalar::I64) => {
            (KernelEdgeFn::AddConst(lit), CsrWeight::None)
        }
        // Value::add widens Int addends, so an Int literal is exact for f64.
        (Matched::AddConst(lit @ (Value::Int(_) | Value::Double(_))), KernelScalar::F64) => {
            (KernelEdgeFn::AddConst(lit), CsrWeight::None)
        }
        (Matched::AddConst(_), _) => return None,
        (Matched::AddWeight(col), KernelScalar::I64) => {
            (KernelEdgeFn::AddWeight, CsrWeight::Int { col })
        }
        (Matched::AddWeight(col), KernelScalar::F64) => (
            KernelEdgeFn::AddWeight,
            CsrWeight::Float {
                col,
                promote_int: true,
            },
        ),
        (Matched::MinWeight(col), KernelScalar::I64) => {
            (KernelEdgeFn::MinWeight, CsrWeight::Int { col })
        }
        // least() compares the raw values: an Int weight would win or lose
        // against a Double by Value ordering, which f64 slabs can't mirror —
        // so demand genuine Double weights.
        (Matched::MinWeight(col), KernelScalar::F64) => (
            KernelEdgeFn::MinWeight,
            CsrWeight::Float {
                col,
                promote_int: false,
            },
        ),
    };
    let name = match (op, scalar) {
        (KernelOp::Min, KernelScalar::I64) => "csr_min_i64",
        (KernelOp::Min, KernelScalar::F64) => "csr_min_f64",
        (KernelOp::Max, KernelScalar::I64) => "csr_max_i64",
        (KernelOp::Max, KernelScalar::F64) => "csr_max_f64",
        (KernelOp::Sum, _) => "csr_sum_i64",
        (KernelOp::Set, _) => unreachable!("set handled above"),
    };
    Some(KernelPlan {
        name,
        op,
        scalar,
        edge_fn,
        key_col,
        agg_col: Some(agg_col),
        src_col,
        dst_col,
        weight,
        totals_delta,
        build: build.clone(),
    })
}

/// The syntactic form matched from the aggregate expression, carrying the
/// build-side weight column where one appears.
enum Matched {
    Identity,
    AddWeight(usize),
    AddConst(Value),
    MinWeight(usize),
}

/// Match the per-edge contribution expression over the combined
/// `stream(arity) ++ build(build_arity)` row: `Col(agg)` (identity),
/// `Col(agg) + Col(build.j)` / `Col(build.j) + Col(agg)` (weighted),
/// `Col(agg) + Lit` / `Lit + Col(agg)` (constant), or
/// `least(Col(agg), Col(build.j))` in either argument order.
fn match_edge_fn(
    e: &PExpr,
    agg_col: usize,
    stream_arity: usize,
    build_arity: usize,
) -> Option<Matched> {
    let is_agg = |x: &PExpr| *x == PExpr::Col(agg_col);
    let build_col = |x: &PExpr| match x {
        PExpr::Col(c) if *c >= stream_arity && *c - stream_arity < build_arity => {
            Some(*c - stream_arity)
        }
        _ => None,
    };
    if is_agg(e) {
        return Some(Matched::Identity);
    }
    match e {
        PExpr::Binary {
            left,
            op: BinaryOp::Add,
            right,
        } => {
            let (agg_side, other) = if is_agg(left) {
                (left, right)
            } else if is_agg(right) {
                (right, left)
            } else {
                return None;
            };
            debug_assert!(is_agg(agg_side));
            if let Some(j) = build_col(other) {
                return Some(Matched::AddWeight(j));
            }
            if let PExpr::Lit(v) = &**other {
                return Some(Matched::AddConst(v.clone()));
            }
            None
        }
        PExpr::Func {
            func: ScalarFunc::Least,
            args,
        } => match args.as_slice() {
            [a, b] if is_agg(a) => build_col(b).map(Matched::MinWeight),
            [a, b] if is_agg(b) => build_col(a).map(Matched::MinWeight),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use rasql_parser::parse_statements;
    use rasql_plan::{analyze_statement, optimize_spec, AnalyzedStatement, ViewCatalog};
    use rasql_storage::Schema;

    /// Compile one query against a weighted `edge` table, exactly as the
    /// engine would (analyze, then spec-level optimize).
    fn spec_for(sql: &str) -> FixpointSpec {
        let mut cat = ViewCatalog::new();
        cat.add_table(
            "edge",
            Schema::new(vec![
                ("Src", DataType::Int),
                ("Dst", DataType::Int),
                ("Cost", DataType::Double),
            ]),
        );
        let stmts = parse_statements(sql).unwrap();
        let AnalyzedStatement::Query(q) = analyze_statement(&stmts[0], &cat).unwrap() else {
            panic!("not a query: {sql}");
        };
        optimize_spec(q.cliques.into_iter().next().expect("one clique"))
    }

    #[test]
    fn sssp_selects_min_f64_with_edge_weight() {
        let kp = select_kernel(&spec_for(&library::sssp(0)), &EngineConfig::rasql()).unwrap();
        assert_eq!(kp.name, "csr_min_f64");
        assert_eq!(kp.op, KernelOp::Min);
        assert_eq!(kp.scalar, KernelScalar::F64);
        assert_eq!(kp.edge_fn, KernelEdgeFn::AddWeight);
        assert_eq!(
            kp.weight,
            CsrWeight::Float {
                col: 2,
                promote_int: true
            }
        );
        assert_eq!((kp.src_col, kp.dst_col), (0, 1));
    }

    #[test]
    fn reach_selects_set_kernel() {
        let kp = select_kernel(&spec_for(&library::reach(0)), &EngineConfig::rasql()).unwrap();
        assert_eq!(kp.name, "csr_set");
        assert_eq!(kp.op, KernelOp::Set);
        assert_eq!(kp.agg_col, None);
        assert_eq!(kp.weight, CsrWeight::None);
    }

    #[test]
    fn widest_path_selects_max_with_least_combiner() {
        let kp =
            select_kernel(&spec_for(&library::widest_path(0)), &EngineConfig::rasql()).unwrap();
        assert_eq!(kp.name, "csr_max_f64");
        assert_eq!(kp.edge_fn, KernelEdgeFn::MinWeight);
        // least() compares raw values, so Int weights must NOT be promoted.
        assert_eq!(
            kp.weight,
            CsrWeight::Float {
                col: 2,
                promote_int: false
            }
        );
    }

    #[test]
    fn ablated_configs_bypass_the_kernel() {
        let spec = spec_for(&library::sssp(0));
        for (why, cfg) in [
            (
                "kernels off",
                EngineConfig::rasql().specialized_kernels(false),
            ),
            (
                "stage combination off",
                EngineConfig::rasql().stage_combination(false),
            ),
            (
                "fused codegen off",
                EngineConfig::rasql().fused_codegen(false),
            ),
            ("naive evaluation", EngineConfig::spark_sql_naive()),
        ] {
            assert!(select_kernel(&spec, &cfg).is_none(), "{why}");
        }
    }

    #[test]
    fn multi_key_and_unproven_shapes_fall_back() {
        // APSP: two key columns.
        assert!(select_kernel(&spec_for(&library::apsp()), &EngineConfig::rasql()).is_none());
        // Non-monotone contribution: PreM is statically refuted, so the
        // aggregate may not be merged inside the recursion.
        let refuted = "WITH recursive path (Dst, min() AS Cost) AS \
                         (SELECT 0, 0.0) UNION \
                         (SELECT edge.Dst, 100 - path.Cost FROM path, edge \
                          WHERE path.Dst = edge.Src) \
                       SELECT Dst, Cost FROM path";
        assert!(select_kernel(&spec_for(refuted), &EngineConfig::rasql()).is_none());
    }
}
