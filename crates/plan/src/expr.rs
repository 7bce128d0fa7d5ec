//! Bound physical expressions.
//!
//! After analysis every column reference is an index into the operator's input
//! row, so evaluation never touches names. `PExpr` is the expression form the
//! executor's volcano backend interprets and the fused backend compiles into
//! closures.

use rasql_storage::value::{Escaped, Lane};
use rasql_storage::{Row, Value};
use std::cmp::Ordering;
use std::fmt;

pub use rasql_parser::ast::{BinaryOp, UnaryOp};

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// Smallest of the arguments (`least(a, b, …)`), NULLs ignored.
    Least,
    /// Largest of the arguments (`greatest(a, b, …)`).
    Greatest,
    /// Absolute value.
    Abs,
}

impl ScalarFunc {
    /// Resolve a function name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_lowercase().as_str() {
            "least" => Some(ScalarFunc::Least),
            "greatest" => Some(ScalarFunc::Greatest),
            "abs" => Some(ScalarFunc::Abs),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarFunc::Least => "least",
            ScalarFunc::Greatest => "greatest",
            ScalarFunc::Abs => "abs",
        }
    }

    /// Evaluate over argument values.
    pub fn eval(&self, args: &[Value]) -> Value {
        match self {
            ScalarFunc::Least => args
                .iter()
                .filter(|v| !v.is_null())
                .min()
                .cloned()
                .unwrap_or(Value::Null),
            ScalarFunc::Greatest => args
                .iter()
                .filter(|v| !v.is_null())
                .max()
                .cloned()
                .unwrap_or(Value::Null),
            ScalarFunc::Abs => match args.first() {
                Some(Value::Int(i)) => Value::Int(i.abs()),
                Some(Value::Double(d)) => Value::Double(d.abs()),
                _ => Value::Null,
            },
        }
    }
}

/// A bound (index-resolved) scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// Input column by position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<PExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<PExpr>,
    },
    /// Numeric negation.
    Neg(Box<PExpr>),
    /// Logical NOT.
    Not(Box<PExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<PExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Built-in scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<PExpr>,
    },
}

impl PExpr {
    /// Convenience: column reference.
    pub fn col(i: usize) -> PExpr {
        PExpr::Col(i)
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> PExpr {
        PExpr::Lit(v.into())
    }

    /// Convenience: equality between two expressions.
    pub fn eq(left: PExpr, right: PExpr) -> PExpr {
        PExpr::Binary {
            left: Box::new(left),
            op: BinaryOp::Eq,
            right: Box::new(right),
        }
    }

    /// Conjunction of a list of predicates (`true` when empty).
    pub fn and_all(mut preds: Vec<PExpr>) -> PExpr {
        match preds.len() {
            0 => PExpr::Lit(Value::Bool(true)),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, p| PExpr::Binary {
                    left: Box::new(acc),
                    op: BinaryOp::And,
                    right: Box::new(p),
                })
            }
        }
    }

    /// Evaluate against a row.
    #[inline]
    pub fn eval(&self, row: &Row) -> Value {
        self.eval_vals(row.values())
    }

    /// Evaluate against a borrowed tuple — the evaluator; a tuple in a
    /// pipeline's scratch buffer never has to become a [`Row`] to be tested.
    pub fn eval_vals(&self, row: &[Value]) -> Value {
        match self {
            PExpr::Col(i) => row[*i].clone(),
            PExpr::Lit(v) => v.clone(),
            PExpr::Binary { left, op, right } => {
                // Short-circuit logical operators.
                match op {
                    BinaryOp::And => {
                        let l = left.eval_vals(row);
                        if !l.is_truthy() {
                            return Value::Bool(false);
                        }
                        return Value::Bool(right.eval_vals(row).is_truthy());
                    }
                    BinaryOp::Or => {
                        let l = left.eval_vals(row);
                        if l.is_truthy() {
                            return Value::Bool(true);
                        }
                        return Value::Bool(right.eval_vals(row).is_truthy());
                    }
                    _ => {}
                }
                let l = left.eval_vals(row);
                let r = right.eval_vals(row);
                eval_binary(&l, *op, &r)
            }
            PExpr::Neg(e) => match e.eval_vals(row) {
                Value::Int(i) => Value::Int(-i),
                Value::Double(d) => Value::Double(-d),
                _ => Value::Null,
            },
            PExpr::Not(e) => Value::Bool(!e.eval_vals(row).is_truthy()),
            PExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval_vals(row).is_null() != *negated)
            }
            PExpr::Func { func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval_vals(row)).collect();
                func.eval(&vals)
            }
        }
    }

    /// True when the expression references no columns.
    pub fn is_constant(&self) -> bool {
        match self {
            PExpr::Col(_) => false,
            PExpr::Lit(_) => true,
            PExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            PExpr::Neg(e) | PExpr::Not(e) => e.is_constant(),
            PExpr::IsNull { expr, .. } => expr.is_constant(),
            PExpr::Func { args, .. } => args.iter().all(PExpr::is_constant),
        }
    }

    /// Collect all referenced column indices.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            PExpr::Col(i) => out.push(*i),
            PExpr::Lit(_) => {}
            PExpr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            PExpr::Neg(e) | PExpr::Not(e) => e.columns(out),
            PExpr::IsNull { expr, .. } => expr.columns(out),
            PExpr::Func { args, .. } => {
                for a in args {
                    a.columns(out);
                }
            }
        }
    }

    /// Maximum referenced column index, if any column is referenced.
    pub fn max_column(&self) -> Option<usize> {
        let mut cols = Vec::new();
        self.columns(&mut cols);
        cols.into_iter().max()
    }

    /// Rewrite column indices through `map` (new index = `map[old]`).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> PExpr {
        match self {
            PExpr::Col(i) => PExpr::Col(map(*i)),
            PExpr::Lit(v) => PExpr::Lit(v.clone()),
            PExpr::Binary { left, op, right } => PExpr::Binary {
                left: Box::new(left.remap_columns(map)),
                op: *op,
                right: Box::new(right.remap_columns(map)),
            },
            PExpr::Neg(e) => PExpr::Neg(Box::new(e.remap_columns(map))),
            PExpr::Not(e) => PExpr::Not(Box::new(e.remap_columns(map))),
            PExpr::IsNull { expr, negated } => PExpr::IsNull {
                expr: Box::new(expr.remap_columns(map)),
                negated: *negated,
            },
            PExpr::Func { func, args } => PExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
            },
        }
    }

    /// Constant-fold: replace constant subtrees with literals.
    pub fn fold(&self) -> PExpr {
        if self.is_constant() {
            if let PExpr::Lit(_) = self {
                return self.clone();
            }
            return PExpr::Lit(self.eval(&Row::unit()));
        }
        match self {
            PExpr::Binary { left, op, right } => {
                let l = left.fold();
                let r = right.fold();
                // `true AND x` → `x`, `false AND x` → `false`, dual for OR.
                match (op, &l, &r) {
                    (BinaryOp::And, PExpr::Lit(Value::Bool(true)), _) => return r,
                    (BinaryOp::And, _, PExpr::Lit(Value::Bool(true))) => return l,
                    (BinaryOp::And, PExpr::Lit(Value::Bool(false)), _)
                    | (BinaryOp::And, _, PExpr::Lit(Value::Bool(false))) => {
                        return PExpr::Lit(Value::Bool(false))
                    }
                    (BinaryOp::Or, PExpr::Lit(Value::Bool(false)), _) => return r,
                    (BinaryOp::Or, _, PExpr::Lit(Value::Bool(false))) => return l,
                    (BinaryOp::Or, PExpr::Lit(Value::Bool(true)), _)
                    | (BinaryOp::Or, _, PExpr::Lit(Value::Bool(true))) => {
                        return PExpr::Lit(Value::Bool(true))
                    }
                    _ => {}
                }
                PExpr::Binary {
                    left: Box::new(l),
                    op: *op,
                    right: Box::new(r),
                }
            }
            PExpr::Neg(e) => PExpr::Neg(Box::new(e.fold())),
            PExpr::Not(e) => PExpr::Not(Box::new(e.fold())),
            PExpr::IsNull { expr, negated } => PExpr::IsNull {
                expr: Box::new(expr.fold()),
                negated: *negated,
            },
            PExpr::Func { func, args } => PExpr::Func {
                func: *func,
                args: args.iter().map(PExpr::fold).collect(),
            },
            _ => self.clone(),
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn split_conjuncts(self, out: &mut Vec<PExpr>) {
        match self {
            PExpr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                left.split_conjuncts(out);
                right.split_conjuncts(out);
            }
            other => out.push(other),
        }
    }
}

/// Evaluate a non-logical binary operator on two values.
pub fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Value {
    match op {
        BinaryOp::Add => l.add(r),
        BinaryOp::Sub => l.sub(r),
        BinaryOp::Mul => l.mul(r),
        BinaryOp::Div => l.div(r),
        BinaryOp::Mod => l.rem(r),
        BinaryOp::Eq => cmp_bool(l, r, |o| o == std::cmp::Ordering::Equal),
        BinaryOp::NotEq => cmp_bool(l, r, |o| o != std::cmp::Ordering::Equal),
        BinaryOp::Lt => cmp_bool(l, r, |o| o == std::cmp::Ordering::Less),
        BinaryOp::LtEq => cmp_bool(l, r, |o| o != std::cmp::Ordering::Greater),
        BinaryOp::Gt => cmp_bool(l, r, |o| o == std::cmp::Ordering::Greater),
        BinaryOp::GtEq => cmp_bool(l, r, |o| o != std::cmp::Ordering::Less),
        BinaryOp::And => Value::Bool(l.is_truthy() && r.is_truthy()),
        BinaryOp::Or => Value::Bool(l.is_truthy() || r.is_truthy()),
    }
}

fn cmp_bool(l: &Value, r: &Value, f: impl Fn(std::cmp::Ordering) -> bool) -> Value {
    // SQL-ish: comparisons involving NULL are false.
    if l.is_null() || r.is_null() {
        return Value::Bool(false);
    }
    Value::Bool(f(l.cmp(r)))
}

/// The static type of a [`WordExpr`]: a lane, or the boolean of a predicate
/// (the words 0 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordType {
    /// An `Int` lane.
    Int,
    /// A `Double` lane.
    Double,
    /// A truth value.
    Bool,
}

impl WordType {
    /// The lane a column of this type is stored in; a boolean has none.
    pub fn lane(self) -> Option<Lane> {
        match self {
            WordType::Int => Some(Lane::Int),
            WordType::Double => Some(Lane::Double),
            WordType::Bool => None,
        }
    }

    fn of(lane: Lane) -> WordType {
        match lane {
            Lane::Int => WordType::Int,
            Lane::Double => WordType::Double,
        }
    }
}

/// A [`PExpr`] compiled against word-lane input columns: every node's type
/// is known statically, so evaluation reads and writes plain `u64` cells —
/// no `Value` is built, cloned or matched on. It computes exactly what
/// [`PExpr::eval_vals`] computes whenever that result stays in the node's
/// static type; where it would not — an `Int` overflow (promoted to `Double`
/// by `Value::add`), a division yielding NULL — evaluation returns
/// [`Escaped`] instead of a value.
#[derive(Debug, Clone)]
pub struct WordExpr {
    node: WordNode,
    ty: WordType,
}

#[derive(Debug, Clone)]
enum WordNode {
    Col(usize),
    Lit(u64),
    /// `+ - * / %` on two numbers; `Int` iff both sides are.
    Arith(BinaryOp, Box<WordExpr>, Box<WordExpr>),
    /// A comparison of two numbers, or of two booleans.
    Cmp(BinaryOp, Box<WordExpr>, Box<WordExpr>),
    And(Box<WordExpr>, Box<WordExpr>),
    Or(Box<WordExpr>, Box<WordExpr>),
    Not(Box<WordExpr>),
    Neg(Box<WordExpr>),
    Abs(Box<WordExpr>),
    /// `least` (`Less`) or `greatest` (`Greater`) of same-typed numbers.
    Extreme(Ordering, Vec<WordExpr>),
}

impl WordExpr {
    /// The static result type.
    pub fn ty(&self) -> WordType {
        self.ty
    }

    /// The input column this expression copies, if that is all it does.
    pub fn column(&self) -> Option<usize> {
        match self.node {
            WordNode::Col(i) => Some(i),
            _ => None,
        }
    }

    /// This expression's number as an `f64` — `Value::as_f64`.
    #[inline]
    fn as_f64(&self, w: u64) -> f64 {
        match self.ty {
            WordType::Int => w as i64 as f64,
            _ => f64::from_bits(w),
        }
    }

    /// Evaluate against a word tuple.
    pub fn eval_cells(&self, t: &[u64]) -> Result<u64, Escaped> {
        Ok(match &self.node {
            WordNode::Col(i) => t[*i],
            WordNode::Lit(w) => *w,
            WordNode::Arith(op, l, r) => {
                let (a, b) = (l.eval_cells(t)?, r.eval_cells(t)?);
                if self.ty == WordType::Int {
                    let (a, b) = (a as i64, b as i64);
                    let v = match op {
                        BinaryOp::Add => a.checked_add(b),
                        BinaryOp::Sub => a.checked_sub(b),
                        BinaryOp::Mul => a.checked_mul(b),
                        BinaryOp::Div => a.checked_div(b),
                        _ => a.checked_rem(b),
                    };
                    v.ok_or(Escaped)? as u64
                } else {
                    let (a, b) = (l.as_f64(a), r.as_f64(b));
                    let v = match op {
                        BinaryOp::Add => a + b,
                        BinaryOp::Sub => a - b,
                        BinaryOp::Mul => a * b,
                        // A zero divisor yields NULL.
                        _ if b == 0.0 => return Err(Escaped),
                        _ => a / b,
                    };
                    v.to_bits()
                }
            }
            WordNode::Cmp(op, l, r) => {
                let (a, b) = (l.eval_cells(t)?, r.eval_cells(t)?);
                let ord = match (l.ty, r.ty) {
                    (WordType::Int, WordType::Int) => (a as i64).cmp(&(b as i64)),
                    (WordType::Bool, _) => a.cmp(&b),
                    _ => l.as_f64(a).total_cmp(&r.as_f64(b)),
                };
                let holds = match op {
                    BinaryOp::Eq => ord == Ordering::Equal,
                    BinaryOp::NotEq => ord != Ordering::Equal,
                    BinaryOp::Lt => ord == Ordering::Less,
                    BinaryOp::LtEq => ord != Ordering::Greater,
                    BinaryOp::Gt => ord == Ordering::Greater,
                    _ => ord != Ordering::Less,
                };
                u64::from(holds)
            }
            WordNode::And(l, r) => u64::from(l.eval_cells(t)? == 1 && r.eval_cells(t)? == 1),
            WordNode::Or(l, r) => u64::from(l.eval_cells(t)? == 1 || r.eval_cells(t)? == 1),
            WordNode::Not(e) => e.eval_cells(t)? ^ 1,
            WordNode::Neg(e) => match e.ty {
                WordType::Int => (e.eval_cells(t)? as i64).checked_neg().ok_or(Escaped)? as u64,
                _ => (-f64::from_bits(e.eval_cells(t)?)).to_bits(),
            },
            WordNode::Abs(e) => match e.ty {
                WordType::Int => (e.eval_cells(t)? as i64).checked_abs().ok_or(Escaped)? as u64,
                _ => f64::from_bits(e.eval_cells(t)?).abs().to_bits(),
            },
            WordNode::Extreme(keep, args) => {
                let lane = if self.ty == WordType::Int {
                    Lane::Int
                } else {
                    Lane::Double
                };
                let mut best = args[0].eval_cells(t)?;
                for a in &args[1..] {
                    let w = a.eval_cells(t)?;
                    if lane.cmp(w, best) == *keep {
                        best = w;
                    }
                }
                best
            }
        })
    }
}

impl PExpr {
    /// Compile against word-lane input: `input[i]` is column `i`'s lane, or
    /// `None` for a column words cannot hold or that was not read into the
    /// tuple. `None` when a node has no static word type — a NULL or string
    /// literal, a mixed-type `least`, `IS NULL`, … — which sends the whole
    /// clique to value cells.
    pub fn compile_words(&self, input: &[Option<Lane>]) -> Option<WordExpr> {
        use WordType::{Bool, Double, Int};
        let boxed = |e: &PExpr| e.compile_words(input).map(Box::new);
        let numeric = |e: &WordExpr| e.ty != Bool;
        let (node, ty) = match self {
            PExpr::Col(i) => (WordNode::Col(*i), WordType::of((*input.get(*i)?)?)),
            PExpr::Lit(Value::Int(i)) => (WordNode::Lit(*i as u64), Int),
            PExpr::Lit(Value::Double(d)) => (WordNode::Lit(d.to_bits()), Double),
            PExpr::Lit(Value::Bool(b)) => (WordNode::Lit(u64::from(*b)), Bool),
            PExpr::Lit(_) | PExpr::IsNull { .. } => return None,
            PExpr::Binary { left, op, right } => {
                let (l, r) = (boxed(left)?, boxed(right)?);
                match op {
                    BinaryOp::And | BinaryOp::Or if l.ty == Bool && r.ty == Bool => {
                        if *op == BinaryOp::And {
                            (WordNode::And(l, r), Bool)
                        } else {
                            (WordNode::Or(l, r), Bool)
                        }
                    }
                    BinaryOp::And | BinaryOp::Or => return None,
                    BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::Div
                    | BinaryOp::Mod => {
                        let ty = match (l.ty, r.ty) {
                            (Int, Int) => Int,
                            // `%` is defined on integers only.
                            (Int | Double, Int | Double) if *op != BinaryOp::Mod => Double,
                            _ => return None,
                        };
                        (WordNode::Arith(*op, l, r), ty)
                    }
                    _ if numeric(&l) == numeric(&r) => (WordNode::Cmp(*op, l, r), Bool),
                    _ => return None,
                }
            }
            PExpr::Neg(e) => {
                let e = boxed(e)?;
                let ty = e.ty;
                (WordNode::Neg(e), numeric_type(ty)?)
            }
            PExpr::Not(e) => {
                let e = boxed(e)?;
                if e.ty != Bool {
                    return None;
                }
                (WordNode::Not(e), Bool)
            }
            PExpr::Func { func, args } => {
                let args: Vec<WordExpr> = (args.iter())
                    .map(|a| a.compile_words(input))
                    .collect::<Option<_>>()?;
                let ty = numeric_type(args.first()?.ty)?;
                match func {
                    // `abs` reads its first argument.
                    ScalarFunc::Abs => (WordNode::Abs(Box::new(args.into_iter().next()?)), ty),
                    // With one type among the arguments the winner's variant
                    // is static; `least(Int, Double)` returns either.
                    _ if args.iter().any(|a| a.ty != ty) => return None,
                    ScalarFunc::Least => (WordNode::Extreme(Ordering::Less, args), ty),
                    ScalarFunc::Greatest => (WordNode::Extreme(Ordering::Greater, args), ty),
                }
            }
        };
        Some(WordExpr { node, ty })
    }
}

fn numeric_type(ty: WordType) -> Option<WordType> {
    (ty != WordType::Bool).then_some(ty)
}

impl fmt::Display for PExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PExpr::Col(i) => write!(f, "#{i}"),
            PExpr::Lit(v) => write!(f, "{v}"),
            PExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            PExpr::Neg(e) => write!(f, "(-{e})"),
            PExpr::Not(e) => write!(f, "(NOT {e})"),
            PExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            PExpr::Func { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasql_storage::row::int_row;

    #[test]
    fn eval_arithmetic_and_comparison() {
        let row = int_row(&[10, 3]);
        let e = PExpr::Binary {
            left: Box::new(PExpr::Col(0)),
            op: BinaryOp::Add,
            right: Box::new(PExpr::Col(1)),
        };
        assert_eq!(e.eval(&row), Value::Int(13));
        let c = PExpr::Binary {
            left: Box::new(PExpr::Col(0)),
            op: BinaryOp::Gt,
            right: Box::new(PExpr::Lit(Value::Int(5))),
        };
        assert_eq!(c.eval(&row), Value::Bool(true));
    }

    #[test]
    fn short_circuit_and_or() {
        let row = int_row(&[1]);
        // (1 > 2) AND anything → false without evaluating the right side type.
        let e = PExpr::Binary {
            left: Box::new(PExpr::eq(PExpr::Col(0), PExpr::lit(2i64))),
            op: BinaryOp::And,
            right: Box::new(PExpr::Col(0)), // non-bool — would be falsy anyway
        };
        assert_eq!(e.eval(&row), Value::Bool(false));
    }

    #[test]
    fn null_comparisons_are_false() {
        let e = PExpr::eq(PExpr::lit(Value::Null), PExpr::lit(Value::Null));
        assert_eq!(e.eval(&Row::unit()), Value::Bool(false));
    }

    #[test]
    fn is_null() {
        let e = PExpr::IsNull {
            expr: Box::new(PExpr::Lit(Value::Null)),
            negated: false,
        };
        assert_eq!(e.eval(&Row::unit()), Value::Bool(true));
        let e = PExpr::IsNull {
            expr: Box::new(PExpr::lit(1i64)),
            negated: true,
        };
        assert_eq!(e.eval(&Row::unit()), Value::Bool(true));
    }

    #[test]
    fn folding() {
        let e = PExpr::Binary {
            left: Box::new(PExpr::lit(2i64)),
            op: BinaryOp::Mul,
            right: Box::new(PExpr::lit(21i64)),
        };
        assert_eq!(e.fold(), PExpr::Lit(Value::Int(42)));

        let e = PExpr::Binary {
            left: Box::new(PExpr::Lit(Value::Bool(true))),
            op: BinaryOp::And,
            right: Box::new(PExpr::eq(PExpr::Col(0), PExpr::lit(1i64))),
        };
        assert_eq!(e.fold(), PExpr::eq(PExpr::Col(0), PExpr::lit(1i64)));
    }

    #[test]
    fn split_and_join_conjuncts() {
        let e = PExpr::and_all(vec![
            PExpr::eq(PExpr::Col(0), PExpr::lit(1i64)),
            PExpr::eq(PExpr::Col(1), PExpr::lit(2i64)),
            PExpr::eq(PExpr::Col(2), PExpr::lit(3i64)),
        ]);
        let mut out = Vec::new();
        e.split_conjuncts(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn remap_and_columns() {
        let e = PExpr::eq(PExpr::Col(1), PExpr::Col(3));
        let r = e.remap_columns(&|i| i + 10);
        let mut cols = Vec::new();
        r.columns(&mut cols);
        assert_eq!(cols, vec![11, 13]);
        assert_eq!(r.max_column(), Some(13));
    }
}
