//! The word-lane evaluator against the `Value` evaluator: wherever
//! `PExpr::compile_words` types an expression, evaluating it over packed
//! cells gives exactly what `eval_vals` gives over the equivalent values —
//! same variant, same bits — or reports `Escaped` precisely when `eval_vals`
//! leaves the static type (an `Int` overflow promoted to `Double`, a NULL
//! from a division by zero) or has no result at all (`i64::MIN / -1` panics).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rasql_plan::expr::{BinaryOp, ScalarFunc};
use rasql_plan::{PExpr, WordType};
use rasql_storage::value::{Escaped, Lane};
use rasql_storage::Value;

/// The input tuple: two `Int` columns, then two `Double` columns.
const LANES: [Option<Lane>; 4] = [
    Some(Lane::Int),
    Some(Lane::Int),
    Some(Lane::Double),
    Some(Lane::Double),
];

const INTS: [i64; 9] = [
    0,
    1,
    -1,
    2,
    7,
    i64::MAX,
    i64::MAX - 1,
    i64::MIN + 1,
    1 << 53,
];
const DOUBLES: [f64; 11] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    2.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9.3e18,
    1e-300,
];

/// Random expressions over the four columns, every node kind included —
/// those `compile_words` declines (NULL literals, `IS NULL`, mixed-type
/// `least`, …) too, so declining is exercised as well.
struct Exprs;

impl Exprs {
    fn expr(rng: &mut StdRng, depth: u32) -> PExpr {
        let boxed = |rng: &mut StdRng| Box::new(Self::expr(rng, depth - 1));
        match if depth == 0 {
            rng.gen_range(0..2)
        } else {
            rng.gen_range(0..8)
        } {
            0 => PExpr::Col(rng.gen_range(0..4)),
            1 => PExpr::Lit(match rng.gen_range(0..16) {
                0..=6 => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
                7..=12 => Value::Double(DOUBLES[rng.gen_range(0..DOUBLES.len())]),
                13 | 14 => Value::Bool(rng.gen_range(0..2) == 1),
                _ => Value::Null,
            }),
            2..=4 => {
                // Arithmetic twice: it is what overflows and divides by zero.
                const OPS: [BinaryOp; 18] = [
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                    BinaryOp::And,
                    BinaryOp::Or,
                ];
                PExpr::Binary {
                    left: boxed(rng),
                    op: OPS[rng.gen_range(0..OPS.len())],
                    right: boxed(rng),
                }
            }
            5 => match rng.gen_range(0..3) {
                0 => PExpr::Neg(boxed(rng)),
                1 => PExpr::Not(boxed(rng)),
                _ => PExpr::IsNull {
                    expr: boxed(rng),
                    negated: rng.gen_range(0..2) == 1,
                },
            },
            _ => PExpr::Func {
                func: [ScalarFunc::Least, ScalarFunc::Greatest, ScalarFunc::Abs]
                    [rng.gen_range(0..3usize)],
                args: (0..rng.gen_range(1..4))
                    .map(|_| Self::expr(rng, depth - 1))
                    .collect(),
            },
        }
    }
}

impl Strategy for Exprs {
    type Value = PExpr;

    fn generate(&self, rng: &mut StdRng) -> PExpr {
        Self::expr(rng, 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn a_typed_expression_computes_what_eval_vals_computes(
        e in Exprs,
        ints in (0usize..INTS.len(), 0usize..INTS.len()),
        doubles in (0usize..DOUBLES.len(), 0usize..DOUBLES.len()),
    ) {
        let Some(typed) = e.compile_words(&LANES) else {
            return Ok(());
        };
        let (a, b, x, y) = (INTS[ints.0], INTS[ints.1], DOUBLES[doubles.0], DOUBLES[doubles.1]);
        let values = [Value::Int(a), Value::Int(b), Value::Double(x), Value::Double(y)];
        let cells = [a as u64, b as u64, x.to_bits(), y.to_bits()];
        // `Value` arithmetic panics where `i64` division or negation
        // overflows; there the row path has no result to agree with.
        let by_value = std::panic::catch_unwind(|| e.eval_vals(&values)).ok();
        match (typed.eval_cells(&cells), by_value) {
            (Ok(w), Some(v)) => {
                let same = match (typed.ty(), &v) {
                    (WordType::Int, Value::Int(i)) => w == *i as u64,
                    (WordType::Double, Value::Double(d)) => w == d.to_bits(),
                    (WordType::Bool, Value::Bool(t)) => w == u64::from(*t),
                    _ => false,
                };
                prop_assert!(same, "{e}: word {w:#x} as {:?}, value {v:?}", typed.ty());
            }
            (Err(Escaped), Some(_)) => {
                prop_assert!(leaves_its_type(&e, &values), "{e}: escaped for no reason");
            }
            (Err(Escaped), None) => {}
            (Ok(w), None) => prop_assert!(false, "{e}: word {w:#x} where the value path panics"),
        }
    }
}

/// Whether evaluating `e` on values meets a result outside the static word
/// type of its node — in `e` itself or in a subexpression whose result the
/// top-level value no longer shows (a comparison of an overflowed sum, …) —
/// or panics: the cases in which the word evaluator must escape.
fn leaves_its_type(e: &PExpr, values: &[Value]) -> bool {
    let Some(typed) = e.compile_words(&LANES) else {
        return false;
    };
    let here = match std::panic::catch_unwind(|| e.eval_vals(values)) {
        Err(_) => true,
        Ok(v) => !matches!(
            (typed.ty(), v),
            (WordType::Int, Value::Int(_))
                | (WordType::Double, Value::Double(_))
                | (WordType::Bool, Value::Bool(_))
        ),
    };
    let inside = |e: &PExpr| leaves_its_type(e, values);
    here || match e {
        PExpr::Col(_) | PExpr::Lit(_) => false,
        PExpr::Binary { left, right, .. } => inside(left) || inside(right),
        PExpr::Neg(e) | PExpr::Not(e) | PExpr::IsNull { expr: e, .. } => inside(e),
        PExpr::Func { args, .. } => args.iter().any(inside),
    }
}

#[test]
fn what_words_cannot_type_is_declined() {
    let col = |i| Box::new(PExpr::Col(i));
    let declined = [
        PExpr::Lit(Value::Null),
        PExpr::Lit(Value::from("s")),
        PExpr::Col(4),
        PExpr::IsNull {
            expr: col(0),
            negated: false,
        },
        // `%` of a double is always NULL; `least` over both types returns
        // either variant.
        PExpr::Binary {
            left: col(2),
            op: BinaryOp::Mod,
            right: col(0),
        },
        PExpr::Func {
            func: ScalarFunc::Least,
            args: vec![PExpr::Col(0), PExpr::Col(2)],
        },
        PExpr::Not(col(0)),
    ];
    for e in declined {
        assert!(e.compile_words(&LANES).is_none(), "{e}");
    }
    // A column the tuple does not carry cannot be read.
    assert!(PExpr::Col(1)
        .compile_words(&[Some(Lane::Int), None])
        .is_none());
    let sum = PExpr::Binary {
        left: col(0),
        op: BinaryOp::Add,
        right: col(2),
    };
    assert_eq!(sum.compile_words(&LANES).unwrap().ty(), WordType::Double);
}
