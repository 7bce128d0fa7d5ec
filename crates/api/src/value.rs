//! Dynamically-typed scalar values.
//!
//! `Value` is the single runtime representation flowing through the engine.
//! It supports the SQL types the paper's workloads need (64-bit integers,
//! doubles, strings, booleans, NULL) with a *total* order and a stable hash so
//! rows can be used as keys in the fixpoint operator's set/aggregate state.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically-typed scalar.
///
/// Doubles are ordered/hased via their IEEE total order bit pattern so that
/// `Value` can serve as a hash-map key; SQL `NULL` sorts before everything and
/// compares equal only to itself (group-by semantics, not three-valued logic —
/// the RaSQL workloads in the paper never rely on `NULL` propagation inside
/// recursion).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Immutable UTF-8 string (cheaply clonable).
    Str(Arc<str>),
}

impl Value {
    /// A string value from anything stringy.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// True if this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload widened to f64 (`Int` and `Double` only).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness for WHERE/HAVING evaluation: `Bool(true)` is true, everything
    /// else (including NULL) is false.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Rank of the variant for cross-type total ordering.
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Addition with numeric type promotion. Returns `Null` if either side is
    /// NULL or non-numeric (SQL-style silent null propagation).
    pub fn add(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtraction with numeric type promotion.
    pub fn sub(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiplication with numeric type promotion.
    pub fn mul(&self, other: &Value) -> Value {
        numeric_binop(self, other, |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Division. Integer division when both sides are `Int`; NULL on divide by
    /// zero (matching permissive SQL engines rather than erroring mid-fixpoint).
    pub fn div(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) if b != 0.0 => Value::Double(a / b),
                _ => Value::Null,
            },
        }
    }

    /// Modulo (integers only); NULL otherwise.
    pub fn rem(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) if *b != 0 => Value::Int(a % b),
            _ => Value::Null,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the executor's
    /// shuffle/broadcast byte accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => 16 + s.len(),
        }
    }
}

/// The type of one word-lane column: a relation whose columns are all `Int`
/// or `Double` can keep a value as the 8 bytes of its payload — a *word* —
/// instead of a tagged [`Value`], and the lane says how to read them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `Value::Int` — the cell is the `i64`'s bits.
    Int,
    /// `Value::Double` — the cell is the `f64`'s bits.
    Double,
}

/// A value left its lane: the word run must be abandoned before the tuple in
/// flight is merged, and the clique re-evaluated on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escaped;

impl Lane {
    /// The cell of a value of exactly this lane's variant.
    #[inline]
    pub fn encode(self, v: &Value) -> Result<u64, Escaped> {
        match (self, v) {
            (Lane::Int, Value::Int(i)) => Ok(*i as u64),
            (Lane::Double, Value::Double(d)) => Ok(d.to_bits()),
            _ => Err(Escaped),
        }
    }

    /// The value a cell of this lane holds.
    #[inline]
    pub fn decode(self, w: u64) -> Value {
        match self {
            Lane::Int => Value::Int(w as i64),
            Lane::Double => Value::Double(f64::from_bits(w)),
        }
    }

    /// `Value::cmp` of the two cells' values.
    #[inline]
    pub fn cmp(self, a: u64, b: u64) -> Ordering {
        match self {
            Lane::Int => (a as i64).cmp(&(b as i64)),
            Lane::Double => f64::from_bits(a).total_cmp(&f64::from_bits(b)),
        }
    }

    /// Feed `h` exactly what `Value::hash` of the cell's value would, so a
    /// packed key lands in the partition its row would.
    #[inline]
    pub fn hash_word<H: Hasher>(self, w: u64, h: &mut H) {
        match self {
            // `Value::Int`'s own two writes.
            Lane::Int => {
                h.write_u8(2);
                h.write_i64(w as i64);
            }
            Lane::Double => Value::Double(f64::from_bits(w)).hash(h),
        }
    }

    /// The one cell of this lane equal to `v` as `Value::eq` sees it:
    /// `Ok(None)` when no cell is — NULL, a string, `2.5` or `-0.0` under
    /// `Int` — and `Escaped` when more than one might be, or the hash of a
    /// row would disagree with the equality: an integral `Double` of at
    /// least 2^53 under `Int`, an `Int` beyond 2^53 under `Double`.
    #[inline]
    pub fn key_cell(self, v: &Value) -> Result<Option<u64>, Escaped> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match (self, v) {
            (Lane::Int, Value::Int(i)) => Ok(Some(*i as u64)),
            (Lane::Double, Value::Double(d)) => Ok(Some(d.to_bits())),
            (Lane::Int, Value::Double(d)) if d.is_finite() && d.abs() >= EXACT => Err(Escaped),
            (Lane::Int, Value::Double(d)) => {
                let i = *d as i64;
                // Non-integral, NaN, ±∞ and `-0.0` equal no `Int`.
                Ok(((i as f64).to_bits() == d.to_bits()).then_some(i as u64))
            }
            (Lane::Double, Value::Int(i)) if i.unsigned_abs() > 1 << 53 => Err(Escaped),
            (Lane::Double, Value::Int(i)) => Ok(Some((*i as f64).to_bits())),
            _ => Ok(None),
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    f64_op: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match int_op(*x, *y) {
            Some(v) => Value::Int(v),
            // Overflow promotes to double rather than wrapping or panicking.
            None => Value::Double(f64_op(*x as f64, *y as f64)),
        },
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Value::Double(f64_op(x, y)),
            _ => Value::Null,
        },
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            // Int and Double that compare equal must hash equal; hash every
            // numeric through the f64 bit pattern of its canonical value when it
            // is integral, otherwise raw bits.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                // A double holding an exact integer hashes like the integer so
                // that Int(2) and Double(2.0) (which compare Equal) agree.
                if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d <= i64::MAX as f64 {
                    state.write_u8(2);
                    state.write_i64(*d as i64);
                } else {
                    state.write_u8(3);
                    state.write_u64(d.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_orders_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn int_double_cross_compare() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert!(Value::Int(2) < Value::Double(2.5));
        assert!(Value::Double(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Double(42.0)));
        assert_ne!(hash_of(&Value::Int(42)), hash_of(&Value::Double(42.5)));
    }

    #[test]
    fn a_key_cell_is_the_one_cell_its_value_equals() {
        for (lane, v) in [
            (Lane::Int, Value::Int(-7)),
            (Lane::Int, Value::Double(2.0)),
            (Lane::Double, Value::Double(-0.0)),
            (Lane::Double, Value::Int(1 << 53)),
        ] {
            let cell = lane.key_cell(&v).unwrap().unwrap();
            assert_eq!(lane.decode(cell), v);
            let mut h = [DefaultHasher::default(), DefaultHasher::default()];
            lane.hash_word(cell, &mut h[0]);
            v.hash(&mut h[1]);
            assert_eq!(h[0].finish(), h[1].finish());
        }
        for none in [
            Value::Null,
            Value::Double(2.5),
            Value::Double(-0.0),
            Value::from("2"),
        ] {
            assert_eq!(Lane::Int.key_cell(&none), Ok(None));
        }
        assert_eq!(
            Lane::Int.key_cell(&Value::Double(2f64.powi(53))),
            Err(Escaped)
        );
        assert_eq!(
            Lane::Double.key_cell(&Value::Int((1 << 53) + 1)),
            Err(Escaped)
        );
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Double(0.5)), Value::Double(2.5));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Int(3));
        assert_eq!(Value::Int(7).div(&Value::Int(0)), Value::Null);
        assert_eq!(Value::Null.add(&Value::Int(1)), Value::Null);
    }

    #[test]
    fn overflow_promotes_to_double() {
        let v = Value::Int(i64::MAX).add(&Value::Int(1));
        assert!(matches!(v, Value::Double(_)));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn size_accounting() {
        assert_eq!(Value::Int(0).size_bytes(), 8);
        assert_eq!(Value::str("ab").size_bytes(), 18);
    }
}
