//! Row: a fixed-width tuple of [`Value`]s.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;

/// An immutable tuple. Boxed slice keeps the row at two words on the stack and
/// avoids the extra capacity word of `Vec` — rows are stored by the million in
/// the fixpoint operator's set state, so the footprint matters (perf-book:
/// prefer `Box<[T]>` for frozen collections).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Build a row by cloning a borrowed tuple: the one allocation a tuple
    /// costs when it leaves a scratch buffer to be kept.
    pub fn from_slice(values: &[Value]) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// The empty row (used for scalar subquery results).
    pub fn unit() -> Self {
        Row {
            values: Box::new([]),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Column accessor.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Row::new(v)
    }

    /// Project the given column indices into a new row.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row::new(cols.iter().map(|&c| self.values[c].clone()).collect())
    }

    /// Approximate in-memory footprint in bytes (for shuffle accounting).
    pub fn size_bytes(&self) -> usize {
        16 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.into_vec()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// A row hashes and compares exactly like the slice of its values (the
/// derived impls delegate to the one `Box<[Value]>` field), so maps keyed by
/// `Row` can be probed with a borrowed tuple.
impl Borrow<[Value]> for Row {
    #[inline]
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl AsRef<[Value]> for Row {
    #[inline]
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

impl Index<usize> for Row {
    type Output = Value;
    #[inline]
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience constructor for integer rows, pervasive in graph workloads.
pub fn int_row(values: &[i64]) -> Row {
    Row::new(values.iter().map(|&v| Value::Int(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_project() {
        let a = int_row(&[1, 2]);
        let b = int_row(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]), int_row(&[3, 1]));
    }

    #[test]
    fn indexing() {
        let r = int_row(&[10, 20]);
        assert_eq!(r[1], Value::Int(20));
        assert_eq!(r.get(0), &Value::Int(10));
    }

    #[test]
    fn unit_row() {
        assert_eq!(Row::unit().arity(), 0);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", int_row(&[1, 2])), "(1, 2)");
    }
}
