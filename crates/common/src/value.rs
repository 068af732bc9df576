//! Runtime values.
//!
//! Raqlet's engines and IR constant folding all operate on [`Value`]. The type
//! mirrors the paper's data model: Datalog `number` (64-bit integers), Datalog
//! `symbol` (strings), plus booleans and SQL-style `NULL` for the relational
//! backend. Floating point is intentionally not part of the model — the LDBC
//! read queries Raqlet targets only use integers, strings and dates (encoded
//! as integers), and omitting floats keeps `Value: Eq + Hash + Ord`, which the
//! set-semantics engines rely on.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::types::ValueType;

/// A dynamically typed scalar value.
///
/// Strings are reference-counted (`Arc<str>`): tuples flow through join
/// environments, persistent indexes and result sets, and each hop clones the
/// value — an atomic increment instead of a heap copy keeps wide
/// string-carrying tuples cheap everywhere (and keeps the door open for
/// parallel evaluation, hence `Arc` over `Rc`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer (Datalog `number`). Dates are encoded as
    /// `yyyymmdd` integers and datetimes as epoch milliseconds.
    Int(i64),
    /// UTF-8 string (Datalog `symbol`).
    Str(Arc<str>),
    /// Boolean, used by predicates and the property-graph model.
    Bool(bool),
    /// SQL NULL / missing property. Compares equal to itself so that
    /// set-semantics deduplication behaves deterministically.
    Null,
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The static type of this value, or `None` for `Null` (which inhabits
    /// every nullable type).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Int(_) => Some(ValueType::Int),
            Value::Str(_) => Some(ValueType::Text),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Null => None,
        }
    }

    /// Return the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Return the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Return the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style truthiness: `Bool(true)` is true, everything else false.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Total ordering used for deterministic output ordering and for
    /// MIN/MAX aggregation. Order: Null < Bool < Int < Str.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
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

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types_are_reported() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::str("a").value_type(), Some(ValueType::Text));
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Null.value_type(), None);
    }

    #[test]
    fn accessors_return_payloads() {
        assert_eq!(Value::Int(42).as_int(), Some(42));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_str(), None);
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn total_order_groups_by_type_rank() {
        let mut vs = vec![
            Value::str("b"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::str("a"),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-3),
                Value::Int(5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn truthiness_only_for_bool_true() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(1).is_truthy());
        assert!(!Value::Null.is_truthy());
    }
}
