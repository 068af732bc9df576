//! The scalar operators: one vocabulary for every IR, one evaluator for
//! every engine.
//!
//! PGIR, DLIR and SQIR all name their comparisons, arithmetic and
//! aggregates with the types below, and the graph, Datalog and SQL engines
//! (and the optimizer's constant folding) all evaluate them with the methods
//! below, so the meaning of `<`, `+` or `min` is written down exactly once.
//! Only the spelling differs per target, and it stays in the unparsers (SQL
//! `<>` and `COUNT`, Soufflé `!=` and `mean`).
//!
//! The semantics are openCypher's (and SQL's) three-valued logic:
//!
//! * a comparison with NULL is NULL (`None`);
//! * `<`, `<=`, `>` and `>=` across types are NULL; `=` and `<>` across
//!   non-NULL types are false and true;
//! * integer overflow, division or modulo by zero are NULL;
//! * aggregates skip NULL inputs.

use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` (Cypher, SQL) or `!=` (Datalog)
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The Datalog spelling of the operator (`!=` for `Neq`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Three-valued comparison: `None` (NULL) when either operand is NULL,
    /// or when an ordering operator compares values of different types.
    /// `=` and `<>` across non-NULL types are false and true.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Option<bool> {
        if lhs.is_null() || rhs.is_null() {
            return None;
        }
        if lhs.value_type() != rhs.value_type() {
            return match self {
                CmpOp::Eq => Some(false),
                CmpOp::Neq => Some(true),
                _ => None,
            };
        }
        let order = lhs.cmp(rhs);
        Some(match self {
            CmpOp::Eq => order.is_eq(),
            CmpOp::Neq => order.is_ne(),
            CmpOp::Lt => order.is_lt(),
            CmpOp::Le => order.is_le(),
            CmpOp::Gt => order.is_gt(),
            CmpOp::Ge => order.is_ge(),
        })
    }

    /// The complement: `NOT (a op b)` is `a op.negated() b`, also under
    /// three-valued logic (both sides are NULL together).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The comparison with its operands swapped: `a op b` is
    /// `b op.flipped() a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`, truncating
    Div,
    /// `%`, with the sign of the dividend
    Mod,
}

impl ArithOp {
    /// The textual operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }

    /// Evaluate on integers: the one checked integer arithmetic every engine
    /// uses. Overflow (including `i64::MIN / -1` and `i64::MIN % -1`),
    /// division or modulo by zero, and non-integer operands yield `None`.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Option<Value> {
        let (a, b) = (lhs.as_int()?, rhs.as_int()?);
        let v = match self {
            ArithOp::Add => a.checked_add(b)?,
            ArithOp::Sub => a.checked_sub(b)?,
            ArithOp::Mul => a.checked_mul(b)?,
            ArithOp::Div => a.checked_div(b)?,
            ArithOp::Mod => a.checked_rem(b)?,
        };
        Some(Value::Int(v))
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(x)`, or `count(*)` without an input.
    Count,
    /// `sum(x)`
    Sum,
    /// `min(x)`
    Min,
    /// `max(x)`
    Max,
    /// `avg(x)`, truncated to an integer (Soufflé spells it `mean`).
    Avg,
}

impl AggFunc {
    /// Parse a Cypher aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "avg" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    /// The canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Fold one group's inputs, deduplicated first when `distinct`. NULL
    /// inputs are skipped: `count` counts the non-NULL values (`count(*)`
    /// passes one non-NULL value per row, so it counts rows), `sum` of
    /// nothing is 0, and `min`, `max` and `avg` of nothing are NULL. Integer
    /// overflow in `sum` or `avg` is NULL; `sum` and `avg` skip non-integers.
    pub fn fold(self, mut values: Vec<Value>, distinct: bool) -> Value {
        values.retain(|v| !v.is_null());
        if distinct {
            values.sort();
            values.dedup();
        }
        let ints = || values.iter().filter_map(Value::as_int);
        let sum = || ints().try_fold(0i64, i64::checked_add);
        match self {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Sum => sum().map_or(Value::Null, Value::Int),
            AggFunc::Min => values.iter().min().cloned().unwrap_or(Value::Null),
            AggFunc::Max => values.iter().max().cloned().unwrap_or(Value::Null),
            AggFunc::Avg => match (sum(), ints().count() as i64) {
                (Some(sum), n) if n > 0 => Value::Int(sum / n),
                _ => Value::Null,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    #[test]
    fn comparison_truth_table() {
        let (one, two, a, null) = (Value::Int(1), Value::Int(2), Value::str("a"), Value::Null);
        // (lhs, rhs, [Eq, Neq, Lt, Le, Gt, Ge])
        let table: [(&Value, &Value, [Option<bool>; 6]); 8] = [
            (
                &one,
                &two,
                [Some(false), Some(true), Some(true), Some(true), Some(false), Some(false)],
            ),
            (
                &two,
                &one,
                [Some(false), Some(true), Some(false), Some(false), Some(true), Some(true)],
            ),
            (
                &one,
                &one,
                [Some(true), Some(false), Some(false), Some(true), Some(false), Some(true)],
            ),
            (&a, &a, [Some(true), Some(false), Some(false), Some(true), Some(false), Some(true)]),
            // Across types: = and <> answer, ordering is NULL.
            (&a, &one, [Some(false), Some(true), None, None, None, None]),
            (&one, &Value::Bool(true), [Some(false), Some(true), None, None, None, None]),
            // NULL against anything, itself included, is NULL.
            (&null, &one, [None; 6]),
            (&null, &null, [None; 6]),
        ];
        for (lhs, rhs, expected) in table {
            for (op, want) in ALL.into_iter().zip(expected) {
                assert_eq!(op.eval(lhs, rhs), want, "{lhs:?} {} {rhs:?}", op.symbol());
            }
        }
    }

    #[test]
    fn negated_and_flipped_agree_with_eval() {
        let values = [Value::Int(1), Value::Int(2), Value::str("a"), Value::Null];
        for op in ALL {
            for l in &values {
                for r in &values {
                    let v = op.eval(l, r);
                    assert_eq!(op.negated().eval(l, r), v.map(|b| !b), "{l:?} {op:?} {r:?}");
                    assert_eq!(op.flipped().eval(r, l), v, "{l:?} {op:?} {r:?}");
                }
            }
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn aggregates_skip_null() {
        let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        let with_null = |vs: &[i64]| {
            let mut v = ints(vs);
            v.insert(0, Value::Null);
            v
        };
        // (func, fold of [NULL, 4, 2, 4], fold of [], fold of [NULL])
        let table = [
            (AggFunc::Count, Value::Int(3), Value::Int(0), Value::Int(0)),
            (AggFunc::Sum, Value::Int(10), Value::Int(0), Value::Int(0)),
            (AggFunc::Min, Value::Int(2), Value::Null, Value::Null),
            (AggFunc::Max, Value::Int(4), Value::Null, Value::Null),
            (AggFunc::Avg, Value::Int(3), Value::Null, Value::Null),
        ];
        for (func, full, empty, only_null) in table {
            assert_eq!(func.fold(with_null(&[4, 2, 4]), false), full, "{func:?}");
            assert_eq!(func.fold(Vec::new(), false), empty, "{func:?} of nothing");
            assert_eq!(func.fold(vec![Value::Null], false), only_null, "{func:?} of NULL");
        }
        // DISTINCT deduplicates before folding.
        assert_eq!(AggFunc::Count.fold(with_null(&[4, 2, 4]), true), Value::Int(2));
        assert_eq!(AggFunc::Sum.fold(with_null(&[4, 2, 4]), true), Value::Int(6));
        // Overflow is NULL.
        assert_eq!(AggFunc::Sum.fold(ints(&[i64::MAX, 1]), false), Value::Null);
        assert_eq!(AggFunc::Avg.fold(ints(&[i64::MAX, 1]), false), Value::Null);
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("collect"), None);
    }
}
