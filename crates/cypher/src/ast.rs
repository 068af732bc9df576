//! Abstract syntax tree for the supported Cypher subset.

use std::fmt;

use raqlet_common::Value;

/// A parsed Cypher query: an ordered sequence of clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
}

impl Query {
    /// True if any clause uses an aggregation function.
    pub fn uses_aggregation(&self) -> bool {
        self.clauses.iter().any(|c| match c {
            Clause::Return(p) | Clause::With(p) => {
                p.items.iter().any(|i| i.expr.contains_aggregate())
            }
            _ => false,
        })
    }

    /// True if any pattern uses a variable-length relationship or
    /// `shortestPath`, i.e. the query is recursive after lowering.
    pub fn uses_recursion(&self) -> bool {
        self.clauses.iter().any(|c| match c {
            Clause::Match(m) => m
                .patterns
                .iter()
                .any(|p| p.shortest.is_some() || p.steps.iter().any(|(r, _)| r.length.is_some())),
            _ => false,
        })
    }
}

/// A top-level clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `MATCH` or `OPTIONAL MATCH`, with an optional attached `WHERE`.
    Match(MatchClause),
    /// `WITH ...` intermediate projection.
    With(Projection),
    /// `RETURN ...` final projection.
    Return(Projection),
    /// `UNWIND expr AS var`.
    Unwind { expr: Expr, alias: String },
}

/// A `MATCH` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchClause {
    /// True for `OPTIONAL MATCH`.
    pub optional: bool,
    /// Comma-separated path patterns.
    pub patterns: Vec<PathPattern>,
    /// The attached `WHERE` predicate, if any.
    pub where_clause: Option<Expr>,
}

/// Shared shape of `WITH` and `RETURN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// True if `DISTINCT` was specified.
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<ReturnItem>,
    /// `WHERE` attached to a `WITH` (post-aggregation filter).
    pub where_clause: Option<Expr>,
    /// `ORDER BY` items (parsed, dropped during lowering per the paper).
    pub order_by: Vec<OrderItem>,
    /// `SKIP n` (parsed, dropped during lowering).
    pub skip: Option<i64>,
    /// `LIMIT n` (parsed, dropped during lowering).
    pub limit: Option<i64>,
}

impl Projection {
    /// A projection with only items set.
    pub fn simple(distinct: bool, items: Vec<ReturnItem>) -> Self {
        Projection {
            distinct,
            items,
            where_clause: None,
            order_by: Vec::new(),
            skip: None,
            limit: None,
        }
    }
}

/// One projected expression with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnItem {
    /// The projected expression.
    pub expr: Expr,
    /// `AS alias`, if given.
    pub alias: Option<String>,
}

impl ReturnItem {
    /// The output column name: the alias if present, otherwise a rendering of
    /// the expression (`n.firstName` → `firstName`, plain variable → itself).
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            Expr::Property(_, prop) => prop.clone(),
            Expr::Var(v) => v.clone(),
            other => other.to_string(),
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// True for ascending (the default).
    pub ascending: bool,
}

/// Which flavour of shortest-path matching a pattern requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortestKind {
    /// `shortestPath(...)` — one shortest path per endpoint pair.
    Single,
    /// `allShortestPaths(...)` — all shortest paths per endpoint pair.
    All,
}

/// A path pattern: a start node followed by zero or more (relationship, node)
/// steps, optionally wrapped in `shortestPath` and optionally named.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// `p = ...` path variable.
    pub path_var: Option<String>,
    /// Set when the pattern is wrapped in `shortestPath`/`allShortestPaths`.
    pub shortest: Option<ShortestKind>,
    /// The leftmost node pattern.
    pub start: NodePattern,
    /// Each relationship and the node it leads to, left to right.
    pub steps: Vec<(RelPattern, NodePattern)>,
}

impl PathPattern {
    /// All node patterns, left to right.
    pub fn nodes(&self) -> Vec<&NodePattern> {
        let mut v = vec![&self.start];
        v.extend(self.steps.iter().map(|(_, n)| n));
        v
    }
}

/// A node pattern `(n:Person {id: 42})`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// Binding variable, if named.
    pub var: Option<String>,
    /// Labels (usually zero or one).
    pub labels: Vec<String>,
    /// Inline property constraints.
    pub properties: Vec<(String, Expr)>,
}

/// Direction of a relationship pattern relative to reading order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `-[...]->`
    Outgoing,
    /// `<-[...]-`
    Incoming,
    /// `-[...]-`
    Undirected,
}

/// Variable-length bounds of a relationship pattern (`*`, `*2`, `*1..3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarLength {
    /// Lower bound; `None` means the Cypher default of 1.
    pub min: Option<u32>,
    /// Upper bound; `None` means unbounded.
    pub max: Option<u32>,
}

impl VarLength {
    /// The effective lower bound (Cypher defaults to 1).
    pub fn min_hops(&self) -> u32 {
        self.min.unwrap_or(1)
    }
}

/// A relationship pattern `-[r:KNOWS*1..2 {since: 2020}]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    /// Binding variable, if named.
    pub var: Option<String>,
    /// Relationship types (alternatives separated by `|`).
    pub types: Vec<String>,
    /// Traversal direction.
    pub direction: Direction,
    /// Variable-length bounds, if this is a variable-length pattern.
    pub length: Option<VarLength>,
    /// Inline property constraints.
    pub properties: Vec<(String, Expr)>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    In,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregation functions supported in `WITH`/`RETURN`.
pub const AGGREGATE_FUNCTIONS: &[&str] = &["count", "sum", "min", "max", "avg", "collect"];

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(String),
    /// `base.property` access. The base is almost always a variable.
    Property(Box<Expr>, String),
    /// A literal constant.
    Literal(Value),
    /// A query parameter `$name`.
    Parameter(String),
    /// A list literal `[e1, e2, ...]`.
    List(Vec<Expr>),
    /// Unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Function call, possibly with `DISTINCT` (only meaningful for
    /// aggregates, e.g. `count(DISTINCT x)`).
    FunctionCall { name: String, distinct: bool, args: Vec<Expr> },
}

impl Expr {
    /// Property access on a variable, e.g. `n.id`.
    pub fn prop(var: &str, prop: &str) -> Expr {
        Expr::Property(Box::new(Expr::Var(var.to_string())), prop.to_string())
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// String literal.
    pub fn string(v: &str) -> Expr {
        Expr::Literal(Value::str(v))
    }

    /// True if `name` is an aggregation function.
    pub fn is_aggregate_function(name: &str) -> bool {
        AGGREGATE_FUNCTIONS.iter().any(|f| f.eq_ignore_ascii_case(name))
    }

    /// True if this expression contains an aggregate call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::FunctionCall { name, args, .. } => {
                Expr::is_aggregate_function(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary(_, e) => e.contains_aggregate(),
            Expr::Binary(_, a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Property(base, _) => base.contains_aggregate(),
            Expr::List(items) => items.iter().any(Expr::contains_aggregate),
            _ => false,
        }
    }

    /// Collect the free variables referenced by this expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Property(base, _) => base.free_vars(out),
            Expr::Unary(_, e) => e.free_vars(out),
            Expr::Binary(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Expr::FunctionCall { args, .. } => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Expr::List(items) => {
                for i in items {
                    i.free_vars(out);
                }
            }
            Expr::Literal(_) | Expr::Parameter(_) => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Property(base, p) => write!(f, "{base}.{p}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Parameter(p) => write!(f, "${p}"),
            Expr::List(items) => {
                let inner = items.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ");
                write!(f, "[{inner}]")
            }
            Expr::Unary(UnaryOp::Not, e) => write!(f, "NOT ({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinaryOp::And => "AND",
                    BinaryOp::Or => "OR",
                    BinaryOp::Eq => "=",
                    BinaryOp::Neq => "<>",
                    BinaryOp::Lt => "<",
                    BinaryOp::Le => "<=",
                    BinaryOp::Gt => ">",
                    BinaryOp::Ge => ">=",
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                    BinaryOp::Mod => "%",
                    BinaryOp::In => "IN",
                };
                write!(f, "({a} {sym} {b})")
            }
            Expr::FunctionCall { name, distinct, args } => {
                let inner = args.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ");
                if *distinct {
                    write!(f, "{name}(DISTINCT {inner})")
                } else {
                    write!(f, "{name}({inner})")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_name_prefers_alias_then_property_name() {
        let with_alias =
            ReturnItem { expr: Expr::prop("n", "firstName"), alias: Some("fn".into()) };
        assert_eq!(with_alias.output_name(), "fn");
        let prop = ReturnItem { expr: Expr::prop("n", "firstName"), alias: None };
        assert_eq!(prop.output_name(), "firstName");
        let var = ReturnItem { expr: Expr::Var("n".into()), alias: None };
        assert_eq!(var.output_name(), "n");
    }

    #[test]
    fn contains_aggregate_detects_nested_calls() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::FunctionCall {
                name: "count".into(),
                distinct: false,
                args: vec![Expr::Var("x".into())],
            }),
            Box::new(Expr::int(1)),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::prop("n", "id").contains_aggregate());
    }

    #[test]
    fn free_vars_are_collected_once() {
        let e = Expr::Binary(
            BinaryOp::And,
            Box::new(Expr::Binary(
                BinaryOp::Eq,
                Box::new(Expr::prop("n", "id")),
                Box::new(Expr::int(42)),
            )),
            Box::new(Expr::Binary(
                BinaryOp::Eq,
                Box::new(Expr::prop("n", "name")),
                Box::new(Expr::Var("m".into())),
            )),
        );
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["n".to_string(), "m".to_string()]);
    }

    #[test]
    fn display_renders_cypher_like_syntax() {
        let e =
            Expr::Binary(BinaryOp::Eq, Box::new(Expr::prop("n", "id")), Box::new(Expr::int(42)));
        assert_eq!(e.to_string(), "(n.id = 42)");
        let s = Expr::string("Bob");
        assert_eq!(s.to_string(), "'Bob'");
    }

    #[test]
    fn varlength_default_min_is_one() {
        assert_eq!(VarLength { min: None, max: Some(3) }.min_hops(), 1);
        assert_eq!(VarLength { min: Some(0), max: None }.min_hops(), 0);
    }

    #[test]
    fn aggregate_function_names_are_case_insensitive() {
        assert!(Expr::is_aggregate_function("COUNT"));
        assert!(Expr::is_aggregate_function("sum"));
        assert!(!Expr::is_aggregate_function("length"));
    }
}
