//! PGIR definitions.
//!
//! PGIR (Property Graph IR) represents a query as an ordered sequence of
//! *clause constructs* — `MATCH`, `WHERE`, `WITH`, `RETURN` — whose contents
//! are fully normalised pattern and expression trees (Figure 3b of the
//! paper). Normalisation performed by the lowering means that at this level:
//!
//! * every node and edge pattern has a variable (compiler-generated `x1`,
//!   `x2`, ... when the query left them anonymous);
//! * inline property constraints (`{id: 42}`) have been extracted into
//!   `WHERE` constructs;
//! * every edge is stored source→target with a `directed` flag instead of the
//!   three surface directions;
//! * `ORDER BY`/`SKIP`/`LIMIT` have been dropped and the final projection is
//!   `DISTINCT`, matching the paper's set-semantics normalisation.

use std::fmt;

pub use raqlet_common::ops::{AggFunc, ArithOp, CmpOp};
use raqlet_common::Value;

/// A normalised PGIR query: an ordered sequence of clause constructs.
#[derive(Debug, Clone, PartialEq)]
pub struct PgirQuery {
    /// Clause constructs in evaluation order.
    pub clauses: Vec<PgirClause>,
}

impl PgirQuery {
    /// The final RETURN construct.
    pub fn return_construct(&self) -> Option<&ReturnConstruct> {
        self.clauses.iter().rev().find_map(|c| match c {
            PgirClause::Return(r) => Some(r),
            _ => None,
        })
    }

    /// True if any pattern is a variable-length or shortest-path pattern.
    pub fn is_recursive(&self) -> bool {
        self.clauses.iter().any(|c| match c {
            PgirClause::Match(m) => {
                m.patterns.iter().any(|p| matches!(p, PatternElem::Path(_) | PatternElem::Chain(_)))
            }
            _ => false,
        })
    }

    /// Count clause constructs of each kind: (match, where, with, return).
    /// `UNWIND` constructs are not counted (use [`PgirQuery::unwind_count`]).
    pub fn clause_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for c in &self.clauses {
            match c {
                PgirClause::Match(_) => counts.0 += 1,
                PgirClause::Where(_) => counts.1 += 1,
                PgirClause::With(_) => counts.2 += 1,
                PgirClause::Return(_) => counts.3 += 1,
                PgirClause::Unwind(_) => {}
            }
        }
        counts
    }

    /// Number of `UNWIND` constructs.
    pub fn unwind_count(&self) -> usize {
        self.clauses.iter().filter(|c| matches!(c, PgirClause::Unwind(_))).count()
    }
}

/// A PGIR clause construct (a grey box in Figure 3b).
#[derive(Debug, Clone, PartialEq)]
pub enum PgirClause {
    /// Graph pattern matching.
    Match(MatchConstruct),
    /// A filter over the variables bound so far.
    Where(WhereConstruct),
    /// Intermediate projection (possibly aggregating).
    With(WithConstruct),
    /// Final projection.
    Return(ReturnConstruct),
    /// `UNWIND <list> AS x`, normalised to a constant list: each incoming row
    /// is extended with one binding of `alias` per list element.
    Unwind(UnwindConstruct),
}

/// An `UNWIND` construct over a constant list.
#[derive(Debug, Clone, PartialEq)]
pub struct UnwindConstruct {
    /// The variable each element is bound to.
    pub alias: String,
    /// The list elements (parameters already substituted).
    pub values: Vec<Value>,
}

/// A `MATCH` construct: a conjunction of pattern elements.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchConstruct {
    /// True for `OPTIONAL MATCH`.
    pub optional: bool,
    /// The pattern elements matched by this construct.
    pub patterns: Vec<PatternElem>,
}

/// One element of a `MATCH` construct.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElem {
    /// An isolated node pattern (a `MATCH` with no relationship).
    Node(NodePat),
    /// A single-hop edge pattern.
    Edge(EdgePat),
    /// A variable-length or shortest-path pattern (recursive after lowering).
    Path(PathPat),
    /// A shortest path over a multi-hop pattern: per-step path segments whose
    /// hop counts are summed and minimised per (source, final target) pair.
    Chain(ChainPat),
}

impl PatternElem {
    /// The variables this pattern element binds.
    pub fn bound_vars(&self) -> Vec<String> {
        match self {
            PatternElem::Node(n) => vec![n.var.clone()],
            PatternElem::Edge(e) => vec![e.src.var.clone(), e.var.clone(), e.dst.var.clone()],
            PatternElem::Path(p) => vec![p.src.var.clone(), p.dst.var.clone()],
            // Intermediate nodes of a chain are existential: only the two
            // endpoints remain visible to later clauses.
            PatternElem::Chain(c) => vec![c.src.var.clone(), c.dst().var.clone()],
        }
    }
}

/// A node pattern: a variable plus an optional label.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePat {
    /// Binding variable (always present after normalisation).
    pub var: String,
    /// Node label, if constrained.
    pub label: Option<String>,
}

impl NodePat {
    /// Convenience constructor.
    pub fn new(var: impl Into<String>, label: Option<&str>) -> Self {
        NodePat { var: var.into(), label: label.map(|s| s.to_string()) }
    }
}

/// A single-hop edge pattern `(src)-[var:label]->(dst)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePat {
    /// Edge binding variable (always present after normalisation, e.g. `x1`).
    pub var: String,
    /// Edge label alternatives (`[:A|B]` keeps both; empty = unconstrained).
    /// The DLIR lowering expands alternatives into one rule body per
    /// resolvable edge EDB (a union).
    pub labels: Vec<String>,
    /// True if the edge must be traversed in its stored direction only.
    pub directed: bool,
    /// Source node pattern (the stored direction's source).
    pub src: NodePat,
    /// Target node pattern.
    pub dst: NodePat,
}

/// Which flavour of shortest path a path pattern requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSemantics {
    /// Plain reachability within the hop bounds.
    Reachability,
    /// Shortest path (hop count) between the endpoints.
    Shortest,
    /// All shortest paths (same hop count as the shortest).
    AllShortest,
}

/// A variable-length / shortest-path pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPat {
    /// Binding variable for the path (generated when anonymous).
    pub var: String,
    /// Edge label alternatives applied to every hop (`[:A|B*]` lets each hop
    /// traverse either type; empty = unconstrained, rejected by DLIR).
    pub labels: Vec<String>,
    /// True if hops must follow the stored edge direction.
    pub directed: bool,
    /// Source node pattern.
    pub src: NodePat,
    /// Target node pattern.
    pub dst: NodePat,
    /// Minimum number of hops (Cypher default 1; 0 permits `src = dst`).
    pub min_hops: u32,
    /// Maximum number of hops; `None` = unbounded.
    pub max_hops: Option<u32>,
    /// Reachability vs. shortest-path semantics.
    pub semantics: PathSemantics,
}

/// One step of a multi-hop shortest-path chain: a (possibly variable-length)
/// relationship segment leading to `node`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// Edge label alternatives for every hop of this step.
    pub labels: Vec<String>,
    /// True if hops must follow a stored edge direction.
    pub directed: bool,
    /// True when the stored direction runs reading-order (previous node →
    /// `node`); false for `<-[...]-` steps. Irrelevant when undirected.
    pub forward: bool,
    /// The node this step leads to (the chain's target for the last step;
    /// an existential intermediate otherwise).
    pub node: NodePat,
    /// Minimum hops for this step (a plain relationship is `1..1`).
    pub min_hops: u32,
    /// Maximum hops; `None` = unbounded.
    pub max_hops: Option<u32>,
}

/// A `shortestPath` over a multi-hop pattern. The total path length is the
/// sum of the per-step hop counts, minimised per (source, final target) pair;
/// intermediate nodes are existentially quantified.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPat {
    /// Binding variable for the path (generated when anonymous).
    pub var: String,
    /// The leftmost node pattern.
    pub src: NodePat,
    /// The steps, left to right (always at least two — single-step shortest
    /// paths stay [`PathPat`]s).
    pub steps: Vec<ChainStep>,
    /// Shortest vs. all-shortest semantics (never plain reachability).
    pub semantics: PathSemantics,
}

impl ChainPat {
    /// The final target node pattern (the last step's node).
    pub fn dst(&self) -> &NodePat {
        // Invariant: lowering only builds `ChainPat`s with >= 2 steps (a
        // single-step chain stays a plain `PathPat`).
        #[allow(clippy::expect_used)]
        &self.steps.last().expect("chain patterns have at least one step").node
    }
}

/// A `WHERE` construct.
#[derive(Debug, Clone, PartialEq)]
pub struct WhereConstruct {
    /// The predicate, a conjunction of the extracted inline property
    /// constraints and the user's `WHERE` expression.
    pub predicate: PgirExpr,
}

/// A `WITH` construct (intermediate projection).
#[derive(Debug, Clone, PartialEq)]
pub struct WithConstruct {
    /// True if duplicates are eliminated at this step.
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<OutputItem>,
    /// Post-projection filter (from `WITH ... WHERE ...`).
    pub having: Option<PgirExpr>,
}

/// A `RETURN` construct (final projection).
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnConstruct {
    /// True if duplicates are eliminated (always true after normalisation).
    pub distinct: bool,
    /// Output items in order.
    pub items: Vec<OutputItem>,
}

/// One projected item with its output name.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputItem {
    /// The projected expression.
    pub expr: PgirExpr,
    /// Output column name (explicit alias or derived).
    pub alias: String,
}

impl OutputItem {
    /// Convenience constructor.
    pub fn new(expr: PgirExpr, alias: impl Into<String>) -> Self {
        OutputItem { expr, alias: alias.into() }
    }
}

/// A normalised PGIR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PgirExpr {
    /// Reference to a bound variable (node, edge, path or projected alias).
    Var(String),
    /// Property access on a bound variable.
    Property { var: String, prop: String },
    /// A constant.
    Const(Value),
    /// Comparison between two expressions.
    Cmp { op: CmpOp, lhs: Box<PgirExpr>, rhs: Box<PgirExpr> },
    /// Conjunction.
    And(Box<PgirExpr>, Box<PgirExpr>),
    /// Disjunction.
    Or(Box<PgirExpr>, Box<PgirExpr>),
    /// Negation.
    Not(Box<PgirExpr>),
    /// Membership in a constant list.
    InList { expr: Box<PgirExpr>, list: Vec<Value> },
    /// Arithmetic.
    Arith { op: ArithOp, lhs: Box<PgirExpr>, rhs: Box<PgirExpr> },
    /// Aggregate application; `arg` is `None` for `count(*)`.
    Aggregate { func: AggFunc, distinct: bool, arg: Option<Box<PgirExpr>> },
}

impl PgirExpr {
    /// Property access helper.
    pub fn prop(var: &str, prop: &str) -> PgirExpr {
        PgirExpr::Property { var: var.to_string(), prop: prop.to_string() }
    }

    /// Integer constant helper.
    pub fn int(v: i64) -> PgirExpr {
        PgirExpr::Const(Value::Int(v))
    }

    /// Equality comparison helper.
    pub fn eq(lhs: PgirExpr, rhs: PgirExpr) -> PgirExpr {
        PgirExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Conjunction of a list of predicates (`None` if the list is empty).
    pub fn conjunction(mut preds: Vec<PgirExpr>) -> Option<PgirExpr> {
        let first = if preds.is_empty() { return None } else { preds.remove(0) };
        Some(preds.into_iter().fold(first, |acc, p| PgirExpr::And(Box::new(acc), Box::new(p))))
    }

    /// Split a predicate into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&PgirExpr> {
        match self {
            PgirExpr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// True if this expression contains an aggregate anywhere.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            PgirExpr::Aggregate { .. } => true,
            PgirExpr::Cmp { lhs, rhs, .. } | PgirExpr::Arith { lhs, rhs, .. } => {
                lhs.contains_aggregate() || rhs.contains_aggregate()
            }
            PgirExpr::And(a, b) | PgirExpr::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            PgirExpr::Not(e) => e.contains_aggregate(),
            PgirExpr::InList { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// Variables referenced by this expression.
    pub fn referenced_vars(&self, out: &mut Vec<String>) {
        match self {
            PgirExpr::Var(v) | PgirExpr::Property { var: v, .. } => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            PgirExpr::Cmp { lhs, rhs, .. } | PgirExpr::Arith { lhs, rhs, .. } => {
                lhs.referenced_vars(out);
                rhs.referenced_vars(out);
            }
            PgirExpr::And(a, b) | PgirExpr::Or(a, b) => {
                a.referenced_vars(out);
                b.referenced_vars(out);
            }
            PgirExpr::Not(e) => e.referenced_vars(out),
            PgirExpr::InList { expr, .. } => expr.referenced_vars(out),
            PgirExpr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_vars(out);
                }
            }
            PgirExpr::Const(_) => {}
        }
    }
}

impl fmt::Display for PgirExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgirExpr::Var(v) => write!(f, "{v}"),
            PgirExpr::Property { var, prop } => write!(f, "{var}.{prop}"),
            PgirExpr::Const(Value::Str(s)) => write!(f, "'{s}'"),
            PgirExpr::Const(v) => write!(f, "{v}"),
            PgirExpr::Cmp { op, lhs, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
            PgirExpr::And(a, b) => write!(f, "({a} AND {b})"),
            PgirExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            PgirExpr::Not(e) => write!(f, "NOT ({e})"),
            PgirExpr::InList { expr, list } => {
                let items = list.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
                write!(f, "{expr} IN [{items}]")
            }
            PgirExpr::Arith { op, lhs, rhs } => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                    ArithOp::Mod => "%",
                };
                write!(f, "({lhs} {sym} {rhs})")
            }
            PgirExpr::Aggregate { func, distinct, arg } => {
                let inner = match arg {
                    Some(a) => a.to_string(),
                    None => "*".to_string(),
                };
                if *distinct {
                    write!(f, "{}(DISTINCT {inner})", func.name())
                } else {
                    write!(f, "{}({inner})", func.name())
                }
            }
        }
    }
}

/// Render a label-alternative list for the compact display (`_` when
/// unconstrained, `A|B` otherwise).
fn labels_display(labels: &[String]) -> String {
    if labels.is_empty() {
        "_".to_string()
    } else {
        labels.join("|")
    }
}

impl fmt::Display for PgirQuery {
    /// A compact textual rendering of the clause-construct sequence, used by
    /// the Figure 3b example binary and in tests.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for clause in &self.clauses {
            match clause {
                PgirClause::Match(m) => {
                    let kw = if m.optional { "OPTIONAL MATCH" } else { "MATCH" };
                    writeln!(f, "{kw}")?;
                    for p in &m.patterns {
                        match p {
                            PatternElem::Node(n) => writeln!(
                                f,
                                "  node({}, {})",
                                n.var,
                                n.label.as_deref().unwrap_or("_")
                            )?,
                            PatternElem::Edge(e) => writeln!(
                                f,
                                "  edge({}, {}, {}, src=node({}, {}), dst=node({}, {}))",
                                labels_display(&e.labels),
                                e.var,
                                if e.directed { "directed" } else { "undirected" },
                                e.src.var,
                                e.src.label.as_deref().unwrap_or("_"),
                                e.dst.var,
                                e.dst.label.as_deref().unwrap_or("_"),
                            )?,
                            PatternElem::Path(p) => writeln!(
                                f,
                                "  path({}, {}, {:?}, {}..{}, src=node({}, {}), dst=node({}, {}))",
                                labels_display(&p.labels),
                                p.var,
                                p.semantics,
                                p.min_hops,
                                p.max_hops.map(|m| m.to_string()).unwrap_or_else(|| "*".into()),
                                p.src.var,
                                p.src.label.as_deref().unwrap_or("_"),
                                p.dst.var,
                                p.dst.label.as_deref().unwrap_or("_"),
                            )?,
                            PatternElem::Chain(c) => {
                                write!(
                                    f,
                                    "  chain({}, {:?}, node({}, {})",
                                    c.var,
                                    c.semantics,
                                    c.src.var,
                                    c.src.label.as_deref().unwrap_or("_"),
                                )?;
                                for step in &c.steps {
                                    write!(
                                        f,
                                        " -[{}*{}..{}]- node({}, {})",
                                        labels_display(&step.labels),
                                        step.min_hops,
                                        step.max_hops
                                            .map(|m| m.to_string())
                                            .unwrap_or_else(|| "*".into()),
                                        step.node.var,
                                        step.node.label.as_deref().unwrap_or("_"),
                                    )?;
                                }
                                writeln!(f, ")")?;
                            }
                        }
                    }
                }
                PgirClause::Where(w) => {
                    writeln!(f, "WHERE")?;
                    writeln!(f, "  {}", w.predicate)?;
                }
                PgirClause::With(w) => {
                    writeln!(f, "WITH{}", if w.distinct { " DISTINCT" } else { "" })?;
                    for item in &w.items {
                        writeln!(f, "  {} AS {}", item.expr, item.alias)?;
                    }
                    if let Some(h) = &w.having {
                        writeln!(f, "  HAVING {h}")?;
                    }
                }
                PgirClause::Return(r) => {
                    writeln!(f, "RETURN{}", if r.distinct { " DISTINCT" } else { "" })?;
                    for item in &r.items {
                        writeln!(f, "  {} AS {}", item.expr, item.alias)?;
                    }
                }
                PgirClause::Unwind(u) => {
                    let items =
                        u.values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
                    writeln!(f, "UNWIND [{items}] AS {}", u.alias)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunction_of_empty_list_is_none() {
        assert_eq!(PgirExpr::conjunction(vec![]), None);
    }

    #[test]
    fn conjunction_and_conjuncts_round_trip() {
        let preds = vec![
            PgirExpr::eq(PgirExpr::prop("n", "id"), PgirExpr::int(42)),
            PgirExpr::eq(PgirExpr::prop("p", "id"), PgirExpr::Var("cityId".into())),
            PgirExpr::Cmp {
                op: CmpOp::Gt,
                lhs: Box::new(PgirExpr::prop("n", "age")),
                rhs: Box::new(PgirExpr::int(18)),
            },
        ];
        let conj = PgirExpr::conjunction(preds.clone()).unwrap();
        let parts = conj.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(*parts[0], preds[0]);
        assert_eq!(*parts[2], preds[2]);
    }

    #[test]
    fn cmp_flip_is_an_involution_on_strict_ops() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.flipped().flipped(), CmpOp::Lt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }

    #[test]
    fn referenced_vars_are_deduplicated() {
        let e = PgirExpr::And(
            Box::new(PgirExpr::eq(PgirExpr::prop("n", "id"), PgirExpr::int(1))),
            Box::new(PgirExpr::eq(PgirExpr::prop("n", "age"), PgirExpr::Var("m".into()))),
        );
        let mut vars = Vec::new();
        e.referenced_vars(&mut vars);
        assert_eq!(vars, vec!["n".to_string(), "m".to_string()]);
    }

    #[test]
    fn aggregate_detection() {
        let agg = PgirExpr::Aggregate { func: AggFunc::Count, distinct: false, arg: None };
        assert!(agg.contains_aggregate());
        assert!(!PgirExpr::prop("n", "id").contains_aggregate());
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn display_of_expressions_is_readable() {
        let e = PgirExpr::eq(PgirExpr::prop("n", "id"), PgirExpr::int(42));
        assert_eq!(e.to_string(), "n.id = 42");
        let agg = PgirExpr::Aggregate {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(Box::new(PgirExpr::Var("x".into()))),
        };
        assert_eq!(agg.to_string(), "count(DISTINCT x)");
    }

    #[test]
    fn pattern_bound_vars() {
        let edge = PatternElem::Edge(EdgePat {
            var: "x1".into(),
            labels: vec!["KNOWS".into()],
            directed: true,
            src: NodePat::new("a", Some("Person")),
            dst: NodePat::new("b", Some("Person")),
        });
        assert_eq!(edge.bound_vars(), vec!["a", "x1", "b"]);
    }
}
