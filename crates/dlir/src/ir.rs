//! DLIR definitions.
//!
//! DLIR (Datalog IR) is Raqlet's core intermediate representation: a query is
//! a sequence of rules, each with a head atom naming an IDB and a body saying
//! how the view is computed (Figure 3c of the paper). DLIR extends plain
//! Datalog with:
//!
//! * stratified negation (`!Atom(...)` in rule bodies);
//! * comparison and arithmetic constraints (`n = 42`, `d = l + 1`);
//! * per-rule aggregation (`count`, `sum`, `min`, `max`, `avg`) with group-by
//!   variables, used for `WITH`/`RETURN` aggregation and for shortest paths;
//! * a *lattice* annotation on IDB declarations (`@min(col)`), giving
//!   monotonic-aggregate semantics to recursive distance computations so they
//!   terminate on cyclic data.

use std::collections::BTreeSet;
use std::fmt;

pub use raqlet_common::ops::{AggFunc, ArithOp, CmpOp};
use raqlet_common::schema::DlSchema;
use raqlet_common::Value;

/// A term in an atom: a variable, a constant, or a wildcard (`_`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named logic variable.
    Var(String),
    /// A constant value.
    Const(Value),
    /// Don't-care (`_`): matches anything and binds nothing.
    Wildcard,
}

impl Term {
    /// Variable helper.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_string())
    }

    /// Integer constant helper.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }

    /// The variable name if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Str(s)) => write!(f, "\"{s}\""),
            Term::Const(v) => write!(f, "{v}"),
            Term::Wildcard => write!(f, "_"),
        }
    }
}

/// A predicate applied to terms, e.g. `Person(n, firstName, _)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Relation (EDB or IDB) name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom { relation: relation.into(), terms }
    }

    /// Construct an atom whose terms are all variables.
    pub fn with_vars(relation: impl Into<String>, vars: &[&str]) -> Self {
        Atom { relation: relation.into(), terms: vars.iter().map(|v| Term::var(v)).collect() }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables appearing in the atom, in order, without duplicates.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args = self.terms.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ");
        write!(f, "{}({})", self.relation, args)
    }
}

/// A simple scalar expression used in constraints (`d = l + 1`).
#[derive(Debug, Clone, PartialEq)]
pub enum DlExpr {
    /// A variable reference.
    Var(String),
    /// A constant.
    Const(Value),
    /// Binary arithmetic.
    Arith { op: ArithOp, lhs: Box<DlExpr>, rhs: Box<DlExpr> },
}

impl DlExpr {
    /// Variable helper.
    pub fn var(name: &str) -> DlExpr {
        DlExpr::Var(name.to_string())
    }

    /// Integer constant helper.
    pub fn int(v: i64) -> DlExpr {
        DlExpr::Const(Value::Int(v))
    }

    /// Variables referenced by this expression.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            DlExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            DlExpr::Const(_) => {}
            DlExpr::Arith { lhs, rhs, .. } => {
                lhs.variables(out);
                rhs.variables(out);
            }
        }
    }
}

impl fmt::Display for DlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlExpr::Var(v) => write!(f, "{v}"),
            DlExpr::Const(Value::Str(s)) => write!(f, "\"{s}\""),
            DlExpr::Const(v) => write!(f, "{v}"),
            DlExpr::Arith { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyElem {
    /// A positive atom: the rule joins with the relation.
    Atom(Atom),
    /// A negated atom: the bindings must *not* appear in the relation.
    /// Requires stratification.
    Negated(Atom),
    /// A constraint comparing two expressions over bound variables and
    /// constants (`n = 42`, `p = cityId`, `d = l + 1`).
    Constraint { op: CmpOp, lhs: DlExpr, rhs: DlExpr },
}

impl BodyElem {
    /// Equality-constraint helper.
    pub fn eq(lhs: DlExpr, rhs: DlExpr) -> BodyElem {
        BodyElem::Constraint { op: CmpOp::Eq, lhs, rhs }
    }

    /// The positive atom, if this element is one.
    pub fn as_positive_atom(&self) -> Option<&Atom> {
        match self {
            BodyElem::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The atom regardless of polarity, if this element is an atom.
    pub fn as_any_atom(&self) -> Option<&Atom> {
        match self {
            BodyElem::Atom(a) | BodyElem::Negated(a) => Some(a),
            _ => None,
        }
    }

    /// Variables referenced by this body element.
    pub fn variables(&self) -> Vec<String> {
        match self {
            BodyElem::Atom(a) | BodyElem::Negated(a) => a.variables(),
            BodyElem::Constraint { lhs, rhs, .. } => {
                let mut out = Vec::new();
                lhs.variables(&mut out);
                rhs.variables(&mut out);
                out
            }
        }
    }
}

impl fmt::Display for BodyElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyElem::Atom(a) => write!(f, "{a}"),
            BodyElem::Negated(a) => write!(f, "!{a}"),
            BodyElem::Constraint { op, lhs, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
        }
    }
}

/// Rule-level aggregation: the body bindings are grouped by `group_by` and
/// `func` is applied to `input_var`, producing `output_var` in the head.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// Aggregate function.
    pub func: AggFunc,
    /// The body variable aggregated over; `None` for `count(*)`.
    pub input_var: Option<String>,
    /// The head variable receiving the aggregate value.
    pub output_var: String,
    /// Head variables that form the group key.
    pub group_by: Vec<String>,
    /// True for `count(DISTINCT x)`-style aggregation; plain Datalog set
    /// semantics already deduplicate bindings of the grouped variables, so
    /// this only matters when `input_var` is not part of the deduplicated
    /// binding (kept for fidelity with the Cypher source).
    pub distinct: bool,
}

/// How a recursive IDB's tuples are combined during fixpoint iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatticeMerge {
    /// Plain set semantics (the default).
    #[default]
    Set,
    /// Keep only the tuple with the minimal value of the annotated column for
    /// each combination of the other columns (monotonic `min` aggregate,
    /// used for shortest paths — the Datalog° style semantics the paper cites).
    MinOnColumn(usize),
    /// Keep only the maximal value of the annotated column.
    MaxOnColumn(usize),
}

/// A DLIR rule: `head :- body.` plus optional aggregation.
///
/// Equality deliberately ignores [`Rule::provenance`]: two rules lowered from
/// different surface constructs are still the same rule, so optimizer passes
/// (duplicate elimination, inlining) treat them identically.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Head atom (an IDB).
    pub head: Atom,
    /// Body elements (conjunction).
    pub body: Vec<BodyElem>,
    /// Optional aggregation applied to the body's bindings.
    pub aggregation: Option<Aggregation>,
    /// The surface construct this rule was lowered from (e.g. `MATCH #1`,
    /// `UNWIND`, `RETURN`), when the frontend recorded it. Used by
    /// diagnostics to name the user's clause instead of a rule index.
    pub provenance: Option<String>,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.body == other.body && self.aggregation == other.aggregation
    }
}

impl Rule {
    /// A rule with no aggregation.
    pub fn new(head: Atom, body: Vec<BodyElem>) -> Self {
        Rule { head, body, aggregation: None, provenance: None }
    }

    /// Attach surface provenance (builder style).
    pub fn with_provenance(mut self, provenance: impl Into<String>) -> Self {
        self.provenance = Some(provenance.into());
        self
    }

    /// Names of relations referenced positively in the body.
    pub fn positive_dependencies(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|b| match b {
                BodyElem::Atom(a) => Some(a.relation.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Names of relations referenced under negation in the body.
    pub fn negative_dependencies(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|b| match b {
                BodyElem::Negated(a) => Some(a.relation.as_str()),
                _ => None,
            })
            .collect()
    }

    /// All relations referenced in the body (positive then negative).
    pub fn dependencies(&self) -> Vec<&str> {
        let mut v = self.positive_dependencies();
        v.extend(self.negative_dependencies());
        v
    }

    /// Variables bound by positive atoms of the body.
    pub fn bound_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for b in &self.body {
            if let BodyElem::Atom(a) = b {
                for t in &a.terms {
                    if let Term::Var(v) = t {
                        out.insert(v.clone());
                    }
                }
            }
        }
        out
    }

    /// Number of positive occurrences of `relation` in the body.
    pub fn count_positive(&self, relation: &str) -> usize {
        self.positive_dependencies().iter().filter(|r| **r == relation).count()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.body.is_empty() {
            return write!(f, "{}.", self.head);
        }
        let body = self.body.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
        match &self.aggregation {
            None => write!(f, "{} :- {}.", self.head, body),
            Some(agg) => {
                let input = agg.input_var.clone().unwrap_or_else(|| "*".to_string());
                write!(
                    f,
                    "{} :- {{{}}} group by ({}) with {} = {}({}{}).",
                    self.head,
                    body,
                    agg.group_by.join(", "),
                    agg.output_var,
                    agg.func.name(),
                    if agg.distinct { "distinct " } else { "" },
                    input
                )
            }
        }
    }
}

/// Lattice annotations attached to IDB declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelationAnnotations {
    /// Merge semantics during fixpoint evaluation.
    pub lattice: LatticeMerge,
}

/// A full DLIR program: schema (EDBs and IDBs), rules, and output relations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DlirProgram {
    /// Relation declarations (EDBs from the data-model transformation plus
    /// IDBs introduced by the query lowering).
    pub schema: DlSchema,
    /// Rules in declaration order.
    pub rules: Vec<Rule>,
    /// Names of relations marked `.output`.
    pub outputs: Vec<String>,
    /// Per-relation annotations (lattice merge semantics).
    pub annotations: std::collections::BTreeMap<String, RelationAnnotations>,
}

impl DlirProgram {
    /// Create an empty program over the given schema.
    pub fn new(schema: DlSchema) -> Self {
        DlirProgram {
            schema,
            rules: Vec::new(),
            outputs: Vec::new(),
            annotations: Default::default(),
        }
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Mark a relation as an output.
    pub fn add_output(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.outputs.contains(&name) {
            self.outputs.push(name);
        }
    }

    /// Names of all IDBs (relations that appear as a rule head).
    pub fn idb_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.relation) {
                out.push(r.head.relation.clone());
            }
        }
        out
    }

    /// True if `name` is derived by at least one rule.
    pub fn is_idb(&self, name: &str) -> bool {
        self.rules.iter().any(|r| r.head.relation == name)
    }

    /// All rules whose head is `name`.
    pub fn rules_for(&self, name: &str) -> Vec<&Rule> {
        self.rules.iter().filter(|r| r.head.relation == name).collect()
    }

    /// The lattice merge annotation for `name` (defaults to set semantics).
    pub fn lattice_for(&self, name: &str) -> LatticeMerge {
        self.annotations.get(name).map(|a| a.lattice).unwrap_or_default()
    }

    /// Annotate a relation with a lattice merge.
    pub fn set_lattice(&mut self, name: impl Into<String>, lattice: LatticeMerge) {
        self.annotations.entry(name.into()).or_default().lattice = lattice;
    }

    /// Total number of body atoms across all rules (a crude program size
    /// metric).
    pub fn body_atom_count(&self) -> usize {
        self.rules.iter().map(|r| r.body.iter().filter(|b| b.as_any_atom().is_some()).count()).sum()
    }
}

impl fmt::Display for DlirProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        for out in &self.outputs {
            writeln!(f, ".output {out}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_program() -> DlirProgram {
        // tc(x, y) :- edge(x, y).
        // tc(x, y) :- tc(x, z), edge(z, y).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
                BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
            ],
        ));
        p.add_output("tc");
        p
    }

    #[test]
    fn atom_display_matches_datalog_syntax() {
        let a = Atom::new("Person", vec![Term::var("n"), Term::Wildcard, Term::int(42)]);
        assert_eq!(a.to_string(), "Person(n, _, 42)");
    }

    #[test]
    fn rule_display_matches_datalog_syntax() {
        let p = tc_program();
        assert_eq!(p.rules[0].to_string(), "tc(x, y) :- edge(x, y).");
        assert_eq!(p.rules[1].to_string(), "tc(x, y) :- tc(x, z), edge(z, y).");
    }

    #[test]
    fn string_constants_are_quoted() {
        let t = Term::Const(Value::str("Bob"));
        assert_eq!(t.to_string(), "\"Bob\"");
    }

    #[test]
    fn rule_dependencies_distinguish_polarity() {
        let rule = Rule::new(
            Atom::with_vars("unreached", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("node", &["x"])),
                BodyElem::Negated(Atom::with_vars("tc", &["s", "x"])),
            ],
        );
        assert_eq!(rule.positive_dependencies(), vec!["node"]);
        assert_eq!(rule.negative_dependencies(), vec!["tc"]);
        assert_eq!(rule.dependencies(), vec!["node", "tc"]);
    }

    #[test]
    fn program_identifies_idbs_and_outputs() {
        let p = tc_program();
        assert!(p.is_idb("tc"));
        assert!(!p.is_idb("edge"));
        assert_eq!(p.idb_names(), vec!["tc"]);
        assert_eq!(p.outputs, vec!["tc"]);
        assert_eq!(p.rules_for("tc").len(), 2);
    }

    #[test]
    fn add_output_deduplicates() {
        let mut p = tc_program();
        p.add_output("tc");
        assert_eq!(p.outputs.len(), 1);
    }

    #[test]
    fn cmp_op_eval_matches_value_ordering() {
        assert_eq!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)), Some(true));
        assert_eq!(CmpOp::Gt.eval(&Value::Int(1), &Value::Int(2)), Some(false));
        assert_eq!(CmpOp::Neq.eval(&Value::str("a"), &Value::str("b")), Some(true));
        assert_eq!(CmpOp::Ge.eval(&Value::Int(2), &Value::Int(2)), Some(true));
    }

    #[test]
    fn arith_eval_handles_division_by_zero() {
        assert_eq!(ArithOp::Add.eval(&Value::Int(2), &Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(ArithOp::Div.eval(&Value::Int(7), &Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(ArithOp::Div.eval(&Value::Int(7), &Value::Int(0)), None);
        assert_eq!(ArithOp::Mod.eval(&Value::Int(7), &Value::Int(0)), None);
        assert_eq!(ArithOp::Mul.eval(&Value::str("x"), &Value::Int(2)), None);
    }

    #[test]
    fn arith_eval_overflow_yields_none() {
        let (max, min, minus_one) = (Value::Int(i64::MAX), Value::Int(i64::MIN), Value::Int(-1));
        assert_eq!(ArithOp::Add.eval(&max, &Value::Int(1)), None);
        assert_eq!(ArithOp::Sub.eval(&min, &Value::Int(1)), None);
        assert_eq!(ArithOp::Mul.eval(&max, &Value::Int(2)), None);
        assert_eq!(ArithOp::Div.eval(&min, &minus_one), None);
        assert_eq!(ArithOp::Mod.eval(&min, &minus_one), None);
        assert_eq!(ArithOp::Div.eval(&max, &minus_one), Some(Value::Int(-i64::MAX)));
    }

    #[test]
    fn bound_variables_only_from_positive_atoms() {
        let rule = Rule::new(
            Atom::with_vars("r", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("a", &["x", "y"])),
                BodyElem::Negated(Atom::with_vars("b", &["z"])),
                BodyElem::eq(DlExpr::var("w"), DlExpr::int(3)),
            ],
        );
        let bound = rule.bound_variables();
        assert!(bound.contains("x"));
        assert!(bound.contains("y"));
        assert!(!bound.contains("z"));
        assert!(!bound.contains("w"));
    }

    #[test]
    fn aggregation_rule_displays_group_by() {
        let mut rule = Rule::new(
            Atom::with_vars("FriendCount", &["f", "cnt"]),
            vec![BodyElem::Atom(Atom::with_vars("Knows", &["p", "f"]))],
        );
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("p".into()),
            output_var: "cnt".into(),
            group_by: vec!["f".into()],
            distinct: false,
        });
        let s = rule.to_string();
        assert!(s.contains("group by (f)"));
        assert!(s.contains("cnt = count(p)"));
    }

    #[test]
    fn lattice_annotations_default_to_set() {
        let mut p = tc_program();
        assert_eq!(p.lattice_for("tc"), LatticeMerge::Set);
        p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
        assert_eq!(p.lattice_for("dist"), LatticeMerge::MinOnColumn(2));
    }

    #[test]
    fn body_atom_count_ignores_constraints() {
        let mut p = tc_program();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("tc", &["x", "y"])),
                BodyElem::eq(DlExpr::var("y"), DlExpr::int(1)),
            ],
        ));
        assert_eq!(p.body_atom_count(), 1 + 2 + 1);
    }

    #[test]
    fn count_positive_counts_self_joins() {
        let rule = Rule::new(
            Atom::with_vars("r", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("Person", &["x"])),
                BodyElem::Atom(Atom::with_vars("Person", &["x"])),
            ],
        );
        assert_eq!(rule.count_positive("Person"), 2);
    }

    #[test]
    fn fact_rules_display_without_body() {
        let r = Rule::new(Atom::new("base", vec![Term::int(1), Term::int(2)]), vec![]);
        assert_eq!(r.to_string(), "base(1, 2).");
    }
}
