//! Abstract interpretation over DLIR: per-column type/constant lattice
//! inference, emptiness propagation through the rule dependency structure,
//! and reachability from query outputs.
//!
//! This is the shared substrate of the `raqcheck` lint suite. One fixpoint
//! pass computes, for every relation column, an [`AbsVal`] abstract value
//! (bottom / known constant / known type / top), decides for every rule
//! whether it can possibly fire (a contradiction or an empty body relation
//! kills it), records column-type conflicts across the rules of one IDB, and
//! marks the relations reachable from the program's outputs.

use std::collections::{BTreeMap, BTreeSet};

use raqlet_common::schema::RelationKind;
use raqlet_common::{Value, ValueType};
use raqlet_dlir::ir::{BodyElem, CmpOp, DlExpr, DlirProgram, Term};

use crate::stats::EdbStats;

/// Abstract value of one column or variable: the flat constant lattice over
/// [`Value`] widened by the [`ValueType`] layer.
///
/// Ordering (bottom to top): `Bottom` ⊑ `Const(v)` ⊑ `Typed(t)` ⊑ `Top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// No value flows here (unreachable / contradictory).
    Bottom,
    /// Exactly one constant flows here.
    Const(Value),
    /// Values of one known type flow here.
    Typed(ValueType),
    /// Anything may flow here.
    Top,
}

impl AbsVal {
    /// Abstract a concrete value (`Null` has no concrete type → `Top`-typed
    /// constant is still the constant itself).
    pub fn of_value(v: &Value) -> AbsVal {
        AbsVal::Const(v.clone())
    }

    /// Abstract a declared column type (`Unknown` carries no information).
    pub fn of_type(t: ValueType) -> AbsVal {
        match t {
            ValueType::Unknown => AbsVal::Top,
            t => AbsVal::Typed(t),
        }
    }

    /// Least upper bound: used when merging the contributions of several
    /// rules into one relation column.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x.clone(),
            (Top, _) | (_, Top) => Top,
            (Const(a), Const(b)) if a == b => Const(a.clone()),
            (Const(a), Const(b)) => match (a.value_type(), b.value_type()) {
                (Some(ta), Some(tb)) if ta == tb => Typed(ta),
                // Null widens to the other constant's type.
                (None, Some(t)) | (Some(t), None) => Typed(t),
                _ => Top,
            },
            (Const(a), Typed(t)) | (Typed(t), Const(a)) => match a.value_type() {
                Some(ta) => ta.unify(*t).map(Typed).unwrap_or(Top),
                None => Typed(*t),
            },
            (Typed(a), Typed(b)) => a.unify(*b).map(Typed).unwrap_or(Top),
        }
    }

    /// Greatest lower bound: used when one variable is constrained by
    /// several sources inside a rule. `Bottom` means the constraints are
    /// contradictory and the rule can never fire.
    pub fn meet(&self, other: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Top, x) | (x, Top) => x.clone(),
            (Const(a), Const(b)) if a == b => Const(a.clone()),
            (Const(_), Const(_)) => Bottom,
            (Const(a), Typed(t)) | (Typed(t), Const(a)) => match a.value_type() {
                Some(ta) if ta == *t => Const(a.clone()),
                // Null inhabits every column type.
                None => Const(a.clone()),
                Some(_) => Bottom,
            },
            (Typed(a), Typed(b)) => a.unify(*b).map(Typed).unwrap_or(Bottom),
        }
    }

    /// The type layer of this value, if one is known.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            AbsVal::Const(v) => v.value_type(),
            AbsVal::Typed(t) => Some(*t),
            _ => None,
        }
    }
}

/// Why a rule can never fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadReason {
    /// Two constraints force one variable to incompatible values
    /// (e.g. `x = 1` and `x = 2`, or an `Int` binding against a `Text`
    /// column).
    Contradiction {
        /// The over-constrained variable.
        variable: String,
    },
    /// A constant-only comparison is statically false (e.g. `1 > 2`).
    FalseConstraint {
        /// Rendering of the failing constraint.
        constraint: String,
    },
    /// The rule joins a relation that can hold no tuples: an IDB none of
    /// whose rules can fire, a relation with neither rules nor EDB backing,
    /// or (when stats are supplied) an EDB observed empty.
    EmptyRelation {
        /// The empty relation.
        relation: String,
    },
}

impl DeadReason {
    /// Human-readable cause, used in RAQ002 messages.
    pub fn describe(&self) -> String {
        match self {
            DeadReason::Contradiction { variable } => {
                format!("variable `{variable}` is forced to incompatible values")
            }
            DeadReason::FalseConstraint { constraint } => {
                format!("constraint `{constraint}` is always false")
            }
            DeadReason::EmptyRelation { relation } => {
                format!("it joins relation `{relation}`, which can hold no tuples")
            }
        }
    }
}

/// A column-type conflict across the rules of one IDB (RAQ005 substrate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeConflict {
    /// The IDB whose rules disagree.
    pub relation: String,
    /// Zero-based column index.
    pub column: usize,
    /// The type established by earlier rules.
    pub expected: ValueType,
    /// The conflicting type.
    pub found: ValueType,
    /// Index of the rule that introduced the conflict.
    pub rule_index: usize,
}

/// The result of the dataflow fixpoint over one program.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// Per-relation per-column abstract values (EDBs seeded from the schema,
    /// IDBs joined over their live rules).
    pub columns: BTreeMap<String, Vec<AbsVal>>,
    /// Relations that may hold at least one tuple.
    pub maybe_nonempty: BTreeSet<String>,
    /// Per-rule liveness: `None` if the rule can fire, `Some(reason)` if it
    /// provably never fires.
    pub rule_dead: Vec<Option<DeadReason>>,
    /// Column-type conflicts across the rules of one IDB.
    pub type_conflicts: Vec<TypeConflict>,
    /// Relations reachable from the program's outputs through rule bodies.
    pub reachable: BTreeSet<String>,
}

impl Dataflow {
    /// True if the rule at `index` can possibly fire.
    pub fn rule_live(&self, index: usize) -> bool {
        self.rule_dead.get(index).map(|d| d.is_none()).unwrap_or(true)
    }
}

/// Run the dataflow fixpoint. `stats` (when supplied) refines EDB emptiness:
/// a relation observed with zero rows is treated as empty; without stats
/// every EDB is assumed possibly-nonempty.
pub fn analyze_dataflow(program: &DlirProgram, stats: Option<&EdbStats>) -> Dataflow {
    let mut flow = Dataflow::default();

    // Seed EDBs from the schema (and stats-backed emptiness).
    for decl in program.schema.iter() {
        if decl.kind == RelationKind::Idb || program.is_idb(&decl.name) {
            continue;
        }
        let empty = stats.and_then(|s| s.rows(&decl.name)).map(|r| r == 0).unwrap_or(false);
        if !empty {
            flow.maybe_nonempty.insert(decl.name.clone());
        }
        flow.columns.insert(
            decl.name.clone(),
            decl.column_types().into_iter().map(AbsVal::of_type).collect(),
        );
    }

    flow.rule_dead = vec![None; program.rules.len()];

    // Fixpoint: IDB column facts and emptiness only grow, the lattice is
    // finite, so this terminates.
    loop {
        let mut changed = false;
        for (index, rule) in program.rules.iter().enumerate() {
            let (vars, dead) = rule_facts(rule, &flow);
            if let Some(reason) = dead {
                flow.rule_dead[index] = Some(reason);
                continue;
            }
            flow.rule_dead[index] = None;

            // The rule may fire: its head relation may be nonempty and its
            // head terms flow into the relation's columns.
            let head = &rule.head.relation;
            changed |= flow.maybe_nonempty.insert(head.clone());
            let head_vals: Vec<AbsVal> = rule
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => AbsVal::of_value(v),
                    Term::Var(v) => {
                        if Some(v.as_str())
                            == rule.aggregation.as_ref().map(|a| a.output_var.as_str())
                        {
                            // Aggregate outputs are engine-computed integers
                            // for count/sum/min/max/avg.
                            AbsVal::Typed(ValueType::Int)
                        } else {
                            vars.get(v.as_str()).cloned().unwrap_or(AbsVal::Top)
                        }
                    }
                    Term::Wildcard => AbsVal::Top,
                })
                .collect();
            let entry = flow
                .columns
                .entry(head.clone())
                .or_insert_with(|| vec![AbsVal::Bottom; head_vals.len()]);
            if entry.len() != head_vals.len() {
                // Arity disagreement between rules: RAQ101 already fires;
                // widen everything rather than guessing.
                for v in entry.iter_mut() {
                    *v = AbsVal::Top;
                }
                continue;
            }
            for (col, val) in entry.iter_mut().zip(head_vals.iter()) {
                let joined = col.join(val);
                if joined != *col {
                    *col = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    collect_type_conflicts(program, &mut flow);
    collect_reachability(program, &mut flow);
    flow
}

/// Per-variable abstract values inside one rule, meeting the bindings from
/// positive atoms (against the current relation column facts) with the
/// equality constraints; returns the first dead-reason found, if any.
fn rule_facts(
    rule: &raqlet_dlir::ir::Rule,
    flow: &Dataflow,
) -> (BTreeMap<String, AbsVal>, Option<DeadReason>) {
    let mut vars: BTreeMap<String, AbsVal> = BTreeMap::new();

    // Positive atoms: each variable occurrence meets the relation's column
    // fact; a relation that can hold no tuples kills the rule.
    for elem in &rule.body {
        if let BodyElem::Atom(atom) = elem {
            if !flow.maybe_nonempty.contains(&atom.relation) {
                return (vars, Some(DeadReason::EmptyRelation { relation: atom.relation.clone() }));
            }
            let cols = flow.columns.get(&atom.relation);
            for (i, term) in atom.terms.iter().enumerate() {
                let col_val = cols.and_then(|c| c.get(i)).cloned().unwrap_or(AbsVal::Top);
                match term {
                    Term::Var(v) => {
                        let cur = vars.entry(v.clone()).or_insert(AbsVal::Top);
                        let met = cur.meet(&col_val);
                        if met == AbsVal::Bottom {
                            return (
                                vars.clone(),
                                Some(DeadReason::Contradiction { variable: v.clone() }),
                            );
                        }
                        *cur = met;
                    }
                    Term::Const(c) => {
                        // A constant term against a known-constant column of
                        // a different value can never match.
                        if AbsVal::of_value(c).meet(&col_val) == AbsVal::Bottom {
                            return (
                                vars,
                                Some(DeadReason::FalseConstraint {
                                    constraint: format!("{atom} (column {i} never holds {c})"),
                                }),
                            );
                        }
                    }
                    Term::Wildcard => {}
                }
            }
        }
    }

    // Equality constraints refine variables with constants; constant-only
    // comparisons are checked outright.
    for elem in &rule.body {
        if let BodyElem::Constraint { op, lhs, rhs } = elem {
            match (as_const(lhs, &vars), as_const(rhs, &vars)) {
                (Some(a), Some(b)) if op.eval(&a, &b) != Some(true) => {
                    return (
                        vars,
                        Some(DeadReason::FalseConstraint {
                            constraint: format!("{lhs} {} {rhs}", op.symbol()),
                        }),
                    );
                }
                (Some(c), None) | (None, Some(c)) if *op == CmpOp::Eq => {
                    let var_side = if as_const(lhs, &vars).is_none() { lhs } else { rhs };
                    if let DlExpr::Var(v) = var_side {
                        let cur = vars.entry(v.clone()).or_insert(AbsVal::Top);
                        let met = cur.meet(&AbsVal::of_value(&c));
                        if met == AbsVal::Bottom {
                            return (
                                vars.clone(),
                                Some(DeadReason::Contradiction { variable: v.clone() }),
                            );
                        }
                        *cur = met;
                    }
                }
                _ => {}
            }
        }
    }

    (vars, None)
}

/// Evaluate an expression to a constant, using already-known constant
/// variables; `None` if it involves a non-constant variable.
fn as_const(expr: &DlExpr, vars: &BTreeMap<String, AbsVal>) -> Option<Value> {
    match expr {
        DlExpr::Const(v) => Some(v.clone()),
        DlExpr::Var(v) => match vars.get(v) {
            Some(AbsVal::Const(c)) => Some(c.clone()),
            _ => None,
        },
        DlExpr::Arith { op, lhs, rhs } => op.eval(&as_const(lhs, vars)?, &as_const(rhs, vars)?),
    }
}

/// Unify head-term types across the rules of each IDB; disagreements become
/// [`TypeConflict`]s (the RAQ005 substrate). Dead rules are skipped — a rule
/// that can never fire contributes no tuples, hence no types.
fn collect_type_conflicts(program: &DlirProgram, flow: &mut Dataflow) {
    let mut inferred: BTreeMap<String, Vec<ValueType>> = BTreeMap::new();
    for (index, rule) in program.rules.iter().enumerate() {
        if !flow.rule_live(index) {
            continue;
        }
        let (vars, _) = rule_facts(rule, flow);
        let head = &rule.head.relation;
        let entry = inferred
            .entry(head.clone())
            .or_insert_with(|| vec![ValueType::Unknown; rule.head.terms.len()]);
        if entry.len() != rule.head.terms.len() {
            continue;
        }
        for (col, term) in rule.head.terms.iter().enumerate() {
            let ty = match term {
                Term::Const(v) => v.value_type(),
                Term::Var(v) => {
                    if Some(v.as_str()) == rule.aggregation.as_ref().map(|a| a.output_var.as_str())
                    {
                        Some(ValueType::Int)
                    } else {
                        vars.get(v.as_str()).and_then(AbsVal::value_type)
                    }
                }
                Term::Wildcard => None,
            };
            let Some(ty) = ty else { continue };
            match entry[col].unify(ty) {
                Some(u) => entry[col] = u,
                None => flow.type_conflicts.push(TypeConflict {
                    relation: head.clone(),
                    column: col,
                    expected: entry[col],
                    found: ty,
                    rule_index: index,
                }),
            }
        }
    }
}

/// Mark every relation reachable from the outputs through rule bodies
/// (positive and negated atoms both count — a negated dependency is still a
/// dependency).
fn collect_reachability(program: &DlirProgram, flow: &mut Dataflow) {
    let mut work: Vec<String> = program.outputs.clone();
    while let Some(name) = work.pop() {
        if !flow.reachable.insert(name.clone()) {
            continue;
        }
        for rule in program.rules_for(&name) {
            for dep in rule.dependencies() {
                if !flow.reachable.contains(dep) {
                    work.push(dep.to_string());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_dlir::ir::{Atom, Rule};

    fn schema() -> DlSchema {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new(
            "edge",
            vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
            RelationKind::BaseTable,
        ))
        .unwrap();
        s.add(RelationDecl::new(
            "person",
            vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Text)],
            RelationKind::NodeEdb,
        ))
        .unwrap();
        s
    }

    #[test]
    fn seeds_edb_columns_from_schema() {
        let p = DlirProgram::new(schema());
        let flow = analyze_dataflow(&p, None);
        assert_eq!(
            flow.columns["edge"],
            vec![AbsVal::Typed(ValueType::Int), AbsVal::Typed(ValueType::Int)]
        );
        assert!(flow.maybe_nonempty.contains("edge"));
    }

    #[test]
    fn contradictory_equalities_kill_a_rule() {
        // q(x) :- person(x, n), n = "a", n = "b".
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("person", &["x", "n"])),
                BodyElem::eq(DlExpr::var("n"), DlExpr::Const(Value::str("a"))),
                BodyElem::eq(DlExpr::var("n"), DlExpr::Const(Value::str("b"))),
            ],
        ));
        p.add_output("q");
        let flow = analyze_dataflow(&p, None);
        // The first equality binds `n = "a"`; the second then evaluates
        // `"a" = "b"` to false — dead either way.
        assert!(flow.rule_dead[0].is_some());
        assert!(!flow.maybe_nonempty.contains("q"));
    }

    #[test]
    fn false_constant_comparison_kills_a_rule() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("edge", &["x", "y"])),
                BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::int(1), rhs: DlExpr::int(2) },
            ],
        ));
        let flow = analyze_dataflow(&p, None);
        assert!(matches!(flow.rule_dead[0], Some(DeadReason::FalseConstraint { .. })));
    }

    #[test]
    fn type_conflict_against_schema_kills_a_rule() {
        // q(x) :- person(x, n), n = 42.  (name is Text)
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("person", &["x", "n"])),
                BodyElem::eq(DlExpr::var("n"), DlExpr::int(42)),
            ],
        ));
        let flow = analyze_dataflow(&p, None);
        assert!(matches!(flow.rule_dead[0], Some(DeadReason::Contradiction { .. })));
    }

    #[test]
    fn emptiness_propagates_through_strata() {
        // a has no rules and no EDB backing → empty; b joins a → dead;
        // c joins edge → live.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("b", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("a", &["x"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("c", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        let flow = analyze_dataflow(&p, None);
        assert!(matches!(
            flow.rule_dead[0],
            Some(DeadReason::EmptyRelation { ref relation }) if relation == "a"
        ));
        assert!(flow.rule_dead[1].is_none());
        assert!(!flow.maybe_nonempty.contains("b"));
        assert!(flow.maybe_nonempty.contains("c"));
    }

    #[test]
    fn stats_make_an_edb_empty() {
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        let mut stats = EdbStats::new();
        stats.insert("edge", crate::stats::RelationStats { rows: 0, distinct: vec![0, 0] });
        let flow = analyze_dataflow(&p, Some(&stats));
        assert!(matches!(flow.rule_dead[0], Some(DeadReason::EmptyRelation { .. })));
    }

    #[test]
    fn constants_propagate_into_idb_columns() {
        // q(x, 7) :- edge(x, y).   → q column 1 is Const(7).
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::new("q", vec![Term::var("x"), Term::int(7)]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        let flow = analyze_dataflow(&p, None);
        assert_eq!(flow.columns["q"][1], AbsVal::Const(Value::Int(7)));
        assert_eq!(flow.columns["q"][0], AbsVal::Typed(ValueType::Int));
    }

    #[test]
    fn type_conflicts_across_rules_are_recorded() {
        // q(x) :- person(p, x).  (x : Text)
        // q(y) :- edge(y, z).    (y : Int) → conflict on column 0.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("person", &["p", "x"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["y", "z"]))],
        ));
        let flow = analyze_dataflow(&p, None);
        assert_eq!(flow.type_conflicts.len(), 1);
        let c = &flow.type_conflicts[0];
        assert_eq!(c.relation, "q");
        assert_eq!(c.column, 0);
        assert_eq!(c.rule_index, 1);
    }

    #[test]
    fn reachability_walks_from_outputs() {
        // out :- mid. mid :- edge. orphan :- person.
        let mut p = DlirProgram::new(schema());
        p.add_rule(Rule::new(
            Atom::with_vars("out", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("mid", &["x"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("mid", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("orphan", &["x"]),
            vec![BodyElem::Atom(Atom::with_vars("person", &["x", "n"]))],
        ));
        p.add_output("out");
        let flow = analyze_dataflow(&p, None);
        assert!(flow.reachable.contains("out"));
        assert!(flow.reachable.contains("mid"));
        assert!(flow.reachable.contains("edge"));
        assert!(!flow.reachable.contains("orphan"));
    }

    #[test]
    fn recursive_programs_reach_fixpoint() {
        // tc(x,y) :- edge(x,y). tc(x,y) :- tc(x,z), edge(z,y).
        let mut p = DlirProgram::new(schema());
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
        let flow = analyze_dataflow(&p, None);
        assert!(flow.rule_dead.iter().all(Option::is_none));
        assert_eq!(
            flow.columns["tc"],
            vec![AbsVal::Typed(ValueType::Int), AbsVal::Typed(ValueType::Int)]
        );
    }
}
