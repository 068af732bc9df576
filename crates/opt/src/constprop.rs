//! Constant propagation and constraint simplification.
//!
//! Within a single rule, an equality constraint between a variable and a
//! constant (`n = 42`) lets the optimizer substitute the constant for every
//! occurrence of the variable in body atoms, pushing the selection into the
//! scan of the underlying relation — the single-rule half of "pushing
//! operators past recursion". Trivially true constraints are removed and
//! trivially false constraints mark the rule as unsatisfiable so it can be
//! deleted.

use std::collections::HashMap;

use raqlet_common::Value;
use raqlet_dlir::{BodyElem, CmpOp, DlExpr, DlirProgram, Rule, Term};

/// Run constant propagation over every rule, in place. Returns whether
/// anything changed.
pub fn propagate_constants(program: &mut DlirProgram) -> bool {
    let mut changed = false;
    program.rules.retain_mut(|rule| match simplify_rule(rule) {
        Simplified::Unchanged => true,
        Simplified::Rewritten => {
            changed = true;
            true
        }
        Simplified::Unsatisfiable => {
            // Dropping the rule preserves semantics: it can never fire.
            changed = true;
            false
        }
    });
    changed
}

enum Simplified {
    Unchanged,
    Rewritten,
    Unsatisfiable,
}

fn simplify_rule(rule: &mut Rule) -> Simplified {
    // Head variables must keep their names (they define the IDB's columns),
    // so only substitute variables that do not appear in the head. The
    // aggregation's variables are likewise preserved.
    let mut protected: Vec<String> = rule.head.variables();
    if let Some(agg) = &rule.aggregation {
        protected.push(agg.output_var.clone());
        protected.extend(agg.group_by.iter().cloned());
        if let Some(v) = &agg.input_var {
            protected.push(v.clone());
        }
    }

    // Collect var -> constant bindings from equality constraints.
    let mut consts: HashMap<String, Value> = HashMap::new();
    for elem in &rule.body {
        if let BodyElem::Constraint { op: CmpOp::Eq, lhs, rhs } = elem {
            match (lhs, rhs) {
                (DlExpr::Var(v), DlExpr::Const(c)) | (DlExpr::Const(c), DlExpr::Var(v))
                    if !protected.contains(v) =>
                {
                    consts.insert(v.clone(), c.clone());
                }
                _ => {}
            }
        }
    }
    let mut subst = |v: &str| consts.get(v).map(|c| Term::Const(c.clone()));

    let mut changed = false;
    let mut unsatisfiable = false;
    rule.body.retain_mut(|elem| {
        if unsatisfiable {
            return true;
        }
        changed |= elem.substitute(&mut subst);
        let BodyElem::Constraint { op, lhs, rhs } = elem else { return true };
        changed |= fold_expr(lhs) | fold_expr(rhs);
        // Evaluate constraints over two constants: drop the trivially true
        // ones; a false or NULL one makes the rule unsatisfiable. Constraints
        // on variables we could not substitute (head variables) stay, and so
        // do the `var = const` constraints that were propagated: keeping them
        // is always safe.
        if let (DlExpr::Const(a), DlExpr::Const(b)) = (&*lhs, &*rhs) {
            changed = true;
            if op.eval(a, b) == Some(true) {
                return false;
            }
            unsatisfiable = true;
        }
        true
    });

    if unsatisfiable {
        Simplified::Unsatisfiable
    } else if changed {
        Simplified::Rewritten
    } else {
        Simplified::Unchanged
    }
}

/// Fold constant arithmetic (`2 + 3` → `5`) in place. Returns whether
/// anything was folded.
fn fold_expr(expr: &mut DlExpr) -> bool {
    let DlExpr::Arith { op, lhs, rhs } = expr else { return false };
    let changed = fold_expr(lhs) | fold_expr(rhs);
    let folded = match (&**lhs, &**rhs) {
        (DlExpr::Const(a), DlExpr::Const(b)) => op.eval(a, b),
        _ => None,
    };
    match folded {
        Some(v) => {
            *expr = DlExpr::Const(v);
            true
        }
        None => changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::{ArithOp, Atom};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn constants_are_pushed_into_atoms() {
        // q(y) :- edge(x, y), x = 7.   =>   q(y) :- edge(7, y), x = 7 (kept).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![atom("edge", &["x", "y"]), BodyElem::eq(DlExpr::var("x"), DlExpr::int(7))],
        ));
        let mut out = p;
        let changed = propagate_constants(&mut out);
        assert!(changed);
        let q = out.rules_for("q")[0];
        assert_eq!(q.body[0].to_string(), "edge(7, y)");
    }

    #[test]
    fn head_variables_are_not_replaced() {
        // Return(n) :- Person(n), n = 42: n names an output column, so the
        // atom keeps the variable (the constraint still filters it).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["n"]),
            vec![atom("Person", &["n"]), BodyElem::eq(DlExpr::var("n"), DlExpr::int(42))],
        ));
        let mut out = p;
        let changed = propagate_constants(&mut out);
        assert!(!changed);
        let r = out.rules_for("Return")[0];
        assert_eq!(r.body[0].to_string(), "Person(n)");
    }

    #[test]
    fn trivially_true_constraints_are_removed() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::Constraint { op: CmpOp::Lt, lhs: DlExpr::int(1), rhs: DlExpr::int(2) },
            ],
        ));
        let mut out = p;
        let changed = propagate_constants(&mut out);
        assert!(changed);
        assert_eq!(out.rules_for("q")[0].body.len(), 1);
    }

    #[test]
    fn unsatisfiable_rules_are_dropped() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::Constraint { op: CmpOp::Eq, lhs: DlExpr::int(1), rhs: DlExpr::int(2) },
            ],
        ));
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("edge", &["x", "x"])]));
        let mut out = p;
        let changed = propagate_constants(&mut out);
        assert!(changed);
        assert_eq!(out.rules_for("q").len(), 1);
    }

    #[test]
    fn constant_arithmetic_is_folded() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "l"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::eq(
                    DlExpr::var("l"),
                    DlExpr::Arith {
                        op: ArithOp::Add,
                        lhs: Box::new(DlExpr::int(2)),
                        rhs: Box::new(DlExpr::int(3)),
                    },
                ),
            ],
        ));
        let mut out = p;
        let changed = propagate_constants(&mut out);
        assert!(changed);
        let q = out.rules_for("q")[0];
        assert!(q.body.iter().any(|b| b.to_string() == "l = 5"), "{q}");
    }

    #[test]
    fn propagation_reaches_negated_atoms() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::eq(DlExpr::var("x"), DlExpr::int(3)),
                BodyElem::Negated(Atom::with_vars("blocked", &["x"])),
            ],
        ));
        let mut out = p;
        propagate_constants(&mut out);
        let q = out.rules_for("q")[0];
        assert!(q.body.iter().any(|b| b.to_string() == "!blocked(3)"), "{q}");
    }
}
