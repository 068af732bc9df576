//! Variable substitution over DLIR, and instantiating a definition's body at
//! a call site.
//!
//! [`BodyElem::substitute`] is the one walker: constant propagation replaces
//! variables with constants through it, the duplicate-rule lint renames
//! them canonically, and [`instantiate`] — shared by inlining and
//! linearization — maps a definition's head variables onto the call's
//! arguments and gives every other variable a fresh name.

use std::collections::{HashMap, HashSet};

use crate::ir::{Atom, BodyElem, DlExpr, Rule, Term};

impl DlExpr {
    /// Replace every variable `v` for which `subst(v)` returns a term, in
    /// place. An expression has no wildcard, so a variable mapped to `_`
    /// stays as it is. Returns whether any variable was replaced.
    pub fn substitute(&mut self, subst: &mut impl FnMut(&str) -> Option<Term>) -> bool {
        match self {
            DlExpr::Var(v) => match subst(v) {
                Some(Term::Var(name)) => *v = name,
                Some(Term::Const(c)) => *self = DlExpr::Const(c),
                Some(Term::Wildcard) | None => return false,
            },
            DlExpr::Const(_) => return false,
            DlExpr::Arith { lhs, rhs, .. } => return lhs.substitute(subst) | rhs.substitute(subst),
        }
        true
    }
}

impl Atom {
    /// Replace every variable `v` for which `subst(v)` returns a term, in
    /// place. Returns whether any variable was replaced.
    pub fn substitute(&mut self, subst: &mut impl FnMut(&str) -> Option<Term>) -> bool {
        let mut changed = false;
        for term in &mut self.terms {
            if let Some(replacement) = term.as_var().and_then(&mut *subst) {
                *term = replacement;
                changed = true;
            }
        }
        changed
    }
}

impl BodyElem {
    /// Replace every variable `v` for which `subst(v)` returns a term, in
    /// place, visiting variables left to right. Returns whether any variable
    /// was replaced.
    pub fn substitute(&mut self, subst: &mut impl FnMut(&str) -> Option<Term>) -> bool {
        match self {
            BodyElem::Atom(a) | BodyElem::Negated(a) => a.substitute(subst),
            BodyElem::Constraint { lhs, rhs, .. } => lhs.substitute(subst) | rhs.substitute(subst),
        }
    }
}

/// The body of `def` instantiated at the call site `call` in `caller`.
///
/// Each head variable of `def` becomes the call's argument in its position.
/// Every other variable — including a head variable whose argument is `_`,
/// which binds nothing in the caller — gets a fresh name `{var}{suffix}{n}`
/// that the caller does not use, so nothing in the body captures a caller
/// variable. Fresh names are numbered in first-occurrence order.
pub fn instantiate(def: &Rule, call: &Atom, caller: &Rule, suffix: &str) -> Vec<BodyElem> {
    let mut names: HashMap<String, Term> = def
        .head
        .terms
        .iter()
        .zip(&call.terms)
        .filter_map(|(param, arg)| match (param, arg) {
            (Term::Var(v), Term::Var(_) | Term::Const(_)) => Some((v.clone(), arg.clone())),
            _ => None,
        })
        .collect();
    let mut used: HashSet<String> = caller.head.variables().into_iter().collect();
    used.extend(caller.body.iter().flat_map(BodyElem::variables));
    let mut fresh = 0usize;
    let mut subst = |v: &str| {
        if let Some(term) = names.get(v) {
            return Some(term.clone());
        }
        let name = loop {
            let candidate = format!("{v}{suffix}{fresh}");
            fresh += 1;
            if used.insert(candidate.clone()) {
                break candidate;
            }
        };
        names.insert(v.to_string(), Term::Var(name.clone()));
        Some(Term::Var(name))
    };
    let mut body = def.body.clone();
    for elem in &mut body {
        elem.substitute(&mut subst);
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CmpOp;

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn substitution_reaches_atoms_negations_and_nested_expressions() {
        let mut subst = |v: &str| match v {
            "x" => Some(Term::int(7)),
            "y" => Some(Term::var("b")),
            _ => None,
        };
        let mut a = atom("edge", &["x", "y", "z"]);
        assert!(a.substitute(&mut subst));
        assert_eq!(a.to_string(), "edge(7, b, z)");

        let mut n = BodyElem::Negated(Atom::with_vars("blocked", &["y"]));
        assert!(n.substitute(&mut subst));
        assert_eq!(n.to_string(), "!blocked(b)");

        let sum = DlExpr::Arith {
            op: crate::ir::ArithOp::Add,
            lhs: Box::new(DlExpr::var("x")),
            rhs: Box::new(DlExpr::var("y")),
        };
        let mut c = BodyElem::eq(DlExpr::var("z"), sum);
        assert!(c.substitute(&mut subst));
        assert_eq!(c.to_string(), "z = (7 + b)");

        let mut untouched = atom("node", &["z"]);
        assert!(!untouched.substitute(&mut subst));
        assert_eq!(untouched.to_string(), "node(z)");
    }

    #[test]
    fn instantiation_maps_head_variables_and_renames_locals_apart() {
        // def: v(a, b) :- e(a, z), z < b.   caller: q(z, z_i0) :- v(z, 3), f(z_i0).
        let def = Rule::new(
            Atom::with_vars("v", &["a", "b"]),
            vec![
                atom("e", &["a", "z"]),
                BodyElem::Constraint {
                    op: CmpOp::Lt,
                    lhs: DlExpr::var("z"),
                    rhs: DlExpr::var("b"),
                },
            ],
        );
        let call = Atom::new("v", vec![Term::var("z"), Term::int(3)]);
        let caller = Rule::new(
            Atom::with_vars("q", &["z", "z_i0"]),
            vec![BodyElem::Atom(call.clone()), atom("f", &["z_i0"])],
        );
        let body = instantiate(&def, &call, &caller, "_i");
        let text: Vec<String> = body.iter().map(|b| b.to_string()).collect();
        assert_eq!(text, ["e(z, z_i1)", "z_i1 < 3"]);
    }

    #[test]
    fn a_wildcard_argument_gives_the_head_variable_a_fresh_name() {
        // def: p(x, y) :- edge(x, y), y > 3.   caller: q(x, y) :- p(x, _), node(y).
        let def = Rule::new(
            Atom::with_vars("p", &["x", "y"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::var("y"), rhs: DlExpr::int(3) },
            ],
        );
        let call = Atom::new("p", vec![Term::var("x"), Term::Wildcard]);
        let caller = Rule::new(
            Atom::with_vars("q", &["x", "y"]),
            vec![BodyElem::Atom(call.clone()), atom("node", &["y"])],
        );
        let body = instantiate(&def, &call, &caller, "_i");
        let text: Vec<String> = body.iter().map(|b| b.to_string()).collect();
        assert_eq!(text, ["edge(x, y_i0)", "y_i0 > 3"]);
    }
}
