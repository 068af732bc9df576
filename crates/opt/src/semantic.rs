//! Semantic join optimizations (Section 5, "Semantic Join Optimizations").
//!
//! Using the integrity constraints captured in the schema — every node EDB's
//! first column is its primary key, every edge EDB's first two columns are a
//! key — two optimizations are applied:
//!
//! * **Key-based self-join elimination**: two positive atoms over the same
//!   relation whose key columns bind identical terms describe the same row;
//!   they are merged into a single atom (unifying wildcards with bound terms)
//!   and the duplicate is removed. This generalises the exact-duplicate
//!   removal performed after inlining.
//! * **Redundant key-lookup elimination**: a node atom that binds only its
//!   key column and whose variable is already constrained by an edge atom
//!   whose endpoint columns are declared to reference that node type is a
//!   pure existence check implied by referential integrity; it can be
//!   dropped when the schema marks the relation as derived from a PG node
//!   type (paper: "eliminating joins based on reasoning over integrity
//!   constraints").

use raqlet_common::schema::{DlSchema, RelationKind};
use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule, Term};

/// Run the semantic join optimizations in place. Returns whether anything
/// changed.
pub fn optimize_joins(program: &mut DlirProgram) -> bool {
    let schema = &program.schema;
    let mut changed = false;
    for rule in &mut program.rules {
        changed |= merge_key_self_joins(schema, rule) | drop_implied_node_lookups(schema, rule);
    }
    changed
}

/// Merge positive atoms over the same relation whose declared key columns are
/// bound to identical terms: each atom is merged into the first earlier atom
/// it can be merged with.
fn merge_key_self_joins(schema: &DlSchema, rule: &mut Rule) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < rule.body.len() {
        match merge_target(schema, &rule.body[..i], &rule.body[i]) {
            Some((j, merged)) => {
                rule.body[j] = BodyElem::Atom(merged);
                rule.body.remove(i);
                changed = true;
            }
            None => i += 1,
        }
    }
    changed
}

/// The position in `earlier` of an atom over the same relation as `elem`
/// with the same key terms, and the two atoms merged.
fn merge_target(schema: &DlSchema, earlier: &[BodyElem], elem: &BodyElem) -> Option<(usize, Atom)> {
    let BodyElem::Atom(atom) = elem else { return None };
    let decl = schema.get(&atom.relation)?;
    if decl.key.is_empty() {
        return None;
    }
    earlier.iter().enumerate().find_map(|(j, existing)| {
        let BodyElem::Atom(prev) = existing else { return None };
        if prev.relation != atom.relation {
            return None;
        }
        let same_key = decl.key.iter().all(|&k| {
            matches!((&prev.terms.get(k), &atom.terms.get(k)), (Some(a), Some(b))
                if a == b && !matches!(a, Term::Wildcard))
        });
        if !same_key {
            return None;
        }
        merge_atoms(prev, atom).map(|merged| (j, merged))
    })
}

/// Merge two atoms over the same relation describing the same row. Returns
/// `None` if they bind conflicting constants (the rule is then left alone —
/// constant propagation will discover the contradiction).
fn merge_atoms(a: &Atom, b: &Atom) -> Option<Atom> {
    if a.terms.len() != b.terms.len() {
        return None;
    }
    let mut terms = Vec::with_capacity(a.terms.len());
    let mut extra_equalities = false;
    for (ta, tb) in a.terms.iter().zip(&b.terms) {
        let merged = match (ta, tb) {
            (Term::Wildcard, t) | (t, Term::Wildcard) => t.clone(),
            (x, y) if x == y => x.clone(),
            // Two different variables bound to the same column would need an
            // extra equality constraint; bail out to keep the pass simple.
            _ => {
                extra_equalities = true;
                break;
            }
        };
        terms.push(merged);
    }
    if extra_equalities {
        None
    } else {
        Some(Atom::new(a.relation.clone(), terms))
    }
}

/// Drop node-EDB atoms that only re-check existence of a key already implied
/// by an edge atom in the same body (referential integrity of the generated
/// schema: edge rows only reference existing node keys).
fn drop_implied_node_lookups(schema: &DlSchema, rule: &mut Rule) -> bool {
    // Which variables appear in the endpoint columns of an edge EDB atom, and
    // which node relation does referential integrity imply for them? The
    // generated edge EDB names encode the endpoint labels as
    // `<SrcLabel>_<EDGE_LABEL>_<DstLabel>`.
    let mut edge_endpoint_vars: Vec<(String, String)> = Vec::new();
    for elem in &rule.body {
        if let BodyElem::Atom(atom) = elem {
            if let Some(decl) = schema.get(&atom.relation) {
                if decl.kind == RelationKind::EdgeEdb {
                    let src_label = atom.relation.split('_').next().unwrap_or_default().to_string();
                    let dst_label =
                        atom.relation.split('_').next_back().unwrap_or_default().to_string();
                    for (idx, label) in [(0usize, src_label), (1usize, dst_label)] {
                        if let Some(Term::Var(v)) = atom.terms.get(idx) {
                            edge_endpoint_vars.push((v.clone(), label));
                        }
                    }
                }
            }
        }
    }
    let before = rule.body.len();
    rule.body.retain(|elem| {
        let BodyElem::Atom(atom) = elem else { return true };
        let Some(decl) = schema.get(&atom.relation) else { return true };
        if decl.kind != RelationKind::NodeEdb {
            return true;
        }
        // Keep the atom if it binds anything beyond its key column.
        let binds_only_key = atom.terms.iter().enumerate().all(|(i, t)| {
            if i == 0 {
                true
            } else {
                matches!(t, Term::Wildcard)
            }
        });
        if !binds_only_key {
            return true;
        }
        let Some(Term::Var(key_var)) = atom.terms.first() else { return true };
        let implied =
            edge_endpoint_vars.iter().any(|(v, label)| v == key_var && *label == atom.relation);
        !implied
    });
    rule.body.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    use raqlet_dlir::Rule;

    fn snb_schema() -> DlSchema {
        let mut s = DlSchema::new();
        let mut person = RelationDecl::new(
            "Person",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("firstName", ValueType::Text),
                Column::new("locationIP", ValueType::Text),
            ],
            RelationKind::NodeEdb,
        );
        person.key = vec![0];
        s.add(person).unwrap();
        let mut city = RelationDecl::new(
            "City",
            vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Text)],
            RelationKind::NodeEdb,
        );
        city.key = vec![0];
        s.add(city).unwrap();
        let mut edge = RelationDecl::new(
            "Person_IS_LOCATED_IN_City",
            vec![
                Column::new("id1", ValueType::Int),
                Column::new("id2", ValueType::Int),
                Column::new("id", ValueType::Int),
            ],
            RelationKind::EdgeEdb,
        );
        edge.key = vec![0, 1];
        s.add(edge).unwrap();
        s
    }

    #[test]
    fn key_self_joins_are_merged() {
        // Return(f) :- Person(n, _, _), Person(n, f, _) — same key `n`.
        let mut p = DlirProgram::new(snb_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["f"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::Wildcard, Term::Wildcard],
                )),
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::var("f"), Term::Wildcard],
                )),
            ],
        ));
        p.add_output("Return");
        let mut out = p;
        let changed = optimize_joins(&mut out);
        assert!(changed);
        let r = out.rules_for("Return")[0];
        assert_eq!(r.count_positive("Person"), 1);
        // The merged atom keeps the firstName binding.
        let person = r.body.iter().find_map(|b| b.as_positive_atom()).unwrap();
        assert_eq!(person.to_string(), "Person(n, f, _)");
    }

    #[test]
    fn different_keys_are_not_merged() {
        let mut p = DlirProgram::new(snb_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["a", "b"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("a"), Term::Wildcard, Term::Wildcard],
                )),
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("b"), Term::Wildcard, Term::Wildcard],
                )),
            ],
        ));
        p.add_output("Return");
        let mut out = p;
        optimize_joins(&mut out);
        // drop_implied_node_lookups doesn't apply (no edge atom); both stay,
        // except they only bind keys... but they are head variables via key,
        // so they must stay to bind a and b.
        let r = out.rules_for("Return")[0];
        assert_eq!(r.count_positive("Person"), 2);
    }

    #[test]
    fn conflicting_constant_columns_are_left_alone() {
        let mut p = DlirProgram::new(snb_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["n"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::Const("a".into()), Term::Wildcard],
                )),
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::Const("b".into()), Term::Wildcard],
                )),
            ],
        ));
        p.add_output("Return");
        let mut out = p;
        let changed = optimize_joins(&mut out);
        assert!(!changed);
        assert_eq!(out.rules_for("Return")[0].count_positive("Person"), 2);
    }

    #[test]
    fn node_existence_checks_implied_by_edges_are_dropped() {
        // Match1(n, x1, p) :- Person_IS_LOCATED_IN_City(n, p, x1), Person(n, _, _), City(p, _).
        // Referential integrity of the generated EDBs implies both node atoms.
        let mut prog = DlirProgram::new(snb_schema());
        prog.add_rule(Rule::new(
            Atom::with_vars("Match1", &["n", "x1", "p"]),
            vec![
                BodyElem::Atom(Atom::with_vars("Person_IS_LOCATED_IN_City", &["n", "p", "x1"])),
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::Wildcard, Term::Wildcard],
                )),
                BodyElem::Atom(Atom::new("City", vec![Term::var("p"), Term::Wildcard])),
            ],
        ));
        prog.add_output("Match1");
        let mut out = prog;
        let changed = optimize_joins(&mut out);
        assert!(changed);
        let rule = out.rules_for("Match1")[0];
        assert_eq!(rule.body.len(), 1);
        assert_eq!(rule.count_positive("Person"), 0);
        assert_eq!(rule.count_positive("City"), 0);
    }

    #[test]
    fn node_atoms_binding_properties_are_kept() {
        // The Person atom binds firstName, so it cannot be dropped.
        let mut prog = DlirProgram::new(snb_schema());
        prog.add_rule(Rule::new(
            Atom::with_vars("Return", &["firstName"]),
            vec![
                BodyElem::Atom(Atom::with_vars("Person_IS_LOCATED_IN_City", &["n", "p", "x1"])),
                BodyElem::Atom(Atom::new(
                    "Person",
                    vec![Term::var("n"), Term::var("firstName"), Term::Wildcard],
                )),
            ],
        ));
        prog.add_output("Return");
        let mut out = prog;
        optimize_joins(&mut out);
        let rule = out.rules_for("Return")[0];
        assert_eq!(rule.count_positive("Person"), 1);
    }

    #[test]
    fn relations_without_schema_entries_are_untouched() {
        let mut prog = DlirProgram::default();
        prog.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                BodyElem::Atom(Atom::with_vars("mystery", &["x"])),
                BodyElem::Atom(Atom::with_vars("mystery", &["x"])),
            ],
        ));
        prog.add_output("q");
        let mut out = prog;
        let changed = optimize_joins(&mut out);
        assert!(!changed);
        assert_eq!(out.rules_for("q")[0].count_positive("mystery"), 2);
    }
}
