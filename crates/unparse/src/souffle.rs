//! Soufflé Datalog unparser.
//!
//! Produces a complete Soufflé program from a DLIR program: `.decl` lines for
//! every relation, `.input` directives for the EDBs, the rules, and `.output`
//! directives — the format shown in Figure 3d of the paper.

use std::fmt::Write as _;

use raqlet_common::schema::RelationKind;
use raqlet_common::Value;
use raqlet_dlir::{Aggregation, Atom, BodyElem, DlExpr, DlirProgram, Rule, Term};

/// Options for the Soufflé unparser.
#[derive(Debug, Clone, Default)]
pub struct SouffleOptions {
    /// Emit `.input` directives for extensional relations (facts loaded from
    /// TSV files), as a standalone Soufflé program would need.
    pub emit_input_directives: bool,
}

/// Render a DLIR program as Soufflé Datalog text.
pub fn to_souffle(program: &DlirProgram, options: &SouffleOptions) -> String {
    let mut out = String::new();

    // Declarations: EDBs first (schema order), then IDBs that have rules but
    // no declaration are synthesised from their first rule.
    for decl in program.schema.iter() {
        let cols = decl
            .columns
            .iter()
            .map(|c| format!("{}: {}", sanitize_identifier(&c.name), c.ty.souffle_name()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, ".decl {}({})", sanitize_identifier(&decl.name), cols);
        if options.emit_input_directives && decl.kind != RelationKind::Idb {
            let _ = writeln!(out, ".input {}", sanitize_identifier(&decl.name));
        }
    }
    for idb in program.idb_names() {
        if program.schema.get(&idb).is_none() {
            if let Some(rule) = program.rules_for(&idb).first() {
                let cols = (0..rule.head.arity())
                    .map(|i| match &rule.head.terms[i] {
                        Term::Var(v) => format!("{}: number", sanitize_identifier(v)),
                        _ => format!("c{i}: number"),
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, ".decl {}({})", sanitize_identifier(&idb), cols);
            }
        }
    }
    out.push('\n');

    for rule in &program.rules {
        let _ = writeln!(out, "{}", rule_to_souffle(rule));
    }
    out.push('\n');
    for output in &program.outputs {
        let _ = writeln!(out, ".output {}", sanitize_identifier(output));
    }
    out
}

/// Render one rule in Soufflé syntax.
pub fn rule_to_souffle(rule: &Rule) -> String {
    if rule.body.is_empty() && rule.aggregation.is_none() {
        return format!("{}.", atom_to_souffle(&rule.head));
    }
    let body: Vec<String> = rule.body.iter().map(body_elem_to_souffle).collect();
    match &rule.aggregation {
        None => format!("{} :- {}.", atom_to_souffle(&rule.head), body.join(", ")),
        Some(agg) => {
            // Soufflé's aggregate syntax: `c = count : { body }`,
            // `s = sum v : { body }`, etc. Group-by variables are implicitly
            // the other head variables, which must be bound by the outer
            // body; we re-state the body inside the aggregate.
            format!(
                "{} :- {}, {}.",
                atom_to_souffle(&rule.head),
                body.join(", "),
                aggregation_to_souffle(agg, &body)
            )
        }
    }
}

fn aggregation_to_souffle(agg: &Aggregation, body: &[String]) -> String {
    let func = match agg.func {
        raqlet_dlir::AggFunc::Avg => "mean",
        other => other.name(),
    };
    let inner = body.join(", ");
    match (&agg.input_var, agg.func) {
        (None, _) => format!("{} = count : {{ {} }}", sanitize_identifier(&agg.output_var), inner),
        (Some(v), raqlet_dlir::AggFunc::Count) => format!(
            "{} = count : {{ {} }}",
            sanitize_identifier(&agg.output_var),
            // Counting a specific variable's bindings: Soufflé counts the
            // tuples of the inner body, which our set semantics already
            // deduplicates per (group, input).
            inner.replace("__input__", &sanitize_identifier(v))
        ),
        (Some(v), _) => format!(
            "{} = {} {} : {{ {} }}",
            sanitize_identifier(&agg.output_var),
            func,
            sanitize_identifier(v),
            inner
        ),
    }
}

/// Render an atom.
pub fn atom_to_souffle(atom: &Atom) -> String {
    let args = atom.terms.iter().map(term_to_souffle).collect::<Vec<_>>().join(", ");
    format!("{}({})", sanitize_identifier(&atom.relation), args)
}

fn body_elem_to_souffle(elem: &BodyElem) -> String {
    match elem {
        BodyElem::Atom(a) => atom_to_souffle(a),
        BodyElem::Negated(a) => format!("!{}", atom_to_souffle(a)),
        BodyElem::Constraint { op, lhs, rhs } => {
            format!("{} {} {}", expr_to_souffle(lhs), op.symbol(), expr_to_souffle(rhs))
        }
    }
}

fn term_to_souffle(term: &Term) -> String {
    match term {
        Term::Var(v) => sanitize_identifier(v),
        Term::Const(Value::Str(s)) => format!("\"{}\"", s.replace('"', "\\\"")),
        Term::Const(Value::Bool(b)) => if *b { "1" } else { "0" }.to_string(),
        Term::Const(Value::Null) => "nil".to_string(),
        Term::Const(v) => v.to_string(),
        Term::Wildcard => "_".to_string(),
    }
}

fn expr_to_souffle(expr: &DlExpr) -> String {
    match expr {
        DlExpr::Var(v) => sanitize_identifier(v),
        DlExpr::Const(Value::Str(s)) => format!("\"{}\"", s.replace('"', "\\\"")),
        DlExpr::Const(v) => v.to_string(),
        DlExpr::Arith { op, lhs, rhs } => {
            format!("({} {} {})", expr_to_souffle(lhs), op.symbol(), expr_to_souffle(rhs))
        }
    }
}

/// Soufflé identifiers must match `[a-zA-Z?][a-zA-Z0-9_?]*`; anything else is
/// replaced by underscores.
fn sanitize_identifier(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '_' || c == '?' { c } else { '_' })
        .collect();
    if s.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        s.insert(0, 'r');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    use raqlet_dlir::CmpOp;

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    #[test]
    fn declarations_match_figure_2b() {
        let mut schema = DlSchema::new();
        schema
            .add(RelationDecl::new(
                "Person",
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("firstName", ValueType::Text),
                    Column::new("locationIP", ValueType::Text),
                ],
                RelationKind::NodeEdb,
            ))
            .unwrap();
        let program = DlirProgram::new(schema);
        let text = to_souffle(&program, &SouffleOptions::default());
        assert!(text.contains(".decl Person(id: number, firstName: symbol, locationIP: symbol)"));
    }

    #[test]
    fn rules_and_outputs_are_rendered() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let text = to_souffle(&p, &SouffleOptions::default());
        assert!(text.contains("tc(x, y) :- edge(x, y)."));
        assert!(text.contains("tc(x, y) :- tc(x, z), edge(z, y)."));
        assert!(text.contains(".output tc"));
        // Undeclared IDBs get a synthesised .decl.
        assert!(text.contains(".decl tc("));
    }

    #[test]
    fn input_directives_are_optional() {
        let mut schema = DlSchema::new();
        schema
            .add(RelationDecl::new(
                "edge",
                vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        let p = DlirProgram::new(schema);
        let without = to_souffle(&p, &SouffleOptions::default());
        assert!(!without.contains(".input"));
        let with = to_souffle(&p, &SouffleOptions { emit_input_directives: true });
        assert!(with.contains(".input edge"));
    }

    #[test]
    fn constraints_and_negation_are_rendered() {
        let rule = Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                atom("node", &["x"]),
                BodyElem::Negated(Atom::with_vars("blocked", &["x"])),
                BodyElem::Constraint { op: CmpOp::Neq, lhs: DlExpr::var("x"), rhs: DlExpr::int(0) },
            ],
        );
        assert_eq!(rule_to_souffle(&rule), "q(x) :- node(x), !blocked(x), x != 0.");
    }

    #[test]
    fn string_constants_are_quoted_and_escaped() {
        let rule = Rule::new(Atom::new("q", vec![Term::Const(Value::str("say \"hi\""))]), vec![]);
        assert_eq!(rule_to_souffle(&rule), "q(\"say \\\"hi\\\"\").");
    }

    #[test]
    fn aggregation_uses_souffle_aggregate_syntax() {
        use raqlet_dlir::{AggFunc, Aggregation};
        let mut rule =
            Rule::new(Atom::with_vars("deg", &["x", "d"]), vec![atom("edge", &["x", "y"])]);
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        let text = rule_to_souffle(&rule);
        assert!(text.contains("d = count : {"), "{text}");
    }

    #[test]
    fn identifiers_are_sanitised() {
        assert_eq!(sanitize_identifier("Person_KNOWS_Person"), "Person_KNOWS_Person");
        assert_eq!(sanitize_identifier("weird name"), "weird_name");
        assert_eq!(sanitize_identifier("1abc"), "r1abc");
    }
}
