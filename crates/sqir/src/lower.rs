//! DLIR → SQIR lowering ("DLIR to Datalog and SQL translation", Section 3).
//!
//! Each IDB becomes a common table expression; non-recursive IDBs become
//! plain CTEs, recursive IDBs become recursive CTEs whose non-recursive rules
//! form the base branches and whose recursive rules form the iterated
//! branches. The final SQL statement selects `DISTINCT *` from the output
//! CTE, exactly as in Figure 3e.
//!
//! Notable design points:
//!
//! * **Set semantics** — every branch is a `SELECT DISTINCT`, matching the
//!   `RETURN DISTINCT` normalisation of the inputs.
//! * **Negation** — a negated body atom becomes a correlated `NOT EXISTS`.
//! * **Aggregation** — an aggregated rule becomes a `GROUP BY` select whose
//!   aggregate argument is `DISTINCT`, matching the set-semantics aggregation
//!   the Datalog engine implements.
//! * **Lattice recursion** (shortest paths) — SQL has no subsumption, so the
//!   lowering materialises all path lengths up to a configurable depth bound
//!   in a helper recursive CTE `<name>__all` and then takes the per-group
//!   `MIN` in the CTE named `<name>`. The depth bound preserves results
//!   whenever it is at least the longest shortest path; the helper records
//!   it as [`Cte::depth_bound`], SQL-sim runs one round past it and refuses
//!   with `RaqletError::RecursionDepthExceeded` when that round reaches a
//!   group the bounded rows missed, and the emitted SQL states the
//!   assumption in a comment.
//! * **Empty outputs** — when the optimizer proves the output relation empty
//!   it drops every rule deriving it; the output then lowers to a SELECT of
//!   `NULL` columns that no row passes (`WHERE (1 = 0)`), so the query still
//!   returns the declared columns and no row.
//! * **Backend limits** — this is the one place a SQL backend's limits are
//!   checked. Mutual recursion and non-linear recursion cannot be expressed
//!   with `WITH RECURSIVE`; the lowering rejects them with a
//!   `BackendRejected` error. A program that does not stratify (negation or
//!   aggregation through recursion) is refused with the error of
//!   [`raqlet_dlir::stratify()`], the same RAQ106 the Datalog engine returns.

use std::collections::HashMap;

use raqlet_common::schema::RelationKind;
use raqlet_common::{RaqletError, Result, Value};
use raqlet_dlir::{
    stratify_with, AggFunc, BodyElem, CmpOp, DepGraph, DlExpr, DlirProgram, LatticeMerge, Rule,
    Term,
};

use crate::ir::*;

/// Options controlling the DLIR → SQIR lowering.
#[derive(Debug, Clone)]
pub struct SqlLowerOptions {
    /// Depth bound used when a lattice-annotated (shortest-path) relation has
    /// no explicit hop bound; see the module documentation.
    pub max_recursion_depth: i64,
}

impl Default for SqlLowerOptions {
    fn default() -> Self {
        SqlLowerOptions { max_recursion_depth: 30 }
    }
}

/// Lower a DLIR program to SQIR. `output` names the relation the final
/// SELECT reads from (usually the program's single `.output`). Fails on a
/// program beyond recursive SQL: one that does not stratify, or that uses
/// mutual or non-linear recursion (see the module documentation).
pub fn lower_to_sqir(
    program: &DlirProgram,
    output: &str,
    options: &SqlLowerOptions,
) -> Result<SqirQuery> {
    let graph = DepGraph::build(program);
    stratify_with(program, &graph)?;
    Lowering { program, options, graph }.run(output)
}

struct Lowering<'a> {
    program: &'a DlirProgram,
    options: &'a SqlLowerOptions,
    graph: DepGraph,
}

impl<'a> Lowering<'a> {
    fn run(&self, output: &str) -> Result<SqirQuery> {
        if !self.program.is_idb(output) {
            return self.empty_output(output);
        }

        // Order IDBs by the dependency graph's SCC order (dependencies first).
        let mut ctes: Vec<Cte> = Vec::new();
        let mut needs_recursive = false;
        for scc in self.graph.sccs() {
            let idbs: Vec<&String> = scc.iter().filter(|n| self.program.is_idb(n)).collect();
            if idbs.is_empty() {
                continue;
            }
            if idbs.len() > 1 {
                return Err(RaqletError::BackendRejected {
                    backend: "recursive-sql".into(),
                    reason: format!(
                        "mutual recursion between {} cannot be expressed with WITH RECURSIVE",
                        idbs.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ")
                    ),
                });
            }
            let name = idbs[0].clone();
            let recursive = self.graph.is_recursive(&name);
            needs_recursive |= recursive;
            match self.program.lattice_for(&name) {
                LatticeMerge::Set => ctes.push(self.lower_relation(&name, &name, recursive, None)?),
                LatticeMerge::MinOnColumn(col) => {
                    let all_name = format!("{name}__all");
                    ctes.push(self.lower_relation(&name, &all_name, recursive, Some(col))?);
                    ctes.push(self.min_fold_cte(&name, &all_name, col)?);
                }
                LatticeMerge::MaxOnColumn(_) => {
                    return Err(RaqletError::unsupported(
                        "max-lattice recursion is not supported by the SQL backend",
                    ))
                }
            }
        }

        // Final SELECT DISTINCT * FROM <output>.
        let out_columns = self.columns_of(output)?;
        let final_select = SelectStmt {
            distinct: true,
            items: out_columns
                .iter()
                .map(|c| SelectItem::new(SqlExpr::col("OUT", c), c.clone()))
                .collect(),
            from: vec![FromItem::new(output, "OUT")],
            where_conjuncts: Vec::new(),
            group_by: Vec::new(),
        };

        Ok(SqirQuery { ctes, final_select, needs_recursive })
    }

    /// The query of a declared IDB output no rule derives: one SELECT of
    /// `NULL` per column whose WHERE no row passes.
    fn empty_output(&self, output: &str) -> Result<SqirQuery> {
        let Some(decl) = self.program.schema.get(output).filter(|d| d.kind == RelationKind::Idb)
        else {
            return Err(RaqletError::semantic(format!(
                "output relation `{output}` is not derived by any rule"
            )));
        };
        let final_select = SelectStmt {
            distinct: true,
            items: decl
                .columns
                .iter()
                .map(|c| SelectItem::new(SqlExpr::Literal(Value::Null), c.name.clone()))
                .collect(),
            where_conjuncts: vec![SqlExpr::eq(SqlExpr::int(1), SqlExpr::int(0))],
            ..Default::default()
        };
        Ok(SqirQuery { ctes: Vec::new(), final_select, needs_recursive: false })
    }

    /// Column names of a relation (from the schema, or synthesised).
    fn columns_of(&self, relation: &str) -> Result<Vec<String>> {
        if let Some(decl) = self.program.schema.get(relation) {
            return Ok(decl.columns.iter().map(|c| c.name.clone()).collect());
        }
        // Fall back to the head variables of the first defining rule.
        if let Some(rule) = self.program.rules_for(relation).first() {
            return Ok(rule
                .head
                .terms
                .iter()
                .enumerate()
                .map(|(i, t)| match t {
                    Term::Var(v) => v.clone(),
                    _ => format!("c{i}"),
                })
                .collect());
        }
        Err(RaqletError::UnknownName { kind: "relation", name: relation.to_string() })
    }

    /// Lower all rules of `relation` into one CTE named `cte_name`.
    /// `lattice_col` is the length column when the relation is a
    /// lattice-annotated shortest-path helper.
    fn lower_relation(
        &self,
        relation: &str,
        cte_name: &str,
        recursive: bool,
        lattice_col: Option<usize>,
    ) -> Result<Cte> {
        let columns = self.columns_of(relation)?;
        let rules = self.program.rules_for(relation);
        let depth_bound = lattice_col
            .map(|column| DepthBound { column, max_depth: self.options.max_recursion_depth });
        let mut branches = Vec::new();

        // SQL requires base branches before recursive ones.
        let (base, rec): (Vec<&&Rule>, Vec<&&Rule>) =
            rules.iter().partition(|r| r.count_positive(relation) == 0);
        for rule in base.iter().chain(rec.iter()) {
            let self_refs = rule.count_positive(relation);
            if self_refs > 1 {
                return Err(RaqletError::BackendRejected {
                    backend: "recursive-sql".into(),
                    reason: format!(
                        "rule `{rule}` uses non-linear recursion, which WITH RECURSIVE cannot express"
                    ),
                });
            }
            let mut branch = self.lower_rule(rule, &columns, relation, cte_name)?;
            // Unbounded lattice recursion gets the configured depth bound on
            // its recursive branches.
            if let Some(cut) =
                depth_bound.filter(|_| self_refs > 0).and_then(|b| b.conjunct(&branch))
            {
                branch.where_conjuncts.push(cut);
            }
            branches.push(branch);
        }
        Ok(Cte { name: cte_name.to_string(), columns, recursive, branches, depth_bound })
    }

    /// The `MIN`-fold CTE for a lattice relation:
    /// `name AS (SELECT k1, ..., MIN(len) FROM name__all GROUP BY k1, ...)`.
    fn min_fold_cte(&self, name: &str, all_name: &str, col: usize) -> Result<Cte> {
        let columns = self.columns_of(name)?;
        let mut items = Vec::new();
        let mut group_by = Vec::new();
        for (i, c) in columns.iter().enumerate() {
            if i == col {
                items.push(SelectItem::new(
                    SqlExpr::Aggregate {
                        func: AggFunc::Min,
                        distinct: false,
                        arg: Some(Box::new(SqlExpr::col("A", c))),
                    },
                    c.clone(),
                ));
            } else {
                items.push(SelectItem::new(SqlExpr::col("A", c), c.clone()));
                group_by.push(SqlExpr::col("A", c));
            }
        }
        Ok(Cte {
            name: name.to_string(),
            columns,
            recursive: false,
            branches: vec![SelectStmt {
                distinct: false,
                items,
                from: vec![FromItem::new(all_name, "A")],
                where_conjuncts: Vec::new(),
                group_by,
            }],
            depth_bound: None,
        })
    }

    /// Lower a single rule into a SELECT branch.
    fn lower_rule(
        &self,
        rule: &Rule,
        head_columns: &[String],
        relation: &str,
        cte_name: &str,
    ) -> Result<SelectStmt> {
        let mut stmt = SelectStmt { distinct: true, ..Default::default() };
        // var -> SQL expression that produces it.
        let mut bindings: HashMap<String, SqlExpr> = HashMap::new();
        let mut alias_counter = 0usize;

        // FROM items and join predicates from positive atoms.
        for elem in &rule.body {
            let BodyElem::Atom(atom) = elem else { continue };
            alias_counter += 1;
            let alias = format!("R{alias_counter}");
            // References to the relation being defined are renamed to the CTE
            // (relevant for lattice helpers where cte_name = `<name>__all`).
            let table = if atom.relation == relation {
                cte_name.to_string()
            } else {
                atom.relation.clone()
            };
            let columns = self.columns_of(&atom.relation)?;
            if columns.len() != atom.arity() {
                return Err(RaqletError::semantic(format!(
                    "atom `{atom}` has arity {} but `{}` has {} columns",
                    atom.arity(),
                    atom.relation,
                    columns.len()
                )));
            }
            stmt.from.push(FromItem::new(table, alias.clone()));
            for (i, term) in atom.terms.iter().enumerate() {
                let col_expr = SqlExpr::col(&alias, &columns[i]);
                match term {
                    Term::Var(v) => {
                        if let Some(existing) = bindings.get(v) {
                            stmt.where_conjuncts.push(SqlExpr::eq(existing.clone(), col_expr));
                        } else {
                            bindings.insert(v.clone(), col_expr);
                        }
                    }
                    Term::Const(c) => {
                        stmt.where_conjuncts
                            .push(SqlExpr::eq(col_expr, SqlExpr::Literal(c.clone())));
                    }
                    Term::Wildcard => {}
                }
            }
        }

        // Constraints: equalities binding new variables become bindings,
        // everything else becomes a WHERE conjunct. Iterate to handle chains.
        let mut pending: Vec<&BodyElem> =
            rule.body.iter().filter(|b| matches!(b, BodyElem::Constraint { .. })).collect();
        let mut progress = true;
        while progress {
            progress = false;
            let mut remaining = Vec::new();
            for elem in pending {
                let BodyElem::Constraint { op, lhs, rhs } = elem else { unreachable!() };
                if *op == CmpOp::Eq {
                    // Try to use the equality as a definition of an unbound var.
                    if let Some((var, source)) = binds_new_var(lhs, rhs, &bindings) {
                        let expr = self.lower_scalar(source, &bindings)?;
                        bindings.insert(var, expr);
                        progress = true;
                        continue;
                    }
                }
                match (self.try_lower_scalar(lhs, &bindings), self.try_lower_scalar(rhs, &bindings))
                {
                    (Some(l), Some(r)) => {
                        stmt.where_conjuncts.push(SqlExpr::Cmp {
                            op: *op,
                            lhs: Box::new(l),
                            rhs: Box::new(r),
                        });
                        progress = true;
                    }
                    _ => remaining.push(elem),
                }
            }
            pending = remaining;
            if pending.is_empty() {
                break;
            }
        }
        if !pending.is_empty() {
            return Err(RaqletError::semantic(format!(
                "rule `{rule}` has constraints over unbound variables"
            )));
        }

        // Negated atoms become NOT EXISTS.
        let mut neg_counter = 0usize;
        for elem in &rule.body {
            let BodyElem::Negated(atom) = elem else { continue };
            neg_counter += 1;
            let alias = format!("N{neg_counter}");
            let columns = self.columns_of(&atom.relation)?;
            let mut conditions = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                let col_expr = SqlExpr::col(&alias, &columns[i]);
                match term {
                    Term::Var(v) => {
                        let bound = bindings.get(v).ok_or_else(|| {
                            RaqletError::semantic(format!(
                                "variable `{v}` in negated atom `{atom}` is unbound"
                            ))
                        })?;
                        conditions.push(SqlExpr::eq(col_expr, bound.clone()));
                    }
                    Term::Const(c) => {
                        conditions.push(SqlExpr::eq(col_expr, SqlExpr::Literal(c.clone())))
                    }
                    Term::Wildcard => {}
                }
            }
            stmt.where_conjuncts.push(SqlExpr::NotExists {
                table: atom.relation.clone(),
                alias,
                conditions,
            });
        }

        // Projection.
        match &rule.aggregation {
            None => {
                for (i, term) in rule.head.terms.iter().enumerate() {
                    let alias = head_columns.get(i).cloned().unwrap_or_else(|| format!("c{i}"));
                    let expr = match term {
                        Term::Var(v) => bindings.get(v).cloned().ok_or_else(|| {
                            RaqletError::semantic(format!(
                                "head variable `{v}` of rule `{rule}` is unbound"
                            ))
                        })?,
                        Term::Const(c) => SqlExpr::Literal(c.clone()),
                        Term::Wildcard => {
                            return Err(RaqletError::semantic("wildcard in rule head"))
                        }
                    };
                    stmt.items.push(SelectItem::new(expr, alias));
                }
            }
            Some(agg) => {
                stmt.distinct = false;
                for (i, term) in rule.head.terms.iter().enumerate() {
                    let alias = head_columns.get(i).cloned().unwrap_or_else(|| format!("c{i}"));
                    let Term::Var(v) = term else {
                        return Err(RaqletError::semantic(
                            "aggregated rule heads must consist of variables",
                        ));
                    };
                    if *v == agg.output_var {
                        let arg = match &agg.input_var {
                            Some(input) => {
                                Some(Box::new(bindings.get(input).cloned().ok_or_else(|| {
                                    RaqletError::semantic(format!(
                                        "aggregate input `{input}` is unbound"
                                    ))
                                })?))
                            }
                            None => None,
                        };
                        stmt.items.push(SelectItem::new(
                            SqlExpr::Aggregate {
                                func: agg.func,
                                // Set-semantics aggregation: aggregate over the
                                // distinct input values per group.
                                distinct: arg.is_some(),
                                arg,
                            },
                            alias,
                        ));
                    } else {
                        let expr = bindings.get(v).cloned().ok_or_else(|| {
                            RaqletError::semantic(format!("group-by variable `{v}` is unbound"))
                        })?;
                        stmt.group_by.push(expr.clone());
                        stmt.items.push(SelectItem::new(expr, alias));
                    }
                }
            }
        }
        Ok(stmt)
    }

    fn lower_scalar(&self, expr: &DlExpr, bindings: &HashMap<String, SqlExpr>) -> Result<SqlExpr> {
        self.try_lower_scalar(expr, bindings).ok_or_else(|| {
            RaqletError::semantic(format!("expression `{expr}` references unbound variables"))
        })
    }

    fn try_lower_scalar(
        &self,
        expr: &DlExpr,
        bindings: &HashMap<String, SqlExpr>,
    ) -> Option<SqlExpr> {
        match expr {
            DlExpr::Var(v) => bindings.get(v).cloned(),
            DlExpr::Const(c) => Some(SqlExpr::Literal(c.clone())),
            DlExpr::Arith { op, lhs, rhs } => Some(SqlExpr::Arith {
                op: *op,
                lhs: Box::new(self.try_lower_scalar(lhs, bindings)?),
                rhs: Box::new(self.try_lower_scalar(rhs, bindings)?),
            }),
        }
    }
}

/// If exactly one side of `lhs = rhs` is an unbound variable and the other
/// side is fully bound, return `(variable, defining expression)`.
fn binds_new_var<'e>(
    lhs: &'e DlExpr,
    rhs: &'e DlExpr,
    bindings: &HashMap<String, SqlExpr>,
) -> Option<(String, &'e DlExpr)> {
    let is_unbound_var = |e: &DlExpr| match e {
        DlExpr::Var(v) if !bindings.contains_key(v) => Some(v.clone()),
        _ => None,
    };
    let fully_bound = |e: &DlExpr| {
        let mut vars = Vec::new();
        e.variables(&mut vars);
        vars.iter().all(|v| bindings.contains_key(v))
    };
    if let Some(v) = is_unbound_var(lhs) {
        if fully_bound(rhs) {
            return Some((v, rhs));
        }
    }
    if let Some(v) = is_unbound_var(rhs) {
        if fully_bound(lhs) {
            return Some((v, lhs));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    use raqlet_dlir::Atom;

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn edge_schema() -> DlSchema {
        let mut s = DlSchema::new();
        s.add(RelationDecl::new(
            "edge",
            vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
            RelationKind::BaseTable,
        ))
        .unwrap();
        s
    }

    fn tc_program() -> DlirProgram {
        let mut p = DlirProgram::new(edge_schema());
        p.schema.upsert(RelationDecl::new(
            "tc",
            vec![Column::new("x", ValueType::Int), Column::new("y", ValueType::Int)],
            RelationKind::Idb,
        ));
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        p
    }

    #[test]
    fn transitive_closure_becomes_a_recursive_cte() {
        let q = lower_to_sqir(&tc_program(), "tc", &SqlLowerOptions::default()).unwrap();
        assert!(q.needs_recursive);
        assert_eq!(q.cte_names(), vec!["tc"]);
        let cte = q.cte("tc").unwrap();
        assert!(cte.recursive);
        assert_eq!(cte.columns, vec!["x", "y"]);
        assert_eq!(cte.base_branches().len(), 1);
        assert_eq!(cte.recursive_branches().len(), 1);
        // The recursive branch joins the CTE with edge on z.
        let rec = cte.recursive_branches()[0];
        assert_eq!(rec.from.len(), 2);
        assert_eq!(rec.where_conjuncts.len(), 1);
        // Final select reads DISTINCT from the output.
        assert!(q.final_select.distinct);
        assert_eq!(q.final_select.from[0].table, "tc");
    }

    #[test]
    fn join_predicates_come_from_shared_variables() {
        // q(a, c) :- edge(a, b), edge(b, c).
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["a", "c"]),
            vec![atom("edge", &["a", "b"]), atom("edge", &["b", "c"])],
        ));
        p.add_output("q");
        let q = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let branch = &q.cte("q").unwrap().branches[0];
        assert_eq!(branch.from.len(), 2);
        assert_eq!(branch.where_conjuncts.len(), 1);
        assert_eq!(branch.where_conjuncts[0].to_string(), "(R1.dst = R2.src)");
        assert_eq!(branch.items[0].alias, "a");
        assert_eq!(branch.items[1].alias, "c");
    }

    #[test]
    fn constants_in_atoms_become_filters() {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![BodyElem::Atom(Atom::new("edge", vec![Term::int(1), Term::var("y")]))],
        ));
        p.add_output("q");
        let q = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let branch = &q.cte("q").unwrap().branches[0];
        assert_eq!(branch.where_conjuncts[0].to_string(), "(R1.src = 1)");
    }

    #[test]
    fn equality_constraints_introduce_projected_expressions() {
        // Return(cityId) :- edge(n, p), p = cityId.   (paper's aliasing idiom)
        let mut prog = DlirProgram::new(edge_schema());
        prog.add_rule(Rule::new(
            Atom::with_vars("Return", &["cityId"]),
            vec![atom("edge", &["n", "p"]), BodyElem::eq(DlExpr::var("p"), DlExpr::var("cityId"))],
        ));
        prog.add_output("Return");
        let q = lower_to_sqir(&prog, "Return", &SqlLowerOptions::default()).unwrap();
        let branch = &q.cte("Return").unwrap().branches[0];
        assert_eq!(branch.items[0].expr.to_string(), "R1.dst");
        assert_eq!(branch.items[0].alias, "cityId");
    }

    #[test]
    fn negation_becomes_not_exists() {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::Negated(Atom::with_vars("edge", &["y", "x"])),
            ],
        ));
        p.add_output("q");
        let q = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let branch = &q.cte("q").unwrap().branches[0];
        let not_exists =
            branch.where_conjuncts.iter().find(|c| matches!(c, SqlExpr::NotExists { .. })).unwrap();
        let s = not_exists.to_string();
        assert!(s.starts_with("NOT EXISTS (SELECT 1 FROM edge"), "{s}");
    }

    #[test]
    fn aggregation_becomes_group_by_with_distinct_aggregate() {
        use raqlet_dlir::Aggregation;
        let mut p = DlirProgram::new(edge_schema());
        let mut rule =
            Rule::new(Atom::with_vars("deg", &["x", "d"]), vec![atom("edge", &["x", "y"])]);
        rule.aggregation = Some(Aggregation {
            func: AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        p.add_output("deg");
        let q = lower_to_sqir(&p, "deg", &SqlLowerOptions::default()).unwrap();
        let branch = &q.cte("deg").unwrap().branches[0];
        assert!(branch.is_aggregating());
        assert_eq!(branch.group_by.len(), 1);
        assert_eq!(branch.items[1].expr.to_string(), "COUNT(DISTINCT R1.dst)");
    }

    #[test]
    fn mutual_recursion_is_rejected_for_sql() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("even", &["x"]), vec![atom("zero", &["x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("even", &["x"]),
            vec![atom("odd", &["y"]), atom("succ", &["y", "x"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("odd", &["x"]),
            vec![atom("even", &["y"]), atom("succ", &["y", "x"])],
        ));
        p.add_output("even");
        let err = lower_to_sqir(&p, "even", &SqlLowerOptions::default()).unwrap_err();
        assert!(matches!(err, RaqletError::BackendRejected { .. }));
    }

    #[test]
    fn negation_through_recursion_is_refused_with_raq106() {
        // p(x) :- base(x), !p(x).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("p", &["x"]),
            vec![atom("base", &["x"]), BodyElem::Negated(Atom::with_vars("p", &["x"]))],
        ));
        p.add_output("p");
        let err = lower_to_sqir(&p, "p", &SqlLowerOptions::default()).unwrap_err();
        assert_eq!(err, raqlet_dlir::stratify(&p).unwrap_err());
        assert!(err.to_string().contains("RAQ106"), "{err}");
    }

    #[test]
    fn an_output_no_rule_derives_lowers_to_an_empty_select() {
        let mut p = tc_program();
        p.rules.clear();
        let q = lower_to_sqir(&p, "tc", &SqlLowerOptions::default()).unwrap();
        assert!(q.ctes.is_empty());
        assert!(!q.needs_recursive);
        assert_eq!(q.final_select.output_columns(), vec!["x", "y"]);
        assert!(q.final_select.from.is_empty());
        assert_eq!(q.final_select.where_conjuncts[0].to_string(), "(1 = 0)");
        // An EDB is not an output the program could have derived.
        assert!(lower_to_sqir(&p, "edge", &SqlLowerOptions::default()).is_err());
    }

    #[test]
    fn non_linear_recursion_is_rejected_for_sql() {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
        ));
        p.add_output("tc");
        let err = lower_to_sqir(&p, "tc", &SqlLowerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("non-linear"));
    }

    #[test]
    fn lattice_relations_get_an_all_cte_and_a_min_fold() {
        // dist(s, d, l) with @min(l).
        let mut p = DlirProgram::new(edge_schema());
        p.schema.upsert(RelationDecl::new(
            "dist",
            vec![
                Column::new("s", ValueType::Int),
                Column::new("d", ValueType::Int),
                Column::new("l", ValueType::Int),
            ],
            RelationKind::Idb,
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![
                atom("dist", &["s", "m", "l0"]),
                atom("edge", &["m", "d"]),
                BodyElem::eq(
                    DlExpr::var("l"),
                    DlExpr::Arith {
                        op: raqlet_dlir::ArithOp::Add,
                        lhs: Box::new(DlExpr::var("l0")),
                        rhs: Box::new(DlExpr::int(1)),
                    },
                ),
            ],
        ));
        p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
        p.add_output("dist");
        let q = lower_to_sqir(&p, "dist", &SqlLowerOptions::default()).unwrap();
        assert_eq!(q.cte_names(), vec!["dist__all", "dist"]);
        // The helper CTE is the recursive one and carries the depth bound.
        let all = q.cte("dist__all").unwrap();
        assert!(all.recursive);
        assert_eq!(all.depth_bound, Some(DepthBound { column: 2, max_depth: 30 }));
        assert!(all.recursive_branches()[0]
            .where_conjuncts
            .iter()
            .any(|c| c.to_string().contains("<= 30")));
        assert!(all.base_branches()[0]
            .where_conjuncts
            .iter()
            .all(|c| !c.to_string().contains("<= 30")));
        // The fold CTE takes MIN(l) grouped by (s, d).
        let fold = q.cte("dist").unwrap();
        assert!(!fold.recursive);
        assert_eq!(fold.depth_bound, None);
        assert!(fold.branches[0].items[2].expr.to_string().contains("MIN"));
        assert_eq!(fold.branches[0].group_by.len(), 2);
    }

    #[test]
    fn unknown_output_relation_is_an_error() {
        let p = tc_program();
        assert!(lower_to_sqir(&p, "nope", &SqlLowerOptions::default()).is_err());
    }

    #[test]
    fn cte_chain_follows_dependency_order() {
        // Return depends on Where1 depends on Match1.
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("Match1", &["x", "y"]),
            vec![atom("edge", &["x", "y"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("Where1", &["x", "y"]),
            vec![atom("Match1", &["x", "y"])],
        ));
        p.add_rule(Rule::new(Atom::with_vars("Return", &["x"]), vec![atom("Where1", &["x", "y"])]));
        p.add_output("Return");
        let q = lower_to_sqir(&p, "Return", &SqlLowerOptions::default()).unwrap();
        let names = q.cte_names();
        let pos = |n: &str| names.iter().position(|x| x == n).unwrap();
        assert!(pos("Match1") < pos("Where1"));
        assert!(pos("Where1") < pos("Return"));
    }
}
