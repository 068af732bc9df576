//! SQL unparser: SQIR → SQL text in several dialects.
//!
//! The output mirrors Figure 3e of the paper: a `WITH` (or `WITH RECURSIVE`)
//! chain of CTEs followed by a final `SELECT DISTINCT`. Dialects only differ
//! in small ways that matter for the targeted engines:
//!
//! * **Generic / DuckDB / HyPer** — `WITH RECURSIVE`, `UNION` between CTE
//!   branches;
//! * **Postgres** — identical to generic, kept as a named dialect so callers
//!   can be explicit about their target.

use std::fmt::Write as _;

use raqlet_sqir::{Cte, SelectStmt, SqirQuery};

/// The SQL dialect to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqlDialect {
    /// Portable SQL:1999-style recursive CTEs.
    #[default]
    Generic,
    /// DuckDB.
    DuckDb,
    /// Tableau HyPer.
    Hyper,
    /// PostgreSQL.
    Postgres,
}

impl SqlDialect {
    /// Human-readable name (used in reports and benchmarks).
    pub fn name(&self) -> &'static str {
        match self {
            SqlDialect::Generic => "generic",
            SqlDialect::DuckDb => "duckdb",
            SqlDialect::Hyper => "hyper",
            SqlDialect::Postgres => "postgres",
        }
    }
}

/// Render a SQIR query as SQL text in the given dialect.
pub fn to_sql(query: &SqirQuery, dialect: SqlDialect) -> String {
    let mut out = String::new();
    if !query.ctes.is_empty() {
        let with_kw = if query.needs_recursive { "WITH RECURSIVE" } else { "WITH" };
        let _ = write!(out, "{with_kw} ");
        for (i, cte) in query.ctes.iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            let _ = write!(out, "{}", cte_to_sql(cte, dialect));
        }
        out.push('\n');
    }
    out.push_str(&select_to_sql(&query.final_select, dialect, 0));
    out
}

fn cte_to_sql(cte: &Cte, dialect: SqlDialect) -> String {
    let cols = cte.columns.join(", ");
    let branches: Vec<String> = cte.branches.iter().map(|b| select_to_sql(b, dialect, 1)).collect();
    // UNION (distinct) keeps set semantics between branches and is what makes
    // the recursive fixpoint terminate.
    let mut body = branches.join("\n  UNION\n");
    if let Some(bound) = cte.depth_bound {
        // SQL has no subsumption: the shortest-path helper enumerates lengths
        // up to the bound, which is exact only below it.
        body.insert_str(
            0,
            &format!(
                "  -- path lengths are cut at max_recursion_depth = {}: exact only while \
                 every shortest path is at most {} hops long\n",
                bound.max_depth, bound.max_depth
            ),
        );
    }
    format!("{} ({}) AS (\n{}\n)", cte.name, cols, body)
}

fn select_to_sql(stmt: &SelectStmt, _dialect: SqlDialect, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    let mut out = String::new();
    let distinct = if stmt.distinct { "DISTINCT " } else { "" };
    let items = stmt
        .items
        .iter()
        .map(|i| format!("{} AS {}", i.expr, i.alias))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(out, "{pad}SELECT {distinct}{items}");
    if !stmt.from.is_empty() {
        let from = stmt
            .from
            .iter()
            .map(|f| format!("{} AS {}", f.table, f.alias))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(out, "\n{pad}FROM {from}");
    }
    if !stmt.where_conjuncts.is_empty() {
        let conds =
            stmt.where_conjuncts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" AND ");
        let _ = write!(out, "\n{pad}WHERE {conds}");
    }
    if !stmt.group_by.is_empty() {
        let groups = stmt.group_by.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(", ");
        let _ = write!(out, "\n{pad}GROUP BY {groups}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, DlSchema, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule};
    use raqlet_sqir::{lower_to_sqir, SqlLowerOptions};

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

    fn tc_sql() -> String {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let q = lower_to_sqir(&p, "tc", &SqlLowerOptions::default()).unwrap();
        to_sql(&q, SqlDialect::Generic)
    }

    #[test]
    fn recursive_cte_uses_with_recursive_and_union() {
        let sql = tc_sql();
        assert!(sql.starts_with("WITH RECURSIVE tc (x, y) AS ("), "{sql}");
        assert!(sql.contains("UNION"), "{sql}");
        assert!(sql.contains("SELECT DISTINCT OUT.x AS x, OUT.y AS y"), "{sql}");
        assert!(sql.contains("FROM tc AS OUT"), "{sql}");
    }

    #[test]
    fn non_recursive_chain_uses_plain_with() {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(Atom::with_vars("V1", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(Atom::with_vars("Return", &["x"]), vec![atom("V1", &["x", "y"])]));
        p.add_output("Return");
        let q = lower_to_sqir(&p, "Return", &SqlLowerOptions::default()).unwrap();
        let sql = to_sql(&q, SqlDialect::DuckDb);
        assert!(sql.starts_with("WITH V1 (x, y) AS ("), "{sql}");
        assert!(!sql.contains("RECURSIVE"));
        assert!(sql.contains(", Return (x) AS ("), "{sql}");
    }

    #[test]
    fn where_clause_joins_conjuncts_with_and() {
        let mut p = DlirProgram::new(edge_schema());
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["a", "c"]),
            vec![atom("edge", &["a", "b"]), atom("edge", &["b", "c"])],
        ));
        p.add_output("q");
        let q = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let sql = to_sql(&q, SqlDialect::Generic);
        assert!(sql.contains("FROM edge AS R1, edge AS R2"), "{sql}");
        assert!(sql.contains("WHERE (R1.dst = R2.src)"), "{sql}");
    }

    #[test]
    fn dialects_share_the_core_shape() {
        let generic = tc_sql();
        for dialect in [SqlDialect::DuckDb, SqlDialect::Hyper, SqlDialect::Postgres] {
            let mut p = DlirProgram::new(edge_schema());
            p.add_rule(Rule::new(
                Atom::with_vars("tc", &["x", "y"]),
                vec![atom("edge", &["x", "y"])],
            ));
            p.add_rule(Rule::new(
                Atom::with_vars("tc", &["x", "y"]),
                vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
            ));
            p.add_output("tc");
            let q = lower_to_sqir(&p, "tc", &SqlLowerOptions::default()).unwrap();
            assert_eq!(to_sql(&q, dialect), generic);
        }
    }

    #[test]
    fn an_output_no_rule_derives_is_a_select_no_row_passes() {
        let mut p = DlirProgram::new(edge_schema());
        p.schema.upsert(RelationDecl::new(
            "Return",
            vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Text)],
            RelationKind::Idb,
        ));
        p.add_output("Return");
        let q = lower_to_sqir(&p, "Return", &SqlLowerOptions::default()).unwrap();
        for dialect in
            [SqlDialect::Generic, SqlDialect::DuckDb, SqlDialect::Hyper, SqlDialect::Postgres]
        {
            assert_eq!(
                to_sql(&q, dialect),
                "SELECT DISTINCT NULL AS id, NULL AS name\nWHERE (1 = 0)",
                "{dialect:?}"
            );
        }
    }

    #[test]
    fn dialect_names() {
        assert_eq!(SqlDialect::DuckDb.name(), "duckdb");
        assert_eq!(SqlDialect::Hyper.name(), "hyper");
        assert_eq!(SqlDialect::default().name(), "generic");
    }
}
