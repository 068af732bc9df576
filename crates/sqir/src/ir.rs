//! SQIR definitions.
//!
//! SQIR (SQL IR) models the subset of SQL that Raqlet's DLIR programs lower
//! into: a chain of common table expressions (CTEs) — recursive where the
//! corresponding IDB is recursive — followed by a final `SELECT DISTINCT`
//! from the output CTE (Figure 3e of the paper). The structure is
//! deliberately close to the SQL text so the unparser is a straightforward
//! pretty-printer and the in-memory SQL engine can interpret it directly.

use std::fmt;

use raqlet_common::ops::{AggFunc, ArithOp, CmpOp};
use raqlet_common::Value;

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// `alias.column`
    Column { table: String, column: String },
    /// A literal constant.
    Literal(Value),
    /// Comparison.
    Cmp { op: CmpOp, lhs: Box<SqlExpr>, rhs: Box<SqlExpr> },
    /// Arithmetic.
    Arith { op: ArithOp, lhs: Box<SqlExpr>, rhs: Box<SqlExpr> },
    /// Aggregate application (`None` argument means `COUNT(*)`).
    Aggregate { func: AggFunc, distinct: bool, arg: Option<Box<SqlExpr>> },
    /// `NOT EXISTS (SELECT 1 FROM table AS alias WHERE conditions)` — the
    /// encoding of Datalog negation.
    NotExists { table: String, alias: String, conditions: Vec<SqlExpr> },
}

impl SqlExpr {
    /// Column-reference helper.
    pub fn col(table: &str, column: &str) -> SqlExpr {
        SqlExpr::Column { table: table.to_string(), column: column.to_string() }
    }

    /// Integer-literal helper.
    pub fn int(v: i64) -> SqlExpr {
        SqlExpr::Literal(Value::Int(v))
    }

    /// Equality helper.
    pub fn eq(lhs: SqlExpr, rhs: SqlExpr) -> SqlExpr {
        SqlExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// True if the expression contains an aggregate.
    pub fn is_aggregate(&self) -> bool {
        match self {
            SqlExpr::Aggregate { .. } => true,
            SqlExpr::Cmp { lhs, rhs, .. } | SqlExpr::Arith { lhs, rhs, .. } => {
                lhs.is_aggregate() || rhs.is_aggregate()
            }
            _ => false,
        }
    }

    /// Tables referenced by this expression (not descending into NOT EXISTS).
    pub fn referenced_tables(&self, out: &mut Vec<String>) {
        match self {
            SqlExpr::Column { table, .. } if !out.contains(table) => {
                out.push(table.clone());
            }
            SqlExpr::Cmp { lhs, rhs, .. } | SqlExpr::Arith { lhs, rhs, .. } => {
                lhs.referenced_tables(out);
                rhs.referenced_tables(out);
            }
            SqlExpr::Aggregate { arg: Some(a), .. } => a.referenced_tables(out),
            _ => {}
        }
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column { table, column } => write!(f, "{table}.{column}"),
            SqlExpr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            SqlExpr::Literal(Value::Null) => write!(f, "NULL"),
            SqlExpr::Literal(v) => write!(f, "{v}"),
            SqlExpr::Cmp { op: CmpOp::Neq, lhs, rhs } => write!(f, "({lhs} <> {rhs})"),
            SqlExpr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            SqlExpr::Arith { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            SqlExpr::Aggregate { func, distinct, arg } => {
                let inner = match arg {
                    Some(a) => a.to_string(),
                    None => "*".to_string(),
                };
                let func = func.name().to_ascii_uppercase();
                if *distinct {
                    write!(f, "{func}(DISTINCT {inner})")
                } else {
                    write!(f, "{func}({inner})")
                }
            }
            SqlExpr::NotExists { table, alias, conditions } => {
                let conds = if conditions.is_empty() {
                    "1 = 1".to_string()
                } else {
                    conditions.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" AND ")
                };
                write!(f, "NOT EXISTS (SELECT 1 FROM {table} AS {alias} WHERE {conds})")
            }
        }
    }
}

/// One projected item of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: SqlExpr,
    /// Output column name.
    pub alias: String,
}

impl SelectItem {
    /// Convenience constructor.
    pub fn new(expr: SqlExpr, alias: impl Into<String>) -> Self {
        SelectItem { expr, alias: alias.into() }
    }
}

/// One entry of the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// Table or CTE name.
    pub table: String,
    /// Alias used to reference its columns.
    pub alias: String,
}

impl FromItem {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, alias: impl Into<String>) -> Self {
        FromItem { table: table.into(), alias: alias.into() }
    }
}

/// A single SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// True for `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<SelectItem>,
    /// FROM items (comma join; join predicates live in `where_conjuncts`).
    pub from: Vec<FromItem>,
    /// WHERE conjuncts.
    pub where_conjuncts: Vec<SqlExpr>,
    /// GROUP BY expressions (empty when not aggregating).
    pub group_by: Vec<SqlExpr>,
}

impl SelectStmt {
    /// True if this statement aggregates.
    pub fn is_aggregating(&self) -> bool {
        !self.group_by.is_empty() || self.items.iter().any(|i| i.expr.is_aggregate())
    }

    /// Output column names in order.
    pub fn output_columns(&self) -> Vec<String> {
        self.items.iter().map(|i| i.alias.clone()).collect()
    }
}

/// A common table expression: a union of SELECTs, possibly recursive.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name (`V1`, `V2`, ... or the IDB name).
    pub name: String,
    /// Declared column names.
    pub columns: Vec<String>,
    /// True if any branch references the CTE itself (`WITH RECURSIVE`).
    pub recursive: bool,
    /// The UNION branches. For recursive CTEs the non-recursive branches come
    /// first (the SQL standard's requirement).
    pub branches: Vec<SelectStmt>,
    /// The depth bound of a lattice helper CTE (`<name>__all`), whose
    /// recursive branches carry [`DepthBound::conjunct`]; `None` for every
    /// other CTE.
    pub depth_bound: Option<DepthBound>,
}

/// Where a lattice helper CTE cuts its recursion: its recursive branches
/// keep only rows whose length column is at most `max_depth`. The cut is
/// exact only while no shortest path is longer than `max_depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthBound {
    /// The length column (the one the `MIN` fold aggregates).
    pub column: usize,
    /// `SqlLowerOptions::max_recursion_depth` at lowering time.
    pub max_depth: i64,
}

impl DepthBound {
    /// The WHERE conjunct that enforces the bound on a recursive branch: the
    /// branch's projected length `<= max_depth`.
    pub fn conjunct(&self, branch: &SelectStmt) -> Option<SqlExpr> {
        let item = branch.items.get(self.column)?;
        Some(SqlExpr::Cmp {
            op: CmpOp::Le,
            lhs: Box::new(item.expr.clone()),
            rhs: Box::new(SqlExpr::int(self.max_depth)),
        })
    }

    /// `branch` without the conjunct [`DepthBound::conjunct`] added, for an
    /// engine that applies the bound itself.
    pub fn strip(&self, branch: &SelectStmt) -> SelectStmt {
        let cut = self.conjunct(branch);
        let mut branch = branch.clone();
        branch.where_conjuncts.retain(|c| Some(c) != cut.as_ref());
        branch
    }
}

impl Cte {
    /// Branches that do not reference the CTE itself (the "base" part).
    pub fn base_branches(&self) -> Vec<&SelectStmt> {
        self.branches.iter().filter(|b| !references(b, &self.name)).collect()
    }

    /// Branches that reference the CTE itself (the "recursive" part).
    pub fn recursive_branches(&self) -> Vec<&SelectStmt> {
        self.branches.iter().filter(|b| references(b, &self.name)).collect()
    }
}

fn references(stmt: &SelectStmt, name: &str) -> bool {
    stmt.from.iter().any(|f| f.table == name)
}

/// A full SQIR query: a CTE chain plus the final SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SqirQuery {
    /// CTEs in dependency order.
    pub ctes: Vec<Cte>,
    /// The final statement (`SELECT DISTINCT * FROM <last CTE>` in the
    /// paper's example, but any select is allowed).
    pub final_select: SelectStmt,
    /// True if any CTE is recursive (the query needs `WITH RECURSIVE`).
    pub needs_recursive: bool,
}

impl SqirQuery {
    /// Look up a CTE by name.
    pub fn cte(&self, name: &str) -> Option<&Cte> {
        self.ctes.iter().find(|c| c.name == name)
    }

    /// Names of all CTEs in order.
    pub fn cte_names(&self) -> Vec<String> {
        self.ctes.iter().map(|c| c.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_matches_sql_syntax() {
        let e = SqlExpr::eq(SqlExpr::col("R1", "id"), SqlExpr::int(42));
        assert_eq!(e.to_string(), "(R1.id = 42)");
        let s = SqlExpr::Literal(Value::str("O'Hara"));
        assert_eq!(s.to_string(), "'O''Hara'");
        let agg = SqlExpr::Aggregate { func: AggFunc::Count, distinct: false, arg: None };
        assert_eq!(agg.to_string(), "COUNT(*)");
    }

    #[test]
    fn not_exists_display() {
        let e = SqlExpr::NotExists {
            table: "blocked".into(),
            alias: "B".into(),
            conditions: vec![SqlExpr::eq(SqlExpr::col("B", "id"), SqlExpr::col("R1", "id"))],
        };
        assert_eq!(e.to_string(), "NOT EXISTS (SELECT 1 FROM blocked AS B WHERE (B.id = R1.id))");
    }

    #[test]
    fn cte_splits_base_and_recursive_branches() {
        let base = SelectStmt {
            distinct: true,
            items: vec![SelectItem::new(SqlExpr::col("E", "src"), "x")],
            from: vec![FromItem::new("edge", "E")],
            ..Default::default()
        };
        let rec = SelectStmt {
            distinct: true,
            items: vec![SelectItem::new(SqlExpr::col("T", "x"), "x")],
            from: vec![FromItem::new("tc", "T"), FromItem::new("edge", "E")],
            ..Default::default()
        };
        let cte = Cte {
            name: "tc".into(),
            columns: vec!["x".into()],
            recursive: true,
            branches: vec![base.clone(), rec.clone()],
            depth_bound: None,
        };
        assert_eq!(cte.base_branches(), vec![&base]);
        assert_eq!(cte.recursive_branches(), vec![&rec]);
    }

    #[test]
    fn aggregation_detection() {
        let mut stmt = SelectStmt::default();
        assert!(!stmt.is_aggregating());
        stmt.items.push(SelectItem::new(
            SqlExpr::Aggregate {
                func: AggFunc::Sum,
                distinct: false,
                arg: Some(Box::new(SqlExpr::col("R", "v"))),
            },
            "total",
        ));
        assert!(stmt.is_aggregating());
        assert_eq!(stmt.output_columns(), vec!["total"]);
    }

    #[test]
    fn referenced_tables_are_collected() {
        let e = SqlExpr::eq(SqlExpr::col("A", "x"), SqlExpr::col("B", "y"));
        let mut tables = Vec::new();
        e.referenced_tables(&mut tables);
        assert_eq!(tables, vec!["A", "B"]);
    }
}
