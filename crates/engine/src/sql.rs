//! In-memory relational engine interpreting SQIR: the stand-in for the
//! paper's DuckDB and HyPer backends.
//!
//! The engine evaluates a [`SqirQuery`] against a [`Database`]:
//!
//! * CTEs are evaluated in order and materialised;
//! * recursive CTEs follow the SQL standard's semantics: the base branches
//!   seed a working table, the recursive branches see only the previous
//!   iteration's new rows, and `UNION` (distinct) deduplication drives the
//!   iteration to a fixpoint;
//! * two *cost profiles* stand in for the two RDBMS of the paper's Table 1:
//!   [`SqlProfile::Duck`] joins with hash tables on equi-join keys (a
//!   vectorised, analytics-style executor), while [`SqlProfile::Hyper`]
//!   uses tuple-at-a-time nested-loop joins (a compiled, pipeline-style
//!   executor whose low constants win on tiny, selective queries but lose on
//!   large joins). Both produce identical results.
//!
//! Intermediate joined rows are flat vectors of packed [`Cell`]s taken
//! straight from the relations' arenas: hash-join keys, group-by keys and
//! working-table dedup are `u64` word compares against the shared
//! per-database dictionary, and values are decoded only at expression
//! boundaries (predicates, arithmetic, aggregation).
//!
//! Column names are resolved through a [`TableCatalog`] (built from the
//! DL-Schema for base tables; CTE columns come from their declarations).

use std::collections::HashMap;

use raqlet_common::cell::{Cell, ValueDict};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::FxHashMap;
use raqlet_common::schema::DlSchema;
use raqlet_common::{Database, RaqletError, Relation, Result, Value};
use raqlet_sqir::{
    Cte, FromItem, SelectStmt, SqirQuery, SqlAggFunc, SqlArithOp, SqlCmpOp, SqlExpr,
};

/// Execution profile: which join strategy the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqlProfile {
    /// Hash joins on equi-join keys (DuckDB-style analytics executor).
    #[default]
    Duck,
    /// Nested-loop joins (HyPer-style tuple-at-a-time executor).
    Hyper,
}

impl SqlProfile {
    /// Human-readable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            SqlProfile::Duck => "duckdb-sim",
            SqlProfile::Hyper => "hyper-sim",
        }
    }
}

/// Maps table / CTE names to their ordered column names.
#[derive(Debug, Clone, Default)]
pub struct TableCatalog {
    columns: HashMap<String, Vec<String>>,
}

impl TableCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a catalog from a DL-Schema (every declared relation).
    pub fn from_schema(schema: &DlSchema) -> Self {
        let mut catalog = TableCatalog::new();
        for decl in schema.iter() {
            catalog.register(&decl.name, decl.columns.iter().map(|c| c.name.clone()).collect());
        }
        catalog
    }

    /// Register (or replace) a table's column names.
    pub fn register(&mut self, table: &str, columns: Vec<String>) {
        self.columns.insert(table.to_string(), columns);
    }

    /// Column names of a table.
    pub fn columns_of(&self, table: &str) -> Result<&[String]> {
        self.columns.get(table).map(|v| v.as_slice()).ok_or_else(|| {
            RaqletError::execution(format!("no column metadata for table `{table}`"))
        })
    }

    /// Index of a column within a table.
    pub fn column_index(&self, table: &str, column: &str) -> Result<usize> {
        self.columns_of(table)?
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| RaqletError::execution(format!("unknown column `{table}.{column}`")))
    }
}

/// Statistics for a SQL evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SqlStats {
    /// Number of CTEs materialised.
    pub ctes_materialised: usize,
    /// Total fixpoint iterations across recursive CTEs.
    pub recursive_iterations: usize,
    /// Total rows produced across all materialisations (before dedup).
    pub rows_produced: usize,
}

/// Result of executing a SQIR query.
#[derive(Debug, Clone)]
pub struct SqlResult {
    /// The rows of the final SELECT.
    pub rows: Relation,
    /// Output column names.
    pub columns: Vec<String>,
    /// Execution statistics.
    pub stats: SqlStats,
}

/// The SQL engine.
#[derive(Debug, Clone, Default)]
pub struct SqlEngine {
    /// Join strategy profile.
    pub profile: SqlProfile,
}

impl SqlEngine {
    /// A DuckDB-profile engine.
    pub fn duck() -> Self {
        SqlEngine { profile: SqlProfile::Duck }
    }

    /// A HyPer-profile engine.
    pub fn hyper() -> Self {
        SqlEngine { profile: SqlProfile::Hyper }
    }

    /// Execute a SQIR query against the database of base tables.
    pub fn execute(
        &self,
        query: &SqirQuery,
        db: &Database,
        catalog: &TableCatalog,
    ) -> Result<SqlResult> {
        self.execute_guarded(query, db, catalog, &QueryGuard::new())
    }

    /// [`SqlEngine::execute`] under an execution [`QueryGuard`]: the guard is
    /// checked before each CTE materialization and at every recursive-CTE
    /// fixpoint round, so deadlines, budgets and cancellation interrupt a
    /// runaway recursive query between rounds.
    pub fn execute_guarded(
        &self,
        query: &SqirQuery,
        db: &Database,
        catalog: &TableCatalog,
        guard: &QueryGuard,
    ) -> Result<SqlResult> {
        let mut scope = db.clone();
        let mut names = catalog.clone();
        let mut stats = SqlStats::default();
        for cte in &query.ctes {
            guard.checkpoint(CheckPoint::Scc)?;
            names.register(&cte.name, cte.columns.clone());
            let relation = self.evaluate_cte(cte, &scope, &names, &mut stats, guard)?;
            stats.ctes_materialised += 1;
            scope.set(cte.name.clone(), relation);
        }
        let rows = self.evaluate_select(&query.final_select, &scope, &names, None, &mut stats)?;
        Ok(SqlResult { rows, columns: query.final_select.output_columns(), stats })
    }

    fn evaluate_cte(
        &self,
        cte: &Cte,
        scope: &Database,
        names: &TableCatalog,
        stats: &mut SqlStats,
        guard: &QueryGuard,
    ) -> Result<Relation> {
        let arity = cte.columns.len();
        if !cte.recursive {
            let mut all = Relation::with_dict(arity, scope.dict().clone());
            for branch in &cte.branches {
                let rel = self.evaluate_select(branch, scope, names, None, stats)?;
                all.merge(&rel)?;
            }
            return Ok(all);
        }

        // Recursive CTE: base branches seed the working table; recursive
        // branches see only the previous iteration's delta under the CTE's
        // own name (the SQL standard's working-table semantics).
        let mut all = Relation::with_dict(arity, scope.dict().clone());
        for branch in cte.base_branches() {
            let rel = self.evaluate_select(branch, scope, names, None, stats)?;
            all.merge(&rel)?;
        }
        // The base tables of the recursive branches are iteration-invariant:
        // push their single-alias predicates down once, before the loop. The
        // working-table binding itself (whose contents change every round)
        // is deliberately left unfiltered.
        let prefiltered: Vec<Vec<Option<Relation>>> = cte
            .recursive_branches()
            .iter()
            .map(|branch| prefilter_tables(branch, scope, names, Some(&cte.name)))
            .collect::<Result<_>>()?;
        let mut delta = all.clone();
        while !delta.is_empty() {
            guard.checkpoint(CheckPoint::FixpointRound)?;
            if guard.memory_budget().is_some() {
                guard.check_memory(all.heap_bytes())?;
            }
            stats.recursive_iterations += 1;
            let mut derived = Relation::with_dict(arity, scope.dict().clone());
            for (branch, filtered) in cte.recursive_branches().iter().zip(&prefiltered) {
                let rel = self.evaluate_select_with(
                    branch,
                    scope,
                    names,
                    Some((&cte.name, &delta)),
                    filtered,
                    stats,
                )?;
                derived.merge(&rel)?;
            }
            let new = derived.difference(&all);
            guard.add_tuples(new.len());
            all.merge(&new)?;
            delta = new;
        }
        Ok(all)
    }

    /// Evaluate one SELECT. `recursive_binding` substitutes the named table
    /// with the given relation (the recursive CTE's working delta).
    fn evaluate_select(
        &self,
        stmt: &SelectStmt,
        scope: &Database,
        names: &TableCatalog,
        recursive_binding: Option<(&str, &Relation)>,
        stats: &mut SqlStats,
    ) -> Result<Relation> {
        let prefiltered =
            prefilter_tables(stmt, scope, names, recursive_binding.map(|(name, _)| name))?;
        self.evaluate_select_with(stmt, scope, names, recursive_binding, &prefiltered, stats)
    }

    /// [`SqlEngine::evaluate_select`] with the selection pushdown already
    /// computed (recursive CTE loops hoist it out of the working-table
    /// iteration, since the base tables never change between rounds).
    fn evaluate_select_with(
        &self,
        stmt: &SelectStmt,
        scope: &Database,
        names: &TableCatalog,
        recursive_binding: Option<(&str, &Relation)>,
        prefiltered: &[Option<Relation>],
        stats: &mut SqlStats,
    ) -> Result<Relation> {
        // Resolve FROM tables and build the row layout.
        let mut tables: Vec<(&FromItem, &Relation)> = Vec::new();
        for (i, item) in stmt.from.iter().enumerate() {
            let rel: &Relation = match &prefiltered[i] {
                Some(filtered) => filtered,
                None => match recursive_binding {
                    Some((name, delta)) if name == item.table => delta,
                    _ => scope.get(&item.table).ok_or_else(|| {
                        RaqletError::execution(format!("table `{}` not found", item.table))
                    })?,
                },
            };
            tables.push((item, rel));
        }
        // Join in greedy bound-first order rather than FROM order, mirroring
        // the Datalog planner: the recursive working table (the delta, when
        // present) drives the join, and each subsequent table is the one
        // reached through the most equi-join keys from the tables already
        // joined (ties broken towards smaller tables). Inner joins plus the
        // residual re-check make any order produce the same rows; the order
        // only controls how large the intermediate products get.
        let order =
            greedy_join_order(&tables, &stmt.where_conjuncts, recursive_binding.map(|(n, _)| n));
        let tables: Vec<(&FromItem, &Relation)> = order.iter().map(|&i| tables[i]).collect();
        let mut layout = RowLayout::default();
        let mut offset = 0usize;
        for (item, rel) in &tables {
            let columns = names.columns_of(&item.table)?.to_vec();
            if !rel.is_empty() && columns.len() != rel.arity() {
                return Err(RaqletError::execution(format!(
                    "table `{}` has arity {} but catalog lists {} columns",
                    item.table,
                    rel.arity(),
                    columns.len()
                )));
            }
            layout.aliases.push(AliasColumns {
                alias: item.alias.clone(),
                offset,
                columns: columns.clone(),
            });
            offset += columns.len();
        }

        // Join over packed rows.
        let rows = match self.profile {
            SqlProfile::Duck => self.hash_join(&tables, &layout, &stmt.where_conjuncts)?,
            SqlProfile::Hyper => self.nested_loop_join(&tables, &layout, &stmt.where_conjuncts)?,
        };
        stats.rows_produced += rows.len();

        // Residual predicates (everything, including NOT EXISTS — the
        // equi-join keys evaluate to true on joined rows, so re-checking them
        // is harmless).
        let ctx = RowContext { layout: &layout, scope, names, dict: scope.dict() };
        let mut filtered: Vec<Vec<Cell>> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut keep = true;
            for pred in &stmt.where_conjuncts {
                if !ctx.eval_predicate(pred, &row)? {
                    keep = false;
                    break;
                }
            }
            if keep {
                filtered.push(row);
            }
        }

        // Projection / aggregation.
        let mut out = Relation::with_dict(stmt.items.len(), scope.dict().clone());
        if stmt.is_aggregating() {
            let mut groups: FxHashMap<Vec<Cell>, Vec<Vec<Cell>>> = FxHashMap::default();
            for row in filtered {
                let key: Vec<Cell> = stmt
                    .group_by
                    .iter()
                    .map(|g| ctx.eval_cell(g, &row))
                    .collect::<Result<Vec<_>>>()?;
                groups.entry(key).or_default().push(row);
            }
            if groups.is_empty() && stmt.group_by.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            let mut tuple: Vec<Cell> = Vec::with_capacity(stmt.items.len());
            for (_, group_rows) in groups {
                tuple.clear();
                for item in &stmt.items {
                    let value = ctx.eval_aggregate_item(&item.expr, &group_rows)?;
                    tuple.push(ctx.dict.encode_value(&value));
                }
                out.insert_cells(&tuple);
            }
        } else {
            let mut tuple: Vec<Cell> = Vec::with_capacity(stmt.items.len());
            for row in filtered {
                tuple.clear();
                for item in &stmt.items {
                    tuple.push(ctx.eval_cell(&item.expr, &row)?);
                }
                // Raqlet only emits DISTINCT selects; the set-backed Relation
                // deduplicates for us.
                out.insert_cells(&tuple);
            }
        }
        Ok(out)
    }

    /// Hash join: join tables left to right, building a hash table over the
    /// new table's equi-join columns and probing it with the partial rows.
    /// Keys are packed cells — single-key joins index on the bare `u64`.
    fn hash_join(
        &self,
        tables: &[(&FromItem, &Relation)],
        layout: &RowLayout,
        predicates: &[SqlExpr],
    ) -> Result<Vec<Vec<Cell>>> {
        let mut rows: Vec<Vec<Cell>> = vec![Vec::new()];
        for (idx, (item, rel)) in tables.iter().enumerate() {
            let joined: Vec<&str> = tables[..idx].iter().map(|(i, _)| i.alias.as_str()).collect();
            let keys = equi_join_keys(predicates, &joined, &item.alias, layout)?;
            let mut next = Vec::new();
            if keys.is_empty() {
                for row in &rows {
                    for tuple in rel.iter_rows() {
                        let mut r = Vec::with_capacity(row.len() + tuple.len());
                        r.extend_from_slice(row);
                        r.extend_from_slice(tuple);
                        next.push(r);
                    }
                }
            } else if keys.len() == 1 {
                let (left_off, right_col) = keys[0];
                let mut index: FxHashMap<Cell, Vec<&[Cell]>> = FxHashMap::default();
                for tuple in rel.iter_rows() {
                    index.entry(tuple[right_col]).or_default().push(tuple);
                }
                for row in &rows {
                    if let Some(matches) = index.get(&row[left_off]) {
                        for tuple in matches {
                            let mut r = Vec::with_capacity(row.len() + tuple.len());
                            r.extend_from_slice(row);
                            r.extend_from_slice(tuple);
                            next.push(r);
                        }
                    }
                }
            } else {
                let mut index: FxHashMap<Vec<Cell>, Vec<&[Cell]>> = FxHashMap::default();
                for tuple in rel.iter_rows() {
                    let key: Vec<Cell> =
                        keys.iter().map(|(_, right_col)| tuple[*right_col]).collect();
                    index.entry(key).or_default().push(tuple);
                }
                let mut key: Vec<Cell> = Vec::with_capacity(keys.len());
                for row in &rows {
                    key.clear();
                    key.extend(keys.iter().map(|(left_off, _)| row[*left_off]));
                    if let Some(matches) = index.get(key.as_slice()) {
                        for tuple in matches {
                            let mut r = Vec::with_capacity(row.len() + tuple.len());
                            r.extend_from_slice(row);
                            r.extend_from_slice(tuple);
                            next.push(r);
                        }
                    }
                }
            }
            rows = next;
        }
        Ok(rows)
    }

    /// Nested-loop join: every new table is scanned per partial row, checking
    /// the applicable equi-join predicates pair by pair (cell compares).
    fn nested_loop_join(
        &self,
        tables: &[(&FromItem, &Relation)],
        layout: &RowLayout,
        predicates: &[SqlExpr],
    ) -> Result<Vec<Vec<Cell>>> {
        let mut rows: Vec<Vec<Cell>> = vec![Vec::new()];
        for (idx, (item, rel)) in tables.iter().enumerate() {
            let joined: Vec<&str> = tables[..idx].iter().map(|(i, _)| i.alias.as_str()).collect();
            let keys = equi_join_keys(predicates, &joined, &item.alias, layout)?;
            let mut next = Vec::new();
            for row in &rows {
                for tuple in rel.iter_rows() {
                    let ok = keys
                        .iter()
                        .all(|(left_off, right_col)| row[*left_off] == tuple[*right_col]);
                    if ok {
                        let mut r = Vec::with_capacity(row.len() + tuple.len());
                        r.extend_from_slice(row);
                        r.extend_from_slice(tuple);
                        next.push(r);
                    }
                }
            }
            rows = next;
        }
        Ok(rows)
    }
}

/// Column layout of a joined row.
#[derive(Debug, Clone, Default)]
struct RowLayout {
    aliases: Vec<AliasColumns>,
}

#[derive(Debug, Clone)]
struct AliasColumns {
    alias: String,
    offset: usize,
    columns: Vec<String>,
}

impl RowLayout {
    /// Offset of `alias.column` within a fully joined row.
    fn offset_of(&self, alias: &str, column: &str) -> Result<usize> {
        let a = self
            .aliases
            .iter()
            .find(|a| a.alias == alias)
            .ok_or_else(|| RaqletError::execution(format!("unknown table alias `{alias}`")))?;
        let idx =
            a.columns.iter().position(|c| c == column).ok_or_else(|| {
                RaqletError::execution(format!("unknown column `{alias}.{column}`"))
            })?;
        Ok(a.offset + idx)
    }

    /// Index of `column` within the alias's own tuple.
    fn local_index(&self, alias: &str, column: &str) -> Result<usize> {
        let a = self
            .aliases
            .iter()
            .find(|a| a.alias == alias)
            .ok_or_else(|| RaqletError::execution(format!("unknown table alias `{alias}`")))?;
        a.columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| RaqletError::execution(format!("unknown column `{alias}.{column}`")))
    }
}

/// Selection pushdown: filter each FROM table by the predicates that
/// reference only its alias *before* joining. Without this, literal filters
/// like `R.id = 42` (which carry no equi-join key) only run after the full
/// join materialises — the optimizer's constant propagation would make
/// queries slower on this engine, not faster (the original CQ2 pathology).
/// Returns one entry per FROM item; `None` means the
/// table has no pushable predicate (or is the iteration-variant recursive
/// working table named by `skip_table`) and should be read as-is.
fn prefilter_tables(
    stmt: &SelectStmt,
    scope: &Database,
    names: &TableCatalog,
    skip_table: Option<&str>,
) -> Result<Vec<Option<Relation>>> {
    let mut prefiltered: Vec<Option<Relation>> = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        if skip_table == Some(item.table.as_str()) {
            prefiltered.push(None);
            continue;
        }
        let single: Vec<&SqlExpr> =
            stmt.where_conjuncts.iter().filter(|p| references_only_alias(p, &item.alias)).collect();
        if single.is_empty() {
            prefiltered.push(None);
            continue;
        }
        let rel = scope
            .get(&item.table)
            .ok_or_else(|| RaqletError::execution(format!("table `{}` not found", item.table)))?;
        let layout = RowLayout {
            aliases: vec![AliasColumns {
                alias: item.alias.clone(),
                offset: 0,
                columns: names.columns_of(&item.table)?.to_vec(),
            }],
        };
        let ctx = RowContext { layout: &layout, scope, names, dict: scope.dict() };
        let mut kept = Relation::with_dict(rel.arity(), scope.dict().clone());
        'rows: for tuple in rel.iter_rows() {
            for pred in &single {
                if !ctx.eval_predicate(pred, tuple)? {
                    continue 'rows;
                }
            }
            kept.insert_cells(tuple);
        }
        prefiltered.push(Some(kept));
    }
    Ok(prefiltered)
}

/// True if the predicate can be evaluated against a single table alias: all
/// column references belong to `alias` and the expression has no subquery or
/// aggregate parts. Such predicates are safe to push below the join.
fn references_only_alias(expr: &SqlExpr, alias: &str) -> bool {
    match expr {
        SqlExpr::Column { table, .. } => table == alias,
        SqlExpr::Literal(_) => true,
        SqlExpr::Cmp { lhs, rhs, .. } | SqlExpr::Arith { lhs, rhs, .. } => {
            references_only_alias(lhs, alias) && references_only_alias(rhs, alias)
        }
        SqlExpr::Aggregate { .. } | SqlExpr::NotExists { .. } => false,
    }
}

/// Pick the order in which FROM tables are joined: the recursive working
/// table first when present (it plays the role of the Datalog delta — small
/// and shrinking towards the fixpoint), then greedily the table connected to
/// the already-joined set by the most equi-join predicates, with ties broken
/// towards smaller tables and then FROM position. Returns indexes into
/// `tables`.
fn greedy_join_order(
    tables: &[(&FromItem, &Relation)],
    predicates: &[SqlExpr],
    recursive_table: Option<&str>,
) -> Vec<usize> {
    if tables.len() <= 1 {
        return (0..tables.len()).collect();
    }
    let mut order: Vec<usize> = Vec::with_capacity(tables.len());
    let mut remaining: Vec<usize> = (0..tables.len()).collect();
    if let Some(name) = recursive_table {
        if let Some(p) = remaining.iter().position(|&i| tables[i].0.table == name) {
            order.push(remaining.remove(p));
        }
    }
    while !remaining.is_empty() {
        let joined: Vec<&str> = order.iter().map(|&i| tables[i].0.alias.as_str()).collect();
        // The loop guard proves `remaining` non-empty, so a maximum exists.
        #[allow(clippy::expect_used)]
        let best = remaining
            .iter()
            .enumerate()
            .map(|(pos, &idx)| {
                let alias = tables[idx].0.alias.as_str();
                let keys = connecting_key_count(predicates, &joined, alias);
                let size = tables[idx].1.len();
                (pos, (keys as i64, -(size as i64), -(idx as i64)))
            })
            .max_by_key(|(_, score)| *score)
            .map(|(pos, _)| pos)
            .expect("remaining is non-empty");
        order.push(remaining.remove(best));
    }
    order
}

/// Number of `a.x = b.y` predicates connecting the already-joined aliases to
/// `new_alias` (the hash/nested-loop joins will use exactly these as keys).
fn connecting_key_count(predicates: &[SqlExpr], joined: &[&str], new_alias: &str) -> usize {
    predicates
        .iter()
        .filter(|pred| {
            let SqlExpr::Cmp { op: SqlCmpOp::Eq, lhs, rhs } = pred else { return false };
            let (SqlExpr::Column { table: t1, .. }, SqlExpr::Column { table: t2, .. }) =
                (lhs.as_ref(), rhs.as_ref())
            else {
                return false;
            };
            (joined.contains(&t1.as_str()) && t2 == new_alias)
                || (joined.contains(&t2.as_str()) && t1 == new_alias)
        })
        .count()
}

/// Extract equi-join keys `(left row offset, right local column index)`
/// between the already-joined aliases and the alias being added.
fn equi_join_keys(
    predicates: &[SqlExpr],
    joined: &[&str],
    new_alias: &str,
    layout: &RowLayout,
) -> Result<Vec<(usize, usize)>> {
    let mut keys = Vec::new();
    for pred in predicates {
        let SqlExpr::Cmp { op: SqlCmpOp::Eq, lhs, rhs } = pred else { continue };
        let (SqlExpr::Column { table: t1, column: c1 }, SqlExpr::Column { table: t2, column: c2 }) =
            (lhs.as_ref(), rhs.as_ref())
        else {
            continue;
        };
        let (left, right) = if joined.contains(&t1.as_str()) && t2 == new_alias {
            ((t1, c1), (t2, c2))
        } else if joined.contains(&t2.as_str()) && t1 == new_alias {
            ((t2, c2), (t1, c1))
        } else {
            continue;
        };
        keys.push((layout.offset_of(left.0, left.1)?, layout.local_index(right.0, right.1)?));
    }
    Ok(keys)
}

/// Evaluation context for one SELECT: the joined-row layout plus the shared
/// dictionary cells are decoded through at expression boundaries.
struct RowContext<'a> {
    layout: &'a RowLayout,
    scope: &'a Database,
    names: &'a TableCatalog,
    dict: &'a ValueDict,
}

impl<'a> RowContext<'a> {
    fn eval_predicate(&self, expr: &SqlExpr, row: &[Cell]) -> Result<bool> {
        match expr {
            SqlExpr::NotExists { table, alias, conditions } => {
                let Some(rel) = self.scope.get(table) else { return Ok(true) };
                'tuples: for tuple in rel.iter_rows() {
                    for cond in conditions {
                        if !self.eval_with_candidate(cond, row, table, alias, tuple)? {
                            continue 'tuples;
                        }
                    }
                    return Ok(false);
                }
                Ok(true)
            }
            other => Ok(self.eval_scalar(other, row)?.is_truthy()),
        }
    }

    /// Evaluate a NOT EXISTS condition where references to `candidate_alias`
    /// read from `candidate`.
    fn eval_with_candidate(
        &self,
        expr: &SqlExpr,
        row: &[Cell],
        candidate_table: &str,
        candidate_alias: &str,
        candidate: &[Cell],
    ) -> Result<bool> {
        let v =
            self.eval_scalar_with(expr, row, Some((candidate_table, candidate_alias, candidate)))?;
        Ok(v.is_truthy())
    }

    fn eval_scalar(&self, expr: &SqlExpr, row: &[Cell]) -> Result<Value> {
        self.eval_scalar_with(expr, row, None)
    }

    /// Evaluate an expression straight to a packed cell: bare column
    /// references copy the cell (the projection fast path); everything else
    /// evaluates at the value level and encodes the result.
    fn eval_cell(&self, expr: &SqlExpr, row: &[Cell]) -> Result<Cell> {
        match expr {
            SqlExpr::Column { table, column } => {
                let offset = self.layout.offset_of(table, column)?;
                Ok(row.get(offset).copied().unwrap_or(raqlet_common::cell::NULL_CELL))
            }
            other => Ok(self.dict.encode_value(&self.eval_scalar(other, row)?)),
        }
    }

    fn eval_scalar_with(
        &self,
        expr: &SqlExpr,
        row: &[Cell],
        candidate: Option<(&str, &str, &[Cell])>,
    ) -> Result<Value> {
        match expr {
            SqlExpr::Column { table, column } => {
                if let Some((cand_table, cand_alias, tuple)) = candidate {
                    if table == cand_alias {
                        let idx = self.names.column_index(cand_table, column)?;
                        return Ok(tuple
                            .get(idx)
                            .map(|&c| self.dict.decode(c))
                            .unwrap_or(Value::Null));
                    }
                }
                let offset = self.layout.offset_of(table, column)?;
                Ok(row.get(offset).map(|&c| self.dict.decode(c)).unwrap_or(Value::Null))
            }
            SqlExpr::Literal(v) => Ok(v.clone()),
            SqlExpr::Cmp { op, lhs, rhs } => {
                let l = self.eval_scalar_with(lhs, row, candidate)?;
                let r = self.eval_scalar_with(rhs, row, candidate)?;
                Ok(Value::Bool(eval_cmp(*op, &l, &r)))
            }
            SqlExpr::Arith { op, lhs, rhs } => {
                let l = self.eval_scalar_with(lhs, row, candidate)?;
                let r = self.eval_scalar_with(rhs, row, candidate)?;
                eval_arith(*op, &l, &r)
            }
            SqlExpr::Aggregate { .. } => Err(RaqletError::execution(
                "aggregate expression evaluated outside GROUP BY context",
            )),
            SqlExpr::NotExists { .. } => {
                Err(RaqletError::execution("NOT EXISTS evaluated as a scalar expression"))
            }
        }
    }

    fn eval_aggregate_item(&self, expr: &SqlExpr, group_rows: &[Vec<Cell>]) -> Result<Value> {
        match expr {
            SqlExpr::Aggregate { func, distinct, arg } => {
                let mut values: Vec<Value> = match arg {
                    Some(a) => group_rows
                        .iter()
                        .map(|row| self.eval_scalar(a, row))
                        .collect::<Result<Vec<_>>>()?,
                    None => group_rows.iter().map(|_| Value::Int(1)).collect(),
                };
                if *distinct {
                    values.sort();
                    values.dedup();
                }
                Ok(match func {
                    SqlAggFunc::Count => Value::Int(values.len() as i64),
                    SqlAggFunc::Sum => {
                        Value::Int(values.iter().filter_map(|v| v.as_int()).sum::<i64>())
                    }
                    SqlAggFunc::Min => values.iter().min().cloned().unwrap_or(Value::Null),
                    SqlAggFunc::Max => values.iter().max().cloned().unwrap_or(Value::Null),
                    SqlAggFunc::Avg => {
                        let ints: Vec<i64> = values.iter().filter_map(|v| v.as_int()).collect();
                        if ints.is_empty() {
                            Value::Null
                        } else {
                            Value::Int(ints.iter().sum::<i64>() / ints.len() as i64)
                        }
                    }
                })
            }
            // Non-aggregate items inside a GROUP BY are group keys: all rows
            // of the group agree, so read from the first.
            other => match group_rows.first() {
                Some(row) => self.eval_scalar(other, row),
                None => Ok(Value::Null),
            },
        }
    }
}

fn eval_cmp(op: SqlCmpOp, l: &Value, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    match op {
        SqlCmpOp::Eq => l == r,
        SqlCmpOp::Neq => l != r,
        SqlCmpOp::Lt => l < r,
        SqlCmpOp::Le => l <= r,
        SqlCmpOp::Gt => l > r,
        SqlCmpOp::Ge => l >= r,
    }
}

fn eval_arith(op: SqlArithOp, l: &Value, r: &Value) -> Result<Value> {
    let (a, b) = match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(Value::Null),
    };
    Ok(match op {
        SqlArithOp::Add => Value::Int(a + b),
        SqlArithOp::Sub => Value::Int(a - b),
        SqlArithOp::Mul => Value::Int(a * b),
        SqlArithOp::Div => {
            if b == 0 {
                Value::Null
            } else {
                Value::Int(a / b)
            }
        }
        SqlArithOp::Mod => {
            if b == 0 {
                Value::Null
            } else {
                Value::Int(a % b)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::schema::{Column, RelationDecl, RelationKind};
    use raqlet_common::ValueType;
    use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, Rule};
    use raqlet_sqir::{lower_to_sqir, SqlLowerOptions};

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn edge_program() -> DlirProgram {
        let mut schema = DlSchema::new();
        schema
            .add(RelationDecl::new(
                "edge",
                vec![Column::new("src", ValueType::Int), Column::new("dst", ValueType::Int)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        DlirProgram::new(schema)
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_fact("edge", vec![Value::Int(i), Value::Int(i + 1)]).unwrap();
        }
        db
    }

    fn run(program: &DlirProgram, output: &str, db: &Database, profile: SqlProfile) -> Relation {
        let sqir = lower_to_sqir(program, output, &SqlLowerOptions::default()).unwrap();
        let catalog = TableCatalog::from_schema(&program.schema);
        let engine = SqlEngine { profile };
        engine.execute(&sqir, db, &catalog).unwrap().rows
    }

    #[test]
    fn recursive_cte_computes_transitive_closure() {
        let mut p = edge_program();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let rows = run(&p, "tc", &chain_db(5), SqlProfile::Duck);
        assert_eq!(rows.len(), 15);
    }

    #[test]
    fn duck_and_hyper_profiles_agree() {
        let mut p = edge_program();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let db = chain_db(7);
        assert_eq!(run(&p, "tc", &db, SqlProfile::Duck), run(&p, "tc", &db, SqlProfile::Hyper));
    }

    #[test]
    fn joins_constants_and_filters() {
        // q(c) :- edge(1, b), edge(b, c).
        let mut p = edge_program();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["c"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "edge",
                    vec![raqlet_dlir::Term::int(1), raqlet_dlir::Term::var("b")],
                )),
                atom("edge", &["b", "c"]),
            ],
        ));
        p.add_output("q");
        let rows = run(&p, "q", &chain_db(5), SqlProfile::Duck);
        assert_eq!(rows.sorted(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn cte_chains_pass_results_downstream() {
        // V1 = edge; Return(x) :- V1(x, y), y = 3.
        let mut p = edge_program();
        p.add_rule(Rule::new(Atom::with_vars("V1", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("Return", &["x"]),
            vec![atom("V1", &["x", "y"]), BodyElem::eq(DlExpr::var("y"), DlExpr::int(3))],
        ));
        p.add_output("Return");
        let rows = run(&p, "Return", &chain_db(5), SqlProfile::Hyper);
        assert_eq!(rows.sorted(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn group_by_aggregation() {
        use raqlet_dlir::{AggFunc, Aggregation};
        let mut p = edge_program();
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
        let mut db = Database::new();
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let rows = run(&p, "deg", &db, SqlProfile::Duck);
        assert!(rows.contains(&[Value::Int(1), Value::Int(2)]));
        assert!(rows.contains(&[Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn not_exists_implements_negation() {
        // sink(x) :- edge(_, x), !edge(x, _): nodes with no outgoing edge.
        let mut p = edge_program();
        p.add_rule(Rule::new(
            Atom::with_vars("sink", &["x"]),
            vec![
                BodyElem::Atom(Atom::new(
                    "edge",
                    vec![raqlet_dlir::Term::Wildcard, raqlet_dlir::Term::var("x")],
                )),
                BodyElem::Negated(Atom::new(
                    "edge",
                    vec![raqlet_dlir::Term::var("x"), raqlet_dlir::Term::Wildcard],
                )),
            ],
        ));
        p.add_output("sink");
        let rows = run(&p, "sink", &chain_db(4), SqlProfile::Duck);
        assert_eq!(rows.sorted(), vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn sql_engine_matches_datalog_engine_on_tc() {
        let mut p = edge_program();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let db = chain_db(6);
        let sql_rows = run(&p, "tc", &db, SqlProfile::Duck);
        let dl_rows = crate::datalog::DatalogEngine::new().run_output(&p, &db, "tc").unwrap();
        assert_eq!(sql_rows, dl_rows);
    }

    #[test]
    fn string_columns_join_through_the_dictionary() {
        let mut schema = DlSchema::new();
        schema
            .add(RelationDecl::new(
                "person",
                vec![Column::new("name", ValueType::Text), Column::new("city", ValueType::Text)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        schema
            .add(RelationDecl::new(
                "lives",
                vec![Column::new("city", ValueType::Text), Column::new("country", ValueType::Text)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        let mut p = DlirProgram::new(schema);
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["n", "c"]),
            vec![atom("person", &["n", "t"]), atom("lives", &["t", "c"])],
        ));
        p.add_output("q");
        let mut db = Database::new();
        db.insert_fact("person", vec![Value::str("Ada"), Value::str("Edinburgh")]).unwrap();
        db.insert_fact("person", vec![Value::str("Bob"), Value::str("Glasgow")]).unwrap();
        db.insert_fact("lives", vec![Value::str("Edinburgh"), Value::str("Scotland")]).unwrap();
        let rows = run(&p, "q", &db, SqlProfile::Duck);
        assert_eq!(rows.sorted(), vec![vec![Value::str("Ada"), Value::str("Scotland")]]);
        assert_eq!(run(&p, "q", &db, SqlProfile::Hyper), rows);
    }

    #[test]
    fn greedy_join_order_prefers_the_delta_then_connected_tables() {
        let items: Vec<FromItem> = [("work", "t0"), ("big", "t1"), ("small", "t2")]
            .iter()
            .map(|(t, a)| FromItem { table: t.to_string(), alias: a.to_string() })
            .collect();
        let work = Relation::from_tuples(1, vec![vec![Value::Int(1)]]).unwrap();
        let big =
            Relation::from_tuples(1, (0..100).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>())
                .unwrap();
        let small =
            Relation::from_tuples(1, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        let tables: Vec<(&FromItem, &Relation)> =
            vec![(&items[0], &work), (&items[1], &big), (&items[2], &small)];
        let col = |t: &str, c: &str| SqlExpr::Column { table: t.into(), column: c.into() };
        // work joins small; small joins big. FROM order would join work×big
        // first (a cross product).
        let predicates = vec![
            SqlExpr::Cmp {
                op: SqlCmpOp::Eq,
                lhs: Box::new(col("t0", "x")),
                rhs: Box::new(col("t2", "x")),
            },
            SqlExpr::Cmp {
                op: SqlCmpOp::Eq,
                lhs: Box::new(col("t2", "x")),
                rhs: Box::new(col("t1", "x")),
            },
        ];
        // The recursive working table drives; then the connected small table;
        // the big table comes last even though FROM lists it second.
        assert_eq!(greedy_join_order(&tables, &predicates, Some("work")), vec![0, 2, 1]);
        // Without a recursive binding the first pick is the smallest table
        // (no connections yet), then greedily the connected ones.
        assert_eq!(greedy_join_order(&tables, &predicates, None), vec![0, 2, 1]);
    }

    #[test]
    fn missing_table_is_reported() {
        let mut p = edge_program();
        p.schema
            .add(RelationDecl::new(
                "mystery",
                vec![Column::new("x", ValueType::Int)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("mystery", &["x"])]));
        p.add_output("q");
        let sqir = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let catalog = TableCatalog::from_schema(&p.schema);
        // The schema declares `mystery`, but the database never loaded it.
        let err = SqlEngine::duck().execute(&sqir, &Database::new(), &catalog).unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn stats_count_ctes_and_iterations() {
        let mut p = edge_program();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        let sqir = lower_to_sqir(&p, "tc", &SqlLowerOptions::default()).unwrap();
        let catalog = TableCatalog::from_schema(&p.schema);
        let result = SqlEngine::duck().execute(&sqir, &chain_db(5), &catalog).unwrap();
        assert_eq!(result.stats.ctes_materialised, 1);
        assert!(result.stats.recursive_iterations >= 4);
        assert_eq!(result.columns, vec!["x", "y"]);
    }
}
