//! In-memory relational engine interpreting SQIR: the stand-in for the
//! paper's DuckDB and HyPer backends.
//!
//! The engine evaluates a [`SqirQuery`] against a [`Database`]:
//!
//! * CTEs are evaluated in order and materialised;
//! * every SELECT is planned once, before any row is read: each FROM item
//!   is resolved to its source (with the WHERE conjuncts that read only its
//!   alias pushed below the join), the items are put in greedy bound-first
//!   order and laid out in one joined row, and each join step gets its
//!   equi-join keys;
//! * one join loop runs every plan, extending partial rows in one packed
//!   buffer, and then re-checks every WHERE conjunct on the joined rows (so
//!   SQL's `NULL = NULL` is never true, although two packed NULL keys
//!   compare equal);
//! * recursive CTEs follow the SQL standard's semantics: the base branches
//!   seed the CTE's relation, and each recursive branch, planned once before
//!   the first round, reads the working table (the rows the previous round
//!   added) under the CTE's own name. A round stages what its branches
//!   select into the CTE's relation, and the relation's `advance` publishes
//!   the rows that are new as the next working table, until a round adds
//!   none;
//! * two *cost profiles* stand in for the two RDBMS of the paper's Table 1
//!   and differ only in how a keyed join step finds its candidate rows:
//!   [`SqlProfile::Duck`] probes a persistent hash index on the step's key
//!   columns, built at plan time (a vectorised, analytics-style executor),
//!   while [`SqlProfile::Hyper`] scans every row and compares cells (a
//!   compiled, tuple-at-a-time executor whose low constants win on tiny,
//!   selective queries but lose on large joins). Both produce identical
//!   results and identical [`SqlStats`].
//!
//! Joined rows are packed [`Cell`]s copied straight from the relations'
//! arenas: join keys, group-by keys and working-table dedup are `u64` word
//! compares against the shared per-database dictionary, and values are
//! decoded only at expression boundaries (predicates, arithmetic,
//! aggregation).
//!
//! Column names are resolved through a [`TableCatalog`] (built from the
//! DL-Schema for base tables; CTE columns come from their declarations).

use std::collections::HashMap;

use raqlet_common::cell::{is_tombstone, Cell, ValueDict, NULL_CELL};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::{FxHashMap, FxHashSet};
use raqlet_common::ops::CmpOp;
use raqlet_common::schema::DlSchema;
use raqlet_common::{Database, RaqletError, Relation, Result, Value};
use raqlet_sqir::{Cte, DepthBound, FromItem, SelectStmt, SqirQuery, SqlExpr};

/// Execution profile: how a keyed join step finds its candidate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqlProfile {
    /// Probe a hash index on the equi-join keys (DuckDB-style analytics
    /// executor).
    #[default]
    Duck,
    /// Scan and compare (HyPer-style tuple-at-a-time executor).
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
            let relation = self.evaluate_cte(cte, &mut scope, &names, &mut stats, guard)?;
            stats.ctes_materialised += 1;
            scope.set(cte.name.clone(), relation);
        }
        let stmt = &query.final_select;
        let plan = SelectPlan::new(stmt, &mut scope, &names, None, self.profile)?;
        let joined = plan.join(&scope, &names, None, &mut stats)?;
        let mut rows = Relation::with_dict(stmt.items.len(), scope.dict().clone());
        plan.project(&joined, &scope, &names, |tuple| {
            rows.insert_cells(tuple);
        })?;
        Ok(SqlResult { rows, columns: stmt.output_columns(), stats })
    }

    /// Materialise one CTE. A recursive CTE's base branches seed its
    /// relation; each round then runs every recursive branch against the
    /// working table (the relation's delta), stages what the branches
    /// select, and [`Relation::advance`] publishes the rows that are new as
    /// the next working table.
    fn evaluate_cte(
        &self,
        cte: &Cte,
        scope: &mut Database,
        names: &TableCatalog,
        stats: &mut SqlStats,
        guard: &QueryGuard,
    ) -> Result<Relation> {
        let (base, recursive) = if cte.recursive {
            (cte.base_branches(), cte.recursive_branches())
        } else {
            (cte.branches.iter().collect(), Vec::new())
        };
        let mut all = Relation::with_dict(cte.columns.len(), scope.dict().clone());
        for branch in base {
            let plan = SelectPlan::new(branch, scope, names, Some(cte), self.profile)?;
            let joined = plan.join(scope, names, None, stats)?;
            plan.project(&joined, scope, names, |tuple| {
                all.insert_cells(tuple);
            })?;
        }
        if !cte.recursive {
            return Ok(all);
        }

        // The recursive branches are planned once: the base tables, their
        // pushed-down filters, the join order and the keys are the same
        // every round; only the working table changes. A lattice helper's
        // branches are planned without their depth-bound conjunct, which
        // `DepthCut` applies to the projected rows instead.
        let unbounded: Vec<SelectStmt>;
        let recursive = match cte.depth_bound {
            Some(bound) => {
                unbounded = recursive.iter().map(|&branch| bound.strip(branch)).collect();
                unbounded.iter().collect()
            }
            None => recursive,
        };
        let plans: Vec<SelectPlan> = recursive
            .into_iter()
            .map(|branch| SelectPlan::new(branch, scope, names, Some(cte), self.profile))
            .collect::<Result<_>>()?;
        let mut cut = cte.depth_bound.map(DepthCut::new);
        all.seed_delta_from_full();
        while !all.delta_is_empty() {
            guard.checkpoint(CheckPoint::FixpointRound)?;
            if guard.memory_budget().is_some() {
                guard.check_memory(all.heap_bytes())?;
            }
            stats.recursive_iterations += 1;
            for plan in &plans {
                let joined = plan.join(scope, names, Some(&all), stats)?;
                plan.project(&joined, scope, names, |tuple| match &mut cut {
                    Some(cut) if !cut.admits(tuple, scope.dict()) => cut.record(tuple),
                    _ => {
                        all.stage_cells(tuple);
                    }
                })?;
            }
            guard.add_tuples(all.advance());
        }
        match cut {
            Some(cut) => cut.check(cte, &all).map(|()| all),
            None => Ok(all),
        }
    }
}

/// The depth bound of a lattice helper CTE, applied to projected rows. A
/// row past the bound is the next round's, one past the cut: it is not
/// stored, but its group (every column except the length) is remembered.
/// When the fixpoint ends, a remembered group the stored rows never reached
/// means the `MIN` fold would silently miss it, and the CTE is refused.
struct DepthCut {
    bound: DepthBound,
    /// The groups of rows past the bound.
    past: FxHashSet<Vec<Cell>>,
}

impl DepthCut {
    fn new(bound: DepthBound) -> Self {
        DepthCut { bound, past: FxHashSet::default() }
    }

    /// The bound conjunct on the projected row: its length `<= max_depth`.
    fn admits(&self, tuple: &[Cell], dict: &ValueDict) -> bool {
        let length = dict.decode(tuple[self.bound.column]);
        CmpOp::Le.eval(&length, &Value::Int(self.bound.max_depth)) == Some(true)
    }

    fn group(&self, row: &[Cell]) -> Vec<Cell> {
        let column = self.bound.column;
        row.iter().enumerate().filter(|&(i, _)| i != column).map(|(_, &c)| c).collect()
    }

    fn record(&mut self, tuple: &[Cell]) {
        let group = self.group(tuple);
        self.past.insert(group);
    }

    fn check(&self, cte: &Cte, all: &Relation) -> Result<()> {
        if self.past.is_empty() {
            return Ok(());
        }
        let reached: FxHashSet<Vec<Cell>> = all
            .full_cells()
            .chunks_exact(all.stride())
            .filter(|row| !is_tombstone(row[0]))
            .map(|row| self.group(&row[..all.arity()]))
            .collect();
        if self.past.iter().all(|group| reached.contains(group)) {
            return Ok(());
        }
        Err(RaqletError::RecursionDepthExceeded {
            cte: cte.name.clone(),
            max_depth: self.bound.max_depth,
        })
    }
}

/// Where a join step reads its rows from.
enum Source {
    /// A base table or earlier CTE, read from the scope as stored.
    Scope(String),
    /// A scope table with the WHERE conjuncts that read only its alias
    /// applied at plan time. Without this pushdown, literal filters like
    /// `R.id = 42` (which carry no equi-join key) would only run after the
    /// full join — the optimizer's constant propagation would make queries
    /// slower on this engine, not faster (the original CQ2 pathology).
    Filtered(Box<Relation>),
    /// The recursive CTE's working table. It changes every round, so it is
    /// never pre-filtered; the residual re-check filters its rows.
    Working,
}

impl Source {
    /// The stored relation; `None` for the working table.
    fn relation<'a>(&'a self, scope: &'a Database) -> Option<&'a Relation> {
        match self {
            Source::Scope(table) => scope.get(table),
            Source::Filtered(rel) => Some(rel.as_ref()),
            Source::Working => None,
        }
    }
}

/// One FROM item, in join order.
struct Step {
    source: Source,
    /// Equi-join keys to the items joined before it: `(offset in the joined
    /// row, column of this item)`.
    keys: Vec<(usize, usize)>,
    /// The right halves of `keys`: the columns of the index Duck probes.
    columns: Vec<usize>,
}

/// One SELECT, planned once before any row is read: the FROM items as
/// [`Step`]s in join order, the joined-row layout, and the profile that
/// picks how keyed steps find their candidates.
struct SelectPlan<'s> {
    stmt: &'s SelectStmt,
    /// Parallel to `layout.aliases`.
    steps: Vec<Step>,
    layout: RowLayout,
    /// Cells in a joined row (the sum of the FROM items' arities).
    width: usize,
    profile: SqlProfile,
}

impl<'s> SelectPlan<'s> {
    /// Plan `stmt`, the final SELECT or a UNION branch of `cte`. A branch
    /// must select exactly its CTE's columns, and a recursive CTE's own name
    /// reads its working table. On [`SqlProfile::Duck`], every keyed step
    /// over a stored relation gets its persistent index here, once.
    fn new(
        stmt: &'s SelectStmt,
        scope: &mut Database,
        names: &TableCatalog,
        cte: Option<&Cte>,
        profile: SqlProfile,
    ) -> Result<Self> {
        if let Some(cte) = cte.filter(|cte| cte.columns.len() != stmt.items.len()) {
            return Err(RaqletError::execution(format!(
                "a branch of CTE `{}` selects {} columns, but the CTE declares {}",
                cte.name,
                stmt.items.len(),
                cte.columns.len()
            )));
        }
        let working = cte.filter(|cte| cte.recursive).map(|cte| cte.name.as_str());
        let mut from: Vec<(&FromItem, Source)> = Vec::with_capacity(stmt.from.len());
        for item in &stmt.from {
            let source = match working {
                Some(name) if name == item.table => Source::Working,
                _ => pushdown(stmt, item, scope, names)?,
            };
            from.push((item, source));
        }
        // Join in greedy bound-first order rather than FROM order, mirroring
        // the Datalog planner: the working table (the delta, when present)
        // drives the join, and each subsequent table is the one reached
        // through the most equi-join keys from the tables already joined
        // (ties broken towards smaller tables). Inner joins plus the residual
        // re-check make any order produce the same rows; the order only
        // controls how large the intermediate products get.
        let sizes: Vec<(&FromItem, usize)> = from
            .iter()
            .map(|(item, source)| (*item, source.relation(scope).map_or(0, Relation::len)))
            .collect();
        let order = greedy_join_order(&sizes, &stmt.where_conjuncts, working);
        let mut ordered: Vec<(usize, (&FromItem, Source))> = from.into_iter().enumerate().collect();
        ordered.sort_by_key(|(i, _)| order.iter().position(|o| o == i));

        let mut layout = RowLayout::default();
        let mut width = 0usize;
        for (_, (item, source)) in &ordered {
            let columns = names.columns_of(&item.table)?.to_vec();
            if let Some(rel) = source.relation(scope) {
                if !rel.is_empty() && columns.len() != rel.arity() {
                    return Err(RaqletError::execution(format!(
                        "table `{}` has arity {} but catalog lists {} columns",
                        item.table,
                        rel.arity(),
                        columns.len()
                    )));
                }
            }
            let arity = columns.len();
            layout.aliases.push(AliasColumns { alias: item.alias.clone(), offset: width, columns });
            width += arity;
        }

        let mut steps = Vec::with_capacity(ordered.len());
        for (idx, (_, (item, mut source))) in ordered.into_iter().enumerate() {
            let joined: Vec<&str> =
                layout.aliases[..idx].iter().map(|a| a.alias.as_str()).collect();
            let keys = equi_join_keys(&stmt.where_conjuncts, &joined, &item.alias, &layout)?;
            let columns: Vec<usize> = keys.iter().map(|&(_, column)| column).collect();
            if profile == SqlProfile::Duck && !columns.is_empty() {
                match &mut source {
                    Source::Scope(table) => {
                        if let Some(rel) = scope.get_mut(table) {
                            rel.ensure_index(&columns);
                        }
                    }
                    Source::Filtered(rel) => rel.ensure_index(&columns),
                    Source::Working => {}
                }
            }
            steps.push(Step { source, keys, columns });
        }
        Ok(SelectPlan { stmt, steps, layout, width, profile })
    }

    fn context<'a>(&'a self, scope: &'a Database, names: &'a TableCatalog) -> RowContext<'a> {
        RowContext { layout: &self.layout, scope, names, dict: scope.dict() }
    }

    /// The one join loop: extend partial rows step by step in one packed
    /// buffer (`max(width, 1)` cells a row, so a zero-width row still
    /// counts), then keep the joined rows every WHERE conjunct accepts.
    /// `working` is the recursive CTE's relation; its delta is the working
    /// table.
    fn join(
        &self,
        scope: &Database,
        names: &TableCatalog,
        working: Option<&Relation>,
        stats: &mut SqlStats,
    ) -> Result<Vec<Cell>> {
        let stride = self.width.max(1);
        let mut rows: Vec<Cell> = vec![NULL_CELL; stride];
        let mut key: Vec<Cell> = Vec::new();
        for (step, alias) in self.steps.iter().zip(&self.layout.aliases) {
            let (offset, arity) = (alias.offset, alias.columns.len());
            let relation = step.source.relation(scope);
            let scan = match (&step.source, relation, working) {
                (Source::Working, _, Some(work)) => work.delta_cells().chunks_exact(work.stride()),
                (_, Some(rel), _) => rel.full_cells().chunks_exact(rel.stride()),
                _ => [].chunks_exact(1),
            };
            // The probe choice, the only place the profiles differ.
            let index = match self.profile {
                SqlProfile::Duck => {
                    relation.filter(|rel| !step.columns.is_empty() && rel.has_index(&step.columns))
                }
                SqlProfile::Hyper => None,
            };
            let mut next: Vec<Cell> = Vec::new();
            for row in rows.chunks_exact(stride) {
                let push = |tuple: &[Cell]| {
                    if step.keys.iter().all(|&(left, right)| row[left] == tuple[right]) {
                        let at = next.len() + offset;
                        next.extend_from_slice(row);
                        next[at..at + arity].copy_from_slice(&tuple[..arity]);
                    }
                };
                match index {
                    Some(rel) => {
                        key.clear();
                        key.extend(step.keys.iter().map(|&(left, _)| row[left]));
                        rel.probe_index_cells(&step.columns, &key)
                            .into_iter()
                            .flatten()
                            .for_each(push);
                    }
                    None => scan.clone().filter(|tuple| !is_tombstone(tuple[0])).for_each(push),
                }
            }
            rows = next;
        }
        stats.rows_produced += rows.len() / stride;

        // Residual predicates: every conjunct, including NOT EXISTS. The
        // equi-join keys hold on joined rows except where both sides are
        // NULL, which SQL's `=` rejects here.
        let ctx = self.context(scope, names);
        let mut kept = 0;
        'rows: for r in 0..rows.len() / stride {
            let row = &rows[r * stride..][..self.width];
            for pred in &self.stmt.where_conjuncts {
                if !ctx.eval_predicate(pred, row)? {
                    continue 'rows;
                }
            }
            rows.copy_within(r * stride..(r + 1) * stride, kept * stride);
            kept += 1;
        }
        rows.truncate(kept * stride);
        Ok(rows)
    }

    /// Project (or group and aggregate) the rows [`SelectPlan::join`] kept,
    /// handing each output tuple to `emit`. Raqlet only emits DISTINCT
    /// selects; the receiving relation deduplicates.
    fn project(
        &self,
        joined: &[Cell],
        scope: &Database,
        names: &TableCatalog,
        mut emit: impl FnMut(&[Cell]),
    ) -> Result<()> {
        let ctx = self.context(scope, names);
        let stmt = self.stmt;
        let rows = joined.chunks_exact(self.width.max(1)).map(|row| &row[..self.width]);
        let mut tuple: Vec<Cell> = Vec::with_capacity(stmt.items.len());
        if stmt.is_aggregating() {
            let mut groups: FxHashMap<Vec<Cell>, Vec<&[Cell]>> = FxHashMap::default();
            for row in rows {
                let key: Vec<Cell> =
                    stmt.group_by.iter().map(|g| ctx.eval_cell(g, row)).collect::<Result<_>>()?;
                groups.entry(key).or_default().push(row);
            }
            if groups.is_empty() && stmt.group_by.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            for group_rows in groups.values() {
                tuple.clear();
                for item in &stmt.items {
                    let value = ctx.eval_aggregate_item(&item.expr, group_rows)?;
                    tuple.push(ctx.dict.encode_value(&value));
                }
                emit(&tuple);
            }
        } else {
            for row in rows {
                tuple.clear();
                for item in &stmt.items {
                    tuple.push(ctx.eval_cell(&item.expr, row)?);
                }
                emit(&tuple);
            }
        }
        Ok(())
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
    /// The offset of `alias` within a joined row and the index of `column`
    /// within the alias's own tuple.
    fn locate(&self, alias: &str, column: &str) -> Result<(usize, usize)> {
        let a = self
            .aliases
            .iter()
            .find(|a| a.alias == alias)
            .ok_or_else(|| RaqletError::execution(format!("unknown table alias `{alias}`")))?;
        let idx =
            a.columns.iter().position(|c| c == column).ok_or_else(|| {
                RaqletError::execution(format!("unknown column `{alias}.{column}`"))
            })?;
        Ok((a.offset, idx))
    }

    /// Offset of `alias.column` within a fully joined row.
    fn offset_of(&self, alias: &str, column: &str) -> Result<usize> {
        let (offset, idx) = self.locate(alias, column)?;
        Ok(offset + idx)
    }
}

/// Resolve a FROM item to its stored [`Source`], filtered by the WHERE
/// conjuncts that reference only its alias when there are any.
fn pushdown(
    stmt: &SelectStmt,
    item: &FromItem,
    scope: &Database,
    names: &TableCatalog,
) -> Result<Source> {
    let rel = scope
        .get(&item.table)
        .ok_or_else(|| RaqletError::execution(format!("table `{}` not found", item.table)))?;
    let single: Vec<&SqlExpr> =
        stmt.where_conjuncts.iter().filter(|p| references_only_alias(p, &item.alias)).collect();
    if single.is_empty() {
        return Ok(Source::Scope(item.table.clone()));
    }
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
    Ok(Source::Filtered(Box::new(kept)))
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
/// towards smaller tables and then FROM position. `tables` pairs each FROM
/// item with its row count; returns indexes into it.
fn greedy_join_order(
    tables: &[(&FromItem, usize)],
    predicates: &[SqlExpr],
    recursive_table: Option<&str>,
) -> Vec<usize> {
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
                let (item, size) = tables[idx];
                let keys = equi_join_pairs(predicates, &joined, &item.alias).count();
                (pos, (keys as i64, -(size as i64), -(idx as i64)))
            })
            .max_by_key(|(_, score)| *score)
            .map(|(pos, _)| pos)
            .expect("remaining is non-empty");
        order.push(remaining.remove(best));
    }
    order
}

/// The `a.x = b.y` predicates connecting the already-joined aliases to
/// `new_alias`, each as `((joined alias, column), (new alias, column))`.
fn equi_join_pairs<'p>(
    predicates: &'p [SqlExpr],
    joined: &'p [&str],
    new_alias: &'p str,
) -> impl Iterator<Item = ((&'p str, &'p str), (&'p str, &'p str))> + 'p {
    predicates.iter().filter_map(move |pred| {
        let SqlExpr::Cmp { op: CmpOp::Eq, lhs, rhs } = pred else { return None };
        let (SqlExpr::Column { table: t1, column: c1 }, SqlExpr::Column { table: t2, column: c2 }) =
            (lhs.as_ref(), rhs.as_ref())
        else {
            return None;
        };
        let (a, b) = ((t1.as_str(), c1.as_str()), (t2.as_str(), c2.as_str()));
        if joined.contains(&a.0) && b.0 == new_alias {
            Some((a, b))
        } else if joined.contains(&b.0) && a.0 == new_alias {
            Some((b, a))
        } else {
            None
        }
    })
}

/// Equi-join keys `(left row offset, right local column index)` between the
/// already-joined aliases and the alias being added.
fn equi_join_keys(
    predicates: &[SqlExpr],
    joined: &[&str],
    new_alias: &str,
    layout: &RowLayout,
) -> Result<Vec<(usize, usize)>> {
    equi_join_pairs(predicates, joined, new_alias)
        .map(|(left, right)| {
            Ok((layout.offset_of(left.0, left.1)?, layout.locate(right.0, right.1)?.1))
        })
        .collect()
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
                Ok(op.eval(&l, &r).map_or(Value::Null, Value::Bool))
            }
            SqlExpr::Arith { op, lhs, rhs } => {
                let l = self.eval_scalar_with(lhs, row, candidate)?;
                let r = self.eval_scalar_with(rhs, row, candidate)?;
                Ok(op.eval(&l, &r).unwrap_or(Value::Null))
            }
            SqlExpr::Aggregate { .. } => Err(RaqletError::execution(
                "aggregate expression evaluated outside GROUP BY context",
            )),
            SqlExpr::NotExists { .. } => {
                Err(RaqletError::execution("NOT EXISTS evaluated as a scalar expression"))
            }
        }
    }

    fn eval_aggregate_item(&self, expr: &SqlExpr, group_rows: &[&[Cell]]) -> Result<Value> {
        match expr {
            SqlExpr::Aggregate { func, distinct, arg } => {
                let values: Vec<Value> = match arg {
                    Some(a) => group_rows
                        .iter()
                        .map(|row| self.eval_scalar(a, row))
                        .collect::<Result<Vec<_>>>()?,
                    None => group_rows.iter().map(|_| Value::Int(1)).collect(),
                };
                Ok(func.fold(values, *distinct))
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

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_common::ops::ArithOp;
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
    fn shortest_paths_past_the_depth_bound_are_refused_not_truncated() {
        use raqlet_dlir::{ArithOp, LatticeMerge};
        // dist(s, d, l): lengths over a 6-edge chain, folded to MIN per (s, d).
        let mut p = edge_program();
        p.schema
            .add(RelationDecl::new(
                "dist",
                vec![
                    Column::new("s", ValueType::Int),
                    Column::new("d", ValueType::Int),
                    Column::new("l", ValueType::Int),
                ],
                RelationKind::Idb,
            ))
            .unwrap();
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![atom("edge", &["s", "d"]), BodyElem::eq(DlExpr::var("l"), DlExpr::int(1))],
        ));
        let next = DlExpr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(DlExpr::var("l0")),
            rhs: Box::new(DlExpr::int(1)),
        };
        p.add_rule(Rule::new(
            Atom::with_vars("dist", &["s", "d", "l"]),
            vec![
                atom("dist", &["s", "m", "l0"]),
                atom("edge", &["m", "d"]),
                BodyElem::eq(DlExpr::var("l"), next),
            ],
        ));
        p.set_lattice("dist", LatticeMerge::MinOnColumn(2));
        p.add_output("dist");
        let db = chain_db(6);
        let catalog = TableCatalog::from_schema(&p.schema);
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            let engine = SqlEngine { profile };
            // The longest shortest path is 6 hops: a bound of 5 would drop
            // (0, 6), so the engine refuses.
            let options = SqlLowerOptions { max_recursion_depth: 5 };
            let err = engine
                .execute(&lower_to_sqir(&p, "dist", &options).unwrap(), &db, &catalog)
                .unwrap_err();
            assert_eq!(
                err,
                RaqletError::RecursionDepthExceeded { cte: "dist__all".into(), max_depth: 5 }
            );
            // A bound at the diameter is exact.
            let options = SqlLowerOptions { max_recursion_depth: 6 };
            let sqir = lower_to_sqir(&p, "dist", &options).unwrap();
            assert_eq!(engine.execute(&sqir, &db, &catalog).unwrap().rows.len(), 21);
        }
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
        let tables: Vec<(&FromItem, usize)> =
            vec![(&items[0], 1), (&items[1], 100), (&items[2], 2)];
        let col = |t: &str, c: &str| SqlExpr::Column { table: t.into(), column: c.into() };
        // work joins small; small joins big. FROM order would join work×big
        // first (a cross product).
        let predicates = vec![
            SqlExpr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(col("t0", "x")),
                rhs: Box::new(col("t2", "x")),
            },
            SqlExpr::Cmp {
                op: CmpOp::Eq,
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

    /// Run a hand-built SQIR query over `edge(src, dst)` on one profile.
    fn run_sqir(query: &SqirQuery, db: &Database, profile: SqlProfile) -> Result<SqlResult> {
        let catalog = TableCatalog::from_schema(&edge_program().schema);
        SqlEngine { profile }.execute(query, db, &catalog)
    }

    fn select(items: &[(SqlExpr, &str)], from: &[(&str, &str)], conds: Vec<SqlExpr>) -> SelectStmt {
        SelectStmt {
            distinct: true,
            items: items.iter().map(|(e, a)| raqlet_sqir::SelectItem::new(e.clone(), *a)).collect(),
            from: from.iter().map(|(t, a)| FromItem::new(*t, *a)).collect(),
            where_conjuncts: conds,
            group_by: Vec::new(),
        }
    }

    fn col(table: &str, column: &str) -> SqlExpr {
        SqlExpr::col(table, column)
    }

    #[test]
    fn a_join_through_a_null_key_returns_no_row_on_either_profile() {
        // q(x, z) :- edge(x, y), edge(y, z) over edge(1, NULL), edge(NULL, 2):
        // the packed NULL cells are equal, but SQL's `NULL = NULL` is not true.
        let mut p = edge_program();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "z"]),
            vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
        ));
        p.add_output("q");
        let mut db = Database::new();
        db.insert_fact("edge", vec![Value::Int(1), Value::Null]).unwrap();
        db.insert_fact("edge", vec![Value::Null, Value::Int(2)]).unwrap();
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            assert!(run(&p, "q", &db, profile).is_empty(), "{profile:?}");
        }
        // The Datalog engine unifies the two NULLs: that is Datalog, not SQL.
        let dl_rows = crate::datalog::DatalogEngine::new().run_output(&p, &db, "q").unwrap();
        assert_eq!(dl_rows.sorted(), vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn a_union_branch_narrower_than_its_cte_is_an_error() {
        let pair = [(col("e", "src"), "x"), (col("e", "dst"), "y")];
        let narrow = select(&[(col("e", "src"), "x")], &[("edge", "e")], Vec::new());
        let plain = Cte {
            name: "w".into(),
            columns: vec!["x".into(), "y".into()],
            recursive: false,
            branches: vec![select(&pair, &[("edge", "e")], Vec::new()), narrow],
            depth_bound: None,
        };
        let step = select(
            &[(col("e", "dst"), "x")],
            &[("w", "R"), ("edge", "e")],
            vec![SqlExpr::eq(col("R", "y"), col("e", "src"))],
        );
        let recursive = Cte {
            name: "w".into(),
            columns: vec!["x".into(), "y".into()],
            recursive: true,
            branches: vec![select(&pair, &[("edge", "e")], Vec::new()), step],
            depth_bound: None,
        };
        let db = chain_db(4);
        for cte in [plain, recursive] {
            let query = SqirQuery {
                final_select: select(&[(col("w", "x"), "x")], &[("w", "w")], Vec::new()),
                needs_recursive: cte.recursive,
                ctes: vec![cte],
            };
            for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
                assert!(run_sqir(&query, &db, profile).is_err(), "{profile:?}");
            }
        }
    }

    #[test]
    fn a_predicate_on_the_working_table_filters_every_round() {
        // walk(n, len): from node 0 along `edge`, while (R.len + 1) <= 3 —
        // CQ13's depth bound, a conjunct that reads only the working table.
        let plus_one = SqlExpr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(col("R", "len")),
            rhs: Box::new(SqlExpr::int(1)),
        };
        let walk = Cte {
            name: "walk".into(),
            columns: vec!["n".into(), "len".into()],
            recursive: true,
            branches: vec![
                select(
                    &[(col("e", "src"), "n"), (SqlExpr::int(0), "len")],
                    &[("edge", "e")],
                    vec![SqlExpr::eq(col("e", "src"), SqlExpr::int(0))],
                ),
                select(
                    &[(col("e", "dst"), "n"), (plus_one.clone(), "len")],
                    &[("walk", "R"), ("edge", "e")],
                    vec![
                        SqlExpr::eq(col("R", "n"), col("e", "src")),
                        SqlExpr::Cmp {
                            op: CmpOp::Le,
                            lhs: Box::new(plus_one),
                            rhs: Box::new(SqlExpr::int(3)),
                        },
                    ],
                ),
            ],
            depth_bound: None,
        };
        let query = SqirQuery {
            final_select: select(
                &[(col("w", "n"), "n"), (col("w", "len"), "len")],
                &[("walk", "w")],
                Vec::new(),
            ),
            needs_recursive: true,
            ctes: vec![walk],
        };
        let expected: Vec<Vec<Value>> =
            (0..=3).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            let result = run_sqir(&query, &chain_db(10), profile).unwrap();
            assert_eq!(result.rows.sorted(), expected, "{profile:?}");
            assert_eq!(result.stats.recursive_iterations, 4, "{profile:?}");
        }
    }

    #[test]
    fn zero_column_ctes_hold_one_row_or_none() {
        // flag() :- edge(1, _).  reached() :- edge(0, _).
        // reached() :- reached(), edge(_, 9).  q(x) :- edge(x, _), flag(), reached().
        let mut p = edge_program();
        let edge_from = |n: i64| {
            BodyElem::Atom(Atom::new(
                "edge",
                vec![raqlet_dlir::Term::int(n), raqlet_dlir::Term::Wildcard],
            ))
        };
        p.add_rule(Rule::new(Atom::with_vars("flag", &[]), vec![edge_from(1)]));
        p.add_rule(Rule::new(Atom::with_vars("reached", &[]), vec![edge_from(0)]));
        p.add_rule(Rule::new(
            Atom::with_vars("reached", &[]),
            vec![
                atom("reached", &[]),
                BodyElem::Atom(Atom::new(
                    "edge",
                    vec![raqlet_dlir::Term::Wildcard, raqlet_dlir::Term::int(9)],
                )),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![atom("edge", &["x", "y"]), atom("flag", &[]), atom("reached", &[])],
        ));
        p.add_output("q");
        for (db, expected) in [(chain_db(3), 3), (chain_db(1), 0)] {
            let dl_rows = crate::datalog::DatalogEngine::new().run_output(&p, &db, "q").unwrap();
            assert_eq!(dl_rows.len(), expected);
            for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
                assert_eq!(run(&p, "q", &db, profile), dl_rows, "{profile:?}");
            }
        }
    }

    #[test]
    fn overflowing_arithmetic_yields_null() {
        // SELECT e.src + 1, e.src / e.dst FROM edge e over (MAX, -1), (MIN, -1).
        let arith = |op, rhs| SqlExpr::Arith { op, lhs: Box::new(col("e", "src")), rhs };
        let query = SqirQuery {
            ctes: Vec::new(),
            final_select: select(
                &[
                    (arith(ArithOp::Add, Box::new(SqlExpr::int(1))), "up"),
                    (arith(ArithOp::Div, Box::new(col("e", "dst"))), "q"),
                ],
                &[("edge", "e")],
                Vec::new(),
            ),
            needs_recursive: false,
        };
        let mut db = Database::new();
        for x in [i64::MAX, i64::MIN] {
            db.insert_fact("edge", vec![Value::Int(x), Value::Int(-1)]).unwrap();
        }
        let mut expected = vec![
            vec![Value::Null, Value::Int(-i64::MAX)],
            vec![Value::Int(i64::MIN + 1), Value::Null],
        ];
        expected.sort();
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            let rows = run_sqir(&query, &db, profile).unwrap().rows;
            assert_eq!(rows.sorted(), expected, "{profile:?}");
        }
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
