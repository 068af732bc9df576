//! In-memory relational engine interpreting SQIR: the stand-in for the
//! paper's DuckDB and HyPer backends.
//!
//! The engine evaluates a [`SqirQuery`] against a [`Database`]:
//!
//! * CTEs are evaluated in order and materialised;
//! * every SELECT is compiled once, before any row is read, into the slot
//!   plan of the Datalog engine: each FROM item is an atom, equi-joined
//!   columns share a slot, a literal equality is a constant term, the other
//!   WHERE conjuncts are constraints, NOT EXISTS is a negated atom, and the
//!   SELECT and GROUP BY items are slot expressions. The Datalog planner
//!   orders the atoms and the Datalog join runs them: SQL-sim has no join of
//!   its own;
//! * SQL's semantics live in the plan, not in the join. A shared slot
//!   carries an `x = x` constraint, which rejects a NULL key (the join
//!   compares packed cells, and two NULL cells are equal); NOT EXISTS reads
//!   its table without the rows whose condition columns are NULL;
//! * recursive CTEs follow the SQL standard's semantics: the base branches
//!   seed the CTE's relation, and each recursive branch, planned once before
//!   the first round, reads the working table (the rows the previous round
//!   added) under the CTE's own name, as the join's pinned delta position.
//!   A round stages what its branches select into the CTE's relation, and
//!   the relation's `advance` publishes the rows that are new as the next
//!   working table, until a round adds none;
//! * two *cost profiles* stand in for the two RDBMS of the paper's Table 1
//!   and differ only in which indexes exist: [`SqlProfile::Duck`] builds
//!   every index the join schedule probes at plan time (a vectorised,
//!   analytics-style executor), while [`SqlProfile::Hyper`] builds none, so
//!   every step scans and compares cells (a compiled, tuple-at-a-time
//!   executor whose low constants win on tiny, selective queries but lose
//!   on large joins). Both produce identical results and identical
//!   [`SqlStats`].
//!
//! Values are decoded only at expression boundaries (predicates,
//! arithmetic, aggregation); join keys, group-by keys and working-table
//! dedup are `u64` word compares against the shared per-database
//! dictionary. Column names are resolved once, at plan time, through a
//! [`TableCatalog`] (built from the DL-Schema for base tables; CTE columns
//! come from their declarations).

use std::collections::HashMap;

use raqlet_common::cell::{is_tombstone, Cell, ValueDict, NULL_CELL};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::{FxHashMap, FxHashSet};
use raqlet_common::ops::CmpOp;
use raqlet_common::schema::DlSchema;
use raqlet_common::{Database, RaqletError, Relation, Result, Value};
use raqlet_dlir::{Atom, BodyElem, DlExpr, LatticeMerge, Rule, Term};
use raqlet_sqir::{Cte, DepthBound, SelectStmt, SqirQuery, SqlExpr};

use crate::datalog::{derive, Derived, Pin, RulePlan};

/// Execution profile: how a keyed join step finds its candidate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqlProfile {
    /// Build a hash index for every probe of the join schedule, and probe
    /// it (DuckDB-style analytics executor).
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
    /// Rows the SELECTs' joins produced: one per joined row that passes the
    /// whole WHERE clause, counted before projection, aggregation and dedup.
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
    /// checked before each CTE materialization, at every recursive-CTE
    /// fixpoint round and inside a join every
    /// [`JOIN_SCAN_PERIOD`](raqlet_common::guard::JOIN_SCAN_PERIOD)
    /// candidate rows, so deadlines, budgets and cancellation interrupt a
    /// runaway query between rounds and inside a large join.
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
        let out = plan.run(&scope, None, &mut stats, guard)?;
        let mut rows = Relation::with_dict(stmt.items.len(), scope.dict().clone());
        for tuple in plan.rows(&out) {
            rows.insert_cells(tuple);
        }
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
            let out = plan.run(scope, None, stats, guard)?;
            for tuple in plan.rows(&out) {
                all.insert_cells(tuple);
            }
        }
        if !cte.recursive {
            return Ok(all);
        }

        // The recursive branches are planned once: the base tables, the join
        // order and the indexes are the same every round; only the working
        // table changes. Its name resolves to an empty relation of the CTE's
        // arity, and each round pins its atom to the delta of `all`. A
        // lattice helper's branches are planned without their depth-bound
        // conjunct, which `DepthCut` applies to the projected rows instead.
        let unbounded: Vec<SelectStmt>;
        let recursive = match cte.depth_bound {
            Some(bound) => {
                unbounded = recursive.iter().map(|&branch| bound.strip(branch)).collect();
                unbounded.iter().collect()
            }
            None => recursive,
        };
        let working = Relation::with_dict(cte.columns.len(), scope.dict().clone());
        scope.set(cte.name.clone(), working);
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
                let out = plan.run(scope, Some(&all), stats, guard)?;
                for tuple in plan.rows(&out) {
                    match &mut cut {
                        Some(cut) if !cut.admits(tuple, scope.dict()) => cut.record(tuple),
                        _ => {
                            all.stage_cells(tuple);
                        }
                    }
                }
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

/// One SELECT compiled to a slot plan: a rule whose body the Datalog join
/// runs, and whose head lists the SELECT items and then the GROUP BY items.
struct SelectPlan<'s> {
    stmt: &'s SelectStmt,
    rule: RulePlan,
    /// Body position of the recursive CTE's working table, which the join
    /// pins to the rows the previous round added.
    working: Option<usize>,
}

impl<'s> SelectPlan<'s> {
    /// Plan `stmt`, the final SELECT or a UNION branch of `cte`. A branch
    /// must select exactly its CTE's columns, and a recursive CTE's own name
    /// reads its working table. On [`SqlProfile::Duck`], every index the
    /// join schedule probes is built here, once.
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
        let working: Vec<String> =
            cte.filter(|cte| cte.recursive).map(|cte| cte.name.clone()).into_iter().collect();
        let rule = compile_select(stmt, scope, names, working.first().map(String::as_str))?;
        let rule = RulePlan::compile(&rule, scope.dict(), &working, LatticeMerge::Set);
        let working = rule.recursive_positions.first().copied();
        if profile == SqlProfile::Duck {
            for (relation, columns) in rule.schedule_for(working).probes(&rule.body) {
                if let Some(rel) = scope.get_mut(relation) {
                    rel.ensure_index(columns);
                }
            }
        }
        Ok(SelectPlan { stmt, rule, working })
    }

    /// Join the body through its schedule, with the working table pinned to
    /// the delta of `working`, and project each joined row onto the head;
    /// an aggregating SELECT then folds its groups. Raqlet only emits
    /// DISTINCT selects; the receiving relation deduplicates.
    fn run(
        &self,
        scope: &Database,
        working: Option<&Relation>,
        stats: &mut SqlStats,
        guard: &QueryGuard,
    ) -> Result<Derived> {
        let pins: Vec<Pin> = self
            .working
            .zip(working)
            .map(|(pos, rel)| Pin { pos, rows: rel.delta_cells(), stride: rel.stride() })
            .into_iter()
            .collect();
        let schedule = self.rule.schedule_for(self.working);
        let joined = derive(&self.rule, scope, schedule, &pins, &[], guard)?;
        stats.rows_produced += joined.rows;
        if !self.stmt.is_aggregating() {
            return Ok(joined);
        }
        Ok(self.fold(&joined, scope.dict()))
    }

    /// Group the projected rows on their GROUP BY cells and fold each group
    /// to one row: an aggregate item folds its argument over the group, and
    /// any other item is a group key, read from the group's first row.
    fn fold(&self, joined: &Derived, dict: &ValueDict) -> Derived {
        let items = self.stmt.items.len();
        let mut groups: FxHashMap<&[Cell], Vec<&[Cell]>> = FxHashMap::default();
        for row in joined.cells.chunks_exact(joined.stride) {
            groups.entry(&row[items..self.rule.head_arity]).or_default().push(row);
        }
        if groups.is_empty() && self.stmt.group_by.is_empty() {
            groups.insert(&[], Vec::new());
        }
        let stride = items.max(1);
        let mut out = Derived { cells: Vec::with_capacity(groups.len() * stride), rows: 0, stride };
        for rows in groups.values() {
            for (i, item) in self.stmt.items.iter().enumerate() {
                out.cells.push(match &item.expr {
                    SqlExpr::Aggregate { func, distinct, .. } => {
                        let values = rows.iter().map(|row| dict.decode(row[i])).collect();
                        dict.encode_value(&func.fold(values, *distinct))
                    }
                    _ => rows.first().map_or(NULL_CELL, |row| row[i]),
                });
            }
            if items == 0 {
                out.cells.push(NULL_CELL);
            }
            out.rows += 1;
        }
        out
    }

    /// The output tuples in rows [`SelectPlan::run`] returned.
    fn rows<'a>(&self, out: &'a Derived) -> impl Iterator<Item = &'a [Cell]> + 'a {
        let items = self.stmt.items.len();
        out.cells.chunks_exact(out.stride).map(move |row| &row[..items])
    }
}

/// Compile a SELECT to a Datalog rule over the scope's relations (see the
/// module docs). `working` names the recursive CTE whose working table the
/// SELECT may read; every other FROM table must be in the scope.
fn compile_select(
    stmt: &SelectStmt,
    scope: &mut Database,
    names: &TableCatalog,
    working: Option<&str>,
) -> Result<Rule> {
    let mut from = Vec::with_capacity(stmt.from.len());
    let mut width = 0;
    for item in &stmt.from {
        let stored = match working {
            Some(name) if name == item.table => None,
            _ => Some(scope.get(&item.table).ok_or_else(|| {
                RaqletError::execution(format!("table `{}` not found", item.table))
            })?),
        };
        let columns = names.columns_of(&item.table)?;
        if let Some(rel) = stored.filter(|rel| !rel.is_empty() && rel.arity() != columns.len()) {
            return Err(RaqletError::execution(format!(
                "table `{}` has arity {} but catalog lists {} columns",
                item.table,
                rel.arity(),
                columns.len()
            )));
        }
        from.push((width, columns));
        width += columns.len();
    }
    let mut c = Classes {
        stmt,
        from,
        parent: (0..width).collect(),
        literal: vec![None; width],
        used: vec![false; width],
        body: Vec::new(),
    };

    // Equi-joins: the columns of one connected set share one slot.
    let mut keyed = Vec::new();
    let mut rest = Vec::new();
    for conjunct in &stmt.where_conjuncts {
        match eq_operands(conjunct) {
            Some((
                SqlExpr::Column { table: t1, column: c1 },
                SqlExpr::Column { table: t2, column: c2 },
            )) => {
                let (a, b) = (c.locate(t1, c1)?, c.locate(t2, c2)?);
                let (ra, rb) = (c.find(a), c.find(b));
                c.parent[rb] = ra;
                keyed.push(a);
            }
            _ => rest.push(conjunct),
        }
    }
    // Literal equalities: the class is that constant. A NULL literal, or a
    // second literal for the same class, stays a constraint.
    let mut residual = Vec::new();
    for conjunct in rest {
        if let Some((SqlExpr::Column { table, column }, SqlExpr::Literal(value)))
        | Some((SqlExpr::Literal(value), SqlExpr::Column { table, column })) =
            eq_operands(conjunct)
        {
            let root = c.find(c.locate(table, column)?);
            if c.literal[root].is_none() && !value.is_null() {
                c.literal[root] = Some(value.clone());
                continue;
            }
        }
        residual.push(conjunct);
    }
    // SQL's `=` rejects a NULL key, but the join compares packed cells and
    // two NULL cells are equal: `x = x` rejects the NULL.
    for column in keyed {
        let root = c.find(column);
        if c.literal[root].is_none() && !c.used[root] {
            let var = DlExpr::Var(c.use_var(root));
            c.body.push(BodyElem::eq(var.clone(), var));
        }
    }
    let mut negations = Vec::new();
    for conjunct in residual {
        match conjunct {
            SqlExpr::Cmp { op, lhs, rhs } => {
                let (lhs, rhs) = (c.expr(lhs)?, c.expr(rhs)?);
                c.body.push(BodyElem::Constraint { op: *op, lhs, rhs });
            }
            SqlExpr::NotExists { table, alias, conditions } => {
                let mut terms = vec![Term::Wildcard; names.columns_of(table)?.len()];
                for condition in conditions {
                    let (column, outer) = match eq_operands(condition) {
                        Some((SqlExpr::Column { table: t, column }, outer))
                        | Some((outer, SqlExpr::Column { table: t, column }))
                            if t == alias =>
                        {
                            (column, outer)
                        }
                        _ => return Err(unsupported(condition)),
                    };
                    let index = names.column_index(table, column)?;
                    if !matches!(terms[index], Term::Wildcard) {
                        return Err(unsupported(condition));
                    }
                    terms[index] = c.operand(outer)?;
                }
                let relation = without_nulls(scope, table, &terms);
                negations.push(BodyElem::Negated(Atom::new(relation, terms)));
            }
            other => return Err(unsupported(other)),
        }
    }
    let mut head = Vec::with_capacity(stmt.items.len() + stmt.group_by.len());
    for item in &stmt.items {
        head.push(match &item.expr {
            SqlExpr::Aggregate { arg: Some(arg), .. } => c.operand(arg)?,
            SqlExpr::Aggregate { arg: None, .. } => Term::Const(Value::Int(1)),
            expr => c.operand(expr)?,
        });
    }
    for key in &stmt.group_by {
        head.push(c.operand(key)?);
    }
    let atoms: Vec<BodyElem> = stmt
        .from
        .iter()
        .zip(&c.from)
        .map(|(item, &(first, columns))| {
            let terms = (first..first + columns.len()).map(|column| c.atom_term(column));
            BodyElem::Atom(Atom::new(item.table.clone(), terms.collect()))
        })
        .collect();
    let body = atoms.into_iter().chain(c.body).chain(negations).collect();
    Ok(Rule::new(Atom::new("select", head), body))
}

/// The column classes of one SELECT: its FROM columns numbered item by
/// item, merged by equi-joins, with the constraints compiled so far.
struct Classes<'a> {
    stmt: &'a SelectStmt,
    /// Per FROM item: the number of its first column, and its columns.
    from: Vec<(usize, &'a [String])>,
    /// Union-find parent of each column.
    parent: Vec<usize>,
    /// The literal a class root equals.
    literal: Vec<Option<Value>>,
    /// Class roots that have a slot.
    used: Vec<bool>,
    /// Constraints, including the assignments of computed operands.
    body: Vec<BodyElem>,
}

impl Classes<'_> {
    /// The number of `alias.column`.
    fn locate(&self, alias: &str, column: &str) -> Result<usize> {
        let item = self
            .stmt
            .from
            .iter()
            .position(|item| item.alias == alias)
            .ok_or_else(|| RaqletError::execution(format!("unknown table alias `{alias}`")))?;
        let (first, columns) = self.from[item];
        let index = columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| RaqletError::execution(format!("unknown column `{alias}.{column}`")))?;
        Ok(first + index)
    }

    fn find(&self, mut column: usize) -> usize {
        while self.parent[column] != column {
            column = self.parent[column];
        }
        column
    }

    /// The variable of the class rooted at `root`, named after its column.
    fn var_name(&self, root: usize) -> String {
        let item = self.from.iter().rposition(|&(first, _)| first <= root).unwrap_or(0);
        let (first, columns) = self.from[item];
        format!("{}.{}", self.stmt.from[item].alias, columns[root - first])
    }

    /// [`Classes::var_name`], for a class that now needs a slot.
    fn use_var(&mut self, root: usize) -> String {
        self.used[root] = true;
        self.var_name(root)
    }

    /// A column, literal or arithmetic expression as a Datalog expression.
    fn expr(&mut self, expr: &SqlExpr) -> Result<DlExpr> {
        Ok(match expr {
            SqlExpr::Column { table, column } => {
                let root = self.find(self.locate(table, column)?);
                match &self.literal[root] {
                    Some(value) => DlExpr::Const(value.clone()),
                    None => DlExpr::Var(self.use_var(root)),
                }
            }
            SqlExpr::Literal(value) => DlExpr::Const(value.clone()),
            SqlExpr::Arith { op, lhs, rhs } => DlExpr::Arith {
                op: *op,
                lhs: Box::new(self.expr(lhs)?),
                rhs: Box::new(self.expr(rhs)?),
            },
            other => return Err(unsupported(other)),
        })
    }

    /// An operand that must be a term (a SELECT or GROUP BY item, a NOT
    /// EXISTS condition's outer side): arithmetic gets a fresh variable,
    /// assigned by an `=` constraint. No atom binds it, so an arithmetic
    /// error assigns NULL instead of dropping the row.
    fn operand(&mut self, expr: &SqlExpr) -> Result<Term> {
        Ok(match self.expr(expr)? {
            DlExpr::Var(var) => Term::Var(var),
            DlExpr::Const(value) => Term::Const(value),
            arith => {
                let var = format!("#{}", self.body.len());
                self.body.push(BodyElem::eq(DlExpr::Var(var.clone()), arith));
                Term::Var(var)
            }
        })
    }

    /// The term of a FROM column in its atom: its class's literal or
    /// variable, or a wildcard when nothing reads it.
    fn atom_term(&self, column: usize) -> Term {
        let root = self.find(column);
        match &self.literal[root] {
            Some(value) => Term::Const(value.clone()),
            None if self.used[root] => Term::Var(self.var_name(root)),
            None => Term::Wildcard,
        }
    }
}

/// The operands of an `=` comparison.
fn eq_operands(expr: &SqlExpr) -> Option<(&SqlExpr, &SqlExpr)> {
    match expr {
        SqlExpr::Cmp { op: CmpOp::Eq, lhs, rhs } => Some((lhs, rhs)),
        _ => None,
    }
}

/// The relation a NOT EXISTS over `table` reads. SQL's `=` never matches
/// NULL, but the negation probe compares packed cells, and two NULL cells
/// are equal. So when a row of `table` holds NULL in a condition column (a
/// column whose term is not a wildcard), the NOT EXISTS reads a copy of the
/// table without those rows, stored in the scope.
fn without_nulls(scope: &mut Database, table: &str, terms: &[Term]) -> String {
    let conditioned: Vec<usize> =
        (0..terms.len()).filter(|&i| !matches!(terms[i], Term::Wildcard)).collect();
    let has_null = |row: &[Cell]| conditioned.iter().any(|&i| row.get(i) == Some(&NULL_CELL));
    let copy = match scope.get(table) {
        Some(rel) if rel.iter_rows().any(has_null) => {
            let mut copy = Relation::with_dict(rel.arity(), scope.dict().clone());
            for row in rel.iter_rows().filter(|row| !has_null(row)) {
                copy.insert_cells(row);
            }
            copy
        }
        _ => return table.to_string(),
    };
    let name = format!("{table} without NULL in {conditioned:?}");
    scope.set(name.clone(), copy);
    name
}

fn unsupported(expr: &SqlExpr) -> RaqletError {
    RaqletError::execution(format!("SQL-sim cannot evaluate `{expr}` in this position"))
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

    /// The atom order of the schedule `stmt` compiles to over `chain_db(3)`,
    /// as FROM positions, with the working-table position.
    fn join_order(stmt: &SelectStmt, cte: Option<&Cte>) -> (Vec<usize>, Option<usize>) {
        let mut scope = chain_db(3);
        let mut names = TableCatalog::from_schema(&edge_program().schema);
        if let Some(cte) = cte {
            names.register(&cte.name, cte.columns.clone());
        }
        let plan = SelectPlan::new(stmt, &mut scope, &names, cte, SqlProfile::Duck).unwrap();
        (plan.rule.schedule_for(plan.working).order.clone(), plan.working)
    }

    #[test]
    fn a_recursive_branch_drives_from_the_working_table() {
        // FROM lists `edge` first, but the working table drives the join.
        let step = select(
            &[(col("R", "x"), "x"), (col("e", "dst"), "y")],
            &[("edge", "e"), ("tc", "R")],
            vec![SqlExpr::eq(col("R", "y"), col("e", "src"))],
        );
        let base =
            select(&[(col("e", "src"), "x"), (col("e", "dst"), "y")], &[("edge", "e")], Vec::new());
        let tc = Cte {
            name: "tc".into(),
            columns: vec!["x".into(), "y".into()],
            recursive: true,
            branches: vec![base, step.clone()],
            depth_bound: None,
        };
        assert_eq!(join_order(&step, Some(&tc)), (vec![1, 0], Some(1)));
    }

    #[test]
    fn a_table_reached_by_a_key_joins_before_an_unconnected_one() {
        // `a` and `c` share a key; `b` shares none, so it joins last even
        // though FROM lists it second.
        let stmt = select(
            &[(col("a", "src"), "x")],
            &[("edge", "a"), ("edge", "b"), ("edge", "c")],
            vec![SqlExpr::eq(col("a", "dst"), col("c", "src"))],
        );
        assert_eq!(join_order(&stmt, None), (vec![0, 2, 1], None));
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
            from: from.iter().map(|(t, a)| raqlet_sqir::FromItem::new(*t, *a)).collect(),
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
    fn a_not_exists_condition_on_a_null_outer_cell_keeps_the_row_on_either_profile() {
        // q(x) :- edge(x, y), !mark(y) over edge(1, NULL), edge(2, 3),
        // edge(4, 5) and mark(NULL), mark(3): for x = 1 the condition
        // `N1.m = R1.dst` is NULL against every mark row, so no inner row
        // matches and the row stays; x = 2 meets mark(3) and goes.
        let mut p = edge_program();
        p.schema
            .add(RelationDecl::new(
                "mark",
                vec![Column::new("m", ValueType::Int)],
                RelationKind::BaseTable,
            ))
            .unwrap();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x"]),
            vec![atom("edge", &["x", "y"]), BodyElem::Negated(Atom::with_vars("mark", &["y"]))],
        ));
        p.add_output("q");
        let mut db = Database::new();
        for (src, dst) in [(1, Value::Null), (2, Value::Int(3)), (4, Value::Int(5))] {
            db.insert_fact("edge", vec![Value::Int(src), dst]).unwrap();
        }
        db.insert_fact("mark", vec![Value::Null]).unwrap();
        db.insert_fact("mark", vec![Value::Int(3)]).unwrap();
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            assert_eq!(
                run(&p, "q", &db, profile).sorted(),
                vec![vec![Value::Int(1)], vec![Value::Int(4)]],
                "{profile:?}"
            );
        }
        // The Datalog negation matches the NULL cells: that is Datalog, not SQL.
        let dl_rows = crate::datalog::DatalogEngine::new().run_output(&p, &db, "q").unwrap();
        assert_eq!(dl_rows.sorted(), vec![vec![Value::Int(4)]]);
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
    fn a_large_join_ticks_the_join_scan_checkpoint_on_either_profile() {
        // q(x, z) :- edge(x, _), edge(_, z) over a 300-edge chain: the cross
        // product meets 90000 candidates, and the final SELECT scans its
        // 90000 rows, each past `JOIN_SCAN_PERIOD` once.
        use std::sync::{Arc, Mutex};
        let mut p = edge_program();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "z"]),
            vec![atom("edge", &["x", "a"]), atom("edge", &["b", "z"])],
        ));
        p.add_output("q");
        let sqir = lower_to_sqir(&p, "q", &SqlLowerOptions::default()).unwrap();
        let catalog = TableCatalog::from_schema(&p.schema);
        let db = chain_db(300);
        for profile in [SqlProfile::Duck, SqlProfile::Hyper] {
            let kinds = Arc::new(Mutex::new(std::collections::BTreeMap::<String, u64>::new()));
            let sink = Arc::clone(&kinds);
            let guard = QueryGuard::new().with_fault_hook(Arc::new(move |site, _| {
                *sink.lock().unwrap().entry(format!("{site:?}")).or_default() += 1;
                None
            }));
            let result = SqlEngine { profile }.execute_guarded(&sqir, &db, &catalog, &guard);
            assert_eq!(result.unwrap().rows.len(), 90_000, "{profile:?}");
            let kinds: Vec<(String, u64)> = kinds.lock().unwrap().clone().into_iter().collect();
            assert_eq!(kinds, [("JoinScan".into(), 2), ("Scc".into(), 1)], "{profile:?}");
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
