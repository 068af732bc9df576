//! Bottom-up Datalog engine: the stand-in for Soufflé in the paper's
//! evaluation.
//!
//! The engine evaluates a stratified [`DlirProgram`] against an extensional
//! [`Database`]:
//!
//! * strata are computed with [`raqlet_dlir::stratify()`] and evaluated bottom
//!   up;
//! * inside a stratum, the rule dependency graph is **condensed into strongly
//!   connected components** ([`DepGraph::condense`]) and evaluated one SCC at
//!   a time in dependency order. Non-looping components (no self- or mutual
//!   recursion) evaluate in exactly **one round** with no delta machinery at
//!   all; looping components run a fixpoint using either naive or
//!   **semi-naive** evaluation (the default; naive is the reference that
//!   `tests/property_tests.rs` and `naive_and_semi_naive_agree` check
//!   semi-naive evaluation against), with the frontier and working set
//!   restricted to the component's own relations;
//! * programs are *precompiled* into a `ProgramPlan`: validation,
//!   stratification and per-rule slot resolution happen once, constants are
//!   dictionary-encoded to packed [`Cell`]s, and every variable gets a fixed
//!   slot — a join environment is a flat `Vec<u64>` of packed cells (with an
//!   unbound sentinel) instead of a string-keyed map of boxed values.
//!   [`crate::PreparedDatabase`] memoizes plans per program fingerprint so
//!   warm executions recompile nothing;
//! * joins are index-driven and **delta-indexed**: each round scans only the
//!   delta of one recursive atom and probes *persistent* hash indexes on the
//!   stable (full) sets of the other atoms. Index keys and probes are packed
//!   cells — `u64` word compares, no string hashing, no refcount traffic.
//!   The exact column sets each relation needs are computed **at compile
//!   time**: every join schedule is planned statically when the `ProgramPlan`
//!   is built, its probe columns are collected into the plan's
//!   `required_indexes` declaration, and evaluation materializes precisely
//!   those (via [`raqlet_common::Relation::require_indexes`]) before the
//!   first rule fires. Indexes are extended in place as tuples are published
//!   (see [`raqlet_common::Relation`]), so no index is ever built — let alone
//!   rebuilt — during fixpoint iteration;
//! * derivations are *staged* inside the head relation and published at the
//!   end of each round ([`raqlet_common::Relation::advance`]), which makes
//!   the published tuples of a round exactly the next round's delta;
//! * negation reads fully-computed lower strata (also through persistent
//!   indexes when its variables are bound); aggregation groups the
//!   deduplicated bindings of its group-by and input variables, decoding to
//!   [`Value`]s only at the aggregation boundary;
//! * relations annotated with a `@min` lattice keep only the minimal value of
//!   the annotated column per group, which makes shortest-path recursion
//!   terminate on cyclic data;
//! * every rule application is one join on the calling thread, driven by
//!   the delta of one recursive atom (or, in round zero, by the atom the
//!   compiled schedule orders first); its rows are deduplicated through the
//!   head relation's staged set.

use std::collections::HashMap;

use raqlet_common::cell::{is_tombstone, Cell, ValueDict, NULL_CELL, UNBOUND_CELL};
use raqlet_common::guard::{CheckPoint, QueryGuard, JOIN_SCAN_PERIOD};
use raqlet_common::{Database, RaqletError, Relation, Result, Value};
use raqlet_dlir::{
    stratify_with, Aggregation, Atom, BodyElem, DepGraph, DlExpr, DlirProgram, LatticeMerge, Rule,
    Term,
};

/// Fixpoint evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Re-derive everything each iteration: the reference semi-naive
    /// evaluation is tested against (`tests/property_tests.rs`,
    /// `naive_and_semi_naive_agree`).
    Naive,
    /// Only join against the tuples derived in the previous iteration.
    #[default]
    SemiNaive,
}

// `EvalStats` moved to `raqlet_common` so guard-trip errors can carry partial
// counters; re-exported here so existing `raqlet_engine::EvalStats` (and
// `datalog::EvalStats`) references keep working.
pub use raqlet_common::stats::EvalStats;

/// Check the heap budget at a round/SCC boundary. `Database::heap_bytes`
/// walks every relation (and the dictionary), so the measurement is only
/// taken when a memory budget is actually armed.
fn check_db_memory(guard: &QueryGuard, db: &Database) -> Result<()> {
    if guard.memory_budget().is_some() {
        guard.check_memory(db.heap_bytes())?;
    }
    Ok(())
}

/// The result of evaluating a program.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The database containing every derived IDB plus the extensional
    /// relations the program referenced (unreferenced EDB relations are not
    /// copied into the result).
    pub database: Database,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl EvalResult {
    /// The relation derived for `name` (empty if nothing was derived).
    pub fn relation(&self, name: &str) -> Relation {
        self.database.get(name).cloned().unwrap_or_else(|| Relation::new(0))
    }
}

/// The Datalog engine.
///
/// ```
/// use raqlet_common::{Database, Value};
/// use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule};
/// use raqlet_engine::DatalogEngine;
///
/// // tc(x, y) :- edge(x, y).   tc(x, y) :- tc(x, z), edge(z, y).
/// let mut program = DlirProgram::default();
/// program.add_rule(Rule::new(
///     Atom::with_vars("tc", &["x", "y"]),
///     vec![BodyElem::Atom(Atom::with_vars("edge", &["x", "y"]))],
/// ));
/// program.add_rule(Rule::new(
///     Atom::with_vars("tc", &["x", "y"]),
///     vec![
///         BodyElem::Atom(Atom::with_vars("tc", &["x", "z"])),
///         BodyElem::Atom(Atom::with_vars("edge", &["z", "y"])),
///     ],
/// ));
/// program.add_output("tc");
///
/// let mut db = Database::new();
/// for (a, b) in [(1, 2), (2, 3)] {
///     db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
/// }
/// let tc = DatalogEngine::new().run_output(&program, &db, "tc").unwrap();
/// assert_eq!(tc.len(), 3); // (1,2), (2,3), (1,3)
/// ```
#[derive(Debug, Clone, Default)]
pub struct DatalogEngine {
    /// Fixpoint evaluation strategy.
    pub strategy: EvalStrategy,
}

impl DatalogEngine {
    /// An engine using semi-naive evaluation.
    pub fn new() -> Self {
        DatalogEngine::default()
    }

    /// An engine using naive evaluation: the reference that
    /// `tests/property_tests.rs` and `naive_and_semi_naive_agree` check
    /// semi-naive evaluation against.
    pub fn naive() -> Self {
        DatalogEngine { strategy: EvalStrategy::Naive }
    }

    /// The same engine as [`DatalogEngine::new`]: evaluation runs on the
    /// calling thread whatever the count. Kept only because the benchmark
    /// harness calls it; the next benchmark-only change (ROADMAP item 0)
    /// removes it.
    pub fn with_threads(_threads: usize) -> Self {
        DatalogEngine::new()
    }

    /// Evaluate `program` over the extensional database `edb`.
    pub fn evaluate(&self, program: &DlirProgram, edb: &Database) -> Result<EvalResult> {
        self.evaluate_guarded(program, edb, &QueryGuard::new())
    }

    /// Evaluate `program` over `edb` under an execution guard: the deadline,
    /// budgets and cancellation token of `guard` are checked at fixpoint
    /// rounds, SCC boundaries, after each rule application and periodically
    /// inside join scans. A tripped guard returns [`RaqletError::Timeout`],
    /// [`RaqletError::BudgetExceeded`] or [`RaqletError::Cancelled`] carrying
    /// the partial [`EvalStats`] accumulated so far; `edb` is never modified
    /// either way.
    pub fn evaluate_guarded(
        &self,
        program: &DlirProgram,
        edb: &Database,
        guard: &QueryGuard,
    ) -> Result<EvalResult> {
        // Working database: only the extensional relations the program
        // actually references (in rule bodies or as outputs) are copied in.
        // It shares the extensional database's value dictionary, so the
        // cloned packed arenas are reused verbatim (no re-encoding). Indexes
        // built on them during evaluation live in this working set; the
        // caller's *relations* are never touched. The shared dictionary is
        // the one deliberate exception: program constants (and overflow
        // arithmetic results) are interned into it — append-only metadata
        // that leaves every stored relation and id valid, and that repeat
        // evaluations of the same program never grow again.
        let mut referenced: Vec<&str> = Vec::new();
        for rule in &program.rules {
            for elem in &rule.body {
                let name = match elem {
                    BodyElem::Atom(a) | BodyElem::Negated(a) => a.relation.as_str(),
                    BodyElem::Constraint { .. } => continue,
                };
                if !referenced.contains(&name) {
                    referenced.push(name);
                }
            }
        }
        for out in &program.outputs {
            if !referenced.contains(&out.as_str()) {
                referenced.push(out);
            }
        }
        let mut db = Database::with_dict(edb.dict().clone());
        for name in referenced {
            if let Some(rel) = edb.get(name) {
                db.set(name, rel.clone());
            }
        }

        let stats = self.evaluate_in_place(program, &mut db, guard)?;
        Ok(EvalResult { database: db, stats })
    }

    /// Evaluate `program` directly against `db`, deriving IDB relations in
    /// place. The caller owns the working set: extensional relations are
    /// *not* copied, and the persistent indexes built during evaluation stay
    /// in `db` afterwards — [`crate::PreparedDatabase`] relies on this to
    /// keep a warm working set across executions.
    pub(crate) fn evaluate_in_place(
        &self,
        program: &DlirProgram,
        db: &mut Database,
        guard: &QueryGuard,
    ) -> Result<EvalStats> {
        let plan = ProgramPlan::prepare(program, db.dict())?;
        self.evaluate_plan(&plan, db, guard)
    }

    /// Evaluate a precompiled [`ProgramPlan`] against `db` (the plan-cache
    /// fast path of [`crate::PreparedDatabase`]). The plan must have been
    /// prepared against `db`'s value dictionary.
    pub(crate) fn evaluate_plan(
        &self,
        plan: &ProgramPlan,
        db: &mut Database,
        guard: &QueryGuard,
    ) -> Result<EvalStats> {
        if !std::sync::Arc::ptr_eq(&plan.dict, db.dict()) {
            return Err(RaqletError::execution(
                "program plan was prepared against a different value dictionary",
            ));
        }
        let mut stats = EvalStats { strata: plan.strata.len(), ..Default::default() };

        // Ensure every IDB exists (possibly empty) so downstream negation and
        // outputs behave deterministically.
        for (name, arity) in &plan.idbs {
            db.get_or_create(name, *arity);
        }

        // Materialize exactly the index requirements the compiled join
        // schedules declared (plus lattice merge groups). Joins and
        // negations are read-only from here on: evaluation never builds an
        // undeclared index (`extend_with_atom` keeps a scan fallback as a
        // correctness safety net for relations absent at this point).
        for (name, column_sets) in &plan.required_indexes {
            if let Some(rel) = db.get_mut(name) {
                rel.require_indexes(column_sets);
            }
        }

        for stratum in &plan.strata {
            if stratum.agg_rules.is_empty() && stratum.sccs.is_empty() {
                continue;
            }
            if let Err(e) = self.evaluate_stratum(stratum, db, &mut stats, guard) {
                // Deep checkpoints raise guard trips with empty counters (they
                // cannot see this run's stats); patch the partials in here so
                // callers learn how far evaluation got.
                return Err(e.with_partial_stats(&stats));
            }
        }
        Ok(stats)
    }

    /// Evaluate the output relation of a program directly.
    pub fn run_output(
        &self,
        program: &DlirProgram,
        edb: &Database,
        output: &str,
    ) -> Result<Relation> {
        Ok(self.evaluate(program, edb)?.relation(output))
    }

    fn evaluate_stratum(
        &self,
        stratum: &StratumPlan,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &QueryGuard,
    ) -> Result<()> {
        // Aggregating rules are never recursive, and stratification places
        // everything they read in a strictly lower stratum — so they are
        // evaluated once, *before* the fixpoint rules of this stratum (which
        // may consume their output). Their output is published immediately.
        for plan in &stratum.agg_rules {
            guard.checkpoint(CheckPoint::Scc)?;
            self.fire(plan, db, None, false, stats, guard)?;
        }

        // Components run in dependency order (the condensation of the rule
        // dependency graph is acyclic), so by the time a component runs,
        // everything it reads outside itself — lower strata and earlier
        // components of this stratum — is fully published.
        for scc in &stratum.sccs {
            guard.checkpoint(CheckPoint::Scc)?;
            check_db_memory(guard, db)?;
            stats.sccs += 1;
            if scc.looping {
                stats.looping_sccs += 1;
                self.evaluate_scc_fixpoint(scc, db, stats, guard)?;
            } else {
                // Non-looping component: every rule reads only fully
                // computed relations, so one application per rule derives
                // the complete result — publish directly, no delta
                // machinery.
                for plan in &scc.rules {
                    self.fire(plan, db, None, false, stats, guard)?;
                }
                stats.iterations += 1;
                // Lattice publication announces improvements in the next
                // delta; drop that bookkeeping — nothing iterates here.
                clear_rounds(db, &scc.relations);
            }
        }

        // Leave the relations in a clean full-set-only state so frontier
        // bookkeeping never leaks into later strata or into the results.
        clear_rounds(db, &stratum.relations);
        Ok(())
    }

    /// Iterate one looping component to fixpoint. Round zero evaluates
    /// every rule of the component against the full database, staging its
    /// derivations inside the head relations; [`DatalogEngine::run_rounds`]
    /// publishes them as the first delta and iterates from there.
    pub(crate) fn evaluate_scc_fixpoint(
        &self,
        scc: &SccPlan,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &QueryGuard,
    ) -> Result<()> {
        for plan in &scc.rules {
            self.fire(plan, db, None, true, stats, guard)?;
        }
        self.run_rounds(scc, db, stats, guard)
    }

    /// Publish the rows staged in a component's relations as one round and,
    /// for a looping component, run its delta rounds to fixpoint; then drop
    /// the round bookkeeping. The staged rows are round zero of normal
    /// evaluation, or a frontier seeded by incremental maintenance. The
    /// frontier (delta) bookkeeping is confined to the component's own
    /// relations, and only the component's rules are re-applied per round.
    pub(crate) fn run_rounds(
        &self,
        scc: &SccPlan,
        db: &mut Database,
        stats: &mut EvalStats,
        guard: &QueryGuard,
    ) -> Result<()> {
        loop {
            stats.iterations += 1;
            let mut any_new = false;
            for name in &scc.relations {
                if let Some(rel) = db.get_mut(name) {
                    any_new |= rel.advance() > 0;
                }
            }
            if !any_new || !scc.looping {
                break;
            }
            // Each recursive atom occurrence drives one delta-first join
            // against the persistent indexes on the stable sets.
            guard.checkpoint(CheckPoint::FixpointRound)?;
            check_db_memory(guard, db)?;
            for plan in &scc.rules {
                if plan.recursive_positions.is_empty() {
                    continue;
                }
                match self.strategy {
                    EvalStrategy::Naive => {
                        self.fire(plan, db, None, true, stats, guard)?;
                    }
                    EvalStrategy::SemiNaive => {
                        // One evaluation per recursive atom occurrence,
                        // scanning the delta for that occurrence.
                        for &pos in &plan.recursive_positions {
                            let delta_empty = match &plan.body[pos] {
                                PlanElem::Atom(a) => {
                                    db.get(&a.relation).is_none_or(|r| r.delta_is_empty())
                                }
                                _ => true,
                            };
                            if !delta_empty {
                                self.fire(plan, db, Some(pos), true, stats, guard)?;
                            }
                        }
                    }
                }
            }
        }
        clear_rounds(db, &scc.relations);
        Ok(())
    }

    /// One counted rule application: [`apply_rule`], a guard checkpoint,
    /// then [`store_derived`] into the head relation (staged for the next
    /// [`Relation::advance`] when `stage`, else published). Returns
    /// the derived rows. The checkpoint bounds the unchecked stretch of a
    /// round: a join of fewer than [`JOIN_SCAN_PERIOD`] candidates ticks no
    /// `JoinScan` check of its own, and the staging after it is unchecked.
    pub(crate) fn fire(
        &self,
        plan: &RulePlan,
        db: &mut Database,
        delta_pos: Option<usize>,
        stage: bool,
        stats: &mut EvalStats,
        guard: &QueryGuard,
    ) -> Result<Derived> {
        stats.rule_applications += 1;
        let derived = apply_rule(plan, db, delta_pos, guard)?;
        stats.tuples_derived += derived.rows;
        guard.checkpoint(CheckPoint::JoinScan)?;
        store_derived(plan, db, &derived, stage)?;
        Ok(derived)
    }
}

/// Evaluate one rule, returning the derived head rows (packed). When
/// `delta_pos` is given, the positive atom at that body position is
/// pinned to the relation's delta (its previous-round frontier) and
/// drives the join; otherwise the join runs the compiled schedule over
/// the full relations.
pub(crate) fn apply_rule(
    plan: &RulePlan,
    db: &Database,
    delta_pos: Option<usize>,
    guard: &QueryGuard,
) -> Result<Derived> {
    // The join order and probe-column schedule were computed once at
    // compile time ([`RulePlan::compile`]); every index they name was
    // materialized up front by [`DatalogEngine::evaluate_plan`].
    let schedule = plan.schedule_for(delta_pos);
    let pin = delta_pos.and_then(|pos| {
        let PlanElem::Atom(atom) = &plan.body[pos] else {
            unreachable!("delta position always names a positive atom")
        };
        db.get(&atom.relation).map(|r| Pin { pos, rows: r.delta_cells(), stride: r.stride() })
    });
    let out = derive(plan, db, schedule, pin.as_slice(), &[], guard)?;
    guard.add_tuples(out.rows);
    Ok(out)
}

/// Drop the round (delta and staging) bookkeeping of the named relations.
fn clear_rounds(db: &mut Database, relations: &[String]) {
    for name in relations {
        if let Some(rel) = db.get_mut(name) {
            rel.clear_rounds();
        }
    }
}

/// Packed head rows derived by one rule application: `rows` stride-wide
/// rows, concatenated (stride = head arity, or 1 for nullary heads).
pub(crate) struct Derived {
    pub(crate) cells: Vec<Cell>,
    pub(crate) rows: usize,
    pub(crate) stride: usize,
}

impl Derived {
    fn new(stride: usize) -> Derived {
        Derived { cells: Vec::new(), rows: 0, stride }
    }
}

/// Derive head rows on the current thread: [`join`] the body through
/// `schedule` with the given pins into one packed [`Envs`] buffer, then
/// instantiate the head once per environment row, or aggregate the rows
/// when the rule aggregates. Every rule application — evaluation's, every
/// incremental-maintenance join that produces rows, and every SQL-sim
/// SELECT — goes through here. A probe whose index is missing scans
/// instead; Datalog evaluation builds every index the schedule probes up
/// front (see [`DatalogEngine::evaluate_plan`]).
pub(crate) fn derive(
    plan: &RulePlan,
    db: &Database,
    schedule: &JoinSchedule,
    pins: &[Pin],
    skip_negations: &[usize],
    guard: &QueryGuard,
) -> Result<Derived> {
    let bindings = join(plan, db, schedule, pins, None, skip_negations, guard)?;
    match &plan.agg {
        None => {
            let mut out = Derived::new(plan.head_stride());
            out.cells.reserve(bindings.len() * out.stride);
            for env in bindings.rows() {
                instantiate_head(plan, env, &mut out)?;
            }
            Ok(out)
        }
        Some(agg) => aggregate(plan, agg, &bindings, &plan.dict),
    }
}

/// One pinned body position of a join: the atom at `pos` — positive, or
/// negated for incremental maintenance's negation seeding — ranges over the
/// given packed rows instead of its stored relation. The rows are a delta
/// snapshot, an arena slice (which may hold tombstoned rows, skipped by the
/// join) or an incremental-maintenance change set.
#[derive(Clone, Copy)]
pub(crate) struct Pin<'a> {
    /// Body position of the pinned atom.
    pub(crate) pos: usize,
    /// The stride-wide packed rows the atom ranges over.
    pub(crate) rows: &'a [Cell],
    /// Row stride of `rows`.
    pub(crate) stride: usize,
}

/// The one join of the engine crate, for Datalog rules and SQL-sim's
/// SELECTs alike: join a rule body through a compiled `schedule`, apply its
/// constraints and negations, and return the slot environments satisfying
/// it, packed back to back in one [`Envs`] buffer.
/// Read-only over the database — every index the schedule probes was
/// materialized by [`DatalogEngine::evaluate_plan`] (or
/// [`crate::PreparedDatabase::install_view`] for the maintenance schedules).
///
/// Pinned atoms bind first, in pin order (cross product across pins); every
/// other positive atom then probes the database's current state in the
/// schedule's order. Evaluation pins at most one atom — the delta, whose
/// atom the schedule already orders first. Incremental maintenance pins the
/// net changes of the signed multilinear delta expansion, DRed's
/// over-deletion and insert propagation, and passes the schedule compiled
/// for its first pinned positive atom: pre-binding extra
/// pins only grows the bound-variable set, and a probe column set is sound
/// under any superset of the bindings it was planned for.
///
/// `skip_negations` suppresses the negation checks at the given body
/// indices — DRed over-deletion skips every negation over a changed
/// relation (the old state may have satisfied it), and seeding from a
/// freshly inserted negated row skips its own position (the check would
/// veto every binding it produced). `init` replaces the initial unbound
/// environment (DRed's backward re-derivation check seeds it from a
/// candidate head row, `nvars` cells).
///
/// The buffer holds one row per derivation path, in the order a nested-loop
/// scan of the schedule meets them — exactly what derivation counting
/// needs; set-semantics callers deduplicate at staging time.
pub(crate) fn join(
    plan: &RulePlan,
    db: &Database,
    schedule: &JoinSchedule,
    pins: &[Pin],
    init: Option<Vec<Cell>>,
    skip_negations: &[usize],
    guard: &QueryGuard,
) -> Result<Envs> {
    let stride = plan.nvars.max(1);
    let mut cells = init.unwrap_or_else(|| vec![UNBOUND_CELL; plan.nvars]);
    cells.resize(stride, UNBOUND_CELL);
    let mut envs = Envs { stride, cells };
    let mut pending_constraints: Vec<usize> = plan
        .body
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, PlanElem::Constraint { .. }))
        .map(|(i, _)| i)
        .collect();

    // Constraints evaluable before any atom (constant comparisons and
    // `x = <const expr>` assignments, e.g. magic-seed rules).
    apply_ready_constraints(&mut envs, plan, &mut pending_constraints);

    let pinned = pins.iter().map(|pin| (pin.pos, Some(*pin)));
    let probed = schedule
        .order
        .iter()
        .filter(|&&idx| !pins.iter().any(|p| p.pos == idx))
        .map(|&idx| (idx, None));
    for (idx, pin) in pinned.chain(probed) {
        let (PlanElem::Atom(atom) | PlanElem::Negated(atom)) = &plan.body[idx] else {
            return Err(RaqletError::execution("pinned position must name an atom"));
        };
        envs = extend_with_atom(&envs, atom, db, pin, &schedule.prep.atom_columns[idx], guard)?;
        if envs.is_empty() {
            return Ok(envs);
        }
        apply_ready_constraints(&mut envs, plan, &mut pending_constraints);
        if envs.is_empty() {
            return Ok(envs);
        }
    }

    // Remaining constraints must now be evaluable.
    if let Some(first) = envs.first() {
        for &idx in &pending_constraints {
            let PlanElem::Constraint { lhs, rhs, src, .. } = &plan.body[idx] else { continue };
            if !expr_ready(first, lhs) || !expr_ready(first, rhs) {
                return Err(RaqletError::execution(format!(
                    "constraint `{src}` in rule `{}` references unbound variables",
                    plan.rule_src
                )));
            }
        }
    }

    // Negation.
    for (idx, elem) in plan.body.iter().enumerate() {
        let PlanElem::Negated(atom) = elem else { continue };
        if skip_negations.contains(&idx) {
            continue;
        }
        apply_negation(&mut envs, atom, db, schedule.prep.negation_columns[idx].as_deref());
        if envs.is_empty() {
            return Ok(envs);
        }
    }
    Ok(envs)
}

/// Plan one rule application **at compile time**: compute the greedy
/// bound-first processing order of the rule's positive atoms (the delta
/// atom, if any, drives; then most-bound-columns-first, ties towards the
/// earliest body position) together with the probe-column schedule of every
/// atom and fully-bound negation. Bound-slot progression is simulated
/// statically, including the bindings contributed by `=` assignment
/// constraints as they become ready; this simulation agrees exactly with
/// the runtime binding behaviour of `apply_ready_constraints`, so the
/// returned [`JoinPrep`] column sets are precisely what the (read-only)
/// join probes. No index is built here — the schedule *declares* the
/// (relation, columns) index requirements, which [`ProgramPlan::prepare`]
/// aggregates and [`DatalogEngine::evaluate_plan`] materializes once up
/// front.
fn plan_join_static(body: &[PlanElem], nvars: usize, delta_pos: Option<usize>) -> JoinSchedule {
    let mut prep = JoinPrep {
        atom_columns: vec![Vec::new(); body.len()],
        negation_columns: vec![None; body.len()],
    };
    let mut bound = vec![false; nvars];
    let mut order: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = body
        .iter()
        .enumerate()
        .filter(|(i, e)| matches!(e, PlanElem::Atom(_)) && delta_pos != Some(*i))
        .map(|(i, _)| i)
        .collect();

    propagate_assignments(body, &mut bound);
    if let Some(p) = delta_pos {
        order.push(p);
        if let PlanElem::Atom(atom) = &body[p] {
            mark_atom(atom, &mut bound);
        }
        propagate_assignments(body, &mut bound);
    }

    while !remaining.is_empty() {
        // Score: number of columns bound under the current variable set,
        // ties towards the earliest body position. `max_by_key` keeps the
        // *last* maximal element, so the position enters the key reversed:
        // among equal bound-column counts the smallest body index wins.
        // The loop guard proves `remaining` non-empty, so a maximum exists.
        #[allow(clippy::expect_used)]
        let (best_i, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                let PlanElem::Atom(atom) = &body[idx] else { unreachable!() };
                let bound_cols = atom
                    .terms
                    .iter()
                    .filter(|t| match t {
                        PlanTerm::Slot(s) => bound[*s],
                        PlanTerm::Const(_) => true,
                        PlanTerm::Wildcard => false,
                    })
                    .count();
                (i, (bound_cols, std::cmp::Reverse(idx)))
            })
            .max_by_key(|(_, score)| *score)
            .expect("remaining is non-empty");
        let idx = remaining.swap_remove(best_i);
        order.push(idx);
        if let PlanElem::Atom(atom) = &body[idx] {
            // The columns the join will probe this atom with are exactly the
            // ones bound right now.
            let columns: Vec<usize> = atom
                .terms
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    PlanTerm::Slot(s) => bound[*s],
                    PlanTerm::Const(_) => true,
                    PlanTerm::Wildcard => false,
                })
                .map(|(i, _)| i)
                .collect();
            prep.atom_columns[idx] = columns;
            mark_atom(atom, &mut bound);
        }
        propagate_assignments(body, &mut bound);
    }

    // Negations run after every atom; when fully bound by then, they probe
    // an index over their non-wildcard columns.
    for (idx, elem) in body.iter().enumerate() {
        let PlanElem::Negated(atom) = elem else { continue };
        let all_vars_bound =
            atom.terms.iter().all(|t| !matches!(t, PlanTerm::Slot(s) if !bound[*s]));
        if !all_vars_bound {
            continue;
        }
        let columns: Vec<usize> = atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t, PlanTerm::Wildcard))
            .map(|(i, _)| i)
            .collect();
        if !columns.is_empty() {
            prep.negation_columns[idx] = Some(columns);
        }
    }
    JoinSchedule { order, prep }
}

/// Mark every slot the atom binds.
fn mark_atom(atom: &PlanAtom, bound: &mut [bool]) {
    for t in &atom.terms {
        if let PlanTerm::Slot(s) = t {
            bound[*s] = true;
        }
    }
}

/// Propagate `slot = <ready expr>` assignment constraints into the bound
/// set, to fixpoint. Shared by the static bound-slot simulations of
/// `plan_join_static`, which must agree exactly with the runtime binding
/// behaviour of `apply_ready_constraints`.
fn propagate_assignments(body: &[PlanElem], bound: &mut [bool]) {
    loop {
        let mut changed = false;
        for elem in body {
            let PlanElem::Constraint { op, lhs, rhs, .. } = elem else { continue };
            if *op != raqlet_dlir::CmpOp::Eq {
                continue;
            }
            match (lhs, rhs) {
                (PlanExpr::Slot(s), e) | (e, PlanExpr::Slot(s))
                    if !bound[*s] && expr_slots_bound(e, bound) =>
                {
                    bound[*s] = true;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
}

/// The per-rule-application probe schedule: which columns each body element
/// probes with, computed once at compile time by `plan_join_static` and
/// reused by every application.
#[derive(Debug, Clone)]
pub(crate) struct JoinPrep {
    /// For each body index holding a positive atom: the columns bound when
    /// the atom is reached in the prepared order (empty = plain scan; the
    /// driving atom always scans its slice).
    atom_columns: Vec<Vec<usize>>,
    /// For each body index holding a negation: `Some(columns)` when every
    /// variable is bound by then (probe the index over those columns),
    /// `None` for the scan fallback.
    negation_columns: Vec<Option<Vec<usize>>>,
}

/// One compiled join schedule: the atom processing order plus the probe
/// columns of every body element. A rule carries one base schedule
/// (round-zero / naive / aggregate applications) and one per candidate
/// delta driver.
#[derive(Debug, Clone)]
pub(crate) struct JoinSchedule {
    pub(crate) order: Vec<usize>,
    prep: JoinPrep,
}

impl JoinSchedule {
    /// Every (relation, columns) index the schedule probes `body` with: the
    /// bound columns of each probed atom and fully bound negation.
    pub(crate) fn probes<'a>(
        &'a self,
        body: &'a [PlanElem],
    ) -> impl Iterator<Item = (&'a str, &'a [usize])> + 'a {
        body.iter().enumerate().filter_map(move |(idx, elem)| {
            let (relation, columns) = match elem {
                PlanElem::Atom(atom) => (&atom.relation, Some(&self.prep.atom_columns[idx])),
                PlanElem::Negated(atom) => {
                    (&atom.relation, self.prep.negation_columns[idx].as_ref())
                }
                PlanElem::Constraint { .. } => return None,
            };
            columns.filter(|c| !c.is_empty()).map(|c| (relation.as_str(), c.as_slice()))
        })
    }
}

/// True if every slot of the expression is marked bound.
fn expr_slots_bound(expr: &PlanExpr, bound: &[bool]) -> bool {
    match expr {
        PlanExpr::Slot(s) => bound[*s],
        PlanExpr::Const(..) => true,
        PlanExpr::Arith { lhs, rhs, .. } => {
            expr_slots_bound(lhs, bound) && expr_slots_bound(rhs, bound)
        }
    }
}

/// Fire every pending constraint whose slots are bound: comparisons filter
/// the environments, `=` with exactly one unbound bare-slot side assigns it.
/// Repeats until no constraint fires (an assignment can ready another
/// constraint). All environments bind the same slot set by construction, so
/// readiness is checked once on the first.
fn apply_ready_constraints(envs: &mut Envs, plan: &RulePlan, pending: &mut Vec<usize>) {
    loop {
        let mut fired = false;
        pending.retain(|&idx| {
            let PlanElem::Constraint { op, lhs, rhs, .. } = &plan.body[idx] else { return false };
            let Some(first) = envs.first() else { return true };
            let l_ready = expr_ready(first, lhs);
            let r_ready = expr_ready(first, rhs);
            if l_ready && r_ready {
                envs.retain(|e| eval_constraint(e, *op, lhs, rhs, &plan.dict).unwrap_or(false));
                fired = true;
                return false;
            }
            // Assignment forms: `x = <expr>` with exactly one side unbound.
            if *op == raqlet_dlir::CmpOp::Eq {
                let assign: Option<(usize, &PlanExpr)> = match (lhs, rhs) {
                    (PlanExpr::Slot(s), e) if !l_ready && r_ready => Some((*s, e)),
                    (e, PlanExpr::Slot(s)) if !r_ready && l_ready => Some((*s, e)),
                    _ => None,
                };
                if let Some((slot, expr)) = assign {
                    // The expression is slot-ready; a value error (a NULL
                    // operand, overflow, division by zero) makes it NULL.
                    // When a positive atom binds the slot too, the planner
                    // runs a comparison as an assignment, and `x = NULL` is
                    // NULL whatever the atom holds: no derivation. Either
                    // way every surviving environment binds the slot, so
                    // the all-envs-bind-the-same-slots invariant holds.
                    let compared = plan.body.iter().any(|e| {
                        let PlanElem::Atom(a) = e else { return false };
                        a.terms.iter().any(|t| matches!(t, PlanTerm::Slot(s) if *s == slot))
                    });
                    let dict = &plan.dict;
                    envs.retain(|env| {
                        let cell = eval_expr_cell(env, expr, dict).unwrap_or(NULL_CELL);
                        env[slot] = cell;
                        !(compared && cell == NULL_CELL)
                    });
                    fired = true;
                    return false;
                }
            }
            true
        });
        if !fired {
            break;
        }
    }
}

/// The slot environments of a join, packed back to back: row `r` is
/// `cells[r * stride..][..stride]`, one cell per rule variable
/// ([`UNBOUND_CELL`] while unbound). `stride = max(nvars, 1)`, so a
/// variable-free rule still gets one row per binding.
pub(crate) struct Envs {
    stride: usize,
    cells: Vec<Cell>,
}

impl Envs {
    fn len(&self) -> usize {
        self.cells.len() / self.stride
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn first(&self) -> Option<&[Cell]> {
        self.cells.get(..self.stride)
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, Cell> {
        self.cells.chunks_exact(self.stride)
    }

    /// Keep the rows `keep` accepts, in order, compacting in place; `keep`
    /// may rewrite the row it is shown.
    fn retain(&mut self, mut keep: impl FnMut(&mut [Cell]) -> bool) {
        let stride = self.stride;
        let mut kept = 0;
        for r in 0..self.len() {
            if keep(&mut self.cells[r * stride..][..stride]) {
                self.cells.copy_within(r * stride..(r + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        self.cells.truncate(kept * stride);
    }
}

/// A body/head term resolved against the rule's variable slot table, with
/// constants pre-encoded to packed cells.
#[derive(Debug, Clone)]
pub(crate) enum PlanTerm {
    /// A variable, identified by its slot.
    Slot(usize),
    /// A constant, encoded against the plan's dictionary.
    Const(Cell),
    /// An anonymous term matching anything.
    Wildcard,
}

/// An atom with slot-resolved terms.
#[derive(Debug, Clone)]
pub(crate) struct PlanAtom {
    pub(crate) relation: String,
    pub(crate) terms: Vec<PlanTerm>,
}

impl PlanAtom {
    fn arity(&self) -> usize {
        self.terms.len()
    }
}

/// A constraint expression with slot-resolved variables. Constants carry
/// both the value (for arithmetic/ordering) and its packed encoding (for
/// equality fast paths and assignment).
#[derive(Debug, Clone)]
pub(crate) enum PlanExpr {
    Slot(usize),
    Const(Value, Cell),
    Arith { op: raqlet_dlir::ArithOp, lhs: Box<PlanExpr>, rhs: Box<PlanExpr> },
}

/// One body element of a compiled rule, aligned with `Rule::body` indices.
#[derive(Debug, Clone)]
pub(crate) enum PlanElem {
    Atom(PlanAtom),
    Constraint { op: raqlet_dlir::CmpOp, lhs: PlanExpr, rhs: PlanExpr, src: String },
    Negated(PlanAtom),
}

/// Slot-resolved aggregation spec.
#[derive(Debug, Clone)]
pub(crate) struct PlanAgg {
    func: raqlet_dlir::AggFunc,
    input: Option<usize>,
    output: usize,
    group_by: Vec<usize>,
}

/// A rule precompiled against a variable slot table and a value dictionary:
/// every variable name is replaced by a dense slot index and every constant
/// by its packed cell, so environments are flat `u64` vectors.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    /// Head relation name.
    pub(crate) head_relation: String,
    /// Head arity.
    pub(crate) head_arity: usize,
    /// Merge semantics of the head relation.
    pub(crate) lattice: LatticeMerge,
    /// Body positions holding positive atoms over this rule's own strongly
    /// connected component (the candidate delta drivers). Empty for rules
    /// of non-looping components.
    pub(crate) recursive_positions: Vec<usize>,
    /// The compiled join schedule for full (round-zero / naive / aggregate)
    /// applications.
    base_schedule: JoinSchedule,
    /// One compiled schedule per recursive position, keyed by that body
    /// position (the delta driver).
    delta_schedules: Vec<(usize, JoinSchedule)>,
    /// One compiled schedule per *non-recursive* positive position, keyed by
    /// that body position. Normal evaluation never drives from these — they
    /// exist for incremental maintenance, where any positive atom may carry
    /// the external delta. Computed lazily on first use (cold
    /// [`DatalogEngine::evaluate`] compiles plans per call, and eagerly
    /// compiling a schedule per body position measurably slowed small cold
    /// queries), and their index requirements are kept out of
    /// [`ProgramPlan::required_indexes`] (folded into the separate
    /// [`ProgramPlan::ivm_required_indexes`] set) so plain evaluation
    /// neither plans nor materializes anything it will not probe.
    ivm_schedules: std::sync::Arc<std::sync::OnceLock<Vec<(usize, JoinSchedule)>>>,
    /// The rule's source text, for error messages.
    pub(crate) rule_src: String,
    pub(crate) nvars: usize,
    /// Slot → variable name, for error messages.
    var_names: Vec<String>,
    pub(crate) body: Vec<PlanElem>,
    pub(crate) head: Vec<PlanTerm>,
    pub(crate) agg: Option<PlanAgg>,
    /// The dictionary constants were encoded against.
    pub(crate) dict: std::sync::Arc<ValueDict>,
}

impl RulePlan {
    /// Stride of the packed head rows this plan derives.
    pub(crate) fn head_stride(&self) -> usize {
        self.head_arity.max(1)
    }

    /// The compiled join schedule for the given delta driver (`None` = the
    /// base schedule).
    // Plan compilation builds one delta schedule per recursive body position
    // before any evaluation runs; a miss is a plan-construction bug, not a
    // runtime condition.
    #[allow(clippy::expect_used)]
    pub(crate) fn schedule_for(&self, delta_pos: Option<usize>) -> &JoinSchedule {
        match delta_pos {
            None => &self.base_schedule,
            Some(pos) => {
                &self
                    .delta_schedules
                    .iter()
                    .find(|(p, _)| *p == pos)
                    .expect("delta position was compiled into the plan")
                    .1
            }
        }
    }

    /// The lazily compiled per-position maintenance schedules (see the
    /// `ivm_schedules` field).
    fn ivm_position_schedules(&self) -> &[(usize, JoinSchedule)] {
        self.ivm_schedules.get_or_init(|| {
            self.body
                .iter()
                .enumerate()
                .filter(|(pos, elem)| {
                    matches!(elem, PlanElem::Atom(_)) && !self.recursive_positions.contains(pos)
                })
                .map(|(pos, _)| (pos, plan_join_static(&self.body, self.nvars, Some(pos))))
                .collect()
        })
    }

    /// The compiled join schedule driving from the positive atom at `pos` —
    /// a recursive (delta) schedule or an incremental-maintenance one.
    // Recursive positions carry a delta schedule and every other positive
    // position a lazily compiled maintenance schedule; a miss is a
    // plan-construction bug.
    #[allow(clippy::expect_used)]
    pub(crate) fn ivm_schedule_for(&self, pos: usize) -> &JoinSchedule {
        self.delta_schedules
            .iter()
            .chain(self.ivm_position_schedules().iter())
            .find(|(p, _)| *p == pos)
            .map(|(_, s)| s)
            .expect("every positive body position carries a compiled schedule")
    }

    /// Record every (relation, probe columns) pair this rule's schedules —
    /// and its head's lattice merge — need an index for. With `ivm`, the
    /// per-position incremental-maintenance schedules count too.
    fn collect_required_indexes(&self, required: &mut IndexRequirements, ivm: bool) {
        let ivm_schedules: &[(usize, JoinSchedule)] =
            if ivm { self.ivm_position_schedules() } else { &[] };
        let schedules = std::iter::once(&self.base_schedule)
            .chain(self.delta_schedules.iter().chain(ivm_schedules).map(|(_, s)| s));
        for schedule in schedules {
            for (relation, columns) in schedule.probes(&self.body) {
                required.entry(relation.to_string()).or_default().insert(columns.to_vec());
            }
        }
        // Lattice heads group on every column except the merge column when
        // tuples are staged/published (see `Relation::lattice_insert_cells`).
        if let LatticeMerge::MinOnColumn(col) | LatticeMerge::MaxOnColumn(col) = self.lattice {
            let group_cols: Vec<usize> = (0..self.head_arity).filter(|&i| i != col).collect();
            required.entry(self.head_relation.clone()).or_default().insert(group_cols);
        }
    }
}

/// The variable slot table built up while compiling a rule.
#[derive(Default)]
struct SlotTable {
    slots: HashMap<String, usize>,
    var_names: Vec<String>,
}

impl SlotTable {
    fn slot_of(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.var_names.len();
        self.slots.insert(name.to_string(), s);
        self.var_names.push(name.to_string());
        s
    }

    fn compile_term(&mut self, t: &Term, dict: &ValueDict) -> PlanTerm {
        match t {
            Term::Var(v) => PlanTerm::Slot(self.slot_of(v)),
            Term::Const(c) => PlanTerm::Const(dict.encode_value(c)),
            Term::Wildcard => PlanTerm::Wildcard,
        }
    }

    fn compile_atom(&mut self, a: &Atom, dict: &ValueDict) -> PlanAtom {
        PlanAtom {
            relation: a.relation.clone(),
            terms: a.terms.iter().map(|t| self.compile_term(t, dict)).collect(),
        }
    }

    fn compile_expr(&mut self, expr: &DlExpr, dict: &ValueDict) -> PlanExpr {
        match expr {
            DlExpr::Var(v) => PlanExpr::Slot(self.slot_of(v)),
            DlExpr::Const(c) => PlanExpr::Const(c.clone(), dict.encode_value(c)),
            DlExpr::Arith { op, lhs, rhs } => PlanExpr::Arith {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs, dict)),
                rhs: Box::new(self.compile_expr(rhs, dict)),
            },
        }
    }
}

impl RulePlan {
    /// Compile `rule` against a fresh slot table: a base schedule, and a
    /// delta schedule for each positive atom over `scc_relations`.
    pub(crate) fn compile(
        rule: &Rule,
        dict: &std::sync::Arc<ValueDict>,
        scc_relations: &[String],
        lattice: LatticeMerge,
    ) -> RulePlan {
        let mut table = SlotTable::default();

        let mut body = Vec::with_capacity(rule.body.len());
        for elem in &rule.body {
            body.push(match elem {
                BodyElem::Atom(a) => PlanElem::Atom(table.compile_atom(a, dict)),
                BodyElem::Negated(a) => PlanElem::Negated(table.compile_atom(a, dict)),
                BodyElem::Constraint { op, lhs, rhs } => PlanElem::Constraint {
                    op: *op,
                    lhs: table.compile_expr(lhs, dict),
                    rhs: table.compile_expr(rhs, dict),
                    src: elem.to_string(),
                },
            });
        }

        let head: Vec<PlanTerm> =
            rule.head.terms.iter().map(|t| table.compile_term(t, dict)).collect();

        let agg = rule.aggregation.as_ref().map(|a: &Aggregation| PlanAgg {
            func: a.func,
            input: a.input_var.as_ref().map(|v| table.slot_of(v)),
            output: table.slot_of(&a.output_var),
            group_by: a.group_by.iter().map(|v| table.slot_of(v)).collect(),
        });

        let recursive_positions: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter_map(|(p, b)| match b.as_positive_atom() {
                Some(a) if scc_relations.contains(&a.relation) => Some(p),
                _ => None,
            })
            .collect();

        let nvars = table.var_names.len();
        let base_schedule = plan_join_static(&body, nvars, None);
        let delta_schedules: Vec<(usize, JoinSchedule)> = recursive_positions
            .iter()
            .map(|&pos| (pos, plan_join_static(&body, nvars, Some(pos))))
            .collect();
        RulePlan {
            head_relation: rule.head.relation.clone(),
            head_arity: rule.head.arity(),
            lattice,
            recursive_positions,
            base_schedule,
            delta_schedules,
            ivm_schedules: std::sync::Arc::new(std::sync::OnceLock::new()),
            rule_src: rule.to_string(),
            nvars,
            var_names: table.var_names,
            body,
            head,
            agg,
            dict: dict.clone(),
        }
    }
}

/// One strongly connected component of a stratum's rule dependency graph:
/// the unit of fixpoint evaluation.
#[derive(Debug)]
pub(crate) struct SccPlan {
    /// Relations derived in this component (whose deltas matter while the
    /// component iterates).
    pub(crate) relations: Vec<String>,
    /// True when the component needs fixpoint rounds beyond round zero
    /// (self- or mutual recursion); non-looping components evaluate in
    /// exactly one round with no delta machinery.
    pub(crate) looping: bool,
    /// The component's fixpoint rules, in program order.
    pub(crate) rules: Vec<RulePlan>,
}

/// One stratum of a precompiled program: aggregating rules, then the
/// condensation of the stratum's rule dependency graph in dependency order.
#[derive(Debug)]
pub(crate) struct StratumPlan {
    /// Relations derived in this stratum.
    pub(crate) relations: Vec<String>,
    /// Aggregating rules (evaluated once, published immediately).
    pub(crate) agg_rules: Vec<RulePlan>,
    /// The stratum's strongly connected components, dependencies first.
    pub(crate) sccs: Vec<SccPlan>,
}

/// Per relation, the probe column sets compiled join schedules need an
/// index over.
type IndexRequirements = std::collections::BTreeMap<String, std::collections::BTreeSet<Vec<usize>>>;

/// A whole program, validated, stratified and compiled to slot/cell form —
/// everything [`DatalogEngine::evaluate`] needs that does not depend on the
/// data. [`crate::PreparedDatabase`] memoizes these per program fingerprint
/// so warm executions skip validation, stratification and rule compilation
/// entirely.
#[derive(Debug)]
pub(crate) struct ProgramPlan {
    /// Every IDB with its arity (created as empty relations up front).
    pub(crate) idbs: Vec<(String, usize)>,
    pub(crate) strata: Vec<StratumPlan>,
    /// Every persistent index evaluation will probe, per relation: the
    /// union of the probe columns of every compiled join schedule plus the
    /// merge-group columns of lattice heads. [`DatalogEngine::evaluate_plan`]
    /// materializes these once, up front; nothing else builds indexes.
    required_indexes: Vec<(String, Vec<Vec<usize>>)>,
    /// The dictionary constants were encoded against; evaluation must run
    /// against a database sharing it.
    dict: std::sync::Arc<ValueDict>,
}

impl ProgramPlan {
    /// Validate, stratify and compile `program`, encoding constants against
    /// `dict`. Within each stratum the rule dependency graph is condensed
    /// into strongly connected components (dependencies first), each rule is
    /// compiled against its own component's member set, and the
    /// per-relation index requirements of every join schedule are collected.
    pub(crate) fn prepare(
        program: &DlirProgram,
        dict: &std::sync::Arc<ValueDict>,
    ) -> Result<ProgramPlan> {
        raqlet_dlir::validate(program)?;
        let graph = DepGraph::build(program);
        let stratification = stratify_with(program, &graph)?;

        let idbs: Vec<(String, usize)> = program
            .idb_names()
            .into_iter()
            .map(|idb| {
                let arity = program.rules_for(&idb).first().map(|r| r.head.arity()).unwrap_or(0);
                (idb, arity)
            })
            .collect();

        let mut required = IndexRequirements::new();
        let mut strata = Vec::with_capacity(stratification.len());
        for stratum in &stratification.strata {
            let rules: Vec<&Rule> =
                program.rules.iter().filter(|r| stratum.contains(&r.head.relation)).collect();
            let mut relations: Vec<String> = Vec::new();
            for rule in &rules {
                if !relations.contains(&rule.head.relation) {
                    relations.push(rule.head.relation.clone());
                }
            }
            let mut agg_rules = Vec::new();
            let mut sccs = Vec::new();
            for group in graph.condense(&relations) {
                let mut scc_rules = Vec::new();
                for rule in &rules {
                    if !group.relations.contains(&rule.head.relation) {
                        continue;
                    }
                    let plan = RulePlan::compile(
                        rule,
                        dict,
                        &group.relations,
                        program.lattice_for(&rule.head.relation),
                    );
                    plan.collect_required_indexes(&mut required, false);
                    if plan.agg.is_some() {
                        agg_rules.push(plan);
                    } else {
                        scc_rules.push(plan);
                    }
                }
                if !scc_rules.is_empty() {
                    sccs.push(SccPlan {
                        relations: group.relations,
                        looping: group.looping,
                        rules: scc_rules,
                    });
                }
            }
            strata.push(StratumPlan { relations, agg_rules, sccs });
        }
        let required_indexes: Vec<(String, Vec<Vec<usize>>)> =
            required.into_iter().map(|(name, sets)| (name, sets.into_iter().collect())).collect();
        Ok(ProgramPlan { idbs, strata, required_indexes, dict: dict.clone() })
    }

    /// The index requirements of the compiled join schedules, per relation.
    pub(crate) fn required_indexes(&self) -> &[(String, Vec<Vec<usize>>)] {
        &self.required_indexes
    }

    /// The index requirements of incremental maintenance: those of
    /// [`ProgramPlan::required_indexes`] plus the probe columns of every
    /// per-position maintenance schedule. Computed on demand — the
    /// per-position schedules are lazy, and only
    /// [`crate::PreparedDatabase::install_view`] (a once-per-view call)
    /// needs this superset.
    pub(crate) fn ivm_required_indexes(&self) -> Vec<(String, Vec<Vec<usize>>)> {
        let mut required = IndexRequirements::new();
        for stratum in &self.strata {
            for plan in stratum.agg_rules.iter().chain(stratum.sccs.iter().flat_map(|s| &s.rules)) {
                plan.collect_required_indexes(&mut required, true);
            }
        }
        required.into_iter().map(|(name, sets)| (name, sets.into_iter().collect())).collect()
    }

    /// True when `name` is derived by this program (an IDB head).
    pub(crate) fn is_idb(&self, name: &str) -> bool {
        self.idbs.iter().any(|(idb, _)| idb == name)
    }
}

/// Extend each environment with every tuple of the atom's relation that
/// matches `atom` under the environment, writing the extensions straight
/// into a new packed buffer in (environment, candidate) order. With a pin
/// (`scan`), the candidate rows come from the pin's packed slice (a delta,
/// an arena slice — tombstoned rows are skipped — or a maintenance change
/// set); otherwise `bound_columns` (the probe columns `plan_join_static`
/// compiled, equal to the columns bound in every environment at this point)
/// probe the persistent hash index that [`DatalogEngine::evaluate_plan`]
/// materialized, falling back to a scan if absent.
fn extend_with_atom(
    envs: &Envs,
    atom: &PlanAtom,
    db: &Database,
    scan: Option<Pin>,
    bound_columns: &[usize],
    guard: &QueryGuard,
) -> Result<Envs> {
    {
        let arity = db.get(&atom.relation).map(|r| r.arity()).unwrap_or(atom.arity());
        let empty = db.get(&atom.relation).is_none_or(|r| r.is_empty());
        if arity != atom.arity() && !empty {
            return Err(RaqletError::execution(format!(
                "atom over `{}` has arity {} but the relation has arity {}",
                atom.relation,
                atom.arity(),
                arity
            )));
        }
    }

    let mut out = Envs { stride: envs.stride, cells: Vec::new() };
    let Some(relation) = db.get(&atom.relation) else { return Ok(out) };

    // Deadline/cancellation latency must be bounded even when one rule
    // application joins millions of candidate rows in a single round: tick
    // a local counter per candidate and consult the guard every
    // `JOIN_SCAN_PERIOD` candidates (one untaken branch per row when the
    // guard is unarmed).
    let mut ticker: u64 = 0;
    let mut tick = move || -> Result<()> {
        ticker += 1;
        if ticker.is_multiple_of(JOIN_SCAN_PERIOD) {
            guard.checkpoint(CheckPoint::JoinScan)?;
        }
        Ok(())
    };

    // Check a candidate before copying its environment into `out`; bind
    // after, and truncate the copy back off if a variable repeated inside
    // the atom meets two different values.
    let mut push = |env: &[Cell], row: &[Cell]| {
        let fits = atom.terms.iter().zip(row).all(|(term, &cell)| match *term {
            PlanTerm::Wildcard => true,
            PlanTerm::Const(c) => cell == c,
            PlanTerm::Slot(s) => env[s] == UNBOUND_CELL || env[s] == cell,
        });
        if !fits {
            return;
        }
        let start = out.cells.len();
        out.cells.extend_from_slice(env);
        let new_env = &mut out.cells[start..];
        for (term, &cell) in atom.terms.iter().zip(row) {
            if let PlanTerm::Slot(s) = *term {
                if new_env[s] == UNBOUND_CELL {
                    new_env[s] = cell;
                } else if new_env[s] != cell {
                    out.cells.truncate(start);
                    return;
                }
            }
        }
    };
    if let Some(scan) = scan {
        let arity = atom.arity().min(scan.stride);
        for env in envs.rows() {
            for row in scan.rows.chunks_exact(scan.stride) {
                tick()?;
                if !is_tombstone(row[0]) {
                    push(env, &row[..arity]);
                }
            }
        }
    } else if !bound_columns.is_empty() && relation.has_index(bound_columns) {
        let mut key: Vec<Cell> = Vec::with_capacity(bound_columns.len());
        for env in envs.rows() {
            key.clear();
            key.extend(bound_columns.iter().map(|&i| match &atom.terms[i] {
                PlanTerm::Slot(s) => env[*s],
                PlanTerm::Const(c) => *c,
                PlanTerm::Wildcard => NULL_CELL,
            }));
            if let Some(candidates) = relation.probe_index_cells(bound_columns, &key) {
                for row in candidates {
                    tick()?;
                    push(env, row);
                }
            }
        }
    } else {
        // No bound columns (or no index): every environment scans every
        // row; `push` filters.
        for env in envs.rows() {
            for row in relation.iter_rows() {
                tick()?;
                push(env, row);
            }
        }
    }
    Ok(out)
}

/// Filter out environments for which the negated atom matches. When every
/// variable of the atom is bound (the common, safe case — the schedule
/// `plan_join_static` compiled carries the probe columns, whose index
/// [`DatalogEngine::evaluate_plan`] materialized), the check is an index
/// probe; otherwise it falls back to a scan with the original
/// unbound-variable semantics (an unbound variable never matches).
fn apply_negation(envs: &mut Envs, atom: &PlanAtom, db: &Database, probe: Option<&[usize]>) {
    if envs.is_empty() {
        return;
    }
    let Some(relation) = db.get(&atom.relation) else { return };
    match probe {
        Some(bound_columns) if relation.has_index(bound_columns) => {
            let mut key: Vec<Cell> = Vec::with_capacity(bound_columns.len());
            envs.retain(|env| {
                key.clear();
                key.extend(bound_columns.iter().map(|&i| match &atom.terms[i] {
                    PlanTerm::Slot(s) => env[*s],
                    PlanTerm::Const(c) => *c,
                    PlanTerm::Wildcard => NULL_CELL,
                }));
                relation
                    .probe_index_cells(bound_columns, &key)
                    .map(|mut hits| hits.next().is_none())
                    .unwrap_or(true)
            });
        }
        _ => envs.retain(|env| !matches_negated(env, atom, relation)),
    }
}

/// True if the expression can be evaluated under the environment (all its
/// slots are bound).
fn expr_ready(env: &[Cell], expr: &PlanExpr) -> bool {
    match expr {
        PlanExpr::Slot(s) => env[*s] != UNBOUND_CELL,
        PlanExpr::Const(..) => true,
        PlanExpr::Arith { lhs, rhs, .. } => expr_ready(env, lhs) && expr_ready(env, rhs),
    }
}

/// The three-valued comparison [`CmpOp::eval`](raqlet_dlir::CmpOp::eval)
/// under the environment; `None` also when an operand cannot be evaluated.
fn eval_constraint(
    env: &[Cell],
    op: raqlet_dlir::CmpOp,
    lhs: &PlanExpr,
    rhs: &PlanExpr,
    dict: &ValueDict,
) -> Option<bool> {
    // Equality and inequality on non-arithmetic operands are cell compares
    // (canonical encoding makes cell equality value equality), except that a
    // comparison with NULL is NULL.
    if matches!(op, raqlet_dlir::CmpOp::Eq | raqlet_dlir::CmpOp::Neq) {
        let l = simple_cell(env, lhs);
        let r = simple_cell(env, rhs);
        if let (Some(l), Some(r)) = (l, r) {
            if l == NULL_CELL || r == NULL_CELL {
                return None;
            }
            return Some((l == r) == (op == raqlet_dlir::CmpOp::Eq));
        }
    }
    op.eval(&eval_expr(env, lhs, dict)?, &eval_expr(env, rhs, dict)?)
}

/// The packed cell of a slot/const expression (None for arithmetic, which
/// must be evaluated at the value level).
#[inline]
fn simple_cell(env: &[Cell], expr: &PlanExpr) -> Option<Cell> {
    match expr {
        PlanExpr::Slot(s) => Some(env[*s]),
        PlanExpr::Const(_, c) => Some(*c),
        PlanExpr::Arith { .. } => None,
    }
}

/// Evaluate an expression to a `Value`, decoding slot cells on demand.
fn eval_expr(env: &[Cell], expr: &PlanExpr, dict: &ValueDict) -> Option<Value> {
    match expr {
        PlanExpr::Slot(s) => {
            let cell = env[*s];
            if cell == UNBOUND_CELL {
                None
            } else {
                Some(dict.decode(cell))
            }
        }
        PlanExpr::Const(v, _) => Some(v.clone()),
        PlanExpr::Arith { op, lhs, rhs } => {
            op.eval(&eval_expr(env, lhs, dict)?, &eval_expr(env, rhs, dict)?)
        }
    }
}

/// Evaluate an expression straight to a packed cell (slot/const expressions
/// skip the decode/encode round trip; arithmetic encodes its result).
fn eval_expr_cell(env: &[Cell], expr: &PlanExpr, dict: &ValueDict) -> Option<Cell> {
    match expr {
        PlanExpr::Slot(s) => {
            let cell = env[*s];
            if cell == UNBOUND_CELL {
                None
            } else {
                Some(cell)
            }
        }
        PlanExpr::Const(_, c) => Some(*c),
        PlanExpr::Arith { op, lhs, rhs } => {
            let v = op.eval(&eval_expr(env, lhs, dict)?, &eval_expr(env, rhs, dict)?)?;
            Some(dict.encode_value(&v))
        }
    }
}

fn matches_negated(env: &[Cell], atom: &PlanAtom, relation: &Relation) -> bool {
    relation.iter_rows().any(|row| {
        atom.terms.iter().enumerate().all(|(i, term)| match term {
            PlanTerm::Wildcard => true,
            PlanTerm::Const(c) => row[i] == *c,
            PlanTerm::Slot(s) => env[*s] != UNBOUND_CELL && env[*s] == row[i],
        })
    })
}

/// Instantiate the head for one environment, appending the packed row (plus
/// the nullary pad, if any) to `out`.
fn instantiate_head(plan: &RulePlan, env: &[Cell], out: &mut Derived) -> Result<()> {
    for t in &plan.head {
        match t {
            PlanTerm::Slot(s) => {
                let cell = env[*s];
                if cell == UNBOUND_CELL {
                    return Err(RaqletError::execution(format!(
                        "head variable `{}` is unbound at instantiation",
                        plan.var_names[*s]
                    )));
                }
                out.cells.push(cell);
            }
            PlanTerm::Const(c) => out.cells.push(*c),
            PlanTerm::Wildcard => {
                return Err(RaqletError::execution("wildcard in rule head"));
            }
        }
    }
    if plan.head_arity == 0 {
        out.cells.push(NULL_CELL);
    }
    out.rows += 1;
    Ok(())
}

/// Evaluate a rule-level aggregation over the body bindings.
fn aggregate(plan: &RulePlan, agg: &PlanAgg, bindings: &Envs, dict: &ValueDict) -> Result<Derived> {
    // Deduplicate the (group key, input value) projection at the cell level:
    // Datalog set semantics, matching the SQL backend's `AGG(DISTINCT
    // input)` encoding. Groups are ordered by decoded value for
    // deterministic output.
    use raqlet_common::hash::FxHashSet;
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<Vec<Value>, (Vec<Cell>, Vec<Value>)> = BTreeMap::new();
    let mut seen: FxHashSet<(Vec<Cell>, Cell)> = FxHashSet::default();
    let mut seen_bindings: FxHashSet<&[Cell]> = FxHashSet::default();
    for env in bindings.rows() {
        let key_cells: Vec<Cell> = agg
            .group_by
            .iter()
            .map(|&s| if env[s] == UNBOUND_CELL { NULL_CELL } else { env[s] })
            .collect();
        let input_cell = match agg.input {
            Some(s) => {
                if env[s] == UNBOUND_CELL {
                    return Err(RaqletError::execution(format!(
                        "aggregate input `{}` unbound",
                        plan.var_names[s]
                    )));
                }
                if !seen.insert((key_cells.clone(), env[s])) {
                    continue;
                }
                env[s]
            }
            // COUNT(*) counts the distinct bindings of the body, as
            // Soufflé's `count : { body }` does: each one stands in as one
            // non-NULL input.
            None => {
                if !seen_bindings.insert(env) {
                    continue;
                }
                dict.encode_int(1)
            }
        };
        let decoded_key: Vec<Value> = key_cells.iter().map(|&c| dict.decode(c)).collect();
        let entry = groups.entry(decoded_key).or_insert_with(|| (key_cells, Vec::new()));
        entry.1.push(dict.decode(input_cell));
    }

    let mut out = Derived::new(plan.head_stride());
    for (_, (key_cells, values)) in groups {
        // The (group, input) pairs are distinct already.
        let agg_value = agg.func.fold(values, false);
        // Build the head row: group-by slots in head order plus the
        // aggregate output.
        let mut env = vec![UNBOUND_CELL; plan.nvars];
        for (&s, &cell) in agg.group_by.iter().zip(key_cells.iter()) {
            env[s] = cell;
        }
        env[agg.output] = dict.encode_value(&agg_value);
        instantiate_head(plan, &env, &mut out)?;
    }
    Ok(out)
}

/// Store derived rows in their head relation, respecting lattice
/// annotations. With `stage`, set-semantics rows are staged and become
/// visible at the next [`Relation::advance`] (fixpoint rounds); otherwise
/// they are published immediately (once-evaluated rules, whose output the
/// rest of the stratum reads). Lattice rows are always published
/// immediately — the improvement must be observable within the round — and
/// announced in the next delta all the same.
pub(crate) fn store_derived(
    plan: &RulePlan,
    db: &mut Database,
    derived: &Derived,
    stage: bool,
) -> Result<()> {
    if derived.rows == 0 {
        return Ok(());
    }
    let arity = plan.head_arity;
    let rel = db.get_or_create(&plan.head_relation, arity);
    if rel.arity() != arity {
        // A runtime check (not just a debug assert) because schema-less
        // programs can mix an EDB relation with rules of a different arity,
        // and packed staging would otherwise misalign the arena.
        return Err(RaqletError::execution(format!(
            "arity mismatch: rule `{}` derives `{}` with arity {}, but the relation has arity {}",
            plan.rule_src,
            plan.head_relation,
            plan.head_arity,
            rel.arity()
        )));
    }
    for row in derived.cells.chunks_exact(derived.stride) {
        let row = &row[..arity];
        match plan.lattice {
            LatticeMerge::Set if stage => {
                rel.stage_cells(row);
            }
            LatticeMerge::Set => {
                rel.insert_cells(row);
            }
            LatticeMerge::MinOnColumn(col) => {
                rel.lattice_insert_cells(row, col, true);
            }
            LatticeMerge::MaxOnColumn(col) => {
                rel.lattice_insert_cells(row, col, false);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqlet_dlir::CmpOp;

    fn atom(name: &str, vars: &[&str]) -> BodyElem {
        BodyElem::Atom(Atom::with_vars(name, vars))
    }

    fn chain_edges(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert_fact("edge", vec![Value::Int(i), Value::Int(i + 1)]).unwrap();
        }
        db
    }

    fn tc_program() -> DlirProgram {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("tc", &["x", "y"]),
            vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
        ));
        p.add_output("tc");
        p
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let result = DatalogEngine::new().evaluate(&tc_program(), &chain_edges(5)).unwrap();
        // A chain of 5 edges has 5+4+3+2+1 = 15 pairs in its closure.
        assert_eq!(result.relation("tc").len(), 15);
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let db = chain_edges(8);
        let semi = DatalogEngine::new().evaluate(&tc_program(), &db).unwrap();
        let naive = DatalogEngine::naive().evaluate(&tc_program(), &db).unwrap();
        assert_eq!(semi.relation("tc"), naive.relation("tc"));
        // Semi-naive derives strictly fewer (or equal) tuples in total.
        assert!(semi.stats.tuples_derived <= naive.stats.tuples_derived);
    }

    #[test]
    fn cyclic_graphs_terminate() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let result = DatalogEngine::new().evaluate(&tc_program(), &db).unwrap();
        // Every node reaches every node (including itself) in a 3-cycle.
        assert_eq!(result.relation("tc").len(), 9);
    }

    #[test]
    fn constants_and_constraints_filter_tuples() {
        // q(y) :- edge(x, y), x = 1.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::Constraint { op: CmpOp::Eq, lhs: DlExpr::var("x"), rhs: DlExpr::int(1) },
            ],
        ));
        p.add_output("q");
        let result = DatalogEngine::new().evaluate(&p, &chain_edges(5)).unwrap();
        assert_eq!(result.relation("q").sorted(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn assignment_constraints_bind_new_variables() {
        // q(x, l) :- edge(x, y), l = y + 10.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "l"]),
            vec![
                atom("edge", &["x", "y"]),
                BodyElem::eq(
                    DlExpr::var("l"),
                    DlExpr::Arith {
                        op: raqlet_dlir::ArithOp::Add,
                        lhs: Box::new(DlExpr::var("y")),
                        rhs: Box::new(DlExpr::int(10)),
                    },
                ),
            ],
        ));
        p.add_output("q");
        let result = DatalogEngine::new().evaluate(&p, &chain_edges(2)).unwrap();
        assert!(result.relation("q").contains(&[Value::Int(0), Value::Int(11)]));
    }

    /// `head(x, z) :- num(x), z = x <op> <rhs>.` over MAX, MIN and 5, or
    /// `head(x) :- num(x), x <op> <rhs> <compare> 0.` with a comparison.
    fn overflow_program(compare: Option<CmpOp>) -> (DlirProgram, Database) {
        let rule = |head: &str, op, rhs: i64| {
            let arith = DlExpr::Arith {
                op,
                lhs: Box::new(DlExpr::var("x")),
                rhs: Box::new(DlExpr::int(rhs)),
            };
            let (vars, elem): (&[&str], _) = match compare {
                None => (&["x", "z"], BodyElem::eq(DlExpr::var("z"), arith)),
                Some(op) => (&["x"], BodyElem::Constraint { op, lhs: arith, rhs: DlExpr::int(0) }),
            };
            Rule::new(Atom::with_vars(head, vars), vec![atom("num", &["x"]), elem])
        };
        let mut p = DlirProgram::default();
        p.add_rule(rule("up", raqlet_dlir::ArithOp::Add, 1));
        p.add_rule(rule("neg", raqlet_dlir::ArithOp::Div, -1));
        p.add_output("up");
        p.add_output("neg");
        let mut db = Database::new();
        for x in [i64::MAX, i64::MIN, 5] {
            db.insert_fact("num", vec![Value::Int(x)]).unwrap();
        }
        (p, db)
    }

    #[test]
    fn overflowing_arithmetic_drops_the_binding() {
        // up(x) :- num(x), x + 1 != 0.  neg(x) :- num(x), x / -1 != 0.
        // An overflowing comparison is NULL, so it derives nothing.
        let (p, db) = overflow_program(Some(CmpOp::Neq));
        let engine = DatalogEngine::new();
        let ints = |xs: &[i64]| xs.iter().map(|&x| vec![Value::Int(x)]).collect::<Vec<_>>();
        let up = engine.run_output(&p, &db, "up").unwrap();
        assert_eq!(up.sorted(), ints(&[i64::MIN, 5]));
        let neg = engine.run_output(&p, &db, "neg").unwrap();
        assert_eq!(neg.sorted(), ints(&[5, i64::MAX]));
    }

    #[test]
    fn overflowing_arithmetic_yields_null() {
        // up(x, z) :- num(x), z = x + 1.  neg(x, z) :- num(x), z = x / -1.
        // An overflowing assignment binds NULL, as the other engines project.
        let (p, db) = overflow_program(None);
        let rows = |xs: &[(i64, Option<i64>)]| -> Vec<Vec<Value>> {
            let mut rows: Vec<Vec<Value>> = xs
                .iter()
                .map(|&(x, z)| vec![Value::Int(x), z.map_or(Value::Null, Value::Int)])
                .collect();
            rows.sort();
            rows
        };
        let engine = DatalogEngine::new();
        let up = engine.run_output(&p, &db, "up").unwrap();
        let expected = [(i64::MAX, None), (i64::MIN, Some(i64::MIN + 1)), (5, Some(6))];
        assert_eq!(up.sorted(), rows(&expected));
        let neg = engine.run_output(&p, &db, "neg").unwrap();
        let expected = [(i64::MAX, Some(-i64::MAX)), (i64::MIN, None), (5, Some(-5))];
        assert_eq!(neg.sorted(), rows(&expected));
    }

    #[test]
    fn failed_arithmetic_assignments_drop_only_their_bindings() {
        // h(x) :- r(x, y), z = 10 / y, z > 1. Division by zero must drop the
        // (1, 0) binding — and only it — independent of insertion order.
        let program = || {
            let mut p = DlirProgram::default();
            p.add_rule(Rule::new(
                Atom::with_vars("h", &["x"]),
                vec![
                    atom("r", &["x", "y"]),
                    BodyElem::eq(
                        DlExpr::var("z"),
                        DlExpr::Arith {
                            op: raqlet_dlir::ArithOp::Div,
                            lhs: Box::new(DlExpr::int(10)),
                            rhs: Box::new(DlExpr::var("y")),
                        },
                    ),
                    BodyElem::Constraint {
                        op: CmpOp::Gt,
                        lhs: DlExpr::var("z"),
                        rhs: DlExpr::int(1),
                    },
                ],
            ));
            p.add_output("h");
            p
        };
        for facts in [[(1, 0), (2, 5)], [(2, 5), (1, 0)]] {
            let mut db = Database::new();
            for (a, b) in facts {
                db.insert_fact("r", vec![Value::Int(a), Value::Int(b)]).unwrap();
            }
            let result = DatalogEngine::new().evaluate(&program(), &db).unwrap();
            assert_eq!(result.relation("h").sorted(), vec![vec![Value::Int(2)]], "{facts:?}");
        }
    }

    /// Evaluate `p` semi-naively, check the naive reference agrees, and
    /// return the sorted rows of `output` with the semi-naive stats.
    fn eval_against_naive(
        p: &DlirProgram,
        db: &Database,
        output: &str,
    ) -> (Vec<Vec<Value>>, EvalStats) {
        let result = DatalogEngine::new().evaluate(p, db).unwrap();
        let naive = DatalogEngine::naive().evaluate(p, db).unwrap();
        let rows = result.relation(output).sorted();
        assert_eq!(rows, naive.relation(output).sorted(), "{output}");
        (rows, result.stats)
    }

    fn edges(pairs: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in pairs {
            db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db
    }

    #[test]
    fn variable_free_rules_get_one_environment_per_binding() {
        // flag() :- edge(1, 2).   some() :- edge(_, _).   none() :- edge(2, 1).
        // No rule has a variable, so every environment is one pad cell.
        let ground = |name: &str, terms: Vec<Term>| {
            let mut p = DlirProgram::default();
            p.add_rule(Rule::new(
                Atom::new(name, vec![]),
                vec![BodyElem::Atom(Atom::new("edge", terms))],
            ));
            p.add_output(name);
            p
        };
        let db = chain_edges(3);
        let (flag, stats) =
            eval_against_naive(&ground("flag", vec![Term::int(1), Term::int(2)]), &db, "flag");
        assert_eq!(flag, vec![Vec::<Value>::new()]);
        assert_eq!(stats.tuples_derived, 1);
        // One derivation per matching edge, deduplicated at staging.
        let (some, stats) =
            eval_against_naive(&ground("some", vec![Term::Wildcard, Term::Wildcard]), &db, "some");
        assert_eq!(some, vec![Vec::<Value>::new()]);
        assert_eq!(stats.tuples_derived, 3);
        let (none, _) =
            eval_against_naive(&ground("none", vec![Term::int(2), Term::int(1)]), &db, "none");
        assert!(none.is_empty());
    }

    #[test]
    fn repeated_variables_inside_one_atom_drop_conflicting_rows() {
        // self(x) :- edge(x, x).   next(x, y) :- edge(x, x), edge(x, y).
        // Conflicting rows pass the pre-copy check (x is unbound) and must be
        // truncated back off without disturbing the rows after them.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("self", &["x"]), vec![atom("edge", &["x", "x"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("next", &["x", "y"]),
            vec![atom("edge", &["x", "x"]), atom("edge", &["x", "y"])],
        ));
        p.add_output("self");
        p.add_output("next");
        let db = edges(&[(1, 2), (2, 2), (3, 4), (1, 1), (2, 3), (4, 5)]);
        let (own, stats) = eval_against_naive(&p, &db, "self");
        assert_eq!(own, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        // Two `self` derivations plus four `next` ones: no conflict leaks.
        assert_eq!(stats.tuples_derived, 6);
        let (next, _) = eval_against_naive(&p, &db, "next");
        let pairs = [(1, 1), (1, 2), (2, 2), (2, 3)];
        assert_eq!(next, pairs.map(|(a, b)| vec![Value::Int(a), Value::Int(b)]).to_vec());
    }

    #[test]
    fn assignments_rewrite_slots_in_place_before_filters_compact() {
        // q(x, w) :- r(x, y), z = 10 / y, z > 2, s(z, w).
        // The assignment drops (1, 0), the filter drops (2, 5) and (5, 4),
        // and the rewritten `z` then probes `s`.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["x", "w"]),
            vec![
                atom("r", &["x", "y"]),
                BodyElem::eq(
                    DlExpr::var("z"),
                    DlExpr::Arith {
                        op: raqlet_dlir::ArithOp::Div,
                        lhs: Box::new(DlExpr::int(10)),
                        rhs: Box::new(DlExpr::var("y")),
                    },
                ),
                BodyElem::Constraint { op: CmpOp::Gt, lhs: DlExpr::var("z"), rhs: DlExpr::int(2) },
                atom("s", &["z", "w"]),
            ],
        ));
        p.add_output("q");
        let mut db = Database::new();
        for (x, y) in [(1, 0), (2, 5), (3, 2), (5, 4), (4, 1)] {
            db.insert_fact("r", vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        for (z, w) in [(2, 20), (5, 50), (10, 100)] {
            db.insert_fact("s", vec![Value::Int(z), Value::Int(w)]).unwrap();
        }
        let (q, stats) = eval_against_naive(&p, &db, "q");
        let expected = [(3, 50), (4, 100)];
        assert_eq!(q, expected.map(|(a, b)| vec![Value::Int(a), Value::Int(b)]).to_vec());
        assert_eq!(stats.tuples_derived, 2);
    }

    #[test]
    fn stratified_negation() {
        // unreachable(y) :- node(y), !tc(0, y).
        let mut p = tc_program();
        p.add_rule(Rule::new(Atom::with_vars("node", &["x"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(Atom::with_vars("node", &["y"]), vec![atom("edge", &["x", "y"])]));
        p.add_rule(Rule::new(
            Atom::with_vars("unreachable", &["y"]),
            vec![
                atom("node", &["y"]),
                BodyElem::Negated(Atom::new("tc", vec![Term::int(0), Term::var("y")])),
            ],
        ));
        p.add_output("unreachable");
        // Graph: 0 -> 1 -> 2 plus an isolated edge 10 -> 11.
        let mut db = chain_edges(2);
        db.insert_fact("edge", vec![Value::Int(10), Value::Int(11)]).unwrap();
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        let unreachable = result.relation("unreachable").sorted();
        assert_eq!(
            unreachable,
            vec![vec![Value::Int(0)], vec![Value::Int(10)], vec![Value::Int(11)]]
        );
    }

    #[test]
    fn aggregation_counts_distinct_inputs() {
        // deg(x, d) :- edge(x, y) group by x with d = count(y).
        let mut p = DlirProgram::default();
        let mut rule =
            Rule::new(Atom::with_vars("deg", &["x", "d"]), vec![atom("edge", &["x", "y"])]);
        rule.aggregation = Some(Aggregation {
            func: raqlet_dlir::AggFunc::Count,
            input_var: Some("y".into()),
            output_var: "d".into(),
            group_by: vec!["x".into()],
            distinct: false,
        });
        p.add_rule(rule);
        p.add_output("deg");
        let mut db = Database::new();
        for (a, b) in [(1, 2), (1, 3), (1, 3), (2, 3)] {
            db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        let deg = result.relation("deg").sorted();
        assert_eq!(
            deg,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)]]
        );
    }

    #[test]
    fn min_and_max_and_sum_aggregates() {
        let mut db = Database::new();
        for (a, b) in [(1, 5), (1, 9), (2, 4)] {
            db.insert_fact("m", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        for (func, expected_for_1) in [
            (raqlet_dlir::AggFunc::Min, 5),
            (raqlet_dlir::AggFunc::Max, 9),
            (raqlet_dlir::AggFunc::Sum, 14),
            (raqlet_dlir::AggFunc::Avg, 7),
        ] {
            let mut p = DlirProgram::default();
            let mut rule =
                Rule::new(Atom::with_vars("out", &["x", "v"]), vec![atom("m", &["x", "y"])]);
            rule.aggregation = Some(Aggregation {
                func,
                input_var: Some("y".into()),
                output_var: "v".into(),
                group_by: vec!["x".into()],
                distinct: false,
            });
            p.add_rule(rule);
            p.add_output("out");
            let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
            assert!(
                result.relation("out").contains(&[Value::Int(1), Value::Int(expected_for_1)]),
                "{func:?}"
            );
        }
    }

    #[test]
    fn lattice_min_recursion_terminates_on_cycles_and_finds_shortest_paths() {
        // dist(s, d, l): shortest hop count, on a cyclic graph.
        let mut p = DlirProgram::default();
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

        // A 4-cycle: 0 -> 1 -> 2 -> 3 -> 0.
        let mut db = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        let dist = result.relation("dist");
        // Shortest distance 0 -> 3 is 3 hops, 0 -> 0 is 4 hops (a full cycle).
        assert!(dist.contains(&[Value::Int(0), Value::Int(3), Value::Int(3)]));
        assert!(dist.contains(&[Value::Int(0), Value::Int(0), Value::Int(4)]));
        // Only one distance per pair survives.
        assert_eq!(dist.len(), 16);
    }

    #[test]
    fn mutual_recursion_even_odd() {
        // even(x) :- zero(x). even(x) :- odd(y), succ(y, x). odd(x) :- even(y), succ(y, x).
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
        let mut db = Database::new();
        db.insert_fact("zero", vec![Value::Int(0)]).unwrap();
        for i in 0..10 {
            db.insert_fact("succ", vec![Value::Int(i), Value::Int(i + 1)]).unwrap();
        }
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        let even = result.relation("even");
        assert!(even.contains(&[Value::Int(0)]));
        assert!(even.contains(&[Value::Int(10)]));
        assert!(!even.contains(&[Value::Int(7)]));
        assert_eq!(even.len(), 6);
    }

    #[test]
    fn empty_edb_yields_empty_idbs_not_errors() {
        let result = DatalogEngine::new().evaluate(&tc_program(), &Database::new()).unwrap();
        assert!(result.relation("tc").is_empty());
    }

    #[test]
    fn fact_rules_seed_relations() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::new("seed", vec![Term::int(7)]), vec![]));
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![atom("seed", &["x"]), atom("edge", &["x", "y"])],
        ));
        p.add_output("q");
        let mut db = chain_edges(9);
        db.insert_fact("seed_unused", vec![Value::Int(0)]).unwrap();
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        assert_eq!(result.relation("q").sorted(), vec![vec![Value::Int(8)]]);
    }

    #[test]
    fn string_constants_and_extreme_ints_survive_the_packed_path() {
        // q(y) :- person(x, y), x = "Ada". Plus an i64::MAX key that must go
        // through the overflow table.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("q", &["y"]),
            vec![
                atom("person", &["x", "y"]),
                BodyElem::Constraint {
                    op: CmpOp::Eq,
                    lhs: DlExpr::var("x"),
                    rhs: DlExpr::Const(Value::str("Ada")),
                },
            ],
        ));
        p.add_output("q");
        let mut db = Database::new();
        db.insert_fact("person", vec![Value::str("Ada"), Value::Int(i64::MAX)]).unwrap();
        db.insert_fact("person", vec![Value::str("Bob"), Value::Int(2)]).unwrap();
        let result = DatalogEngine::new().evaluate(&p, &db).unwrap();
        assert_eq!(result.relation("q").sorted(), vec![vec![Value::Int(i64::MAX)]]);
    }

    #[test]
    fn stats_are_populated() {
        // Exact counters and guard-checkpoint hits for tc over a 6-edge
        // chain: a change to the join or derive path must leave every one of
        // them in place.
        let engine = DatalogEngine::new();
        let db = chain_edges(6);
        let result = engine.evaluate(&tc_program(), &db).unwrap();
        assert_eq!(result.relation("tc").len(), 21);
        let expected = EvalStats {
            strata: 1,
            sccs: 1,
            looping_sccs: 1,
            iterations: 7,
            rule_applications: 8,
            tuples_derived: 21,
            parallel_tasks: 0,
        };
        assert_eq!(result.stats, expected);
        let hits = crate::fault::count_checkpoints(|g| {
            engine.evaluate_guarded(&tc_program(), &db, g).map(|_| ())
        })
        .unwrap();
        assert_eq!(hits, 15);
    }

    /// Guard-checkpoint hits of one guarded evaluation, by checkpoint kind,
    /// checked against the total that `fault::count_checkpoints` reports.
    fn checkpoints_by_kind(
        engine: &DatalogEngine,
        program: &DlirProgram,
        db: &Database,
    ) -> Vec<(String, u64)> {
        use std::sync::{Arc, Mutex};
        let kinds = Arc::new(Mutex::new(std::collections::BTreeMap::<String, u64>::new()));
        let sink = Arc::clone(&kinds);
        let guard = QueryGuard::new().with_fault_hook(Arc::new(move |site, _| {
            *sink.lock().unwrap().entry(format!("{site:?}")).or_default() += 1;
            None
        }));
        engine.evaluate_guarded(program, db, &guard).unwrap();
        let total = crate::fault::count_checkpoints(|g| {
            engine.evaluate_guarded(program, db, g).map(|_| ())
        })
        .unwrap();
        let kinds: Vec<(String, u64)> = kinds.lock().unwrap().clone().into_iter().collect();
        assert_eq!(kinds.iter().map(|(_, n)| n).sum::<u64>(), total, "{kinds:?}");
        kinds
    }

    /// Evaluate `program`, asserting its full stats, output sizes and
    /// checkpoint hits per kind.
    fn assert_work_counts(
        program: &DlirProgram,
        db: &Database,
        sizes: &[(&str, usize)],
        stats: EvalStats,
        kinds: &[(&str, u64)],
    ) {
        let engine = DatalogEngine::new();
        let result = engine.evaluate(program, db).unwrap();
        for &(name, len) in sizes {
            assert_eq!(result.relation(name).len(), len, "{name}");
        }
        assert_eq!(result.stats, stats);
        let kinds: Vec<(String, u64)> = kinds.iter().map(|&(k, n)| (k.into(), n)).collect();
        assert_eq!(checkpoints_by_kind(&engine, program, db), kinds);
    }

    /// A field-sensitive Andersen points-to analysis: `pt` and `hpt` are
    /// mutually recursive and the last two rules are non-linear 3-way joins.
    fn points_to_program() -> DlirProgram {
        let mut p = DlirProgram::default();
        let pt = || Atom::with_vars("pt", &["v", "h"]);
        p.add_rule(Rule::new(pt(), vec![atom("new", &["v", "h"])]));
        p.add_rule(Rule::new(pt(), vec![atom("assign", &["v", "w"]), atom("pt", &["w", "h"])]));
        p.add_rule(Rule::new(
            pt(),
            vec![
                atom("load", &["v", "b", "f"]),
                atom("pt", &["b", "g"]),
                atom("hpt", &["g", "f", "h"]),
            ],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("hpt", &["g", "f", "h"]),
            vec![atom("store", &["b", "f", "w"]), atom("pt", &["b", "g"]), atom("pt", &["w", "h"])],
        ));
        p.add_output("pt");
        p.add_output("hpt");
        p
    }

    /// Facts for [`points_to_program`]: a copy chain of `n` variables with
    /// merges, loops and a field written and read back every sixth variable.
    fn points_to_facts(n: i64) -> Database {
        let mut db = Database::new();
        let mut fact = |rel: &str, vals: &[i64]| {
            db.insert_fact(rel, vals.iter().map(|&v| Value::Int(v)).collect()).unwrap();
        };
        for v in 0..n {
            if v % 4 == 0 {
                fact("new", &[v, 1000 + v]);
            }
            if v > 0 {
                fact("assign", &[v, v - 1]);
            }
            if v % 3 == 0 && v >= 3 {
                fact("assign", &[v, v - 3]);
            }
            if v % 8 == 7 {
                fact("assign", &[v - 5, v]);
            }
            if v % 6 == 2 {
                let (value, read, field) = (100 + v, 200 + v, v % 3);
                fact("new", &[value, 2000 + v]);
                fact("store", &[v, field, value]);
                fact("load", &[read, v, field]);
                fact("assign", &[(v + 3).min(n - 1), read]);
            }
        }
        db
    }

    #[test]
    fn points_to_work_counts_are_pinned() {
        // Exact work of a non-linear, mutually recursive program: a change
        // to the join or derive path must leave every counter in place.
        let stats = EvalStats {
            strata: 1,
            sccs: 1,
            looping_sccs: 1,
            iterations: 23,
            rule_applications: 108,
            tuples_derived: 2012,
            parallel_tasks: 0,
        };
        assert_work_counts(
            &points_to_program(),
            &points_to_facts(48),
            &[("pt", 764), ("hpt", 118)],
            stats,
            &[("FixpointRound", 22), ("JoinScan", 108), ("Scc", 1)],
        );
    }

    /// `edge` over `layers` layers of `width` nodes, every node linked to
    /// every node of the next layer.
    fn layered_edges(layers: i64, width: i64) -> Database {
        let mut db = Database::new();
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    let edge = vec![Value::Int(l * width + a), Value::Int((l + 1) * width + b)];
                    db.insert_fact("edge", edge).unwrap();
                }
            }
        }
        db
    }

    #[test]
    fn large_closure_work_counts_are_pinned() {
        // Over 7 layers of 24 the first delta round joins 24^3 * 5 = 69 120
        // candidates in one application, more than `JOIN_SCAN_PERIOD`, so the
        // run pins the join's in-loop `JoinScan` tick too: one on top of the
        // one `JoinScan` check after each of the 8 applications.
        let stats = EvalStats {
            strata: 1,
            sccs: 1,
            looping_sccs: 1,
            iterations: 7,
            rule_applications: 8,
            tuples_derived: 210_816,
            parallel_tasks: 0,
        };
        assert_work_counts(
            &tc_program(),
            &layered_edges(7, 24),
            &[("tc", 576 * 21)],
            stats,
            &[("FixpointRound", 6), ("JoinScan", 9), ("Scc", 1)],
        );
    }

    #[test]
    fn non_looping_sccs_evaluate_in_exactly_one_round() {
        // hop2 and hop4 are non-recursive but hop4 reads hop2, so both land
        // in one stratum as two non-looping components in dependency order.
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(
            Atom::with_vars("hop2", &["x", "z"]),
            vec![atom("edge", &["x", "y"]), atom("edge", &["y", "z"])],
        ));
        p.add_rule(Rule::new(
            Atom::with_vars("hop4", &["x", "z"]),
            vec![atom("hop2", &["x", "y"]), atom("hop2", &["y", "z"])],
        ));
        p.add_output("hop4");
        let result = DatalogEngine::new().evaluate(&p, &chain_edges(8)).unwrap();
        assert_eq!(result.stats.sccs, 2, "{:?}", result.stats);
        assert_eq!(result.stats.looping_sccs, 0, "{:?}", result.stats);
        assert_eq!(
            result.stats.iterations, 2,
            "each non-looping component must evaluate in exactly one round: {:?}",
            result.stats
        );
        assert_eq!(result.relation("hop2").len(), 7);
        assert_eq!(result.relation("hop4").len(), 5);
    }

    #[test]
    fn looping_sccs_are_detected_and_iterated() {
        let result = DatalogEngine::new().evaluate(&tc_program(), &chain_edges(6)).unwrap();
        assert_eq!(result.stats.sccs, 1);
        assert_eq!(result.stats.looping_sccs, 1);
        assert!(result.stats.iterations >= 2);
    }

    #[test]
    fn evaluation_builds_only_plan_declared_indexes() {
        // For transitive closure the compiled schedules probe `edge` on its
        // first column and nothing else: `tc` is always the driving scan.
        let result = DatalogEngine::new().evaluate(&tc_program(), &chain_edges(6)).unwrap();
        let edge = result.database.get("edge").unwrap();
        assert!(edge.has_index(&[0]), "the declared probe index must exist");
        assert_eq!(edge.index_count(), 1, "no undeclared index may be built");
        assert_eq!(edge.index_build_count(), 1);
        let tc = result.database.get("tc").unwrap();
        assert_eq!(tc.index_count(), 0, "tc is never probed, so it needs no index");
    }

    #[test]
    fn head_arity_conflicting_with_existing_relation_is_an_error_not_corruption() {
        // Schema-less program: the EDB holds q at arity 2, the rule derives
        // q at arity 1. Packed staging must refuse (a misaligned arena would
        // otherwise silently corrupt rows).
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x"]), vec![atom("edge", &["x", "y"])]));
        p.add_output("q");
        let mut db = chain_edges(2);
        db.insert_fact("q", vec![Value::Int(7), Value::Int(8)]).unwrap();
        let err = DatalogEngine::new().evaluate(&p, &db).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn unsafe_programs_are_rejected_before_execution() {
        let mut p = DlirProgram::default();
        p.add_rule(Rule::new(Atom::with_vars("q", &["x", "w"]), vec![atom("edge", &["x", "y"])]));
        p.add_output("q");
        assert!(DatalogEngine::new().evaluate(&p, &chain_edges(2)).is_err());
    }
}
