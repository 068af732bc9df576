//! Incremental view maintenance: apply EDB deltas to standing queries.
//!
//! [`crate::PreparedDatabase`] amortises loading, indexing and compilation;
//! this module amortises *evaluation itself*. A standing query installed with
//! [`crate::PreparedDatabase::install_view`] keeps its derived relations
//! materialized, and [`crate::PreparedDatabase::apply_delta`] folds a batch
//! of extensional inserts **and deletes** into them without recomputing —
//! walking the compiled `ProgramPlan`'s strata and strongly connected
//! components in dependency order, exactly the schedule full evaluation
//! uses, but scoped to what actually changed.
//!
//! Per SCC the maintenance strategy is chosen from the same structure the
//! scheduler already knows:
//!
//! * **Non-looping, set-semantics SCCs** use *counting*: a
//!   [`SupportCounts`] table records how many rule derivations produce each
//!   row, and the signed multilinear expansion of the join delta — every
//!   nonempty subset of changed body positions, each pinned to the net
//!   insert or net delete rows, remaining atoms probing the stored (new)
//!   state — yields the exact count change. A row is inserted when its
//!   count becomes positive and retracted when it reaches zero.
//! * **Looping set-semantics SCCs** use *DRed* (delete-and-re-derive):
//!   over-delete everything possibly supported by a deleted row (negation
//!   checks over changed relations are skipped — the old state may have
//!   satisfied them), then re-derive each candidate from surviving support
//!   via a backward join seeded from the candidate's own head bindings, and
//!   finally propagate the insert frontier with the scoped semi-naive
//!   delta rounds (`DatalogEngine::run_rounds`).
//! * **Lattice (`@min`/`@max`) SCCs** are maintained monotonically on
//!   insert-only batches (a better row simply displaces the stored one) and
//!   fall back to a *scoped recompute* — clear and re-run just that SCC —
//!   whenever a deletion might have removed a winning row.
//! * **Aggregating rules** (non-monotone heads) recompute their head
//!   relation whenever an input changed; the head is typically tiny.
//!
//! Every maintenance join is the engine's one `join` / `derive` with the
//! net changes pinned (see `datalog::join`); this module adds no join loop
//! of its own.
//!
//! Every path reports the derived rows it inserted and retracted as that
//! relation's net delta, so downstream SCCs see derived changes exactly as
//! they see extensional ones. Recompute fallbacks retract and re-publish
//! rows in place (never dropping the `Relation`), keeping the persistent
//! indexes — and the index build counters tests pin — intact.

use std::collections::HashMap;

use raqlet_common::cell::{is_tombstone, Cell, UNBOUND_CELL};
use raqlet_common::guard::{CheckPoint, QueryGuard};
use raqlet_common::hash::{FxHashMap, FxHashSet};
use raqlet_common::{Database, RaqletError, Result, SupportChange, SupportCounts, Tuple};
use raqlet_dlir::LatticeMerge;

use crate::datalog::{
    derive, join, store_derived, DatalogEngine, Derived, EvalStats, Pin, PlanElem, PlanTerm,
    ProgramPlan, RulePlan, SccPlan, StratumPlan,
};

/// Above this many changed body positions in one rule, the signed subset
/// expansion (up to 3^n pinned joins) would cost more than re-running the
/// rule; the SCC falls back to a scoped recompute instead.
const MAX_EXPANSION_POSITIONS: usize = 6;

/// A batch of extensional-database changes to apply to a
/// [`crate::PreparedDatabase`] and its standing queries.
///
/// Deletes are applied before inserts: a tuple both deleted and inserted in
/// the same batch ends up present. Deleting an absent tuple (or a tuple
/// whose values were never seen by the dictionary) is a no-op, as is
/// re-inserting a present one — the *net* change per relation is what the
/// maintenance machinery propagates, so a batch that cancels out costs
/// nothing downstream.
#[derive(Debug, Clone, Default)]
pub struct EdbDelta {
    inserts: Vec<(String, Tuple)>,
    deletes: Vec<(String, Tuple)>,
}

impl EdbDelta {
    /// An empty batch.
    pub fn new() -> Self {
        EdbDelta::default()
    }

    /// Queue a tuple insertion into the named extensional relation.
    pub fn insert(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.inserts.push((relation.into(), tuple));
        self
    }

    /// Queue a tuple deletion from the named extensional relation.
    pub fn delete(&mut self, relation: impl Into<String>, tuple: Tuple) -> &mut Self {
        self.deletes.push((relation.into(), tuple));
        self
    }

    /// True when the batch queues no operations at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of queued operations (inserts plus deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The queued insertions, in order.
    pub fn inserts(&self) -> &[(String, Tuple)] {
        &self.inserts
    }

    /// The queued deletions, in order.
    pub fn deletes(&self) -> &[(String, Tuple)] {
        &self.deletes
    }
}

/// The net change to one relation: disjoint packed insert and delete row
/// sets, stored stride-wide so they can be pinned into maintenance joins
/// directly.
#[derive(Debug, Clone)]
pub(crate) struct RelChange {
    arity: usize,
    stride: usize,
    ins: Vec<Cell>,
    del: Vec<Cell>,
}

impl RelChange {
    fn new(arity: usize) -> RelChange {
        RelChange { arity, stride: arity.max(1), ins: Vec::new(), del: Vec::new() }
    }

    fn push_padded(buf: &mut Vec<Cell>, row: &[Cell], arity: usize, stride: usize) {
        buf.extend_from_slice(&row[..arity]);
        for _ in arity..stride {
            buf.push(raqlet_common::cell::NULL_CELL);
        }
    }

    fn push_ins(&mut self, row: &[Cell]) {
        Self::push_padded(&mut self.ins, row, self.arity, self.stride);
    }

    fn push_del(&mut self, row: &[Cell]) {
        Self::push_padded(&mut self.del, row, self.arity, self.stride);
    }

    /// Drop `row` from the delete set if present (an insert re-adding a row
    /// deleted earlier in the same batch nets to nothing). Returns true when
    /// a cancellation happened.
    fn cancel_del(&mut self, row: &[Cell]) -> bool {
        let stride = self.stride;
        let pos = self.del.chunks_exact(stride).position(|r| r[..self.arity] == row[..self.arity]);
        match pos {
            Some(i) => {
                self.del.drain(i * stride..(i + 1) * stride);
                true
            }
            None => false,
        }
    }

    fn has_ins(&self) -> bool {
        !self.ins.is_empty()
    }

    fn has_del(&self) -> bool {
        !self.del.is_empty()
    }

    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// Net changes per relation, accumulated as maintenance walks the plan:
/// seeded with the extensional batch, extended with every derived relation's
/// net delta so downstream components see upstream changes uniformly.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangeSet {
    rels: HashMap<String, RelChange>,
}

impl ChangeSet {
    /// The net change of `name`, if any part of it is nonempty.
    fn changed(&self, name: &str) -> Option<&RelChange> {
        self.rels.get(name).filter(|c| !c.is_empty())
    }

    fn entry(&mut self, name: &str, arity: usize) -> &mut RelChange {
        self.rels.entry(name.to_string()).or_insert_with(|| RelChange::new(arity))
    }

    /// Names of the extensional relations with a recorded (possibly
    /// cancelled-out) change — the compaction candidates after a batch.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// True when every recorded change cancelled out.
    pub(crate) fn is_empty(&self) -> bool {
        self.rels.values().all(|c| c.is_empty())
    }
}

/// Apply an extensional batch to the warm database — deletes first, then
/// inserts — returning the *net* packed change per relation. Deleting an
/// absent row (or one whose values the dictionary never saw) and
/// re-inserting a present row are no-ops; a delete-then-insert of the same
/// row in one batch cancels. `is_view_idb` guards relations derived by an
/// installed standing query: extensional traffic may not write them.
pub(crate) fn apply_edb_delta(
    db: &mut Database,
    delta: &EdbDelta,
    is_view_idb: &dyn Fn(&str) -> bool,
) -> Result<ChangeSet> {
    let mut changes = ChangeSet::default();
    for (name, tuple) in &delta.deletes {
        if is_view_idb(name) {
            return Err(RaqletError::execution(format!(
                "cannot delete from `{name}`: it is derived by an installed standing query"
            )));
        }
        let Some(rel) = db.get_mut(name) else { continue };
        if tuple.len() != rel.arity() {
            return Err(RaqletError::execution(format!(
                "delete from `{name}`: tuple arity {} != relation arity {}",
                tuple.len(),
                rel.arity()
            )));
        }
        let dict = rel.dict().clone();
        let Some(row) =
            tuple.iter().map(|v| dict.try_encode_value(v)).collect::<Option<Vec<Cell>>>()
        else {
            continue; // values never encoded: the row cannot be present
        };
        if rel.remove_cells(&row) {
            let arity = rel.arity();
            changes.entry(name, arity).push_del(&row);
        }
    }
    for (name, tuple) in &delta.inserts {
        if is_view_idb(name) {
            return Err(RaqletError::execution(format!(
                "cannot insert into `{name}`: it is derived by an installed standing query"
            )));
        }
        let arity = tuple.len();
        let rel = db.get_or_create(name, arity);
        if rel.arity() != arity {
            return Err(RaqletError::execution(format!(
                "insert into `{name}`: tuple arity {} != relation arity {}",
                arity,
                rel.arity()
            )));
        }
        let dict = rel.dict().clone();
        let row: Vec<Cell> = tuple.iter().map(|v| dict.encode_value(v)).collect();
        if rel.insert_cells(&row) {
            let change = changes.entry(name, arity);
            if !change.cancel_del(&row) {
                change.push_ins(&row);
            }
        }
    }
    Ok(changes)
}

/// Reject programs the maintenance machinery cannot keep incrementally:
/// a derived (IDB) relation colliding with a warm extensional relation that
/// already holds facts (its rows would be indistinguishable from derived
/// ones), and a relation with both aggregating and plain rules.
pub(crate) fn validate_for_ivm(plan: &ProgramPlan, db: &Database) -> Result<()> {
    for (name, _) in &plan.idbs {
        if db.get(name).is_some_and(|rel| !rel.is_empty()) {
            return Err(RaqletError::execution(format!(
                "cannot install standing query: derived relation `{name}` collides with a \
                 non-empty extensional relation"
            )));
        }
    }
    for stratum in &plan.strata {
        for agg_rule in &stratum.agg_rules {
            let mixed = stratum
                .sccs
                .iter()
                .flat_map(|scc| &scc.rules)
                .any(|r| r.head_relation == agg_rule.head_relation);
            if mixed {
                return Err(RaqletError::execution(format!(
                    "cannot install standing query: `{}` mixes aggregating and plain rules",
                    agg_rule.head_relation
                )));
            }
        }
    }
    Ok(())
}

/// Build the per-relation derivation-count tables for every counting-managed
/// (non-looping, set-semantics, non-aggregating) component, by re-applying
/// each of its rules once against the freshly evaluated fixpoint: the rule
/// application's pre-deduplication multiplicity *is* the derivation count.
pub(crate) fn build_support_counts(
    engine: &DatalogEngine,
    plan: &ProgramPlan,
    db: &Database,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<HashMap<String, SupportCounts>> {
    let mut counts = HashMap::new();
    for stratum in &plan.strata {
        for scc in &stratum.sccs {
            if !counting_managed(scc) {
                continue;
            }
            for rule in &scc.rules {
                let derived = engine.apply_rule(rule, db, None, stats, guard)?;
                count_support(
                    counts.entry(rule.head_relation.clone()).or_default(),
                    rule,
                    &derived,
                );
            }
        }
    }
    Ok(counts)
}

/// Add one derivation per derived row to a counting table.
fn count_support(table: &mut SupportCounts, rule: &RulePlan, derived: &Derived) {
    for row in derived.cells.chunks_exact(derived.stride) {
        table.add(&row[..rule.head_arity], 1);
    }
}

/// True when the component is maintained by derivation counting.
fn counting_managed(scc: &SccPlan) -> bool {
    !scc.looping && scc.rules.iter().all(|r| matches!(r.lattice, LatticeMerge::Set))
}

/// Maintain every derived relation of `plan` against the extensional net
/// changes in `edb`, walking strata and components in the compiled
/// dependency order. `counts` holds the counting tables built at install
/// time (rebuilt in place whenever a scoped recompute runs).
pub(crate) fn maintain(
    engine: &DatalogEngine,
    plan: &ProgramPlan,
    db: &mut Database,
    counts: &mut HashMap<String, SupportCounts>,
    edb: &ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<()> {
    let mut changes = edb.clone();
    for stratum in &plan.strata {
        guard.checkpoint(CheckPoint::IvmStep)?;
        let mut stratum_changed =
            maintain_agg_rules(engine, stratum, db, &mut changes, stats, guard)?;
        for scc in &stratum.sccs {
            stratum_changed |= maintain_scc(engine, scc, db, counts, &mut changes, stats, guard)?;
        }
        if stratum_changed {
            stats.strata += 1;
        }
    }
    Ok(())
}

/// Aggregating heads are non-monotone under both insertion and deletion
/// (a count shrinks, a min moves), so any input change recomputes the head
/// relation in place and reports the row-level diff downstream. Returns
/// whether any head was recomputed.
fn maintain_agg_rules(
    engine: &DatalogEngine,
    stratum: &StratumPlan,
    db: &mut Database,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<bool> {
    let mut heads: Vec<&str> = Vec::new();
    for rule in &stratum.agg_rules {
        if !heads.contains(&rule.head_relation.as_str()) {
            heads.push(&rule.head_relation);
        }
    }
    let mut changed = false;
    for head in heads {
        let rules: Vec<&RulePlan> =
            stratum.agg_rules.iter().filter(|r| r.head_relation == head).collect();
        if !rules.iter().any(|r| rule_inputs_changed(r, &[], changes)) {
            continue;
        }
        changed = true;
        let old = snapshot_rows(db, head);
        clear_rows(db, head, &old);
        for rule in &rules {
            engine.fire(rule, db, None, false, stats, guard)?;
        }
        stats.iterations += 1;
        diff_into_changes(db, head, 0, &old, changes);
    }
    Ok(changed)
}

/// Dispatch one component to its maintenance strategy (see module docs).
/// Returns whether the component had changed inputs (and so was maintained).
fn maintain_scc(
    engine: &DatalogEngine,
    scc: &SccPlan,
    db: &mut Database,
    counts: &mut HashMap<String, SupportCounts>,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<bool> {
    if !scc.rules.iter().any(|r| rule_inputs_changed(r, &scc.relations, changes)) {
        return Ok(false);
    }
    guard.checkpoint(CheckPoint::IvmStep)?;
    stats.sccs += 1;
    let lattice = scc.rules.iter().any(|r| !matches!(r.lattice, LatticeMerge::Set));
    let neg_changed =
        scc.rules.iter().any(|r| !negated_changed_positions(r, &scc.relations, changes).is_empty());
    let too_wide = scc.rules.iter().any(|r| {
        positive_changed_positions(r, &scc.relations, changes).len() > MAX_EXPANSION_POSITIONS
    });
    if lattice {
        let has_del = neg_changed
            || scc.rules.iter().any(|r| {
                positive_changed_positions(r, &scc.relations, changes)
                    .iter()
                    .any(|&pos| changed_at(r, pos, changes).has_del())
            });
        if has_del {
            recompute_scc(engine, scc, db, None, changes, stats, guard)?;
        } else {
            if scc.looping {
                stats.looping_sccs += 1;
            }
            lattice_monotone_scc(engine, scc, db, changes, stats, guard)?;
        }
    } else if too_wide {
        let counting = counting_managed(scc).then_some(&mut *counts);
        if scc.looping {
            stats.looping_sccs += 1;
        }
        recompute_scc(engine, scc, db, counting, changes, stats, guard)?;
    } else if scc.looping {
        stats.looping_sccs += 1;
        if !dred_scc(engine, scc, db, changes, stats, guard)? {
            // The over-deletion grew past the point where DRed can beat a
            // scoped recompute; marking mutated nothing, so recomputing the
            // component in place is a clean restart.
            recompute_scc(engine, scc, db, None, changes, stats, guard)?;
        }
    } else if neg_changed {
        recompute_scc(engine, scc, db, Some(counts), changes, stats, guard)?;
    } else {
        counting_scc(scc, db, counts, changes, stats, guard)?;
    }
    Ok(true)
}

/// The net change of the relation read at a changed body position (which
/// `positive_changed_positions` or `negated_changed_positions` guaranteed
/// exists).
// Callers only pass positions returned by `positive_changed_positions` or
// `negated_changed_positions`, which filter on exactly this lookup
// succeeding.
#[allow(clippy::expect_used)]
fn changed_at<'c>(plan: &RulePlan, pos: usize, changes: &'c ChangeSet) -> &'c RelChange {
    let (PlanElem::Atom(atom) | PlanElem::Negated(atom)) = &plan.body[pos] else {
        unreachable!("changed position must hold an atom")
    };
    changes.changed(&atom.relation).expect("changed position names a changed relation")
}

/// True when any body element of `plan` reads a relation outside `own` that
/// carries a net change.
fn rule_inputs_changed(plan: &RulePlan, own: &[String], changes: &ChangeSet) -> bool {
    plan.body.iter().any(|elem| match elem {
        PlanElem::Atom(a) | PlanElem::Negated(a) => {
            !own.contains(&a.relation) && changes.changed(&a.relation).is_some()
        }
        PlanElem::Constraint { .. } => false,
    })
}

/// Body positions holding positive atoms over changed relations outside the
/// component (the candidate pins of the delta expansion).
fn positive_changed_positions(plan: &RulePlan, own: &[String], changes: &ChangeSet) -> Vec<usize> {
    plan.body
        .iter()
        .enumerate()
        .filter_map(|(i, elem)| match elem {
            PlanElem::Atom(a)
                if !own.contains(&a.relation) && changes.changed(&a.relation).is_some() =>
            {
                Some(i)
            }
            _ => None,
        })
        .collect()
}

/// Body positions holding negated atoms over changed relations (always
/// outside the component — stratification forbids negating into it).
fn negated_changed_positions(plan: &RulePlan, own: &[String], changes: &ChangeSet) -> Vec<usize> {
    plan.body
        .iter()
        .enumerate()
        .filter_map(|(i, elem)| match elem {
            PlanElem::Negated(a)
                if !own.contains(&a.relation) && changes.changed(&a.relation).is_some() =>
            {
                Some(i)
            }
            _ => None,
        })
        .collect()
}

/// One counted maintenance join: `rule`'s head rows derived with the given
/// pins, through the schedule compiled for the first pinned positive atom
/// (the base schedule when the first pin seeds a negation).
fn fire_pinned(
    rule: &RulePlan,
    db: &Database,
    pins: &[Pin],
    skip_negations: &[usize],
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<Derived> {
    let schedule = match pins.first() {
        Some(pin) if matches!(rule.body[pin.pos], PlanElem::Atom(_)) => {
            rule.ivm_schedule_for(pin.pos)
        }
        _ => rule.schedule_for(None),
    };
    stats.rule_applications += 1;
    let derived = derive(rule, db, schedule, pins, skip_negations, guard)?;
    stats.tuples_derived += derived.rows;
    Ok(derived)
}

/// Snapshot a relation's live rows (arity-wide, packed).
fn snapshot_rows(db: &Database, name: &str) -> Vec<Vec<Cell>> {
    db.get(name).map(|rel| rel.iter_rows().map(|r| r.to_vec()).collect()).unwrap_or_default()
}

/// Retract every snapshot row in place, keeping the relation (and its
/// persistent indexes, and their build counters) alive.
fn clear_rows(db: &mut Database, name: &str, rows: &[Vec<Cell>]) {
    if let Some(rel) = db.get_mut(name) {
        for row in rows {
            rel.remove_cells(row);
        }
    }
}

/// Record `name`'s net change against `old`, the rows that may have been
/// stored before and may be gone now: live rows at or after arena offset
/// `since` (in cells) that `old` does not hold are inserts, rows of `old` no
/// longer stored are deletes.
fn diff_into_changes(
    db: &Database,
    name: &str,
    since: usize,
    old: &[Vec<Cell>],
    changes: &mut ChangeSet,
) {
    let Some(rel) = db.get(name) else { return };
    let old_set: FxHashSet<&[Cell]> = old.iter().map(|r| r.as_slice()).collect();
    let (arity, stride) = (rel.arity(), rel.stride());
    let ins: Vec<&[Cell]> = rel.full_cells()[since..]
        .chunks_exact(stride)
        .filter(|row| !is_tombstone(row[0]))
        .map(|row| &row[..arity])
        .filter(|row| !old_set.contains(row))
        .collect();
    let del: Vec<&Vec<Cell>> = old.iter().filter(|row| !rel.contains_cells(row)).collect();
    if ins.is_empty() && del.is_empty() {
        return;
    }
    let change = changes.entry(name, arity);
    for row in ins {
        change.push_ins(row);
    }
    for row in del {
        change.push_del(row);
    }
}

/// Scoped recompute of one component: retract every derived row in place,
/// re-run the component's rules (full fixpoint for looping ones), rebuild
/// its counting tables when it is counting-managed, and report the diff.
/// The fallback for every case the incremental strategies exclude.
fn recompute_scc(
    engine: &DatalogEngine,
    scc: &SccPlan,
    db: &mut Database,
    mut counts: Option<&mut HashMap<String, SupportCounts>>,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<()> {
    let old: Vec<(String, Vec<Vec<Cell>>)> =
        scc.relations.iter().map(|n| (n.clone(), snapshot_rows(db, n))).collect();
    for (name, rows) in &old {
        clear_rows(db, name, rows);
    }
    if let Some(counts) = counts.as_deref_mut() {
        for name in &scc.relations {
            counts.entry(name.clone()).or_default().clear();
        }
    }
    if scc.looping {
        engine.evaluate_scc_fixpoint(scc, db, stats, guard)?;
    } else {
        for rule in &scc.rules {
            let derived = engine.fire(rule, db, None, false, stats, guard)?;
            if let Some(counts) = counts.as_deref_mut() {
                count_support(
                    counts.entry(rule.head_relation.clone()).or_default(),
                    rule,
                    &derived,
                );
            }
        }
        stats.iterations += 1;
    }
    for (name, old_rows) in &old {
        diff_into_changes(db, name, 0, old_rows, changes);
    }
    Ok(())
}

/// Counting maintenance of a non-looping, set-semantics component: the
/// signed multilinear expansion of each rule's join delta (see module docs)
/// folded into the component's [`SupportCounts`] table; liveness
/// transitions become physical insertions/retractions and the net delta.
fn counting_scc(
    scc: &SccPlan,
    db: &mut Database,
    counts: &mut HashMap<String, SupportCounts>,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<()> {
    let name = scc.relations[0].clone();
    let mut delta_counts: FxHashMap<Vec<Cell>, i64> = FxHashMap::default();
    for rule in &scc.rules {
        let positions = positive_changed_positions(rule, &scc.relations, changes);
        if positions.is_empty() {
            continue;
        }
        for subset in 1u32..(1u32 << positions.len()) {
            guard.checkpoint(CheckPoint::IvmStep)?;
            let selected: Vec<usize> = positions
                .iter()
                .enumerate()
                .filter(|(j, _)| subset >> j & 1 == 1)
                .map(|(_, &pos)| pos)
                .collect();
            // Each selected position independently picks its insert or its
            // delete part; remaining atoms probe the stored (new) state.
            for part_mask in 0u32..(1u32 << selected.len()) {
                let mut pins: Vec<Pin> = Vec::with_capacity(selected.len());
                let mut n_ins = 0usize;
                let mut feasible = true;
                for (j, &pos) in selected.iter().enumerate() {
                    let change = changed_at(rule, pos, changes);
                    let use_ins = part_mask >> j & 1 == 1;
                    let rows = if use_ins { &change.ins } else { &change.del };
                    if rows.is_empty() {
                        feasible = false;
                        break;
                    }
                    if use_ins {
                        n_ins += 1;
                    }
                    pins.push(Pin { pos, rows, stride: change.stride });
                }
                if !feasible {
                    continue;
                }
                let sign: i64 = if n_ins % 2 == 1 { 1 } else { -1 };
                let derived = fire_pinned(rule, db, &pins, &[], stats, guard)?;
                let arity = rule.head_arity;
                for row in derived.cells.chunks_exact(derived.stride) {
                    *delta_counts.entry(row[..arity].to_vec()).or_insert(0) += sign;
                }
            }
        }
    }
    let mut transitions: Vec<(Vec<Cell>, i64)> =
        delta_counts.into_iter().filter(|(_, d)| *d != 0).collect();
    if transitions.is_empty() {
        return Ok(());
    }
    transitions.sort();
    let arity = db.get(&name).map(|r| r.arity()).unwrap_or(0);
    let table = counts.entry(name.clone()).or_default();
    for (row, delta) in transitions {
        match table.apply(&row, delta) {
            SupportChange::BecameLive => {
                if let Some(rel) = db.get_mut(&name) {
                    rel.insert_cells(&row);
                }
                changes.entry(&name, arity).push_ins(&row);
            }
            SupportChange::BecameDead => {
                if let Some(rel) = db.get_mut(&name) {
                    rel.remove_cells(&row);
                }
                changes.entry(&name, arity).push_del(&row);
            }
            SupportChange::Unchanged => {}
        }
    }
    stats.iterations += 1;
    Ok(())
}

/// Monotone maintenance of a lattice component on an insert-only batch:
/// seed every rule from its changed positions' inserted rows, let the
/// lattice staging displace dominated rows, run the scoped delta rounds for
/// looping components, and diff against a pre-batch snapshot (displacements
/// surface as downstream deletes).
fn lattice_monotone_scc(
    engine: &DatalogEngine,
    scc: &SccPlan,
    db: &mut Database,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<()> {
    let old: Vec<(String, Vec<Vec<Cell>>)> =
        scc.relations.iter().map(|n| (n.clone(), snapshot_rows(db, n))).collect();
    for rule in &scc.rules {
        for pos in positive_changed_positions(rule, &scc.relations, changes) {
            let change = changed_at(rule, pos, changes);
            if !change.has_ins() {
                continue;
            }
            let pin = Pin { pos, rows: &change.ins, stride: change.stride };
            let derived = fire_pinned(rule, db, &[pin], &[], stats, guard)?;
            store_derived(rule, db, &derived, true)?;
        }
    }
    engine.run_rounds(scc, db, stats, guard)?;
    for (name, old_rows) in &old {
        diff_into_changes(db, name, 0, old_rows, changes);
    }
    Ok(())
}

/// Bind a rule's head terms to a concrete derived row, producing the seed
/// environment of DRed's backward re-derivation check. `None` when the row
/// cannot match the head (constant mismatch, or conflicting repeated
/// variables).
fn env_from_head(plan: &RulePlan, row: &[Cell]) -> Option<Vec<Cell>> {
    let mut env = vec![UNBOUND_CELL; plan.nvars];
    for (i, term) in plan.head.iter().enumerate() {
        match term {
            PlanTerm::Slot(s) => {
                if env[*s] != UNBOUND_CELL && env[*s] != row[i] {
                    return None;
                }
                env[*s] = row[i];
            }
            PlanTerm::Const(c) => {
                if row[i] != *c {
                    return None;
                }
            }
            PlanTerm::Wildcard => return None,
        }
    }
    Some(env)
}

/// DRed maintenance of a looping, set-semantics component.
///
/// 1. **Over-delete**: mark every stored row with a derivation touching a
///    deleted external row (all nonempty subsets of deleted positions,
///    pinned) or a newly failing negation (seeded from the negated
///    relation's inserted rows), then cascade the marks through the
///    component's recursive positions — without physically removing
///    anything yet, so multi-premise derivations are still observable.
/// 2. **Remove** every marked candidate.
/// 3. **Re-derive**: per candidate, a backward join seeded from its head
///    bindings checks for surviving support; re-inserted rows propagate
///    forward through the recursive positions.
/// 4. **Insert propagation**: seed each rule from inserted external rows
///    (and re-satisfied negations), stage, and run the scoped semi-naive
///    delta rounds to fixpoint.
///
/// The component's net delta is read off the arena: rows appended after
/// phase 2 that are not re-derived candidates are net inserts; candidates
/// absent at the end are net deletes.
///
/// Returns `false` — with the database untouched — when the over-deletion
/// cascade marks so much of the component that a scoped recompute is the
/// cheaper correct move (DRed's known overshoot on densely connected
/// components: one cut edge can transitively mark, remove and re-derive the
/// entire reachable set). The caller falls back to [`recompute_scc`].
fn dred_scc(
    engine: &DatalogEngine,
    scc: &SccPlan,
    db: &mut Database,
    changes: &mut ChangeSet,
    stats: &mut EvalStats,
    guard: &QueryGuard,
) -> Result<bool> {
    // Marking is pure bookkeeping over the stored state, so bailing out at
    // any point before phase 2 leaves nothing to undo.
    let stored_total: usize = scc.relations.iter().filter_map(|n| db.get(n)).map(|r| r.len()).sum();
    let overshoot = |cand: &HashMap<String, FxHashSet<Vec<Cell>>>| {
        let marked: usize = cand.values().map(|s| s.len()).sum();
        marked >= 16 && marked * 4 >= stored_total
    };
    let mut cand: HashMap<String, FxHashSet<Vec<Cell>>> =
        scc.relations.iter().map(|n| (n.clone(), FxHashSet::default())).collect();
    let mut frontier: HashMap<String, Vec<Cell>> =
        scc.relations.iter().map(|n| (n.clone(), Vec::new())).collect();
    let info: HashMap<String, (usize, usize)> = scc
        .relations
        .iter()
        .filter_map(|n| db.get(n).map(|r| (n.clone(), (r.arity(), r.stride()))))
        .collect();

    // Marks the stored rows among `derived` (head rows of `rule`).
    fn mark(
        db: &Database,
        rule: &RulePlan,
        derived: &Derived,
        cand: &mut HashMap<String, FxHashSet<Vec<Cell>>>,
        frontier: &mut HashMap<String, Vec<Cell>>,
    ) {
        let name = &rule.head_relation;
        let Some(rel) = db.get(name) else { return };
        let arity = rule.head_arity;
        // `cand`/`frontier` are seeded with every relation of the component
        // before marking begins; rule heads are component relations.
        #[allow(clippy::expect_used)]
        let set = cand.get_mut(name).expect("component relation");
        #[allow(clippy::expect_used)]
        let front = frontier.get_mut(name).expect("component relation");
        for row in derived.cells.chunks_exact(derived.stride) {
            let key = &row[..arity];
            if rel.contains_cells(key) && !set.contains(key) {
                set.insert(key.to_vec());
                front.extend_from_slice(row);
            }
        }
    }

    // Phase 1: seed the over-deletion from external deletes and newly
    // failing negations.
    for rule in &scc.rules {
        let skip = negated_changed_positions(rule, &scc.relations, changes);
        let del_positions: Vec<usize> = positive_changed_positions(rule, &scc.relations, changes)
            .into_iter()
            .filter(|&pos| changed_at(rule, pos, changes).has_del())
            .collect();
        for subset in 1u32..(1u32 << del_positions.len()) {
            let pins: Vec<Pin> = del_positions
                .iter()
                .enumerate()
                .filter(|(j, _)| subset >> j & 1 == 1)
                .map(|(_, &pos)| {
                    let change = changed_at(rule, pos, changes);
                    Pin { pos, rows: &change.del, stride: change.stride }
                })
                .collect();
            let derived = fire_pinned(rule, db, &pins, &skip, stats, guard)?;
            mark(db, rule, &derived, &mut cand, &mut frontier);
        }
        for &idx in &skip {
            let change = changed_at(rule, idx, changes);
            if !change.has_ins() {
                continue;
            }
            let seed = Pin { pos: idx, rows: &change.ins, stride: change.stride };
            let derived = fire_pinned(rule, db, &[seed], &skip, stats, guard)?;
            mark(db, rule, &derived, &mut cand, &mut frontier);
        }
    }

    // Phase 1 cascade: marks propagate through the recursive positions
    // (marked rows are still stored, so sibling premises remain joinable).
    loop {
        guard.checkpoint(CheckPoint::IvmStep)?;
        if overshoot(&cand) {
            return Ok(false);
        }
        let current = std::mem::take(&mut frontier);
        frontier = scc.relations.iter().map(|n| (n.clone(), Vec::new())).collect();
        if current.values().all(|rows| rows.is_empty()) {
            break;
        }
        for rule in &scc.rules {
            let skip = negated_changed_positions(rule, &scc.relations, changes);
            for &pos in &rule.recursive_positions {
                let PlanElem::Atom(atom) = &rule.body[pos] else { continue };
                let Some(rows) = current.get(&atom.relation) else { continue };
                if rows.is_empty() {
                    continue;
                }
                let stride = info.get(&atom.relation).map(|&(_, s)| s).unwrap_or(1);
                let derived =
                    fire_pinned(rule, db, &[Pin { pos, rows, stride }], &skip, stats, guard)?;
                mark(db, rule, &derived, &mut cand, &mut frontier);
            }
        }
    }

    // Phase 2: physically retract every candidate. From here on the
    // candidates are kept as row lists, in the marking set's order.
    let cand: Vec<(String, Vec<Vec<Cell>>)> = scc
        .relations
        .iter()
        .map(|n| {
            (n.clone(), cand.remove(n).map(|set| set.into_iter().collect()).unwrap_or_default())
        })
        .collect();
    for (name, rows) in &cand {
        if rows.is_empty() {
            continue;
        }
        // Maintenance moved every component relation into the warm database
        // before this pass (see `PreparedDatabase::apply_delta`).
        #[allow(clippy::expect_used)]
        let rel = db.get_mut(name).expect("component relation");
        for row in rows {
            rel.remove_cells(row);
        }
    }

    // Everything phases 3–4 append after this arena mark is a (re-)derived
    // row; the net delta is read off the suffix at the end.
    let marks: Vec<usize> = scc
        .relations
        .iter()
        .map(|n| db.get(n).map(|r| r.full_cells().len()).unwrap_or(0))
        .collect();

    // Phase 3: backward re-derivation checks, then forward propagation of
    // everything that survived.
    let mut refront: HashMap<String, Vec<Cell>> =
        scc.relations.iter().map(|n| (n.clone(), Vec::new())).collect();
    for (name, rows) in &cand {
        let (arity, _) = *info.get(name).unwrap_or(&(0, 1));
        for row in rows {
            for rule in scc.rules.iter().filter(|p| p.head_relation == *name) {
                let Some(env0) = env_from_head(rule, row) else { continue };
                stats.rule_applications += 1;
                let envs = join(rule, db, rule.schedule_for(None), &[], Some(env0), &[], guard)?;
                if !envs.is_empty() {
                    // Component relations live in the warm database for the
                    // whole pass, and `refront` is seeded with all of them.
                    #[allow(clippy::expect_used)]
                    let rel = db.get_mut(name).expect("component relation");
                    rel.insert_cells(&row[..arity]);
                    #[allow(clippy::expect_used)]
                    let front = refront.get_mut(name).expect("component relation");
                    RelChange::push_padded(front, row, arity, arity.max(1));
                    break;
                }
            }
        }
    }
    loop {
        guard.checkpoint(CheckPoint::IvmStep)?;
        let current = std::mem::take(&mut refront);
        refront = scc.relations.iter().map(|n| (n.clone(), Vec::new())).collect();
        if current.values().all(|rows| rows.is_empty()) {
            break;
        }
        for rule in &scc.rules {
            for &pos in &rule.recursive_positions {
                let PlanElem::Atom(atom) = &rule.body[pos] else { continue };
                let Some(rows) = current.get(&atom.relation) else { continue };
                if rows.is_empty() {
                    continue;
                }
                let stride = info.get(&atom.relation).map(|&(_, s)| s).unwrap_or(1);
                let derived =
                    fire_pinned(rule, db, &[Pin { pos, rows, stride }], &[], stats, guard)?;
                let head = &rule.head_relation;
                let arity = rule.head_arity;
                for row in derived.cells.chunks_exact(derived.stride) {
                    let key = &row[..arity];
                    let present = db.get(head).map(|r| r.contains_cells(key)).unwrap_or(false);
                    if !present {
                        if let Some(rel) = db.get_mut(head) {
                            rel.insert_cells(key);
                        }
                        // `refront` is re-seeded with every component
                        // relation at the top of each round.
                        #[allow(clippy::expect_used)]
                        refront.get_mut(head).expect("component relation").extend_from_slice(row);
                    }
                }
            }
        }
    }

    // Phase 4: insert propagation — seed from external inserts and
    // re-satisfied negations, then run the scoped delta rounds.
    for rule in &scc.rules {
        for pos in positive_changed_positions(rule, &scc.relations, changes) {
            let change = changed_at(rule, pos, changes);
            if !change.has_ins() {
                continue;
            }
            let pin = Pin { pos, rows: &change.ins, stride: change.stride };
            let derived = fire_pinned(rule, db, &[pin], &[], stats, guard)?;
            store_derived(rule, db, &derived, true)?;
        }
        for idx in negated_changed_positions(rule, &scc.relations, changes) {
            let change = changed_at(rule, idx, changes);
            if !change.has_del() {
                continue;
            }
            // Seeded from the *deleted* rows of the negated relation; the
            // negation check stays on, verifying the gain in the new state.
            let seed = Pin { pos: idx, rows: &change.del, stride: change.stride };
            let derived = fire_pinned(rule, db, &[seed], &[], stats, guard)?;
            store_derived(rule, db, &derived, true)?;
        }
    }
    engine.run_rounds(scc, db, stats, guard)?;

    // Net delta: arena-suffix rows not among the candidates are inserts;
    // candidates that never came back are deletes.
    for ((name, rows), mark) in cand.iter().zip(marks) {
        diff_into_changes(db, name, mark, rows, changes);
    }
    Ok(true)
}
