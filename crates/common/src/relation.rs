//! In-memory relations and databases over **packed rows**.
//!
//! These are the storage substrate shared by the deductive (Datalog) and
//! relational (SQL) execution engines. A [`Relation`] is a *set* of tuples —
//! all of Raqlet's backends use set semantics, matching the paper's use of
//! `RETURN DISTINCT` / `SELECT DISTINCT` — with hash indexes over join
//! columns that are **persistent**: once built they are *extended* on every
//! insert instead of being invalidated, so a fixpoint loop never pays to
//! rebuild an index over a relation that only grew.
//!
//! Storage is one flat `Vec<u64>` arena per relation: every admitted tuple
//! is packed into fixed-width [`Cell`] words (ints inline, strings as ids in
//! the per-database [`ValueDict`] dictionary — see [`crate::cell`]) and row
//! `r` lives at `r × stride`. There is **no per-row allocation**: dedup,
//! index probes and join keys are word compares over cache-contiguous
//! memory. Every admitted tuple gets a stable row id, deduplication happens
//! through a hash table of row ids keyed by the row's [`hash_cells`] hash,
//! and indexes store row-id posting lists instead of tuple copies. Removed
//! rows (lattice merges replace dominated tuples) are tombstoned by writing
//! [`TOMBSTONE_CELL`] into their first word.
//!
//! The public API stays [`Value`]-based — [`insert`], [`iter`],
//! [`contains`], [`sorted`] encode/decode at the edges — while the engines
//! drive the packed fast path ([`insert_cells`], [`stage_cells`],
//! [`probe_index_cells`], [`iter_rows`]). Cells are meaningful only relative
//! to the dictionary that encoded them; relations created through a
//! [`Database`] share that database's dictionary, and [`merge`] takes the
//! packed fast path exactly when both sides share one dictionary.
//!
//! For semi-naive evaluation the visible state is split three ways:
//!
//! * the **full** set — every live row; this is what [`len`], [`iter`],
//!   [`contains`] and the indexes see;
//! * the **delta** — the rows that became visible in the *previous* fixpoint
//!   round (the frontier recursive rules join against);
//! * the **staged** set — tuples derived in the *current* round, invisible
//!   to reads until [`advance`] publishes them.
//!
//! The lifecycle per fixpoint round is: derive into the staging area via
//! [`stage`], then call [`advance`] to publish the staged tuples into the
//! arena (extending every index), make them the new delta, and start an
//! empty staging area.
//!
//! [`insert`]: Relation::insert
//! [`insert_cells`]: Relation::insert_cells
//! [`stage_cells`]: Relation::stage_cells
//! [`probe_index_cells`]: Relation::probe_index_cells
//! [`iter_rows`]: Relation::iter_rows
//! [`merge`]: Relation::merge
//! [`len`]: Relation::len
//! [`iter`]: Relation::iter
//! [`sorted`]: Relation::sorted
//! [`contains`]: Relation::contains
//! [`stage`]: Relation::stage
//! [`advance`]: Relation::advance
//!
//! ```
//! use raqlet_common::{Relation, Value};
//!
//! let mut edge = Relation::new(2);
//! edge.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
//! edge.insert(vec![Value::Int(1), Value::Int(3)]).unwrap();
//!
//! // Build a persistent index on the first column and probe it.
//! edge.ensure_index(&[0]);
//! assert_eq!(edge.probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 2);
//!
//! // Inserting extends the index in place — no rebuild.
//! edge.insert(vec![Value::Int(1), Value::Int(4)]).unwrap();
//! assert_eq!(edge.probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 3);
//!
//! // Semi-naive delta lifecycle: stage derivations, then advance the round.
//! let mut tc = Relation::new(2);
//! tc.stage(vec![Value::Int(1), Value::Int(2)]).unwrap();
//! assert_eq!(tc.len(), 0); // staged tuples are not yet visible
//! assert_eq!(tc.advance(), 1);
//! assert_eq!(tc.len(), 1);
//! assert_eq!(tc.delta_len(), 1); // ... but now form the frontier
//! ```

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::cell::{is_tombstone, Cell, ValueDict, NULL_CELL, TOMBSTONE_CELL};
use crate::error::{RaqletError, Result};
use crate::hash::{hash_cells, FxHashMap};
use crate::value::Value;

/// A single row: a fixed-arity vector of values (the decoded, `Value`-level
/// view of a packed row).
pub type Tuple = Vec<Value>;

/// Row id within a relation's arena. Arena slots are never reused, so a
/// `RowId` stays valid (though its row may be tombstoned) for the relation's
/// lifetime.
type RowId = u32;

/// A posting list of row ids that stores the overwhelmingly common
/// zero/one-entry cases inline, avoiding one heap allocation per entry in
/// the dedup table and in selective indexes (which dominates clone cost).
#[derive(Debug, Clone)]
enum IdList {
    One(RowId),
    Many(Vec<RowId>),
}

impl IdList {
    fn push(&mut self, id: RowId) {
        match self {
            IdList::One(first) => *self = IdList::Many(vec![*first, id]),
            IdList::Many(v) => v.push(id),
        }
    }

    fn remove(&mut self, id: RowId) -> bool {
        match self {
            // An empty `One` cannot be represented; the caller removes the
            // whole entry when this returns true.
            IdList::One(first) => *first == id,
            IdList::Many(v) => {
                v.retain(|&p| p != id);
                v.is_empty()
            }
        }
    }

    fn iter(&self) -> std::slice::Iter<'_, RowId> {
        match self {
            IdList::One(first) => std::slice::from_ref(first).iter(),
            IdList::Many(v) => v.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            IdList::One(_) => 0,
            IdList::Many(v) => v.capacity() * size_of::<RowId>(),
        }
    }
}

/// A persistent hash index over one or more columns, mapping the projected
/// packed key to the ids of matching rows. Single-column indexes key on the
/// cell word directly.
#[derive(Debug, Clone)]
enum Index {
    /// Index over exactly one column: keyed by the cell directly.
    Single(usize, FxHashMap<Cell, IdList>),
    /// Index over several columns: keyed by the projected cell vector.
    Multi(Vec<usize>, FxHashMap<Vec<Cell>, IdList>),
}

impl Index {
    fn new(columns: &[usize]) -> Index {
        if columns.len() == 1 {
            Index::Single(columns[0], FxHashMap::default())
        } else {
            Index::Multi(columns.to_vec(), FxHashMap::default())
        }
    }

    /// Add one row to the posting list for its key (`row` is the arity-wide
    /// cell slice).
    fn add(&mut self, id: RowId, row: &[Cell]) {
        match self {
            Index::Single(col, map) => match map.get_mut(&row[*col]) {
                Some(postings) => postings.push(id),
                None => {
                    map.insert(row[*col], IdList::One(id));
                }
            },
            Index::Multi(cols, map) => {
                let key: Vec<Cell> = cols.iter().map(|&c| row[c]).collect();
                match map.get_mut(key.as_slice()) {
                    Some(postings) => postings.push(id),
                    None => {
                        map.insert(key, IdList::One(id));
                    }
                }
            }
        }
    }

    /// The posting list for `key` (projected cells in column order).
    fn get(&self, key: &[Cell]) -> Option<&IdList> {
        match self {
            Index::Single(_, map) => map.get(&key[0]),
            Index::Multi(_, map) => map.get(key),
        }
    }

    /// Drop every posting list (arena compaction rebuilds them with the
    /// renumbered row ids).
    fn clear(&mut self) {
        match self {
            Index::Single(_, map) => map.clear(),
            Index::Multi(_, map) => map.clear(),
        }
    }

    /// Remove one row id from the posting list for `row`'s key.
    fn remove(&mut self, id: RowId, row: &[Cell]) {
        match self {
            Index::Single(col, map) => {
                if let Some(postings) = map.get_mut(&row[*col]) {
                    if postings.remove(id) {
                        map.remove(&row[*col]);
                    }
                }
            }
            Index::Multi(cols, map) => {
                let key: Vec<Cell> = cols.iter().map(|&c| row[c]).collect();
                if let Some(postings) = map.get_mut(key.as_slice()) {
                    if postings.remove(id) {
                        map.remove(key.as_slice());
                    }
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Index::Single(_, map) => {
                map.capacity() * (size_of::<Cell>() + size_of::<IdList>() + 8)
                    + map.values().map(IdList::heap_bytes).sum::<usize>()
            }
            Index::Multi(cols, map) => {
                map.capacity() * (size_of::<Vec<Cell>>() + size_of::<IdList>() + 8 + cols.len() * 8)
                    + map.values().map(IdList::heap_bytes).sum::<usize>()
            }
        }
    }
}

/// A set of tuples of uniform arity, stored as packed cells in one flat
/// append-only arena with persistent hash indexes and semi-naive `full` /
/// `delta` / `staged` state (see the module docs for the lifecycle).
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    /// Words per arena row: `max(arity, 1)` — nullary relations pad each row
    /// with one [`NULL_CELL`] so that row ids, tombstones and the delta
    /// lifecycle work uniformly.
    stride: usize,
    /// The flat row arena: row `r` occupies `cells[r*stride .. (r+1)*stride]`.
    /// A tombstoned row has [`TOMBSTONE_CELL`] in its first word. Slots are
    /// never reused.
    cells: Vec<Cell>,
    /// Number of live (non-tombstoned) rows.
    live: usize,
    /// Deduplication table: packed-row hash → candidate row ids.
    dedup: FxHashMap<u64, IdList>,
    /// The frontier: packed snapshots (stride-wide rows) of the tuples
    /// published by the most recent [`Relation::advance`]. Stored by value so
    /// that mid-round lattice removals of dominated rows cannot mutate the
    /// frontier the current round is joining against.
    delta: Vec<Cell>,
    /// The staging area: stride-wide packed rows derived this round, not yet
    /// published. Deduplicated through `staged_dedup`; rows removed while
    /// staged are tombstoned in place.
    staged: Vec<Cell>,
    /// Dedup for the staging area: packed-row hash → staged row ordinals.
    staged_dedup: FxHashMap<u64, IdList>,
    /// Number of live staged rows.
    staged_live: usize,
    /// Packed rows published mid-round by [`Relation::lattice_insert`] that
    /// the next [`Relation::advance`] must still announce in the delta.
    delta_next: Vec<Cell>,
    /// Persistent hash indexes, keyed by the column positions they cover.
    /// Extended in place on insert, never invalidated.
    indexes: HashMap<Vec<usize>, Index>,
    /// Number of from-scratch index constructions this relation has paid for
    /// (monotonic; cloning carries the count). [`Relation::ensure_index`]
    /// increments it only when it actually builds — warm, prepared
    /// executions can therefore pin "zero rebuilds" in tests.
    index_builds: usize,
    /// The dictionary the cells of this relation were encoded against.
    dict: Arc<ValueDict>,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new(0)
    }
}

impl Relation {
    /// Create an empty relation with the given arity and its own (fresh)
    /// dictionary. Prefer [`Database::get_or_create`] — or
    /// [`Relation::with_dict`] — when the relation will live alongside
    /// others, so packed rows stay comparable across relations.
    pub fn new(arity: usize) -> Self {
        Relation::with_dict(arity, ValueDict::shared())
    }

    /// Create an empty relation encoding its cells against the given shared
    /// dictionary.
    pub fn with_dict(arity: usize, dict: Arc<ValueDict>) -> Self {
        Relation {
            arity,
            stride: arity.max(1),
            cells: Vec::new(),
            live: 0,
            dedup: FxHashMap::default(),
            delta: Vec::new(),
            staged: Vec::new(),
            staged_dedup: FxHashMap::default(),
            staged_live: 0,
            delta_next: Vec::new(),
            indexes: HashMap::new(),
            index_builds: 0,
            dict,
        }
    }

    /// Create a relation from an iterator of tuples. All tuples must share
    /// the same arity.
    pub fn from_tuples<I>(arity: usize, tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rel = Relation::new(arity);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Words per arena row: `max(arity, 1)`. Packed-row slices handed out by
    /// [`Relation::delta_cells`] and [`Relation::full_cells`] are
    /// stride-wide; the first `arity` words are the tuple's cells.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The dictionary this relation's cells are encoded against.
    pub fn dict(&self) -> &Arc<ValueDict> {
        &self.dict
    }

    /// Number of live tuples in the full (published) set.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the full set holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of arena rows (live + tombstoned).
    fn nrows(&self) -> usize {
        self.cells.len() / self.stride
    }

    /// The arity-wide cell slice of arena row `id` (may be tombstoned).
    #[inline]
    fn row(&self, id: RowId) -> &[Cell] {
        let start = id as usize * self.stride;
        &self.cells[start..start + self.arity]
    }

    /// True if arena row `id` has not been tombstoned.
    #[inline]
    fn row_is_live(&self, id: RowId) -> bool {
        !is_tombstone(self.cells[id as usize * self.stride])
    }

    /// Encode a `Value` tuple into arity-wide cells, growing the dictionary
    /// as needed.
    fn encode_row(&self, tuple: &[Value], out: &mut Vec<Cell>) {
        out.clear();
        out.extend(tuple.iter().map(|v| self.dict.encode_value(v)));
    }

    /// Encode a probe tuple without growing the dictionary; `None` means at
    /// least one value cannot be stored in any relation sharing this
    /// dictionary (so membership is necessarily false).
    fn try_encode_row(&self, tuple: &[Value]) -> Option<Vec<Cell>> {
        tuple.iter().map(|v| self.dict.try_encode_value(v)).collect()
    }

    /// Decode an arity-wide cell slice back to a `Value` tuple.
    fn decode_row(&self, row: &[Cell]) -> Tuple {
        row.iter().map(|&c| self.dict.decode(c)).collect()
    }

    /// The row id of the packed row if it is live in the arena. `row` is
    /// arity-wide and encoded against this relation's dictionary.
    fn find_cells(&self, row: &[Cell]) -> Option<RowId> {
        let ids = self.dedup.get(&hash_cells(row))?;
        ids.iter().copied().find(|&id| self.row_is_live(id) && self.row(id) == row)
    }

    /// Append a (known-new) packed row to the arena, the dedup table and
    /// every index, returning its row id. `row` is arity-wide.
    fn push_row(&mut self, row: &[Cell]) -> RowId {
        debug_assert_eq!(row.len(), self.arity);
        let id = self.nrows() as RowId;
        for index in self.indexes.values_mut() {
            index.add(id, row);
        }
        match self.dedup.entry(hash_cells(row)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut().push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdList::One(id));
            }
        }
        self.cells.extend_from_slice(row);
        if self.arity == 0 {
            self.cells.push(NULL_CELL);
        }
        self.live += 1;
        id
    }

    /// Insert a tuple directly into the full set, extending every existing
    /// index. Returns `Ok(true)` if the tuple was new.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.len() != self.arity {
            return Err(RaqletError::Execution(format!(
                "arity mismatch: relation has arity {}, tuple has arity {}",
                self.arity,
                tuple.len()
            )));
        }
        Ok(self.insert_unchecked(tuple))
    }

    /// Insert without arity checking (callers have already validated arity
    /// via the schema).
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        debug_assert_eq!(tuple.len(), self.arity, "arity mismatch in insert_unchecked");
        let mut row = Vec::with_capacity(self.arity);
        self.encode_row(&tuple, &mut row);
        self.insert_cells(&row)
    }

    /// Insert an already-encoded arity-wide packed row (engine/bulk-load hot
    /// path; the cells must come from this relation's dictionary). Returns
    /// true if the row was new.
    #[inline]
    pub fn insert_cells(&mut self, row: &[Cell]) -> bool {
        debug_assert_eq!(row.len(), self.arity, "arity mismatch in insert_cells");
        if self.find_cells(row).is_some() {
            return false;
        }
        self.push_row(row);
        true
    }

    /// Pre-allocate arena and dedup capacity for `additional` more rows —
    /// the persistence bulk-load path calls this with the exact row count
    /// read from a snapshot header so loading never reallocates.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.cells.reserve(additional * self.stride);
        self.dedup.reserve(additional);
    }

    /// Bulk-install an already-encoded, tombstone-free arena into this
    /// fresh (empty, index-free) relation: `cells` becomes the arena
    /// verbatim and the dedup table is built in a single pass — one hash
    /// per row instead of the find-then-push pair every
    /// [`Relation::insert_cells`] pays. This is the snapshot loader's fast
    /// path (cold-open time is dominated by arena reconstruction).
    ///
    /// Returns the id of the first duplicate row, if any; the relation is
    /// partially built in that case and must be discarded (the snapshot
    /// loader treats a duplicate as corruption).
    pub fn load_rows(&mut self, cells: Vec<Cell>) -> Option<usize> {
        debug_assert!(
            self.cells.is_empty() && self.indexes.is_empty(),
            "load_rows needs a fresh relation"
        );
        debug_assert!(self.arity > 0, "nullary relations go through insert_cells");
        debug_assert_eq!(cells.len() % self.stride, 0, "cells must be whole rows");
        let nrows = cells.len() / self.stride;
        self.cells = cells;
        self.dedup.reserve(nrows);
        let (arity, stride) = (self.arity, self.stride);
        let cells = &self.cells;
        for id in 0..nrows {
            let row = &cells[id * stride..id * stride + arity];
            match self.dedup.entry(hash_cells(row)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let dup = e
                        .get()
                        .iter()
                        .any(|&p| &cells[p as usize * stride..p as usize * stride + arity] == row);
                    if dup {
                        return Some(id);
                    }
                    e.into_mut().push(id as RowId);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(IdList::One(id as RowId));
                }
            }
        }
        self.live = nrows;
        None
    }

    /// Stage a tuple for the current fixpoint round. The tuple becomes
    /// visible only after [`Relation::advance`]. Returns `Ok(true)` if the
    /// tuple is new (present neither in the full set nor already staged).
    pub fn stage(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.len() != self.arity {
            return Err(RaqletError::Execution(format!(
                "arity mismatch: relation has arity {}, tuple has arity {}",
                self.arity,
                tuple.len()
            )));
        }
        let mut row = Vec::with_capacity(self.arity);
        self.encode_row(&tuple, &mut row);
        Ok(self.stage_cells(&row))
    }

    /// [`Relation::stage`] for an already-encoded packed row (engine hot
    /// path).
    #[inline]
    pub fn stage_cells(&mut self, row: &[Cell]) -> bool {
        debug_assert_eq!(row.len(), self.arity, "arity mismatch in stage_cells");
        if self.find_cells(row).is_some() {
            return false;
        }
        let hash = hash_cells(row);
        if let Some(ids) = self.staged_dedup.get(&hash) {
            let stride = self.stride;
            if ids.iter().any(|&id| {
                &self.staged[id as usize * stride..id as usize * stride + self.arity] == row
            }) {
                return false;
            }
        }
        let id = (self.staged.len() / self.stride) as RowId;
        self.staged.extend_from_slice(row);
        if self.arity == 0 {
            self.staged.push(NULL_CELL);
        }
        match self.staged_dedup.entry(hash) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut().push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdList::One(id));
            }
        }
        self.staged_live += 1;
        true
    }

    /// Number of tuples currently staged (derived this round, unpublished).
    pub fn staged_len(&self) -> usize {
        self.staged_live
    }

    /// Finish a fixpoint round: publish every staged tuple into the full set
    /// (extending all indexes in place), make the round's new rows (staged
    /// plus any mid-round [`Relation::lattice_insert`]s) the new delta, and
    /// clear the staging area. Returns the number of rows in the new delta.
    pub fn advance(&mut self) -> usize {
        let staged = std::mem::take(&mut self.staged);
        self.staged_dedup.clear();
        self.staged_live = 0;
        self.delta = std::mem::take(&mut self.delta_next);
        self.delta.reserve(staged.len());
        let arity = self.arity;
        for row in staged.chunks_exact(self.stride) {
            if is_tombstone(row[0]) {
                continue;
            }
            // `stage` checked membership at staging time, but a direct
            // `insert` may have landed in between; re-check.
            if self.find_cells(&row[..arity]).is_some() {
                continue;
            }
            self.push_row(&row[..arity]);
            self.delta.extend_from_slice(row);
        }
        self.delta.len() / self.stride
    }

    /// Compare two cells under the total value order (used by lattice
    /// merges). Inline integers compare without touching the dictionary.
    fn cmp_cells(&self, a: Cell, b: Cell) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        if let (Some(x), Some(y)) = (crate::cell::inline_int(a), crate::cell::inline_int(b)) {
            return x.cmp(&y);
        }
        self.dict.decode(a).total_cmp(&self.dict.decode(b))
    }

    /// Insert under min/max-lattice semantics: the tuple is admitted only if
    /// its `col` value improves on every stored tuple of the same *group*
    /// (all other columns); dominated stored tuples are removed. Unlike
    /// [`Relation::stage`], an admitted tuple is published into the full set
    /// immediately (so the rest of the round observes the improvement), and
    /// is announced in the delta of the next [`Relation::advance`].
    pub fn lattice_insert(&mut self, tuple: Tuple, col: usize, minimize: bool) -> bool {
        let mut row = Vec::with_capacity(self.arity);
        self.encode_row(&tuple, &mut row);
        self.lattice_insert_cells(&row, col, minimize)
    }

    /// [`Relation::lattice_insert`] for an already-encoded packed row
    /// (engine hot path).
    pub fn lattice_insert_cells(&mut self, row: &[Cell], col: usize, minimize: bool) -> bool {
        debug_assert!(col < self.arity, "lattice column out of range");
        debug_assert_eq!(row.len(), self.arity);
        let group_cols: Vec<usize> = (0..self.arity).filter(|&i| i != col).collect();
        self.ensure_index(&group_cols);
        let key: Vec<Cell> = group_cols.iter().map(|&c| row[c]).collect();
        let mut dominated: Vec<RowId> = Vec::new();
        if let Some(postings) = self.indexes[group_cols.as_slice()].get(&key) {
            for &id in postings.iter() {
                if !self.row_is_live(id) {
                    continue;
                }
                let ord = self.cmp_cells(row[col], self.row(id)[col]);
                let better =
                    if minimize { ord == Ordering::Less } else { ord == Ordering::Greater };
                if better {
                    dominated.push(id);
                } else {
                    // An equal-or-better tuple is already stored.
                    return false;
                }
            }
        }
        for id in dominated {
            let old: Vec<Cell> = self.row(id).to_vec();
            self.remove_row(id);
            retain_rows(&mut self.delta_next, self.stride, |r| &r[..old.len()] != old.as_slice());
        }
        self.push_row(row);
        self.delta_next.extend_from_slice(row);
        if self.arity == 0 {
            self.delta_next.push(NULL_CELL);
        }
        true
    }

    /// The frontier tuples published by the most recent
    /// [`Relation::advance`], decoded.
    pub fn delta(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.delta.chunks_exact(self.stride).map(|row| self.decode_row(&row[..self.arity]))
    }

    /// The frontier as one flat packed slice of stride-wide rows, so callers
    /// can partition it into chunks (parallel delta-driven rule evaluation
    /// splits this slice across worker threads at row boundaries).
    pub fn delta_cells(&self) -> &[Cell] {
        &self.delta
    }

    /// Number of rows in the delta.
    pub fn delta_len(&self) -> usize {
        self.delta.len() / self.stride
    }

    /// True if the delta is empty.
    pub fn delta_is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Drop the delta and staging state (used when a fixpoint finishes so the
    /// relation leaves evaluation in a clean, full-set-only state).
    pub fn clear_rounds(&mut self) {
        self.delta.clear();
        self.staged.clear();
        self.staged_dedup.clear();
        self.staged_live = 0;
        self.delta_next.clear();
    }

    /// Seed the delta with the entire full set (the "round zero" frontier of
    /// a fixpoint that starts from already-loaded facts).
    pub fn seed_delta_from_full(&mut self) {
        let live_cells = self.live * self.stride;
        let Relation { delta, cells, stride, .. } = self;
        delta.clear();
        delta.reserve(live_cells);
        // Copy full stride rows (including any nullary pad).
        for row in cells.chunks_exact(*stride) {
            if !is_tombstone(row[0]) {
                delta.extend_from_slice(row);
            }
        }
    }

    /// The raw arena as one flat slice of stride-wide rows, **including**
    /// tombstoned rows (marked by [`TOMBSTONE_CELL`] in their first word).
    /// Parallel round-zero evaluation partitions this slice across worker
    /// threads; consumers must skip tombstoned rows.
    pub fn full_cells(&self) -> &[Cell] {
        &self.cells
    }

    /// True if the full set contains `tuple`.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        match self.try_encode_row(tuple) {
            Some(row) => self.find_cells(&row).is_some(),
            None => false,
        }
    }

    /// True if the full set contains the packed row (arity-wide, encoded
    /// against this relation's dictionary).
    #[inline]
    pub fn contains_cells(&self, row: &[Cell]) -> bool {
        self.find_cells(row).is_some()
    }

    /// Iterate over the full set in insertion order, decoding each row.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter_rows().map(|row| self.decode_row(row))
    }

    /// Iterate over the packed (arity-wide) rows of the full set in
    /// insertion order, skipping tombstones. This is the engines' scan path:
    /// no decoding, no allocation.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Cell]> + '_ {
        self.cells
            .chunks_exact(self.stride)
            .filter(|row| !is_tombstone(row[0]))
            .map(move |row| &row[..self.arity])
    }

    /// All tuples, sorted, for deterministic output and comparisons in tests.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().collect();
        v.sort();
        v
    }

    /// Set-union with another relation's full set, returning the number of
    /// new tuples. Packed fast path when both relations share a dictionary.
    pub fn merge(&mut self, other: &Relation) -> Result<usize> {
        if other.arity != self.arity && !other.is_empty() {
            return Err(RaqletError::Execution(format!(
                "cannot merge relation of arity {} into relation of arity {}",
                other.arity, self.arity
            )));
        }
        let mut added = 0;
        if Arc::ptr_eq(&self.dict, &other.dict) {
            // Borrow juggling: copy rows out lazily via index ranges to keep
            // the borrow checker happy without cloning the whole arena.
            for id in 0..other.nrows() {
                if !other.row_is_live(id as RowId) {
                    continue;
                }
                let start = id * other.stride;
                let row: &[Cell] = &other.cells[start..start + other.arity];
                if self.insert_cells(row) {
                    added += 1;
                }
            }
        } else {
            for t in other.iter() {
                if self.insert_unchecked(t) {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Rebuild the arena without its tombstoned slots, renumbering row ids
    /// and rebuilding the dedup table and every persistent index **in
    /// place** (the same declared column sets; this is maintenance of
    /// existing indexes, so [`Relation::index_build_count`] does not move).
    ///
    /// Arena slots are normally never reused, which makes repeated
    /// retraction + re-derivation (incremental view maintenance) grow the
    /// arena — and every full-set scan — without bound. Compaction restores
    /// `nrows() == len()`. Must only be called between fixpoint rounds
    /// (empty delta/staged state), since those hold row snapshots.
    pub fn compact(&mut self) {
        if self.nrows() == self.live {
            return;
        }
        debug_assert!(
            self.delta.is_empty() && self.staged.is_empty() && self.delta_next.is_empty(),
            "compact during an active fixpoint round"
        );
        let old = std::mem::take(&mut self.cells);
        self.cells = Vec::with_capacity(self.live * self.stride);
        self.dedup.clear();
        for index in self.indexes.values_mut() {
            index.clear();
        }
        self.live = 0;
        for row in old.chunks_exact(self.stride) {
            if !is_tombstone(row[0]) {
                self.push_row(&row[..self.arity]);
            }
        }
    }

    /// Compact when at least half the arena (and a non-trivial slot count)
    /// is tombstone garbage — the amortized-O(1)-per-write policy standing
    /// views use after each maintenance pass.
    pub fn maybe_compact(&mut self) {
        if self.nrows() >= 64 && self.live * 2 <= self.nrows() {
            self.compact();
        }
    }

    /// Tombstone one arena row: drop it from the live set, the dedup table
    /// and every index posting list.
    fn remove_row(&mut self, id: RowId) {
        if !self.row_is_live(id) {
            return;
        }
        let row: Vec<Cell> = self.row(id).to_vec();
        self.live -= 1;
        let hash = hash_cells(&row);
        if let Some(ids) = self.dedup.get_mut(&hash) {
            if ids.remove(id) {
                self.dedup.remove(&hash);
            }
        }
        for index in self.indexes.values_mut() {
            index.remove(id, &row);
        }
        self.cells[id as usize * self.stride] = TOMBSTONE_CELL;
    }

    /// Remove a tuple from the full set, every index, and the staging area
    /// (used by lattice merges that replace a dominated tuple). The delta
    /// holds packed snapshots, so the frontier the current round joins
    /// against is genuinely unaffected. Returns true if the tuple was
    /// present in the full set.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        let Some(row) = self.try_encode_row(tuple) else { return false };
        self.remove_cells(&row)
    }

    /// [`Relation::remove`] for an already-encoded arity-wide packed row (the
    /// incremental-maintenance retraction hot path). Tombstones the arena
    /// row, updates the dedup table and every persistent index in place, and
    /// drops any identical staged row. Returns true if the row was present
    /// in the full set.
    pub fn remove_cells(&mut self, row: &[Cell]) -> bool {
        debug_assert_eq!(row.len(), self.arity, "arity mismatch in remove_cells");
        // Tombstone any matching staged row.
        let hash = hash_cells(row);
        if let Some(ids) = self.staged_dedup.get(&hash) {
            let stride = self.stride;
            let arity = self.arity;
            let hit = ids.iter().copied().find(|&id| {
                let start = id as usize * stride;
                !is_tombstone(self.staged[start]) && &self.staged[start..start + arity] == row
            });
            if let Some(id) = hit {
                self.staged[id as usize * stride] = TOMBSTONE_CELL;
                self.staged_live -= 1;
                if let Some(ids) = self.staged_dedup.get_mut(&hash) {
                    if ids.remove(id) {
                        self.staged_dedup.remove(&hash);
                    }
                }
            }
        }
        match self.find_cells(row) {
            Some(id) => {
                self.remove_row(id);
                true
            }
            None => false,
        }
    }

    /// Build a persistent hash index over the given columns if one does not
    /// already exist. Subsequent inserts extend it in place.
    pub fn ensure_index(&mut self, columns: &[usize]) {
        if self.indexes.contains_key(columns) {
            return;
        }
        self.index_builds += 1;
        let mut index = Index::new(columns);
        for id in 0..self.nrows() {
            if self.row_is_live(id as RowId) {
                index.add(id as RowId, self.row(id as RowId));
            }
        }
        self.indexes.insert(columns.to_vec(), index);
    }

    /// Materialize every index in `column_sets` that does not already exist
    /// (see [`Relation::ensure_index`]). This is the declaration hook for
    /// compile-time index-requirements analysis: the engine's program plan
    /// computes exactly which column sets its join schedules will probe and
    /// declares them here once, up front, instead of relying on lazy builds
    /// on first probe.
    pub fn require_indexes(&mut self, column_sets: &[Vec<usize>]) {
        for columns in column_sets {
            self.ensure_index(columns);
        }
    }

    /// Probe a previously built index (see [`Relation::ensure_index`]) with
    /// a packed key (projected cells in column order). Returns `None` if no
    /// index exists over `columns`; otherwise an iterator over the live
    /// packed rows matching `key`.
    pub fn probe_index_cells<'a>(
        &'a self,
        columns: &[usize],
        key: &[Cell],
    ) -> Option<impl Iterator<Item = &'a [Cell]> + 'a> {
        let index = self.indexes.get(columns)?;
        let postings = index.get(key).map(|l| l.iter()).unwrap_or_else(|| [].iter());
        Some(postings.filter(|&&id| self.row_is_live(id)).map(move |&id| self.row(id)))
    }

    /// Probe a previously built index with `Value`-level key components,
    /// decoding the matching rows. Returns `None` if no index exists over
    /// `columns`; a key containing values this relation has never stored
    /// yields an empty iterator.
    pub fn probe_index<'a>(
        &'a self,
        columns: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = Tuple> + 'a> {
        let index = self.indexes.get(columns)?;
        let encoded: Option<Vec<Cell>> =
            key.iter().map(|v| self.dict.try_encode_value(v)).collect();
        let postings =
            encoded.and_then(|k| index.get(&k)).map(|l| l.iter()).unwrap_or_else(|| [].iter());
        Some(
            postings
                .filter(|&&id| self.row_is_live(id))
                .map(move |&id| self.decode_row(self.row(id))),
        )
    }

    /// Build (or fetch) a hash index over the given columns and return the
    /// matching tuples for `key`, decoded.
    pub fn probe(&mut self, columns: &[usize], key: &[Value]) -> Vec<Tuple> {
        self.ensure_index(columns);
        // Invariant: `ensure_index` just created (or found) the index, so the
        // probe cannot miss.
        #[allow(clippy::expect_used)]
        self.probe_index(columns, key).expect("index exists after ensure_index").collect()
    }

    /// True if a persistent index over exactly these columns exists.
    pub fn has_index(&self, columns: &[usize]) -> bool {
        self.indexes.contains_key(columns)
    }

    /// Number of persistent indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Number of from-scratch index constructions this relation has paid for
    /// over its lifetime (a clone inherits its source's count). Extending an
    /// index on insert does not count; only [`Relation::ensure_index`] calls
    /// that actually build do.
    pub fn index_build_count(&self) -> usize {
        self.index_builds
    }

    /// Project the relation onto the given column positions (with
    /// deduplication, since relations are sets). Pure cell copying — no
    /// decode; the result shares this relation's dictionary.
    pub fn project(&self, columns: &[usize]) -> Relation {
        let mut out = Relation::with_dict(columns.len(), self.dict.clone());
        let mut projected: Vec<Cell> = Vec::with_capacity(columns.len());
        for row in self.iter_rows() {
            projected.clear();
            projected.extend(columns.iter().map(|&c| row[c]));
            out.insert_cells(&projected);
        }
        out
    }

    /// Keep only tuples satisfying `pred` (which sees the decoded tuple).
    /// The result shares this relation's dictionary.
    pub fn filter<F: Fn(&Tuple) -> bool>(&self, pred: F) -> Relation {
        let mut out = Relation::with_dict(self.arity, self.dict.clone());
        for row in self.iter_rows() {
            if pred(&self.decode_row(row)) {
                out.insert_cells(row);
            }
        }
        out
    }

    /// Re-encode this relation's rows against `dict`, preserving the column
    /// sets of its persistent indexes (rebuilt, so the build counter grows).
    /// Round (delta/staged) state is not carried over.
    pub fn rebind(&self, dict: Arc<ValueDict>) -> Relation {
        let mut out = Relation::with_dict(self.arity, dict);
        for t in self.iter() {
            out.insert_unchecked(t);
        }
        for columns in self.indexes.keys() {
            out.ensure_index(columns);
        }
        out
    }

    /// Approximate heap footprint in bytes: the cell arena, round state, the
    /// dedup table, every persistent index, and this relation's share of the
    /// value dictionary (the dictionary's footprint divided by the number of
    /// live handles to it).
    pub fn heap_bytes(&self) -> usize {
        let vecs = (self.cells.capacity()
            + self.delta.capacity()
            + self.staged.capacity()
            + self.delta_next.capacity())
            * size_of::<Cell>();
        let dedup = self.dedup.capacity() * (8 + size_of::<IdList>() + 8)
            + self.dedup.values().map(IdList::heap_bytes).sum::<usize>();
        let staged_dedup = self.staged_dedup.capacity() * (8 + size_of::<IdList>() + 8)
            + self.staged_dedup.values().map(IdList::heap_bytes).sum::<usize>();
        let dict_share = self.dict.heap_bytes() / Arc::strong_count(&self.dict).max(1);
        vecs + dedup + staged_dedup + self.index_heap_bytes() + dict_share
    }

    /// Approximate heap footprint of the persistent hash indexes alone (a
    /// subset of [`Relation::heap_bytes`]), so benchmarks can report index
    /// overhead separately from arena storage.
    pub fn index_heap_bytes(&self) -> usize {
        self.indexes
            .iter()
            .map(|(cols, idx)| cols.capacity() * size_of::<usize>() + idx.heap_bytes())
            .sum()
    }
}

/// Retain only the stride-wide rows of `rows` satisfying `pred` (compacting
/// in place).
fn retain_rows<F: Fn(&[Cell]) -> bool>(rows: &mut Vec<Cell>, stride: usize, pred: F) {
    let mut write = 0;
    let mut read = 0;
    while read + stride <= rows.len() {
        let keep = pred(&rows[read..read + stride]);
        if keep {
            if write != read {
                rows.copy_within(read..read + stride, write);
            }
            write += stride;
        }
        read += stride;
    }
    rows.truncate(write);
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.arity != other.arity || self.live != other.live {
            return false;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.iter_rows().all(|row| other.contains_cells(row))
        } else {
            self.iter().all(|t| other.contains(&t))
        }
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.sorted() {
            let row = t.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\t");
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

/// A named collection of relations: the extensional database handed to the
/// engines, and also the container for computed IDB results. All relations
/// created through the database share one [`ValueDict`], so their packed
/// rows are directly comparable (and joinable) at the cell level.
#[derive(Debug, Clone)]
pub struct Database {
    relations: HashMap<String, Relation>,
    dict: Arc<ValueDict>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl Database {
    /// Create an empty database with a fresh value dictionary.
    pub fn new() -> Self {
        Database { relations: HashMap::new(), dict: ValueDict::shared() }
    }

    /// Create an empty database sharing an existing dictionary (evaluation
    /// working sets share the extensional database's dictionary so packed
    /// rows move between them verbatim).
    pub fn with_dict(dict: Arc<ValueDict>) -> Self {
        Database { relations: HashMap::new(), dict }
    }

    /// The value dictionary shared by this database's relations.
    pub fn dict(&self) -> &Arc<ValueDict> {
        &self.dict
    }

    /// Insert or replace a relation under `name`. A relation encoded against
    /// a different dictionary is re-encoded (see [`Relation::rebind`]) so
    /// that every stored relation shares this database's dictionary.
    pub fn set(&mut self, name: impl Into<String>, relation: Relation) {
        let relation = if Arc::ptr_eq(relation.dict(), &self.dict) {
            relation
        } else {
            relation.rebind(self.dict.clone())
        };
        self.relations.insert(name.into(), relation);
    }

    /// Fetch a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable access to a relation by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Remove a relation, returning it if present (prepared executions drop
    /// the derived relations of a run while keeping the warm base set).
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Total from-scratch index constructions across all stored relations
    /// (see [`Relation::index_build_count`]).
    pub fn index_builds(&self) -> usize {
        self.relations.values().map(|r| r.index_build_count()).sum()
    }

    /// Fetch a relation by name, returning an execution error if absent.
    pub fn require(&self, name: &str) -> Result<&Relation> {
        self.get(name)
            .ok_or_else(|| RaqletError::execution(format!("relation `{name}` not loaded")))
    }

    /// Mutable access, creating an empty relation of the given arity (bound
    /// to this database's dictionary) if the name is not yet present.
    pub fn get_or_create(&mut self, name: &str, arity: usize) -> &mut Relation {
        self.relations
            .entry(name.to_string())
            .or_insert_with(|| Relation::with_dict(arity, self.dict.clone()))
    }

    /// Insert a single fact into the named relation (creating it on demand).
    pub fn insert_fact(&mut self, name: &str, tuple: Tuple) -> Result<bool> {
        let arity = tuple.len();
        self.get_or_create(name, arity).insert(tuple)
    }

    /// Iterate over `(name, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter()
    }

    /// Iterate over `(name, relation)` pairs mutably (unspecified order).
    /// The persistence layer compacts every arena through this before a
    /// snapshot export.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Relation)> {
        self.relations.iter_mut()
    }

    /// Names of all stored relations, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.relations.keys().cloned().collect();
        v.sort();
        v
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the database holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Approximate heap footprint in bytes: every relation's arena, round
    /// state and indexes, plus the shared value dictionary (counted once).
    pub fn heap_bytes(&self) -> usize {
        let relations: usize = self
            .relations
            .values()
            .map(|r| r.heap_bytes() - r.dict().heap_bytes() / Arc::strong_count(r.dict()).max(1))
            .sum();
        relations + self.dict.heap_bytes()
    }

    /// Approximate heap footprint of persistent indexes across all stored
    /// relations (see [`Relation::index_heap_bytes`]).
    pub fn index_heap_bytes(&self) -> usize {
        self.relations.values().map(|r| r.index_heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1, 2])).unwrap());
        assert!(!r.insert(t(&[1, 2])).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[1])).is_err());
        assert!(r.insert(t(&[1, 2, 3])).is_err());
    }

    #[test]
    fn merge_counts_new_tuples_only() {
        let mut a = Relation::from_tuples(2, vec![t(&[1, 2]), t(&[3, 4])]).unwrap();
        let b = Relation::from_tuples(2, vec![t(&[3, 4]), t(&[5, 6])]).unwrap();
        let added = a.merge(&b).unwrap();
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merge_rejects_arity_mismatch_unless_empty() {
        let mut a = Relation::new(2);
        let empty = Relation::new(3);
        assert!(a.merge(&empty).is_ok());
        let b = Relation::from_tuples(3, vec![t(&[1, 2, 3])]).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn probe_returns_matching_tuples() {
        let mut r = Relation::from_tuples(2, vec![t(&[1, 10]), t(&[1, 11]), t(&[2, 20])]).unwrap();
        let hits = r.probe(&[0], &[Value::Int(1)]).len();
        assert_eq!(hits, 2);
        let misses = r.probe(&[0], &[Value::Int(99)]);
        assert!(misses.is_empty());
    }

    #[test]
    fn probe_index_is_extended_by_inserts_not_invalidated() {
        let mut r = Relation::from_tuples(2, vec![t(&[1, 10])]).unwrap();
        assert_eq!(r.probe(&[0], &[Value::Int(1)]).len(), 1);
        assert_eq!(r.index_count(), 1);
        r.insert(t(&[1, 11])).unwrap();
        // The index is still there and already covers the new tuple.
        assert_eq!(r.index_count(), 1);
        assert_eq!(r.probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 2);
    }

    #[test]
    fn probe_index_without_ensure_returns_none() {
        let r = Relation::from_tuples(2, vec![t(&[1, 10])]).unwrap();
        assert!(r.probe_index(&[0], &[Value::Int(1)]).is_none());
    }

    #[test]
    fn probe_index_with_never_seen_values_is_empty_and_grows_nothing() {
        let mut r = Relation::from_tuples(2, vec![vec![Value::str("a"), Value::Int(1)]]).unwrap();
        r.ensure_index(&[0]);
        let before = r.dict().len();
        assert_eq!(r.probe_index(&[0], &[Value::str("never-stored")]).unwrap().count(), 0);
        assert!(!r.contains(&[Value::str("never-stored"), Value::Int(1)]));
        assert_eq!(r.dict().len(), before, "probing must not grow the dictionary");
    }

    #[test]
    fn multi_column_indexes_probe_by_projected_key() {
        let mut r =
            Relation::from_tuples(3, vec![t(&[1, 2, 30]), t(&[1, 2, 31]), t(&[1, 3, 32])]).unwrap();
        r.ensure_index(&[0, 1]);
        let hits = r.probe_index(&[0, 1], &[Value::Int(1), Value::Int(2)]).unwrap().count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn stage_and_advance_follow_the_delta_lifecycle() {
        let mut r = Relation::new(1);
        r.insert(t(&[1])).unwrap();
        // Staging an existing tuple is a no-op; staging a new one is not.
        assert!(!r.stage(t(&[1])).unwrap());
        assert!(r.stage(t(&[2])).unwrap());
        assert!(!r.stage(t(&[2])).unwrap());
        assert_eq!(r.staged_len(), 1);
        // Staged tuples are invisible until advance.
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&t(&[2])));
        assert_eq!(r.advance(), 1);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[2])));
        assert_eq!(r.delta().collect::<Vec<_>>(), vec![t(&[2])]);
        // The next advance with nothing staged empties the delta.
        assert_eq!(r.advance(), 0);
        assert!(r.delta_is_empty());
    }

    #[test]
    fn advance_extends_existing_indexes() {
        let mut r = Relation::from_tuples(2, vec![t(&[1, 10])]).unwrap();
        r.ensure_index(&[0]);
        r.stage(t(&[1, 11])).unwrap();
        r.advance();
        assert_eq!(r.probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 2);
    }

    #[test]
    fn advance_skips_tuples_inserted_directly_in_between() {
        let mut r = Relation::new(1);
        r.stage(t(&[7])).unwrap();
        r.insert(t(&[7])).unwrap();
        // The tuple is already published; the delta must not re-announce it.
        assert_eq!(r.advance(), 0);
        assert!(r.delta_is_empty());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_drops_tuple_from_full_and_indexes() {
        let mut r = Relation::from_tuples(2, vec![t(&[1, 10]), t(&[1, 11])]).unwrap();
        r.ensure_index(&[0]);
        assert!(r.remove(&t(&[1, 10])));
        assert!(!r.remove(&t(&[1, 10])));
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 1);
        assert!(!r.contains(&t(&[1, 10])));
    }

    #[test]
    fn remove_also_unstages() {
        let mut r = Relation::new(1);
        r.stage(t(&[5])).unwrap();
        assert_eq!(r.staged_len(), 1);
        r.remove(&t(&[5]));
        assert_eq!(r.staged_len(), 0);
        assert_eq!(r.advance(), 0);
    }

    #[test]
    fn compact_drops_tombstones_without_counting_as_index_builds() {
        let tuples: Vec<Tuple> = (0..100).map(|i| t(&[i, i + 1000])).collect();
        let mut r = Relation::from_tuples(2, tuples).unwrap();
        r.ensure_index(&[0]);
        let builds = r.index_build_count();
        for i in 0..80 {
            assert!(r.remove(&t(&[i, i + 1000])));
        }
        let garbage = r.heap_bytes();
        r.maybe_compact();
        assert!(r.heap_bytes() < garbage, "compaction must shrink the arena");
        assert_eq!(r.len(), 20);
        assert_eq!(r.index_build_count(), builds, "postings are rebuilt in place, not re-built");
        for i in 80..100 {
            assert!(r.contains(&t(&[i, i + 1000])));
            assert_eq!(r.probe_index(&[0], &[Value::Int(i)]).unwrap().count(), 1);
        }
        assert_eq!(r.probe_index(&[0], &[Value::Int(0)]).unwrap().count(), 0);
        // Renumbered row ids stay consistent with later writes and removals.
        assert!(r.insert(t(&[0, 1000])).unwrap());
        assert!(r.remove(&t(&[99, 1099])));
        assert_eq!(r.sorted().len(), 20);
    }

    #[test]
    fn maybe_compact_leaves_mostly_live_relations_alone() {
        let tuples: Vec<Tuple> = (0..100).map(|i| t(&[i])).collect();
        let mut r = Relation::from_tuples(1, tuples).unwrap();
        for i in 0..10 {
            r.remove(&t(&[i]));
        }
        let before = r.heap_bytes();
        r.maybe_compact(); // only 10% garbage: not worth rewriting the arena
        assert_eq!(r.heap_bytes(), before);
        assert_eq!(r.len(), 90);
    }

    #[test]
    fn lattice_insert_keeps_only_the_best_tuple_per_group() {
        let mut r = Relation::new(3);
        assert!(r.lattice_insert(t(&[1, 2, 9]), 2, true));
        assert!(r.lattice_insert(t(&[1, 2, 5]), 2, true)); // improves
        assert!(!r.lattice_insert(t(&[1, 2, 7]), 2, true)); // dominated
        assert!(r.lattice_insert(t(&[3, 4, 7]), 2, true)); // different group
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[1, 2, 5])));
        assert!(!r.contains(&t(&[1, 2, 9])));
        // Both surviving tuples (but not the replaced one) form the delta.
        assert_eq!(r.advance(), 2);
        let mut delta: Vec<Tuple> = r.delta().collect();
        delta.sort();
        assert_eq!(delta, vec![t(&[1, 2, 5]), t(&[3, 4, 7])]);
    }

    #[test]
    fn lattice_removals_do_not_mutate_the_current_delta() {
        let mut r = Relation::new(3);
        r.lattice_insert(t(&[1, 2, 9]), 2, true);
        r.advance();
        assert_eq!(r.delta().collect::<Vec<_>>(), vec![t(&[1, 2, 9])]);
        // Mid-round improvement replaces the stored tuple, but the frontier
        // the current round is joining against must still see the snapshot.
        assert!(r.lattice_insert(t(&[1, 2, 5]), 2, true));
        assert!(!r.contains(&t(&[1, 2, 9])));
        assert_eq!(r.delta().collect::<Vec<_>>(), vec![t(&[1, 2, 9])]);
        // The next round announces only the improvement.
        assert_eq!(r.advance(), 1);
        assert_eq!(r.delta().collect::<Vec<_>>(), vec![t(&[1, 2, 5])]);
    }

    #[test]
    fn lattice_insert_max_keeps_largest() {
        let mut r = Relation::new(2);
        assert!(r.lattice_insert(t(&[1, 5]), 1, false));
        assert!(r.lattice_insert(t(&[1, 9]), 1, false));
        assert!(!r.lattice_insert(t(&[1, 2]), 1, false));
        assert_eq!(r.sorted(), vec![t(&[1, 9])]);
    }

    #[test]
    fn seed_delta_from_full_copies_every_tuple() {
        let mut r = Relation::from_tuples(1, vec![t(&[1]), t(&[2])]).unwrap();
        r.seed_delta_from_full();
        assert_eq!(r.delta_len(), 2);
        r.clear_rounds();
        assert!(r.delta_is_empty());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn project_deduplicates() {
        let r = Relation::from_tuples(2, vec![t(&[1, 10]), t(&[1, 20])]).unwrap();
        let p = r.project(&[0]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn filter_keeps_matching_tuples() {
        let r = Relation::from_tuples(1, vec![t(&[1]), t(&[2]), t(&[3])]).unwrap();
        let f = r.filter(|row| row[0].as_int().unwrap() >= 2);
        assert_eq!(f.sorted(), vec![t(&[2]), t(&[3])]);
    }

    #[test]
    fn relations_compare_as_sets() {
        let a = Relation::from_tuples(1, vec![t(&[1]), t(&[2])]).unwrap();
        let b = Relation::from_tuples(1, vec![t(&[2]), t(&[1])]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn relations_with_distinct_dictionaries_still_compare_by_value() {
        let a =
            Relation::from_tuples(1, vec![vec![Value::str("x")], vec![Value::str("y")]]).unwrap();
        let b =
            Relation::from_tuples(1, vec![vec![Value::str("y")], vec![Value::str("x")]]).unwrap();
        assert!(!Arc::ptr_eq(a.dict(), b.dict()));
        assert_eq!(a, b);
    }

    #[test]
    fn staged_tuples_do_not_affect_equality() {
        let mut a = Relation::from_tuples(1, vec![t(&[1])]).unwrap();
        let b = Relation::from_tuples(1, vec![t(&[1])]).unwrap();
        a.stage(t(&[2])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_sorted_and_tab_separated() {
        let r = Relation::from_tuples(2, vec![t(&[2, 20]), t(&[1, 10])]).unwrap();
        assert_eq!(r.to_string(), "1\t10\n2\t20\n");
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let r = Relation::from_tuples(2, vec![t(&[2, 20]), t(&[1, 10])]).unwrap();
        let rows: Vec<Tuple> = r.iter().collect();
        assert_eq!(rows, vec![t(&[2, 20]), t(&[1, 10])]);
    }

    #[test]
    fn nullary_relations_hold_at_most_one_row() {
        let mut r = Relation::new(0);
        assert!(r.insert(vec![]).unwrap());
        assert!(!r.insert(vec![]).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![Vec::<Value>::new()]);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
        // And the delta lifecycle still works.
        assert!(r.stage(vec![]).unwrap());
        assert_eq!(r.advance(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.delta_len(), 1);
    }

    #[test]
    fn mixed_value_types_round_trip_through_packing() {
        let tuple = vec![
            Value::Int(i64::MIN),
            Value::str("Ada"),
            Value::Bool(true),
            Value::Null,
            Value::Int(i64::MAX),
        ];
        let mut r = Relation::new(5);
        assert!(r.insert(tuple.clone()).unwrap());
        assert!(!r.insert(tuple.clone()).unwrap());
        assert!(r.contains(&tuple));
        assert_eq!(r.iter().next().unwrap(), tuple);
    }

    #[test]
    fn heap_bytes_reports_nonzero_for_populated_relations() {
        let mut r = Relation::from_tuples(2, vec![t(&[1, 2]), t(&[3, 4])]).unwrap();
        r.ensure_index(&[0]);
        assert!(r.heap_bytes() > 0);
    }

    #[test]
    fn database_basic_operations() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert_fact("edge", t(&[1, 2])).unwrap();
        db.insert_fact("edge", t(&[2, 3])).unwrap();
        assert_eq!(db.get("edge").unwrap().len(), 2);
        assert_eq!(db.names(), vec!["edge".to_string()]);
        assert_eq!(db.total_tuples(), 2);
        assert!(db.require("missing").is_err());
        assert!(db.heap_bytes() > 0);
    }

    #[test]
    fn database_relations_share_the_dictionary() {
        let mut db = Database::new();
        db.insert_fact("a", vec![Value::str("x")]).unwrap();
        db.insert_fact("b", vec![Value::str("x")]).unwrap();
        assert!(Arc::ptr_eq(db.get("a").unwrap().dict(), db.get("b").unwrap().dict()));
        // One interned string, not two.
        assert_eq!(db.dict().len(), 1);
    }

    #[test]
    fn set_rebinds_foreign_dictionary_relations() {
        let mut db = Database::new();
        db.insert_fact("a", vec![Value::str("x")]).unwrap();
        // A standalone relation with its own dictionary.
        let mut foreign = Relation::new(1);
        foreign.insert(vec![Value::str("x")]).unwrap();
        foreign.ensure_index(&[0]);
        db.set("b", foreign);
        let b = db.get("b").unwrap();
        assert!(Arc::ptr_eq(b.dict(), db.dict()));
        assert!(b.contains(&[Value::str("x")]));
        assert!(b.has_index(&[0]));
        // Cell-level equality across relations now holds.
        let row_a: Vec<u64> = db.get("a").unwrap().iter_rows().next().unwrap().to_vec();
        assert!(db.get("b").unwrap().contains_cells(&row_a));
    }

    #[test]
    fn get_or_create_reuses_existing_relation() {
        let mut db = Database::new();
        db.insert_fact("r", t(&[1])).unwrap();
        let r = db.get_or_create("r", 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn get_mut_allows_in_place_index_builds() {
        let mut db = Database::new();
        db.insert_fact("r", t(&[1, 2])).unwrap();
        db.get_mut("r").unwrap().ensure_index(&[0]);
        assert_eq!(db.get("r").unwrap().probe_index(&[0], &[Value::Int(1)]).unwrap().count(), 1);
    }
}
