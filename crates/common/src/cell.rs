//! Packed, dictionary-encoded tuple cells.
//!
//! Every runtime [`Value`] stored in a [`crate::Relation`] is packed into a
//! single tagged `u64` word — a [`Cell`]. The tag lives in the top three
//! bits; the payload in the remaining 61:
//!
//! | tag | payload                                              |
//! |-----|------------------------------------------------------|
//! | 0   | inline `i64` that fits in 61 bits (sign-extended)    |
//! | 1   | string id in the [`ValueDict`] dictionary            |
//! | 2   | boolean (0/1)                                        |
//! | 3   | SQL `NULL` (payload 0)                               |
//! | 4   | id in the [`ValueDict`] big-integer overflow table   |
//! | 5   | *tombstone* (storage-internal row marker)            |
//! | 7   | *unbound* (engine-internal slot-environment marker)  |
//!
//! The encoding is **canonical**: equal values always produce equal cells
//! (inline ints are used whenever the value fits; out-of-range ints are
//! deduplicated through the overflow table; strings are interned), so tuple
//! deduplication, index probes and join keys are plain `u64` comparisons
//! over cache-contiguous memory — no enum discriminants, no `Arc` refcount
//! traffic, no string walks.
//!
//! Cells are only meaningful relative to the [`ValueDict`] that encoded
//! them. A dictionary is shared per [`crate::Database`] (every relation of a
//! database holds the same `Arc<ValueDict>`), which is what makes
//! cross-relation cell comparisons inside one engine run valid. The
//! dictionary is append-only — ids are never invalidated — and internally
//! synchronised, so threads sharing a database may decode (and, for
//! arithmetic overflow, encode) concurrently.
//!
//! ```
//! use raqlet_common::cell::ValueDict;
//! use raqlet_common::Value;
//!
//! let dict = ValueDict::new();
//! let a = dict.encode_value(&Value::str("Ada"));
//! let b = dict.encode_value(&Value::str("Ada"));
//! assert_eq!(a, b); // interning is canonical
//! assert_eq!(dict.decode(a), Value::str("Ada"));
//! let n = dict.encode_value(&Value::Int(-7));
//! assert_eq!(dict.decode(n), Value::Int(-7));
//! ```

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{RaqletError, Result};
use crate::hash::FxHashMap;
use crate::value::Value;

/// A packed value: one tagged 64-bit word (see the module docs for the
/// layout).
pub type Cell = u64;

/// Number of payload bits below the tag.
const TAG_SHIFT: u32 = 61;
/// Mask selecting the payload bits.
const PAYLOAD_MASK: u64 = (1u64 << TAG_SHIFT) - 1;

const TAG_INT: u64 = 0;
const TAG_STR: u64 = 1;
const TAG_BOOL: u64 = 2;
const TAG_NULL: u64 = 3;
const TAG_BIGINT: u64 = 4;
const TAG_TOMBSTONE: u64 = 5;
const TAG_UNBOUND: u64 = 7;

/// The cell encoding SQL `NULL`.
pub const NULL_CELL: Cell = TAG_NULL << TAG_SHIFT;

/// Storage-internal marker written into the first word of a removed arena
/// row. Never a valid value encoding.
pub const TOMBSTONE_CELL: Cell = TAG_TOMBSTONE << TAG_SHIFT;

/// Engine-internal marker for an unbound slot in a join environment. Never a
/// valid value encoding and never stored in a relation.
pub const UNBOUND_CELL: Cell = TAG_UNBOUND << TAG_SHIFT;

/// True if an `i64` fits the 61-bit inline encoding.
#[inline]
const fn fits_inline(v: i64) -> bool {
    // Sign-extending the low 61 bits must reproduce the value.
    (v << 3) >> 3 == v
}

/// Encode an inline-range integer (callers check [`fits_inline`]).
#[inline]
const fn inline_int_cell(v: i64) -> Cell {
    (v as u64) & PAYLOAD_MASK
}

/// Encode a boolean.
#[inline]
pub const fn bool_cell(b: bool) -> Cell {
    (TAG_BOOL << TAG_SHIFT) | b as u64
}

/// The tag of a cell (top three bits).
#[inline]
const fn tag(cell: Cell) -> u64 {
    cell >> TAG_SHIFT
}

/// True if the cell is the storage-internal tombstone marker.
#[inline]
pub const fn is_tombstone(cell: Cell) -> bool {
    cell == TOMBSTONE_CELL
}

/// True if the cell is the engine-internal unbound marker.
#[inline]
pub const fn is_unbound(cell: Cell) -> bool {
    cell == UNBOUND_CELL
}

/// True if `cell` is a valid *value* encoding relative to a dictionary with
/// `n_strings` interned strings and `n_bigints` overflow integers: it
/// decodes without panicking and is not a storage- or engine-internal
/// marker. The persistence layer validates every loaded arena cell through
/// this before trusting it.
pub const fn is_valid_value_cell(cell: Cell, n_strings: usize, n_bigints: usize) -> bool {
    let payload = cell & PAYLOAD_MASK;
    match tag(cell) {
        TAG_INT => true,
        TAG_STR => (payload as usize) < n_strings,
        TAG_BOOL => payload <= 1,
        TAG_NULL => payload == 0,
        TAG_BIGINT => (payload as usize) < n_bigints,
        _ => false,
    }
}

/// Decode the integer payload of a cell without touching the dictionary.
/// Returns `None` for non-integers and for overflow-table ints (which need
/// the dictionary — see [`ValueDict::decode_int`]).
#[inline]
pub const fn inline_int(cell: Cell) -> Option<i64> {
    if tag(cell) == TAG_INT {
        Some(((cell << 3) as i64) >> 3)
    } else {
        None
    }
}

/// The append-only value dictionary shared by every relation of a database:
/// interns strings to dense ids and deduplicates the rare `i64` values that
/// do not fit the 61-bit inline encoding ("big ints") into an overflow
/// side-table.
///
/// Internally synchronised (`RwLock`; the hot decode path takes the read
/// side) so threads can share it. Ids are never reused or invalidated,
/// which is what lets prepared executions keep a warm dictionary across
/// runs and lets relation clones stay comparable.
#[derive(Debug, Default)]
pub struct ValueDict {
    inner: RwLock<DictInner>,
}

#[derive(Debug, Default)]
struct DictInner {
    strings: Vec<Arc<str>>,
    string_ids: FxHashMap<Arc<str>, u32>,
    bigints: Vec<i64>,
    bigint_ids: FxHashMap<i64, u32>,
}

impl ValueDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the read side of the dictionary lock, recovering from poison.
    ///
    /// The dictionary deliberately ignores `RwLock` poisoning: it is shared
    /// by every relation of a database, so letting one panicking evaluation
    /// thread poison it would take down every other user of the `Database`.
    /// Recovery is sound because the dictionary is append-only and each
    /// mutation keeps it canonical at every intermediate step: `strings` /
    /// `bigints` are pushed before the id-map insert, and an id only escapes
    /// to a caller after its entry is fully installed. A panic mid-insert can
    /// at worst strand an entry whose id was never returned — unreachable,
    /// never decoded, and re-interned under a fresh id on next sight —
    /// leaving live cells exactly as canonical as before.
    fn read_inner(&self) -> RwLockReadGuard<'_, DictInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the write side of the dictionary lock, recovering from poison
    /// (see [`read_inner`](Self::read_inner) for why this is sound).
    fn write_inner(&self) -> RwLockWriteGuard<'_, DictInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// A fresh, empty, shareable dictionary.
    pub fn shared() -> Arc<ValueDict> {
        Arc::new(ValueDict::new())
    }

    /// Encode an integer (inline when it fits, overflow table otherwise).
    #[inline]
    pub fn encode_int(&self, v: i64) -> Cell {
        if fits_inline(v) {
            return inline_int_cell(v);
        }
        self.encode_bigint(v)
    }

    fn encode_bigint(&self, v: i64) -> Cell {
        if let Some(&id) = self.read_inner().bigint_ids.get(&v) {
            return (TAG_BIGINT << TAG_SHIFT) | id as u64;
        }
        let mut inner = self.write_inner();
        let id = match inner.bigint_ids.get(&v) {
            Some(&id) => id,
            None => {
                let id = inner.bigints.len() as u32;
                inner.bigints.push(v);
                inner.bigint_ids.insert(v, id);
                id
            }
        };
        (TAG_BIGINT << TAG_SHIFT) | id as u64
    }

    /// Encode a string, interning it on first sight.
    pub fn encode_str(&self, s: &str) -> Cell {
        if let Some(&id) = self.read_inner().string_ids.get(s) {
            return (TAG_STR << TAG_SHIFT) | id as u64;
        }
        let mut inner = self.write_inner();
        let id = match inner.string_ids.get(s) {
            Some(&id) => id,
            None => {
                let id = inner.strings.len() as u32;
                let arc: Arc<str> = Arc::from(s);
                inner.strings.push(arc.clone());
                inner.string_ids.insert(arc, id);
                id
            }
        };
        (TAG_STR << TAG_SHIFT) | id as u64
    }

    /// Encode an already-reference-counted string without copying it when it
    /// is new to the dictionary.
    pub fn encode_arc_str(&self, s: &Arc<str>) -> Cell {
        if let Some(&id) = self.read_inner().string_ids.get(&**s) {
            return (TAG_STR << TAG_SHIFT) | id as u64;
        }
        let mut inner = self.write_inner();
        let id = match inner.string_ids.get(&**s) {
            Some(&id) => id,
            None => {
                let id = inner.strings.len() as u32;
                inner.strings.push(s.clone());
                inner.string_ids.insert(s.clone(), id);
                id
            }
        };
        (TAG_STR << TAG_SHIFT) | id as u64
    }

    /// Encode any value.
    pub fn encode_value(&self, v: &Value) -> Cell {
        match v {
            Value::Int(i) => self.encode_int(*i),
            Value::Str(s) => self.encode_arc_str(s),
            Value::Bool(b) => bool_cell(*b),
            Value::Null => NULL_CELL,
        }
    }

    /// Encode a value **without growing the dictionary**: returns `None` when
    /// the value is a string or out-of-range integer the dictionary has never
    /// seen — by canonicality, such a value cannot be stored in any relation
    /// sharing this dictionary, so probes and membership tests can report
    /// "absent" without polluting the dictionary.
    pub fn try_encode_value(&self, v: &Value) -> Option<Cell> {
        match v {
            Value::Int(i) => {
                if fits_inline(*i) {
                    Some(inline_int_cell(*i))
                } else {
                    let inner = self.read_inner();
                    inner.bigint_ids.get(i).map(|&id| (TAG_BIGINT << TAG_SHIFT) | id as u64)
                }
            }
            Value::Str(s) => {
                let inner = self.read_inner();
                inner.string_ids.get(&**s).map(|&id| (TAG_STR << TAG_SHIFT) | id as u64)
            }
            Value::Bool(b) => Some(bool_cell(*b)),
            Value::Null => Some(NULL_CELL),
        }
    }

    /// Decode a cell back to a [`Value`]. Panics on the storage-internal
    /// tombstone/unbound markers (they never reach decode in a correct
    /// engine) and on ids from a different dictionary.
    pub fn decode(&self, cell: Cell) -> Value {
        match tag(cell) {
            TAG_INT => Value::Int(((cell << 3) as i64) >> 3),
            TAG_STR => {
                let inner = self.read_inner();
                Value::Str(inner.strings[(cell & PAYLOAD_MASK) as usize].clone())
            }
            TAG_BOOL => Value::Bool(cell & 1 == 1),
            TAG_NULL => Value::Null,
            TAG_BIGINT => {
                let inner = self.read_inner();
                Value::Int(inner.bigints[(cell & PAYLOAD_MASK) as usize])
            }
            t => panic!("cannot decode internal cell tag {t}"),
        }
    }

    /// Decode a cell's integer payload (inline or overflow), or `None` for
    /// non-integers.
    pub fn decode_int(&self, cell: Cell) -> Option<i64> {
        match tag(cell) {
            TAG_INT => Some(((cell << 3) as i64) >> 3),
            TAG_BIGINT => {
                let inner = self.read_inner();
                Some(inner.bigints[(cell & PAYLOAD_MASK) as usize])
            }
            _ => None,
        }
    }

    /// Number of dictionary entries (interned strings plus overflow-table
    /// integers). Stable across executions that introduce no new values —
    /// warm prepared runs pin "zero re-encoding" through this.
    pub fn len(&self) -> usize {
        let inner = self.read_inner();
        inner.strings.len() + inner.bigints.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the dictionary's two id-ordered tables — the interned
    /// strings and the big-integer overflow values — for raw export by the
    /// persistence layer. Entry `i` of each table carries id `i`, so a cell
    /// encoded against this dictionary decodes identically against any
    /// dictionary rebuilt from these tables with
    /// [`ValueDict::from_tables`]. The dictionary is append-only, so the
    /// tables are a consistent prefix even if another thread interns
    /// concurrently.
    pub fn export_tables(&self) -> (Vec<Arc<str>>, Vec<i64>) {
        let inner = self.read_inner();
        (inner.strings.clone(), inner.bigints.clone())
    }

    /// Rebuild a dictionary from id-ordered tables produced by
    /// [`ValueDict::export_tables`] (the persistence load path): entry `i`
    /// is re-interned under id `i`, so cells encoded against the exported
    /// dictionary stay valid verbatim. Fails if either table contains a
    /// duplicate entry or exceeds the 32-bit id space — a rebuilt
    /// dictionary must be exactly as canonical as the one exported, and a
    /// loader surfaces that failure as data corruption.
    pub fn from_tables(strings: Vec<Arc<str>>, bigints: Vec<i64>) -> Result<ValueDict> {
        if strings.len() > u32::MAX as usize || bigints.len() > u32::MAX as usize {
            return Err(RaqletError::internal("dictionary table exceeds the 32-bit id space"));
        }
        let mut inner = DictInner::default();
        inner.string_ids.reserve(strings.len());
        for (id, s) in strings.iter().enumerate() {
            if inner.string_ids.insert(s.clone(), id as u32).is_some() {
                return Err(RaqletError::internal(format!(
                    "duplicate string {s:?} in dictionary table"
                )));
            }
        }
        inner.strings = strings;
        inner.bigint_ids.reserve(bigints.len());
        for (id, &v) in bigints.iter().enumerate() {
            if inner.bigint_ids.insert(v, id as u32).is_some() {
                return Err(RaqletError::internal(format!(
                    "duplicate big integer {v} in dictionary overflow table"
                )));
            }
            if fits_inline(v) {
                return Err(RaqletError::internal(format!(
                    "inline-range integer {v} in dictionary overflow table"
                )));
            }
        }
        inner.bigints = bigints;
        Ok(ValueDict { inner: RwLock::new(inner) })
    }

    /// Approximate heap footprint of the dictionary: interned string bytes,
    /// id tables and overflow table.
    pub fn heap_bytes(&self) -> usize {
        let inner = self.read_inner();
        let string_bytes: usize = inner.strings.iter().map(|s| s.len()).sum();
        let strings = inner.strings.capacity() * size_of::<Arc<str>>();
        let string_ids = inner.string_ids.capacity() * (size_of::<Arc<str>>() + 4 + 8);
        let bigints = inner.bigints.capacity() * 8;
        let bigint_ids = inner.bigint_ids.capacity() * (8 + 4 + 8);
        string_bytes + strings + string_ids + bigints + bigint_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_ints_round_trip_without_the_dictionary() {
        let dict = ValueDict::new();
        for v in [0i64, 1, -1, 42, -42, (1 << 60) - 1, -(1 << 60)] {
            let cell = dict.encode_int(v);
            assert_eq!(inline_int(cell), Some(v), "{v}");
            assert_eq!(dict.decode(cell), Value::Int(v));
        }
        assert_eq!(dict.len(), 0, "inline ints never touch the dictionary");
    }

    #[test]
    fn extreme_ints_use_the_overflow_table_canonically() {
        let dict = ValueDict::new();
        for v in [i64::MAX, i64::MIN, 1 << 60, -(1 << 60) - 1] {
            let a = dict.encode_int(v);
            let b = dict.encode_int(v);
            assert_eq!(a, b, "{v}: overflow encoding must deduplicate");
            assert_eq!(inline_int(a), None);
            assert_eq!(dict.decode(a), Value::Int(v));
            assert_eq!(dict.decode_int(a), Some(v));
        }
        assert_eq!(dict.len(), 4);
    }

    #[test]
    fn strings_intern_to_stable_ids() {
        let dict = ValueDict::new();
        let a = dict.encode_str("Ada");
        let b = dict.encode_str("Bob");
        assert_ne!(a, b);
        assert_eq!(a, dict.encode_str("Ada"));
        assert_eq!(dict.decode(a), Value::str("Ada"));
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn bool_and_null_are_tagged_constants() {
        let dict = ValueDict::new();
        assert_eq!(dict.decode(bool_cell(true)), Value::Bool(true));
        assert_eq!(dict.decode(bool_cell(false)), Value::Bool(false));
        assert_eq!(dict.decode(NULL_CELL), Value::Null);
        assert_ne!(bool_cell(false), NULL_CELL);
        assert_ne!(bool_cell(false), dict.encode_int(0));
    }

    #[test]
    fn try_encode_never_grows_the_dictionary() {
        let dict = ValueDict::new();
        dict.encode_str("known");
        assert_eq!(dict.try_encode_value(&Value::str("unknown")), None);
        assert_eq!(dict.try_encode_value(&Value::Int(i64::MAX)), None);
        assert!(dict.try_encode_value(&Value::str("known")).is_some());
        assert!(dict.try_encode_value(&Value::Int(5)).is_some());
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn dictionary_survives_a_panic_while_the_write_lock_is_held() {
        let dict = ValueDict::new();
        let ada = dict.encode_str("Ada");

        // Poison the lock the only way an RwLock can be poisoned: panic while
        // holding the write guard (readers never poison).
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = dict.inner.write().unwrap();
            panic!("synthetic panic while holding the dict write lock");
        }));
        assert!(poisoned.is_err());
        assert!(dict.inner.read().is_err(), "the std RwLock really is poisoned");

        // Every dictionary operation still works and stays canonical.
        assert_eq!(dict.encode_str("Ada"), ada);
        assert_eq!(dict.decode(ada), Value::str("Ada"));
        let bob = dict.encode_str("Bob");
        assert_eq!(dict.decode(bob), Value::str("Bob"));
        assert_eq!(dict.encode_int(i64::MAX), dict.encode_int(i64::MAX));
        assert_eq!(dict.decode_int(dict.encode_int(i64::MAX)), Some(i64::MAX));
        assert_eq!(dict.len(), 3);
        assert!(dict.heap_bytes() > 0);
        assert!(dict.try_encode_value(&Value::str("Ada")).is_some());
        assert_eq!(dict.try_encode_value(&Value::str("never seen")), None);
    }

    #[test]
    fn cell_validation_tracks_dictionary_bounds_and_rejects_markers() {
        let dict = ValueDict::new();
        let s = dict.encode_str("only");
        let big = dict.encode_int(i64::MAX);
        for cell in [s, big, dict.encode_int(7), bool_cell(true), NULL_CELL] {
            assert!(is_valid_value_cell(cell, 1, 1), "{cell:#x}");
        }
        // Out-of-bounds dictionary ids are invalid.
        assert!(!is_valid_value_cell(s, 0, 1));
        assert!(!is_valid_value_cell(big, 1, 0));
        assert!(!is_valid_value_cell(s + 1, 1, 1), "string id 1 with one string");
        // Internal markers are never valid values.
        assert!(!is_valid_value_cell(TOMBSTONE_CELL, usize::MAX, usize::MAX));
        assert!(!is_valid_value_cell(UNBOUND_CELL, usize::MAX, usize::MAX));
        // Malformed bool/null payloads are invalid.
        assert!(!is_valid_value_cell(bool_cell(true) | 2, 1, 1));
        assert!(!is_valid_value_cell(NULL_CELL | 1, 1, 1));
    }

    #[test]
    fn exported_tables_rebuild_an_id_identical_dictionary() {
        let dict = ValueDict::new();
        let ada = dict.encode_str("Ada");
        let bob = dict.encode_str("Bob");
        let big = dict.encode_int(i64::MAX);
        let neg = dict.encode_int(i64::MIN);

        let (strings, bigints) = dict.export_tables();
        assert_eq!(strings.len(), 2);
        assert_eq!(bigints.len(), 2);
        let rebuilt = ValueDict::from_tables(strings, bigints).unwrap();

        // Ids — and therefore previously encoded cells — survive verbatim.
        assert_eq!(rebuilt.decode(ada), Value::str("Ada"));
        assert_eq!(rebuilt.decode(bob), Value::str("Bob"));
        assert_eq!(rebuilt.decode(big), Value::Int(i64::MAX));
        assert_eq!(rebuilt.decode(neg), Value::Int(i64::MIN));
        assert_eq!(rebuilt.len(), dict.len());
        // And re-encoding produces the same cells, so the rebuilt
        // dictionary is as canonical as the original.
        assert_eq!(rebuilt.encode_str("Ada"), ada);
        assert_eq!(rebuilt.encode_int(i64::MAX), big);
        assert_eq!(rebuilt.len(), dict.len());
    }

    #[test]
    fn from_tables_rejects_non_canonical_tables() {
        let dup_strings = vec![Arc::<str>::from("x"), Arc::<str>::from("x")];
        assert!(ValueDict::from_tables(dup_strings, Vec::new()).is_err());
        assert!(ValueDict::from_tables(Vec::new(), vec![i64::MAX, i64::MAX]).is_err());
        // Inline-range values never reach the overflow table when encoding;
        // a table containing one is corrupt.
        assert!(ValueDict::from_tables(Vec::new(), vec![42]).is_err());
    }

    #[test]
    fn markers_are_distinct_from_every_value_encoding() {
        let dict = ValueDict::new();
        for v in [Value::Int(0), Value::Int(-1), Value::str("x"), Value::Bool(false), Value::Null] {
            let cell = dict.encode_value(&v);
            assert!(!is_tombstone(cell), "{v:?}");
            assert!(!is_unbound(cell), "{v:?}");
        }
    }
}
