//! Property tests for the packed-cell storage representation.
//!
//! Every tuple stored in a `Relation` is packed into tagged `u64` cells
//! against the database's shared value dictionary (`raqlet_common::cell`).
//! These suites pin the representation's two load-bearing properties:
//!
//! * **round-trip fidelity** — encode→decode is the identity for every
//!   value, including negative integers, `i64` extremes routed through the
//!   overflow side-table, booleans, NULL and interned strings; encoding is
//!   *canonical*, so equal values always produce equal cells;
//! * **packed/`Value` agreement** — joins, dedup, projection and membership
//!   computed over packed rows agree exactly with a `Value`-level model.
//!
//! The build environment is offline, so instead of `proptest` these use the
//! deterministic `SplitMix64` generator — every case is reproducible from
//! the fixed seed, and failures print the offending generated input.

use std::collections::BTreeSet;

use raqlet::{Database, Relation, Value};
use raqlet_common::cell::ValueDict;
use raqlet_common::SplitMix64;

type Tuple = Vec<Value>;

/// A random value biased to cover every representation class: small ints,
/// negative ints, inline-boundary ints, overflow-table ints (beyond ±2^60),
/// strings from a small pool, fresh strings, bools and NULL.
fn random_value(rng: &mut SplitMix64) -> Value {
    match rng.gen_range(0..10) {
        0 => Value::Int(rng.gen_range(-5..5)),
        1 => Value::Int(rng.gen_range(-1_000_000..1_000_000)),
        2 => Value::Int((1 << 60) - 1 - rng.gen_range(0..3)),
        3 => Value::Int(-(1 << 60) + rng.gen_range(0..3)),
        4 => match rng.gen_range(0..4) {
            0 => Value::Int(i64::MAX - rng.gen_range(0..3)),
            1 => Value::Int(i64::MIN + rng.gen_range(0..3)),
            2 => Value::Int((1 << 60) + rng.gen_range(0..100)),
            _ => Value::Int(-(1 << 60) - 1 - rng.gen_range(0..100)),
        },
        5 => Value::str(format!("s{}", rng.gen_range(0..6))),
        6 => Value::str(format!("unique-{}", rng.gen_range(0..1_000_000))),
        7 => Value::Bool(rng.gen_bool(0.5)),
        8 => Value::Null,
        _ => Value::Int(rng.gen_range(0..50)),
    }
}

fn random_tuple(rng: &mut SplitMix64, arity: usize) -> Tuple {
    (0..arity).map(|_| random_value(rng)).collect()
}

#[test]
fn cell_encode_decode_round_trips_every_value_class() {
    let dict = ValueDict::new();
    let mut rng = SplitMix64::seed_from_u64(0xCE11);
    for case in 0..2000 {
        let v = random_value(&mut rng);
        let cell = dict.encode_value(&v);
        assert_eq!(dict.decode(cell), v, "case {case}: {v:?} did not round-trip");
        // Canonical: re-encoding yields the identical cell.
        assert_eq!(dict.encode_value(&v), cell, "case {case}: {v:?} is not canonical");
        // try_encode agrees once the value has been seen.
        assert_eq!(dict.try_encode_value(&v), Some(cell), "case {case}: {v:?}");
    }
}

#[test]
fn i64_extremes_round_trip_through_the_overflow_table() {
    let dict = ValueDict::new();
    let extremes = [
        i64::MIN,
        i64::MAX,
        -(1i64 << 60) - 1,
        1i64 << 60,
        (1i64 << 60) - 1, // inline boundary (not overflow)
        -(1i64 << 60),    // inline boundary (not overflow)
    ];
    for &v in &extremes {
        let cell = dict.encode_int(v);
        assert_eq!(dict.decode(cell), Value::Int(v), "{v}");
        assert_eq!(dict.decode_int(cell), Some(v), "{v}");
    }
    // Only the four out-of-range values touched the dictionary.
    assert_eq!(dict.len(), 4);
}

#[test]
fn dictionary_growth_is_monotone_and_deduplicating() {
    let dict = ValueDict::new();
    let mut rng = SplitMix64::seed_from_u64(0xD1C7);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for _ in 0..500 {
        let s = format!("name-{}", rng.gen_range(0..40));
        dict.encode_str(&s);
        seen.insert(s);
        assert_eq!(dict.len(), seen.len(), "dictionary must intern, not append");
    }
    // Inline ints, bools and NULL never grow the dictionary.
    let before = dict.len();
    for _ in 0..100 {
        dict.encode_value(&Value::Int(rng.gen_range(-1000..1000)));
        dict.encode_value(&Value::Bool(rng.gen_bool(0.5)));
        dict.encode_value(&Value::Null);
    }
    assert_eq!(dict.len(), before);
}

#[test]
fn packed_dedup_agrees_with_a_value_level_set_model() {
    let mut rng = SplitMix64::seed_from_u64(0xDED0);
    for case in 0..24 {
        let arity = 1 + (case % 4);
        let mut rel = Relation::new(arity);
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        for _ in 0..rng.gen_range(1..120) {
            let t = random_tuple(&mut rng, arity);
            let inserted = rel.insert(t.clone()).unwrap();
            assert_eq!(inserted, model.insert(t.clone()), "case {case}: dedup diverged on {t:?}");
        }
        assert_eq!(rel.len(), model.len(), "case {case}");
        let stored: BTreeSet<Tuple> = rel.iter().collect();
        assert_eq!(stored, model, "case {case}");
        for t in &model {
            assert!(rel.contains(t), "case {case}: {t:?} lost");
        }
        // Membership of never-inserted tuples is false and does not grow the
        // dictionary.
        let dict_len = rel.dict().len();
        assert!(!rel.contains(&vec![Value::str("never-seen-probe"); arity]));
        assert_eq!(rel.dict().len(), dict_len);
    }
}

#[test]
fn packed_joins_agree_with_a_value_level_join_model() {
    let mut rng = SplitMix64::seed_from_u64(0x701F);
    for case in 0..16 {
        // Shared dictionary, as inside a Database — cross-relation packed
        // probes are only meaningful under one dictionary.
        let mut db = Database::new();
        for _ in 0..rng.gen_range(1..40) {
            let t = random_tuple(&mut rng, 2);
            db.insert_fact("l", t).unwrap();
        }
        for _ in 0..rng.gen_range(1..40) {
            let t = random_tuple(&mut rng, 2);
            db.insert_fact("r", t).unwrap();
        }
        let left: Vec<Tuple> = db.get("l").unwrap().iter().collect();
        let right: Vec<Tuple> = db.get("r").unwrap().iter().collect();

        // Packed, index-probed join on l.1 = r.0 ...
        db.get_mut("r").unwrap().ensure_index(&[0]);
        let l = db.get("l").unwrap();
        let r = db.get("r").unwrap();
        let mut packed: BTreeSet<(Tuple, Tuple)> = BTreeSet::new();
        for lrow in l.iter_rows() {
            for rrow in r.probe_index_cells(&[0], &lrow[1..2]).unwrap() {
                let lt: Tuple = lrow.iter().map(|&c| l.dict().decode(c)).collect();
                let rt: Tuple = rrow.iter().map(|&c| r.dict().decode(c)).collect();
                packed.insert((lt, rt));
            }
        }
        // ... against the Value-level nested-loop model.
        let mut model: BTreeSet<(Tuple, Tuple)> = BTreeSet::new();
        for lt in &left {
            for rt in &right {
                if lt[1] == rt[0] {
                    model.insert((lt.clone(), rt.clone()));
                }
            }
        }
        assert_eq!(packed, model, "case {case}: packed join diverged");
    }
}

#[test]
fn projection_agrees_with_value_models() {
    let mut rng = SplitMix64::seed_from_u64(0x9E0);
    for case in 0..16 {
        let mut db = Database::new();
        for _ in 0..rng.gen_range(1..60) {
            db.insert_fact("a", random_tuple(&mut rng, 3)).unwrap();
        }
        let a = db.get("a").unwrap();
        let projected: BTreeSet<Tuple> = a.project(&[2, 0]).iter().collect();
        let model: BTreeSet<Tuple> = a.iter().map(|t| vec![t[2].clone(), t[0].clone()]).collect();
        assert_eq!(projected, model, "case {case}: projection diverged");
    }
}

#[test]
fn delta_lifecycle_survives_mixed_value_classes() {
    let mut rng = SplitMix64::seed_from_u64(0xF00D);
    for case in 0..12 {
        let mut rel = Relation::new(2);
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        for round in 0..5 {
            let staged: Vec<Tuple> =
                (0..rng.gen_range(0..25)).map(|_| random_tuple(&mut rng, 2)).collect();
            let expected_delta: BTreeSet<Tuple> =
                staged.iter().filter(|t| !model.contains(*t)).cloned().collect();
            for t in &staged {
                rel.stage(t.clone()).unwrap();
            }
            assert_eq!(rel.advance(), expected_delta.len(), "case {case} round {round}");
            let delta: BTreeSet<Tuple> = rel.delta().collect();
            assert_eq!(delta, expected_delta, "case {case} round {round}");
            model.extend(expected_delta);
            assert_eq!(rel.len(), model.len(), "case {case} round {round}");
        }
    }
}

#[test]
fn heap_bytes_grows_with_the_arena() {
    let mut rel = Relation::new(2);
    let empty = rel.heap_bytes();
    for i in 0..10_000 {
        rel.insert(vec![Value::Int(i), Value::str(format!("v{i}"))]).unwrap();
    }
    rel.ensure_index(&[0]);
    let loaded = rel.heap_bytes();
    assert!(
        loaded > empty + 10_000 * 2 * 8,
        "10k packed 2-ary rows must account at least their cells: {empty} -> {loaded}"
    );
}
