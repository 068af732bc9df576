//! Crash-safe persistence: create a durable store, log fact deltas through
//! the write-ahead log, checkpoint, "crash", and reload — standing views
//! included.
//!
//! ```sh
//! cargo run --release --example persist_reload
//! ```

use raqlet::{Database, DurableDatabase, EdbDelta, StoreOptions, Value, ViewSpec};
use raqlet_dlir::{Atom, BodyElem, DlirProgram, Rule};

/// Transitive closure over `edge`, maintained incrementally as a standing
/// view.
fn tc_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    let atom = |name: &str, vars: &[&str]| BodyElem::Atom(Atom::with_vars(name, vars));
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("edge", &["z", "y"])],
    ));
    p.add_output("tc");
    p
}

fn main() -> raqlet::Result<()> {
    let dir = std::env::temp_dir().join(format!("raqlet-persist-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Create a store from an initial extensional database. The database
    //    is compacted and written as the epoch-0 snapshot (checksummed
    //    arena dump, published by atomic rename).
    let mut edb = Database::new();
    for (a, b) in [(1i64, 2i64), (2, 3), (3, 4)] {
        edb.insert_fact("edge", vec![Value::Int(a), Value::Int(b)])?;
    }
    let mut store = DurableDatabase::create(&dir, edb)?;
    let view = store.prepared_mut().install_view(&tc_program(), "tc")?;
    println!(
        "created store at {} — epoch {}, tc has {} paths",
        dir.display(),
        store.epoch(),
        store.prepared().view(view).map(|r| r.len()).unwrap_or(0)
    );

    // 2. Log delta batches. Each batch is applied to the working set (the
    //    view maintains incrementally) and appended to the WAL as one
    //    fsync'd, checksummed frame — durable once `log_delta` returns.
    let mut delta = EdbDelta::new();
    delta.insert("edge", vec![Value::Int(4), Value::Int(5)]);
    store.log_delta(delta)?;

    let mut delta = EdbDelta::new();
    delta.insert("edge", vec![Value::Int(5), Value::Int(1)]); // closes a cycle
    delta.delete("edge", vec![Value::Int(2), Value::Int(3)]);
    store.log_delta(delta)?;
    println!(
        "logged 2 batches — epoch {}, durable epoch {}, tc has {} paths",
        store.epoch(),
        store.durable_epoch(),
        store.prepared().view(view).map(|r| r.len()).unwrap_or(0)
    );

    // 3. Checkpoint: write a fresh snapshot at the current epoch and rotate
    //    the WAL. The previous snapshot generation is kept as a fallback —
    //    even a corrupt current snapshot recovers via the longer replay.
    store.checkpoint()?;
    let before = store.prepared().view(view).map(|r| r.sorted()).unwrap_or_default();

    // 4. "Crash": drop the store without any orderly shutdown...
    drop(store);

    // 5. ...and recover. Opening replays any surviving WAL frames into the
    //    extensional set, then evaluates the standing view once over the
    //    recovered state, so it matches the pre-crash one exactly.
    let specs = [ViewSpec::new(tc_program(), "tc")];
    let store = DurableDatabase::open_with(&dir, StoreOptions::default(), &specs)?;
    let after = store.prepared().view(0).map(|r| r.sorted()).unwrap_or_default();
    println!(
        "reloaded — epoch {}, durable epoch {}, tc has {} paths",
        store.epoch(),
        store.durable_epoch(),
        after.len()
    );
    assert_eq!(before, after, "recovered view diverged");
    println!("recovered standing view is identical to the pre-crash one ✔");

    drop(store);
    std::fs::remove_dir_all(&dir)
        .map_err(|e| raqlet::RaqletError::io("remove", dir.display().to_string(), e.to_string()))?;
    Ok(())
}
