//! Crash-safe durability differential suite.
//!
//! Every scenario drives a [`DurableDatabase`] through a scripted sequence
//! of logged delta batches and checkpoints while an in-memory control
//! [`PreparedDatabase`] records the expected fingerprint at every epoch.
//! A seed-derived [`CrashSchedule`] then kills the store at a
//! pseudo-random filesystem operation — mid-snapshot-write, mid-rename,
//! mid-WAL-frame, post-fsync — optionally leaving a torn prefix of the
//! in-flight write on disk. Reopening the directory must reproduce *bit
//! for bit* the control's state at some epoch `>=` the durability
//! watermark the store had acknowledged, and a clean retry of the
//! remaining batches must then land on the final state.
//!
//! The three workload shapes from the fault-injection suite ride through:
//! plain transitive closure over the EDB, `@min` lattice shortest paths as
//! a standing view, and a multi-view working set — so recovery exercises
//! both fact replay and incremental view maintenance. The matrix sweeps
//! 40 seeds per workload (120 injected crash schedules per run); CI
//! executes the suite under both `RAQLET_THREADS=1` and the default pool.
//!
//! Direct byte-level corruption (flipped bytes, torn tails, double
//! corruption) is covered by the scenario tests below the matrix. So are
//! standing views through both recovery branches (a DRed closure, a
//! `count` aggregate and an `@min` lattice), `ViewSpec`s the recovered
//! state refuses (the directory must stay byte-identical), and a durable
//! frame that fails to replay.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use raqlet::{
    counting_hook, CrashSchedule, Database, DurableDatabase, EdbDelta, IoFault, IoFaultHook, IoOp,
    PreparedDatabase, QueryGuard, RaqletError, StoreOptions, Value, ViewSpec,
};
use raqlet_common::SplitMix64;
use raqlet_dlir::{
    AggFunc, Aggregation, Atom, BodyElem, CmpOp, DlExpr, DlirProgram, LatticeMerge, Rule,
};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

/// Linear transitive closure (IVM-maintainable via DRed).
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

/// `@min` lattice shortest paths.
fn lattice_program() -> DlirProgram {
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
    p
}

/// Out-degree per node (a `count` aggregate) and the nodes with at least
/// two successors above it (maintained by counting).
fn count_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    let mut deg = Rule::new(Atom::with_vars("deg", &["x", "c"]), vec![atom("edge", &["x", "y"])]);
    deg.aggregation = Some(Aggregation {
        func: AggFunc::Count,
        input_var: None,
        output_var: "c".into(),
        group_by: vec!["x".into()],
        distinct: false,
    });
    p.add_rule(deg);
    p.add_rule(Rule::new(
        Atom::with_vars("busy", &["x"]),
        vec![
            atom("deg", &["x", "c"]),
            BodyElem::Constraint { op: CmpOp::Ge, lhs: DlExpr::var("c"), rhs: DlExpr::int(2) },
        ],
    ));
    p.add_output("busy");
    p
}

/// A unique, self-cleaning store directory under the system temp dir —
/// nothing leaks into the workspace (CI checks `git status` stays clean).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempDir(
            std::env::temp_dir()
                .join(format!("raqlet-durability-{}-{tag}-{n}", std::process::id())),
        )
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Full observable state of a prepared set (same shape as the
/// fault-injection suite's helper): every extensional relation's sorted
/// tuples, the dictionary's entry count, the delta epoch, and — per view —
/// its epoch plus every maintained derived relation (sorted).
type Fingerprint =
    (Vec<(String, Vec<Vec<Value>>)>, usize, u64, Vec<(u64, Vec<(String, Vec<Vec<Value>>)>)>);

fn fingerprint(p: &PreparedDatabase, views: &[(usize, Vec<String>)]) -> Fingerprint {
    let mut rels: Vec<(String, Vec<Vec<Value>>)> =
        p.database().iter().map(|(name, rel)| (name.clone(), rel.sorted())).collect();
    rels.sort();
    let view_states = views
        .iter()
        .map(|(id, names)| {
            let epoch = p.view_epoch(*id).expect("view exists");
            let derived = names
                .iter()
                .map(|n| {
                    (n.clone(), p.view_relation(*id, n).map(|r| r.sorted()).unwrap_or_default())
                })
                .collect();
            (epoch, derived)
        })
        .collect();
    (rels, p.database().dict().len(), p.epoch(), view_states)
}

/// The base extensional database: a small random edge graph plus a
/// string-labelled relation and an `i64`-overflow relation, so snapshots
/// and WAL frames carry every value kind.
fn base_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for _ in 0..16 {
        let a = rng.gen_range(0..10);
        let b = rng.gen_range(0..10);
        db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
    }
    db.insert_fact("label", vec![Value::Int(99), Value::str("seed")]).unwrap();
    db.insert_fact("big", vec![Value::Int(i64::MIN + 1)]).unwrap();
    db
}

/// Rebuild `db` with a fresh, private [`raqlet_common::cell::ValueDict`].
/// `Database::clone` shares the append-only dictionary, so a control and a
/// subject cloned from the same base would otherwise grow each other's
/// dictionary and corrupt the fingerprint comparison.
fn deep_copy(db: &Database) -> Database {
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        out.get_or_create(name, rel.arity());
        for row in rel.sorted() {
            out.insert_fact(name, row).expect("copy fact");
        }
    }
    out
}

/// The scripted mutation sequence: 12 delta batches (edge churn plus
/// string-valued and big-integer facts, inserts and deletes) with a
/// checkpoint after batches 5 and 9. The flag is "checkpoint after this
/// batch".
fn scripted_deltas(rng: &mut SplitMix64) -> Vec<(EdbDelta, bool)> {
    let mut out = Vec::new();
    for i in 0..12u64 {
        let mut delta = EdbDelta::new();
        for _ in 0..rng.gen_index(1..4) {
            let a = rng.gen_range(0..10);
            let b = rng.gen_range(0..10);
            if rng.gen_bool(0.7) {
                delta.insert("edge", vec![Value::Int(a), Value::Int(b)]);
            } else {
                delta.delete("edge", vec![Value::Int(a), Value::Int(b)]);
            }
        }
        if i % 3 == 0 {
            delta.insert("label", vec![Value::Int(i as i64), Value::str(format!("n-{i}"))]);
        }
        if i == 5 {
            delta.insert("big", vec![Value::Int(i64::MAX - 5)]);
            delta.delete("label", vec![Value::Int(0), Value::str("n-0")]);
        }
        out.push((delta, i == 4 || i == 8));
    }
    out
}

/// Expected fingerprints per epoch: `expected[e]` is the control's state
/// after `e` batches, views maintained along the way.
fn control_fingerprints(
    base: &Database,
    views: &[(DlirProgram, &str)],
    deltas: &[(EdbDelta, bool)],
) -> (Vec<Fingerprint>, Vec<(usize, Vec<String>)>) {
    let mut control = PreparedDatabase::new(deep_copy(base));
    let mut ids = Vec::new();
    for (program, output) in views {
        let id = control.install_view(program, output).expect("control install");
        ids.push((id, program.idb_names()));
    }
    let mut expected = vec![fingerprint(&control, &ids)];
    for (delta, _) in deltas {
        control.apply_delta(delta.clone()).expect("control apply");
        expected.push(fingerprint(&control, &ids));
    }
    (expected, ids)
}

/// Outcome of driving the scripted workload against a (possibly faulted)
/// store.
enum Outcome {
    /// The whole script ran (no fault fired).
    Completed,
    /// `create_with` itself failed — nothing was ever acknowledged durable.
    CreateFailed,
    /// A later call failed; `floor` is the durability watermark the store
    /// had acknowledged before the failure.
    Crashed { floor: u64 },
}

fn run_script(
    dir: &Path,
    hook: Option<Arc<IoFaultHook>>,
    base: &Database,
    views: &[(DlirProgram, &str)],
    deltas: &[(EdbDelta, bool)],
) -> Outcome {
    let mut store =
        match DurableDatabase::create_with(dir, deep_copy(base), StoreOptions { io_hook: hook }) {
            Ok(store) => store,
            Err(_) => return Outcome::CreateFailed,
        };
    for (program, output) in views {
        // View installation is pure computation — no I/O, no crash points.
        store.prepared_mut().install_view(program, output).expect("install view");
    }
    let mut floor = store.durable_epoch();
    for (delta, checkpoint) in deltas {
        if store.log_delta(delta.clone()).is_err() {
            return Outcome::Crashed { floor };
        }
        floor = store.durable_epoch();
        if *checkpoint && store.checkpoint().is_err() {
            return Outcome::Crashed { floor };
        }
    }
    Outcome::Completed
}

fn view_specs(views: &[(DlirProgram, &str)]) -> Vec<ViewSpec> {
    views.iter().map(|(p, out)| ViewSpec::new(p.clone(), *out)).collect()
}

/// Sweep `seeds` crash schedules over the scripted workload, asserting
/// after every crash that the reopened store is bit-identical to the
/// control at its recovered epoch and that a clean retry converges on the
/// final state. Returns how many schedules actually crashed mid-script.
fn crash_matrix(tag: &str, views: &[(DlirProgram, &str)], seeds: std::ops::Range<u64>) -> usize {
    let mut rng = SplitMix64::seed_from_u64(0xD0_0B1E);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let (expected, view_ids) = control_fingerprints(&base, views, &deltas);
    let specs = view_specs(views);

    // Dry run under a counting hook: measures the script's operation count
    // (so schedules cover every injection point) and doubles as the
    // no-fault differential.
    let ops = {
        let dir = TempDir::new(tag);
        let (hook, count) = counting_hook();
        assert!(matches!(
            run_script(dir.path(), Some(hook), &base, views, &deltas),
            Outcome::Completed
        ));
        let store = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
            .expect("clean reopen");
        assert_eq!(store.epoch(), deltas.len() as u64);
        assert_eq!(store.epoch(), store.durable_epoch());
        assert_eq!(
            &fingerprint(store.prepared(), &view_ids),
            expected.last().expect("nonempty"),
            "{tag}: no-fault run diverged from control"
        );
        count.load(Ordering::Relaxed)
    };
    assert!(ops > 20, "{tag}: script performs too few I/O operations ({ops}) to sweep");

    let mut crashed = 0;
    for seed in seeds {
        let dir = TempDir::new(tag);
        let schedule = CrashSchedule::from_seed(seed, ops);
        let outcome = run_script(dir.path(), Some(schedule.hook()), &base, views, &deltas);
        let floor = match outcome {
            Outcome::Completed => {
                continue; // crash point landed past the ops this run used
            }
            Outcome::CreateFailed => {
                // Nothing was acknowledged durable. Reopening may find a
                // published epoch-0 snapshot or no store at all — both are
                // honest; a half-written store must never load.
                match DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs) {
                    Ok(store) => {
                        assert_eq!(
                            store.epoch(),
                            0,
                            "seed {seed}: phantom epochs after failed create"
                        );
                        assert_eq!(fingerprint(store.prepared(), &view_ids), expected[0]);
                    }
                    Err(err) => assert!(err.is_storage_error(), "seed {seed}: {err:?}"),
                }
                continue;
            }
            Outcome::Crashed { floor } => floor,
        };
        crashed += 1;

        // Recovery: reopened state must be the control's state at the
        // recovered epoch, at or above the acknowledged watermark.
        let mut store = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
            .unwrap_or_else(|e| panic!("{tag} seed {seed} ({schedule:?}): reopen failed: {e}"));
        let epoch = store.epoch();
        assert_eq!(epoch, store.durable_epoch(), "{tag} seed {seed}: watermark mismatch");
        assert!(
            epoch >= floor,
            "{tag} seed {seed} ({schedule:?}): lost acknowledged epoch {floor}, recovered {epoch}"
        );
        assert!(
            (epoch as usize) < expected.len(),
            "{tag} seed {seed}: recovered past the script ({epoch})"
        );
        assert_eq!(
            fingerprint(store.prepared(), &view_ids),
            expected[epoch as usize],
            "{tag} seed {seed} ({schedule:?}): recovered state diverged at epoch {epoch}"
        );

        // Clean retry: the remaining batches replay to the final state,
        // a checkpoint succeeds, and the result survives another reopen.
        for (delta, _) in &deltas[epoch as usize..] {
            store.log_delta(delta.clone()).unwrap_or_else(|e| {
                panic!("{tag} seed {seed}: clean retry failed at epoch {}: {e}", store.epoch())
            });
        }
        store.checkpoint().expect("clean checkpoint after retry");
        assert_eq!(&fingerprint(store.prepared(), &view_ids), expected.last().expect("nonempty"));
        drop(store);
        let store = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
            .expect("reopen after retry");
        assert_eq!(store.epoch(), deltas.len() as u64);
        assert_eq!(&fingerprint(store.prepared(), &view_ids), expected.last().expect("nonempty"));
    }
    crashed
}

#[test]
fn crash_matrix_transitive_closure_edb() {
    let crashed = crash_matrix("tc", &[], 0..40);
    assert!(crashed >= 20, "only {crashed}/40 schedules crashed mid-script");
}

#[test]
fn crash_matrix_lattice_shortest_path_view() {
    let crashed = crash_matrix("lattice", &[(lattice_program(), "dist")], 1000..1040);
    assert!(crashed >= 20, "only {crashed}/40 schedules crashed mid-script");
}

#[test]
fn crash_matrix_maintained_views() {
    let views = [(tc_program(), "tc"), (lattice_program(), "dist")];
    let crashed = crash_matrix("views", &views, 2000..2040);
    assert!(crashed >= 20, "only {crashed}/40 schedules crashed mid-script");
}

/// Satellite pin: `compact` before snapshotting produces a canonical arena
/// (no tombstones, insertion order), and the snapshot round-trip is
/// bit-identical — both at the fingerprint level and at the raw file level
/// (re-checkpointing the reloaded store reproduces the identical snapshot
/// bytes).
#[test]
fn compacted_snapshots_round_trip_bit_identically() {
    let mut rng = SplitMix64::seed_from_u64(0xCA_11);
    let mut db = base_db(&mut rng);
    // Leave tombstones in the arena: remove a handful of live rows.
    let rows: Vec<Vec<Value>> = db.get("edge").unwrap().sorted();
    for row in rows.iter().take(4) {
        assert!(db.get_mut("edge").unwrap().remove(row));
    }
    let control = PreparedDatabase::new(deep_copy(&db));

    let dir = TempDir::new("canonical");
    let store = DurableDatabase::create(dir.path(), db).expect("create");
    // Creation compacted: every arena is canonical (live rows only).
    for name in store.database().names() {
        let rel = store.database().get(&name).expect("named relation");
        assert_eq!(rel.full_cells().len(), rel.len() * rel.stride(), "{name} not canonical");
    }
    assert_eq!(fingerprint(store.prepared(), &[]), fingerprint(&control, &[]));

    let snap = dir.path().join("snapshot.raq");
    let first = std::fs::read(&snap).expect("snapshot bytes");
    drop(store);

    // Reload and re-checkpoint at the same epoch: the snapshot file must be
    // reproduced bit for bit (same dictionary ids, same row order, same
    // section order) — the canonical-form pin.
    let mut store = DurableDatabase::open(dir.path()).expect("open");
    assert_eq!(fingerprint(store.prepared(), &[]), fingerprint(&control, &[]));
    store.checkpoint().expect("checkpoint");
    let second = std::fs::read(&snap).expect("snapshot bytes after checkpoint");
    assert_eq!(first, second, "snapshot round-trip is not bit-identical");
}

/// A corrupt current snapshot falls back to the previous generation plus
/// the longer WAL replay — recovering the *full* durable state, not the
/// older checkpoint.
#[test]
fn corrupt_snapshot_falls_back_to_previous_generation() {
    fallback_recovery("fallback", &[]);
}

/// The fallback branch with standing views: the recovered views, their
/// epochs and the dictionary match the control that maintained the views
/// batch by batch.
#[test]
fn corrupt_snapshot_falls_back_with_views_installed() {
    fallback_recovery("fallback-views", &[(tc_program(), "tc"), (lattice_program(), "dist")]);
}

fn fallback_recovery(tag: &str, views: &[(DlirProgram, &str)]) {
    let mut rng = SplitMix64::seed_from_u64(0xFA_11B);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let (expected, view_ids) = control_fingerprints(&base, views, &deltas);
    let specs = view_specs(views);
    let open =
        |dir: &TempDir| DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs);

    let dir = TempDir::new(tag);
    // Script: 5 batches, checkpoint (rotates generations), 4 more batches
    // living only in the current WAL.
    let mut store = DurableDatabase::create(dir.path(), base).expect("create");
    for (program, output) in views {
        store.prepared_mut().install_view(program, output).expect("install view");
    }
    for (delta, _) in &deltas[..5] {
        store.log_delta(delta.clone()).expect("log");
    }
    store.checkpoint().expect("checkpoint");
    for (delta, _) in &deltas[5..9] {
        store.log_delta(delta.clone()).expect("log");
    }
    drop(store);

    // Corrupt the current snapshot mid-file. Every section is
    // CRC-protected, so the damage cannot be silently accepted.
    let snap = dir.path().join("snapshot.raq");
    let mut bytes = std::fs::read(&snap).expect("snapshot bytes");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xFF;
    }
    std::fs::write(&snap, &bytes).expect("write corruption");

    let store = open(&dir).expect("fallback recovery");
    assert_eq!(store.epoch(), 9, "previous generation + both WALs replay to the full state");
    assert_eq!(store.durable_epoch(), 9);
    assert_eq!(fingerprint(store.prepared(), &view_ids), expected[9]);
    drop(store);

    // Recovery republished a good current snapshot: a second open no
    // longer needs the fallback and sees the same state.
    let store = open(&dir).expect("reopen after republish");
    assert_eq!(store.epoch(), 9);
    assert_eq!(fingerprint(store.prepared(), &view_ids), expected[9]);
}

/// A current-generation WAL tail that exercises every maintenance strategy
/// `reopen` relies on — DRed (`tc`), a `count` aggregate with counting above
/// it (`deg`/`busy`) and an `@min` lattice (`dist`) — including a row the
/// tail inserts and later deletes, and a snapshot row it deletes and later
/// puts back. The reopened store matches the control that maintained the
/// views frame by frame, and each view matches a fresh `install_view` over
/// the recovered extensional state.
#[test]
fn wal_tail_recovers_views_of_every_strategy() {
    let mut rng = SplitMix64::seed_from_u64(0x7A11);
    let base = base_db(&mut rng);
    let scripted = scripted_deltas(&mut rng);
    let views = [(tc_program(), "tc"), (count_program(), "busy"), (lattice_program(), "dist")];
    let specs = view_specs(&views);

    // The tail deletes a snapshot row that no scripted batch touches and
    // puts it back, and inserts and deletes again an edge into node 10,
    // which the scripted batches (nodes 0..10) never name.
    let mut at_checkpoint = PreparedDatabase::new(deep_copy(&base));
    for (delta, _) in &scripted[..3] {
        at_checkpoint.apply_delta(delta.clone()).expect("apply");
    }
    let touched: Vec<&Vec<Value>> = scripted[3..8]
        .iter()
        .flat_map(|(delta, _)| delta.inserts().iter().chain(delta.deletes()))
        .filter(|(name, _)| name == "edge")
        .map(|(_, row)| row)
        .collect();
    let snapshot_row = at_checkpoint
        .database()
        .get("edge")
        .expect("edge")
        .sorted()
        .into_iter()
        .find(|row| !touched.contains(&row))
        .expect("an untouched snapshot edge");
    let fresh_row = vec![snapshot_row[0].clone(), Value::Int(10)];
    let frame = |inserts: &[&Vec<Value>], deletes: &[&Vec<Value>]| {
        let mut delta = EdbDelta::new();
        for row in inserts {
            delta.insert("edge", (*row).clone());
        }
        for row in deletes {
            delta.delete("edge", (*row).clone());
        }
        (delta, false)
    };
    // Three batches into the snapshot, then a tail: the two designed round
    // trips interleaved with scripted churn.
    let mut deltas: Vec<(EdbDelta, bool)> = scripted[..3].to_vec();
    deltas[2].1 = true;
    deltas.push(frame(&[&fresh_row], &[]));
    deltas.push(frame(&[], &[&snapshot_row]));
    deltas.extend(scripted[3..6].iter().cloned().map(|(delta, _)| (delta, false)));
    deltas.push(frame(&[], &[&fresh_row]));
    deltas.push(frame(&[&snapshot_row], &[]));
    deltas.extend(scripted[6..8].iter().cloned().map(|(delta, _)| (delta, false)));
    let (expected, view_ids) = control_fingerprints(&base, &views, &deltas);

    let dir = TempDir::new("tail-views");
    assert!(matches!(run_script(dir.path(), None, &base, &views, &deltas), Outcome::Completed));
    let store =
        DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs).expect("reopen");
    assert_eq!(store.epoch(), deltas.len() as u64);
    assert_eq!(
        &fingerprint(store.prepared(), &view_ids),
        expected.last().expect("nonempty"),
        "recovered views diverged from the IVM-maintained control"
    );

    let mut fresh = PreparedDatabase::new(deep_copy(store.database()));
    for ((program, output), (id, names)) in views.iter().zip(&view_ids) {
        let fresh_id = fresh.install_view(program, output).expect("fresh install");
        for name in names {
            assert_eq!(
                store.prepared().view_relation(*id, name).map(|r| r.sorted()),
                fresh.view_relation(fresh_id, name).map(|r| r.sorted()),
                "view relation `{name}` differs from a fresh install"
            );
        }
    }
}

/// Every file of a store directory, by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list store")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("file bytes"))
        })
        .collect();
    files.sort();
    files
}

/// Chop the last few bytes off `wal.raq`, tearing its final frame: a
/// successful open truncates the log back to the frame before.
fn tear_wal_tail(dir: &Path) {
    let wal = dir.join("wal.raq");
    let bytes = std::fs::read(&wal).expect("wal bytes");
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).expect("tear tail");
}

/// A `ViewSpec` the recovered state refuses makes `open_with` fail without
/// writing anything: every file keeps its bytes, the torn WAL tail is not
/// truncated, and the fallback does not republish. A valid open afterwards
/// still succeeds.
#[test]
fn refused_view_specs_leave_the_directory_untouched() {
    let specs = view_specs(&[(tc_program(), "tc")]);
    let mut rng = SplitMix64::seed_from_u64(0x4EF);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let mut tc_row = EdbDelta::new();
    tc_row.insert("tc", vec![Value::Int(1), Value::Int(2)]);

    // (a) The WAL writes `tc`, the relation the spec derives.
    let dir = TempDir::new("refuse-wal-writes");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&base)).expect("create");
    store.log_delta(deltas[0].0.clone()).expect("log");
    store.log_delta(tc_row.clone()).expect("log tc row");
    store.log_delta(deltas[1].0.clone()).expect("log");
    store.log_delta(deltas[2].0.clone()).expect("log");
    drop(store);
    tear_wal_tail(dir.path());
    let before = dir_bytes(dir.path());
    let err = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
        .expect_err("the WAL writes a derived relation");
    assert!(err.to_string().contains("`tc`"), "{err}");
    assert!(dir_bytes(dir.path()) == before, "a refused open wrote to the store");
    let store = DurableDatabase::open(dir.path()).expect("valid open");
    assert_eq!(store.epoch(), 3, "exactly the torn frame is dropped");
    drop(store);
    assert!(dir_bytes(dir.path()) != before, "the valid open truncates the torn tail");

    // (b) The snapshot holds a non-empty `tc`; the WAL has a torn tail.
    let mut with_tc = deep_copy(&base);
    with_tc.insert_fact("tc", vec![Value::Int(1), Value::Int(2)]).expect("tc fact");
    let dir = TempDir::new("refuse-collision");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&with_tc)).expect("create");
    for (delta, _) in &deltas[..3] {
        store.log_delta(delta.clone()).expect("log");
    }
    drop(store);
    tear_wal_tail(dir.path());
    let before = dir_bytes(dir.path());
    let err = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
        .expect_err("the spec collides with the snapshot's `tc`");
    assert!(err.to_string().contains("`tc`"), "{err}");
    assert!(dir_bytes(dir.path()) == before, "a refused open wrote to the store");
    let store = DurableDatabase::open(dir.path()).expect("valid open");
    assert_eq!(store.epoch(), 2);
    drop(store);

    // The same collision on the fallback branch: nothing is republished.
    let dir = TempDir::new("refuse-fallback");
    let mut store = DurableDatabase::create(dir.path(), with_tc).expect("create");
    store.log_delta(deltas[0].0.clone()).expect("log");
    store.checkpoint().expect("checkpoint");
    store.log_delta(deltas[1].0.clone()).expect("log");
    drop(store);
    let snap = dir.path().join("snapshot.raq");
    let mut bytes = std::fs::read(&snap).expect("snapshot bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).expect("write corruption");
    let before = dir_bytes(dir.path());
    let err = DurableDatabase::open_with(dir.path(), StoreOptions::default(), &specs)
        .expect_err("the spec collides with the fallback snapshot's `tc`");
    assert!(err.to_string().contains("`tc`"), "{err}");
    assert!(dir_bytes(dir.path()) == before, "a refused fallback open wrote to the store");
    let store = DurableDatabase::open(dir.path()).expect("valid fallback open");
    assert_eq!(store.epoch(), 2);
}

/// A durable frame the recovered state rejects (here, rows of the wrong
/// arity) fails the open with a `Corrupt` error naming the log and the
/// frame's epoch, and leaves the store as it was.
#[test]
fn replay_errors_name_the_wal_and_the_frame_epoch() {
    let mut narrow = Database::new();
    narrow.insert_fact("edge", vec![Value::Int(1), Value::Int(2)]).expect("edge/2");
    let dir = TempDir::new("replay-narrow");
    drop(DurableDatabase::create(dir.path(), narrow).expect("create"));

    let mut wide = Database::new();
    wide.insert_fact("edge", vec![Value::Int(1), Value::Int(2), Value::Int(3)]).expect("edge/3");
    let other = TempDir::new("replay-wide");
    let mut store = DurableDatabase::create(other.path(), wide).expect("create");
    for i in 0..2 {
        let mut delta = EdbDelta::new();
        delta.insert("edge", vec![Value::Int(i), Value::Int(i + 1), Value::Int(i + 2)]);
        store.log_delta(delta).expect("log edge/3");
    }
    drop(store);
    std::fs::copy(other.path().join("wal.raq"), dir.path().join("wal.raq")).expect("copy wal");

    let before = dir_bytes(dir.path());
    let err = DurableDatabase::open(dir.path()).expect_err("edge/3 frames over edge/2");
    match err {
        RaqletError::Corrupt { ref path, ref message, .. } => {
            assert!(path.ends_with("wal.raq"), "error names the log: {err}");
            assert!(message.contains("epoch 1"), "error names the frame's epoch: {err}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(dir_bytes(dir.path()) == before, "a failed replay wrote to the store");
}

/// Torn and corrupt WAL tails truncate back to the last complete frame;
/// the log is appendable again afterwards.
#[test]
fn torn_and_corrupt_wal_tails_recover_to_the_valid_prefix() {
    let mut rng = SplitMix64::seed_from_u64(0xFA_7A11);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let (expected, _) = control_fingerprints(&base, &[], &deltas);
    let wal = |dir: &TempDir| dir.path().join("wal.raq");

    // Torn tail: chop bytes off the last frame.
    let dir = TempDir::new("torn");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&base)).expect("create");
    for (delta, _) in &deltas[..6] {
        store.log_delta(delta.clone()).expect("log");
    }
    drop(store);
    let bytes = std::fs::read(wal(&dir)).expect("wal bytes");
    std::fs::write(wal(&dir), &bytes[..bytes.len() - 3]).expect("tear tail");

    let mut store = DurableDatabase::open(dir.path()).expect("recover torn tail");
    assert_eq!(store.epoch(), 5, "exactly the torn frame is dropped");
    assert_eq!(fingerprint(store.prepared(), &[]), expected[5]);
    // The log accepts appends again: re-log the lost batch.
    store.log_delta(deltas[5].0.clone()).expect("re-log after truncation");
    assert_eq!(fingerprint(store.prepared(), &[]), expected[6]);
    drop(store);
    let store = DurableDatabase::open(dir.path()).expect("reopen");
    assert_eq!(fingerprint(store.prepared(), &[]), expected[6]);
    drop(store);

    // Corrupt middle: flip a byte inside an interior frame — everything
    // from that frame on is a dead tail.
    let dir = TempDir::new("corrupt-wal");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&base)).expect("create");
    for (delta, _) in &deltas[..6] {
        store.log_delta(delta.clone()).expect("log");
    }
    drop(store);
    let mut bytes = std::fs::read(wal(&dir)).expect("wal bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    std::fs::write(wal(&dir), &bytes).expect("write corruption");

    let mut store = DurableDatabase::open(dir.path()).expect("recover corrupt middle");
    let epoch = store.epoch();
    assert!(epoch < 6, "the corrupt frame and everything after it must be dropped");
    assert_eq!(fingerprint(store.prepared(), &[]), expected[epoch as usize]);
    // Clean retry from the recovered epoch converges on the full state.
    for (delta, _) in &deltas[epoch as usize..] {
        store.log_delta(delta.clone()).expect("clean retry");
    }
    assert_eq!(&fingerprint(store.prepared(), &[]), expected.last().expect("nonempty"));
}

/// When both snapshot generations are corrupt — or the directory holds no
/// store at all — open surfaces a structured error instead of panicking or
/// fabricating state.
#[test]
fn unrecoverable_stores_surface_structured_errors() {
    let dir = TempDir::new("empty");
    std::fs::create_dir_all(dir.path()).expect("mkdir");
    let err = DurableDatabase::open(dir.path()).expect_err("no store here");
    assert!(matches!(err, RaqletError::Io { .. }), "{err:?}");

    let mut rng = SplitMix64::seed_from_u64(0xDEAD);
    let dir = TempDir::new("double-corrupt");
    let mut store = DurableDatabase::create(dir.path(), base_db(&mut rng)).expect("create");
    store.log_delta(scripted_deltas(&mut rng)[0].0.clone()).expect("log");
    store.checkpoint().expect("checkpoint"); // both generations now exist
    drop(store);
    for name in ["snapshot.raq", "snapshot.prev"] {
        let path = dir.path().join(name);
        let mut bytes = std::fs::read(&path).expect("snapshot bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corruption");
    }
    let err = DurableDatabase::open(dir.path()).expect_err("both generations corrupt");
    match err {
        RaqletError::Corrupt { ref path, offset, .. } => {
            assert!(path.ends_with("snapshot.raq"), "error names the primary snapshot: {err}");
            assert!(offset > 0, "error carries the failing offset");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A transient WAL-append failure leaves the batch applied in memory but
/// not durable: the store refuses further logging until a checkpoint
/// re-anchors durability at the current epoch.
#[test]
fn failed_wal_append_poisons_logging_until_checkpoint() {
    let armed = Arc::new(AtomicBool::new(false));
    let trigger = armed.clone();
    let hook: Arc<IoFaultHook> = Arc::new(move |op, _| {
        if op == IoOp::Write && trigger.swap(false, Ordering::Relaxed) {
            Some(IoFault::Error)
        } else {
            None
        }
    });

    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let (expected, _) = control_fingerprints(&base, &[], &deltas);

    let dir = TempDir::new("poison-wal");
    let mut store = DurableDatabase::create_with(
        dir.path(),
        deep_copy(&base),
        StoreOptions { io_hook: Some(hook) },
    )
    .expect("create");
    store.log_delta(deltas[0].0.clone()).expect("clean log");
    assert_eq!((store.epoch(), store.durable_epoch()), (1, 1));

    armed.store(true, Ordering::Relaxed); // next write (the WAL append) fails
    let err = store.log_delta(deltas[1].0.clone()).expect_err("append fails");
    assert!(matches!(err, RaqletError::Io { .. }), "{err:?}");
    // Applied in memory, not durable — and further logging is refused.
    assert_eq!((store.epoch(), store.durable_epoch()), (2, 1));
    assert_eq!(fingerprint(store.prepared(), &[]), expected[2]);
    let err = store.log_delta(deltas[2].0.clone()).expect_err("logging refused");
    assert!(matches!(err, RaqletError::Io { .. }), "{err:?}");
    assert_eq!(store.epoch(), 2, "refused batch must not touch the working set");

    // A checkpoint subsumes the unlogged batch and clears the poisoning.
    store.checkpoint().expect("re-anchoring checkpoint");
    assert_eq!((store.epoch(), store.durable_epoch()), (2, 2));
    store.log_delta(deltas[2].0.clone()).expect("logging works again");
    assert_eq!((store.epoch(), store.durable_epoch()), (3, 3));
    drop(store);

    let store = DurableDatabase::open(dir.path()).expect("reopen");
    assert_eq!(store.epoch(), 3);
    assert_eq!(fingerprint(store.prepared(), &[]), expected[3]);
}

/// A failed *unguarded* batch leaves the in-memory state unspecified
/// (PR 8's contract), so the store refuses both logging and checkpointing;
/// the disk is untouched and reopening recovers the last durable epoch.
/// Under an armed guard the same failure rolls back and the store stays
/// fully usable.
#[test]
fn failed_batches_guard_the_disk() {
    let mut rng = SplitMix64::seed_from_u64(0x5075);
    let base = base_db(&mut rng);
    let deltas = scripted_deltas(&mut rng);
    let (expected, _) = control_fingerprints(&base, &[], &deltas);
    let mut bad = EdbDelta::new();
    bad.insert("edge", vec![Value::Int(1)]); // arity violation

    // Armed guard: atomic failure, store stays usable, nothing poisoned.
    let dir = TempDir::new("armed-batch");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&base)).expect("create");
    store.log_delta(deltas[0].0.clone()).expect("clean log");
    let guard = QueryGuard::new().with_tuple_budget(1_000_000);
    assert!(guard.is_armed());
    store.log_delta_guarded(bad.clone(), &guard).expect_err("arity violation");
    assert_eq!((store.epoch(), store.durable_epoch()), (1, 1));
    assert_eq!(fingerprint(store.prepared(), &[]), expected[1]);
    store.log_delta(deltas[1].0.clone()).expect("store still usable");
    assert_eq!(store.epoch(), 2);
    drop(store);

    // Unguarded: the store marks itself suspect and refuses to persist the
    // possibly-damaged working set.
    let dir = TempDir::new("suspect-batch");
    let mut store = DurableDatabase::create(dir.path(), deep_copy(&base)).expect("create");
    store.log_delta(deltas[0].0.clone()).expect("clean log");
    store.log_delta(bad).expect_err("arity violation");
    let err = store.log_delta(deltas[1].0.clone()).expect_err("logging refused");
    assert!(err.to_string().contains("suspect"), "{err}");
    let err = store.checkpoint().expect_err("checkpointing refused");
    assert!(err.to_string().contains("suspect"), "{err}");
    drop(store);
    // The disk never saw the damage: reopening recovers epoch 1 exactly.
    let store = DurableDatabase::open(dir.path()).expect("reopen");
    assert_eq!((store.epoch(), store.durable_epoch()), (1, 1));
    assert_eq!(fingerprint(store.prepared(), &[]), expected[1]);
}
