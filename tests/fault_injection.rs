//! Deterministic fault-injection differential suite: failure atomicity under
//! randomized cancellations, deadline trips, budget trips and synthetic
//! panics.
//!
//! Every scenario drives a [`PreparedDatabase`] "subject" and an untouched
//! "control" through identical successful calls, then injects one fault into
//! the subject via a seed-derived [`FaultSchedule`] (a fault kind plus the
//! guard-checkpoint hit at which it fires — sweeping seeds sweeps injection
//! points across fixpoint rounds, SCC boundaries, join-scan ticks and IVM
//! steps). After every *failed* call the subject's extensional
//! relations, its standing views (every derived relation, not just outputs),
//! its epochs and its value dictionary must be identical to the control's —
//! and a clean call afterwards must succeed with the control's result.
//!
//! The sweep sizes guarantee well over 100 distinct injection schedules per
//! run.

use raqlet::{Database, DatalogEngine, EdbDelta, PreparedDatabase, Value};
use raqlet_common::SplitMix64;
use raqlet_dlir::{Atom, BodyElem, DlExpr, DlirProgram, LatticeMerge, Rule};
use raqlet_engine::fault::{count_checkpoints, with_contained_panics, FaultSchedule};

fn atom(name: &str, vars: &[&str]) -> BodyElem {
    BodyElem::Atom(Atom::with_vars(name, vars))
}

/// Non-linear transitive closure — the self-join produces deep checkpoint
/// schedules (fixpoint rounds over a quadratic join).
fn nonlinear_tc_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("tc", &["x", "y"]), vec![atom("edge", &["x", "y"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("tc", &["x", "y"]),
        vec![atom("tc", &["x", "z"]), atom("tc", &["z", "y"])],
    ));
    p.add_output("tc");
    p
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

/// Magic-set-style seeded reachability: recursion driven from a `start` seed,
/// the shape the magic-set transform produces.
fn reachability_program() -> DlirProgram {
    let mut p = DlirProgram::default();
    p.add_rule(Rule::new(Atom::with_vars("reach", &["x"]), vec![atom("start", &["x"])]));
    p.add_rule(Rule::new(
        Atom::with_vars("reach", &["y"]),
        vec![atom("reach", &["x"]), atom("edge", &["x", "y"])],
    ));
    p.add_output("reach");
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

fn random_edge_db(rng: &mut SplitMix64, nodes: i64, edges: usize) -> Database {
    let mut db = Database::new();
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        db.insert_fact("edge", vec![Value::Int(a), Value::Int(b)]).unwrap();
    }
    db
}

/// Full observable state of a prepared set: every warm relation's sorted
/// tuples, the dictionary's entry count, the delta epoch, and — per view —
/// its epoch plus every maintained derived relation (sorted). Two equal
/// fingerprints mean a downstream user cannot distinguish the states.
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

/// Sweep `seeds` fault schedules over guarded warm runs of `program`,
/// asserting failure atomicity after every failed call. Returns the number
/// of schedules that actually failed.
fn sweep_run(
    program: &DlirProgram,
    output: &str,
    db: &Database,
    seeds: std::ops::Range<u64>,
) -> usize {
    let mut subject = PreparedDatabase::new(db.clone());
    // Warm call: interns every program constant and derived string into the
    // dictionary and fills the plan cache, so a later faulted call cannot
    // even grow the dictionary — making fingerprints exactly comparable.
    let expected = subject.run(program, output).expect("warm run succeeds");
    let mut counter = subject.clone();
    let hits = count_checkpoints(|g| counter.run_guarded(program, output, g).map(|_| ()))
        .expect("counting run succeeds");
    let pre = fingerprint(&subject, &[]);

    let mut failed = 0;
    for seed in seeds {
        let schedule = FaultSchedule::from_seed(seed, hits);
        match subject.run_guarded(program, output, &schedule.guard()) {
            Ok(rows) => {
                // Trip point past the end of this execution: a clean success.
                assert_eq!(rows.sorted(), expected.sorted(), "seed {seed}: clean run diverged");
            }
            Err(err) => {
                failed += 1;
                assert_eq!(
                    fingerprint(&subject, &[]),
                    pre,
                    "seed {seed}: state corrupted by {err} ({schedule:?})"
                );
            }
        }
    }
    // After the whole sweep a clean call still succeeds with the exact
    // pre-sweep result.
    let after = subject.run(program, output).expect("clean run after sweep");
    assert_eq!(after.sorted(), expected.sorted());
    assert_eq!(fingerprint(&subject, &[]), pre);
    failed
}

#[test]
fn faulted_runs_leave_the_warm_state_untouched() {
    let mut rng = SplitMix64::seed_from_u64(0xFA_017);
    let db = random_edge_db(&mut rng, 12, 26);
    let mut start_db = db.clone();
    start_db.insert_fact("start", vec![Value::Int(0)]).unwrap();

    let mut schedules = 0;
    let mut failed = 0;
    for (program, output, base) in [
        (nonlinear_tc_program(), "tc", &db),
        (reachability_program(), "reach", &start_db),
        (lattice_program(), "dist", &db),
    ] {
        schedules += 24;
        failed += sweep_run(&program, output, base, 0..24);
    }
    assert_eq!(schedules, 72);
    // The sweep must actually exercise failures, not dodge them.
    assert!(failed >= schedules / 2, "only {failed}/{schedules} schedules tripped");
}

#[test]
fn faulted_view_installation_installs_nothing() {
    let mut rng = SplitMix64::seed_from_u64(0xFA_057);
    let db = random_edge_db(&mut rng, 10, 20);
    let program = tc_program();

    let mut subject = PreparedDatabase::new(db.clone());
    // Warm the dictionary and plan cache through a plain run, then through
    // one full install/teardown-free control round on a clone.
    subject.run(&program, "tc").expect("warm run");
    let mut counter = subject.clone();
    let hits = count_checkpoints(|g| counter.install_view_guarded(&program, "tc", g).map(|_| ()))
        .expect("counting install succeeds");
    let pre = fingerprint(&subject, &[]);

    let mut failed = 0;
    for seed in 100..116 {
        let schedule = FaultSchedule::from_seed(seed, hits);
        let mut trial = subject.clone();
        match trial.install_view_guarded(&program, "tc", &schedule.guard()) {
            Ok(id) => {
                assert_eq!(trial.view_count(), 1);
                assert!(trial.view(id).is_some());
            }
            Err(err) => {
                failed += 1;
                assert_eq!(trial.view_count(), 0, "seed {seed}: {err} left a half-installed view");
                assert_eq!(
                    fingerprint(&trial, &[]),
                    pre,
                    "seed {seed}: install failure corrupted state ({err})"
                );
                // The same prepared set still installs cleanly afterwards.
                let id = trial.install_view(&program, "tc").expect("clean install after failure");
                assert!(trial.view(id).is_some());
            }
        }
    }
    assert!(failed >= 4, "only {failed}/16 install schedules tripped");
}

#[test]
fn faulted_delta_batches_roll_back_database_and_views() {
    let mut rng = SplitMix64::seed_from_u64(0xFA_0DE);
    let mut db = random_edge_db(&mut rng, 10, 18);
    db.insert_fact("start", vec![Value::Int(0)]).unwrap();

    let mut subject = PreparedDatabase::new(db.clone());
    let mut control = PreparedDatabase::new(db);
    let mut views = Vec::new();
    for (program, output) in
        [(tc_program(), "tc"), (reachability_program(), "reach"), (lattice_program(), "dist")]
    {
        let id = subject.install_view(&program, output).expect("subject install");
        let cid = control.install_view(&program, output).expect("control install");
        assert_eq!(id, cid);
        views.push((id, program.idb_names()));
    }
    assert_eq!(fingerprint(&subject, &views), fingerprint(&control, &views));

    let mut schedules = 0;
    let mut failed = 0;
    for round in 0..40u64 {
        // A random insert/delete batch over the live edge set (deletes drawn
        // from the control's current rows so they usually hit).
        let mut delta = EdbDelta::new();
        for _ in 0..rng.gen_index(1..5) {
            let a = rng.gen_range(0..10);
            let b = rng.gen_range(0..10);
            if rng.gen_bool(0.6) {
                delta.insert("edge", vec![Value::Int(a), Value::Int(b)]);
            } else {
                delta.delete("edge", vec![Value::Int(a), Value::Int(b)]);
            }
        }

        let mut counter = subject.clone();
        let hits = count_checkpoints(|g| counter.apply_delta_guarded(delta.clone(), g).map(|_| ()))
            .expect("counting delta succeeds");
        let pre = fingerprint(&subject, &views);

        schedules += 1;
        let schedule = FaultSchedule::from_seed(0xDE17A ^ round, hits);
        match subject.apply_delta_guarded(delta.clone(), &schedule.guard()) {
            Ok(_) => {}
            Err(err) => {
                failed += 1;
                assert_eq!(
                    fingerprint(&subject, &views),
                    pre,
                    "round {round}: delta failure corrupted state ({err}, {schedule:?})"
                );
                // Re-apply cleanly so subject and control stay in lockstep.
                subject.apply_delta(delta.clone()).expect("clean re-apply after failure");
            }
        }
        control.apply_delta(delta).expect("control apply");
        assert_eq!(
            fingerprint(&subject, &views),
            fingerprint(&control, &views),
            "round {round}: subject diverged from untouched control"
        );
    }
    assert_eq!(schedules, 40);
    assert!(failed >= 10, "only {failed}/{schedules} delta schedules tripped");
}

#[test]
fn raw_engine_faults_never_corrupt_the_input_database() {
    // The stateless path: `evaluate_guarded` clones its working set, so even
    // an injected mid-evaluation panic (contained here at the test boundary)
    // must leave the caller's database untouched.
    let mut rng = SplitMix64::seed_from_u64(0xFA_2AB);
    let db = random_edge_db(&mut rng, 12, 24);
    let program = nonlinear_tc_program();
    let engine = DatalogEngine::new();
    let expected = engine.evaluate(&program, &db).unwrap().relation("tc");
    let hits = count_checkpoints(|g| engine.evaluate_guarded(&program, &db, g).map(|_| ()))
        .expect("counting run succeeds");
    let before: Vec<(String, Vec<Vec<Value>>)> =
        db.iter().map(|(n, r)| (n.clone(), r.sorted())).collect();

    let mut failed = 0;
    for seed in 500..530 {
        let schedule = FaultSchedule::from_seed(seed, hits);
        let outcome =
            with_contained_panics(|| engine.evaluate_guarded(&program, &db, &schedule.guard()));
        match outcome {
            Ok(result) => assert_eq!(result.relation("tc").sorted(), expected.sorted()),
            Err(_) => failed += 1,
        }
        let after: Vec<(String, Vec<Vec<Value>>)> =
            db.iter().map(|(n, r)| (n.clone(), r.sorted())).collect();
        assert_eq!(before, after, "seed {seed}: input database mutated");
    }
    assert!(failed >= 10, "only {failed}/30 raw-engine schedules tripped");
}
