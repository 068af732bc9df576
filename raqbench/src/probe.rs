//! Engine probes of the traced pass: the same program a workload's ops run,
//! executed a few more times through each Datalog entry point so the layer
//! metrics `engine.prepared.*`, `engine.datalog.*` and `common.*` exist for
//! every workload, measured the same way.

use raqlet::{Database, DatalogEngine, DlirProgram, PreparedDatabase};

use crate::trace::Tracer;

/// Worker threads the machine offers (reported with every thread-dependent
/// number).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Probe `program` over `db`: prepared set-up / first / warm runs, cold
/// runs at the default thread count, and alternating 1-thread / N-thread
/// cold runs for `parallel_speedup`.
pub fn engine_probe(
    program: &DlirProgram,
    output: &str,
    db: &Database,
    reps: usize,
    t: &mut Tracer,
) {
    let copy = db.clone();
    let mut prepared = t.time("engine.prepared.new", || PreparedDatabase::new(copy));
    t.time("engine.prepared.first_run", || prepared.run(program, output)).expect("first run");
    for _ in 0..reps {
        t.time("engine.prepared.warm_run", || prepared.run(program, output)).expect("warm run");
    }
    t.count("engine.prepared.plan_compiles", prepared.plan_compiles() as f64);
    t.count("engine.prepared.index_builds", prepared.index_builds() as f64);
    let warm = prepared.database();
    t.count("common.heap_bytes", warm.heap_bytes() as f64);
    t.count("common.index_bytes", warm.index_heap_bytes() as f64);
    t.count("common.tuples", warm.total_tuples() as f64);

    let idbs = program.idb_names();
    let (auto, one, many) = (
        DatalogEngine::new(),
        DatalogEngine::with_threads(1),
        DatalogEngine::with_threads(nproc()),
    );
    for _ in 0..reps {
        let result =
            t.time("engine.datalog.cold_run", || auto.evaluate(program, db)).expect("cold run");
        let s = &result.stats;
        t.count("engine.datalog.iterations", s.iterations as f64);
        t.count("engine.datalog.rule_applications", s.rule_applications as f64);
        t.count("engine.datalog.tuples_derived", s.tuples_derived as f64);
        t.count("engine.datalog.parallel_tasks", s.parallel_tasks as f64);
        let kept: usize = idbs.iter().filter_map(|n| result.database.get(n)).map(|r| r.len()).sum();
        t.count("engine.datalog.useful_tuple_ratio", kept as f64 / s.tuples_derived.max(1) as f64);
        t.time("engine.datalog.t1", || one.evaluate(program, db)).expect("1-thread run");
        t.time("engine.datalog.tN", || many.evaluate(program, db)).expect("N-thread run");
    }
}
