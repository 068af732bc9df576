//! The eight workloads. Each stresses different layers, so that an
//! optimization has one workload that exercises its mechanism and one that
//! bypasses it (see the README's interaction list).

mod closure_analytic;
mod interactive_mix;
mod ivm_churn;
mod points_to;
mod table1;

use raqlet::{
    CompiledQuery, Database, DlirProgram, GraphEngine, PreparedDatabase, PropertyGraph, Relation,
};

use crate::digest::Digest;
use crate::probe::engine_probe;
use crate::trace::{timed, Tracer};
use crate::{Finish, OpOutcome, Workload};
use table1::Backend;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compile-per-op short and recursive reads on a warm database.
    InteractiveMix,
    /// Warm all-pairs transitive closure.
    ClosureAnalytic,
    /// Warm Andersen points-to analysis.
    PointsTo,
    /// Table 1 on the graph engine.
    Table1Graph,
    /// Table 1 on the Datalog engine, cold.
    Table1Datalog,
    /// Table 1 on the SQL engine, both profiles.
    Table1Sql,
    /// Durable writes with maintained views, and reads beside them.
    IvmChurn,
    /// Drop and reopen of the durable store.
    Reopen,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::InteractiveMix,
        Kind::ClosureAnalytic,
        Kind::PointsTo,
        Kind::Table1Graph,
        Kind::Table1Datalog,
        Kind::Table1Sql,
        Kind::IvmChurn,
        Kind::Reopen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::InteractiveMix => "interactive_mix",
            Kind::ClosureAnalytic => "closure_analytic",
            Kind::PointsTo => "points_to",
            Kind::Table1Graph => "table1_graph",
            Kind::Table1Datalog => "table1_datalog",
            Kind::Table1Sql => "table1_sql",
            Kind::IvmChurn => "ivm_churn",
            Kind::Reopen => "reopen",
        }
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Kind::InteractiveMix => {
                "what an application sees: params bind at compile time, so every op compiles; \
                 p50 is compiler-bound, the tail is magic-set recursion in the engine"
            }
            Kind::ClosureAnalytic => {
                "no bound source, so the compiler and magic sets cannot help: join, dedup, \
                 staging and parallel chunking of a linear two-atom closure do all the work"
            }
            Kind::PointsTo => {
                "same engine layer, other shape: deep non-linear mutual recursion with 3-way \
                 joins; a closure-specialised kernel must leave it flat or expose a loss"
            }
            Kind::Table1Graph => {
                "the paper's Table 1 queries on the graph engine, the only workload it \
                 serves: compiler, Datalog and SQL changes predict no change here"
            }
            Kind::Table1Datalog => {
                "the Table 1 queries cold on the Datalog engine: clone, index build and plan \
                 compile per query, which the warm workloads never pay"
            }
            Kind::Table1Sql => {
                "the Table 1 queries on both SQL profiles, the only workload where sqir and \
                 the SQL engine work: the cross-paradigm claim lives here"
            }
            Kind::IvmChurn => {
                "the write path beside reads: durable deltas through IVM-maintained views; \
                 p50 is a read, the tail a delete; a read-side win that taxes writes shows"
            }
            Kind::Reopen => {
                "recovery: snapshot decode, WAL replay and view reinstall; a heavier \
                 checkpoint should speed this up and slow ivm_churn, so both are bounded"
            }
        }
    }

    /// Look a workload up by its name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Set the workload up from `seed`: generate and load the data, compute
    /// the reference answers, warm the caches. Spans of the set-up calls go
    /// to `t`.
    pub fn build(self, seed: u64, quick: bool, t: &mut Tracer) -> Box<dyn Workload> {
        let table1 =
            |backend, t: &mut Tracer| Box::new(table1::Table1::new(backend, seed, quick, t));
        match self {
            Kind::InteractiveMix => Box::new(interactive_mix::InteractiveMix::new(seed, quick, t)),
            Kind::ClosureAnalytic => Box::new(closure_analytic::new(seed, quick, t)),
            Kind::PointsTo => Box::new(points_to::new(seed, quick, t)),
            Kind::Table1Graph => table1(Backend::Graph, t),
            Kind::Table1Datalog => table1(Backend::Datalog, t),
            Kind::Table1Sql => table1(Backend::Sql, t),
            Kind::IvmChurn => Box::new(ivm_churn::IvmChurn::new(seed, quick, t)),
            Kind::Reopen => Box::new(ivm_churn::Reopen::new(seed, quick, t)),
        }
    }
}

/// The reference answer of an SNB query: the graph engine interpreting the
/// PGIR directly, which shares no code with DLIR lowering, the optimizer or
/// the Datalog and SQL engines.
fn graph_reference(compiled: &CompiledQuery, graph: &PropertyGraph, t: &mut Tracer) -> Digest {
    let result = t
        .time("engine.graph.run", || GraphEngine::new().execute(&compiled.pgir, graph))
        .expect("graph engine answers the reference");
    t.count("engine.graph.expansions", result.stats.expansions as f64);
    Digest::of(&result.rows)
}

/// Check an op's rows against `reference`, off the clock. An error counts
/// as a failed op.
fn check(ms: f64, reference: Digest, rows: raqlet::Result<Relation>) -> OpOutcome {
    match rows {
        Ok(rows) => {
            let d = Digest::of(&rows);
            OpOutcome { ms, ok: d == reference, digest: d.fingerprint() }
        }
        Err(_) => OpOutcome { ms, ok: false, digest: 0 },
    }
}

/// A workload whose every op is one warm run of one compiled program on a
/// [`PreparedDatabase`]: `closure_analytic` and `points_to` differ only in
/// the program, the data and where the reference comes from.
struct WarmRun {
    db: Database,
    program: DlirProgram,
    output: String,
    prepared: PreparedDatabase,
    reference: Digest,
    op_no: u64,
}

impl WarmRun {
    /// Load `db` into a prepared set and pay the first-run costs.
    fn new(db: Database, program: DlirProgram, output: &str, reference: Digest) -> Self {
        let mut prepared = PreparedDatabase::new(db.clone());
        for _ in 0..2 {
            prepared.run(&program, output).expect("warm-up run");
        }
        WarmRun { db, program, output: output.to_string(), prepared, reference, op_no: 0 }
    }
}

impl Workload for WarmRun {
    fn op(&mut self, mut t: Option<&mut Tracer>) -> OpOutcome {
        self.op_no += 1;
        if let Some(t) = t.as_deref_mut() {
            t.set_op(self.op_no);
        }
        let (program, output, prepared) = (&self.program, &self.output, &mut self.prepared);
        let (rows, ms) = timed(t, "engine.prepared.warm_run", || prepared.run(program, output));
        check(ms, self.reference, rows)
    }

    fn finish(&mut self, t: &mut Tracer, traced: bool) -> Finish {
        if traced {
            t.set_op(0);
            engine_probe(&self.program, &self.output, &self.db, 3, t);
        }
        Finish::default()
    }
}
