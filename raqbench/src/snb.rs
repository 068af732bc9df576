//! The seeded SNB fixture and the two ways a query gets compiled: through
//! the `raqlet` facade (what the untraced pass measures) and staged through
//! each crate's public functions with a span around every call (what the
//! traced pass measures).

use raqlet::{
    CompileOptions, CompiledQuery, Database, DlirProgram, OptLevel, OptimizedProgram, PgirQuery,
    PropertyGraph, Raqlet, SouffleOptions, SqlDialect, SqlLowerOptions, TargetBackend,
};
use raqlet_common::SplitMix64;
use raqlet_ldbc::{
    generate, to_database, to_property_graph, GeneratorConfig, SocialNetwork, SNB_PG_SCHEMA,
};
use raqlet_pgir::LowerOptions;

use crate::trace::Tracer;

/// The `$personId` / `$otherId` pair bound into one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Params {
    /// `$personId`
    pub person: i64,
    /// `$otherId`
    pub other: i64,
}

/// A generated social network loaded into every store.
pub struct Snb {
    /// The generated rows (the delta stream draws person ids from here).
    pub net: SocialNetwork,
    /// Relational / deductive store.
    pub db: Database,
    /// Property-graph store; built only for workloads that use the graph
    /// engine as their oracle.
    pub graph: Option<PropertyGraph>,
    /// The compiler for the SNB schema.
    pub raqlet: Raqlet,
}

impl Snb {
    /// Generate and load a network of `100 × scale` persons. `seed` drives
    /// the generator.
    pub fn new(scale: f64, seed: u64, with_graph: bool, t: &mut Tracer) -> Snb {
        let net = t.time("ldbc.generate", || generate(&GeneratorConfig { scale, seed }));
        let db = t.time("ldbc.to_database", || to_database(&net));
        let graph =
            with_graph.then(|| t.time("ldbc.to_property_graph", || to_property_graph(&net)));
        let raqlet = Raqlet::from_pg_schema(SNB_PG_SCHEMA).expect("SNB schema parses");
        Snb { net, db, graph, raqlet }
    }

    /// The graph store (panics if the fixture was built without one).
    pub fn graph(&self) -> &PropertyGraph {
        self.graph.as_ref().expect("fixture built with a property graph")
    }

    /// `n` parameter pairs for `n` different persons, in seeded order
    /// (`n` = the whole network gives every person once): `$otherId` is
    /// another person of the network, never `$personId` itself.
    pub fn param_pool(&self, rng: &mut SplitMix64, n: usize) -> Vec<Params> {
        let persons = &self.net.persons;
        let mut order: Vec<usize> = (0..persons.len()).collect();
        (0..n.min(persons.len()))
            .map(|i| {
                order.swap(i, rng.gen_index(i..persons.len()));
                let a = order[i];
                let b = (a + 1 + rng.gen_index(0..persons.len() - 1)) % persons.len();
                Params { person: persons[a].id, other: persons[b].id }
            })
            .collect()
    }
}

/// Facade compile options with the corpus's standard bindings.
pub fn options(level: OptLevel, p: Params) -> CompileOptions {
    CompileOptions::new(level)
        .with_param("personId", p.person)
        .with_param("otherId", p.other)
        .with_param("maxDate", 20_200_101i64)
        .with_param("firstName", "Alice")
}

/// Compile through the facade: Cypher text → [`CompiledQuery`].
pub fn compile(raqlet: &Raqlet, cypher: &str, level: OptLevel, p: Params) -> CompiledQuery {
    raqlet.compile(cypher, &options(level, p)).expect("benchmark query compiles")
}

/// What the staged pipeline produces — the same IRs a [`CompiledQuery`]
/// holds, built by calling each crate directly.
pub struct Staged {
    /// PGIR.
    pub pgir: PgirQuery,
    /// DLIR before optimization.
    pub unoptimized: DlirProgram,
    /// DLIR optimized for Datalog backends.
    pub optimized: OptimizedProgram,
    /// DLIR optimized for SQL backends.
    pub sql_optimized: OptimizedProgram,
    /// Output relation name.
    pub output: String,
    /// Sum of the seven staged calls' durations (ms).
    pub parts_ms: f64,
}

/// The facade's `compile`, one crate at a time, each call in its own span
/// under a `compile` parent. Counts: `dlir.rules`, `opt.rules_after`,
/// `opt.passes_applied`.
pub fn compile_staged(
    raqlet: &Raqlet,
    cypher: &str,
    level: OptLevel,
    p: Params,
    t: &mut Tracer,
) -> Staged {
    let params = options(level, p).params;
    let mut parts_ms = 0.0;
    let mut step = |ms: f64| parts_ms += ms;
    let whole = t.enter("compile");
    let (ast, ms) = t.timed("cypher.parse", || raqlet_cypher::parse(cypher));
    step(ms);
    let mut lower = LowerOptions::new();
    lower.params = params;
    let ast = ast.expect("query parses");
    let (pgir, ms) = t.timed("pgir.lower", || raqlet_pgir::lower_query(&ast, &lower));
    step(ms);
    let pgir = pgir.expect("query lowers to PGIR");
    let (lowered, ms) = t.timed("dlir.lower", || {
        raqlet_dlir::lower_pgir_with_schema(raqlet.pg_schema(), raqlet.dl_schema().clone(), &pgir)
    });
    step(ms);
    let lowered = lowered.expect("PGIR lowers to DLIR");
    let (valid, ms) = t.timed("dlir.validate", || raqlet_dlir::validate(&lowered.program));
    step(ms);
    valid.expect("lowered DLIR is valid");
    let (report, ms) = t.timed("analysis.analyze", || raqlet_analysis::analyze(&lowered.program));
    step(ms);
    std::hint::black_box(report);
    let (optimized, ms) = t.timed("opt.optimize_any", || {
        raqlet_opt::optimize_for(&lowered.program, level, TargetBackend::Any)
    });
    step(ms);
    let (sql_optimized, ms) = t.timed("opt.optimize_sql", || {
        raqlet_opt::optimize_for(&lowered.program, level, TargetBackend::Sql)
    });
    step(ms);
    t.exit(whole);
    let (optimized, sql_optimized) =
        (optimized.expect("program optimizes"), sql_optimized.expect("program optimizes for SQL"));
    t.count("dlir.rules", lowered.program.rules.len() as f64);
    t.count("opt.rules_after", optimized.rules_after as f64);
    t.count("opt.passes_applied", optimized.applied_passes.len() as f64);
    Staged {
        pgir,
        unoptimized: lowered.program,
        optimized,
        sql_optimized,
        output: lowered.output,
        parts_ms,
    }
}

/// The facade's own compile of the same query, in a `core.compile` span.
/// Callers alternate it before and after the staged compile, so neither
/// side always runs on the caches the other warmed.
pub fn facade_probe(
    raqlet: &Raqlet,
    cypher: &str,
    level: OptLevel,
    p: Params,
    t: &mut Tracer,
) -> (CompiledQuery, f64) {
    let opts = options(level, p);
    let (compiled, ms) = t.timed("core.compile", || raqlet.compile(cypher, &opts));
    (compiled.expect("facade compiles"), ms)
}

/// Off-op checks and probes once both compiles of a query exist: the staged
/// DLIR must equal the facade's; `core.compile_self_ms` is the facade's
/// time minus the staged calls'; plus the token count and the `raqcheck`
/// lint pass, which no op runs by itself.
pub fn compile_checks(
    cypher: &str,
    facade: &(CompiledQuery, f64),
    staged: &Staged,
    t: &mut Tracer,
) {
    let (compiled, facade_ms) = facade;
    assert_eq!(compiled.unoptimized, staged.unoptimized, "staged DLIR differs from the facade's");
    assert_eq!(
        compiled.optimized.program, staged.optimized.program,
        "staged optimized DLIR differs"
    );
    assert_eq!(
        compiled.sql_optimized.program, staged.sql_optimized.program,
        "staged SQL-targeted DLIR differs"
    );
    t.count("core.compile_self_ms", facade_ms - staged.parts_ms);
    let tokens = raqlet_cypher::lexer::tokenize(cypher).expect("query lexes");
    t.count("cypher.tokens", tokens.len() as f64);
    let lints =
        t.time("analysis.raqcheck", || raqlet_analysis::RaqCheck::new().check(&staged.unoptimized));
    std::hint::black_box(lints);
}

/// The transpile half of Table 1, staged: DLIR → SQIR → SQL text
/// and DLIR → Soufflé text. Counts: `sqir.ctes`, `unparse.*_bytes`.
pub fn transpile_staged(staged: &Staged, t: &mut Tracer) -> (String, String) {
    let souffle = t.time("unparse.souffle", || {
        raqlet_unparse::to_souffle(&staged.optimized.program, &SouffleOptions::default())
    });
    let sqir = t
        .time("sqir.lower", || {
            raqlet_sqir::lower_to_sqir(
                &staged.sql_optimized.program,
                &staged.output,
                &SqlLowerOptions::default(),
            )
        })
        .expect("sqir");
    let sql = t.time("unparse.sql", || raqlet_unparse::to_sql(&sqir, SqlDialect::DuckDb));
    t.count("sqir.ctes", sqir.ctes.len() as f64);
    t.count("unparse.souffle_bytes", souffle.len() as f64);
    t.count("unparse.sql_bytes", sql.len() as f64);
    (souffle, sql)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_id_is_another_person() {
        let snb = Snb::new(0.5, 3, false, &mut Tracer::new());
        let ids: Vec<i64> = snb.net.persons.iter().map(|p| p.id).collect();
        let pool = snb.param_pool(&mut SplitMix64::seed_from_u64(9), 200);
        for p in &pool {
            assert!(ids.contains(&p.person) && ids.contains(&p.other) && p.person != p.other);
        }
        // Asking for more than the network holds gives every person once.
        let mut drawn: Vec<i64> = pool.iter().map(|p| p.person).collect();
        drawn.sort_unstable();
        assert_eq!(drawn, ids);
    }
}
