//! # Raqlet
//!
//! Raqlet is a source-to-source compilation framework for **recursive
//! queries**, reproducing the system described in *"Raqlet: Cross-Paradigm
//! Compilation for Recursive Queries"* (CIDR 2026). A query written in
//! Cypher is lowered through a stack of intermediate representations —
//! PGIR → DLIR → SQIR — analysed and optimized at the DLIR level, and then
//! either unparsed to Soufflé Datalog / SQL text or executed directly on the
//! bundled in-memory engines (Datalog, SQL, property graph).
//!
//! ```
//! use raqlet::{Raqlet, CompileOptions, OptLevel, SqlDialect};
//!
//! let schema = "CREATE GRAPH {
//!     (personType : Person { id INT, firstName STRING }),
//!     (cityType : City { id INT, name STRING }),
//!     (:personType)-[loc: isLocatedIn { id INT }]->(:cityType)
//! }";
//! let raqlet = Raqlet::from_pg_schema(schema).unwrap();
//! let query = "MATCH (n:Person {id: 42})-[:IS_LOCATED_IN]->(p:City)
//!              RETURN DISTINCT n.firstName AS firstName, p.id AS cityId";
//! let compiled = raqlet.compile(query, &CompileOptions::new(OptLevel::Full)).unwrap();
//!
//! // Cross-paradigm outputs:
//! let datalog = compiled.to_souffle();
//! let sql = compiled.to_sql(SqlDialect::DuckDb).unwrap();
//! assert!(datalog.contains(".output Return"));
//! assert!(sql.contains("SELECT DISTINCT"));
//! ```

use std::collections::HashMap;

pub use raqlet_analysis::{
    analyze, AnalysisReport, DiagCode, Diagnostic, EdbStats, Linearity, Monotonicity, RaqCheck,
    Severity, SeverityConfig,
};
pub use raqlet_common::{
    CancellationToken, Database, EvalStats, QueryGuard, RaqletError, Relation, Result, Value,
};
pub use raqlet_cypher::parse_pg_schema;
pub use raqlet_dlir::{DlirProgram, LoweredQuery};
pub use raqlet_engine::{
    DatalogConfig, DatalogEngine, EdbDelta, EvalStrategy, GraphEngine, PreparedDatabase,
    PropertyGraph, SqlEngine, SqlProfile, TableCatalog,
};
pub use raqlet_opt::{OptLevel, OptimizedProgram, PassConfig, TargetBackend};
pub use raqlet_pgir::{LowerOptions, PgirQuery};
pub use raqlet_sqir::{SqirQuery, SqlLowerOptions};
pub use raqlet_storage::{
    counting_hook, CrashSchedule, DurableDatabase, IoFault, IoFaultHook, IoOp, StoreOptions,
    ViewSpec,
};
pub use raqlet_unparse::{to_cypher, to_souffle, to_sql, SouffleOptions, SqlDialect};

use raqlet_common::schema::{DlSchema, PgSchema};

/// Options controlling a single compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Optimization level applied to the DLIR program.
    pub opt_level: OptLevel,
    /// Bindings for `$parameters` in the query.
    pub params: HashMap<String, Value>,
    /// Options for the DLIR → SQIR lowering (recursion depth bound).
    pub sql: SqlLowerOptions,
}

impl CompileOptions {
    /// Options with the given optimization level and no parameters.
    pub fn new(opt_level: OptLevel) -> Self {
        CompileOptions { opt_level, ..Default::default() }
    }

    /// Bind a query parameter.
    pub fn with_param(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.params.insert(name.to_string(), value.into());
        self
    }
}

/// The Raqlet compiler, instantiated for one property-graph schema.
#[derive(Debug, Clone)]
pub struct Raqlet {
    pg_schema: PgSchema,
    dl_schema: DlSchema,
}

impl Raqlet {
    /// Build a compiler from PG-Schema text (`CREATE GRAPH { ... }`).
    pub fn from_pg_schema(schema_text: &str) -> Result<Self> {
        let pg_schema = raqlet_cypher::parse_pg_schema(schema_text)?;
        let dl_schema = raqlet_dlir::generate_dl_schema(&pg_schema)?;
        Ok(Raqlet { pg_schema, dl_schema })
    }

    /// The property-graph schema this compiler was built from.
    pub fn pg_schema(&self) -> &PgSchema {
        &self.pg_schema
    }

    /// The generated Datalog schema (Figure 2b).
    pub fn dl_schema(&self) -> &DlSchema {
        &self.dl_schema
    }

    /// Compile a Cypher query through the full pipeline.
    pub fn compile(&self, cypher: &str, options: &CompileOptions) -> Result<CompiledQuery> {
        // Cypher -> PGIR.
        let mut lower_options = LowerOptions::new();
        lower_options.params = options.params.clone();
        let pgir = raqlet_pgir::cypher_to_pgir(cypher, &lower_options)?;

        // PGIR -> DLIR.
        let lowered =
            raqlet_dlir::lower_pgir_with_schema(&self.pg_schema, self.dl_schema.clone(), &pgir)?;
        raqlet_dlir::validate(&lowered.program)?;

        // One optimizer run: every backend (Datalog, Soufflé text, SQL)
        // gets the same program, magic sets included.
        let (optimized, sql_optimized) =
            raqlet_opt::optimize_for_backends(&lowered.program, options.opt_level)?;

        Ok(CompiledQuery {
            cypher: cypher.to_string(),
            pgir,
            unoptimized: lowered.program,
            optimized,
            sql_optimized,
            output: lowered.output,
            output_columns: lowered.output_columns,
            sql_options: options.sql.clone(),
        })
    }
}

/// A fully compiled query: every IR, ready to be unparsed for an external
/// engine, executed on the bundled ones, or analysed.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The original Cypher text.
    pub cypher: String,
    /// The PGIR form (Figure 3b).
    pub pgir: PgirQuery,
    /// The unoptimized DLIR program (Figure 3c/3d).
    pub unoptimized: DlirProgram,
    /// The optimized DLIR program plus pass statistics (Figure 4): the one
    /// program every backend runs.
    pub optimized: OptimizedProgram,
    /// A copy of [`CompiledQuery::optimized`]: both targets get the same
    /// pass set, so the one pipeline run serves SQL too (see
    /// [`raqlet_opt::optimize_for_backends`]). Kept so that callers naming
    /// it keep building; deleted with [`raqlet_opt::TargetBackend`].
    pub sql_optimized: OptimizedProgram,
    /// Name of the output relation (`Return`).
    pub output: String,
    /// Output column names in order.
    pub output_columns: Vec<String>,
    sql_options: SqlLowerOptions,
}

impl CompiledQuery {
    /// The optimized DLIR program, the one every backend runs.
    pub fn dlir(&self) -> &DlirProgram {
        &self.optimized.program
    }

    /// The optimized DLIR program as [`CompiledQuery::sql_optimized`] holds
    /// it: equal to [`CompiledQuery::dlir`].
    pub fn dlir_for_sql(&self) -> &DlirProgram {
        &self.sql_optimized.program
    }

    /// The Soufflé Datalog rendering of the optimized program (Figure 3d).
    pub fn to_souffle(&self) -> String {
        raqlet_unparse::to_souffle(self.dlir(), &SouffleOptions::default())
    }

    /// The SQIR form of the optimized program (Figure 3e's structure). This
    /// is where SQL's limits are checked: mutual, non-linear and
    /// non-stratifiable recursion are refused here (see
    /// [`raqlet_sqir::lower_to_sqir`]).
    pub fn sqir(&self) -> Result<SqirQuery> {
        raqlet_sqir::lower_to_sqir(self.dlir(), &self.output, &self.sql_options)
    }

    /// The SQL text of the optimized program in the given dialect.
    pub fn to_sql(&self, dialect: SqlDialect) -> Result<String> {
        Ok(raqlet_unparse::to_sql(&self.sqir()?, dialect))
    }

    /// The Cypher rendering of the normalised PGIR (round-trip output).
    pub fn to_cypher(&self) -> String {
        raqlet_unparse::to_cypher(&self.pgir)
    }

    /// The static-analysis report (Section 4) of the unoptimized program,
    /// computed on each call: compiling does not analyse. The report
    /// warns; the backends refuse what they cannot run when they compile
    /// the program (see [`CompiledQuery::sqir`]).
    pub fn analysis(&self) -> AnalysisReport {
        raqlet_analysis::analyze(&self.unoptimized)
    }

    /// Run the `raqcheck` static analyzer over the unoptimized program with
    /// default severities. Lints run on the *unoptimized* DLIR so findings
    /// map back to the query as written, before optimizer rewrites mask or
    /// remove the offending rules. See `docs/diagnostics.md`.
    pub fn check(&self) -> Vec<Diagnostic> {
        RaqCheck::new().check(&self.unoptimized)
    }

    /// [`CompiledQuery::check`] with a caller-configured analyzer (custom
    /// severities and/or EDB statistics for the advisory plan lints).
    pub fn check_with(&self, checker: &RaqCheck) -> Vec<Diagnostic> {
        checker.check(&self.unoptimized)
    }

    /// Execute on the bundled Datalog engine (the Soufflé stand-in).
    pub fn execute_datalog(&self, db: &Database) -> Result<Relation> {
        DatalogEngine::new().run_output(self.dlir(), db, &self.output)
    }

    /// [`CompiledQuery::execute_datalog`] under an execution [`QueryGuard`]:
    /// the guard's deadline, tuple/heap budgets and cancellation token are
    /// checked at every engine checkpoint, and a trip surfaces as
    /// [`RaqletError::Timeout`], [`RaqletError::BudgetExceeded`] or
    /// [`RaqletError::Cancelled`] carrying partial [`EvalStats`]. `db` is
    /// never modified either way.
    pub fn execute_datalog_guarded(&self, db: &Database, guard: &QueryGuard) -> Result<Relation> {
        Ok(DatalogEngine::new().evaluate_guarded(self.dlir(), db, guard)?.relation(&self.output))
    }

    /// Execute on a warm [`PreparedDatabase`], reusing its row arenas and
    /// persistent indexes instead of cloning and reindexing the EDB per
    /// call. Successive executions of compiled queries against the same
    /// prepared set skip the cold-start tax entirely.
    pub fn execute_datalog_prepared(&self, prepared: &mut PreparedDatabase) -> Result<Relation> {
        prepared.run(self.dlir(), &self.output)
    }

    /// [`CompiledQuery::execute_datalog_prepared`] under an execution
    /// [`QueryGuard`]. Failure is atomic: an errored, tripped, or panicking
    /// run leaves the warm working set exactly as it was before the call
    /// (see [`PreparedDatabase::run_guarded`]).
    pub fn execute_datalog_prepared_guarded(
        &self,
        prepared: &mut PreparedDatabase,
        guard: &QueryGuard,
    ) -> Result<Relation> {
        prepared.run_guarded(self.dlir(), &self.output, guard)
    }

    /// Execute on the bundled SQL engine with the given profile.
    pub fn execute_sql(&self, db: &Database, profile: SqlProfile) -> Result<Relation> {
        let sqir = self.sqir()?;
        let catalog = TableCatalog::from_schema(&self.dlir().schema);
        let engine = SqlEngine { profile };
        Ok(engine.execute(&sqir, db, &catalog)?.rows)
    }

    /// [`CompiledQuery::execute_sql`] under an execution [`QueryGuard`],
    /// checked before each CTE and at every recursive-CTE fixpoint round.
    pub fn execute_sql_guarded(
        &self,
        db: &Database,
        profile: SqlProfile,
        guard: &QueryGuard,
    ) -> Result<Relation> {
        let sqir = self.sqir()?;
        let catalog = TableCatalog::from_schema(&self.dlir().schema);
        let engine = SqlEngine { profile };
        Ok(engine.execute_guarded(&sqir, db, &catalog, guard)?.rows)
    }

    /// Execute the original (normalised) query on the property-graph engine
    /// (the Neo4j stand-in).
    pub fn execute_graph(&self, graph: &PropertyGraph) -> Result<Relation> {
        Ok(GraphEngine::new().execute(&self.pgir, graph)?.rows)
    }

    /// [`CompiledQuery::execute_graph`] under an execution [`QueryGuard`],
    /// checked before every clause and once per binding row during pattern
    /// expansion.
    pub fn execute_graph_guarded(
        &self,
        graph: &PropertyGraph,
        guard: &QueryGuard,
    ) -> Result<Relation> {
        Ok(GraphEngine::new().execute_guarded(&self.pgir, graph, guard)?.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "CREATE GRAPH {\n\
        (personType : Person { id INT, firstName STRING, locationIP STRING }),\n\
        (cityType : City { id INT, name STRING }),\n\
        (:personType)-[locationType: isLocatedIn { id INT }]->(:cityType),\n\
        (:personType)-[knowsType: knows { id INT }]->(:personType)\n\
    }";

    const RUNNING_EXAMPLE: &str = "MATCH (n:Person {id:42})-[:IS_LOCATED_IN]->(p:City)\n\
         RETURN DISTINCT n.firstName AS firstName, p.id AS cityId";

    fn sample_db() -> Database {
        let mut db = Database::new();
        for (id, name, ip) in [(42, "Ada", "1.2.3.4"), (43, "Bob", "4.3.2.1")] {
            db.insert_fact("Person", vec![Value::Int(id), Value::str(name), Value::str(ip)])
                .unwrap();
        }
        for (id, name) in [(100, "Edinburgh"), (200, "Glasgow")] {
            db.insert_fact("City", vec![Value::Int(id), Value::str(name)]).unwrap();
        }
        db.insert_fact(
            "Person_IS_LOCATED_IN_City",
            vec![Value::Int(42), Value::Int(100), Value::Int(1)],
        )
        .unwrap();
        db.insert_fact(
            "Person_IS_LOCATED_IN_City",
            vec![Value::Int(43), Value::Int(200), Value::Int(2)],
        )
        .unwrap();
        db.insert_fact("Person_KNOWS_Person", vec![Value::Int(42), Value::Int(43), Value::Int(3)])
            .unwrap();
        db
    }

    fn sample_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ada = g
            .add_node(
                "Person",
                vec![
                    ("id", Value::Int(42)),
                    ("firstName", Value::str("Ada")),
                    ("locationIP", Value::str("1.2.3.4")),
                ],
            )
            .unwrap();
        let bob = g
            .add_node(
                "Person",
                vec![
                    ("id", Value::Int(43)),
                    ("firstName", Value::str("Bob")),
                    ("locationIP", Value::str("4.3.2.1")),
                ],
            )
            .unwrap();
        let edi = g
            .add_node("City", vec![("id", Value::Int(100)), ("name", Value::str("Edinburgh"))])
            .unwrap();
        let gla = g
            .add_node("City", vec![("id", Value::Int(200)), ("name", Value::str("Glasgow"))])
            .unwrap();
        g.add_edge("IS_LOCATED_IN", ada, edi, vec![("id", Value::Int(1))]).unwrap();
        g.add_edge("IS_LOCATED_IN", bob, gla, vec![("id", Value::Int(2))]).unwrap();
        g.add_edge("KNOWS", ada, bob, vec![("id", Value::Int(3))]).unwrap();
        g
    }

    #[test]
    fn compiles_the_running_example_end_to_end() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let compiled =
            raqlet.compile(RUNNING_EXAMPLE, &CompileOptions::new(OptLevel::Full)).unwrap();
        assert_eq!(compiled.output_columns, vec!["firstName", "cityId"]);
        assert!(compiled.to_souffle().contains(".output Return"));
        assert!(compiled.to_sql(SqlDialect::DuckDb).unwrap().contains("SELECT DISTINCT"));
        assert!(compiled.to_cypher().contains("MATCH"));
        assert!(!compiled.analysis().recursive);
    }

    #[test]
    fn all_three_engines_agree_on_the_running_example() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let compiled =
            raqlet.compile(RUNNING_EXAMPLE, &CompileOptions::new(OptLevel::Full)).unwrap();
        let db = sample_db();
        let graph = sample_graph();
        let datalog = compiled.execute_datalog(&db).unwrap();
        let sql = compiled.execute_sql(&db, SqlProfile::Duck).unwrap();
        let sql_hyper = compiled.execute_sql(&db, SqlProfile::Hyper).unwrap();
        let graph_rows = compiled.execute_graph(&graph).unwrap();
        let expected = vec![vec![Value::str("Ada"), Value::Int(100)]];
        assert_eq!(datalog.sorted(), expected);
        assert_eq!(sql.sorted(), expected);
        assert_eq!(sql_hyper.sorted(), expected);
        assert_eq!(graph_rows.sorted(), expected);
    }

    #[test]
    fn optimized_and_unoptimized_programs_agree() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let compiled =
            raqlet.compile(RUNNING_EXAMPLE, &CompileOptions::new(OptLevel::Full)).unwrap();
        let unoptimized =
            raqlet.compile(RUNNING_EXAMPLE, &CompileOptions::new(OptLevel::None)).unwrap();
        let db = sample_db();
        assert_eq!(
            compiled.execute_datalog(&db).unwrap(),
            unoptimized.execute_datalog(&db).unwrap()
        );
        assert_eq!(
            compiled.execute_sql(&db, SqlProfile::Duck).unwrap(),
            unoptimized.execute_sql(&db, SqlProfile::Duck).unwrap()
        );
        // And the optimizer actually did something.
        assert!(compiled.optimized.rules_after < compiled.optimized.rules_before);
    }

    #[test]
    fn recursive_query_is_detected_and_executes() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let query = "MATCH (a:Person {id: 42})-[:KNOWS*]->(b:Person) RETURN b.id AS id";
        let compiled = raqlet.compile(query, &CompileOptions::new(OptLevel::Basic)).unwrap();
        let analysis = compiled.analysis();
        assert!(analysis.recursive);
        assert_eq!(analysis.linearity, Linearity::Linear);
        let rows = compiled.execute_datalog(&sample_db()).unwrap();
        assert_eq!(rows.sorted(), vec![vec![Value::Int(43)]]);
    }

    #[test]
    fn parameters_flow_through_compile_options() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let query = "MATCH (n:Person {id: $personId}) RETURN n.firstName AS name";
        let options = CompileOptions::new(OptLevel::Full).with_param("personId", 43);
        let compiled = raqlet.compile(query, &options).unwrap();
        let rows = compiled.execute_datalog(&sample_db()).unwrap();
        assert_eq!(rows.sorted(), vec![vec![Value::str("Bob")]]);
    }

    #[test]
    fn backend_checks_report_capability_mismatches() {
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        let query = "MATCH (a:Person {id: 42})-[:KNOWS*]->(b:Person) RETURN b.id AS id";
        let compiled = raqlet.compile(query, &CompileOptions::new(OptLevel::None)).unwrap();
        // Linear recursion is within every backend's limits: SQL lowers it
        // and the Datalog engine runs it.
        assert!(compiled.sqir().is_ok());
        assert!(compiled.execute_datalog(&sample_db()).is_ok());
    }

    #[test]
    fn bad_schema_and_bad_queries_are_rejected() {
        assert!(Raqlet::from_pg_schema("CREATE TABLE nope").is_err());
        let raqlet = Raqlet::from_pg_schema(SCHEMA).unwrap();
        assert!(raqlet.compile("MATCH (n:Person", &CompileOptions::default()).is_err());
        assert!(raqlet
            .compile("MATCH (n:Animal) RETURN n.id AS id", &CompileOptions::default())
            .is_err());
    }
}
