//! `closure_analytic`: warm runs of all-pairs undirected `KNOWS*`
//! reachability, compiled once.
//!
//! Nothing is bound, so magic sets have no seed to push and the compiler
//! does nothing per op: the time is the Datalog engine's join, dedup,
//! staging and parallel chunking of the linear two-atom closure shape.

use raqlet::OptLevel;

use super::{graph_reference, WarmRun};
use crate::snb::{compile_checks, compile_staged, facade_probe, Params, Snb};
use crate::trace::Tracer;

/// 200 persons: 40 k result rows, ~0.2 M derived tuples, ~30 ms per run,
/// ~340 ops in a ten-second window.
const SCALE: f64 = 4.0;
const QUICK_SCALE: f64 = 0.3;

const QUERY: &str = "MATCH (a:Person)-[:KNOWS*]-(b:Person)\n\
                     RETURN DISTINCT a.id AS a, b.id AS b";

/// The query has no parameters; the bindings are inert.
const NO_PARAMS: Params = Params { person: 0, other: 0 };

pub(super) fn new(seed: u64, quick: bool, t: &mut Tracer) -> WarmRun {
    let snb = Snb::new(if quick { QUICK_SCALE } else { SCALE }, seed, true, t);
    // The one compilation, staged so its layer costs are on record.
    let staged = compile_staged(&snb.raqlet, QUERY, OptLevel::Full, NO_PARAMS, t);
    let facade = facade_probe(&snb.raqlet, QUERY, OptLevel::Full, NO_PARAMS, t);
    compile_checks(QUERY, &facade, &staged, t);
    let compiled = facade.0;
    let reference = graph_reference(&compiled, snb.graph(), t);
    WarmRun::new(snb.db, compiled.optimized.program, &compiled.output, reference)
}
