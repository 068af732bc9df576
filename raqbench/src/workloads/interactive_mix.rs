//! `interactive_mix`: the corpus's ten queries with fresh parameters per
//! op, compiled at `OptLevel::Full` and executed on one warm
//! [`PreparedDatabase`].
//!
//! Parameters bind at compile time, so every op pays the whole compiler;
//! the six short queries make the median compiler-bound, the four recursive
//! ones make the tail engine-bound.

use raqlet::{OptLevel, PreparedDatabase};
use raqlet_common::SplitMix64;
use raqlet_ldbc::queries::{ALT_NEIGHBOURS, CQ13_CITIES, UNWIND_PROFILES};
use raqlet_ldbc::{BenchmarkQuery, CQ1, CQ13, CQ2, FRIEND_MESSAGE_COUNTS, REACHABILITY, SQ1, SQ3};

use super::{check, graph_reference};
use crate::digest::Digest;
use crate::probe::engine_probe;
use crate::snb::{compile, compile_checks, compile_staged, facade_probe, options, Params, Snb};
use crate::trace::{ms_since, Tracer};
use crate::{Finish, OpOutcome, Workload};

const SCALE: f64 = 8.0;
const QUICK_SCALE: f64 = 0.5;

/// Share of ops drawn from the recursive queries.
const HEAVY_SHARE: f64 = 0.2;

/// The short queries and how many parameter pairs each draws from. The
/// reference of every (query, pair) is one graph-engine run in set-up, so
/// pool sizes follow that engine's cost per query.
const SHORT: [(BenchmarkQuery, usize); 6] = [
    (SQ1, 16),
    (SQ3, 16),
    (CQ2, 6),
    (FRIEND_MESSAGE_COUNTS, 6),
    (UNWIND_PROFILES, 16),
    (ALT_NEIGHBOURS, 16),
];

/// The recursive queries; the graph engine needs 60–170 ms for each at
/// this scale, hence two pairs apiece.
const HEAVY: [(BenchmarkQuery, usize); 4] =
    [(CQ1, 2), (REACHABILITY, 2), (CQ13, 2), (CQ13_CITIES, 2)];

struct Slot {
    query: BenchmarkQuery,
    /// Parameter pairs with the reference digest of each.
    pool: Vec<(Params, Digest)>,
}

pub(crate) struct InteractiveMix {
    snb: Snb,
    prepared: PreparedDatabase,
    /// `SHORT` slots first, then `HEAVY`.
    slots: Vec<Slot>,
    rng: SplitMix64,
    op_no: u64,
}

impl InteractiveMix {
    pub(crate) fn new(seed: u64, quick: bool, t: &mut Tracer) -> Self {
        let snb = Snb::new(if quick { QUICK_SCALE } else { SCALE }, seed, true, t);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1A7E_4AC7);
        let pairs = snb.param_pool(&mut rng, 16);
        let mut prepared = PreparedDatabase::new(snb.db.clone());
        let slots = SHORT
            .iter()
            .chain(HEAVY.iter())
            .map(|&(query, n)| {
                let n = if quick { n.min(2) } else { n };
                let pool = pairs[..n]
                    .iter()
                    .map(|&p| {
                        let compiled = compile(&snb.raqlet, query.cypher, OptLevel::Full, p);
                        let reference = graph_reference(&compiled, snb.graph(), t);
                        // Warm-up: plan cache and indexes for this binding.
                        compiled.execute_datalog_prepared(&mut prepared).expect("warm-up run");
                        (p, reference)
                    })
                    .collect();
                Slot { query, pool }
            })
            .collect();
        InteractiveMix { snb, prepared, slots, rng, op_no: 0 }
    }

    /// The next (query, parameters, reference) of the seeded stream.
    fn draw(&mut self) -> (BenchmarkQuery, Params, Digest) {
        let class = if self.rng.gen_bool(HEAVY_SHARE) {
            SHORT.len()..self.slots.len()
        } else {
            0..SHORT.len()
        };
        let slot = &self.slots[self.rng.gen_index(class)];
        let (p, reference) = slot.pool[self.rng.gen_index(0..slot.pool.len())];
        self.op_no += 1;
        (slot.query, p, reference)
    }
}

impl Workload for InteractiveMix {
    fn op(&mut self, t: Option<&mut Tracer>) -> OpOutcome {
        let (query, p, reference) = self.draw();
        let raqlet = &self.snb.raqlet;
        let Some(t) = t else {
            let start = std::time::Instant::now();
            let rows = raqlet
                .compile(query.cypher, &options(OptLevel::Full, p))
                .and_then(|compiled| compiled.execute_datalog_prepared(&mut self.prepared));
            return check(ms_since(start), reference, rows);
        };
        t.set_op(self.op_no);
        let facade = |t: &mut Tracer| facade_probe(raqlet, query.cypher, OptLevel::Full, p, t);
        let before = self.op_no.is_multiple_of(2).then(|| facade(t));
        let op = t.enter("op");
        let staged = compile_staged(raqlet, query.cypher, OptLevel::Full, p, t);
        let rows = t.time("engine.prepared.warm_run", || {
            self.prepared.run(&staged.optimized.program, &staged.output)
        });
        let ms = t.exit(op);
        let facade = before.unwrap_or_else(|| facade(t));
        compile_checks(query.cypher, &facade, &staged, t);
        check(ms, reference, rows)
    }

    fn finish(&mut self, t: &mut Tracer, traced: bool) -> Finish {
        if traced {
            // The engine-bound end of the mix: reachability from one person.
            t.set_op(0);
            let p = self.slots[SHORT.len() + 1].pool[0].0;
            let reach = compile(&self.snb.raqlet, REACHABILITY.cypher, OptLevel::Full, p);
            engine_probe(reach.dlir(), &reach.output, &self.snb.db, 5, t);
        }
        Finish::default()
    }
}
