//! `points_to`: warm runs of a field-sensitive Andersen points-to analysis
//! written directly in DLIR, over a seeded synthetic program.
//!
//! ```text
//! pt(v, h)     :- new(v, h).
//! pt(v, h)     :- assign(v, w), pt(w, h).
//! pt(v, h)     :- load(v, b, f), pt(b, g), hpt(g, f, h).
//! hpt(g, f, h) :- store(b, f, w), pt(b, g), pt(w, h).
//! ```
//!
//! `pt` and `hpt` are mutually recursive, the last two rules are non-linear
//! three-way joins, and `hpt` is a wide IDB: the same engine layer as
//! `closure_analytic`, used the way program analyses use it. The reference
//! is a hand-written worklist solver that shares nothing with the engine.

use std::collections::{HashMap, HashSet};

use raqlet::{Database, DlirProgram, Value};
use raqlet_common::SplitMix64;
use raqlet_dlir::{Atom, BodyElem, Rule};

use super::WarmRun;
use crate::digest::Digest;
use crate::trace::Tracer;

/// Chain variables of the synthetic program, sized so that one warm run
/// takes 150–300 ms on the 2-core reference box.
const VARS: usize = 1500;
const QUICK_VARS: usize = 300;
/// A second definition, where a variable has one, comes from one of this
/// many variables before it.
const WINDOW: i64 = 16;
/// Every this-many-th variable holds a fresh object.
const ALLOC_EVERY: i64 = 16;
/// Every this-many-th variable closes a loop.
const LOOP_EVERY: i64 = 24;
/// Every this-many-th variable has a field written and read back.
const HEAP_EVERY: i64 = 12;
/// Field names of the program.
const FIELDS: i64 = 64;

/// The facts of a synthetic program: allocation sites, copies, field loads
/// and field stores over integer-named variables, heap objects and fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// `v = new h`
    pub new: Vec<(i64, i64)>,
    /// `to = from`
    pub assign: Vec<(i64, i64)>,
    /// `to = base.field`
    pub load: Vec<(i64, i64, i64)>,
    /// `base.field = from`
    pub store: Vec<(i64, i64, i64)>,
}

impl Program {
    /// One connected program of `vars` chain variables (temporaries come on
    /// top), with the features of a def-use graph that an inclusion-based
    /// analysis is sensitive to:
    ///
    /// - *long chains*: every variable is copied from the one before it, and
    ///   half of them also from one of the [`WINDOW`] before that (a merge
    ///   of two definitions). An object allocated early reaches the last
    ///   variable through hundreds of copies, and the fixpoint needs as
    ///   many rounds; points-to sets grow along the chain, so the `pt`
    ///   relation is quadratic in `vars`.
    /// - *cycles*: every [`LOOP_EVERY`]-th variable is copied back into the
    ///   variable 2–12 definitions before it, so the variables between them
    ///   form a loop and derive each other's facts again and again.
    /// - *heap flow*: every [`HEAP_EVERY`]-th variable gets a fresh object
    ///   stored into one of its fields and the field read back into a
    ///   temporary; every fourth such temporary flows on into the chain.
    ///   The objects a base may point to travel down the chain with it, so
    ///   a store far downstream feeds a load far upstream through `hpt`.
    ///
    /// The seed draws the merges, the loop lengths, the fields and where
    /// loaded values re-enter; the counts of each kind of statement are the
    /// same for every seed.
    pub fn generate(seed: u64, vars: usize) -> Program {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xA4DE_B50A);
        let mut p = Program::default();
        let vars = vars as i64;
        let (mut next_temp, mut next_object) = (vars, 0);
        p.new.push((0, next_object));
        for v in 1..vars {
            p.assign.push((v, v - 1));
            if v > 1 && rng.gen_bool(0.5) {
                p.assign.push((v, v - 2 - rng.gen_range(0..WINDOW.min(v - 1))));
            }
            if v % ALLOC_EVERY == 0 {
                next_object += 1;
                p.new.push((v, next_object));
            }
            if v % LOOP_EVERY == 1 {
                p.assign.push(((v - 2 - rng.gen_range(0..11)).max(0), v));
            }
            if v % HEAP_EVERY == 2 {
                let field = rng.gen_range(0..FIELDS);
                let (value, read) = (next_temp, next_temp + 1);
                next_temp += 2;
                next_object += 1;
                p.new.push((value, next_object));
                p.store.push((v, field, value));
                p.load.push((read, v, field));
                if (v / HEAP_EVERY) % 4 == 0 {
                    p.assign.push(((v + 1 + rng.gen_range(0..WINDOW)).min(vars - 1), read));
                }
            }
        }
        p
    }

    /// The facts as an extensional database.
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        let ints = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
        for &(v, h) in &self.new {
            db.insert_fact("new", ints(&[v, h])).expect("arity 2");
        }
        for &(to, from) in &self.assign {
            db.insert_fact("assign", ints(&[to, from])).expect("arity 2");
        }
        for &(to, base, f) in &self.load {
            db.insert_fact("load", ints(&[to, base, f])).expect("arity 3");
        }
        for &(base, f, from) in &self.store {
            db.insert_fact("store", ints(&[base, f, from])).expect("arity 3");
        }
        db
    }
}

/// The analysis as a DLIR program with output `pt`.
pub fn analysis() -> DlirProgram {
    let atom = |rel: &str, vars: &[&str]| BodyElem::Atom(Atom::with_vars(rel, vars));
    let mut program = DlirProgram::default();
    program.add_rule(Rule::new(Atom::with_vars("pt", &["v", "h"]), vec![atom("new", &["v", "h"])]));
    program.add_rule(Rule::new(
        Atom::with_vars("pt", &["v", "h"]),
        vec![atom("assign", &["v", "w"]), atom("pt", &["w", "h"])],
    ));
    program.add_rule(Rule::new(
        Atom::with_vars("pt", &["v", "h"]),
        vec![
            atom("load", &["v", "b", "f"]),
            atom("pt", &["b", "g"]),
            atom("hpt", &["g", "f", "h"]),
        ],
    ));
    program.add_rule(Rule::new(
        Atom::with_vars("hpt", &["g", "f", "h"]),
        vec![atom("store", &["b", "f", "w"]), atom("pt", &["b", "g"]), atom("pt", &["w", "h"])],
    ));
    program.add_output("pt");
    program
}

/// Worklist solver for the same analysis: the `pt` relation as a set of
/// `(variable, heap object)` pairs.
pub fn solve(p: &Program) -> HashSet<(i64, i64)> {
    let mut copies_from: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(to, from) in &p.assign {
        copies_from.entry(from).or_default().push(to);
    }
    let mut loads_of_base: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    let mut loads_of_field: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    for &(to, base, f) in &p.load {
        loads_of_base.entry(base).or_default().push((to, f));
        loads_of_field.entry(f).or_default().push((to, base));
    }
    let mut stores_of_base: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    let mut stores_of_from: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    for &(base, f, from) in &p.store {
        stores_of_base.entry(base).or_default().push((f, from));
        stores_of_from.entry(from).or_default().push((base, f));
    }

    enum Fact {
        Pt(i64, i64),
        Hpt(i64, i64, i64),
    }
    let mut pt: HashSet<(i64, i64)> = HashSet::new();
    let mut pt_of: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut hpt: HashSet<(i64, i64, i64)> = HashSet::new();
    let mut hpt_of: HashMap<(i64, i64), Vec<i64>> = HashMap::new();
    let mut work: Vec<Fact> = p.new.iter().map(|&(v, h)| Fact::Pt(v, h)).collect();
    while let Some(fact) = work.pop() {
        match fact {
            Fact::Pt(v, h) => {
                if !pt.insert((v, h)) {
                    continue;
                }
                pt_of.entry(v).or_default().push(h);
                for &to in copies_from.get(&v).into_iter().flatten() {
                    work.push(Fact::Pt(to, h));
                }
                // v is the base of a load: everything h.f holds flows out.
                for &(to, f) in loads_of_base.get(&v).into_iter().flatten() {
                    for &h2 in hpt_of.get(&(h, f)).into_iter().flatten() {
                        work.push(Fact::Pt(to, h2));
                    }
                }
                // v is the base of a store: h.f gains what the source holds.
                for &(f, from) in stores_of_base.get(&v).into_iter().flatten() {
                    for &h2 in pt_of.get(&from).into_iter().flatten() {
                        work.push(Fact::Hpt(h, f, h2));
                    }
                }
                // v is the source of a store: every object the base may be gains h.
                for &(base, f) in stores_of_from.get(&v).into_iter().flatten() {
                    for &g in pt_of.get(&base).into_iter().flatten() {
                        work.push(Fact::Hpt(g, f, h));
                    }
                }
            }
            Fact::Hpt(g, f, h) => {
                if !hpt.insert((g, f, h)) {
                    continue;
                }
                hpt_of.entry((g, f)).or_default().push(h);
                for &(to, base) in loads_of_field.get(&f).into_iter().flatten() {
                    if pt.contains(&(base, g)) {
                        work.push(Fact::Pt(to, h));
                    }
                }
            }
        }
    }
    pt
}

pub(super) fn new(seed: u64, quick: bool, t: &mut Tracer) -> WarmRun {
    let facts = Program::generate(seed, if quick { QUICK_VARS } else { VARS });
    let program = analysis();
    t.time("dlir.validate", || raqlet_dlir::validate(&program)).expect("analysis is valid DLIR");
    let report = t.time("analysis.analyze", || raqlet_analysis::analyze(&program));
    assert!(report.recursive, "points-to is recursive");
    t.count("dlir.rules", program.rules.len() as f64);
    let mut reference = Digest::default();
    for &(v, h) in &solve(&facts) {
        reference.add_row(&[Value::Int(v), Value::Int(h)]);
    }
    WarmRun::new(facts.to_database(), program, "pt", reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_follows_copies_loads_and_stores() {
        // a = new H1; b = new H2; a.f = b; c = a; d = c.f   =>  d -> H2
        let p = Program {
            new: vec![(0, 1), (1, 2)],
            assign: vec![(2, 0)],
            load: vec![(3, 2, 7)],
            store: vec![(0, 7, 1)],
        };
        let pt = solve(&p);
        let expect: HashSet<(i64, i64)> = [(0, 1), (1, 2), (2, 1), (3, 2)].into_iter().collect();
        assert_eq!(pt, expect);
    }

    #[test]
    fn engine_and_solver_agree_on_generated_programs() {
        for seed in [1, 7, 42] {
            let facts = Program::generate(seed, 750);
            let rows = raqlet::DatalogEngine::new()
                .run_output(&analysis(), &facts.to_database(), "pt")
                .unwrap();
            let solved = solve(&facts);
            assert_eq!(rows.len(), solved.len(), "seed {seed}");
            for row in rows.iter() {
                let (Value::Int(v), Value::Int(h)) = (&row[0], &row[1]) else { panic!("ints") };
                assert!(solved.contains(&(*v, *h)), "seed {seed}: engine-only fact {row:?}");
            }
            assert!(solved.len() > facts.new.len(), "seed {seed}: the analysis derives something");
        }
    }

    #[test]
    fn generation_repeats_per_seed() {
        assert_eq!(Program::generate(5, 500), Program::generate(5, 500));
        assert_ne!(Program::generate(5, 500), Program::generate(6, 500));
    }
}
