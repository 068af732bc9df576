//! `ivm_churn` and `reopen`: a durable SNB database with three standing
//! views — REACH (recursive, maintained by DRed), AGG1 (aggregation,
//! counting) and CQ13 (shortest path, lattice). They are the only workloads
//! that touch `raqlet_storage` and the IVM joins.
//!
//! `ivm_churn` is the write path beside reads. Its ops go write, read,
//! read: one `DurableDatabase::log_delta` from a seeded stream of batches
//! (plus the checkpoint every [`CHECKPOINT_EVERY`] writes: a write stall is
//! the writer's latency), then a fetch of the maintained AGG1 view, then an
//! ad-hoc SQ3 on the warm set. Reads are two thirds of the ops and the
//! cheaper ones, so `op_p50_ms` is a read's latency and `op_tail_ms` a slow
//! write's.
//!
//! `reopen` is recovery: an op drops the store and opens it again
//! (snapshot decode + replay of [`REPLAY_FRAMES`] WAL frames + view
//! reinstall), and the reopened views must equal a from-scratch evaluation.
//!
//! The stream is 70 % small inserts (1–16 new members, each a `Person` row
//! and a `KNOWS` edge to an existing person, sometimes a message by a
//! friend of the views' person), 20 % deletes that retire the oldest live
//! insert batches, and 10 % dense ops that delete an original in-component
//! `KNOWS` edge or put the last deleted one back. A delete retires batches
//! until [`LIVE_ROWS`] invented rows are left (three or four batches, on
//! average; a delete drawn when no more than that are live is an insert
//! instead), so the database size is stationary: a time-boxed run measures
//! the same database however many ops it completes.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use raqlet::{
    CompiledQuery, DurableDatabase, EdbDelta, IoFaultHook, IoOp, OptLevel, PreparedDatabase,
    StoreOptions, Value, ViewSpec,
};
use raqlet_common::{SplitMix64, Tuple};
use raqlet_ldbc::{CQ13, FRIEND_MESSAGE_COUNTS, REACHABILITY, SQ3};

use crate::digest::Digest;
use crate::probe::engine_probe;
use crate::snb::{compile, compile_checks, compile_staged, facade_probe, Snb};
use crate::stats::median;
use crate::trace::{ms_since, timed, Tracer};
use crate::{scratch_dir, Finish, OpOutcome, Workload};

const SCALE: f64 = 8.0;
const QUICK_SCALE: f64 = 0.5;

/// Writes between checkpoints.
const CHECKPOINT_EVERY: u64 = 500;
/// Every this-many-th write, the views and the read that follows are
/// checked against from-scratch evaluation. The check costs about as much
/// as a hundred ops and sits inside the window's wall time, so it is rare;
/// the last state of a run is always checked.
const VERIFY_EVERY: u64 = 256;
/// WAL frames a reopen replays on top of the snapshot: a third of the
/// checkpoint cadence. With 50 frames (5 deletes, 5 dense ops) which
/// batches and edges the seed happened to draw moved an op by ±13 %.
const REPLAY_FRAMES: usize = 150;
/// Invented rows a delete leaves live; the stream holds the database at
/// this many rows above the generated network (plus what the inserts since
/// the last delete added).
const LIVE_ROWS: usize = 800;

const KNOWS: &str = "Person_KNOWS_Person";

/// What a write batch does, which decides the IVM strategy it exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Delete,
    Dense,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Insert => "engine.ivm.apply_insert",
            Kind::Delete => "engine.ivm.apply_delete",
            Kind::Dense => "engine.ivm.apply_dense",
        }
    }
}

/// The seeded write stream and the state it needs to stay valid: which
/// invented rows are live, which original edge is currently deleted.
struct DeltaStream {
    rng: SplitMix64,
    persons: Vec<i64>,
    /// Friends of the views' person: creators of the invented messages.
    friends: Vec<i64>,
    base_edges: Vec<Tuple>,
    removed: Option<Tuple>,
    live: VecDeque<Vec<(&'static str, Tuple)>>,
    live_rows: usize,
    next_id: i64,
}

impl DeltaStream {
    fn fresh(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id
    }

    /// The next batch of the stream: its kind is drawn, 7 : 2 : 1.
    fn next(&mut self) -> (EdbDelta, Kind) {
        let draw = self.rng.gen_range(0..10);
        self.batch(draw)
    }

    /// A batch of the kind `draw` (0..10) stands for: 9 is a dense op, 7
    /// and 8 a delete, the rest an insert.
    fn batch(&mut self, draw: i64) -> (EdbDelta, Kind) {
        let mut delta = EdbDelta::new();
        if draw == 9 {
            match self.removed.take() {
                Some(edge) => {
                    delta.insert(KNOWS, edge);
                }
                None => {
                    let edge =
                        self.base_edges[self.rng.gen_index(0..self.base_edges.len())].clone();
                    delta.delete(KNOWS, edge.clone());
                    self.removed = Some(edge);
                }
            }
            return (delta, Kind::Dense);
        }
        if draw >= 7 && self.live_rows > LIVE_ROWS {
            while let Some(batch) = self.live.pop_front() {
                self.live_rows -= batch.len();
                for (rel, row) in batch {
                    delta.delete(rel, row);
                }
                if self.live_rows <= LIVE_ROWS {
                    break;
                }
            }
            return (delta, Kind::Delete);
        }
        let mut batch = Vec::new();
        for _ in 0..1 + self.rng.gen_index(0..16) {
            let (member, edge) = (self.fresh(), self.fresh());
            let friend = self.persons[self.rng.gen_index(0..self.persons.len())];
            batch.push((
                "Person",
                vec![
                    Value::Int(member),
                    Value::str("New"),
                    Value::str("Member"),
                    Value::str("female"),
                    Value::Int(19_900_101),
                    Value::Int(20_200_101),
                    Value::str("10.0.0.1"),
                    Value::str("Firefox"),
                ],
            ));
            let ints = [friend, member, edge, 20_200_101];
            batch.push((KNOWS, ints.map(Value::Int).to_vec()));
        }
        if self.rng.gen_bool(0.25) && !self.friends.is_empty() {
            let (message, edge) = (self.fresh(), self.fresh());
            let creator = self.friends[self.rng.gen_index(0..self.friends.len())];
            batch.push((
                "Message",
                vec![
                    Value::Int(message),
                    Value::Int(20_200_101),
                    Value::str("churn"),
                    Value::Int(5),
                ],
            ));
            batch.push((
                "Message_HAS_CREATOR_Person",
                [message, creator, edge].map(Value::Int).to_vec(),
            ));
        }
        for (rel, row) in &batch {
            delta.insert(*rel, row.clone());
        }
        self.live_rows += batch.len();
        self.live.push_back(batch);
        (delta, Kind::Insert)
    }
}

/// Counts of the store's filesystem operations, taken through the
/// `IoFaultHook` the storage crate offers for fault injection.
#[derive(Default)]
struct IoCounts {
    ops: AtomicU64,
    fsyncs: AtomicU64,
}

impl IoCounts {
    fn hook(self: &Arc<Self>) -> Arc<IoFaultHook> {
        let counts = self.clone();
        Arc::new(move |op, _hit| {
            counts.ops.fetch_add(1, Ordering::Relaxed);
            if op == IoOp::Sync {
                counts.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            None
        })
    }

    fn read(&self) -> (u64, u64) {
        (self.ops.load(Ordering::Relaxed), self.fsyncs.load(Ordering::Relaxed))
    }
}

pub(crate) struct IvmChurn {
    snb: Snb,
    dir: PathBuf,
    /// `None` only between the drop and the reopen of a `reopen` op.
    store: Option<DurableDatabase>,
    options: StoreOptions,
    io: Arc<IoCounts>,
    /// Standing views; a view's id in the store is its index here.
    views: Vec<CompiledQuery>,
    /// Ad-hoc warm reads: SQ3 for a pool of persons.
    reads: Vec<CompiledQuery>,
    stream: DeltaStream,
    /// Non-durable twin fed the same stream in the traced pass, so IVM time
    /// and commit time (log_delta − apply_delta) come apart.
    twin: Option<PreparedDatabase>,
    commit_self_ms: Vec<f64>,
    /// Digests of the views after the last write.
    view_digests: Vec<Digest>,
    /// The last write was one whose results get checked from scratch.
    verifying: bool,
    op_no: u64,
    write_no: u64,
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl IvmChurn {
    pub(crate) fn new(seed: u64, quick: bool, t: &mut Tracer) -> Self {
        let snb = Snb::new(if quick { QUICK_SCALE } else { SCALE }, seed, false, t);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A2_11F3);
        // One person is the views' subject; the ad-hoc reads go round a pool
        // large enough for its median cost to be the network's, not the
        // draw's.
        let pool = snb.param_pool(&mut rng, if quick { 8 } else { 128 });
        let subject = pool[0];
        // The views compile once, staged, so the compiler's layers are on
        // record for this workload too.
        let views: Vec<CompiledQuery> = [REACHABILITY, FRIEND_MESSAGE_COUNTS, CQ13]
            .iter()
            .map(|q| {
                let staged = compile_staged(&snb.raqlet, q.cypher, OptLevel::Full, subject, t);
                let facade = facade_probe(&snb.raqlet, q.cypher, OptLevel::Full, subject, t);
                compile_checks(q.cypher, &facade, &staged, t);
                facade.0
            })
            .collect();
        let reads =
            pool.iter().map(|&p| compile(&snb.raqlet, SQ3.cypher, OptLevel::Full, p)).collect();

        let dir = scratch_dir().join(format!(
            "store-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let io = Arc::new(IoCounts::default());
        let options = StoreOptions { io_hook: Some(io.hook()) };
        let copy = snb.db.clone();
        let mut store = t
            .time("storage.create", || DurableDatabase::create_with(&dir, copy, options.clone()))
            .expect("store directory is creatable");
        for (id, view) in views.iter().enumerate() {
            let got = t
                .time("engine.ivm.install_view", || {
                    store.prepared_mut().install_view(view.dlir(), &view.output)
                })
                .expect("view installs");
            assert_eq!(got, id);
        }
        t.time("storage.checkpoint", || store.checkpoint()).expect("first checkpoint");
        // The size of the generated database on disk: taken here, where it
        // does not depend on how many ops a window held.
        let snapshot = std::fs::metadata(dir.join("snapshot.raq")).map_or(0, |m| m.len()) as f64;
        t.count("storage.snapshot_bytes", snapshot);
        t.count(
            "storage.bytes_per_heap_byte",
            snapshot / store.database().heap_bytes().max(1) as f64,
        );

        let knows = |a: i64, b: i64| (a == subject.person).then_some(b);
        let friends = snb
            .net
            .knows
            .iter()
            .filter_map(|&(a, b, _)| knows(a, b).or_else(|| knows(b, a)))
            .collect();
        let stream = DeltaStream {
            rng,
            persons: snb.net.persons.iter().map(|p| p.id).collect(),
            friends,
            base_edges: snb.db.get(KNOWS).expect("SNB has KNOWS").sorted(),
            removed: None,
            live: VecDeque::new(),
            live_rows: 0,
            next_id: 50_000_000,
        };
        let mut this = IvmChurn {
            snb,
            dir,
            store: Some(store),
            options,
            io,
            views,
            reads,
            stream,
            twin: None,
            commit_self_ms: Vec::new(),
            view_digests: Vec::new(),
            verifying: false,
            op_no: 0,
            write_no: 0,
        };
        // Warm-up: grow to the stationary size, touch every read, pay
        // first-use costs.
        while this.stream.live_rows < LIVE_ROWS || !this.op_no.is_multiple_of(3) {
            assert!(this.op(None).ok, "warm-up op failed");
        }
        this
    }

    fn store(&mut self) -> &mut DurableDatabase {
        self.store.as_mut().expect("store is open while ops run")
    }

    /// Digest of each maintained view.
    fn digest_views(&self) -> Vec<Digest> {
        let prepared = self.store.as_ref().expect("store is open").prepared();
        (0..self.views.len())
            .map(|id| Digest::of(prepared.view(id).expect("view is installed")))
            .collect()
    }

    /// Digest of `query` evaluated from scratch over the current
    /// extensional database: the reference no maintained state can fool.
    fn evaluate_from_scratch(&self, query: &CompiledQuery) -> Option<Digest> {
        let db = self.store.as_ref().expect("store is open").database();
        query.execute_datalog(db).map(|rows| Digest::of(&rows)).ok()
    }

    fn views_match_from_scratch(&self) -> bool {
        self.views
            .iter()
            .zip(&self.view_digests)
            .all(|(q, got)| self.evaluate_from_scratch(q) == Some(*got))
    }

    /// One batch through the store — with the store's calls in spans and
    /// the non-durable twin applying the batch beside it when traced.
    fn write(&mut self, mut t: Option<&mut Tracer>) -> OpOutcome {
        self.write_no += 1;
        let (delta, kind) = self.stream.next();
        let checkpoint = self.write_no.is_multiple_of(CHECKPOINT_EVERY);
        let copy = t.is_some().then(|| delta.clone());
        let wal = self.dir.join("wal.raq");
        let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
        let before = t.is_some().then(|| (self.io.read(), wal_len()));

        let store = self.store.as_mut().expect("store is open while ops run");
        let start = Instant::now();
        let (logged, log_ms) =
            timed(t.as_deref_mut(), "storage.log_delta", || store.log_delta(delta));
        let after = t.is_some().then(|| (self.io.read(), wal_len()));
        let mut wrote = logged.is_ok();
        if checkpoint {
            wrote &= timed(t.as_deref_mut(), "storage.checkpoint", || store.checkpoint()).0.is_ok();
        }
        let ms = ms_since(start);

        if let (Some(t), Some(copy), Some((io0, wal0)), Some((io1, wal1))) =
            (t, copy, before, after)
        {
            t.count("storage.io_ops", (io1.0 - io0.0) as f64);
            t.count("storage.fsyncs", (io1.1 - io0.1) as f64);
            t.count("storage.wal_bytes", wal1.saturating_sub(wal0) as f64);
            // The twin applies the same batch without a log: IVM time alone.
            if self.twin.is_none() {
                let current = self.store.as_ref().expect("store is open").database().clone();
                let mut twin = PreparedDatabase::new(current);
                for view in &self.views {
                    twin.install_view(view.dlir(), &view.output).expect("twin view installs");
                }
                self.twin = Some(twin);
            }
            let twin = self.twin.as_mut().expect("twin was just created");
            let (stats, twin_ms) = t.timed(kind.span(), || twin.apply_delta(copy));
            let stats = stats.expect("twin applies the batch");
            t.count("engine.ivm.tuples_per_delta", stats.tuples_derived as f64);
            self.commit_self_ms.push(log_ms - twin_ms);
            if self.write_no.is_multiple_of(16) {
                // What the views would cost without maintenance: warm re-runs.
                let views = &self.views;
                t.time("engine.ivm.recompute", || {
                    for view in views {
                        view.execute_datalog_prepared(twin).expect("recompute runs");
                    }
                });
            }
        }

        self.view_digests = self.digest_views();
        self.verifying = self.write_no.is_multiple_of(VERIFY_EVERY);
        let ok = wrote && (!self.verifying || self.views_match_from_scratch());
        let digest =
            self.view_digests.iter().fold(0, |h: u64, d| h.rotate_left(11) ^ d.fingerprint());
        OpOutcome { ms, ok, digest }
    }

    /// Fetch the rows of the maintained AGG1 view; they must be what the
    /// last write left behind.
    fn read_view(&mut self, t: Option<&mut Tracer>) -> OpOutcome {
        let prepared = self.store.as_ref().expect("store is open while ops run").prepared();
        let (rows, ms) = timed(t, "engine.ivm.read_view", || {
            prepared.view(1).map(|view| view.iter().collect::<Vec<_>>())
        });
        let mut digest = Digest::default();
        rows.iter().flatten().for_each(|row| digest.add_row(row));
        let ok = rows.is_some() && digest == self.view_digests[1];
        OpOutcome { ms, ok, digest: digest.fingerprint() }
    }

    /// Run SQ3 for some person on the warm set.
    fn read_adhoc(&mut self, t: Option<&mut Tracer>) -> OpOutcome {
        let who = self.stream.rng.gen_index(0..self.reads.len());
        let store = self.store.as_mut().expect("store is open while ops run");
        let query = &self.reads[who];
        let (rows, ms) = timed(t, "engine.prepared.warm_run", || {
            query.execute_datalog_prepared(store.prepared_mut())
        });
        let digest = rows.as_ref().map(Digest::of).ok();
        let ok =
            digest.is_some() && (!self.verifying || self.evaluate_from_scratch(query) == digest);
        OpOutcome { ms, ok, digest: digest.unwrap_or_default().fingerprint() }
    }
}

impl Workload for IvmChurn {
    fn op(&mut self, mut t: Option<&mut Tracer>) -> OpOutcome {
        self.op_no += 1;
        if let Some(t) = t.as_deref_mut() {
            t.set_op(self.op_no);
        }
        match self.op_no % 3 {
            1 => self.write(t),
            2 => self.read_view(t),
            _ => self.read_adhoc(t),
        }
    }

    fn finish(&mut self, t: &mut Tracer, traced: bool) -> Finish {
        t.set_op(0);
        self.view_digests = self.digest_views();
        let failed = usize::from(!self.views_match_from_scratch());
        let mut layers = Vec::new();
        if traced {
            layers.push(("storage.commit_self_ms", median(&self.commit_self_ms)));
            let reach = &self.views[0];
            engine_probe(reach.dlir(), &reach.output, &self.snb.db, 5, t);
        }
        Finish { failed, layers }
    }
}

impl Drop for IvmChurn {
    fn drop(&mut self) {
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `reopen` workload: the store of [`IvmChurn`] after its warm-up, a
/// checkpoint and [`REPLAY_FRAMES`] further batches, dropped and opened
/// again by every op.
pub(crate) struct Reopen {
    base: IvmChurn,
    specs: Vec<ViewSpec>,
    /// The views evaluated from scratch over the database being reopened.
    reference: Vec<Digest>,
    op_no: u64,
}

impl Reopen {
    pub(crate) fn new(seed: u64, quick: bool, t: &mut Tracer) -> Self {
        let mut base = IvmChurn::new(seed, quick, t);
        base.store().checkpoint().expect("checkpoint before the replayed tail");
        // The replayed tail holds the stream's mix exactly (7 : 2 : 1): a
        // delete costs twenty inserts, so drawing the kinds too would let
        // the seed decide what a reopen costs (0.24 spread between ten
        // seeds at 50 frames, against 0.005 between ten runs of one seed).
        for frame in 0..if quick { 10 } else { REPLAY_FRAMES } {
            let (delta, _) = base.stream.batch(frame as i64 % 10);
            base.store().log_delta(delta).expect("post-checkpoint batch logs");
        }
        let reference = base
            .views
            .iter()
            .map(|q| base.evaluate_from_scratch(q).expect("from-scratch evaluation answers"))
            .collect();
        let specs =
            base.views.iter().map(|v| ViewSpec::new(v.dlir().clone(), v.output.clone())).collect();
        Reopen { base, specs, reference, op_no: 0 }
    }
}

impl Workload for Reopen {
    fn op(&mut self, mut t: Option<&mut Tracer>) -> OpOutcome {
        self.op_no += 1;
        if let Some(t) = t.as_deref_mut() {
            t.set_op(self.op_no);
        }
        self.base.store = None;
        let (dir, options) = (&self.base.dir, self.base.options.clone());
        let (reopened, ms) =
            timed(t, "storage.open", || DurableDatabase::open_with(dir, options, &self.specs));
        let Ok(store) = reopened else { return OpOutcome { ms, ok: false, digest: 0 } };
        self.base.store = Some(store);
        let views = self.base.digest_views();
        let digest = views.iter().fold(0, |h: u64, d| h.rotate_left(11) ^ d.fingerprint());
        OpOutcome { ms, ok: views == self.reference, digest }
    }

    fn finish(&mut self, _t: &mut Tracer, _traced: bool) -> Finish {
        Finish::default()
    }
}
