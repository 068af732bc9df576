//! Crash-safe durability for Raqlet: checksummed arena snapshots plus a
//! fact write-ahead log, with torn-tail recovery.
//!
//! The paper's storage layer is deliberately "a serialization format in all
//! but name": relations are packed `u64` cell arenas over an append-only
//! value dictionary. This crate exploits that — a snapshot (the `snapshot`
//! module) is the arenas and dictionary tables dumped verbatim with
//! per-section CRC-32 checksums, and loading one rebuilds the database
//! without re-encoding a single value. Between snapshots, every
//! [`EdbDelta`] batch is appended to a WAL (the `wal` module) as a
//! length-prefixed, checksummed, fsync'd frame stamped with the epoch it
//! produces.
//!
//! ## The durability contract
//!
//! [`DurableDatabase`] wraps a [`PreparedDatabase`] and guarantees: after
//! [`DurableDatabase::log_delta`] returns `Ok`, the batch survives a crash;
//! after a crash at *any* point, [`DurableDatabase::open`] reproduces
//! exactly the state at the last durable epoch — never a torn or merged
//! state. The moving parts:
//!
//! - **Atomic publication.** A snapshot is written to `snapshot.tmp`,
//!   fsync'd, and published by atomic rename; readers never observe a
//!   partial snapshot.
//! - **Two snapshot generations.** [`DurableDatabase::checkpoint`] rotates
//!   `snapshot.raq → snapshot.prev` and `wal.raq → wal.prev` *before*
//!   publishing the new snapshot, in an order chosen so that a crash in any
//!   window — and even a later corrupt current snapshot — recovers from the
//!   previous generation plus a longer WAL replay instead of aborting.
//! - **Torn-tail recovery.** Opening scans the WAL forward, truncates at
//!   the first torn or corrupt frame, and replays the surviving batches
//!   into the extensional set through [`PreparedDatabase::apply_delta`];
//!   standing views are then evaluated once over the recovered state, not
//!   maintained frame by frame.
//! - **Deterministic fault injection.** Every filesystem operation funnels
//!   through an [`IoFaultHook`]-aware gateway ([`StoreOptions::io_hook`]),
//!   so crash points — partial write, failed fsync, failed rename — are
//!   injectable and seed-reproducible ([`CrashSchedule`]), extending PR 8's
//!   execution-fault discipline across the process boundary.
//!
//! All failures surface as structured [`RaqletError::Io`] or
//! [`RaqletError::Corrupt`] values; no durability path panics. See
//! `docs/durability.md` for the file formats and the full recovery
//! algorithm.
//!
//! ```
//! use raqlet_storage::DurableDatabase;
//! use raqlet_common::{Database, Value};
//! use raqlet_engine::EdbDelta;
//!
//! let dir = std::env::temp_dir().join(format!("raqlet-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let mut db = Database::new();
//! db.insert_fact("edge", vec![Value::Int(1), Value::Int(2)]).unwrap();
//! let mut store = DurableDatabase::create(&dir, db).unwrap();
//!
//! let mut delta = EdbDelta::new();
//! delta.insert("edge", vec![Value::Int(2), Value::Int(3)]);
//! store.log_delta(delta).unwrap();          // fsync'd WAL frame
//! assert_eq!(store.durable_epoch(), 1);
//! drop(store);                              // "crash"
//!
//! let store = DurableDatabase::open(&dir).unwrap();
//! assert_eq!(store.epoch(), 1);
//! assert_eq!(store.database().get("edge").unwrap().len(), 2);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod codec;
mod crc;
mod io;
mod snapshot;
mod wal;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use raqlet_common::{Database, EvalStats, QueryGuard, RaqletError, Result};
use raqlet_dlir::DlirProgram;
use raqlet_engine::{EdbDelta, PreparedDatabase};

pub use io::{counting_hook, CrashSchedule, IoFault, IoFaultHook, IoOp};

use io::{read_file_if_exists, Io};
use wal::Wal;

/// The current snapshot file inside a store directory.
const SNAPSHOT: &str = "snapshot.raq";
/// The previous snapshot generation, kept as the corruption fallback.
const SNAPSHOT_PREV: &str = "snapshot.prev";
/// The in-flight snapshot being written; published by atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// The current write-ahead log (frames since the current snapshot).
const WAL: &str = "wal.raq";
/// The previous generation's log (frames since the previous snapshot).
const WAL_PREV: &str = "wal.prev";

/// Options for creating or opening a [`DurableDatabase`].
#[derive(Clone, Default)]
pub struct StoreOptions {
    /// Deterministic I/O fault hook, consulted before every filesystem
    /// operation the store performs. `None` (the default) performs real,
    /// un-faulted I/O.
    pub io_hook: Option<Arc<IoFaultHook>>,
}

impl std::fmt::Debug for StoreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreOptions")
            .field("io_hook", &self.io_hook.as_ref().map(|_| "<fault hook>"))
            .finish()
    }
}

/// A standing query to reinstall on [`DurableDatabase::open_with`]. It is
/// evaluated once over the recovered extensional state, after WAL replay,
/// so the reopened store's views match the pre-crash ones.
#[derive(Debug, Clone)]
pub struct ViewSpec {
    /// The Datalog program defining the view.
    pub program: DlirProgram,
    /// The output relation the view materializes.
    pub output: String,
}

impl ViewSpec {
    /// A view over `program`'s `output` relation.
    pub fn new(program: DlirProgram, output: impl Into<String>) -> Self {
        ViewSpec { program, output: output.into() }
    }
}

/// A [`PreparedDatabase`] with crash-safe durability: checkpointed arena
/// snapshots plus a per-batch-fsync'd fact WAL (see the crate docs for the
/// protocol).
#[derive(Debug)]
pub struct DurableDatabase {
    dir: PathBuf,
    io: Io,
    prepared: PreparedDatabase,
    wal: Wal,
    durable_epoch: u64,
    /// Set when a WAL append or rotation fails: the log may be missing the
    /// newest in-memory batches, so further [`DurableDatabase::log_delta`]
    /// calls are refused until a [`DurableDatabase::checkpoint`] re-anchors
    /// durability at the current epoch.
    wal_failed: bool,
    /// Set when an *unguarded* batch fails mid-apply: PR 8's contract
    /// leaves the in-memory state unspecified in that case, so persisting
    /// it would write damage to disk. Both `log_delta` and `checkpoint`
    /// are refused; the disk is untouched, and reopening recovers the last
    /// durable epoch.
    state_suspect: bool,
}

impl DurableDatabase {
    // ---------------------------------------------------------------- create

    /// Create a new store in `dir` (created if absent) holding `edb` as the
    /// epoch-0 snapshot. Fails if `dir` already contains a store.
    pub fn create(dir: impl AsRef<Path>, edb: Database) -> Result<Self> {
        Self::create_with(dir, edb, StoreOptions::default())
    }

    /// [`DurableDatabase::create`] with explicit [`StoreOptions`].
    pub fn create_with(
        dir: impl AsRef<Path>,
        mut edb: Database,
        options: StoreOptions,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| RaqletError::io("create", dir.display().to_string(), e.to_string()))?;
        let io = Io::new(options.io_hook);
        let snap = dir.join(SNAPSHOT);
        if snap.exists() {
            return Err(RaqletError::io(
                "create",
                snap.display().to_string(),
                "store already exists; use open",
            ));
        }
        // Canonicalize the arenas so the snapshot is the canonical form.
        for (_, rel) in edb.iter_mut() {
            rel.compact();
        }
        let bytes = snapshot::encode(&edb, 0);
        Self::publish_snapshot(&io, &dir, &bytes)?;
        let wal = Wal::create(&io, &dir.join(WAL))?;
        io.sync_dir(&dir)?;
        Ok(DurableDatabase {
            dir,
            io,
            prepared: PreparedDatabase::new(edb),
            wal,
            durable_epoch: 0,
            wal_failed: false,
            state_suspect: false,
        })
    }

    /// Write snapshot `bytes` to `snapshot.tmp`, fsync, and publish by
    /// atomic rename over `snapshot.raq`. The previous-generation files are
    /// untouched, so a crash anywhere in here loses nothing.
    fn publish_snapshot(io: &Io, dir: &Path, bytes: &[u8]) -> Result<()> {
        let tmp = dir.join(SNAPSHOT_TMP);
        let mut file = io.create(&tmp)?;
        io.write_all(&mut file, &tmp, bytes)?;
        io.sync(&file, &tmp)?;
        drop(file);
        io.rename(&tmp, &dir.join(SNAPSHOT))
    }

    // ------------------------------------------------------------------ open

    /// Open the store in `dir`, recovering to the last durable epoch.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, StoreOptions::default(), &[])
    }

    /// [`DurableDatabase::open`] with explicit [`StoreOptions`] and the
    /// standing views to reinstall after WAL replay.
    ///
    /// Recovery: load `snapshot.raq`; if it is missing or corrupt, fall
    /// back to `snapshot.prev` and the longer replay of `wal.prev` +
    /// `wal.raq`. Replay surviving WAL frames in epoch order through
    /// [`PreparedDatabase::apply_delta`] with no view installed, so each
    /// is a plain extensional apply — skipping frames at or below the
    /// snapshot epoch, stopping at the first torn, corrupt, or
    /// non-contiguous frame. Then install `views`, each evaluated once over
    /// the recovered state, and only then truncate or rotate the log so it
    /// is appendable again: a refused view leaves every file untouched.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        views: &[ViewSpec],
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let io = Io::new(options.io_hook);

        // A snapshot.tmp is an unpublished write from a crashed checkpoint.
        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            io.remove(&tmp)?;
        }

        // Load the newest decodable snapshot generation.
        let cur_path = dir.join(SNAPSHOT);
        let prev_path = dir.join(SNAPSHOT_PREV);
        let cur = read_file_if_exists(&cur_path)?.map(|bytes| snapshot::decode(&bytes, &cur_path));
        let (snap_epoch, db, prev_gen) = match cur {
            Some(Ok((epoch, db))) => (epoch, db, false),
            cur_failure => {
                let prev = read_file_if_exists(&prev_path)?
                    .map(|bytes| snapshot::decode(&bytes, &prev_path));
                match prev {
                    Some(Ok((epoch, db))) => (epoch, db, true),
                    prev_failure => {
                        // Surface the most informative error: the current
                        // snapshot's corruption if it existed, else the
                        // previous one's, else "nothing here".
                        return Err(match (cur_failure, prev_failure) {
                            (Some(Err(e)), _) => e,
                            (None, Some(Err(e))) => e,
                            _ => RaqletError::io(
                                "open",
                                cur_path.display().to_string(),
                                "no snapshot found (not a store directory?)",
                            ),
                        });
                    }
                }
            }
        };

        // Rebuild the working set at the snapshot's durable epoch. Views
        // are installed after replay, so each frame is a plain extensional
        // apply, and before anything is written, so a refused spec leaves
        // the directory untouched.
        let mut prepared = PreparedDatabase::new(db);
        prepared.set_epoch(snap_epoch);
        let install_views = |prepared: &mut PreparedDatabase| -> Result<()> {
            for spec in views {
                prepared.install_view(&spec.program, &spec.output)?;
            }
            Ok(())
        };

        // Replay the surviving WAL frames.
        let wal_path = dir.join(WAL);
        let mut store = if prev_gen {
            // Previous-generation recovery: replay the previous log, then
            // the current one (its first frame continues the chain).
            let prev_wal = dir.join(WAL_PREV);
            let mut gap = false;
            if let Some(bytes) = read_file_if_exists(&prev_wal)? {
                let scan = wal::scan(&bytes, &prev_wal.display().to_string());
                gap = Self::replay(&mut prepared, scan.frames, &prev_wal)?.1;
            }
            if !gap {
                if let Some(bytes) = read_file_if_exists(&wal_path)? {
                    let scan = wal::scan(&bytes, &wal_path.display().to_string());
                    Self::replay(&mut prepared, scan.frames, &wal_path)?;
                }
            }
            install_views(&mut prepared)?;
            // Republish the recovered state as the current snapshot —
            // atomically replacing the corrupt/missing one while the
            // previous generation stays intact underneath — then give the
            // store a fresh log.
            let epoch = prepared.epoch();
            let bytes = snapshot::encode(prepared.database(), epoch);
            Self::publish_snapshot(&io, &dir, &bytes)?;
            let wal = Wal::create(&io, &wal_path)?;
            io.sync_dir(&dir)?;
            let mut store = DurableDatabase {
                dir,
                io,
                prepared,
                wal,
                durable_epoch: epoch,
                wal_failed: false,
                state_suspect: false,
            };
            // Refresh the previous generation too: the old `wal.prev` no
            // longer chains to the fresh log, so rotate a consistent pair
            // underneath the just-published snapshot.
            store.checkpoint()?;
            store
        } else {
            // Current-generation recovery: replay `wal.raq`, install the
            // views, then truncate its torn/dead tail so it is appendable
            // again.
            let mut replayed = None;
            if let Some(bytes) = read_file_if_exists(&wal_path)? {
                let scan = wal::scan(&bytes, &wal_path.display().to_string());
                // Bad or missing magic — not salvageable as a log.
                if scan.valid_len > 0 {
                    let (keep_end, _) = Self::replay(&mut prepared, scan.frames, &wal_path)?;
                    replayed = Some((keep_end, bytes.len() as u64));
                }
            }
            install_views(&mut prepared)?;
            let wal = match replayed {
                Some((keep_end, len)) => {
                    if keep_end < len {
                        wal::truncate_to_valid(&io, &wal_path, keep_end)?;
                    }
                    Wal::open(&io, &wal_path)?
                }
                None => Wal::create(&io, &wal_path)?,
            };
            let durable_epoch = prepared.epoch();
            DurableDatabase {
                dir,
                io,
                prepared,
                wal,
                durable_epoch,
                wal_failed: false,
                state_suspect: false,
            }
        };
        store.durable_epoch = store.prepared.epoch();
        Ok(store)
    }

    /// Replay scanned frames in file order. Frames at or below the current
    /// epoch are skipped (already in the snapshot); a frame at exactly
    /// `epoch + 1` is applied; anything else is a gap and ends the replay.
    /// Returns the byte offset of the last consumed frame (the appendable
    /// prefix length) and whether a gap was hit.
    fn replay(
        prepared: &mut PreparedDatabase,
        frames: Vec<(u64, EdbDelta, u64)>,
        path: &Path,
    ) -> Result<(u64, bool)> {
        let mut keep_end = wal::MAGIC.len() as u64;
        for (epoch, delta, end) in frames {
            if epoch <= prepared.epoch() {
                keep_end = end;
                continue;
            }
            if epoch != prepared.epoch() + 1 {
                return Ok((keep_end, true));
            }
            prepared.apply_delta(delta).map_err(|e| {
                RaqletError::corrupt(
                    path.display().to_string(),
                    "frame",
                    end,
                    format!("replaying the durable frame for epoch {epoch} failed: {e}"),
                )
            })?;
            keep_end = end;
        }
        Ok((keep_end, false))
    }

    // --------------------------------------------------------------- mutate

    /// Apply a delta batch to the working set and append it to the WAL,
    /// fsync'd — on `Ok`, the batch survives a crash.
    ///
    /// On an apply error the batch is not logged. On a *log* error the
    /// batch is applied in memory but not durable: the store refuses
    /// further `log_delta` calls until a [`DurableDatabase::checkpoint`]
    /// re-anchors durability at the current epoch.
    pub fn log_delta(&mut self, delta: EdbDelta) -> Result<EvalStats> {
        self.log_delta_guarded(delta, &QueryGuard::new())
    }

    /// [`DurableDatabase::log_delta`] under an execution [`QueryGuard`].
    ///
    /// With an armed guard, a failed apply rolls the working set back
    /// (PR 8's atomic-batch contract) and the store stays fully usable.
    /// With an unarmed guard, a failed apply leaves the in-memory state
    /// unspecified: the store marks itself suspect and refuses further
    /// mutation — the disk is untouched, so reopening recovers the last
    /// durable epoch.
    pub fn log_delta_guarded(&mut self, delta: EdbDelta, guard: &QueryGuard) -> Result<EvalStats> {
        self.check_usable(true)?;
        let frame_epoch = self.prepared.epoch() + 1;
        // Encode before applying: apply consumes the delta.
        let frame = wal::encode_frame(frame_epoch, &delta);
        let armed = guard.is_armed();
        let stats = match self.prepared.apply_delta_guarded(delta, guard) {
            Ok(stats) => stats,
            Err(e) => {
                if !armed {
                    self.state_suspect = true;
                }
                return Err(e);
            }
        };
        match self.wal.append(&self.io, &frame) {
            Ok(()) => {
                self.durable_epoch = frame_epoch;
                Ok(stats)
            }
            Err(e) => {
                self.wal_failed = true;
                Err(e)
            }
        }
    }

    /// Compact the extensional arenas, write a full snapshot at the current
    /// epoch, and rotate the WAL.
    ///
    /// The publication order is load-bearing: the snapshot generation
    /// rotates (`snapshot.raq → snapshot.prev`) *before* the log does, so
    /// in every crash window the surviving snapshot plus the surviving
    /// log(s) replay to the current durable epoch. A checkpoint also
    /// recovers a store whose WAL failed ([`DurableDatabase::log_delta`]
    /// errors): the new snapshot subsumes the unlogged batches.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_usable(false)?;
        match self.checkpoint_inner() {
            Ok(()) => {
                self.wal_failed = false;
                Ok(())
            }
            Err(e) => {
                // The rotation may have renamed the log out from under the
                // open handle; stop appending until a checkpoint succeeds.
                self.wal_failed = true;
                Err(e)
            }
        }
    }

    fn checkpoint_inner(&mut self) -> Result<()> {
        self.prepared.compact_edb();
        let epoch = self.prepared.epoch();
        let bytes = snapshot::encode(self.prepared.database(), epoch);

        // 1. Stage the new snapshot (crash here: nothing changed).
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut file = self.io.create(&tmp)?;
        self.io.write_all(&mut file, &tmp, &bytes)?;
        self.io.sync(&file, &tmp)?;
        drop(file);

        // 2. Retire the current generation, snapshot first: once
        //    `snapshot.raq` is absent, recovery falls back to
        //    `snapshot.prev` + `wal.prev` + `wal.raq`, which replays to the
        //    same epoch — no window loses a durable frame. (Rotating the
        //    WAL first would instead orphan its frames.) The `exists`
        //    guards make a retry after a transient failure idempotent.
        let cur = self.dir.join(SNAPSHOT);
        if cur.exists() {
            self.io.rename(&cur, &self.dir.join(SNAPSHOT_PREV))?;
        }
        let wal_path = self.dir.join(WAL);
        if wal_path.exists() {
            self.io.rename(&wal_path, &self.dir.join(WAL_PREV))?;
        }

        // 3. Publish the new generation.
        self.io.rename(&tmp, &cur)?;
        self.wal = Wal::create(&self.io, &wal_path)?;
        self.io.sync_dir(&self.dir)?;
        self.durable_epoch = epoch;
        Ok(())
    }

    /// Refuse mutation on a poisoned store, with an error saying how to
    /// recover.
    fn check_usable(&self, for_logging: bool) -> Result<()> {
        if self.state_suspect {
            return Err(RaqletError::io(
                "apply",
                self.dir.display().to_string(),
                "in-memory state is suspect after a failed unguarded batch; \
                 reopen the store to recover the last durable epoch",
            ));
        }
        if for_logging && self.wal_failed {
            return Err(RaqletError::io(
                "write",
                self.dir.join(WAL).display().to_string(),
                "a WAL append or rotation failed; run checkpoint() to re-anchor durability",
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------ accessors

    /// The recovered/maintained working set.
    pub fn prepared(&self) -> &PreparedDatabase {
        &self.prepared
    }

    /// Mutable access to the working set, e.g. to run queries or install
    /// views. Mutations made here (direct `insert_fact`/`apply_delta`)
    /// bypass the WAL and will not survive a crash until the next
    /// [`DurableDatabase::checkpoint`] — prefer [`DurableDatabase::log_delta`].
    pub fn prepared_mut(&mut self) -> &mut PreparedDatabase {
        &mut self.prepared
    }

    /// The extensional database.
    pub fn database(&self) -> &Database {
        self.prepared.database()
    }

    /// The in-memory epoch (delta batches applied since creation).
    pub fn epoch(&self) -> u64 {
        self.prepared.epoch()
    }

    /// The durability watermark: the highest epoch guaranteed to survive a
    /// crash. Equals [`DurableDatabase::epoch`] unless the newest batch's
    /// WAL append failed.
    pub fn durable_epoch(&self) -> u64 {
        self.durable_epoch
    }

    /// Filesystem operations performed so far (the [`IoFaultHook`] hit
    /// counter) — size crash schedules off a dry run of this.
    pub fn io_ops(&self) -> u64 {
        self.io.ops()
    }

    /// True once an injected [`IoFault::Crash`] has killed this store's
    /// I/O. A crashed store keeps serving reads from memory but every
    /// durability operation fails; "restart" by reopening the directory.
    pub fn crashed(&self) -> bool {
        self.io.is_crashed()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
