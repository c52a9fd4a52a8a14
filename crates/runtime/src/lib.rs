//! # tkcm-runtime
//!
//! Elastic sharded fleet runtime: many [`TkcmEngine`]s under one roof.
//!
//! The paper's setting (Section 3) is one synchronous streaming window over
//! one sensor fleet.  A production deployment serves a *wide* fleet — many
//! independent sensor networks at once — and two series can only interact
//! through imputation if they are connected in the catalog's candidate
//! graph.  [`ShardedEngine`] exploits that: it partitions the fleet along
//! catalog connectivity ([`tkcm_timeseries::FleetPartition`]) into
//! *components* (the atomic placement units), runs one engine **per
//! component** grouped onto per-shard worker threads, hands every worker the
//! arriving [`StreamTick`]s, and merges the workers' outcomes, already in
//! global [`SeriesId`] space, deterministically.
//!
//! ## Thread model
//!
//! One OS thread per shard, alive for the lifetime of the engine (`std::
//! thread` + `std::sync::mpsc`; no external dependencies).  Each worker owns
//! the engines of the components currently assigned to its shard, together
//! with each component's member list — window, catalog and signature index
//! never cross a thread boundary mid-flight, so no locking is needed
//! anywhere.  The ingestion path is **batch-native**: one job carries one
//! shared copy of the caller's whole batch to every worker; each worker
//! projects every tick onto its components (one reused sub-tick per
//! component), processes it, logs it and remaps the outcome to global ids,
//! and replies with one outcome per tick.  Exactly one reply per worker is
//! received *in shard order*, which makes the merged outcomes independent of
//! thread scheduling.  No batch is in flight between calls, so snapshot
//! rotation, checkpoints and component migrations all run at batch
//! boundaries.
//!
//! ## Elastic rebalancing
//!
//! Every batch reply carries a `ShardLoad`: the shard's processing nanos
//! and a per-component breakdown.  The fleet keeps per-shard and
//! per-component EWMAs (α = 0.3) of the per-tick cost; when the hottest
//! shard's EWMA is at least 1.5× the (lower-)median for 3 consecutive
//! batches, the heaviest component whose weight fits inside the hot/cold
//! gap migrates to the coldest shard at the end of that batch, and the
//! trigger then rests for 3 batches.  A migration moves a
//! *whole* component — no candidate edge ever crosses components, so where
//! a component's engine runs cannot change a single imputed bit, only
//! which worker computes it.  The migration ships the engine through the
//! existing job channels via the snapshot codec (bit-exact state; the
//! pruning caches are rebuilt on arrival, and its telemetry — phase
//! durations, prune totals — restarts at zero), bumps the
//! [`FleetPartition`] live-mapping version, appends to its deterministic
//! migration log, and — for durable fleets — commits by checkpointing the
//! new assignment (see below).
//!
//! ## Determinism and equivalence
//!
//! * Components and shards are ordered by smallest global id, members
//!   sorted ascending (see `FleetPartition`), so the partition itself is
//!   deterministic.
//! * Merged imputations and skips are sorted by global series id.
//! * Rebalancing is *transparent*: the merged outcome stream equals
//!   sequential per-shard execution of the same engines, imputation for
//!   imputation, across any sequence of migrations (the property the
//!   equivalence tests pin).
//!
//! ## Durability
//!
//! A fleet built with [`ShardedEngine::with_durability`] persists itself
//! into a checkpoint directory: every worker logs one WAL record per
//! component per processed tick (tick-major) — a whole batch's records are
//! appended with a single buffered write (group commit), and
//! [`durability::SyncPolicy`] decides when that write is additionally
//! `fsync`ed.  A failed fsync *poisons* the fleet engine rather than being
//! dropped.  Snapshot rotation happens at batch boundaries: whenever a
//! boundary crosses a multiple of `snapshot_interval` fleet ticks, each
//! worker rewrites its snapshot and truncates its log.  Checkpoint files
//! are versioned by the partition's live-mapping version
//! (`shard-N.snap` at version 0, `shard-N-vV.snap` after `V` migrations);
//! the manifest is written last via atomic rename, making it the
//! migration *commit point* — a crash mid-migration recovers the
//! pre-migration assignment from the old manifest and old files, which is
//! output-equivalent because migrations do not change outcomes.
//! [`ShardedEngine::recover`] rebuilds the identical fleet: manifest →
//! per-shard component snapshots → WAL replay routed per component,
//! reconciled to the newest tick every component reached.  A recovered
//! fleet imputes *bit-identically*, and any flipped or truncated byte fails
//! recovery with a checksum error instead of being replayed.
//! [`ShardedEngine::recover_until`] additionally supports *point-in-time*
//! recovery: WAL replay stops at a requested tick time, yielding a
//! read-only inspection fleet of what the fleet believed then.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, LazyLock};
use std::thread::JoinHandle;
use std::time::Instant;

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine};
use tkcm_store::{
    decode_from_slice, encode_to_vec, read_snapshot_file, read_wal, read_wal_tolerating_torn_tail,
    write_snapshot_file, write_snapshot_file_synced, WalWriter,
};
use tkcm_timeseries::{Catalog, FleetPartition, SeriesId, StreamTick, Timestamp, TsError};

use durability::{
    manifest_path, remove_stale_shard_files, shard_snapshot_path, shard_wal_path, Manifest,
    ShardSnapshot, ShardWalRecord,
};
pub use durability::{CheckpointStats, DurabilityOptions, RecoveryOptions, SyncPolicy};

// == the rebalancer's fixed policy ==

/// Hot-shard trigger: a hottest-shard EWMA at least this many times the
/// lower-median shard EWMA counts as imbalance.
const LATENCY_RATIO: f64 = 1.5;

/// Consecutive imbalanced batches before a migration is picked.
const PATIENCE: usize = 3;

/// EWMA smoothing factor of the per-tick load estimates (collected whether
/// or not rebalancing is on, for [`ShardedEngine::load_stats`]).
const EWMA_ALPHA: f64 = 0.3;

/// Batches the trigger rests after a migration, letting the EWMAs re-settle.
const COOLDOWN_BATCHES: usize = 3;

// == fleet-wide metric handles (record-only; the `obs-read-only` policy) ==

/// Time the fleet thread spends blocked on worker replies at each barrier.
static BARRIER_WAIT_NANOS: LazyLock<tkcm_obs::Histogram> =
    LazyLock::new(|| tkcm_obs::registry().histogram("tkcm_runtime_barrier_wait_nanos", &[]));

/// Migrations the rebalancer picked (committed or not).
static MIGRATIONS_TRIGGERED: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_runtime_migrations_triggered_total", &[]));

/// Migrations that committed (partition version bumped; for durable fleets,
/// manifest renamed).
static MIGRATIONS_COMMITTED: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_runtime_migrations_committed_total", &[]));

/// Per-shard metric handles, registered once per fleet construction.
/// Handles are cheap `Arc` clones onto the process-global registry, so two
/// fleets with the same shard count share the same underlying cells — the
/// labels identify the shard *index*, not a fleet instance.
struct FleetObs {
    /// Per-shard batch processing latency (the worker's load-report nanos).
    batch_nanos: Vec<tkcm_obs::Histogram>,
    /// Per-shard EWMA of processing nanos per fleet tick, mirrored from the
    /// load tracker after every completed batch.
    ewma_nanos: Vec<tkcm_obs::Gauge>,
}

impl FleetObs {
    fn new(shards: usize) -> FleetObs {
        let registry = tkcm_obs::registry();
        FleetObs {
            batch_nanos: (0..shards)
                .map(|shard| {
                    registry.histogram(
                        "tkcm_runtime_shard_batch_nanos",
                        &[("shard", &shard.to_string())],
                    )
                })
                .collect(),
            ewma_nanos: (0..shards)
                .map(|shard| {
                    registry.gauge(
                        "tkcm_runtime_shard_ewma_nanos_per_tick",
                        &[("shard", &shard.to_string())],
                    )
                })
                .collect(),
        }
    }
}

enum Job {
    /// The caller's batch, one shared copy for every worker: each worker
    /// projects the ticks onto the components it holds.
    Batch(Arc<[StreamTick]>),
    Checkpoint {
        snapshot_path: PathBuf,
        /// When set, the worker truncates (re-creates) its WAL at this path
        /// after the snapshot is safely renamed into place.
        reset_wal: Option<PathBuf>,
    },
    /// Serialise the named component's engine (snapshot codec), remove it
    /// and its member list from this worker and reply with both — the donor
    /// half of a migration.
    Extract(usize),
    /// Decode the bytes into an engine and adopt it, with its member list,
    /// as the named component — the receiver half of a migration.
    Install {
        component: usize,
        engine: Vec<u8>,
        members: Vec<SeriesId>,
    },
    Stop,
    /// Fault injection for durability tests: makes every subsequent fsync of
    /// this worker's WAL fail (see `WalWriter::inject_sync_failures`).
    #[cfg(test)]
    InjectSyncFailures,
}

/// Per-batch load report a worker attaches to every batch reply: the raw
/// material for the fleet's EWMA load accounting and the critical-path
/// throughput statistics.
#[derive(Debug, Default)]
struct ShardLoad {
    /// Processing nanos this worker spent on the batch — the worker
    /// thread's *CPU* time where the platform exposes it (so load reports
    /// ignore preemption on oversubscribed hosts), wall-clock otherwise.
    nanos: u64,
    /// `(component id, nanos)` breakdown of `nanos`.
    component_nanos: Vec<(usize, u64)>,
}

/// One outcome per processed tick — the imputations and skips of every
/// component on the shard, already in global id space — plus the batch's
/// load report: the success payload of a [`Reply::Batch`].
type BatchReply = (Vec<EngineOutcome>, ShardLoad);

enum Reply {
    /// The batch's outcomes and load report, or the first error — which
    /// may have struck mid-batch, after a prefix already committed.
    Batch(Result<BatchReply, TsError>),
    /// Snapshot file size in bytes, or the error that prevented it.
    Checkpoint(Result<u64, TsError>),
    /// The extracted component's engine bytes and member list.
    Extracted(Result<(Vec<u8>, Vec<SeriesId>), TsError>),
    /// The installation result.
    Installed(Result<(), TsError>),
    #[cfg(test)]
    SyncFailuresInjected,
}

struct Worker {
    jobs: Sender<Job>,
    results: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

/// Where and how often a durable engine checkpoints.
struct DurableState {
    dir: PathBuf,
    snapshot_interval: usize,
    /// The workers' group-commit fsync policy, recorded here so checkpoints
    /// write it into the manifest and recovery re-arms it.
    sync_policy: SyncPolicy,
    /// The tick count the last automatic rotation ran at, so a
    /// rotation that failed (and made the call return an error *before*
    /// dispatching the batch) is retried on the next call instead of
    /// being skipped or repeated after success.
    last_rotation: usize,
}

/// Fleet load statistics accumulated from the per-batch `ShardLoad`
/// reports (see [`ShardedEngine::load_stats`]).
#[derive(Clone, Debug)]
pub struct FleetLoadStats {
    /// Per-shard EWMA of processing nanos per fleet tick (`None` until the
    /// shard reported its first batch, and reset after a migration).
    pub shard_ewma_nanos: Vec<Option<f64>>,
    /// Barrier-bound critical path: Σ over completed batches of the
    /// *slowest* shard's processing time.  On a single-core host this is
    /// the honest proxy for parallel wall-clock — it is what an idealised
    /// parallel executor could not beat.
    pub critical_path_seconds: f64,
    /// Total processing time across all shards (the work, as opposed to
    /// the critical path).
    pub busy_seconds: f64,
}

/// Per-shard/per-component EWMA load state, the stealing trigger's state
/// and the throughput accumulators.
struct LoadTracker {
    shard_ewma: Vec<Option<f64>>,
    component_ewma: Vec<Option<f64>>,
    /// Consecutive imbalanced batches counted outside a cooldown.
    hot_streak: usize,
    /// Batches left before the trigger counts imbalance again.
    cooldown: usize,
    critical_path_nanos: u128,
    busy_nanos: u128,
}

/// A shard index with its per-tick load EWMA.
type ShardEwma = (usize, f64);

impl LoadTracker {
    fn new(partition: &FleetPartition) -> Self {
        LoadTracker {
            shard_ewma: vec![None; partition.shard_count()],
            component_ewma: vec![None; partition.component_count()],
            hot_streak: 0,
            cooldown: 0,
            critical_path_nanos: 0,
            busy_nanos: 0,
        }
    }

    /// Folds one batch's load reports (one per shard, in shard order) into
    /// the EWMAs and throughput accumulators, then advances the trigger:
    /// a cooldown batch only counts down; otherwise an imbalanced batch
    /// extends the hot streak and a balanced one ends it.
    fn observe(&mut self, loads: &[ShardLoad], ticks: usize) {
        if ticks == 0 || loads.len() != self.shard_ewma.len() {
            return;
        }
        let mut max_nanos = 0u64;
        let mut sum_nanos = 0u128;
        for (shard, load) in loads.iter().enumerate() {
            max_nanos = max_nanos.max(load.nanos);
            sum_nanos += u128::from(load.nanos);
            ewma_update(
                &mut self.shard_ewma[shard],
                load.nanos as f64 / ticks as f64,
            );
            for (component, nanos) in &load.component_nanos {
                if let Some(slot) = self.component_ewma.get_mut(*component) {
                    ewma_update(slot, *nanos as f64 / ticks as f64);
                }
            }
        }
        self.critical_path_nanos += u128::from(max_nanos);
        self.busy_nanos += sum_nanos;
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if let Some(((_, hot), _, median)) = self.extremes() {
            self.hot_streak = if hot / median >= LATENCY_RATIO {
                self.hot_streak + 1
            } else {
                0
            };
        }
    }

    /// The hottest shard (the last on ties), the coldest (the first on
    /// ties) and the lower-median EWMA — robust to one hot outlier even at
    /// two shards; `None` until every shard has reported, or while the
    /// median is zero.
    fn extremes(&self) -> Option<(ShardEwma, ShardEwma, f64)> {
        let ewmas = self
            .shard_ewma
            .iter()
            .copied()
            .collect::<Option<Vec<f64>>>()?;
        let mut sorted = ewmas.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("load EWMAs are finite"));
        let median = sorted[(sorted.len() - 1) / 2];
        if median <= 0.0 {
            return None;
        }
        let by_load =
            |a: &ShardEwma, b: &ShardEwma| a.1.partial_cmp(&b.1).expect("load EWMAs are finite");
        let hot = ewmas.iter().copied().enumerate().max_by(by_load)?;
        let cold = ewmas.iter().copied().enumerate().min_by(by_load)?;
        Some((hot, cold, median))
    }

    /// The stealing decision, `(component, to_shard)`: once `PATIENCE`
    /// consecutive imbalanced batches have passed outside a cooldown, the
    /// heaviest component on the hottest shard whose weight fits strictly
    /// inside the hot/cold gap moves to the coldest shard (so the move
    /// improves the balance rather than merely relocating the hotspot).
    /// Ties go to the smaller component id, and a shard's last component
    /// is never stolen.  Pure over the load state and the partition.
    fn pick_migration(&self, partition: &FleetPartition) -> Option<(usize, usize)> {
        if self.cooldown > 0 || self.hot_streak < PATIENCE {
            return None;
        }
        let ((hot, hot_ewma), (cold, cold_ewma), _) = self.extremes()?;
        let donors = partition.components_on(hot);
        if hot == cold || donors.len() < 2 {
            return None;
        }
        let gap = hot_ewma - cold_ewma;
        // Iterating ascending with a strict `>` keeps the smallest id on
        // ties.
        let mut best: Option<(usize, f64)> = None;
        for component in donors {
            let Some(weight) = self.component_ewma[component] else {
                continue;
            };
            if weight > 0.0 && weight < gap && best.is_none_or(|(_, bw)| weight > bw) {
                best = Some((component, weight));
            }
        }
        best.map(|(component, _)| (component, cold))
    }

    /// Carries the load history across a committed migration and rests the
    /// trigger.  The component's estimated weight shifts from the donor's
    /// EWMA to the receiver's, so the next trigger evaluation sees the
    /// post-migration balance instead of either pre-migration history
    /// (which would re-trigger on the hotspot that was just fixed) or a
    /// from-scratch reset (whose first samples are single-batch noise).
    /// Without a weight estimate — forced migrations before any load
    /// report — only the two affected shards' estimates are discarded.
    fn after_migration(&mut self, component: usize, from: usize, to_shard: usize) {
        match self.component_ewma.get(component).copied().flatten() {
            Some(weight) => {
                if let Some(donor) = self.shard_ewma[from].as_mut() {
                    *donor = (*donor - weight).max(0.0);
                }
                if let Some(receiver) = self.shard_ewma[to_shard].as_mut() {
                    *receiver += weight;
                }
            }
            None => {
                self.shard_ewma[from] = None;
                self.shard_ewma[to_shard] = None;
            }
        }
        self.hot_streak = 0;
        self.cooldown = COOLDOWN_BATCHES;
    }
}

fn ewma_update(slot: &mut Option<f64>, sample: f64) {
    *slot = Some(match *slot {
        None => sample,
        Some(prev) => prev + EWMA_ALPHA * (sample - prev),
    });
}

/// A fleet of per-component [`TkcmEngine`]s running on per-shard worker
/// threads.
///
/// Construction partitions the fleet ([`FleetPartition`]), builds one
/// engine per catalog component and spawns one worker thread per shard
/// owning its components' engines.  [`ShardedEngine::process_tick`] then
/// behaves like [`TkcmEngine::process_tick`] over the whole fleet: push,
/// impute every missing series whose references are alive, write back,
/// return the merged outcome in global id space.
pub struct ShardedEngine {
    partition: FleetPartition,
    workers: Vec<Worker>,
    tick_count: usize,
    imputation_count: usize,
    poisoned: bool,
    durable: Option<DurableState>,
    /// Whether the rebalancer may migrate components at batch ends.
    rebalancing: bool,
    loads: LoadTracker,
    /// Per-shard metric handles (see [`FleetObs`]).
    obs: FleetObs,
}

impl ShardedEngine {
    /// Creates a sharded engine for `width` streams over `shards` worker
    /// threads (see [`FleetPartition::new`] for how the target is met).
    pub fn new(
        width: usize,
        config: TkcmConfig,
        catalog: Catalog,
        shards: usize,
    ) -> Result<Self, TsError> {
        config.validate()?;
        let partition = FleetPartition::new(width, &catalog, shards)?;
        let snapshots = build_shards(&partition, &config, &catalog)?;
        let wals = snapshots.iter().map(|_| None).collect();
        Self::from_shards(partition, snapshots, wals, None)
    }

    /// Creates a *durable* sharded engine: every worker logs each processed
    /// component tick (and its write-backs) to a per-shard WAL under `dir`,
    /// and every [`DurabilityOptions::snapshot_interval`] fleet ticks the
    /// snapshots are rotated and the logs truncated.  The directory is
    /// immediately initialised with a manifest and per-shard snapshots, so
    /// it is recoverable from the first tick on.
    pub fn with_durability(
        width: usize,
        config: TkcmConfig,
        catalog: Catalog,
        shards: usize,
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<Self, TsError> {
        config.validate()?;
        std::fs::create_dir_all(dir)
            .map_err(|e| TsError::Io(format!("creating {}: {e}", dir.display())))?;
        let partition = FleetPartition::new(width, &catalog, shards)?;
        let snapshots = build_shards(&partition, &config, &catalog)?;
        let wals = (0..partition.shard_count())
            .map(|shard| {
                WalWriter::create(&shard_wal_path(dir, shard, partition.version())).map(Some)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let durable = DurableState {
            dir: dir.to_path_buf(),
            snapshot_interval: options.snapshot_interval,
            sync_policy: options.sync_policy,
            last_rotation: 0,
        };
        let mut fleet = Self::from_shards(partition, snapshots, wals, Some(durable))?;
        // Initial checkpoint: manifest + empty-engine snapshots, so a crash
        // before the first rotation still recovers (by replaying the WAL
        // from tick zero).
        fleet.checkpoint(dir)?;
        Ok(fleet)
    }

    /// The one place a fleet is assembled: one worker per shard snapshot,
    /// logging to its WAL when one is given (under the durable state's sync
    /// policy), with the fleet counters read off the snapshots' engines
    /// (all zero for fresh ones).
    fn from_shards(
        partition: FleetPartition,
        snapshots: Vec<ShardSnapshot>,
        wals: Vec<Option<WalWriter>>,
        durable: Option<DurableState>,
    ) -> Result<Self, TsError> {
        let sync_policy = durable
            .as_ref()
            .map_or(SyncPolicy::Never, |state| state.sync_policy);
        let tick_count = fleet_tick_count(&snapshots)?;
        let imputation_count = snapshots
            .iter()
            .flat_map(|s| s.engines.iter())
            .map(|(_, e)| e.imputations_performed())
            .sum();
        let workers = snapshots
            .into_iter()
            .zip(wals)
            .map(|(snapshot, wal)| {
                let members = snapshot
                    .engines
                    .iter()
                    .map(|(component, _)| partition.component_members(*component).to_vec())
                    .collect();
                spawn_worker(snapshot, members, wal, sync_policy)
            })
            .collect();
        let loads = LoadTracker::new(&partition);
        let obs = FleetObs::new(partition.shard_count());
        Ok(ShardedEngine {
            partition,
            workers,
            tick_count,
            imputation_count,
            poisoned: false,
            durable,
            rebalancing: false,
            loads,
            obs,
        })
    }

    /// Turns automatic component stealing on or off (off by default).  The
    /// policy is fixed; see the module docs' "Elastic rebalancing".
    pub fn set_rebalancing(&mut self, on: bool) {
        self.rebalancing = on;
        self.loads.hot_streak = 0;
    }

    /// The load statistics accumulated so far (see [`FleetLoadStats`]).
    pub fn load_stats(&self) -> FleetLoadStats {
        FleetLoadStats {
            shard_ewma_nanos: self.loads.shard_ewma.clone(),
            critical_path_seconds: self.loads.critical_path_nanos as f64 * 1e-9,
            busy_seconds: self.loads.busy_nanos as f64 * 1e-9,
        }
    }

    /// Number of component migrations committed since construction (the
    /// partition's migration log length).
    pub fn migrations_performed(&self) -> usize {
        self.partition.migration_log().len()
    }

    /// Migrates `component` onto `to_shard` now, between batches, exactly
    /// like a rebalancer-picked move (forced moves may empty a shard).  A
    /// component already on `to_shard` is a no-op.  Unknown ids are
    /// rejected; a failed move poisons the fleet and returns its error.
    pub fn force_migration(&mut self, component: usize, to_shard: usize) -> Result<(), TsError> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        if component >= self.partition.component_count() {
            return Err(TsError::invalid(
                "engine",
                format!("unknown component {component}"),
            ));
        }
        if to_shard >= self.workers.len() {
            return Err(TsError::invalid(
                "engine",
                format!("unknown shard {to_shard}"),
            ));
        }
        self.execute_migration(component, to_shard)
    }

    /// Recovers a fleet from a checkpoint directory: reads the manifest,
    /// loads every shard's component snapshots, replays every shard's WAL
    /// (when the directory belongs to a durable engine), routing each
    /// record to its component's engine, and rebuilds the identical
    /// partition — including its live-mapping version and migration log —
    /// counters and worker fleet.
    ///
    /// A crash can interrupt shards mid-tick, leaving one component's log
    /// one record ahead of another's; recovery reconciles by replaying
    /// each component only up to the newest tick *every* component
    /// reached.  A crash *mid-migration* recovers the pre-migration
    /// assignment: the manifest rename is the commit point, and until it
    /// lands the old manifest still points at the old, untouched
    /// version-suffixed files.  Corrupt data — a flipped byte, a torn
    /// record, a truncated file — fails with an error instead of being
    /// replayed; see [`ShardedEngine::recover_with`] for the explicit
    /// torn-tail opt-out.
    pub fn recover(dir: &Path) -> Result<Self, TsError> {
        Self::recover_with(dir, RecoveryOptions::default())
    }

    /// [`ShardedEngine::recover`] with explicit [`RecoveryOptions`].
    ///
    /// With [`RecoveryOptions::tolerate_torn_wal_tail`] set, a WAL ending in
    /// a partial frame — a process killed mid-append — replays its intact
    /// record prefix instead of failing, and the affected shard gets a
    /// fresh snapshot + truncated log; interior corruption (a checksum
    /// mismatch on any complete record) still fails either way.
    pub fn recover_with(dir: &Path, options: RecoveryOptions) -> Result<Self, TsError> {
        Self::load(dir, None, options.tolerate_torn_wal_tail)
    }

    /// Point-in-time recovery: like [`ShardedEngine::recover`], but WAL
    /// replay stops at the newest tick whose time is `<= time` — "what did
    /// the fleet believe at 14:20".
    ///
    /// The result is an *inspection* fleet: it is never durable and never
    /// touches the checkpoint directory (no WAL re-open, no snapshot
    /// rewrite), because appending new history after an earlier recovery
    /// point would silently fork the directory's timeline.  It can process
    /// further ticks — they just are not logged anywhere.
    ///
    /// Fails when any component's *snapshot* is already past `time`
    /// (snapshots cannot be rewound; recover from an older checkpoint
    /// directory), and on any corruption, exactly as strict recovery does.
    /// A `time` newer than everything in the WALs recovers the newest
    /// reachable state, like [`ShardedEngine::recover`] would.
    pub fn recover_until(dir: &Path, time: Timestamp) -> Result<Self, TsError> {
        Self::load(dir, Some(time), false)
    }

    /// The one recovery loader behind [`ShardedEngine::recover_with`] and
    /// [`ShardedEngine::recover_until`]: `ceiling` is the point-in-time
    /// limit (`Some` makes an inspection fleet), `tolerate_torn_wal_tail`
    /// the [`RecoveryOptions`] flag.
    fn load(
        dir: &Path,
        ceiling: Option<Timestamp>,
        tolerate_torn_wal_tail: bool,
    ) -> Result<Self, TsError> {
        let result = Self::load_inner(dir, ceiling, tolerate_torn_wal_tail);
        if let Err(error) = &result {
            // A failed recovery is one of the two moments the flight
            // recorder exists for; the dump goes to the temp directory —
            // never into a checkpoint directory we just failed to read.
            tkcm_obs::recorder().record(
                "recovery_failed",
                vec![
                    ("dir", tkcm_obs::FieldValue::Text(dir.display().to_string())),
                    ("error", tkcm_obs::FieldValue::Text(error.to_string())),
                ],
            );
            let _ = tkcm_obs::recorder().dump_to_dir(&std::env::temp_dir(), "recovery-failed");
        }
        result
    }

    fn load_inner(
        dir: &Path,
        ceiling: Option<Timestamp>,
        tolerate_torn_wal_tail: bool,
    ) -> Result<Self, TsError> {
        let manifest: Manifest = read_snapshot_file(&manifest_path(dir))?;
        // The manifest records explicitly whether this directory carries
        // WALs; a durable engine's out-of-band backup into a foreign
        // directory is snapshot-only and recovers as a plain fleet.  A
        // point-in-time recovery reads the WALs but never resumes them.
        let durable = manifest.wal && ceiling.is_none();
        let partition = manifest.partition;
        let version = partition.version();
        let shard_count = partition.shard_count();

        let mut shards: Vec<ShardSnapshot> = Vec::with_capacity(shard_count);
        let mut logs: Vec<Vec<ShardWalRecord>> = Vec::with_capacity(shard_count);
        let mut torn: Vec<bool> = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let snapshot: ShardSnapshot =
                read_snapshot_file(&shard_snapshot_path(dir, shard, version))?;
            validate_shard_snapshot(&partition, shard, &snapshot)?;
            if let Some(time) = ceiling {
                for (component, engine) in &snapshot.engines {
                    if engine.window().current_time().is_some_and(|t| t > time) {
                        return Err(TsError::invalid(
                            "engine",
                            format!(
                                "component {component} on shard {shard} is snapshotted at {:?}, \
                                 past the requested recovery time {time:?}; snapshots cannot be \
                                 rewound — recover from an older checkpoint directory",
                                engine.window().current_time()
                            ),
                        ));
                    }
                }
            }
            let path = shard_wal_path(dir, shard, version);
            let (records, tail_torn) = if !manifest.wal {
                (Vec::new(), false)
            } else if tolerate_torn_wal_tail {
                read_wal_tolerating_torn_tail(&path)?
            } else {
                (read_wal(&path)?, false)
            };
            validate_shard_records(&partition, shard, &records)?;
            tkcm_obs::recorder().record(
                "recovery_step",
                vec![
                    ("stage", tkcm_obs::FieldValue::Text("shard_loaded".into())),
                    ("shard", tkcm_obs::FieldValue::U64(shard as u64)),
                    (
                        "wal_records",
                        tkcm_obs::FieldValue::U64(records.len() as u64),
                    ),
                ],
            );
            shards.push(snapshot);
            logs.push(records);
            torn.push(tail_torn);
        }

        // Reconcile: a component's reachable time is the newer of its
        // snapshot and its last logged tick (no later than the ceiling);
        // the fleet recovers to the *minimum* of those, since a tick is only
        // complete once every component processed it.
        let reachable = shards
            .iter()
            .zip(&logs)
            .flat_map(|(snapshot, records)| {
                snapshot.engines.iter().map(move |(component, engine)| {
                    records
                        .iter()
                        .rev()
                        .filter(|r| r.component == *component)
                        .map(|r| r.entry.tick.time)
                        .find(|t| ceiling.is_none_or(|time| *t <= time))
                        .max(engine.window().current_time())
                })
            })
            .min()
            .flatten();
        replay_shards(&mut shards, &logs, reachable)?;

        let tick_count = fleet_tick_count(&shards)?;
        tkcm_obs::recorder().record(
            "recovery_step",
            vec![
                ("stage", tkcm_obs::FieldValue::Text("replayed".into())),
                ("tick_count", tkcm_obs::FieldValue::U64(tick_count as u64)),
            ],
        );

        let mut wals = Vec::with_capacity(shard_count);
        for (shard, snapshot) in shards.iter().enumerate() {
            let wal = if durable {
                // Reconciliation may have skipped a trailing record of a
                // component that ran ahead, and a tolerated torn tail
                // leaves garbage bytes after the last intact record;
                // recreate such logs from the snapshot + replayed state
                // rather than appending after dropped records or torn
                // bytes.  Logs whose every byte was applied are reopened
                // for append.
                let path = shard_wal_path(dir, shard, version);
                let applied_all = logs[shard]
                    .last()
                    .map(|r| Some(r.entry.tick.time) <= reachable)
                    .unwrap_or(true);
                let mut wal = WalWriter::open_append(&path)?;
                if !applied_all || torn[shard] {
                    wal.rotate(
                        &shard_snapshot_path(dir, shard, version),
                        snapshot,
                        &path,
                        manifest.sync_policy == SyncPolicy::EveryBatch,
                    )?;
                }
                Some(wal)
            } else {
                None
            };
            wals.push(wal);
        }
        if durable {
            // A crash between the migration checkpoint's rename and its
            // cleanup can leave files of a superseded version behind.
            remove_stale_shard_files(dir, version);
        }

        let durable_state = durable.then(|| DurableState {
            dir: dir.to_path_buf(),
            snapshot_interval: manifest.snapshot_interval,
            sync_policy: manifest.sync_policy,
            // `tick_count - 1`, not `tick_count`: under the
            // boundary-crossing rotation rule this re-runs the rotation
            // at the next batch boundary exactly when the crash landed
            // on a rotation boundary (the rotation may not have
            // completed; re-running is idempotent — snapshots
            // rewritten, WAL truncated), while a mid-interval crash
            // waits for the next multiple as usual instead of paying a
            // full snapshot rewrite on the first post-recovery batch.
            last_rotation: tick_count.saturating_sub(1),
        });
        Self::from_shards(partition, shards, wals, durable_state)
    }

    /// Checkpoints the fleet into `dir`: barriers every worker, writes one
    /// snapshot file per shard (atomically, at the partition's current
    /// live-mapping version) plus the manifest, and — when `dir` is this
    /// engine's durability directory — truncates the WALs the snapshots now
    /// cover and removes files of superseded versions.  The engine keeps
    /// running afterwards; this is a rotation point, not a shutdown.
    pub fn checkpoint(&mut self, dir: &Path) -> Result<CheckpointStats, TsError> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        self.checkpoint_inner(dir)
    }

    /// [`ShardedEngine::checkpoint_write`] plus its observability: success
    /// lands a `checkpoint` event; failure lands a `checkpoint_failed`
    /// event and dumps the flight recorder to the temp directory (not into
    /// `dir`, which just demonstrated it cannot be written reliably).
    fn checkpoint_inner(&mut self, dir: &Path) -> Result<CheckpointStats, TsError> {
        let result = self.checkpoint_write(dir);
        match &result {
            Ok(stats) => tkcm_obs::recorder().record(
                "checkpoint",
                vec![
                    (
                        "bytes",
                        tkcm_obs::FieldValue::U64(stats.shard_snapshot_bytes.iter().sum()),
                    ),
                    ("seconds", tkcm_obs::FieldValue::F64(stats.seconds)),
                    (
                        "ticks_processed",
                        tkcm_obs::FieldValue::U64(self.tick_count as u64),
                    ),
                ],
            ),
            Err(error) => {
                tkcm_obs::recorder().record(
                    "checkpoint_failed",
                    vec![("error", tkcm_obs::FieldValue::Text(error.to_string()))],
                );
                let _ =
                    tkcm_obs::recorder().dump_to_dir(&std::env::temp_dir(), "checkpoint-failed");
            }
        }
        result
    }

    /// The barriered snapshot write itself.  Does *not* poison on failure:
    /// checkpointing never mutates engine state, so the in-memory fleet
    /// stays consistent and the caller may retry (migration commits wrap
    /// this and poison there).
    fn checkpoint_write(&mut self, dir: &Path) -> Result<CheckpointStats, TsError> {
        let start = Instant::now();
        std::fs::create_dir_all(dir)
            .map_err(|e| TsError::Io(format!("creating {}: {e}", dir.display())))?;
        let resets_wal = self
            .durable
            .as_ref()
            .is_some_and(|d| same_directory(&d.dir, dir));
        let version = self.partition.version();
        for (shard, worker) in self.workers.iter().enumerate() {
            worker
                .jobs
                .send(Job::Checkpoint {
                    snapshot_path: shard_snapshot_path(dir, shard, version),
                    reset_wal: resets_wal.then(|| shard_wal_path(dir, shard, version)),
                })
                .map_err(|_| worker_died())?;
        }
        let mut shard_snapshot_bytes = Vec::with_capacity(self.workers.len());
        let mut first_error = None;
        for worker in &self.workers {
            match worker.results.recv().map_err(|_| worker_died())? {
                Reply::Checkpoint(Ok(bytes)) => shard_snapshot_bytes.push(bytes),
                Reply::Checkpoint(Err(e)) => first_error = first_error.or(Some(e)),
                _ => {
                    return Err(TsError::invalid(
                        "engine",
                        "worker protocol violation: non-checkpoint reply to a checkpoint",
                    ))
                }
            }
        }
        if let Some(e) = first_error {
            // The on-disk directory may hold a mix of old and new snapshot
            // files but every file is individually consistent, and the
            // manifest still points at a complete old set.
            return Err(e);
        }
        // Only the durable engine's own directory carries WALs; a checkpoint
        // into a foreign directory (an out-of-band backup) is snapshot-only
        // and must recover as such — its manifest records no WAL and no
        // rotation interval, whatever this engine's settings are.  The
        // manifest rename is the commit point: after it, recovery reads the
        // just-written version-suffixed files.  Under `EveryBatch` the
        // manifest and its rename are fsynced, like the shards' rotations.
        let durable = self.durable.as_ref().filter(|_| resets_wal);
        let manifest = Manifest {
            partition: self.partition.clone(),
            wal: resets_wal,
            snapshot_interval: durable.map_or(0, |d| d.snapshot_interval),
            sync_policy: durable.map_or(SyncPolicy::Never, |d| d.sync_policy),
        };
        if manifest.sync_policy == SyncPolicy::EveryBatch {
            write_snapshot_file_synced(&manifest_path(dir), &manifest)?;
        } else {
            write_snapshot_file(&manifest_path(dir), &manifest)?;
        }
        if resets_wal {
            // Superseded-version files are garbage now that the manifest
            // moved on; cleanup is best-effort (a crash here is repaired by
            // the same call at recovery).  Foreign directories are left
            // untouched — their stale files belong to someone else.
            remove_stale_shard_files(dir, version);
            tkcm_obs::recorder().record(
                "wal_rotation",
                vec![
                    ("version", tkcm_obs::FieldValue::U64(version)),
                    (
                        "ticks_processed",
                        tkcm_obs::FieldValue::U64(self.tick_count as u64),
                    ),
                ],
            );
        }
        Ok(CheckpointStats {
            shard_snapshot_bytes,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The checkpoint directory of a durable engine, if any.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The fleet partition the engine runs with (its live mapping: version
    /// and migration log included).
    pub fn partition(&self) -> &FleetPartition {
        &self.partition
    }

    /// Number of shards (= worker threads).
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of fleet-wide ticks processed.
    pub fn ticks_processed(&self) -> usize {
        self.tick_count
    }

    /// Number of values imputed across all shards.
    pub fn imputations_performed(&self) -> usize {
        self.imputation_count
    }

    /// Processes one fleet-wide tick: the batch path at batch size 1 (see
    /// [`ShardedEngine::process_batch`] — one fan-out, one barrier, merged
    /// outcome in global [`SeriesId`] space).
    ///
    /// An error from any shard poisons the engine (the shards' windows may
    /// no longer agree on the current time); subsequent calls keep failing.
    pub fn process_tick(&mut self, tick: &StreamTick) -> Result<EngineOutcome, TsError> {
        let mut outcomes = self.process_batch(std::slice::from_ref(tick))?;
        Ok(outcomes.pop().expect("one outcome per processed tick"))
    }

    /// Processes a batch of fleet-wide ticks, returning one merged
    /// [`EngineOutcome`] per tick (imputations and skips sorted by global
    /// id), **bit-identical** to `N` sequential
    /// [`ShardedEngine::process_tick`] calls (the property
    /// `tests/batching.rs` pins, including across crash/recovery).
    ///
    /// One call is one barrier round: snapshot rotation when due, then one
    /// fan-out — one shared copy of the batch crosses each shard's channel
    /// **once**, and each worker projects it onto its own components — then
    /// exactly one reply per worker (one outcome per tick, in global ids),
    /// received in shard order and merged, and finally the rebalancer's
    /// turn, which may migrate one component before the call returns.
    /// Durable fleets append each batch's WAL records with a single
    /// buffered write per shard and apply the group-commit [`SyncPolicy`]
    /// at the batch boundary.  Rotation runs *before* dispatch, whenever
    /// the tick count crossed a multiple of `snapshot_interval` since the
    /// last rotation, so a rotation failure surfaces before any tick of
    /// this batch is processed and the caller can safely retry the same
    /// batch.
    ///
    /// An error from any shard — a bad tick mid-batch, a WAL append or
    /// group-commit fsync failure — poisons the engine, because the shards
    /// (and the prefix of the batch each of them committed) may no longer
    /// agree; subsequent calls keep failing.  An empty batch is a no-op.
    pub fn process_batch(&mut self, ticks: &[StreamTick]) -> Result<Vec<EngineOutcome>, TsError> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        if ticks.is_empty() {
            return Ok(Vec::new());
        }
        for tick in ticks {
            if tick.width() != self.partition.width() {
                return Err(TsError::LengthMismatch {
                    left: tick.width(),
                    right: self.partition.width(),
                    context: "stream tick width vs fleet width",
                });
            }
        }
        // Rotation bounds recovery time and log growth to
        // `snapshot_interval + batch` ticks.
        if self.rotation_due() {
            self.rotate()?;
        }
        let batch: Arc<[StreamTick]> = Arc::from(ticks);
        for worker in &self.workers {
            worker
                .jobs
                .send(Job::Batch(Arc::clone(&batch)))
                .map_err(|_| worker_died())?;
        }
        tkcm_obs::recorder().record(
            "batch_submitted",
            vec![("ticks", tkcm_obs::FieldValue::U64(ticks.len() as u64))],
        );
        let outcomes = self.complete_batch(ticks.len())?;
        self.rebalance()?;
        Ok(outcomes)
    }

    /// Whether the tick count crossed a rotation interval since the last
    /// rotation (for per-tick ingestion this fires exactly at the
    /// multiples; a large batch that jumps several multiples rotates once).
    fn rotation_due(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| {
            d.snapshot_interval > 0
                && self.tick_count / d.snapshot_interval > d.last_rotation / d.snapshot_interval
        })
    }

    /// Checkpoints a durable fleet into its own directory (snapshots
    /// rewritten, WALs truncated) and records the tick count it ran at; a
    /// plain fleet has nothing to rotate.
    fn rotate(&mut self) -> Result<(), TsError> {
        let Some(dir) = self.durable.as_ref().map(|d| d.dir.clone()) else {
            return Ok(());
        };
        self.checkpoint_inner(&dir)?;
        let rotated = self.tick_count;
        if let Some(durable) = &mut self.durable {
            durable.last_rotation = rotated;
        }
        Ok(())
    }

    /// The batch's barrier: exactly one reply per worker, received in shard
    /// order so the merge never depends on scheduling.  Each reply holds one
    /// outcome per tick in global ids; the merge appends the shards'
    /// imputations and skips tick by tick and sorts them by series.  Returns
    /// the `len` merged outcomes; load reports feed the EWMAs and the
    /// trigger.
    fn complete_batch(&mut self, len: usize) -> Result<Vec<EngineOutcome>, TsError> {
        let wait_started = Instant::now();
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            match worker.results.recv() {
                Ok(reply) => replies.push(reply),
                Err(_) => {
                    self.mark_poisoned("a shard worker thread exited unexpectedly");
                    return Err(worker_died());
                }
            }
        }
        BARRIER_WAIT_NANOS.record_duration(wait_started.elapsed());
        let mut merged: Option<Vec<EngineOutcome>> = None;
        let mut loads: Vec<ShardLoad> = Vec::with_capacity(self.workers.len());
        let mut first_error = None;
        for reply in replies {
            match reply {
                Reply::Batch(Ok((outcomes, load))) => {
                    if outcomes.len() != len {
                        self.mark_poisoned(
                            "worker protocol violation: wrong outcome count for a batch",
                        );
                        return Err(TsError::invalid(
                            "engine",
                            "worker protocol violation: wrong outcome count for a batch",
                        ));
                    }
                    if first_error.is_none() {
                        match &mut merged {
                            None => merged = Some(outcomes),
                            Some(merged) => {
                                for (into, mut outcome) in merged.iter_mut().zip(outcomes) {
                                    into.imputations.append(&mut outcome.imputations);
                                    into.skipped.append(&mut outcome.skipped);
                                }
                            }
                        }
                    }
                    loads.push(load);
                }
                Reply::Batch(Err(e)) => {
                    first_error = first_error.or(Some(e));
                    loads.push(ShardLoad::default());
                }
                _ => {
                    self.mark_poisoned("worker protocol violation: non-batch reply to a batch");
                    return Err(TsError::invalid(
                        "engine",
                        "worker protocol violation: non-batch reply to a batch",
                    ));
                }
            }
        }
        if let Some(e) = first_error {
            self.mark_poisoned(&e.to_string());
            return Err(e);
        }
        let mut merged = merged.unwrap_or_default();
        for outcome in &mut merged {
            outcome.imputations.sort_by_key(|i| i.series);
            outcome.skipped.sort_unstable();
            self.imputation_count += outcome.imputations.len();
        }
        self.tick_count += len;
        self.loads.observe(&loads, len);
        for (shard, load) in loads.iter().enumerate() {
            if let Some(histogram) = self.obs.batch_nanos.get(shard) {
                histogram.record(load.nanos);
            }
            if let (Some(gauge), Some(ewma)) =
                (self.obs.ewma_nanos.get(shard), self.loads.shard_ewma[shard])
            {
                gauge.set(ewma);
            }
        }
        Ok(merged)
    }

    /// The rebalancer's turn at the end of a batch: when rebalancing is on,
    /// executes the migration [`LoadTracker::pick_migration`] picks, if any.
    fn rebalance(&mut self) -> Result<(), TsError> {
        if !self.rebalancing {
            return Ok(());
        }
        let Some((component, to_shard)) = self.loads.pick_migration(&self.partition) else {
            return Ok(());
        };
        MIGRATIONS_TRIGGERED.inc();
        tkcm_obs::recorder().record(
            "migration_triggered",
            vec![
                ("component", tkcm_obs::FieldValue::U64(component as u64)),
                (
                    "from",
                    tkcm_obs::FieldValue::U64(self.partition.shard_of_component(component) as u64),
                ),
                ("to", tkcm_obs::FieldValue::U64(to_shard as u64)),
            ],
        );
        self.execute_migration(component, to_shard)
    }

    /// Moves one component's engine from its current shard to `to_shard`
    /// through the job channels (snapshot codec, bit-exact state), commits the
    /// new live mapping into the partition (version bump + migration log)
    /// and — for durable fleets — persists it with a checkpoint at the new
    /// version, whose manifest rename is the commit point.  Any failure on
    /// this path poisons the fleet: the engine may be neither here nor
    /// there.
    fn execute_migration(&mut self, component: usize, to_shard: usize) -> Result<(), TsError> {
        let from = self.partition.shard_of_component(component);
        if from == to_shard {
            return Ok(());
        }
        let result = self.execute_migration_inner(component, from, to_shard);
        if let Err(error) = &result {
            self.mark_poisoned(&format!(
                "migration of component {component} from shard {from} to {to_shard} failed: \
                 {error}"
            ));
        }
        result
    }

    fn execute_migration_inner(
        &mut self,
        component: usize,
        from: usize,
        to_shard: usize,
    ) -> Result<(), TsError> {
        self.workers[from]
            .jobs
            .send(Job::Extract(component))
            .map_err(|_| worker_died())?;
        let (engine, members) = match self.workers[from]
            .results
            .recv()
            .map_err(|_| worker_died())?
        {
            Reply::Extracted(result) => result?,
            _ => {
                return Err(TsError::invalid(
                    "engine",
                    "worker protocol violation: non-extract reply to an extract",
                ))
            }
        };
        self.workers[to_shard]
            .jobs
            .send(Job::Install {
                component,
                engine,
                members,
            })
            .map_err(|_| worker_died())?;
        match self.workers[to_shard]
            .results
            .recv()
            .map_err(|_| worker_died())?
        {
            Reply::Installed(result) => result?,
            _ => {
                return Err(TsError::invalid(
                    "engine",
                    "worker protocol violation: non-install reply to an install",
                ))
            }
        }
        self.partition
            .migrate(component, to_shard, self.tick_count as u64)?;
        self.loads.after_migration(component, from, to_shard);
        self.rotate()?;
        MIGRATIONS_COMMITTED.inc();
        tkcm_obs::recorder().record(
            "migration_committed",
            vec![
                ("component", tkcm_obs::FieldValue::U64(component as u64)),
                ("from", tkcm_obs::FieldValue::U64(from as u64)),
                ("to", tkcm_obs::FieldValue::U64(to_shard as u64)),
                (
                    "version",
                    tkcm_obs::FieldValue::U64(self.partition.version()),
                ),
            ],
        );
        Ok(())
    }

    /// Fault injection for the durability tests: every worker's subsequent
    /// WAL fsync fails, the way a dying device's would.
    #[cfg(test)]
    fn inject_sync_failures(&mut self) {
        for worker in &self.workers {
            worker.jobs.send(Job::InjectSyncFailures).unwrap();
        }
        for worker in &self.workers {
            assert!(matches!(
                worker.results.recv().unwrap(),
                Reply::SyncFailuresInjected
            ));
        }
    }

    /// Poisons the fleet and captures the crash context: a `fleet_poisoned`
    /// event plus a flight-recorder dump — into the durability directory
    /// when there is one (next to the data whose last moments it narrates),
    /// the OS temp directory otherwise.  Dump failures are swallowed: the
    /// poison path must stay infallible, and the poison itself is already
    /// the primary signal.
    fn mark_poisoned(&mut self, reason: &str) {
        if self.poisoned {
            return;
        }
        self.poisoned = true;
        tkcm_obs::recorder().record(
            "fleet_poisoned",
            vec![
                ("reason", tkcm_obs::FieldValue::Text(reason.to_string())),
                (
                    "ticks_processed",
                    tkcm_obs::FieldValue::U64(self.tick_count as u64),
                ),
            ],
        );
        let dir = self
            .durable
            .as_ref()
            .map(|d| d.dir.clone())
            .unwrap_or_else(std::env::temp_dir);
        let _ = tkcm_obs::recorder().dump_to_dir(&dir, "poisoned");
    }

    /// A point-in-time observability report as a single JSON document:
    /// fleet shape and counters, every metric in the process-global
    /// registry, and the flight recorder's recent events.  Strictly
    /// read-side (rendering never mutates engine state) and deliberately
    /// callable on a poisoned fleet — that is when it is most useful.
    pub fn observability_report(&self) -> String {
        format!(
            "{{\"fleet\":{{\"shards\":{},\"components\":{},\"ticks_processed\":{},\
             \"imputations\":{},\"migrations\":{},\"poisoned\":{}}},\
             \"metrics\":{},\"flight_recorder\":{}}}",
            self.workers.len(),
            self.partition.component_count(),
            self.tick_count,
            self.imputation_count,
            self.migrations_performed(),
            self.poisoned,
            tkcm_obs::export::render_json(tkcm_obs::registry()),
            tkcm_obs::recorder().render_json(),
        )
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Workers that already exited (send fails) are simply joined.
            let _ = worker.jobs.send(Job::Stop);
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_died() -> TsError {
    TsError::invalid("engine", "a shard worker thread exited unexpectedly")
}

fn poisoned_error() -> TsError {
    TsError::invalid(
        "engine",
        "a previous tick failed on one shard; the fleet is out of sync",
    )
}

/// Builds every shard's worker payload at construction: one engine per
/// component assigned to the shard, over the component-local catalog.
fn build_shards(
    partition: &FleetPartition,
    config: &TkcmConfig,
    catalog: &Catalog,
) -> Result<Vec<ShardSnapshot>, TsError> {
    (0..partition.shard_count())
        .map(|shard| {
            let mut engines = Vec::new();
            for component in partition.components_on(shard) {
                let local_catalog = partition.component_catalog(component, catalog)?;
                let engine = TkcmEngine::new(
                    partition.component_members(component).len(),
                    config.clone(),
                    local_catalog,
                )?;
                engines.push((component, engine));
            }
            Ok(ShardSnapshot { engines })
        })
        .collect()
}

/// A shard snapshot must carry exactly the components the partition assigns
/// to the shard, each engine at its component's width.
fn validate_shard_snapshot(
    partition: &FleetPartition,
    shard: usize,
    snapshot: &ShardSnapshot,
) -> Result<(), TsError> {
    let expected = partition.components_on(shard);
    let got: Vec<usize> = snapshot.engines.iter().map(|(c, _)| *c).collect();
    if got != expected {
        return Err(TsError::invalid(
            "engine",
            format!(
                "shard {shard} snapshot carries components {got:?} but the manifest assigns \
                 {expected:?}"
            ),
        ));
    }
    for (component, engine) in &snapshot.engines {
        if engine.window().width() != partition.component_members(*component).len() {
            return Err(TsError::invalid(
                "engine",
                format!(
                    "component {component} snapshot width {} does not match the manifest \
                     partition",
                    engine.window().width()
                ),
            ));
        }
    }
    Ok(())
}

/// Every WAL record must name a component the partition assigns to the
/// shard whose log it sits in.
fn validate_shard_records(
    partition: &FleetPartition,
    shard: usize,
    records: &[ShardWalRecord],
) -> Result<(), TsError> {
    for record in records {
        if record.component >= partition.component_count()
            || partition.shard_of_component(record.component) != shard
        {
            return Err(TsError::invalid(
                "engine",
                format!(
                    "shard {shard} WAL names component {} which the manifest does not assign to \
                     it",
                    record.component
                ),
            ));
        }
    }
    Ok(())
}

/// Replays every shard's records up to the fleet-wide recovery point,
/// routing each record to its component's engine, and verifies every
/// engine landed exactly there.
fn replay_shards(
    shards: &mut [ShardSnapshot],
    logs: &[Vec<ShardWalRecord>],
    reachable: Option<Timestamp>,
) -> Result<(), TsError> {
    for (shard, (snapshot, records)) in shards.iter_mut().zip(logs).enumerate() {
        if let Some(limit) = reachable {
            for (component, engine) in &snapshot.engines {
                if engine.window().current_time().is_some_and(|t| t > limit) {
                    return Err(TsError::invalid(
                        "engine",
                        format!(
                            "component {component} on shard {shard} is snapshotted ahead of the \
                             fleet-wide recovery point {limit}; the checkpoint directory is \
                             inconsistent"
                        ),
                    ));
                }
            }
            for record in records.iter().filter(|r| r.entry.tick.time <= limit) {
                let engine = snapshot
                    .engines
                    .iter_mut()
                    .find(|(c, _)| *c == record.component)
                    .map(|(_, e)| e)
                    .expect("record components were validated against the assignment");
                engine.apply_wal_entry(&record.entry)?;
            }
        }
        for (component, engine) in &snapshot.engines {
            if engine.window().current_time() != reachable {
                return Err(TsError::invalid(
                    "engine",
                    format!(
                        "component {component} on shard {shard} recovered to {:?} instead of the \
                         fleet-wide {reachable:?}",
                        engine.window().current_time()
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Every recovered engine must agree on the number of processed ticks;
/// that shared count is the fleet's.
fn fleet_tick_count(shards: &[ShardSnapshot]) -> Result<usize, TsError> {
    let mut engines = shards.iter().flat_map(|s| s.engines.iter().map(|(_, e)| e));
    let tick_count = engines.next().map(|e| e.ticks_processed()).unwrap_or(0);
    if engines.any(|e| e.ticks_processed() != tick_count) {
        return Err(TsError::invalid(
            "engine",
            "recovered components disagree on the number of processed ticks",
        ));
    }
    Ok(tick_count)
}

/// Whether two paths name the same directory (resolving symlinks/`..`; falls
/// back to lexical equality while either does not exist yet).
fn same_directory(a: &Path, b: &Path) -> bool {
    match (a.canonicalize(), b.canonicalize()) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

/// The CPU clock of the thread that opened it, from the kernel's
/// per-thread scheduler accounting (`schedstat` field 1).  Unlike
/// wall-clock timing this excludes time spent preempted by other runnable
/// threads, so per-shard load reports stay meaningful when the fleet has
/// more workers than cores.  The file is opened once, on the thread it
/// measures (`thread-self` resolves at open time), and re-read from offset
/// 0 for every reading.
struct CpuClock(Option<File>);

impl CpuClock {
    /// The calling thread's clock; without the accounting file (non-Linux,
    /// schedstats compiled out) every reading is `None`.
    fn of_this_thread() -> CpuClock {
        CpuClock(File::open("/proc/thread-self/schedstat").ok())
    }

    /// Nanoseconds of CPU time the thread has accumulated, or `None` where
    /// the accounting is unavailable; callers keep their wall-clock sums.
    fn nanos(&self) -> Option<u64> {
        let mut buf = [0u8; 64];
        let len = read_from_start(self.0.as_ref()?, &mut buf)?;
        let stat = std::str::from_utf8(buf.get(..len)?).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }
}

#[cfg(unix)]
fn read_from_start(file: &File, buf: &mut [u8]) -> Option<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(buf, 0).ok()
}

#[cfg(not(unix))]
fn read_from_start(_: &File, _: &mut [u8]) -> Option<usize> {
    None
}

/// One component as its worker sees the fleet's ticks: its members, and the
/// sub-tick those members' readings are projected into, reused tick after
/// tick.
struct Lane {
    /// Global ids of the component's members, ascending: local id `i` is
    /// `members[i]`.
    members: Vec<SeriesId>,
    sub: StreamTick,
}

impl Lane {
    fn new(members: Vec<SeriesId>) -> Lane {
        let sub = StreamTick::new(Timestamp::new(0), Vec::with_capacity(members.len()));
        Lane { members, sub }
    }

    /// Moves one outcome of this component into the shard's outcome for the
    /// same tick, remapping every component-local id to global space.
    fn merge_into(&self, mut outcome: EngineOutcome, merged: &mut EngineOutcome) {
        let to_global = |local: SeriesId| self.members[local.index()];
        for imputation in &mut outcome.imputations {
            imputation.series = to_global(imputation.series);
            imputation.detail.series = imputation.series;
            for r in &mut imputation.detail.references {
                *r = to_global(*r);
            }
        }
        for skipped in &mut outcome.skipped {
            *skipped = to_global(*skipped);
        }
        merged.imputations.append(&mut outcome.imputations);
        merged.skipped.append(&mut outcome.skipped);
    }
}

/// Everything a worker thread owns: its components' engines (the shard
/// snapshot it checkpoints), aligned with them one [`Lane`] per component,
/// its WAL and its CPU clock.
struct ShardWorker {
    snapshot: ShardSnapshot,
    lanes: Vec<Lane>,
    wal: Option<WalWriter>,
    policy: SyncPolicy,
    clock: CpuClock,
}

impl ShardWorker {
    /// Processes the fleet's batch on the worker's engines: every tick is
    /// projected onto each component, processed, and — for durable fleets —
    /// its WAL record is framed straight from the sub-tick and the outcome
    /// into the log's pending batch (tick-major), before the outcome is
    /// remapped into the shard's outcome for that tick.  The whole batch is
    /// appended with one buffered write before the reply: once the fleet
    /// barriers on this batch, the records are on disk (and fsynced, when
    /// the group-commit policy said so).
    ///
    /// A tick that fails mid-batch stops processing there; the records of
    /// the committed prefix (all components of earlier ticks, plus the
    /// components that completed the failing tick before the error) are
    /// still appended — exactly what the per-tick path would have logged —
    /// and the engine error is reported, poisoning the fleet.  That prefix
    /// is real, durable history: recovery's per-component reconciliation
    /// resumes *after* it.  On that path the engine error is the root cause
    /// the fleet reports; a secondary append/sync failure while logging the
    /// prefix does not shadow it, and the policy sync is skipped.  A record
    /// that fails to frame ends the batch the same way.
    fn batch(&mut self, ticks: &[StreamTick]) -> Result<BatchReply, TsError> {
        let mut outcomes = Vec::with_capacity(ticks.len());
        let mut load = ShardLoad {
            nanos: 0,
            component_nanos: self.snapshot.engines.iter().map(|(c, _)| (*c, 0)).collect(),
        };
        let cpu_started = self.clock.nanos();
        let mut failure = None;
        'ticks: for tick in ticks {
            let mut merged = EngineOutcome::default();
            let components = self.snapshot.engines.iter_mut().zip(&mut self.lanes);
            for (idx, ((component, engine), lane)) in components.enumerate() {
                let started = Instant::now();
                tick.project_into(&lane.members, &mut lane.sub);
                let outcome = match engine.process_tick(&lane.sub) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        failure = Some(e);
                        break 'ticks;
                    }
                };
                if let Some(wal) = &mut self.wal {
                    let framed = wal.stage(|enc| {
                        ShardWalRecord::write_outcome(*component, &lane.sub, &outcome, enc)
                    });
                    if let Err(e) = framed {
                        failure = Some(e.into());
                        break 'ticks;
                    }
                }
                lane.merge_into(outcome, &mut merged);
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                load.component_nanos[idx].1 += nanos;
                load.nanos += nanos;
            }
            outcomes.push(merged);
        }
        // Re-base the load report on the thread's CPU time for the whole
        // tick loop: the per-component wall clocks above keep the
        // *relative* component shares, but their sum also counts time this
        // thread spent preempted — on a host with more workers than cores
        // (CI runners, single-core boxes) that noise dwarfs the real skew
        // and the rebalancer would chase scheduling ghosts.  Where the
        // kernel offers no per-thread accounting, the wall sums stand as
        // measured.
        if let (Some(started), Some(ended), false) =
            (cpu_started, self.clock.nanos(), load.nanos == 0)
        {
            let cpu = ended.saturating_sub(started);
            if cpu > 0 {
                let scale = cpu as f64 / load.nanos as f64;
                for (_, nanos) in &mut load.component_nanos {
                    *nanos = (*nanos as f64 * scale) as u64;
                }
                load.nanos = cpu;
            }
        }
        if let Some(wal) = &mut self.wal {
            let logged = wal
                .commit()
                .map_err(TsError::from)
                .and_then(|_| match failure {
                    // A sync failure propagates to the fleet engine (which
                    // poisons itself): after a failed fsync the kernel may
                    // have dropped the dirty pages, so the durable prefix of
                    // the log is unknowable.
                    None if self.policy == SyncPolicy::EveryBatch => {
                        wal.sync().map_err(TsError::from)
                    }
                    _ => Ok(()),
                });
            if failure.is_none() {
                logged?;
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok((outcomes, load)),
        }
    }

    /// The donor half of a migration: serialise the component's engine
    /// through the snapshot codec (bit-exact state) and hand it off with its
    /// member list, removing both from this worker.
    fn extract(&mut self, component: usize) -> Result<(Vec<u8>, Vec<SeriesId>), TsError> {
        let pos = self
            .snapshot
            .engines
            .iter()
            .position(|(c, _)| *c == component)
            .ok_or_else(|| {
                TsError::invalid(
                    "engine",
                    format!("component {component} is not on this shard"),
                )
            })?;
        let bytes = encode_to_vec(&self.snapshot.engines[pos].1)?;
        self.snapshot.engines.remove(pos);
        Ok((bytes, self.lanes.remove(pos).members))
    }

    /// The receiver half of a migration: decode and adopt the engine with
    /// its member list, keeping the component list strictly ascending.
    fn install(
        &mut self,
        component: usize,
        bytes: &[u8],
        members: Vec<SeriesId>,
    ) -> Result<(), TsError> {
        if self.snapshot.engines.iter().any(|(c, _)| *c == component) {
            return Err(TsError::invalid(
                "engine",
                format!("component {component} is already on this shard"),
            ));
        }
        let engine: TkcmEngine = decode_from_slice(bytes)?;
        let pos = self
            .snapshot
            .engines
            .iter()
            .position(|(c, _)| *c > component)
            .unwrap_or(self.snapshot.engines.len());
        self.snapshot.engines.insert(pos, (component, engine));
        self.lanes.insert(pos, Lane::new(members));
        Ok(())
    }
}

/// Writes the worker's snapshot and, when asked, truncates its WAL (only
/// after the snapshot safely renamed into place — on a snapshot error the
/// old log keeps growing and stale records are skipped at replay).  Under
/// [`SyncPolicy::EveryBatch`] that rotation is power-failure durable: the
/// snapshot is fsynced before the log is reset (see [`WalWriter::rotate`]).
fn worker_checkpoint(
    snapshot: &ShardSnapshot,
    wal: &mut Option<WalWriter>,
    policy: SyncPolicy,
    snapshot_path: &Path,
    reset_wal: Option<&Path>,
) -> Result<u64, TsError> {
    match (wal, reset_wal) {
        (Some(wal), Some(wal_path)) => Ok(wal.rotate(
            snapshot_path,
            snapshot,
            wal_path,
            policy == SyncPolicy::EveryBatch,
        )?),
        _ => Ok(write_snapshot_file(snapshot_path, snapshot)?),
    }
}

/// Spawns the worker thread of one shard: `members` holds each of the
/// snapshot's components' member lists, in the snapshot's order.
fn spawn_worker(
    snapshot: ShardSnapshot,
    members: Vec<Vec<SeriesId>>,
    wal: Option<WalWriter>,
    policy: SyncPolicy,
) -> Worker {
    let (jobs, job_rx) = channel::<Job>();
    let (result_tx, results) = channel();
    let handle = std::thread::spawn(move || {
        let mut worker = ShardWorker {
            snapshot,
            lanes: members.into_iter().map(Lane::new).collect(),
            wal,
            policy,
            clock: CpuClock::of_this_thread(),
        };
        loop {
            let reply = match job_rx.recv() {
                Ok(Job::Batch(batch)) => {
                    // The span closes (and lands in the flight recorder)
                    // before the reply is sent, so a poison dump always
                    // contains the spans of the batches that preceded —
                    // and, for a WAL failure, caused — the crash.
                    let _span = tkcm_obs::span("worker_batch");
                    Reply::Batch(worker.batch(&batch))
                }
                Ok(Job::Checkpoint {
                    snapshot_path,
                    reset_wal,
                }) => Reply::Checkpoint(worker_checkpoint(
                    &worker.snapshot,
                    &mut worker.wal,
                    worker.policy,
                    &snapshot_path,
                    reset_wal.as_deref(),
                )),
                Ok(Job::Extract(component)) => Reply::Extracted(worker.extract(component)),
                Ok(Job::Install {
                    component,
                    engine,
                    members,
                }) => Reply::Installed(worker.install(component, &engine, members)),
                #[cfg(test)]
                Ok(Job::InjectSyncFailures) => {
                    if let Some(wal) = &mut worker.wal {
                        wal.inject_sync_failures();
                    }
                    Reply::SyncFailuresInjected
                }
                Ok(Job::Stop) | Err(_) => break,
            };
            if result_tx.send(reply).is_err() {
                break; // the ShardedEngine is gone
            }
        }
    });
    Worker {
        jobs,
        results,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::Timestamp;

    fn small_config() -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(96)
            .pattern_length(3)
            .anchor_count(2)
            .reference_count(2)
            .build()
            .unwrap()
    }

    /// Engines (and thus worker payloads) must be sendable across threads.
    #[test]
    fn engine_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TkcmEngine>();
        assert_send::<ShardedEngine>();
    }

    #[test]
    fn the_cpu_clock_advances_on_re_reads_of_one_open_file() {
        let clock = CpuClock::of_this_thread();
        let Some(before) = clock.nanos() else {
            return; // no per-thread accounting on this platform
        };
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = clock.nanos().expect("the clock read once");
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn width_mismatch_and_poisoning() {
        let mut engine =
            ShardedEngine::new(4, small_config(), Catalog::ring_neighbours(4), 2).unwrap();
        let bad = StreamTick::new(Timestamp::new(0), vec![Some(1.0); 3]);
        assert!(engine.process_tick(&bad).is_err());
        // A non-advancing timestamp fails inside every shard and poisons the
        // fleet engine.
        let t0 = StreamTick::new(Timestamp::new(0), vec![Some(1.0); 4]);
        engine.process_tick(&t0).unwrap();
        assert!(engine.process_tick(&t0).is_err());
        let t1 = StreamTick::new(Timestamp::new(1), vec![Some(1.0); 4]);
        assert!(
            engine.process_tick(&t1).is_err(),
            "engine must stay poisoned"
        );
    }

    #[test]
    fn counters_accumulate_across_shards() {
        let width = 6;
        let mut catalog = Catalog::new();
        for pair in 0..3usize {
            let a = SeriesId::from(2 * pair);
            let b = SeriesId::from(2 * pair + 1);
            catalog.set_candidates(a, vec![b]).unwrap();
            catalog.set_candidates(b, vec![a]).unwrap();
        }
        let mut engine = ShardedEngine::new(width, small_config(), catalog, 3).unwrap();
        assert_eq!(engine.shard_count(), 3);
        for t in 0..80usize {
            let missing = t == 79;
            let values = (0..width)
                .map(|s| {
                    if missing && s % 2 == 0 {
                        None
                    } else {
                        Some(((t + 3 * s) as f64 * 0.4).sin())
                    }
                })
                .collect();
            let outcome = engine
                .process_tick(&StreamTick::new(Timestamp::new(t as i64), values))
                .unwrap();
            if missing {
                assert_eq!(outcome.imputations.len(), 3);
                // Deterministic global ordering.
                let ids: Vec<SeriesId> = outcome.imputations.iter().map(|i| i.series).collect();
                assert_eq!(ids, vec![SeriesId(0), SeriesId(2), SeriesId(4)]);
                for imputation in &outcome.imputations {
                    assert_eq!(imputation.detail.references.len(), 1);
                    assert_eq!(
                        imputation.detail.references[0],
                        SeriesId::from(imputation.series.index() + 1),
                        "references must be reported in global id space"
                    );
                }
            }
        }
        assert_eq!(engine.ticks_processed(), 80);
        assert_eq!(engine.imputations_performed(), 3);
    }

    #[test]
    fn batch_errors_poison_and_report_the_first_failure() {
        let mut engine =
            ShardedEngine::new(4, small_config(), Catalog::ring_neighbours(4), 2).unwrap();
        let good = |t: i64| StreamTick::new(Timestamp::new(t), vec![Some(1.0); 4]);
        engine.process_batch(&[good(0), good(1)]).unwrap();
        assert_eq!(engine.ticks_processed(), 2);
        // Tick 2 of this batch repeats a timestamp: every shard errors
        // mid-batch and the fleet poisons.
        assert!(engine.process_batch(&[good(2), good(2)]).is_err());
        assert!(
            engine.process_batch(&[good(3)]).is_err(),
            "must stay poisoned"
        );
        assert!(engine.process_tick(&good(4)).is_err(), "must stay poisoned");
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut engine =
            ShardedEngine::new(2, small_config(), Catalog::ring_neighbours(2), 1).unwrap();
        assert!(engine.process_batch(&[]).unwrap().is_empty());
        assert_eq!(engine.ticks_processed(), 0);
    }

    #[test]
    fn forced_migrations_move_components_without_changing_outcomes() {
        let width = 8usize;
        // Four pair-components over two shards.
        let mut catalog = Catalog::new();
        for pair in 0..4usize {
            let a = SeriesId::from(2 * pair);
            let b = SeriesId::from(2 * pair + 1);
            catalog.set_candidates(a, vec![b]).unwrap();
            catalog.set_candidates(b, vec![a]).unwrap();
        }
        let tick = |t: usize| {
            let values = (0..width)
                .map(|s| {
                    if t >= 70 && t.is_multiple_of(5) && s.is_multiple_of(2) {
                        None
                    } else {
                        Some(((t + 2 * s) as f64 * 0.27).sin())
                    }
                })
                .collect();
            StreamTick::new(Timestamp::new(t as i64), values)
        };
        let mut static_fleet =
            ShardedEngine::new(width, small_config(), catalog.clone(), 2).unwrap();
        let mut elastic = ShardedEngine::new(width, small_config(), catalog, 2).unwrap();

        let mut expected = Vec::new();
        let mut got = Vec::new();
        for chunk in 0..20usize {
            let batch: Vec<StreamTick> = (chunk * 5..chunk * 5 + 5).map(tick).collect();
            expected.extend(static_fleet.process_batch(&batch).unwrap());
            got.extend(elastic.process_batch(&batch).unwrap());
            if chunk == 7 {
                // Move component 0 off shard 0 mid-stream...
                elastic.force_migration(0, 1).unwrap();
            }
            if chunk == 13 {
                // ...and back.
                elastic.force_migration(0, 0).unwrap();
            }
        }
        assert_eq!(elastic.migrations_performed(), 2);
        assert_eq!(elastic.partition().shard_of_component(0), 0);
        assert_eq!(elastic.partition().version(), 2);
        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a, b);
        }
        // Migrating a component already in place is a no-op.
        elastic
            .force_migration(1, elastic.partition().shard_of_component(1))
            .unwrap();
        assert_eq!(elastic.migrations_performed(), 2);
        // Unknown ids are rejected eagerly.
        assert!(elastic.force_migration(99, 0).is_err());
        assert!(elastic.force_migration(0, 99).is_err());
    }

    /// A two-or-more-shard partition of singleton components (one per
    /// series, no candidate edges) with component `c` on shard `layout[c]`.
    fn singleton_layout(layout: &[usize], shards: usize) -> FleetPartition {
        let mut partition = FleetPartition::new(layout.len(), &Catalog::new(), shards).unwrap();
        assert_eq!(partition.component_count(), layout.len());
        for (component, &shard) in layout.iter().enumerate() {
            if partition.shard_of_component(component) != shard {
                partition.migrate(component, shard, 0).unwrap();
            }
        }
        partition
    }

    /// A made-up load report: the shard's nanos and its per-component
    /// breakdown.
    fn load(nanos: u64, component_nanos: &[(usize, u64)]) -> ShardLoad {
        ShardLoad {
            nanos,
            component_nanos: component_nanos.to_vec(),
        }
    }

    #[test]
    fn rebalancer_waits_out_its_patience_and_cooldown_and_picks_the_heaviest_fitting_component() {
        // Shard 0 runs components 0, 1 and 2 at 10, 50 and 100 ns a tick,
        // shard 1 runs component 3 at 70: the gap is 90, so component 2
        // does not fit and component 1 is the heaviest that does.
        let partition = singleton_layout(&[0, 0, 0, 1], 2);
        let mut loads = LoadTracker::new(&partition);
        let storm = [
            load(160, &[(0, 10), (1, 50), (2, 100)]),
            load(70, &[(3, 70)]),
        ];
        for _ in 1..PATIENCE {
            loads.observe(&storm, 1);
            assert_eq!(loads.pick_migration(&partition), None);
        }
        loads.observe(&storm, 1);
        assert_eq!(loads.pick_migration(&partition), Some((1, 1)));
        // Had the move not helped (the same loads keep arriving), the
        // trigger rests for the cooldown and then counts its patience anew.
        loads.after_migration(1, 0, 1);
        for _ in 0..COOLDOWN_BATCHES + PATIENCE - 1 {
            loads.observe(&storm, 1);
            assert_eq!(loads.pick_migration(&partition), None);
        }
        loads.observe(&storm, 1);
        assert_eq!(loads.pick_migration(&partition), Some((1, 1)));
    }

    #[test]
    fn rebalancer_needs_a_strict_fit_and_breaks_ties_towards_the_smaller_id() {
        // The gap is 100 - 40 = 60: component 2 (60) does not fit strictly,
        // and components 0 and 1 tie at 20.
        let partition = singleton_layout(&[0, 0, 0, 1], 2);
        let mut loads = LoadTracker::new(&partition);
        for _ in 0..PATIENCE {
            loads.observe(
                &[
                    load(100, &[(0, 20), (1, 20), (2, 60)]),
                    load(40, &[(3, 40)]),
                ],
                1,
            );
        }
        assert_eq!(loads.pick_migration(&partition), Some((0, 1)));
    }

    #[test]
    fn rebalancer_never_steals_a_shards_last_component() {
        // Shard 0's only component fits the gap (40 < 100 - 20; the rest
        // of the shard's time is not attributed to it), but moving it would
        // leave shard 0 empty.
        let partition = singleton_layout(&[0, 1, 1], 2);
        let mut loads = LoadTracker::new(&partition);
        for _ in 0..2 * PATIENCE {
            loads.observe(&[load(100, &[(0, 40)]), load(20, &[(1, 10), (2, 10)])], 1);
            assert_eq!(loads.pick_migration(&partition), None);
        }
    }

    #[test]
    fn failed_fsync_under_any_sync_policy_poisons_the_fleet() {
        // `EveryBatch` is the one policy that fsyncs on the tick path, so
        // the first batch hits the injected failure.
        let dir = std::env::temp_dir().join(format!("tkcm-sync-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = ShardedEngine::with_durability(
            4,
            small_config(),
            Catalog::ring_neighbours(4),
            2,
            &dir,
            DurabilityOptions {
                snapshot_interval: 0,
                sync_policy: SyncPolicy::EveryBatch,
            },
        )
        .unwrap();
        engine.inject_sync_failures();
        let batch: Vec<StreamTick> = (0..4)
            .map(|t| StreamTick::new(Timestamp::new(t), vec![Some(1.0); 4]))
            .collect();
        assert!(
            engine.process_batch(&batch).is_err(),
            "failed fsync must surface"
        );
        assert!(
            engine
                .process_tick(&StreamTick::new(Timestamp::new(4), vec![Some(1.0); 4]))
                .is_err(),
            "the fleet must stay poisoned after a failed fsync"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policy_never_ignores_fsync_failures() {
        // Under `Never` no fsync is issued on the tick path at all, so the
        // injected failure is never hit: the fleet keeps running.
        let dir = std::env::temp_dir().join(format!("tkcm-sync-never-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = ShardedEngine::with_durability(
            2,
            small_config(),
            Catalog::ring_neighbours(2),
            1,
            &dir,
            DurabilityOptions {
                snapshot_interval: 0,
                sync_policy: SyncPolicy::Never,
            },
        )
        .unwrap();
        engine.inject_sync_failures();
        for t in 0..8i64 {
            engine
                .process_tick(&StreamTick::new(Timestamp::new(t), vec![Some(1.0); 2]))
                .unwrap();
        }
        assert_eq!(engine.ticks_processed(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint of a durable 2-shard fleet that has processed 48 ticks
    /// (with outages, so it imputes), taken after every worker's syncs were
    /// made to fail.  Returns the checkpoint's outcome and whether the WALs
    /// kept every byte; the directory is then recovered and continued next
    /// to an uninterrupted fleet, which must match it bit for bit.
    fn checkpoint_with_failing_syncs(
        policy: SyncPolicy,
    ) -> (Result<CheckpointStats, TsError>, bool) {
        let dir = std::env::temp_dir().join(format!(
            "tkcm-sync-rotation-{policy:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let width = 4;
        let tick = |t: usize| {
            let values = (0..width)
                .map(|s| {
                    let outage = t > 20 && (t + 3 * s) % 9 < 2;
                    (!outage).then(|| ((t + 2 * s) as f64 * 0.37).sin() * (1.0 + s as f64))
                })
                .collect();
            StreamTick::new(Timestamp::new(t as i64), values)
        };
        let options = DurabilityOptions {
            snapshot_interval: 0,
            sync_policy: policy,
        };
        let catalog = Catalog::ring_neighbours(width);
        let mut fleet = ShardedEngine::with_durability(
            width,
            small_config(),
            catalog.clone(),
            2,
            &dir,
            options,
        )
        .unwrap();
        let mut reference = ShardedEngine::new(width, small_config(), catalog, 2).unwrap();
        let first: Vec<StreamTick> = (0..48).map(tick).collect();
        for batch in first.chunks(8) {
            fleet.process_batch(batch).unwrap();
            reference.process_batch(batch).unwrap();
        }
        let wals = |dir: &Path| -> Vec<Vec<u8>> {
            (0..2)
                .map(|shard| std::fs::read(shard_wal_path(dir, shard, 0)).unwrap())
                .collect()
        };
        let logged = wals(&dir);
        fleet.inject_sync_failures();
        let checkpoint = fleet.checkpoint(&dir);
        let wal_whole = wals(&dir) == logged;
        drop(fleet);

        let mut recovered = ShardedEngine::recover(&dir).unwrap();
        assert_eq!(recovered.ticks_processed(), reference.ticks_processed());
        let rest: Vec<StreamTick> = (48..96).map(tick).collect();
        for batch in rest.chunks(8) {
            assert_eq!(
                recovered.process_batch(batch).unwrap(),
                reference.process_batch(batch).unwrap(),
                "the recovered fleet must continue like the uninterrupted one"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        (checkpoint, wal_whole)
    }

    #[test]
    fn every_batch_rotation_fails_on_a_failed_sync_and_keeps_the_wal() {
        let (checkpoint, wal_whole) = checkpoint_with_failing_syncs(SyncPolicy::EveryBatch);
        assert!(
            checkpoint.is_err(),
            "an EveryBatch rotation must sync its snapshot before the WAL reset"
        );
        assert!(wal_whole, "a failed rotation must leave the WAL whole");
    }

    #[test]
    fn never_rotation_issues_no_sync() {
        let (checkpoint, _) = checkpoint_with_failing_syncs(SyncPolicy::Never);
        assert!(checkpoint.is_ok(), "{checkpoint:?}");
    }

    /// The flight-recorder acceptance path: killing a durable fleet through
    /// fsync fault-injection must leave a crash dump in its durability
    /// directory holding the failing fsync event, the poison marker and the
    /// `worker_batch` spans that preceded the crash.
    #[test]
    fn poisoning_dumps_the_flight_recorder_with_the_failing_fsync_and_batch_spans() {
        let dir = std::env::temp_dir().join(format!("tkcm-poison-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = ShardedEngine::with_durability(
            4,
            small_config(),
            Catalog::ring_neighbours(4),
            2,
            &dir,
            DurabilityOptions {
                snapshot_interval: 0,
                sync_policy: SyncPolicy::EveryBatch,
            },
        )
        .unwrap();
        let batch = |base: i64| -> Vec<StreamTick> {
            (base..base + 4)
                .map(|t| StreamTick::new(Timestamp::new(t), vec![Some(1.0); 4]))
                .collect()
        };
        // A healthy batch first, so the ring holds spans *preceding* the
        // failure when the poison dump is taken.
        engine.process_batch(&batch(0)).unwrap();
        engine.inject_sync_failures();
        assert!(engine.process_batch(&batch(4)).is_err());

        let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.starts_with("flight-recorder-poisoned-"))
            })
            .collect();
        assert!(
            !dumps.is_empty(),
            "poisoning a durable fleet must dump the flight recorder into its directory"
        );
        let dump = std::fs::read_to_string(&dumps[0]).unwrap();
        assert!(
            dump.contains("\"kind\": \"wal_fsync_failed\""),
            "dump must carry the failing fsync event"
        );
        assert!(
            dump.contains("\"kind\": \"fleet_poisoned\""),
            "dump must carry the poison marker"
        );
        assert!(
            dump.contains("worker_batch"),
            "dump must carry the batch spans preceding the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observability_report_is_json_with_fleet_metrics_and_events() {
        let mut engine =
            ShardedEngine::new(4, small_config(), Catalog::ring_neighbours(4), 2).unwrap();
        for t in 0..4i64 {
            engine
                .process_tick(&StreamTick::new(Timestamp::new(t), vec![Some(1.0); 4]))
                .unwrap();
        }
        let report = engine.observability_report();
        assert!(report.starts_with("{\"fleet\":{\"shards\":2,"), "{report}");
        assert!(report.contains("\"poisoned\":false"));
        assert!(report.contains("\"metrics\":{"));
        assert!(report.contains("tkcm_runtime_shard_batch_nanos"));
        assert!(report.contains("\"flight_recorder\":{"));
        assert!(report.contains("\"events\": ["));
    }
}
