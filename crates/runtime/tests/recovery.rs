//! Recovery-equivalence property tests for the durable sharded runtime.
//!
//! The property: for random fleets, outage schedules, snapshot intervals and
//! crash points (including mid-outage and mid-WAL), an uninterrupted run and
//! a `run(prefix); checkpoint; crash; recover; run(suffix)` run produce
//! **bit-identical** `EngineOutcome` sequences — at 1, 2 and 4 shards.  Plus
//! corruption tests: a flipped byte anywhere in a snapshot or WAL, or a
//! truncation off a record boundary, fails recovery with an error instead of
//! being silently replayed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use tkcm_core::{EngineOutcome, TkcmConfig};
use tkcm_runtime::{DurabilityOptions, ShardedEngine};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh, unique scratch directory for one recovery scenario.
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tkcm-recovery-{}-{tag}-{n}", std::process::id()))
}

fn config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(64)
        .pattern_length(3)
        .anchor_count(2)
        .reference_count(2)
        .build()
        .unwrap()
}

/// Per-cluster ring catalog: components == clusters, so every shard count
/// imputes identical values and the equivalence is exact.
fn cluster_catalog(clusters: usize, cluster_size: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size {
            let ranked: Vec<SeriesId> = (1..cluster_size)
                .map(|step| SeriesId::from(base + (i + step) % cluster_size))
                .collect();
            catalog
                .set_candidates(SeriesId::from(base + i), ranked)
                .unwrap();
        }
    }
    catalog
}

/// Deterministic signal with staggered periodic outages: series `s` loses a
/// 3-tick block roughly every 13 ticks once warm, so crash points regularly
/// land *inside* an outage.
fn value_at(s: usize, t: usize) -> Option<f64> {
    if t > 25 && (t + 5 * s) % 13 < 3 {
        None
    } else {
        Some(((t as f64 + 2.0 * s as f64) / (7.0 + (s % 3) as f64)).sin() * (1.0 + s as f64 * 0.1))
    }
}

fn tick_at(width: usize, t: usize) -> StreamTick {
    StreamTick::new(
        Timestamp::new(t as i64),
        (0..width).map(|s| value_at(s, t)).collect(),
    )
}

/// Asserts two outcome sequences are bit-identical modulo wall-clock phase
/// timings (`PartialEq` covers imputed values bit-for-bit, anchors,
/// references, ordering and skips).
fn assert_same_outcomes(
    a: Vec<EngineOutcome>,
    b: Vec<EngineOutcome>,
    context: &str,
) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len());
    for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let (x, y) = (x.timing_stripped(), y.timing_stripped());
        prop_assert!(
            x == y,
            "{context}: outcomes diverged at position {t}: {x:?} vs {y:?}"
        );
    }
    Ok(())
}

/// The recovery-equivalence scenario for one fleet shape and crash point.
fn assert_recovery_equivalent(
    clusters: usize,
    cluster_size: usize,
    ticks: usize,
    crash_at: usize,
    snapshot_interval: usize,
    shards: usize,
) -> Result<(), String> {
    let width = clusters * cluster_size;
    let catalog = cluster_catalog(clusters, cluster_size);

    // Uninterrupted reference run.
    let mut continuous = ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
    let mut reference: Vec<EngineOutcome> = Vec::with_capacity(ticks);
    for t in 0..ticks {
        reference.push(continuous.process_tick(&tick_at(width, t)).unwrap());
    }

    // Durable run: prefix, crash (drop), recover, suffix.
    let dir = scratch_dir("prop");
    let mut durable = ShardedEngine::with_durability(
        width,
        config(),
        catalog,
        shards,
        &dir,
        DurabilityOptions {
            snapshot_interval,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    let mut observed: Vec<EngineOutcome> = Vec::with_capacity(ticks);
    for t in 0..crash_at {
        observed.push(durable.process_tick(&tick_at(width, t)).unwrap());
    }
    drop(durable); // crash: whatever reached disk is all that survives

    let mut recovered = ShardedEngine::recover(&dir)
        .map_err(|e| format!("recover failed at crash point {crash_at}: {e}"))?;
    prop_assert_eq!(recovered.ticks_processed(), crash_at);
    prop_assert_eq!(recovered.partition(), continuous.partition());
    for t in crash_at..ticks {
        observed.push(recovered.process_tick(&tick_at(width, t)).unwrap());
    }
    prop_assert_eq!(
        recovered.imputations_performed(),
        continuous.imputations_performed()
    );
    let context = format!(
        "{clusters}x{cluster_size} fleet, {shards} shard(s), crash at {crash_at}/{ticks}, \
         rotation every {snapshot_interval}"
    );
    assert_same_outcomes(observed, reference, &context)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    /// Random fleet shapes, crash points (mid-outage and mid-WAL included)
    /// and rotation intervals, each checked at 1, 2 and 4 shards.
    #[test]
    fn continuous_run_equals_checkpoint_crash_recover_resume(
        clusters in 1usize..4,
        cluster_size in 1usize..4,
        ticks in 40usize..90,
        crash_percent in 1usize..100,
        snapshot_interval in 1usize..40,
    ) {
        let crash_at = (ticks * crash_percent / 100).max(1);
        for shards in [1usize, 2, 4] {
            assert_recovery_equivalent(
                clusters,
                cluster_size,
                ticks,
                crash_at,
                snapshot_interval,
                shards,
            )?;
        }
    }
}

/// The pruning counters are diagnostics, but they feed the benchmark gates
/// and dashboards — a recovery that silently zeroed them would fake a
/// "cheap" warm-up.  Crash exactly on a checkpoint boundary (empty WAL), so
/// the recovered totals must equal the crashed fleet's bit-for-bit, then
/// keep accumulating.  The recovered fleet restarts with no lag memories, so
/// afterwards only the candidate count and the outcomes must match an
/// uninterrupted run; the split between pruned and shortlisted candidates
/// may differ.
#[test]
fn prune_totals_continue_across_a_crash() {
    let width = 4;
    let catalog = cluster_catalog(2, 2);
    let dir = scratch_dir("prune-totals");
    let mut durable = ShardedEngine::with_durability(
        width,
        config(),
        catalog.clone(),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 25,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..60 {
        durable.process_tick(&tick_at(width, t)).unwrap();
    }
    durable.checkpoint(&dir).unwrap();
    let at_crash = durable.prune_totals();
    assert!(
        at_crash.candidates > 0,
        "fixture never imputed: {at_crash:?}"
    );
    assert!(
        at_crash.maintained_lags > 0,
        "default config runs the composed path; expected remembered lags: {at_crash:?}"
    );
    drop(durable); // crash: the checkpoint is all that survives

    let mut recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(
        recovered.prune_totals(),
        at_crash,
        "prune totals reset across crash/recovery"
    );

    let mut continuous = ShardedEngine::new(width, config(), catalog, 2).unwrap();
    for t in 0..60 {
        continuous.process_tick(&tick_at(width, t)).unwrap();
    }
    for t in 60..90 {
        let a = recovered.process_tick(&tick_at(width, t)).unwrap();
        let b = continuous.process_tick(&tick_at(width, t)).unwrap();
        assert_eq!(a.timing_stripped(), b.timing_stripped(), "tick {t}");
    }
    let resumed = recovered.prune_totals();
    assert!(
        resumed.candidates > at_crash.candidates,
        "totals stopped accumulating after recovery"
    );
    assert_eq!(
        resumed.candidates,
        continuous.prune_totals().candidates,
        "recovered fleet's candidate count diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One NaN reading must not block a checkpoint: the window stores it as
/// missing, the WAL logs the raw tick, and replay applies the same ingest
/// policy, so the fleet checkpoints and recovers the same imputations.
#[test]
fn a_nan_reading_does_not_block_a_checkpoint() {
    let config = TkcmConfig::builder()
        .window_length(400)
        .pattern_length(8)
        .anchor_count(3)
        .reference_count(1)
        .build()
        .unwrap();
    let sine = |t: usize, shift: f64| ((t as f64 - shift) / 16.0 * std::f64::consts::TAU).sin();
    let dir = scratch_dir("nan-checkpoint");
    let mut fleet = ShardedEngine::with_durability(
        2,
        config,
        Catalog::ring_neighbours(2),
        1,
        &dir,
        DurabilityOptions::default(),
    )
    .unwrap();
    for t in 0..600usize {
        let target = if t >= 590 { None } else { Some(sine(t, 0.0)) };
        let reference = if t == 450 {
            Some(f64::NAN)
        } else {
            Some(sine(t, 3.0))
        };
        let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, reference]);
        fleet.process_tick(&tick).unwrap();
    }
    // The NaN is missing at ingest, so its slot is imputed too: 10 target
    // imputations + 1.
    assert_eq!(fleet.imputations_performed(), 11);
    fleet.checkpoint(&dir).unwrap();
    drop(fleet);

    let recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(recovered.ticks_processed(), 600);
    assert_eq!(recovered.imputations_performed(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a small durable fleet, runs it, crashes it, and returns the
/// checkpoint directory (left on disk for corruption experiments).
fn crashed_fleet_dir(tag: &str) -> PathBuf {
    let width = 4;
    let dir = scratch_dir(tag);
    let mut engine = ShardedEngine::with_durability(
        width,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 20,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..50 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    drop(engine);
    dir
}

#[test]
fn every_flipped_byte_in_snapshot_or_wal_fails_recovery() {
    let dir = crashed_fleet_dir("flip");
    // Sanity: the intact directory recovers.
    assert!(ShardedEngine::recover(&dir).is_ok());

    for file in [
        "shard-0.snap",
        "shard-1.snap",
        "shard-0.wal",
        "shard-1.wal",
        "MANIFEST",
    ] {
        let path = dir.join(file);
        let original = std::fs::read(&path).unwrap();
        assert!(!original.is_empty(), "{file} unexpectedly empty");
        // Every 7th byte plus both ends keeps the loop fast while still
        // hitting magic, version, lengths, payloads and checksums.
        let positions: Vec<usize> = (0..original.len())
            .step_by(7)
            .chain([original.len() - 1])
            .collect();
        for pos in positions {
            let mut corrupted = original.clone();
            corrupted[pos] ^= 0x20;
            std::fs::write(&path, &corrupted).unwrap();
            assert!(
                ShardedEngine::recover(&dir).is_err(),
                "flip at {file}:{pos} was silently replayed"
            );
        }
        std::fs::write(&path, &original).unwrap();
        assert!(
            ShardedEngine::recover(&dir).is_ok(),
            "restoring {file} should recover again"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_files_fail_recovery() {
    let dir = crashed_fleet_dir("trunc");
    for file in ["shard-0.snap", "shard-0.wal", "MANIFEST"] {
        let path = dir.join(file);
        let original = std::fs::read(&path).unwrap();
        // Cut inside the last record / checksum — off any record boundary.
        for cut in [original.len() - 1, original.len() / 2, 5] {
            std::fs::write(&path, &original[..cut]).unwrap();
            assert!(
                ShardedEngine::recover(&dir).is_err(),
                "truncating {file} to {cut} byte(s) was silently accepted"
            );
        }
        std::fs::write(&path, &original).unwrap();
    }
    assert!(ShardedEngine::recover(&dir).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_append_recovers_only_with_the_explicit_torn_tail_opt_in() {
    // Simulate a process killed mid-append: the last WAL frame of shard 0
    // is half written.  Strict recovery (the default, which the corruption
    // tests rely on) must refuse; recover_with(tolerate_torn_wal_tail)
    // replays the intact prefix, reconciles the fleet to the newest tick
    // every shard reached, and leaves a consistent directory behind.
    let dir = crashed_fleet_dir("torn");
    let wal_path = dir.join("shard-0.wal");
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 7]).unwrap();

    assert!(
        ShardedEngine::recover(&dir).is_err(),
        "strict recovery must refuse a torn tail"
    );
    let mut recovered = ShardedEngine::recover_with(
        &dir,
        tkcm_runtime::RecoveryOptions {
            tolerate_torn_wal_tail: true,
        },
    )
    .unwrap();
    // The torn record was the 50th tick on shard 0, so the fleet reconciles
    // to tick 49 (the newest tick every shard fully logged).
    assert_eq!(recovered.ticks_processed(), 49);
    // The directory was repaired (fresh snapshot + truncated WAL for the
    // torn shard): processing continues and a later strict recovery works.
    recovered.process_tick(&tick_at(4, 49)).unwrap();
    recovered.process_tick(&tick_at(4, 50)).unwrap();
    drop(recovered);
    let again = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(again.ticks_processed(), 51);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_a_fresh_durable_fleet_works() {
    // Crash before the first tick: the initial checkpoint alone recovers.
    let dir = scratch_dir("fresh");
    let engine = ShardedEngine::with_durability(
        4,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions::default(),
    )
    .unwrap();
    drop(engine);
    let mut recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(recovered.ticks_processed(), 0);
    assert_eq!(recovered.shard_count(), 2);
    recovered.process_tick(&tick_at(4, 0)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_rotation_truncates_the_wal() {
    let width = 4;
    let dir = scratch_dir("rotate");
    let mut engine = ShardedEngine::with_durability(
        width,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 10,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..10 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    let before = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    // Rotation runs at the start of the tick *after* the interval boundary
    // (so a rotation failure surfaces before any tick is processed): this
    // 11th call first truncates the 10-record WAL, then logs one tick.
    engine.process_tick(&tick_at(width, 10)).unwrap();
    let after = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    assert!(
        after < before,
        "rotation should truncate the WAL ({before} -> {after} bytes)"
    );
    // The engine keeps running and the directory keeps recovering.
    for t in 11..25 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    drop(engine);
    let recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(recovered.ticks_processed(), 25);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_engines_foreign_dir_backup_recovers_as_a_plain_fleet() {
    // A durable engine checkpoints an out-of-band backup into a *different*
    // directory: that backup has snapshots + manifest but no WALs, and must
    // recover (as a plain, non-durable fleet at the backup tick) instead of
    // failing on the missing logs.
    let width = 4;
    let dir = scratch_dir("home");
    let backup = scratch_dir("backup");
    let mut engine = ShardedEngine::with_durability(
        width,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 100,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..30 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    engine.checkpoint(&backup).unwrap();
    for t in 30..40 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    drop(engine);

    assert!(!backup.join("shard-0.wal").exists());
    let from_backup = ShardedEngine::recover(&backup).unwrap();
    assert_eq!(from_backup.ticks_processed(), 30);
    assert!(from_backup.durability_dir().is_none());
    // The home directory still recovers the full durable fleet.
    let from_home = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(from_home.ticks_processed(), 40);
    assert_eq!(from_home.durability_dir(), Some(dir.as_path()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&backup);
}

#[test]
fn explicit_checkpoint_of_a_plain_engine_recovers_without_a_wal() {
    // A non-durable engine can still checkpoint; the directory recovers to
    // the checkpointed tick (no WAL, so nothing after it survives).
    let width = 4;
    let dir = scratch_dir("plain");
    let mut engine = ShardedEngine::new(width, config(), cluster_catalog(2, 2), 2).unwrap();
    for t in 0..30 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    let stats = engine.checkpoint(&dir).unwrap();
    assert_eq!(stats.shard_snapshot_bytes.len(), 2);
    assert!(stats.snapshot_bytes() > 0);
    assert!(stats.seconds >= 0.0);
    assert!(engine.durability_dir().is_none());
    for t in 30..35 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    drop(engine);
    let recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(recovered.ticks_processed(), 30);
    assert!(recovered.durability_dir().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_interval_recovery_waits_for_the_next_rotation_boundary() {
    // crashed_fleet_dir: interval 20, crash at tick 50 — mid-interval.  The
    // first post-recovery ticks must NOT pay a full snapshot rotation; the
    // next multiple (60) must.
    let dir = crashed_fleet_dir("midrot");
    let mut recovered = ShardedEngine::recover(&dir).unwrap();
    let before = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    for t in 50..60 {
        recovered.process_tick(&tick_at(4, t)).unwrap();
    }
    let grown = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    assert!(
        grown > before,
        "mid-interval recovery must not eagerly rotate (the WAL would have been truncated)"
    );
    // tick_count is now 60: the call for t=60 crosses the boundary and
    // rotates first (truncating the log) before processing.
    recovered.process_tick(&tick_at(4, 60)).unwrap();
    let rotated = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    assert!(
        rotated < grown,
        "the next multiple must still rotate ({grown} -> {rotated} bytes)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_exactly_on_a_rotation_boundary_reruns_the_rotation() {
    // Run exactly to a boundary (tick_count 20, interval 10) and crash
    // before the next call runs the pending rotation; the recovered fleet
    // must re-run it on its first batch (idempotent, bounds the WAL).
    let width = 4;
    let dir = scratch_dir("boundary");
    let mut engine = ShardedEngine::with_durability(
        width,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 10,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..20 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    drop(engine); // the rotation for tick 20 never ran
    let before = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    let mut recovered = ShardedEngine::recover(&dir).unwrap();
    recovered.process_tick(&tick_at(width, 20)).unwrap();
    let after = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
    assert!(
        after < before,
        "the pending boundary rotation must re-run after recovery \
         ({before} -> {after} bytes)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn point_in_time_recovery_stops_replay_at_the_requested_time() {
    // crashed_fleet_dir: interval 20, 50 ticks → last rotation at tick 40,
    // so the snapshots hold times 0..=39 and the WALs times 40..=49.
    let dir = crashed_fleet_dir("pit");
    let width = 4;

    // Stop mid-WAL: replay ends at the newest tick <= 45.
    let mut at_45 = ShardedEngine::recover_until(&dir, Timestamp::new(45)).unwrap();
    assert_eq!(at_45.ticks_processed(), 46);
    assert!(
        at_45.durability_dir().is_none(),
        "a point-in-time fleet is an inspection fleet, never durable"
    );

    // It continues bit-identically to a cold replay of the same prefix.
    let mut cold = ShardedEngine::new(width, config(), cluster_catalog(2, 2), 2).unwrap();
    for t in 0..46 {
        cold.process_tick(&tick_at(width, t)).unwrap();
    }
    assert_eq!(at_45.imputations_performed(), cold.imputations_performed());
    let mut continued = Vec::new();
    let mut reference = Vec::new();
    for t in 46..60 {
        continued.push(at_45.process_tick(&tick_at(width, t)).unwrap());
        reference.push(cold.process_tick(&tick_at(width, t)).unwrap());
    }
    assert_same_outcomes(continued, reference, "point-in-time continuation").unwrap();

    // A time at or past the newest logged tick is a full recovery.
    let newest = ShardedEngine::recover_until(&dir, Timestamp::new(1_000)).unwrap();
    assert_eq!(newest.ticks_processed(), 50);

    // A time the snapshots have already passed cannot be reached.
    let err = ShardedEngine::recover_until(&dir, Timestamp::new(30));
    assert!(
        err.is_err(),
        "times before the snapshot must be refused, snapshots cannot rewind"
    );

    // The inspection fleets never touched the directory: a strict full
    // recovery still reaches the crash point.
    let untouched = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(untouched.ticks_processed(), 50);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn point_in_time_recovery_of_a_snapshot_only_backup() {
    // A snapshot-only backup (no WALs) can only be inspected at or after
    // its snapshot time.
    let width = 4;
    let dir = scratch_dir("pit-home");
    let backup = scratch_dir("pit-backup");
    let mut engine = ShardedEngine::with_durability(
        width,
        config(),
        cluster_catalog(2, 2),
        2,
        &dir,
        DurabilityOptions::default(),
    )
    .unwrap();
    for t in 0..30 {
        engine.process_tick(&tick_at(width, t)).unwrap();
    }
    engine.checkpoint(&backup).unwrap();
    drop(engine);

    let at_backup = ShardedEngine::recover_until(&backup, Timestamp::new(29)).unwrap();
    assert_eq!(at_backup.ticks_processed(), 30);
    assert!(ShardedEngine::recover_until(&backup, Timestamp::new(20)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&backup);
}

#[test]
fn recovered_fleet_reports_its_durability_dir_and_keeps_logging() {
    let dir = crashed_fleet_dir("redurable");
    let mut recovered = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(recovered.durability_dir(), Some(dir.as_path()));
    let before = recovered.ticks_processed();
    recovered.process_tick(&tick_at(4, 50)).unwrap();
    drop(recovered);
    // A second crash/recover cycle sees the post-recovery tick too.
    let twice = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(twice.ticks_processed(), before + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flat copy of a checkpoint directory (manifest + shard files).
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A crash *during* a migration must recover the last committed assignment
/// and continue bit-identically.  The manifest rename is the commit point:
/// a crash after the new version's shard files hit disk but before the
/// rename recovers the *pre*-migration mapping from the old manifest (and
/// sweeps the orphaned files); a crash right after the rename recovers the
/// migrated mapping.  Either way the outcome stream matches an
/// uninterrupted run — migrations move computation, not results.
#[test]
fn crash_during_migration_recovers_the_last_committed_assignment() {
    let clusters = 3;
    let cluster_size = 2;
    let width = clusters * cluster_size;
    let catalog = cluster_catalog(clusters, cluster_size);
    let ticks = 80usize;
    let migrate_at = 40usize;

    // Uninterrupted reference run.
    let mut continuous = ShardedEngine::new(width, config(), catalog.clone(), 2).unwrap();
    let mut reference: Vec<EngineOutcome> = Vec::with_capacity(ticks);
    for t in 0..ticks {
        reference.push(continuous.process_tick(&tick_at(width, t)).unwrap());
    }

    // Durable run up to the migration point.
    let dir = scratch_dir("mid-migration");
    let mut durable = ShardedEngine::with_durability(
        width,
        config(),
        catalog,
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 10,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    for t in 0..migrate_at {
        durable.process_tick(&tick_at(width, t)).unwrap();
    }
    // The pre-migration committed state, frozen before the migration runs.
    let pre_rename = scratch_dir("mid-migration-prerename");
    copy_dir(&dir, &pre_rename);

    // Commit a migration: component 0 moves to shard 1 (version 0 → 1).
    let donor = durable.partition().shard_of_component(0);
    assert_eq!(donor, 0);
    durable.force_migration(0, 1).unwrap();
    assert_eq!(durable.partition().version(), 1);
    assert_eq!(durable.migrations_performed(), 1);
    drop(durable); // crash right after the commit

    // Craft the pre-rename crash state: the new version's shard files are
    // on disk, but the manifest still points at version 0.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains("-v1.") {
            std::fs::copy(entry.path(), pre_rename.join(entry.file_name())).unwrap();
        }
    }

    // Crash after the rename: the migrated assignment recovers.
    let mut committed = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(committed.ticks_processed(), migrate_at);
    assert_eq!(committed.partition().version(), 1);
    assert_eq!(committed.partition().shard_of_component(0), 1);
    assert_eq!(committed.partition().migration_log().len(), 1);

    // Crash before the rename: the pre-migration assignment recovers, and
    // the orphaned version-1 files are swept.
    let mut crashed = ShardedEngine::recover(&pre_rename).unwrap();
    assert_eq!(crashed.ticks_processed(), migrate_at);
    assert_eq!(crashed.partition().version(), 0);
    assert_eq!(crashed.partition().shard_of_component(0), 0);
    assert!(
        std::fs::read_dir(&pre_rename).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains("-v1.")),
        "recovery must sweep shard files of the uncommitted version"
    );

    // Both continue bit-identically to the uninterrupted run.
    for (t, expected) in reference.iter().enumerate().skip(migrate_at) {
        let tick = tick_at(width, t);
        let a = committed.process_tick(&tick).unwrap().timing_stripped();
        let b = crashed.process_tick(&tick).unwrap().timing_stripped();
        let r = expected.timing_stripped();
        assert!(a == r, "post-rename recovery diverged at tick {t}");
        assert!(b == r, "pre-rename recovery diverged at tick {t}");
    }
    // The post-rename directory keeps its migrated layout across another
    // crash/recover cycle (versioned WAL reopened, counters advanced).
    drop(committed);
    let again = ShardedEngine::recover(&dir).unwrap();
    assert_eq!(again.ticks_processed(), ticks);
    assert_eq!(again.partition().version(), 1);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pre_rename);
}

/// Elastic recovery property: a durable fleet with forced migrations,
/// crashed at a batch boundary and recovered, continues bit-identically to
/// an uninterrupted plain run — at 1, 2 and 4 shards.
#[test]
fn elastic_crash_recovery_is_bit_identical_across_shard_counts() {
    let clusters = 3;
    let cluster_size = 2;
    let width = clusters * cluster_size;
    let ticks = 72usize;
    for (shards, crash_at, migration_point) in
        [(1usize, 31usize, 12usize), (2, 45, 24), (4, 58, 36)]
    {
        let catalog = cluster_catalog(clusters, cluster_size);
        let mut continuous = ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
        let mut reference: Vec<EngineOutcome> = Vec::with_capacity(ticks);
        for t in 0..ticks {
            reference.push(continuous.process_tick(&tick_at(width, t)).unwrap());
        }

        let dir = scratch_dir("elastic-prop");
        let mut durable = ShardedEngine::with_durability(
            width,
            config(),
            catalog,
            shards,
            &dir,
            DurabilityOptions {
                snapshot_interval: 15,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        let mut observed: Vec<EngineOutcome> = Vec::with_capacity(ticks);
        let mut t = 0usize;
        while t < crash_at {
            let len = (4).min(crash_at - t);
            let batch: Vec<StreamTick> = (t..t + len).map(|i| tick_at(width, i)).collect();
            observed.extend(durable.process_batch(&batch).unwrap());
            if t <= migration_point && migration_point < t + len && shards > 1 {
                durable.force_migration(0, shards - 1).unwrap();
                durable.force_migration(2, 0).unwrap();
            }
            t += len;
        }
        let migrations = durable.migrations_performed();
        drop(durable); // crash

        let mut recovered = ShardedEngine::recover(&dir).unwrap();
        assert_eq!(recovered.ticks_processed(), crash_at);
        assert_eq!(recovered.migrations_performed(), migrations);
        for t in crash_at..ticks {
            observed.push(recovered.process_tick(&tick_at(width, t)).unwrap());
        }
        assert_eq!(observed.len(), reference.len());
        for (pos, (a, b)) in observed.iter().zip(&reference).enumerate() {
            assert!(
                a.timing_stripped() == b.timing_stripped(),
                "elastic recovery diverged at tick {pos} with {shards} shard(s)"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
