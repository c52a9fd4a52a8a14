//! The flight recorder must still hold a durable fleet's checkpoint event
//! after an imputation storm, must hold a `recovery_failed` event after
//! any failed recovery, and must leave one recovery dump per process.
//!
//! The recorder is a process-global ring of recent events kept for
//! post-mortem dumps, so the events it exists for — checkpoints, fsyncs,
//! rotations, recoveries — must not be evicted by per-imputation chatter.
//! This test lives in its own binary because the recorder is shared by every
//! test in a process.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tkcm_core::TkcmConfig;
use tkcm_obs::FieldValue;
use tkcm_runtime::{DurabilityOptions, ShardedEngine, SyncPolicy};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};

const CLUSTERS: usize = 4;
const CLUSTER_SIZE: usize = 3;
const BATCH: usize = 64;

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for c in 0..CLUSTERS {
        let base = c * CLUSTER_SIZE;
        for i in 0..CLUSTER_SIZE {
            let ranked = (1..CLUSTER_SIZE)
                .map(|step| SeriesId::from(base + (i + step) % CLUSTER_SIZE))
                .collect();
            catalog
                .set_candidates(SeriesId::from(base + i), ranked)
                .unwrap();
        }
    }
    catalog
}

/// Once warm, one member of every cluster (rotating) is missing at every
/// tick: one imputation per cluster per tick.
fn tick_at(t: usize) -> StreamTick {
    let values = (0..CLUSTERS * CLUSTER_SIZE)
        .map(|s| {
            if t >= 128 && s % CLUSTER_SIZE == t % CLUSTER_SIZE {
                None
            } else {
                Some(((t as f64 + 3.0 * s as f64) / 11.0).sin())
            }
        })
        .collect();
    StreamTick::new(Timestamp::new(t as i64), values)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tkcm-flight-recorder-{tag}-{}", std::process::id()))
}

/// A durable two-shard fleet logging into `dir`, with rotation off so every
/// processed tick stays in the WALs.
fn durable_fleet(dir: &Path) -> ShardedEngine {
    let config = TkcmConfig::builder()
        .window_length(96)
        .pattern_length(4)
        .anchor_count(2)
        .reference_count(2)
        .build()
        .unwrap();
    ShardedEngine::with_durability(
        CLUSTERS * CLUSTER_SIZE,
        config,
        catalog(),
        2,
        dir,
        DurabilityOptions {
            snapshot_interval: 0,
            sync_policy: SyncPolicy::EveryBatch,
        },
    )
    .unwrap()
}

#[test]
fn checkpoint_event_survives_an_imputation_storm() {
    let dir = scratch_dir("storm");
    let mut fleet = durable_fleet(&dir);

    let ticks: Vec<StreamTick> = (0..1_536).map(tick_at).collect();
    fleet.process_batch(&ticks[..128]).unwrap();
    fleet.checkpoint(&dir).unwrap();
    let mut imputations = 0usize;
    for batch in ticks[128..].chunks(BATCH) {
        for outcome in fleet.process_batch(batch).unwrap() {
            imputations += outcome.imputations.len();
        }
    }
    assert!(imputations >= 5_000, "storm too small: {imputations}");

    let report = fleet.observability_report();
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        report.contains("\"kind\": \"checkpoint\""),
        "the checkpoint event was evicted from the flight recorder"
    );
}

#[test]
fn failed_point_in_time_recovery_lands_a_recovery_failed_event() {
    let dir = scratch_dir("until");
    let mut fleet = durable_fleet(&dir);
    let ticks: Vec<StreamTick> = (0..64).map(tick_at).collect();
    fleet.process_batch(&ticks).unwrap();
    drop(fleet);
    // Flip one byte in the middle of shard 0's WAL: strict replay refuses it.
    let wal = dir.join("shard-0.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&wal, &bytes).unwrap();

    let result = ShardedEngine::recover_until(&dir, Timestamp::new(1_000));
    let events = tkcm_obs::recorder().events();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(result.is_err(), "a flipped WAL byte was replayed");
    let dir_text = dir.display().to_string();
    assert!(
        events.iter().any(|event| event.kind == "recovery_failed"
            && event.fields.iter().any(|(key, value)| *key == "dir"
                && matches!(value, FieldValue::Text(text) if *text == dir_text))),
        "the failed recover_until left no recovery_failed event"
    );
}

/// A failed recovery dumps the flight recorder into the temp directory, and
/// a process keeps one dump per label there: a second failed recovery
/// replaces the first one's file instead of adding another.
#[test]
fn failed_recoveries_leave_one_dump_per_process() {
    let temp = std::env::temp_dir();
    let dumps = || -> BTreeSet<String> {
        std::fs::read_dir(&temp)
            .unwrap()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| {
                name.starts_with("flight-recorder-recovery-failed-") && name.ends_with(".json")
            })
            .collect()
    };
    let ours = format!(
        "flight-recorder-recovery-failed-{}.json",
        std::process::id()
    );
    let before = dumps();
    for attempt in ["first", "second"] {
        let missing = scratch_dir(&format!("missing-{attempt}"));
        assert!(ShardedEngine::recover(&missing).is_err());
    }
    let after = dumps();
    assert!(after.contains(&ours), "no {ours} in {}", temp.display());
    let added: Vec<&String> = after.difference(&before).collect();
    assert!(
        added.iter().all(|name| **name == ours),
        "failed recoveries added {added:?}"
    );
}
