//! Property tests for batch-native ingestion: [`ShardedEngine::process_batch`]
//! must be **bit-identical** to per-tick processing — same imputed bits, same
//! anchors, same ordering, same skips — for random fleet shapes, batch sizes
//! (1, 2, 7 and the full stream) and shard counts (1/2/4), and the PR-4
//! recovery-equivalence property must survive batching + group-commit: a
//! durable *batched* run that crashes mid-batch-sequence and recovers
//! continues bit-identically to a per-tick run that never crashed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use tkcm_core::{EngineOutcome, TkcmConfig};
use tkcm_runtime::{DurabilityOptions, ShardedEngine, SyncPolicy};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tkcm-batching-{}-{tag}-{n}", std::process::id()))
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

/// Deterministic signal with staggered periodic outages, so batches regularly
/// contain imputations (and batch boundaries land inside outages).
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

fn stream_of(width: usize, ticks: usize) -> Vec<StreamTick> {
    (0..ticks).map(|t| tick_at(width, t)).collect()
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

/// The batch sizes the issue calls out: single tick, tiny, odd, full stream.
fn batch_size(selector: usize, ticks: usize) -> usize {
    [1, 2, 7, ticks.max(1)][selector % 4]
}

proptest! {
    /// Random fleet shapes × batch sizes × 1/2/4 shards: feeding the stream
    /// through `process_batch` in chunks produces bit-identical outcomes to
    /// feeding it tick by tick.
    #[test]
    fn batched_ingestion_equals_per_tick(
        clusters in 1usize..4,
        cluster_size in 1usize..4,
        ticks in 40usize..90,
        batch_selector in 0usize..4,
    ) {
        let width = clusters * cluster_size;
        let catalog = cluster_catalog(clusters, cluster_size);
        let stream = stream_of(width, ticks);
        let batch = batch_size(batch_selector, ticks);
        for shards in [1usize, 2, 4] {
            let mut per_tick =
                ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
            let mut reference = Vec::with_capacity(ticks);
            for tick in &stream {
                reference.push(per_tick.process_tick(tick).unwrap());
            }

            let mut batched =
                ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
            let mut observed = Vec::with_capacity(ticks);
            for chunk in stream.chunks(batch) {
                observed.extend(batched.process_batch(chunk).unwrap());
            }

            prop_assert_eq!(batched.ticks_processed(), per_tick.ticks_processed());
            prop_assert_eq!(
                batched.imputations_performed(),
                per_tick.imputations_performed()
            );
            let context = format!(
                "{clusters}x{cluster_size} fleet, {shards} shard(s), batch {batch}"
            );
            assert_same_outcomes(observed, reference, &context)?;
        }
    }

    /// The recovery-equivalence property under batching + group-commit: a
    /// durable fleet fed in batches, crashed after a random number of
    /// batches (with rotation intervals deliberately not aligned to batch
    /// boundaries) and recovered, continues bit-identically to an
    /// uninterrupted per-tick run — and the recovered directory stays
    /// recoverable.
    #[test]
    fn batched_crash_recovery_equals_continuous_per_tick(
        clusters in 1usize..3,
        cluster_size in 1usize..4,
        ticks in 40usize..80,
        batch_selector in 0usize..4,
        crash_percent in 1usize..100,
        snapshot_interval in 1usize..30,
        sync_selector in 0usize..2,
    ) {
        let width = clusters * cluster_size;
        let catalog = cluster_catalog(clusters, cluster_size);
        let stream = stream_of(width, ticks);
        let batch = batch_size(batch_selector, ticks);
        let sync_policy = [SyncPolicy::Never, SyncPolicy::EveryBatch][sync_selector];
        for shards in [1usize, 2, 4] {
            // Uninterrupted per-tick reference run.
            let mut continuous =
                ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
            let mut reference = Vec::with_capacity(ticks);
            for tick in &stream {
                reference.push(continuous.process_tick(tick).unwrap());
            }

            // Durable batched run: prefix batches, crash, recover, suffix.
            let batches: Vec<&[StreamTick]> = stream.chunks(batch).collect();
            let crash_after = (batches.len() * crash_percent / 100).min(batches.len());
            let dir = scratch_dir("prop");
            let mut durable = ShardedEngine::with_durability(
                width,
                config(),
                catalog.clone(),
                shards,
                &dir,
                DurabilityOptions {
                    snapshot_interval,
                    sync_policy,
                },
            )
            .unwrap();
            let mut observed = Vec::with_capacity(ticks);
            let mut fed = 0usize;
            for chunk in &batches[..crash_after] {
                observed.extend(durable.process_batch(chunk).unwrap());
                fed += chunk.len();
            }
            drop(durable); // crash: whatever reached disk is all that survives

            let mut recovered = ShardedEngine::recover(&dir)
                .map_err(|e| format!("recover failed after {crash_after} batches: {e}"))?;
            prop_assert_eq!(recovered.ticks_processed(), fed);
            for chunk in stream[fed..].chunks(batch) {
                observed.extend(recovered.process_batch(chunk).unwrap());
            }
            prop_assert_eq!(
                recovered.imputations_performed(),
                continuous.imputations_performed()
            );
            let context = format!(
                "{clusters}x{cluster_size} fleet, {shards} shard(s), batch {batch}, \
                 crash after {crash_after}/{} batches, rotation every {snapshot_interval}, \
                 {sync_policy:?}",
                batches.len()
            );
            assert_same_outcomes(observed, reference, &context)?;
            // A second crash/recover cycle sees the batched continuation.
            drop(recovered);
            let again = ShardedEngine::recover(&dir).unwrap();
            prop_assert_eq!(again.ticks_processed(), ticks);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Mixing per-tick and batched ingestion on one engine is equivalent too —
/// the per-tick path *is* the batch path at size 1.
#[test]
fn mixed_batch_and_tick_ingestion_is_equivalent() {
    let width = 6;
    let catalog = cluster_catalog(2, 3);
    let stream = stream_of(width, 70);

    let mut per_tick = ShardedEngine::new(width, config(), catalog.clone(), 2).unwrap();
    let mut reference = Vec::new();
    for tick in &stream {
        reference.push(per_tick.process_tick(tick).unwrap());
    }

    let mut mixed = ShardedEngine::new(width, config(), catalog, 2).unwrap();
    let mut observed = Vec::new();
    observed.extend(mixed.process_batch(&stream[..10]).unwrap());
    for tick in &stream[10..20] {
        observed.push(mixed.process_tick(tick).unwrap());
    }
    observed.extend(mixed.process_batch(&stream[20..21]).unwrap());
    observed.extend(mixed.process_batch(&stream[21..]).unwrap());

    assert_same_outcomes(observed, reference, "mixed ingestion").unwrap();
}
