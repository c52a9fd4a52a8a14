//! Property tests for the sharded fleet runtime: the multi-threaded
//! [`ShardedEngine`] must produce *bit-identical* imputations, in the same
//! deterministic order, as running the same per-shard [`TkcmEngine`]s
//! sequentially — across 1/2/4 shard targets — plus degenerate-catalog edge
//! cases (width-1 fleets, series without candidates).

use proptest::prelude::*;

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine};
use tkcm_runtime::ShardedEngine;
use tkcm_timeseries::{Catalog, FleetPartition, SeriesId, StreamTick, Timestamp};

fn config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(64)
        .pattern_length(3)
        .anchor_count(2)
        .reference_count(2)
        .build()
        .unwrap()
}

/// Sequential reference implementation: one engine per shard of the same
/// partition, run one after the other on the main thread, merged exactly
/// like the sharded runtime merges (global ids, sorted).  It lays the fleet
/// out per shard, not per component as the runtime does, so it builds its
/// own shard view from the partition's components: the shard's members,
/// ascending, and a shard-local catalog that keeps only same-component
/// candidates.
struct SequentialFleet {
    partition: FleetPartition,
    /// Per shard: the members' global ids, ascending (shard-local id `i`
    /// is `members[i]`), and the shard's engine.
    shards: Vec<(Vec<SeriesId>, TkcmEngine)>,
}

impl SequentialFleet {
    fn new(width: usize, config: TkcmConfig, catalog: &Catalog, shards: usize) -> Self {
        let partition = FleetPartition::new(width, catalog, shards).unwrap();
        let shards = (0..partition.shard_count())
            .map(|s| {
                let components = partition.components_on(s);
                let mut members: Vec<SeriesId> = components
                    .iter()
                    .flat_map(|&c| partition.component_members(c).iter().copied())
                    .collect();
                members.sort_unstable();
                let component_of = |id: SeriesId| {
                    components
                        .iter()
                        .find(|&&c| partition.component_members(c).contains(&id))
                };
                let mut local = Catalog::new();
                for (i, &id) in members.iter().enumerate() {
                    let ranked = catalog
                        .candidates(id)
                        .iter()
                        .filter(|&&c| component_of(c) == component_of(id))
                        .map(|c| SeriesId::from(members.binary_search(c).unwrap()))
                        .collect();
                    local.set_candidates(SeriesId::from(i), ranked).unwrap();
                }
                let engine = TkcmEngine::new(members.len(), config.clone(), local).unwrap();
                (members, engine)
            })
            .collect();
        SequentialFleet { partition, shards }
    }

    fn process_tick(&mut self, tick: &StreamTick) -> EngineOutcome {
        let mut merged = EngineOutcome::default();
        for (members, engine) in &mut self.shards {
            let outcome = engine.process_tick(&tick.project(members)).unwrap();
            let to_global = |local: SeriesId| members[local.index()];
            for mut imputation in outcome.imputations {
                imputation.series = to_global(imputation.series);
                imputation.detail.series = imputation.series;
                for r in &mut imputation.detail.references {
                    *r = to_global(*r);
                }
                merged.imputations.push(imputation);
            }
            merged
                .skipped
                .extend(outcome.skipped.into_iter().map(to_global));
        }
        merged.imputations.sort_by_key(|i| i.series);
        merged.skipped.sort_unstable();
        merged
    }
}

/// Deterministic pseudo-random value for series `s` at tick `t` — shared by
/// both runs so the comparison is over identical inputs.
fn value_at(width: usize, s: usize, t: usize) -> Option<f64> {
    // Every 11th-ish tick drops a value, staggered per series; two series
    // carry periodic signal families so imputations are non-trivial.
    if (t + 7 * s).is_multiple_of(11) && t > 30 {
        None
    } else {
        Some(
            ((t as f64 + 2.0 * s as f64) / (8.0 + (s % 3) as f64) * 0.9).sin() + (s / width) as f64,
        )
    }
}

/// Runs both implementations over the same stream and asserts bit-identical
/// merged outcomes at every tick.
fn assert_equivalent(
    width: usize,
    catalog: &Catalog,
    shards: usize,
    ticks: usize,
) -> Result<(), String> {
    let mut sharded = ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
    let mut sequential = SequentialFleet::new(width, config(), catalog, shards);
    prop_assert_eq!(sharded.partition(), &sequential.partition);
    for t in 0..ticks {
        let values: Vec<Option<f64>> = (0..width).map(|s| value_at(width, s, t)).collect();
        let tick = StreamTick::new(Timestamp::new(t as i64), values);
        let parallel = sharded.process_tick(&tick).unwrap();
        let reference = sequential.process_tick(&tick);
        // PartialEq over EngineOutcome covers imputed values bit-for-bit,
        // anchor sets, references, ordering and skips.
        prop_assert!(
            parallel == reference,
            "diverged at tick {t} with {shards} shards: {parallel:?} vs {reference:?}"
        );
    }
    Ok(())
}

/// The bit-identity property with observability explicitly enabled: the
/// metrics/span/flight-recorder instrumentation is strictly record-only
/// (the `obs-read-only` policy), so the fleet's outcomes are unchanged by
/// it at any shard count.  Pinned separately so the property can never
/// silently become "tested only with recording off".
#[test]
fn observability_enabled_fleets_stay_bit_identical_across_shard_counts() {
    assert!(
        tkcm_obs::enabled(),
        "recording is on by default; this test pins the equivalence property under it"
    );
    let catalog = Catalog::ring_neighbours(8);
    for shards in [1usize, 2, 4] {
        assert_equivalent(8, &catalog, shards, 60).unwrap();
    }
}

proptest! {
    /// Random fleet shapes (width, component structure) replayed through the
    /// threaded runtime and the sequential reference at 1/2/4 shards.
    #[test]
    fn sharded_equals_sequential_across_shard_counts(
        clusters in 1usize..5,
        cluster_size in 1usize..5,
        ticks in 40usize..120,
    ) {
        let width = clusters * cluster_size;
        // Ring catalog per cluster: components == clusters.
        let mut catalog = Catalog::new();
        for c in 0..clusters {
            let base = c * cluster_size;
            for i in 0..cluster_size {
                let ranked: Vec<SeriesId> = (1..cluster_size)
                    .map(|step| SeriesId::from(base + (i + step) % cluster_size))
                    .collect();
                catalog.set_candidates(SeriesId::from(base + i), ranked).unwrap();
            }
        }
        for shards in [1usize, 2, 4] {
            assert_equivalent(width, &catalog, shards, ticks)?;
        }
    }

    /// A single giant component must also match: the greedy split drops the
    /// same cross-shard edges in both implementations.
    #[test]
    fn split_giant_component_matches_sequential(
        width in 4usize..12,
        ticks in 40usize..100,
    ) {
        let catalog = Catalog::ring_neighbours(width);
        for shards in [1usize, 2, 4] {
            assert_equivalent(width, &catalog, shards, ticks)?;
        }
    }

    /// The elastic tentpole property: a fleet with the component stealer
    /// on *and* random forced migrations sprinkled through the stream is
    /// still bit-identical to the sequential reference — at 1/2/4 shards,
    /// under skewed outages that keep one cluster's shard hot.  Migrating a
    /// whole component can change where an imputation is computed, never
    /// what it computes.
    #[test]
    fn elastic_pipelined_fleet_equals_sequential_under_random_migrations(
        clusters in 2usize..5,
        cluster_size in 1usize..4,
        ticks in 60usize..110,
        seed in 0u64..u64::MAX,
    ) {
        let width = clusters * cluster_size;
        let mut catalog = Catalog::new();
        for c in 0..clusters {
            let base = c * cluster_size;
            for i in 0..cluster_size {
                let ranked: Vec<SeriesId> = (1..cluster_size)
                    .map(|step| SeriesId::from(base + (i + step) % cluster_size))
                    .collect();
                catalog.set_candidates(SeriesId::from(base + i), ranked).unwrap();
            }
        }
        // Skewed outages: cluster 0 loses values far more often than the
        // rest, so its component dominates the load — the storm shape the
        // rebalancer exists for.
        let value = |s: usize, t: usize| -> Option<f64> {
            let outage = if s < cluster_size {
                (t + 3 * s).is_multiple_of(5)
            } else {
                (t + 7 * s).is_multiple_of(23)
            };
            if outage && t > 30 {
                None
            } else {
                Some(((t as f64 + 2.0 * s as f64) / (8.0 + (s % 3) as f64) * 0.9).sin())
            }
        };
        for shards in [1usize, 2, 4] {
            let mut elastic =
                ShardedEngine::new(width, config(), catalog.clone(), shards).unwrap();
            elastic.set_rebalancing(true);
            let mut sequential = SequentialFleet::new(width, config(), &catalog, shards);
            let mut rng = seed ^ shards as u64;
            let mut reference = Vec::with_capacity(ticks);
            let mut observed = Vec::with_capacity(ticks);
            let mut t = 0usize;
            let mut batch_index = 0usize;
            while t < ticks {
                let len = (1 + lcg(&mut rng) % 7).min((ticks - t) as u64) as usize;
                let batch: Vec<StreamTick> = (t..t + len)
                    .map(|i| {
                        StreamTick::new(
                            Timestamp::new(i as i64),
                            (0..width).map(|s| value(s, i)).collect(),
                        )
                    })
                    .collect();
                for tick in &batch {
                    reference.push(sequential.process_tick(tick));
                }
                observed.extend(elastic.process_batch(&batch).unwrap());
                if batch_index % 3 == 2 {
                    // A forced migration point: any component to any shard
                    // (possibly emptying the donor; possibly a no-op).
                    let component =
                        lcg(&mut rng) as usize % elastic.partition().component_count();
                    let to_shard = lcg(&mut rng) as usize % elastic.shard_count();
                    elastic.force_migration(component, to_shard).unwrap();
                }
                t += len;
                batch_index += 1;
            }
            prop_assert_eq!(elastic.ticks_processed(), ticks);
            prop_assert_eq!(observed.len(), reference.len());
            for (pos, (a, b)) in observed.iter().zip(&reference).enumerate() {
                prop_assert!(
                    a == b,
                    "elastic fleet diverged at tick {pos} with {shards} shards after {} \
                     migrations: {a:?} vs {b:?}",
                    elastic.migrations_performed()
                );
            }
            // The migration log is the deterministic audit trail: version
            // equals its length and every entry names a real move.
            let partition = elastic.partition();
            prop_assert_eq!(partition.version(), partition.migration_log().len() as u64);
            for m in partition.migration_log() {
                prop_assert!(m.from != m.to);
                prop_assert_eq!(partition.shard_of_component(m.component) , partition.assignment()[m.component]);
            }
        }
    }
}

/// Linear-congruential pseudo-random step for deterministic migration
/// points — no RNG crates on the test path, reproducible from the proptest
/// seed alone.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The composed path must be bit-identical to the exhaustive exact path
/// through the *sharded* runtime too: same fleet, same stream, 1/2/4
/// shards, two fleets — the *composed* path (pruning seeded from the lag
/// memories, the default) and the exhaustive reference.  Integer
/// sawtooths keep the arithmetic bit-reproducible and the envelopes
/// informative.
#[test]
fn pruned_fleet_is_bit_identical_to_exhaustive_fleet_across_shard_counts() {
    let width = 6;
    let catalog = Catalog::ring_neighbours(width);
    let mk_config = |pruning: bool| {
        TkcmConfig::builder()
            .window_length(320)
            .pattern_length(16)
            .anchor_count(2)
            .reference_count(2)
            .pruning(pruning)
            .build()
            .unwrap()
    };
    for shards in [1usize, 2, 4] {
        let mut composed =
            ShardedEngine::new(width, mk_config(true), catalog.clone(), shards).unwrap();
        let mut exhaustive =
            ShardedEngine::new(width, mk_config(false), catalog.clone(), shards).unwrap();
        let saw = |t: usize, shift: usize| ((t + shift * 29) % 128) as f64;
        for t in 0..500usize {
            let values: Vec<Option<f64>> = (0..width)
                .map(|s| {
                    if t > 60 && (t + 5 * s) % 13 < 2 {
                        None
                    } else {
                        Some(saw(t, s))
                    }
                })
                .collect();
            let tick = StreamTick::new(Timestamp::new(t as i64), values);
            let m = composed.process_tick(&tick).unwrap();
            let b = exhaustive.process_tick(&tick).unwrap();
            assert!(
                m == b,
                "composed fleet diverged at tick {t} with {shards} shards: {m:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn width_one_fleet_works() {
    // Degenerate: a single series with no candidates; every missing tick is
    // skipped (no references can ever be alive).
    let mut engine = ShardedEngine::new(1, config(), Catalog::new(), 4).unwrap();
    assert_eq!(engine.shard_count(), 1);
    for t in 0..40i64 {
        let v = if t == 39 { None } else { Some(t as f64) };
        let outcome = engine
            .process_tick(&StreamTick::new(Timestamp::new(t), vec![v]))
            .unwrap();
        if t == 39 {
            assert_eq!(outcome.skipped, vec![SeriesId(0)]);
            assert!(outcome.imputations.is_empty());
        }
    }
}

#[test]
fn empty_candidate_series_lands_in_singleton_shard_and_is_skipped() {
    // Series 0 and 1 reference each other; series 2 has no candidates and
    // must land in its own shard and be reported as skipped when missing.
    let mut catalog = Catalog::new();
    catalog
        .set_candidates(SeriesId(0), vec![SeriesId(1)])
        .unwrap();
    catalog
        .set_candidates(SeriesId(1), vec![SeriesId(0)])
        .unwrap();
    catalog.set_candidates(SeriesId(2), vec![]).unwrap();
    let mut engine = ShardedEngine::new(3, config(), catalog, 2).unwrap();
    assert_eq!(engine.shard_count(), 2);
    assert_eq!(engine.partition().components_on(1), vec![1]);
    assert_eq!(engine.partition().component_members(1), &[SeriesId(2)]);

    for t in 0..50usize {
        let missing = t == 49;
        let s0 = if missing {
            None
        } else {
            Some((t as f64 * 0.4).sin())
        };
        let s2 = if missing { None } else { Some(t as f64) };
        let tick = StreamTick::new(
            Timestamp::new(t as i64),
            vec![s0, Some((t as f64 * 0.4).cos()), s2],
        );
        let outcome = engine.process_tick(&tick).unwrap();
        if missing {
            // Series 0 is imputed from its partner; series 2 has no
            // references anywhere and is skipped.
            assert!(outcome.imputed_value(SeriesId(0)).is_some());
            assert_eq!(outcome.skipped, vec![SeriesId(2)]);
        }
    }
}
